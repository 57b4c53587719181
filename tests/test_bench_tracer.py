"""The traced benchmark run wraps public `slq` functions by name.

`bench/tracer.py` is loaded from its file, unchanged, so that removing or
renaming a function it wraps fails here instead of in a traced run.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import slq.cli

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_records_and_uninstalls(tmp_path):
    tracer_module = _load_tracer()
    originals = {(module, attr): getattr(importlib.import_module(module), attr)
                 for _, module, attr, _ in tracer_module.TARGETS}
    prob = tmp_path / "prob.json"
    prob.write_text(json.dumps({
        "n": 1, "m": 1,
        "A": [[0.0]], "C": [[0.0]], "B": [[1.0]], "D": [[0.0]],
        "Q": [[1.0]], "S": [[0.0]], "R": [[1.0]], "x0": [1.0],
    }))
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        for (module, attr), original in originals.items():
            assert getattr(importlib.import_module(module), attr) is not original, attr
        tracer.request = 0
        assert slq.cli.main(["solve", str(prob), "--out", str(tmp_path / "r.json")]) == 0
    finally:
        tracer.request = None
        tracer.uninstall()
    for (module, attr), original in originals.items():
        assert getattr(importlib.import_module(module), attr) is original, attr
    names = {span.name for span in tracer.spans}
    assert {"cli.main", "stabilizability.report", "riccati.gare"} <= names
    metrics = tracer.metrics(1)
    assert metrics["riccati.gare.calls"] == (1, "count")
    assert metrics["riccati.gare.unsolvable_count"] == (0, "count")
