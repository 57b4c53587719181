"""Exception types shared across the package."""


class SlqError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(SlqError, ValueError):
    """Malformed input: non-finite entries, shape mismatch, bad options."""


class InvalidTerminalError(InvalidInputError):
    """Riccati flow started from a terminal value where R + D'GD is not positive."""


class LyapunovUnsolvableError(SlqError):
    """The Lyapunov solver could not certify the pair mean-square stable.

    The message names the failed condition: a drift that is not Hurwitz,
    eigenvalues of the drift near the imaginary axis, or a noise map that
    does not contract (neither the first sweep nor a solution meets
    Lyapunov's inequality).
    """


class NotStableError(SlqError):
    """An operation required a mean-square stable uncontrolled pair."""


class NotStabilizableError(SlqError):
    """An operation required a stabilizable controlled system."""


class UnsupportedInputError(SlqError):
    """Input outside the supported problem class (e.g. non-compact forcing)."""


class ValueUndefinedError(SlqError):
    """The value function is undefined because the range condition fails."""


class InternalInconsistencyError(SlqError):
    """A quantity that is guaranteed by construction failed its self-check."""


class SimulationBudgetError(SlqError):
    """Requested Monte Carlo work exceeds the configured budget."""
