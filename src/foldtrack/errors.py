"""Exception hierarchy shared by all foldtrack modules."""


class FoldtrackError(Exception):
    """Base class for every error raised by this package."""


# -- regression layer ------------------------------------------------------

class FactorizationFailure(FoldtrackError):
    """Covariance matrix not positive definite even after jitter escalation."""


class NumericalBreakdown(FoldtrackError):
    """A computed quantity violates its mathematical bounds beyond tolerance."""


class OptimizationFailure(FoldtrackError):
    """Hyperparameter fit failed on every restart; caller keeps its initial guess."""


class DuplicatePoint(FoldtrackError, ValueError):
    """Input location coincides with an existing training input within tolerance."""


class IndexOutOfRange(FoldtrackError, IndexError):
    """Training-point index outside [0, n)."""


# -- continuation layer ----------------------------------------------------

class ContinuationError(FoldtrackError):
    """Base class for predictor-corrector failures."""


class NoConvergence(ContinuationError):
    """Newton iteration hit its cap before the residual tolerance."""


class LeftDataCloud(ContinuationError):
    """An iterate exited the region supported by training data (or the domain box)."""


class SingularJacobian(ContinuationError):
    """Zero-problem Jacobian (near-)singular; signals a cusp or branch point."""


class StepUnderflow(ContinuationError):
    """Step-size control would shrink h below h_min."""


class DomainExit(StepUnderflow):
    """Step underflow whose last halving came from a prediction outside the domain box."""


# -- acquisition layer -----------------------------------------------------

class DomainExhausted(FoldtrackError):
    """Candidate ellipse intersected with the domain box is too small to sample."""


class CollectionCap(FoldtrackError):
    """improve_solution hit max_points_per_step with max beta still above threshold.

    Carries the partial result so a driver can log a warning and continue.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


# -- experiment oracles ----------------------------------------------------

class OracleError(FoldtrackError):
    """Base class for measurement back-end failures."""


class OutOfDomain(OracleError):
    """Requested (omega, A_target) outside the oracle's declared domain box."""


class ControlDiverged(OracleError):
    """Closed-loop response exceeded the saturation bound."""


class PicardDiverged(OracleError):
    """Higher-harmonic cancellation did not converge within its iteration cap."""


# -- front end -------------------------------------------------------------

class ConfigError(FoldtrackError):
    """Malformed or inconsistent run configuration."""


class MissingInput(FoldtrackError):
    """A required upstream artifact (file) is absent."""


class EmptySliceWarning(UserWarning):
    """NLFR slice matched no measured points and no fold markers."""
