"""Exception types shared across the package."""


class TumorCtrlError(Exception):
    """Base class for all package errors."""


class DomainViolationError(TumorCtrlError):
    """A potential (or its derivatives) was evaluated outside its domain."""


class DegenerateSystemError(TumorCtrlError):
    """A spectral linear solve was singular or failed its residual check."""


class StepFailureError(TumorCtrlError):
    """Newton did not converge within the iteration budget."""

    def __init__(self, step_index, residual, iterations):
        self.step_index = step_index
        self.residual = residual
        self.iterations = iterations
        super().__init__(f"step {step_index}: Newton stalled at residual "
                         f"{residual:.3e} after {iterations} iterations")


class NoSeparationIntervalError(TumorCtrlError):
    """f never exceeds the requested level toward a domain endpoint."""


class ConfigError(TumorCtrlError):
    """Experiment configuration is missing, ill-typed, or violates a hypothesis."""
