"""Exception taxonomy shared across the package.

Exit codes follow the CLI contract: 2 for configuration / invalid input,
3 for resource limits, 4 for numerical failures.
"""


class DqeError(Exception):
    """Base class for all package errors."""

    exit_code = 2


class InvalidInstanceError(DqeError):
    """Malformed problem instance (bad qubit count, out-of-range clause, ...)."""


class ParameterError(DqeError):
    """Parameter outside its admissible range (e.g. eps not in (0, 1))."""


class DegenerateInstanceError(DqeError):
    """Instance lacks the structure an operation needs (kappa = 0, gapless spectrum)."""


class InvalidNoiseError(DqeError):
    """Noise model produces an instrument violating completeness or norm bounds."""


class ConfigError(DqeError):
    """Unusable experiment configuration or input file."""


class ResourceLimitError(DqeError):
    """Dense or transfer-matrix dimension above the configured cap."""

    exit_code = 3


class NumericalError(DqeError):
    """Base class for failures of numerical procedures."""

    exit_code = 4


class SingularFixedPointError(NumericalError):
    """Fixed-point inversion refused because the AGSP has norm too close to 1."""


class ConvergenceError(NumericalError):
    """Iterative procedure failed to converge within its budget."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class IllConditionedError(NumericalError):
    """Linear solve rejected; carries a condition-number estimate."""

    def __init__(self, message, condition=None):
        super().__init__(message)
        self.condition = condition


class InternalOrderingError(NumericalError):
    """Time bookkeeping violated an ordering invariant (t <= t1)."""
