"""Exception types raised across the package.  ``exit_code`` is the
command-line exit status each one maps to: 2 for parse and validation
errors, 3 for solver failures and 4 for a grid too narrow."""


class BckoscError(Exception):
    """Base class for all package-specific errors."""
    exit_code = 2


class OutOfDomain(BckoscError):
    """A tabulated time function was evaluated outside its sample range."""


class ParseError(BckoscError):
    """A scenario document could not be parsed."""


class ValidationError(BckoscError):
    """A scenario violates a structural constraint (bad grid, bad window, ...)."""


class InvalidIC(BckoscError):
    """Initial conditions could not be resolved (e.g. overdamped defaults)."""


class StepSizeUnderflow(BckoscError):
    """The integrator cannot resolve the solution: a state or step map left
    the float range although the steps before it were fine enough, or the
    grid would need more than ``core.MAX_COUNT`` steps.  The message names
    the system and, for a non-finite state, the time."""
    exit_code = 3


class DegenerateSolutions(BckoscError):
    """The amplitude solution and its conjugate are linearly dependent (Wronskian ~ 0)."""
    exit_code = 3


class GammaVanishes(BckoscError):
    """e^G gamma <= 1e-12 where a positive envelope is required (division by gamma)."""
    exit_code = 3


class OmegaNotPositive(BckoscError):
    """The conserved normalization Omega is not finite and positive."""
    exit_code = 3


class GridTooNarrow(BckoscError):
    """The spatial grid does not contain the wavefunction envelope.

    Carries ``suggested_qmax``, the half-width that would satisfy the
    adequacy rule for the requested state.
    """
    exit_code = 4

    def __init__(self, message, suggested_qmax=None):
        super().__init__(message)
        self.suggested_qmax = suggested_qmax


class DegreeTooLarge(BckoscError):
    """Hermite degree beyond the supported range (n > 200)."""


class SolverBreakdown(BckoscError):
    """A split-operator step left a state that is not finite: the
    Hamiltonian is not, or a phase exponent dt H/hbar overflows.  A finite
    exponent gives a unimodular phase, however large."""
    exit_code = 3
