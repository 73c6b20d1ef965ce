"""Exception types shared across the library."""


class GaussLabError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(GaussLabError):
    """Operands have incompatible shapes or mode counts."""


class ValidityError(GaussLabError):
    """A channel or state violates a physicality constraint."""


class NotHermitian(ValidityError):
    """A matrix required to be Hermitian is not, beyond tolerance."""


class InvalidNoise(ValidityError):
    """The noise matrix violates the channel validity inequality."""


class InvalidState(ValidityError):
    """A correlation matrix sits below the vacuum bound."""


class NotQuantumLimited(GaussLabError):
    """Operation requires a quantum-limited attenuator or amplifier."""


class NotQuantumLimitedAmplifier(NotQuantumLimited):
    """Operation requires a quantum-limited amplifier."""


class DimensionTooLarge(GaussLabError, ValueError):
    """A Fock space's total dimension exceeds the guard (``fock.DIM_GUARD``)."""


class NotDiagonal(GaussLabError):
    """Operation requires diagonal transmission and noise matrices."""


class InvalidOrder(GaussLabError):
    """Renyi order must satisfy p > 1."""


class AmplitudeTooLarge(GaussLabError):
    """Phase-space amplitude exceeds the truncation guard."""


class ParameterOutOfRange(GaussLabError):
    """Channel parameter outside its admissible range."""


class TruncationLeakage(GaussLabError):
    """Probability mass pushed past the Fock cutoff exceeds the budget."""


class ConditionNotMet(GaussLabError):
    """A precondition on the channel or functional does not hold."""


class TailMassTooLarge(GaussLabError):
    """Estimated probability mass outside the phase-space grid too large."""


class QuadratureError(GaussLabError):
    """A grid quadrature failed its normalization check."""


class UsageError(GaussLabError):
    """Bad command-line usage."""


class FileFormatError(GaussLabError):
    """Malformed channel or report file."""
