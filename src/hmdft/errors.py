"""Exception types for contract violations raised across the package."""


class AlgebraError(ValueError):
    """Base class for all domain errors raised by this package."""


class NotPrimeError(AlgebraError):
    """A parameter that must be prime is not."""


class NotPrimePowerError(AlgebraError):
    """A parameter that must be a prime power is not."""


class SizeCapError(AlgebraError):
    """A requested object exceeds the configured size cap."""


class BadTowerError(AlgebraError):
    """Field/extension parameters are inconsistent (q**n != field order, etc.)."""


class WeightRangeError(AlgebraError):
    """Weight parameter w outside its valid range."""


class OrderMismatchError(AlgebraError):
    """A supplied root of unity does not have the required multiplicative order."""


class NotDivisorError(AlgebraError):
    """The modulus N does not divide the field's multiplicative group order."""


class ModulusMismatchError(AlgebraError):
    """Two cyclic functions live on different moduli."""


class CtxMismatchError(AlgebraError):
    """Operands belong to different field contexts."""


class ExcludedCaseError(AlgebraError):
    """The requested parameters fall in a genuinely excluded case."""


class BadPermutationError(AlgebraError):
    """A supplied map is not a permutation of the required set."""


class BadSubfieldError(AlgebraError):
    """A claimed subfield does not exist or does not contain the required image."""


class DegreeMismatchError(AlgebraError):
    """A polynomial does not have the degree the operation requires."""


class ZeroPolynomialError(AlgebraError):
    """The zero polynomial was passed where a nonzero one is required."""

