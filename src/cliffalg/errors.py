"""Exception hierarchy shared by all cliffalg modules."""


class CliffordError(Exception):
    """Base class for all errors raised by this package."""


class DomainMismatchError(CliffordError):
    """Operands carry different scalar domains (no implicit coercion)."""


class UnsupportedDomainError(CliffordError):
    """Operation is undefined for the given scalar domain."""


class DegenerateFormError(CliffordError):
    """A signature value is zero at an index the operation touches."""


class SupportRangeError(CliffordError):
    """A multivector's support falls outside the allowed index range."""


class MembershipError(CliffordError):
    """Element does not belong to the required subalgebra."""


class InvalidChainError(CliffordError):
    """Factor-chain cuts are not even and strictly increasing."""


class NotOrthogonalError(CliffordError):
    """Linear map fails the Gram-preservation check."""


class NotInverseError(CliffordError):
    """Supplied inverse certificate does not multiply to 1."""


class NotSkewError(CliffordError):
    """Map is not skew-symmetric."""


class NotBogolyubovError(CliffordError):
    """Even derivation does not restrict to the generating vector space."""


class NotAdSumError(CliffordError):
    """Generator-action table is inconsistent with any finite ad-sum."""


class ParityError(CliffordError):
    """Blade parity contradicts the declared parity of a family."""


class ContractViolationError(CliffordError):
    """A lazy family term beyond its declared cutoff acted nontrivially."""


class ShapeMismatchError(CliffordError):
    """Tensor elements built over different factor shapes."""


class InvalidAutomorphismError(CliffordError):
    """Per-factor conjugating matrix is singular."""


class DigitLimitError(CliffordError):
    """An exact value has more decimal digits than the interpreter will print."""


class ParseError(CliffordError):
    """Expression syntax error; carries line/column information."""

    def __init__(self, message, line=1, column=0):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column
