"""Exception hierarchy shared by all modules."""


class MinusculeError(Exception):
    """Base class for every error raised by this package."""


class InvalidType(MinusculeError):
    """(family, rank) is not a valid finite Cartan type."""


class InvalidIndex(MinusculeError):
    """Simple-reflection or crystal-operator index out of range."""


class InvalidWeight(MinusculeError):
    """A weight is not a list or tuple of ``rank`` int entries."""


class OrbitTooLarge(MinusculeError):
    """Weyl orbit enumeration exceeded the configured cap."""


class EnumerationTooLarge(MinusculeError):
    """Path, crystal or charge-count enumeration exceeded its cap."""


class AlgorithmInvariantViolated(MinusculeError):
    """An internal assertion failed; this always signals a bug, never bad input."""


class SequenceNotPeriodic(MinusculeError):
    """The weight sequence is not invariant under the requested cyclic shift."""


class NotInvariant(MinusculeError):
    """Crystal element is not highest weight of weight zero."""


class TypeMismatch(MinusculeError):
    """Operation is only defined for type A root systems."""


class InvalidTableau(MinusculeError):
    """Array is not a rectangular row-strict tableau of the expected kind."""


class InvalidContent(MinusculeError):
    """Word content is not a partition."""


class SizeMismatch(MinusculeError):
    """|shape| and |content| disagree."""


class InvalidPath(MinusculeError):
    """Point list violates the step-orbit or dominance constraints."""


class InvalidSequence(MinusculeError):
    """Weight list is not a sequence of dominant minuscule weights."""


class OracleTooLarge(MinusculeError):
    """Alternating-sum oracle would iterate over too large a symmetric group,
    or its q-partition count would run past its work cap."""


class NotInRootLattice(MinusculeError):
    """Total weight of the sequence lies outside the root lattice."""
