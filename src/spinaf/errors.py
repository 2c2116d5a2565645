"""Exception types shared across the package."""


class SpinafError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(SpinafError):
    """An operation mixed elements of different Clifford algebras, or the
    requested dimension is outside the supported range."""


class NonVectorError(SpinafError):
    """An element expected to be a grade-1 vector was not."""


class UnsupportedScalar(SpinafError):
    """A computation left the rationals-adjoined-sqrt2 coefficient field."""


class NotInSO(SpinafError):
    """A matrix expected to be special orthogonal was not."""


class NotInImage(SpinafError):
    """A matrix has no preimage under the covering map over the supported
    coefficient field."""


class ClosureBoundExceeded(SpinafError):
    """A group closure computation exceeded its element bound."""


class UnknownGroup(SpinafError):
    """A finite group could not be matched against the supported catalogue
    of isomorphism types."""


class InconsistentRecord(SpinafError):
    """A catalogue record is internally inconsistent (bad relator, wrong
    holonomy order, mismatched character data, ...)."""


class EnumerationBoundExceeded(SpinafError):
    """A coset or sign enumeration exceeded its configured bound."""


class CatalogFormatError(SpinafError):
    """A catalogue or expectations file failed validation."""
