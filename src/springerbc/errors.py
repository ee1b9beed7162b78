"""Exception types shared across the package."""


class SpringerError(Exception):
    """Base class for all domain errors raised by this package."""


class OldsNotPresent(SpringerError):
    """Substitution asked to remove parts that are not in the partition."""


class NegativePart(SpringerError):
    """An operation would create a negative part."""


class DomainMismatch(SpringerError):
    """A chi function is not defined exactly on the distinct parts."""


class RankTooSmall(SpringerError):
    """Symbol parameters r, s, m do not satisfy the admissibility bounds."""


class NotAPart(SpringerError):
    """Queried value is not a part of the relevant partition."""


class Inconsistent(SpringerError):
    """Pair-recovery input does not come from any bipartition."""


class BadRange(SpringerError):
    """geometric_sum called with a < b."""


class InvalidParam(SpringerError):
    """Orbit parameter fails its validity conditions."""


class BadCharacteristic(SpringerError):
    """Field characteristic does not match the requested theory."""


class NotNilpotent(SpringerError):
    """Matrix passed to jordan_type is not nilpotent."""


class HalvingFailed(SpringerError):
    """Jordan type expected to be of the doubled form lambda-union-lambda."""


class InvariantViolation(SpringerError):
    """A computed result breaks an invariant its formula guarantees (an
    internal error, not bad input); raised, not asserted, so that the check
    also holds under ``python -O``."""
