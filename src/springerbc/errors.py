"""The package's two exception types: ``InvalidParam`` for an input that
fails a precondition, ``InvariantViolation`` for a computed result that
breaks a property its formula guarantees.  The CLI reports either as
``error: ...`` with exit 2."""


class InvalidParam(ValueError):
    """An argument fails a precondition of the call it was passed to: a
    malformed text, an invalid orbit parameter, an out-of-range rank or
    field size, a wrong characteristic.  A ``ValueError``, so that
    ``except ValueError`` still catches every bad input."""


class InvariantViolation(Exception):
    """A computed result breaks an invariant its formula guarantees (an
    internal error, not bad input); raised, not asserted, so that the check
    also holds under ``python -O``."""
