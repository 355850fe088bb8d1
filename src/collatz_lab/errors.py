"""Exception types shared across the toolkit."""


class CollatzLabError(Exception):
    """Base class for all toolkit errors."""


class DomainError(CollatzLabError, ValueError):
    """Input outside an operation's domain (e.g. the glide of 1)."""


class LimitExceeded(CollatzLabError):
    """An iteration hit its step budget before finishing.

    Carries the partial result when one is available, so callers can see how
    far the walk got before retrying with a larger budget: a walk's
    ``partial`` is the list so far (the orbit of ``trajectory``, ``delay`` and
    ``class_sequence``, or the blocks of ``decompose_until_trivial``).  Raised
    instead of silently truncating: a truncated walk must never look like a
    verified one.
    """

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


class InvalidPolyline(CollatzLabError, ValueError):
    """Vertex counts that do not describe any positive integer."""


class PatternMismatch(CollatzLabError, ValueError):
    """A vertex-count sequence does not fit the requested cycle pattern."""


class IdentityViolation(CollatzLabError):
    """An identity the code relies on failed on a concrete input.

    Raised by explicit checks rather than ``assert``, so that ``python -O``
    cannot strip it."""


class SweepWorkerError(CollatzLabError):
    """A worker process of a sweep or of the cycle search crashed, died by
    a signal or sent back a short or unpicklable result, so neither ends in
    a partial report or result.  The message names the items the worker
    claimed (a sweep's spans, or the search's first blocks) in claim order,
    the one it failed in last."""
