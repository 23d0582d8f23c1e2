"""Exception hierarchy for the :mod:`repro` package.

All exceptions raised by this library derive from :class:`ReproError` so
callers can catch library failures with a single ``except`` clause while
letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """A configuration is invalid or inconsistent.

    Raised, for example, when the memory size ``M`` is too small to support
    any merge order, or when ``D < 1``.
    """


class DiskError(ReproError):
    """Base class for failures of the simulated parallel disk system."""


class DiskFullError(DiskError):
    """A disk with finite capacity has no free slots left."""


class InvalidIOError(DiskError):
    """A parallel I/O request violates the D-disk model.

    The Vitter–Shriver model allows at most one block to be transferred
    to or from **each** disk per parallel I/O operation.  Requests that
    address the same disk twice in one operation, read unallocated slots,
    or overwrite live blocks raise this error.
    """


class DiskDeadError(DiskError):
    """An operation targets a disk that has permanently failed.

    Degraded mode normally remaps dead-disk blocks onto the surviving
    spindles transparently; this error surfaces only when no survivor
    exists (every disk has died) or a fault plan kills the sole disk of
    a D = 1 system.
    """


class ScheduleError(ReproError):
    """The SRM I/O scheduler detected an invariant violation.

    In ``validate`` mode the scheduler checks the paper's lemmas at run
    time (leading blocks are never flushed, a stalled-on block is fetched
    by a single ``ParRead``, buffer budgets are never exceeded).  Any
    violation — which would indicate an implementation bug, not a user
    error — raises this exception.
    """


class DataError(ReproError):
    """Input data does not satisfy a documented precondition.

    For example: a run supplied to the merger is not sorted, or a
    simulator job contains non-increasing block key boundaries.
    """
