"""Exception hierarchy for the repro library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still being able to distinguish configuration mistakes from runtime resource
problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by this library."""


class ConfigurationError(ReproError):
    """An operator or substrate was constructed with invalid parameters."""


class SchemaError(ReproError):
    """A row or column reference does not match the declared schema."""


class MemoryBudgetExceeded(ReproError):
    """An allocation was requested beyond the configured memory budget."""


class SpillError(ReproError):
    """Secondary storage (the spill substrate) failed or was misused."""


class MergeError(ReproError):
    """The merge logic was driven into an invalid state."""


class KeyEncodingError(ReproError):
    """A value defeated the order-preserving binary key encoding.

    Raised by :mod:`repro.sorting.keycodec` encoders when a row value is
    incompatible with its column's declared type in a way that would make
    the encoded byte order disagree with tuple-key order (e.g. a
    ``datetime`` in a DATE column, or an integer with no exact float64
    representation in a FLOAT64 column).
    """


class PlanError(ReproError):
    """The planner could not produce an executable plan for a query."""


class SqlSyntaxError(PlanError):
    """The SQL text could not be parsed by the mini SQL front end."""


class StaleCutoffSeed(ReproError):
    """A seeded cutoff bound eliminated rows the output actually needed.

    Raised by the top-k operator when it detects — after consuming its
    input — that fewer than ``k + offset`` rows survived while a seeded
    cutoff was filtering.  Callers that can replay the input (the session,
    the query service) catch this and re-execute without the seed, so a
    stale or over-tight seed degrades to a correct (just slower) result,
    never to a wrong one.
    """


class ServiceError(ReproError):
    """Base class for query-service failures."""


class ServiceOverloadedError(ServiceError):
    """The service's admission queue is full; the query was rejected."""


class QueryTimeoutError(ServiceError):
    """A query missed its deadline (in the queue or during execution)."""

