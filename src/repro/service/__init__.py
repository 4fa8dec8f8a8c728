"""Concurrent top-k query service.

A multi-tenant front end over the single-query engine: a
:class:`QueryService` executes SQL on a bounded set of worker threads,
a :class:`MemoryGovernor` arbitrates one global sort-memory budget
(shrinking leases under pressure so queries spill earlier instead of
failing), and a :class:`ResultCache` serves repeated queries — exactly
when the normalized query matches, and via *cutoff reuse* otherwise:
the proven cutoff of a finished top-k run seeds the cutoff filter of
the next query over the same scope, eliminating input from row one.

See ``docs/API.md`` ("Query service") for a worked example.
"""

from repro.service.cache import CachedResult, CutoffHint, ResultCache
from repro.service.governor import MemoryGovernor, MemoryLease
from repro.service.service import (
    QueryService,
    QueryTicket,
    ServiceResult,
    ServiceStats,
)

__all__ = [
    "CachedResult",
    "CutoffHint",
    "MemoryGovernor",
    "MemoryLease",
    "QueryService",
    "QueryTicket",
    "ResultCache",
    "ServiceResult",
    "ServiceStats",
]
