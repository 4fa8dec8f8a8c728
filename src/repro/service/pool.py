"""A pool of reusable worker sessions over one shared database.

The engine's :class:`~repro.engine.session.Database` is safe to *plan
and execute* from several threads — every query gets private operator
state and a private spill substrate from the planner factory — but the
service still wants a bounded set of long-lived execution contexts: one
per worker thread, each carrying its own accounting (queries served,
cumulative engine stats) and guaranteeing spill-file cleanup after every
query.  That is a :class:`WorkerSession`; the :class:`SessionPool` hands
them out and takes them back.

Sessions are checked out exclusively: a session is used by at most one
query at a time, so its counters need no locks (the pool's queue is the
synchronization point — the per-query-stats-then-merge contract of
:mod:`repro.storage.stats`).
"""

from __future__ import annotations

import queue
from contextlib import contextmanager
from typing import Any

from repro.engine.session import Database, QueryResult, release_plan_storage
from repro.errors import ConfigurationError, ServiceError
from repro.storage.stats import OperatorStats


class WorkerSession:
    """One reusable execution context of the pool."""

    def __init__(self, session_id: int, database: Database):
        self.session_id = session_id
        self.database = database
        self.queries_served = 0
        #: Cumulative engine-side work of every query this session ran.
        #: Written only while the session is checked out (single thread).
        self.stats = OperatorStats()

    def execute(
        self,
        sql_text: str,
        *,
        memory_rows: int | None = None,
        cutoff_seed: Any = None,
        keep_storage: bool = False,
    ) -> QueryResult:
        """Run one query, account for it, and release its spill storage.

        The service materializes results, so by default the plan's spill
        files are deleted before returning (``keep_storage=True`` opts
        out, e.g. for callers that want to inspect runs).  Failed
        executions always release storage (``Database.sql`` guarantees
        it).
        """
        result = self.database.sql(sql_text, memory_rows=memory_rows,
                                   cutoff_seed=cutoff_seed)
        self.queries_served += 1
        self.stats.merge(result.stats)
        if not keep_storage:
            release_plan_storage(result.plan)
        return result


class SessionPool:
    """Fixed-size pool of :class:`WorkerSession` objects.

    Args:
        database: The shared database the sessions execute against.
        size: Number of sessions (normally the service's worker count).
    """

    def __init__(self, database: Database, size: int):
        if size <= 0:
            raise ConfigurationError("pool size must be positive")
        self.size = size
        self.sessions = [WorkerSession(i, database) for i in range(size)]
        self._idle: queue.SimpleQueue[WorkerSession] = queue.SimpleQueue()
        for session in self.sessions:
            self._idle.put(session)

    def acquire(self, timeout: float | None = None) -> WorkerSession:
        """Check out an idle session (FIFO), blocking up to ``timeout``."""
        try:
            return self._idle.get(timeout=timeout)
        except queue.Empty:
            raise ServiceError(
                f"no idle session after {timeout}s (pool size "
                f"{self.size})") from None

    def release(self, session: WorkerSession) -> None:
        """Return a session to the pool."""
        self._idle.put(session)

    @contextmanager
    def checkout(self, timeout: float | None = None):
        """``with pool.checkout() as session:`` acquire/release pairing."""
        session = self.acquire(timeout)
        try:
            yield session
        finally:
            self.release(session)

    def total_queries_served(self) -> int:
        """Sum of queries served across all sessions."""
        return sum(session.queries_served for session in self.sessions)
