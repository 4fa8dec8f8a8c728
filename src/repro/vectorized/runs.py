"""Vectorized sorted runs: numpy key arrays with payload indirection.

The row engine moves Python tuples one at a time; the vectorized engine
moves *chunks*.  A :class:`VectorRun` stores one sorted run as a numpy
key array plus a parallel ``row_id`` array pointing into the caller's
payload space (or ``None`` for keys-only workloads).  Runs stay in
memory: the kernel's caller already holds every surviving payload row,
so a run's arrays are the smaller part of its footprint.  Storage
accounting flows through the same :class:`~repro.storage.stats.IOStats`
counters as the row engine so measurements stay comparable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SpillError
from repro.storage.stats import IOStats

#: Bytes charged per key and per row id written or read.
_KEY_BYTES = 8
_ROW_ID_BYTES = 8


@dataclass
class VectorRun:
    """One sorted run of keys (and optional row ids) on simulated storage."""

    run_id: int
    keys: np.ndarray
    row_ids: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.row_ids is not None and len(self.row_ids) != len(self.keys):
            raise SpillError("row_ids must parallel keys")

    def __len__(self) -> int:
        return int(self.keys.size)

    @property
    def first_key(self) -> float | None:
        return float(self.keys[0]) if self.keys.size else None

    @property
    def last_key(self) -> float | None:
        return float(self.keys[-1]) if self.keys.size else None


class VectorRunStore:
    """Creates and accounts vectorized runs.

    Args:
        stats: Shared I/O counters (fresh ones if omitted).
        page_rows: Rows per simulated write request.
    """

    def __init__(self, stats: IOStats | None = None, page_rows: int = 8_192):
        self.stats = stats if stats is not None else IOStats()
        self.page_rows = page_rows
        self._next_run_id = 0
        self.runs: list[VectorRun] = []

    @staticmethod
    def _row_bytes(with_ids: bool) -> int:
        return _KEY_BYTES + (_ROW_ID_BYTES if with_ids else 0)

    def write_run(self, keys: np.ndarray,
                  row_ids: np.ndarray | None = None) -> VectorRun:
        """Persist one sorted run, charging write traffic."""
        if keys.size and np.any(np.diff(keys) < 0):
            raise SpillError("vector run keys must be sorted")
        run = VectorRun(self._next_run_id, keys, row_ids)
        self._next_run_id += 1
        self.runs.append(run)
        rows = int(keys.size)
        row_bytes = self._row_bytes(row_ids is not None)
        self.stats.rows_spilled += rows
        self.stats.bytes_written += rows * row_bytes
        self.stats.write_requests += max(
            1, -(-rows // self.page_rows)) if rows else 0
        self.stats.runs_written += 1
        return run

    def read_run(self, run: VectorRun, max_key: float | None = None
                 ) -> tuple[np.ndarray, np.ndarray | None]:
        """Read a run back, charging read traffic.

        ``max_key`` bounds the read: whole ``page_rows`` chunks whose
        first key exceeds it are skipped — not returned, not charged —
        and counted in ``pages_skipped_zone_map`` /
        ``bytes_skipped_decode``.  Sound because run keys are sorted:
        every row of a chunk starting above ``max_key`` exceeds it.  The
        caller still truncates the returned prefix precisely (chunk
        granularity may admit a few trailing rows above the bound).
        """
        rows = len(run)
        has_ids = run.row_ids is not None
        row_bytes = self._row_bytes(has_ids)
        limit = rows
        if max_key is not None and rows:
            first_keys = run.keys[::self.page_rows]
            keep = int(np.searchsorted(first_keys, max_key, side="right"))
            limit = min(rows, keep * self.page_rows)
            if limit < rows:
                skipped = -(-rows // self.page_rows) \
                    - -(-limit // self.page_rows)
                self.stats.pages_skipped_zone_map += skipped
                self.stats.bytes_skipped_decode += (rows - limit) * row_bytes
        self.stats.rows_read += limit
        self.stats.bytes_read += limit * row_bytes
        self.stats.read_requests += max(
            1, -(-limit // self.page_rows)) if limit else 0
        if limit == rows:
            return run.keys, run.row_ids
        return (run.keys[:limit],
                run.row_ids[:limit] if has_ids else None)

    def delete_run(self, run: VectorRun) -> None:
        """Drop a run (its storage is reclaimed)."""
        if run in self.runs:
            self.runs.remove(run)
        self.stats.runs_deleted += 1
