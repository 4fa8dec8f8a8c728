"""I/O and operator statistics.

The paper's principal optimization metric is secondary-storage traffic
("With input and output sizes fixed, the size of the required secondary
storage determines overall performance") so every substrate in this library
reports into a shared :class:`IOStats` record.  The evaluation harness reads
these counters to reproduce the paper's "spilled rows reduction" plots and
feeds them to the cost model for simulated execution times.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, fields


@dataclass
class IOStats:
    """Counters for secondary-storage traffic and operator work.

    All counters are cumulative; use :meth:`snapshot` and subtraction to
    scope a measurement to a region of execution.

    **Threading contract:** a plain ``IOStats`` is *not* thread-safe.  The
    supported pattern for concurrent execution is per-query records — each
    query's operators write into their own ``IOStats``, single-threaded —
    which are then merged into a shared aggregate *after* the query
    finishes.  That shared aggregate must be a :class:`ThreadSafeIOStats`
    (or the caller must hold its own lock around :meth:`merge`), otherwise
    concurrent merges lose counts.
    """

    #: Rows written to sorted runs on secondary storage.
    rows_spilled: int = 0
    #: Bytes written to secondary storage.
    bytes_written: int = 0
    #: Write requests (page writes) issued to the storage service.
    write_requests: int = 0
    #: Rows read back from secondary storage (merge phase).
    rows_read: int = 0
    #: Bytes read from secondary storage.
    bytes_read: int = 0
    #: Sequential read requests (page reads) issued to the storage service.
    read_requests: int = 0
    #: Random-access read requests (e.g. late-materialization lookups).
    random_reads: int = 0
    #: Sorted runs created.
    runs_written: int = 0
    #: Runs deleted after being merged/consumed.
    runs_deleted: int = 0
    #: Physical payload bytes produced by the page codec (disk backend).
    #: ``bytes_written`` stays the backend-independent *accounting* size;
    #: this is what actually hit the wire.
    bytes_encoded: int = 0
    #: Physical payload bytes consumed by the page codec (disk backend).
    bytes_decoded: int = 0
    #: Times a spill writer blocked because its background queue was full
    #: (run generation outran the disk).
    writer_stalls: int = 0
    #: Times a merge reader blocked because its read-ahead queue was
    #: empty (the disk outran heap work) — counted only for prefetched
    #: scans, and only after the first page.
    read_stalls: int = 0
    #: Wall seconds spent encoding pages (caller thread, disk backend).
    encode_seconds: float = 0.0
    #: Wall seconds spent decoding pages (reader thread when prefetching).
    decode_seconds: float = 0.0
    #: Wall seconds spent in ``write()`` (writer thread when backgrounded).
    write_seconds: float = 0.0
    #: Wall seconds the producing thread spent stalled on a full writer
    #: queue or an empty read-ahead queue.
    stall_seconds: float = 0.0
    #: Pages skipped by zone-map pruning: the page's min key (carried in
    #: the wire-format header) already exceeded the scan cutoff, so the
    #: page body was never decoded — and never prefetched off disk.
    pages_skipped_zone_map: int = 0
    #: Payload bytes whose decode was skipped — by zone-map pruning
    #: (whole pages) or late materialization (the payload section of a
    #: key/payload-split page read as a skeleton).  Physical bytes on the
    #: disk backend; stated page bytes on the in-memory backend.
    bytes_skipped_decode: int = 0
    #: Wall seconds the late-materialization stitch spent re-reading
    #: payload pages for the final winners.
    payload_stitch_seconds: float = 0.0

    def snapshot(self) -> "IOStats":
        """Return an independent copy of the current counters."""
        return IOStats(**{f.name: getattr(self, f.name) for f in fields(self)})

    def __sub__(self, other: "IOStats") -> "IOStats":
        return IOStats(**{
            f.name: getattr(self, f.name) - getattr(other, f.name)
            for f in fields(self)
        })

    def __add__(self, other: "IOStats") -> "IOStats":
        return IOStats(**{
            f.name: getattr(self, f.name) + getattr(other, f.name)
            for f in fields(self)
        })

    def merge(self, other: "IOStats") -> None:
        """Accumulate ``other`` into this record in place."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def describe(self) -> str:
        """Compact human-readable summary used by the experiment reports."""
        return (
            f"spilled={self.rows_spilled} rows/{self.bytes_written} B "
            f"in {self.runs_written} runs; "
            f"read={self.rows_read} rows/{self.bytes_read} B; "
            f"requests w={self.write_requests} r={self.read_requests} "
            f"rand={self.random_reads}"
        )


class ThreadSafeIOStats(IOStats):
    """An :class:`IOStats` aggregate safe to merge into from many threads.

    Used as the service-level accumulator: each query runs with its own
    plain ``IOStats`` (single-threaded, zero overhead on the hot path) and
    the finished record is folded in here under a lock.  ``snapshot``
    also locks, so readers always observe a consistent copy.
    """

    def __init__(self, **counters: int):
        super().__init__(**counters)
        self._lock = threading.Lock()

    def merge(self, other: IOStats) -> None:
        """Accumulate ``other`` atomically."""
        with self._lock:
            super().merge(other)

    def snapshot(self) -> IOStats:
        """A consistent, detached (plain ``IOStats``) copy."""
        with self._lock:
            return super().snapshot()

    # Arithmetic reads every field: without the lock a concurrent merge
    # could be half-applied between two field reads (a torn read), making
    # the result internally inconsistent.  Snapshot first, then compute.

    def __sub__(self, other: IOStats) -> IOStats:
        if isinstance(other, ThreadSafeIOStats):
            other = other.snapshot()
        return self.snapshot() - other

    def __add__(self, other: IOStats) -> IOStats:
        if isinstance(other, ThreadSafeIOStats):
            other = other.snapshot()
        return self.snapshot() + other


@dataclass
class OperatorStats:
    """Work counters for a top-k operator, beyond raw storage traffic.

    These mirror the quantities the paper discusses when analyzing filter
    effectiveness (Section 3.2) and filter overhead (Section 5.5).
    """

    #: Rows arriving at the operator.
    rows_consumed: int = 0
    #: Rows eliminated by the cutoff filter on arrival (Algorithm 1, line 4).
    rows_eliminated_on_arrival: int = 0
    #: Rows eliminated by the cutoff filter at spill time (line 11).
    rows_eliminated_at_spill: int = 0
    #: Rows emitted as query output.
    rows_output: int = 0
    #: Key comparisons performed against the cutoff key.
    cutoff_comparisons: int = 0
    #: Sort comparisons (heap sift / quicksort) — proxy for CPU effort.
    sort_comparisons: int = 0
    #: Full key comparisons during merging — byte-string (or tuple)
    #: comparisons that touched actual key material.  The heap merge
    #: counts a log2(fan-in)-per-operation proxy; the offset-value coded
    #: tree of losers counts exact comparisons.
    full_key_comparisons: int = 0
    #: Merge tournaments decided by offset-value codes alone — one
    #: integer comparison, no key bytes touched (see
    #: :mod:`repro.sorting.ovc`).
    code_comparisons: int = 0
    io: IOStats = field(default_factory=IOStats)

    def merge(self, other: "OperatorStats") -> None:
        """Accumulate ``other`` into this record in place.

        Same threading contract as :meth:`IOStats.merge`: per-query
        records are single-threaded; cross-thread aggregation must be
        serialized by the caller (the query service does this under its
        stats lock).
        """
        self.rows_consumed += other.rows_consumed
        self.rows_eliminated_on_arrival += other.rows_eliminated_on_arrival
        self.rows_eliminated_at_spill += other.rows_eliminated_at_spill
        self.rows_output += other.rows_output
        self.cutoff_comparisons += other.cutoff_comparisons
        self.sort_comparisons += other.sort_comparisons
        self.full_key_comparisons += other.full_key_comparisons
        self.code_comparisons += other.code_comparisons
        self.io.merge(other.io)

    def snapshot(self) -> "OperatorStats":
        """An independent copy (counters and the nested ``io`` record)."""
        copy = OperatorStats(
            rows_consumed=self.rows_consumed,
            rows_eliminated_on_arrival=self.rows_eliminated_on_arrival,
            rows_eliminated_at_spill=self.rows_eliminated_at_spill,
            rows_output=self.rows_output,
            cutoff_comparisons=self.cutoff_comparisons,
            sort_comparisons=self.sort_comparisons,
            full_key_comparisons=self.full_key_comparisons,
            code_comparisons=self.code_comparisons,
        )
        copy.io = self.io.snapshot()
        return copy

    @property
    def rows_eliminated(self) -> int:
        """Total rows removed by the cutoff filter before or at spilling."""
        return self.rows_eliminated_on_arrival + self.rows_eliminated_at_spill

    @property
    def elimination_fraction(self) -> float:
        """Fraction of consumed input removed by the filter."""
        if self.rows_consumed == 0:
            return 0.0
        return self.rows_eliminated / self.rows_consumed
