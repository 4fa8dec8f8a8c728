"""The cutoff filter: a priority queue of histogram buckets.

This is the heart of the paper's contribution (Section 3.1.2).  The filter
maintains a priority queue of histogram buckets sorted in the *inverse*
direction of the requested output, so the top of the queue holds the largest
boundary key.  Invariants:

* A **cutoff key exists** exactly when the buckets together represent at
  least ``k`` rows (``Σ size ≥ k``): then at least k rows are known to sort
  at or below the top boundary, so any row sorting strictly above it cannot
  be part of the output.
* The filter **sharpens** by popping the top bucket whenever the remaining
  buckets still cover k rows (``Σ size − top.size ≥ k``); the new top
  boundary becomes the (smaller) cutoff key.  The pop check runs after
  every insertion, so the cutoff can tighten while the very run that feeds
  it is still being written.
* When the queue grows beyond its memory allocation, a **consolidation**
  step (Section 5.1.2) replaces all buckets with a single bucket whose
  boundary is the current top's boundary and whose size is the sum of all
  sizes — the filter keeps its current cutoff at the cost of future
  sharpening granularity, and pays only one insertion.
"""

from __future__ import annotations

import logging
from bisect import insort
from dataclasses import dataclass, field
from itertools import repeat
from operator import ge, gt, itemgetter, le, lt
from typing import Any, Callable, Sequence

from repro.core.histogram import Bucket
from repro.errors import ConfigurationError
from repro.rows.batch import numeric_key_column
from repro.rows.schema import ColumnType
from repro.rows.sortspec import SortSpec, key_value_decoder
from repro.sorting.keycodec import leading_value_decoder

logger = logging.getLogger(__name__)


class _ReverseKey:
    """Orders keys descending inside Python's min-heap."""

    __slots__ = ("key",)

    def __init__(self, key: Any):
        self.key = key

    def __lt__(self, other: "_ReverseKey") -> bool:
        return other.key < self.key

    def __repr__(self) -> str:
        return f"_ReverseKey({self.key!r})"


class _HeapEntry:
    """One resident row of a priority-queue top-k's max-heap.

    Orders by key descending, then by arrival ``seq`` ascending, in one
    ``__lt__`` call per heap comparison.
    """

    __slots__ = ("key", "seq", "row")

    def __init__(self, key: Any, seq: int, row: tuple):
        self.key = key
        self.seq = seq
        self.row = row

    def __lt__(self, other: "_HeapEntry") -> bool:
        if other.key < self.key:
            return True
        if self.key < other.key:
            return False
        return self.seq < other.seq


class _AboveCutoff:
    """The key of a row the prefilter dropped: above every cutoff."""

    def __le__(self, other: Any) -> bool:
        return False


ABOVE_CUTOFF = _AboveCutoff()


def leading_column_prefilter(spec: SortSpec | None, binary: bool
                             ) -> Callable[..., list[bool] | None] | None:
    """``keep``, the arrival test's first pass for a top-k on ``spec``, or
    ``None`` unless its leading column is a non-nullable INT64, FLOAT64 or
    DECIMAL (bounds are binary keys when ``binary``, else one-column
    tuple keys) or, on binary keys, a non-nullable STRING.

    ``keep(batch, bound, start=0)``: one flag per row of
    ``batch.rows[start:]``, true to keep it, or ``None`` when the test
    cannot run.  A row goes only when its leading value sorts past the
    bound's, so its key does: exact, as bounds only tighten.

    A numeric column is compared in numpy, as float64 (negated for DESC;
    float64 rounding is monotone); ``None`` when the column has no
    float64 array or the bound does not fit a float64.  NaN compares
    false, so it reaches the per-row test.  A string column is compared
    natively (code-point order is the encoded order); ``None`` when the
    bound's string is cut before its terminator or a value is not a
    ``str`` (its encode raises the typed error).
    """
    if spec is None:
        return None
    first = spec.schema.column(spec.columns[0].name)
    if binary and first.type is ColumnType.STRING and not first.nullable:
        return _leading_string_prefilter(spec)
    leading = numeric_key_column(SortSpec(spec.schema, spec.columns[:1]))
    if leading is None:
        return None
    value_of = (leading_value_decoder if binary else key_value_decoder)(spec)
    if value_of is None:
        return None
    index, descending = leading
    above = lt if descending else gt

    def keep(batch, bound: Any, start: int = 0) -> list[bool] | None:
        # Only a tuple key reads the column again (the NaN test).
        column = batch.key_array(index, cache=not binary)
        if column is None:
            return None
        try:
            value = float(value_of(bound))
        except OverflowError:
            return None
        return (~above(column[start:], value)).tolist()

    return keep


def _leading_string_prefilter(spec: SortSpec) -> Callable:
    """:func:`leading_column_prefilter` for a STRING leading column."""
    column = spec.columns[0]
    index = spec.schema.index_of(column.name)
    value_of = leading_value_decoder(spec)
    within = le if column.ascending else ge

    def keep(batch, bound: bytes, start: int = 0) -> list[bool] | None:
        value = value_of(bound)
        if value is None:
            return None
        rows = batch.rows[start:] if start else batch.rows
        try:
            return list(map(within, map(itemgetter(index), rows),
                            repeat(value)))
        except TypeError:
            return None

    return keep


@dataclass
class CutoffFilterStats:
    """Observability counters for the filter (used by Section 5.5)."""

    buckets_inserted: int = 0
    buckets_popped: int = 0
    consolidations: int = 0
    refinements: int = 0
    rows_eliminated: int = 0
    #: Rows eliminated while the active cutoff was a seeded bound (i.e.
    #: before the filter's own buckets refined past the seed).
    rows_eliminated_by_seed: int = 0


@dataclass
class CutoffFilter:
    """Histogram-priority-queue cutoff filter for a top-k operation.

    The filter is agnostic to the key representation: keys are only ever
    compared with ``<`` / ``>`` and counted, never inspected.  Operators
    running on the binary key codec (:mod:`repro.sorting.keycodec`) feed
    it order-preserving byte strings and everything — buckets, cutoff
    keys, seeds — lives in that byte key space; tuple-key operators feed
    it normalized tuples.  The two spaces must never mix within one
    filter instance.

    Args:
        k: Requested output size (including any OFFSET rows: the filter
            must preserve ``offset + limit`` rows).
        bucket_capacity: Maximum buckets resident in the queue before a
            consolidation step; models the paper's 1 MB histogram memory
            allocation.  ``None`` disables consolidation.
        on_refine: Optional callback invoked with the new cutoff key on
            every establishment/refinement — lets callers trace the
            sharpening trajectory (the dynamics Table 1 tabulates).
    """

    k: int
    bucket_capacity: int | None = None
    stats: CutoffFilterStats = field(default_factory=CutoffFilterStats)
    on_refine: Any = None

    def __post_init__(self) -> None:
        if self.k <= 0:
            raise ConfigurationError("k must be positive")
        if self.bucket_capacity is not None and self.bucket_capacity < 1:
            raise ConfigurationError("bucket_capacity must be >= 1")
        # The priority queue: ``(boundary_key, -seq, size)`` entries kept
        # sorted, so the top -- the largest boundary and, among equal
        # boundaries, the earliest inserted -- is the last entry.  Plain
        # tuples keep every comparison in C.  Up to about a thousand
        # resident buckets (k over the bucket stride), ``insort``'s move
        # of the tail costs no more than an interpreted heap sift.
        self._queue: list[tuple[Any, int, int]] = []
        self._seq = 0
        self._coverage = 0
        self._cutoff: Any = None
        self._seed_key: Any = None
        self._cutoff_from_seed = False

    # -- observers ---------------------------------------------------------

    @property
    def cutoff_key(self) -> Any:
        """The current cutoff key, or ``None`` if not yet established."""
        return self._cutoff

    @property
    def is_established(self) -> bool:
        """Whether input rows can be eliminated yet."""
        return self._cutoff is not None

    @property
    def coverage(self) -> int:
        """Total rows represented by the resident buckets (Σ size)."""
        return self._coverage

    @property
    def bucket_count(self) -> int:
        """Buckets currently resident in the priority queue."""
        return len(self._queue)

    @property
    def top_bucket(self) -> Bucket | None:
        """The bucket with the largest boundary (the next to pop), or
        ``None`` when the queue is empty."""
        if not self._queue:
            return None
        key, _seq, size = self._queue[-1]
        return Bucket(boundary_key=key, size=size)

    @property
    def seed_key(self) -> Any:
        """The seeded initial bound, or ``None`` if never seeded."""
        return self._seed_key

    @property
    def cutoff_is_seed(self) -> bool:
        """Whether the current cutoff is still the seeded bound (the
        filter's own buckets have not refined past it)."""
        return self._cutoff_from_seed

    # -- core operations -----------------------------------------------------

    def seed(self, key: Any) -> None:
        """Install ``key`` as an initial cutoff bound (cutoff reuse).

        The seed asserts that at least ``k`` input rows sort at or below
        ``key`` — e.g. a cutoff achieved by an earlier query over the same
        (table version, predicates, sort spec).  Rows sorting strictly
        above it are eliminated from the very first insertion-free row.

        The filter itself cannot verify the assertion; the consuming
        operator must (and :class:`~repro.core.topk.HistogramTopK` does)
        detect underflow after the input is exhausted and raise
        :class:`~repro.errors.StaleCutoffSeed` so callers re-execute
        without the seed.  Seeding never loosens an established cutoff.
        """
        if key is None:
            return
        self._seed_key = key
        if self._cutoff is None or key < self._cutoff:
            self._cutoff = key
            self._cutoff_from_seed = True
            self.stats.refinements += 1
            if self.on_refine is not None:
                self.on_refine(key)

    def insert(self, bucket: Bucket) -> None:
        """Add one histogram bucket and re-derive the cutoff key: the
        one-bucket case of :meth:`insert_sorted`, without its stop rule."""
        self.insert_sorted((bucket.boundary_key,), bucket.size, stop=False)

    def insert_sorted(self, boundaries: Sequence, size: int,
                      stop: bool = True) -> int:
        """Add buckets of ``size`` rows bounded by ``boundaries`` (non-
        decreasing), in order; return how many went in.

        This is the whole update step, per bucket: push, then pop while
        the remaining buckets still cover ``k`` rows, then (maybe)
        consolidate.  With ``stop``, the first boundary above the cutoff
        live when it arrives is refused, and so is every later one.  A
        sorted run piece's boundaries arrive this way (the paper's
        ``rowSpilled``, Algorithm 1 line 13, for each histogram boundary
        the piece crosses); a refused boundary is where the spill-time
        re-check truncates the run.
        """
        if size <= 0:
            raise ConfigurationError("bucket size must be positive")
        k = self.k
        stats = self.stats
        capacity = self.bucket_capacity
        inserted = 0
        for key in boundaries:
            cutoff = self._cutoff
            if stop and cutoff is not None and key > cutoff:
                break
            inserted += 1
            self._seq += 1
            queue = self._queue
            insort(queue, (key, -self._seq, size))
            self._coverage += size
            stats.buckets_inserted += 1

            # Sharpen: drop the largest boundaries while coverage allows.
            while self._coverage - queue[-1][2] >= k:
                self._coverage -= queue.pop()[2]
                stats.buckets_popped += 1

            if self._coverage >= k:
                new_cutoff = queue[-1][0]
                if cutoff is None or new_cutoff < cutoff:
                    if cutoff is None and \
                            logger.isEnabledFor(logging.DEBUG):
                        logger.debug(
                            "cutoff established at %r after %d buckets "
                            "(coverage %d >= k=%d)", new_cutoff,
                            stats.buckets_inserted, self._coverage, k)
                    self._cutoff = new_cutoff
                    self._cutoff_from_seed = False
                    stats.refinements += 1
                    if self.on_refine is not None:
                        self.on_refine(new_cutoff)

            if capacity is not None and len(queue) > capacity:
                self._consolidate()
        return inserted

    def _consolidate(self) -> None:
        """Collapse all buckets into one (Section 5.1.2).

        The new bucket's boundary is the current top's boundary, its size
        the sum of all sizes; the established cutoff is unchanged.
        """
        top_key = self._queue[-1][0]
        total = self._coverage
        dropped = len(self._queue) - 1
        self._seq += 1
        self._queue = [(top_key, -self._seq, total)]
        self.stats.consolidations += 1
        logger.debug(
            "consolidated %d buckets into one (boundary %r, size %d)",
            dropped + 1, top_key, total)

    def admit_batch(self, keep: Callable, batch: Any,
                    start: int = 0) -> list[bool] | None:
        """:meth:`eliminate` for ``batch.rows[start:]`` through a
        :func:`leading_column_prefilter` (``keep``): its flags, or ``None``
        (no cutoff yet, or the test cannot run).  The rows it drops count
        as eliminated."""
        if self._cutoff is None:
            return None
        flags = keep(batch, self._cutoff, start)
        if flags is not None:
            self.count_eliminated(flags.count(False))
        return flags

    def eliminate(self, key: Any) -> bool:
        """Return True when a row with ``key`` cannot be in the output.

        A row is eliminated only if its key sorts *strictly above* the
        cutoff: ties with the cutoff key are retained, because the k
        guaranteed rows are only known to be ≤ the cutoff.
        """
        if self._cutoff is None:
            return False
        if key > self._cutoff:
            self.stats.rows_eliminated += 1
            if self._cutoff_from_seed:
                self.stats.rows_eliminated_by_seed += 1
            return True
        return False

    def count_eliminated(self, rows: int) -> None:
        """Record ``rows`` eliminated against the current cutoff by a
        caller that compared them itself (the batch form of
        :meth:`eliminate`'s bookkeeping)."""
        self.stats.rows_eliminated += rows
        if self._cutoff_from_seed:
            self.stats.rows_eliminated_by_seed += rows

    def describe(self) -> str:
        """Debug/report summary of the filter state."""
        seeded = (f" seed={self._seed_key!r}"
                  if self._seed_key is not None else "")
        return (
            f"cutoff={self._cutoff!r}{seeded} "
            f"coverage={self._coverage}/{self.k} "
            f"buckets={len(self._queue)} "
            f"(ins={self.stats.buckets_inserted} "
            f"pop={self.stats.buckets_popped} "
            f"cons={self.stats.consolidations})"
        )
