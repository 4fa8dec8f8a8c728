"""Histogram buckets and per-run histogram construction.

A histogram bucket (Section 3.1.2) is defined by its *boundary key* — the
maximum key of the rows it represents — and its *size* — how many spilled
rows it stands for.  Buckets are created while a run is being written: every
``stride`` spilled rows, the key just written becomes a boundary and a
bucket of size ``stride`` is pushed to the cutoff filter's priority queue.

The rows written after the last boundary of a run are *not* represented by
any bucket.  This is deliberately conservative: the filter's correctness
argument needs ``Σ bucket.size`` to never overstate how many rows are known
to sort at or below the tracked boundaries.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.core.policies import SizingPolicy


@dataclass(frozen=True)
class Bucket:
    """One histogram bucket: ``size`` rows with keys ≤ ``boundary_key``."""

    boundary_key: Any
    size: int

    def __repr__(self) -> str:
        return f"Bucket(≤{self.boundary_key!r} ×{self.size})"


def first_above_cutoff(keys: list, start: int, stop: int, check: Any) -> int:
    """First position in the sorted ``keys[start:stop]`` above ``check``'s
    cutoff (``check`` may be ``None``), else ``stop``."""
    cutoff = None if check is None else check.cutoff_key
    if cutoff is None:
        return stop
    return bisect_right(keys, cutoff, start, stop)


class RunHistogramBuilder:
    """Builds a histogram incrementally from one run's spilled rows.

    The builder is fed every written row — one at a time via :meth:`add`
    (replacement selection wires it to the run writer's ``on_spill``
    hook), or a sorted run piece at a time via :meth:`extend` (load-sort-
    store) — and emits finished buckets: :meth:`add` one at a time to
    ``sink``, in practice :meth:`repro.core.cutoff.CutoffFilter.insert`,
    and :meth:`extend` all of a piece's in one call to ``insert_sorted``,
    in practice :meth:`repro.core.cutoff.CutoffFilter.insert_sorted`.

    Args:
        policy: Sizing policy deciding the bucket stride and cap.
        expected_run_rows: Best-effort estimate of the run's final length,
            from which the policy derives the stride (Section 5.1.2: "a
            best effort is made to decide the target number of histogram
            buckets collected from each run").
        sink: Receiver of the :class:`Bucket` objects :meth:`add` emits.
        insert_sorted: ``(boundaries, size, stop) -> count``, the receiver
            of :meth:`extend`'s buckets (needed only by :meth:`extend`).
    """

    def __init__(
        self,
        policy: SizingPolicy,
        expected_run_rows: int,
        sink: Callable[[Bucket], None],
        insert_sorted: Callable[[Sequence, int, bool], int] | None = None,
    ):
        self._sink = sink
        self._insert_sorted = insert_sorted
        self._stride = policy.stride(expected_run_rows)
        self._cap = policy.max_buckets(expected_run_rows)
        self._rows_since_boundary = 0
        self._emitted = 0

    @property
    def enabled(self) -> bool:
        """False when the policy collects no histogram at all."""
        return self._stride is not None

    def add(self, key: Any) -> None:
        """Record one spilled row; may emit a bucket bounded by ``key``."""
        if self._stride is None:
            return
        if self._cap is not None and self._emitted >= self._cap:
            return
        self._rows_since_boundary += 1
        if self._rows_since_boundary >= self._stride:
            self._sink(Bucket(boundary_key=key, size=self._rows_since_boundary))
            self._rows_since_boundary = 0
            self._emitted += 1

    def extend(self, keys: list, start: int, stop: int,
               check: Any = None) -> int:
        """Record the sorted run piece keyed ``keys[start:stop]`` and
        return where its run ends: ``stop``, or the first row above the
        cutoff.

        The boundaries the piece crosses (every ``stride``-th key, within
        the cap) go to ``insert_sorted`` in one call.  ``check`` is the
        spill filter re-checked while the piece is written, or ``None``;
        it must be the filter those buckets sharpen.  With it, the call
        refuses the first boundary above the live cutoff, and the run
        ends inside that boundary's segment; when every boundary went
        in, it ends in the rows after the last one, against the cutoff
        they left.  Either way one ``bisect_right`` finds the end: a
        sorted segment's boundary is its largest key, so it is above the
        cutoff exactly when some row of the segment is.  Without
        ``check`` every boundary goes in and nothing is cut.
        """
        stride = self._stride
        capped = self._cap is not None and self._emitted >= self._cap
        if stride is None or capped:
            return first_above_cutoff(keys, start, stop, check)
        first = start + stride - 1 - self._rows_since_boundary
        end = stop
        if self._cap is not None:
            end = min(stop, first + (self._cap - self._emitted) * stride)
        boundaries = keys[first:end:stride]
        inserted = (self._insert_sorted(boundaries, stride, check is not None)
                    if boundaries else 0)
        self._emitted += inserted
        # The rows after the last boundary that went in: a refused
        # boundary's segment, or the piece's tail.
        segment = start
        if inserted:
            segment = first + (inserted - 1) * stride + 1
            self._rows_since_boundary = 0
        cut = first_above_cutoff(
            keys, segment, first + inserted * stride + 1
            if inserted < len(boundaries) else stop, check)
        if self._cap is None or self._emitted < self._cap:
            self._rows_since_boundary += cut - segment
        return cut

    def close(self) -> None:
        """Finish the run: the partial tail bucket is discarded."""
        self._rows_since_boundary = 0
        self._emitted = 0
