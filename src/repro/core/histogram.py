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

from dataclasses import dataclass
from typing import Any, Callable

from repro.core.policies import SizingPolicy


@dataclass(frozen=True)
class Bucket:
    """One histogram bucket: ``size`` rows with keys ≤ ``boundary_key``."""

    boundary_key: Any
    size: int

    def __repr__(self) -> str:
        return f"Bucket(≤{self.boundary_key!r} ×{self.size})"


class RunHistogramBuilder:
    """Builds a histogram incrementally from one run's spilled rows.

    The builder is fed every written row — one at a time via :meth:`add`
    (replacement selection wires it to the run writer's ``on_spill``
    hook), or a sorted segment at a time via :meth:`extend` (load-sort-
    store ends each segment where :meth:`rows_to_bucket` says the next
    bucket falls) — and emits finished buckets to ``sink``, in practice
    :meth:`repro.core.cutoff.CutoffFilter.insert`.

    Args:
        policy: Sizing policy deciding the bucket stride and cap.
        expected_run_rows: Best-effort estimate of the run's final length,
            from which the policy derives the stride (Section 5.1.2: "a
            best effort is made to decide the target number of histogram
            buckets collected from each run").
        sink: Receiver of emitted :class:`Bucket` objects.
    """

    def __init__(
        self,
        policy: SizingPolicy,
        expected_run_rows: int,
        sink: Callable[[Bucket], None],
    ):
        self._sink = sink
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

    def rows_to_bucket(self) -> int | None:
        """Spilled rows until the next bucket is emitted, counting the row
        that emits it; ``None`` when this run emits no more buckets."""
        if self._stride is None or (self._cap is not None
                                    and self._emitted >= self._cap):
            return None
        return self._stride - self._rows_since_boundary

    def extend(self, keys: list, start: int, stop: int) -> None:
        """Record the spilled rows keyed ``keys[start:stop]``: :meth:`add`
        for each key in turn, emitting every bucket whose boundary the
        segment crosses."""
        while start < stop:
            step = self.rows_to_bucket()
            if step is None:
                return
            if start + step > stop:
                self._rows_since_boundary += stop - start
                return
            start += step
            self._sink(Bucket(boundary_key=keys[start - 1], size=self._stride))
            self._rows_since_boundary = 0
            self._emitted += 1

    def close(self) -> None:
        """Finish the run: the partial tail bucket is discarded."""
        self._rows_since_boundary = 0
        self._emitted = 0
