"""Per-column statistics sketches.

Three small, mergeable, serializable summaries:

* :class:`KMVSketch` — the classic k-minimum-values distinct-count
  estimator (Bar-Yossef et al.): keep the ``k`` smallest 64-bit hashes
  ever seen; with the k-th smallest at normalized position ``U`` the
  distinct count is ``(k - 1) / U``.  Merging two sketches is the union
  of their hash sets re-truncated to ``k`` — commutative, associative,
  and idempotent, so sketches built per run fold cleanly.
* :class:`EquiDepthHistogram` — ordered bucket boundaries with (roughly)
  equal row counts per bucket.  Built either from a sorted sample
  (``ANALYZE``) or *for free* from the run-generation histogram buckets
  the paper's operator already emits (``(boundary_key, size)`` pairs,
  each meaning "``size`` rows sort at or below ``boundary_key``").
* :class:`ColumnSketch` — the per-column bundle the catalog stores: row
  and null counts, min/max, a KMV sketch, and an optional histogram.

All value serialization goes through :func:`encode_value` /
:func:`decode_value` so dates survive the JSON round trip.
"""

from __future__ import annotations

import datetime
import hashlib
from bisect import bisect_right
from typing import Any, Iterable, Sequence

_HASH_SPACE = float(2 ** 64)


def _hash64(value: Any) -> int:
    """A stable (cross-process) 64-bit hash of one column value."""
    if isinstance(value, bool):
        payload = b"b" + (b"1" if value else b"0")
    elif isinstance(value, str):
        payload = b"s" + value.encode("utf-8")
    elif isinstance(value, int):
        payload = b"i" + str(value).encode()
    elif isinstance(value, float):
        payload = b"f" + repr(value).encode()
    elif isinstance(value, datetime.date):
        payload = b"d" + value.isoformat().encode()
    else:
        payload = b"r" + repr(value).encode()
    return int.from_bytes(
        hashlib.blake2b(payload, digest_size=8).digest(), "big")


def encode_value(value: Any) -> Any:
    """A JSON-safe encoding of a column value (dates get a type tag)."""
    if isinstance(value, datetime.date):
        return {"$date": value.isoformat()}
    return value


def decode_value(value: Any) -> Any:
    """Inverse of :func:`encode_value`."""
    if isinstance(value, dict) and "$date" in value:
        return datetime.date.fromisoformat(value["$date"])
    return value


class KMVSketch:
    """Distinct-count estimator keeping the ``k`` minimum value hashes."""

    __slots__ = ("k", "_hashes", "_sorted")

    def __init__(self, k: int = 256, hashes: Iterable[int] = ()):
        self.k = k
        self._hashes = set(hashes)
        self._truncate()

    def _truncate(self) -> None:
        if len(self._hashes) > self.k:
            self._hashes = set(sorted(self._hashes)[: self.k])
        self._sorted = None

    def add(self, value: Any) -> None:
        """Feed one (non-null) value."""
        h = _hash64(value)
        if len(self._hashes) < self.k:
            self._hashes.add(h)
            self._sorted = None
        elif h not in self._hashes:
            top = max(self._hashes)
            if h < top:
                self._hashes.discard(top)
                self._hashes.add(h)
                self._sorted = None

    def estimate(self) -> float:
        """Estimated number of distinct values seen."""
        if len(self._hashes) < self.k:
            # The sketch is not saturated: it has seen every distinct
            # hash, so the count is exact (modulo 64-bit collisions).
            return float(len(self._hashes))
        kth = max(self._hashes)
        if kth == 0:
            return float(self.k)
        return (self.k - 1) / (kth / _HASH_SPACE)

    def merge(self, other: "KMVSketch") -> "KMVSketch":
        """The sketch of the multiset union (commutative, associative)."""
        k = min(self.k, other.k)
        return KMVSketch(k, self._hashes | other._hashes)

    def to_dict(self) -> dict:
        return {"k": self.k, "hashes": sorted(self._hashes)}

    @classmethod
    def from_dict(cls, payload: dict) -> "KMVSketch":
        return cls(payload["k"], payload["hashes"])

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, KMVSketch) and self.k == other.k
                and self._hashes == other._hashes)

    def __repr__(self) -> str:
        return f"KMVSketch(k={self.k}, estimate={self.estimate():.0f})"


class EquiDepthHistogram:
    """Equal-depth histogram: ``counts[i]`` rows sort in
    ``(boundaries[i-1], boundaries[i]]`` (first bucket starts at
    ``minimum``).

    Boundaries are column values (any totally ordered type the engine
    supports); counts are row counts.  ``fraction_at_most`` answers the
    planner's selectivity question and bounds how stale a reused cutoff
    seed can be.
    """

    __slots__ = ("boundaries", "counts", "minimum", "total")

    def __init__(self, boundaries: Sequence[Any], counts: Sequence[int],
                 minimum: Any = None):
        if len(boundaries) != len(counts):
            raise ValueError("boundaries and counts must align")
        self.boundaries = list(boundaries)
        self.counts = [int(c) for c in counts]
        self.minimum = minimum if minimum is not None else (
            self.boundaries[0] if self.boundaries else None)
        self.total = sum(self.counts)

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_sorted(cls, values: Sequence[Any],
                    buckets: int = 64) -> "EquiDepthHistogram":
        """Build from an ascending (non-null) value sequence."""
        n = len(values)
        if n == 0:
            return cls([], [])
        buckets = max(1, min(buckets, n))
        boundaries = []
        counts = []
        previous = 0
        for i in range(1, buckets + 1):
            position = (i * n) // buckets
            if position <= previous:
                continue
            boundaries.append(values[position - 1])
            counts.append(position - previous)
            previous = position
        return cls(boundaries, counts, minimum=values[0])

    @classmethod
    def from_run_buckets(cls, pairs: Iterable[tuple[Any, int]],
                         buckets: int = 64) -> "EquiDepthHistogram":
        """Build from run-generation ``(boundary_key, size)`` buckets.

        Each pair asserts "``size`` rows sort at or below
        ``boundary_key`` (and above the run's previous boundary)".  Runs
        are individually sorted but interleave globally, so the pairs
        are re-sorted by boundary and coalesced down to ``buckets``
        buckets — the standard equi-depth merge.
        """
        ordered = sorted(pairs, key=lambda pair: pair[0])
        if not ordered:
            return cls([], [])
        total = sum(size for _, size in ordered)
        target = max(1, total // max(1, min(buckets, len(ordered))))
        boundaries: list[Any] = []
        counts: list[int] = []
        acc = 0
        last = len(ordered) - 1
        for position, (boundary, size) in enumerate(ordered):
            acc += size
            if acc >= target or position == last:
                boundaries.append(boundary)
                counts.append(acc)
                acc = 0
        return cls(boundaries, counts, minimum=ordered[0][0])

    # -- queries ---------------------------------------------------------

    def fraction_at_most(self, key: Any) -> float | None:
        """Estimated fraction of rows with value ``<= key``.

        ``None`` when the histogram is empty or ``key`` is not
        comparable with the stored boundaries.  Within the straddling
        bucket, numeric boundaries interpolate linearly; other types
        charge half the bucket.
        """
        if not self.boundaries:
            return None
        try:
            if key < self.minimum:
                return 0.0
            if key >= self.boundaries[-1]:
                return 1.0
            # Bucket ``i`` covers ``(boundaries[i-1], boundaries[i]]``,
            # so every bucket whose boundary is <= key lies entirely at
            # or below it — bisect_right collects them all even when
            # boundary values repeat.
            index = bisect_right(self.boundaries, key)
            below = sum(self.counts[:index])
            bucket = self.counts[index]
            low = self.boundaries[index - 1] if index else self.minimum
            high = self.boundaries[index]
            if key <= low:
                inside = 0.0
            elif isinstance(key, (int, float)) \
                    and isinstance(high, (int, float)) \
                    and isinstance(low, (int, float)) and high > low:
                inside = min(1.0, max(0.0, (key - low) / (high - low)))
            else:
                inside = 0.5
        except TypeError:
            return None
        return (below + inside * bucket) / self.total

    def rows_at_most(self, key: Any) -> float | None:
        """Estimated row count with value ``<= key`` (``None`` unknown)."""
        fraction = self.fraction_at_most(key)
        return None if fraction is None else fraction * self.total

    def quantile(self, q: float) -> Any:
        """The approximate ``q``-quantile boundary (0 < q <= 1)."""
        if not self.boundaries:
            return None
        target = q * self.total
        acc = 0
        for boundary, count in zip(self.boundaries, self.counts):
            acc += count
            if acc >= target:
                return boundary
        return self.boundaries[-1]

    def fraction_between(self, low: Any | None, high: Any | None) -> float | None:
        """Estimated fraction in ``(low, high]`` (``None`` end = open)."""
        upper = 1.0 if high is None else self.fraction_at_most(high)
        lower = 0.0 if low is None else self.fraction_at_most(low)
        if upper is None or lower is None:
            return None
        return max(0.0, upper - lower)

    # -- combination / serialization -------------------------------------

    def merge(self, other: "EquiDepthHistogram",
              buckets: int = 64) -> "EquiDepthHistogram":
        """The histogram of the concatenated inputs."""
        pairs = list(zip(self.boundaries, self.counts)) \
            + list(zip(other.boundaries, other.counts))
        merged = EquiDepthHistogram.from_run_buckets(pairs, buckets=buckets)
        if self.minimum is not None and other.minimum is not None:
            try:
                merged.minimum = min(self.minimum, other.minimum)
            except TypeError:
                pass
        return merged

    def to_dict(self) -> dict:
        return {
            "boundaries": [encode_value(b) for b in self.boundaries],
            "counts": self.counts,
            "minimum": encode_value(self.minimum),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "EquiDepthHistogram":
        return cls(
            [decode_value(b) for b in payload["boundaries"]],
            payload["counts"],
            minimum=decode_value(payload.get("minimum")),
        )

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, EquiDepthHistogram)
                and self.boundaries == other.boundaries
                and self.counts == other.counts
                and self.minimum == other.minimum)

    def __repr__(self) -> str:
        return (f"EquiDepthHistogram(buckets={len(self.counts)}, "
                f"total={self.total})")


class ColumnSketch:
    """The per-column statistics bundle the catalog stores."""

    __slots__ = ("rows", "nulls", "minimum", "maximum", "kmv", "histogram",
                 "source")

    def __init__(self, rows: int = 0, nulls: int = 0, minimum: Any = None,
                 maximum: Any = None, kmv: KMVSketch | None = None,
                 histogram: EquiDepthHistogram | None = None,
                 source: str = "analyze"):
        self.rows = rows
        self.nulls = nulls
        self.minimum = minimum
        self.maximum = maximum
        self.kmv = kmv if kmv is not None else KMVSketch()
        self.histogram = histogram
        #: ``"analyze"`` (full scan) or ``"rungen"`` (harvested from a
        #: top-k execution's run-generation histogram — spilled rows
        #: only, i.e. a lower-biased sample of the full column).
        self.source = source

    def update(self, value: Any) -> None:
        """Feed one value from a scan."""
        self.rows += 1
        if value is None:
            self.nulls += 1
            return
        self.kmv.add(value)
        try:
            if self.minimum is None or value < self.minimum:
                self.minimum = value
            if self.maximum is None or value > self.maximum:
                self.maximum = value
        except TypeError:
            pass

    @property
    def null_fraction(self) -> float:
        return self.nulls / self.rows if self.rows else 0.0

    @property
    def distinct(self) -> float:
        """Estimated distinct (non-null) value count."""
        return self.kmv.estimate()

    def selectivity_eq(self, value: Any) -> float:
        """Estimated fraction of rows satisfying ``column = value``."""
        if value is None:
            return self.null_fraction
        distinct = max(1.0, self.distinct)
        return (1.0 - self.null_fraction) / distinct

    def selectivity_cmp(self, op: str, value: Any) -> float:
        """Estimated fraction satisfying ``column <op> value``."""
        if op == "=":
            return self.selectivity_eq(value)
        if op == "!=":
            return max(0.0, 1.0 - self.selectivity_eq(value))
        fraction = None
        if self.histogram is not None:
            fraction = self.histogram.fraction_at_most(value)
        if fraction is None and isinstance(value, (int, float)) \
                and isinstance(self.minimum, (int, float)) \
                and isinstance(self.maximum, (int, float)) \
                and self.maximum > self.minimum:
            span = self.maximum - self.minimum
            fraction = min(1.0, max(0.0, (value - self.minimum) / span))
        if fraction is None:
            fraction = 1 / 3  # the textbook default for range predicates
        nonnull = 1.0 - self.null_fraction
        if op in ("<", "<="):
            return fraction * nonnull
        return (1.0 - fraction) * nonnull

    def merge(self, other: "ColumnSketch") -> "ColumnSketch":
        minimum, maximum = self.minimum, self.maximum
        try:
            if other.minimum is not None:
                minimum = (other.minimum if minimum is None
                           else min(minimum, other.minimum))
            if other.maximum is not None:
                maximum = (other.maximum if maximum is None
                           else max(maximum, other.maximum))
        except TypeError:
            pass
        histogram = self.histogram
        if histogram is None:
            histogram = other.histogram
        elif other.histogram is not None:
            histogram = histogram.merge(other.histogram)
        return ColumnSketch(
            rows=self.rows + other.rows,
            nulls=self.nulls + other.nulls,
            minimum=minimum,
            maximum=maximum,
            kmv=self.kmv.merge(other.kmv),
            histogram=histogram,
            source=self.source if self.source == other.source else "merged",
        )

    def to_dict(self) -> dict:
        payload = {
            "rows": self.rows,
            "nulls": self.nulls,
            "minimum": encode_value(self.minimum),
            "maximum": encode_value(self.maximum),
            "kmv": self.kmv.to_dict(),
            "source": self.source,
        }
        if self.histogram is not None:
            payload["histogram"] = self.histogram.to_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "ColumnSketch":
        histogram = payload.get("histogram")
        return cls(
            rows=payload["rows"],
            nulls=payload["nulls"],
            minimum=decode_value(payload.get("minimum")),
            maximum=decode_value(payload.get("maximum")),
            kmv=KMVSketch.from_dict(payload["kmv"]),
            histogram=(EquiDepthHistogram.from_dict(histogram)
                       if histogram is not None else None),
            source=payload.get("source", "analyze"),
        )

    def __repr__(self) -> str:
        return (f"ColumnSketch(rows={self.rows}, nulls={self.nulls}, "
                f"distinct~{self.distinct:.0f}, "
                f"range=[{self.minimum!r}, {self.maximum!r}], "
                f"histogram={self.histogram!r})")
