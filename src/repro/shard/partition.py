"""Input partitioners for sharded top-k execution.

Correctness never depends on the partitioning: each worker returns its
shard-local top ``k + offset`` and the union of those provably contains
the global top ``k + offset`` (any row beaten by ``k + offset``
shard-local predecessors is beaten by that many global predecessors).
Partitioning only shapes *performance*:

* :class:`HashPartitioner` scatters by a multiplicative hash of the key
  bits — shards stay load-balanced under any input order, and duplicate
  keys land together so per-shard histograms see full tie groups.
* :class:`RangePartitioner` routes by key range, boundaries sampled from
  the first arriving block via :func:`boundaries_from_sample` (range
  partitioning's "prior statistics pass", here taken online).  The
  low-range shard then owns the whole answer and its cutoff collapses
  the other shards' input almost entirely — the sharded analogue of
  range partitioning's wholesale discard.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError

#: Knuth's multiplicative constant (golden-ratio based), applied to the
#: raw IEEE-754 bit pattern of each key.
_MIX = np.uint64(0x9E3779B97F4A7C15)
_HIGH = np.uint64(33)


def boundaries_from_sample(keys, partitions: int) -> list[float]:
    """``partitions - 1`` quantile boundaries of a key sample."""
    if partitions < 2:
        raise ConfigurationError("need at least two partitions")
    quantiles = np.linspace(0, 1, partitions + 1)[1:-1]
    return [float(q) for q in np.quantile(np.asarray(keys), quantiles)]


def make_partitioner(mode: str, shards: int):
    if shards < 1:
        raise ConfigurationError("shards must be positive")
    if mode == "hash":
        return HashPartitioner(shards)
    if mode == "range":
        return RangePartitioner(shards)
    raise ConfigurationError(
        f"unknown partition mode {mode!r} (expected 'hash' or 'range')")


class HashPartitioner:
    """Shard assignment by multiplicative hash of the key bits."""

    mode = "hash"

    def __init__(self, shards: int):
        self.shards = shards

    def assign(self, keys: np.ndarray) -> np.ndarray:
        """Per-row shard indices for one block of normalized keys."""
        if self.shards == 1:
            return np.zeros(keys.shape[0], dtype=np.int64)
        bits = np.ascontiguousarray(keys, dtype=np.float64).view(np.uint64)
        mixed = (bits * _MIX) >> _HIGH  # C-semantics wraparound is the hash
        return (mixed % np.uint64(self.shards)).astype(np.int64)


class RangePartitioner:
    """Shard assignment by key range, boundaries learned from the first
    block (quantiles of its keys)."""

    mode = "range"

    def __init__(self, shards: int):
        self.shards = shards
        self.boundaries: np.ndarray | None = None

    def assign(self, keys: np.ndarray) -> np.ndarray:
        if self.shards == 1:
            return np.zeros(keys.shape[0], dtype=np.int64)
        if self.boundaries is None:
            finite = keys[np.isfinite(keys)]
            sample = finite if finite.size else keys
            if sample.size == 0:
                return np.zeros(0, dtype=np.int64)
            self.boundaries = np.asarray(
                boundaries_from_sample(sample, self.shards),
                dtype=np.float64)
        # side='left' matches RangePartitionTopK._partition_of in
        # repro.strategies (bisect_left): a key equal to a boundary
        # belongs to the lower partition.  NaN sorts above every
        # boundary → the last shard.
        return np.searchsorted(self.boundaries, keys,
                               side="left").astype(np.int64)
