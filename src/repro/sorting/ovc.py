"""Offset-value codes and the tree-of-losers merge.

Offset-value coding (Do & Graefe; also Conner's original formulation)
attaches to each key in a sorted sequence a single integer — its *code*
relative to the previous key — from which most comparisons between keys
can be decided without touching the keys at all:

* ``offset`` — the index of the first byte where the key differs from
  its base (the keys are order-preserving byte strings from
  :mod:`repro.sorting.keycodec`, so byte index granularity is exact);
* ``value`` — the key's byte at that offset.

The code packs both as ``((KMAX - offset) << 9) | (value + 1)`` so that
*smaller code* |srarr| *smaller key* among keys coded against a common
base: a longer shared prefix means a larger offset means a smaller code,
and equal offsets tie-break on the differing byte.  The ``value + 1``
bias reserves slot 0 for "key ends here", which orders a proper prefix
before any continuation; code ``0`` means "equal to the base".

The tree-of-losers merge below maintains the classic invariant that
every stored loser along the current winner's path carries a code
relative to that winner.  A tournament between two candidates then
needs a full key comparison *only* when their codes are equal (equal
prefix up to and including the coded byte); in every other case one
integer comparison decides, and the loser's stored code is already
correct relative to the new winner.  On low-to-moderate-entropy inputs
this eliminates the vast majority of full-key comparisons — the
``full_key_comparisons`` / ``code_comparisons`` counters on
:class:`~repro.storage.stats.OperatorStats` quantify it per query.

.. |srarr| unicode:: U+2192
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Callable, Iterator

import numpy as np

#: Offset bias: offsets are subtracted from KMAX so deeper agreement
#: yields smaller codes.  32 bits bounds key length at ~4 GiB.
KMAX = 1 << 32
_SHIFT = 9  # value field: 0 (end of key) .. 256 (byte 0xFF, biased +1)

#: Code of the first row a run scan delivers (no base to compare
#: against), also when the scan starts mid-run.  Never consulted by the
#: merge — first candidates are seeded with full comparisons — but
#: distinct from every real code for debuggability.
INITIAL_CODE = (KMAX + 1) << _SHIFT
#: Code of an exhausted input: loses every tournament by code alone.
SENTINEL_CODE = (KMAX + 2) << _SHIFT


def first_diff(a: bytes, b: bytes) -> int:
    """Index of the first byte where ``a`` and ``b`` differ.

    Assumes ``a != b``; returns ``min(len(a), len(b))`` when one is a
    proper prefix of the other.  XOR of the common-length prefixes as
    big-endian integers: the highest set bit locates the first differing
    byte, all in C-level bigint ops regardless of key length.
    """
    n = min(len(a), len(b))
    x = int.from_bytes(a[:n], "big") ^ int.from_bytes(b[:n], "big")
    if not x:
        return n
    return n - ((x.bit_length() + 7) >> 3)


def code_between(base: bytes | None, key: bytes) -> int:
    """The offset-value code of ``key`` relative to ``base`` (<= key).

    ``None`` base (a scan's first row) yields :data:`INITIAL_CODE`;
    equality yields ``0``.
    """
    if base is None:
        return INITIAL_CODE
    if base == key:
        return 0
    d = first_diff(base, key)
    value = key[d] + 1 if d < len(key) else 0
    return ((KMAX - d) << _SHIFT) | value


#: Below this many keys, coding them one by one beats numpy's fixed cost
#: of about 30 µs a call (break-even measured at 16-32 keys of 16-29
#: bytes; at 80 keys the numpy pass takes under half the time).
_VECTOR_MIN_KEYS = 24


def code_sequence(base: bytes | None, keys: list[bytes]) -> list[int]:
    """The codes of ``keys``, each relative to the key before it — the
    first one relative to ``base`` (:data:`INITIAL_CODE` when ``None``).

    Equal to ``code_between`` pair by pair, in one pass: the keys become
    the rows of a byte matrix (zero-padded to the longest key), and one
    comparison of every row with the row above finds each first
    differing byte.  A pair whose difference falls in the padding (one
    key a proper prefix of the other) is recoded by :func:`code_between`.
    """
    count = len(keys)
    if count < _VECTOR_MIN_KEYS:
        return list(map(code_between, chain((base,), keys), keys))
    lengths = np.fromiter(map(len, keys), dtype=np.int64, count=count)
    width = int(lengths.max())
    if not width or width * count > 2 * int(lengths.sum()):
        # Bound the matrix at twice the key bytes: a few long keys among
        # short ones would inflate it by their length ratio.  Code pair
        # by pair instead.
        return list(map(code_between, chain((base,), keys), keys))
    matrix = np.frombuffer(
        b"".join(key.ljust(width, b"\0") for key in keys),
        dtype=np.uint8).reshape(count, width)
    differs = matrix[1:] != matrix[:-1]
    offsets = differs.argmax(axis=1).astype(np.int64)
    values = matrix[1:][np.arange(count - 1), offsets].astype(np.int64)
    codes = ((KMAX - offsets) << _SHIFT) | (values + 1)
    equal = ~differs.any(axis=1)
    codes[equal] = 0
    unequal_lengths = lengths[1:] != lengths[:-1]
    in_padding = offsets >= np.minimum(lengths[1:], lengths[:-1])
    result = [code_between(base, keys[0])]
    result.extend(codes.tolist())
    for pair in np.flatnonzero(np.where(equal, unequal_lengths,
                                        in_padding)).tolist():
        result[pair + 1] = code_between(keys[pair], keys[pair + 1])
    return result


def merge_coded(
    runs: list,
    encode: Callable[[tuple], bytes],
    sources: list[Iterator[tuple[bytes, tuple, int]]] | None = None,
    stats: Any = None,
    cutoff: bytes | None = None,
) -> Iterator[tuple[bytes, tuple]]:
    """Merge coded run scans with an OVC tree of losers.

    Yields ``(key, row)`` in global sort order, stable by run position
    within equal keys — the stream of
    :func:`~repro.sorting.merge.merge_keyed`, exactly.  The codes come
    from the run scans (:meth:`~repro.sorting.runs.SortedRun.coded_rows`)
    and stay inside the tournament.

    ``sources`` substitutes custom coded iterators per run (offset
    skipping); ``stats`` receives ``full_key_comparisons`` /
    ``code_comparisons`` increments.  ``cutoff`` enables zone-map page
    pruning within each run scan (the caller stops consuming at the
    cutoff anyway, so pruning the tail is sound).  Per-run iterators
    are closed on exit like the heap merge.
    """
    iterators: list[Iterator] = []
    full = code_only = 0
    try:
        for order, run in enumerate(runs):
            if sources is not None:
                iterators.append(iter(sources[order]))
            else:
                iterators.append(run.coded_rows(encode, cutoff=cutoff))
        m = len(iterators)
        if m == 0:
            return
        if m == 1:
            for key, row, _code in iterators[0]:
                yield key, row
            return

        keys: list[bytes | None] = [None] * m
        rows: list[tuple | None] = [None] * m
        codes: list[int] = [SENTINEL_CODE] * m
        for slot, iterator in enumerate(iterators):
            first = next(iterator, None)
            if first is not None:
                keys[slot], rows[slot], codes[slot] = first
        # Internal nodes 1..m-1 hold loser slots; leaf for slot ``i``
        # is tree position ``m + i``; losers[0] is the overall winner.
        losers = [0] * m

        def full_duel(a: int, b: int) -> tuple[int, int]:
            """Resolve by full key comparison; recode the loser.

            Returns ``(winner, loser)`` and stores the loser's code
            relative to the winner, re-establishing the invariant.
            """
            nonlocal full
            ka, kb = keys[a], keys[b]
            if ka is None or kb is None:
                if ka is None and kb is None:
                    return (a, b) if a < b else (b, a)
                return (b, a) if ka is None else (a, b)
            full += 1
            if ka == kb:
                winner, loser = (a, b) if a < b else (b, a)
                codes[loser] = 0
                return winner, loser
            d = first_diff(ka, kb)
            va = ka[d] + 1 if d < len(ka) else 0
            vb = kb[d] + 1 if d < len(kb) else 0
            if va < vb:
                winner, loser, lv = a, b, vb
            else:
                winner, loser, lv = b, a, va
            codes[loser] = ((KMAX - d) << _SHIFT) | lv
            return winner, loser

        def duel(a: int, b: int) -> tuple[int, int]:
            """Tournament between candidates coded against a common base.

            Distinct codes decide by one integer comparison, and the
            loser's existing code is already relative to the winner (the
            offset-value coding lemma).  Equal nonzero codes mean the
            keys agree through the coded byte: fall back to a full
            comparison, which recodes the loser.
            """
            nonlocal code_only
            ca, cb = codes[a], codes[b]
            if ca != cb:
                code_only += 1
                return (a, b) if ca < cb else (b, a)
            if ca == 0:  # both equal to the base: stable by run order
                code_only += 1
                return (a, b) if a < b else (b, a)
            if ca >= SENTINEL_CODE:  # both exhausted
                return (a, b) if a < b else (b, a)
            return full_duel(a, b)

        def build(node: int) -> int:
            """Seed the tree bottom-up with full comparisons.

            Incoming first-candidate codes are relative to nothing and
            are ignored: every stored loser leaves the build coded
            relative to the winner that defeated it.
            """
            if node >= m:
                return node - m
            winner, loser = full_duel(build(2 * node),
                                      build(2 * node + 1))
            losers[node] = loser
            return winner

        losers[0] = build(1)

        while True:
            w = losers[0]
            key = keys[w]
            if key is None:
                break
            yield key, rows[w]
            following = next(iterators[w], None)
            if following is None:
                keys[w] = None
                rows[w] = None
                codes[w] = SENTINEL_CODE
            else:
                keys[w], rows[w], codes[w] = following
            # The replacement enters coded against the departed winner,
            # as is every loser on its path — ascend with code duels.
            node = (m + w) >> 1
            winner = w
            while node:
                winner, losers[node] = duel(winner, losers[node])
                node >>= 1
            losers[0] = winner
    finally:
        if stats is not None:
            stats.full_key_comparisons += full
            stats.code_comparisons += code_only
        for iterator in iterators:
            close = getattr(iterator, "close", None)
            if close is not None:
                close()
