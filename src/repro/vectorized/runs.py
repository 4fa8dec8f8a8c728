"""Vectorized sorted runs: numpy key arrays with payload indirection.

The row engine moves Python tuples one at a time; the vectorized engine
moves *chunks*.  A :class:`VectorRun` stores one sorted run as a numpy
key array plus a parallel ``row_id`` array pointing into the caller's
payload space (or ``None`` for keys-only workloads).  Storage accounting
flows through the same :class:`~repro.storage.stats.IOStats` counters as
the row engine so measurements stay comparable.

:class:`VectorRunDisk` adds real secondary storage: each run is one
file whose body is the raw little-endian key (and row-id) vectors —
``ndarray.tobytes`` on the way out, ``np.frombuffer`` on the way back,
no per-row materialization.  Writes are double-buffered through one
background thread; a per-run completion event gives read-after-write
ordering for the (rare) case where the merge starts before the last run
hits the disk.
"""

from __future__ import annotations

import os
import queue
import struct
import tempfile
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.errors import SpillError
from repro.storage.stats import IOStats

_VRUN_HEADER = struct.Struct("<BQB")  # version, row count, has-ids flag
_VRUN_VERSION = 1

_JOIN_TIMEOUT = 30.0


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


@dataclass
class DiskVectorRun:
    """Metadata handle for a vector run persisted by :class:`VectorRunDisk`.

    The key arrays live on disk; only the pruning metadata (bounds and
    count) stays in memory, so a spill-heavy query holds O(runs) memory
    rather than O(rows).
    """

    run_id: int
    path: str
    count: int
    has_ids: bool
    first_key: float | None
    last_key: float | None
    #: First key of every ``page_rows``-sized chunk, recorded at write
    #: time — the zone-map metadata that lets a cutoff-bounded read stop
    #: at the first chunk starting above the bound without touching the
    #: file (see :meth:`VectorRunStore.read_run`).
    chunk_first_keys: tuple = ()

    def __len__(self) -> int:
        return self.count


class VectorRunDisk:
    """Real-file storage for vectorized runs.

    Args:
        directory: Spill directory; a private temporary one is created
            (and later removed) when omitted.

    Runs are encoded on the caller thread and written on a background
    thread fed by a two-slot queue.  Read-after-write ordering comes
    from a per-run completion event: a read (or delete) of a run still
    in the writer queue waits for its file to land.  Write errors are
    captured on the writer thread and re-raised on the caller thread at
    the next write/read/close.
    """

    _SENTINEL = object()

    def __init__(self, directory: str | None = None):
        self._own_directory = directory is None
        self._directory = directory or tempfile.mkdtemp(prefix="repro_vrun_")
        self._done: dict[str, threading.Event] = {}
        self._error: BaseException | None = None
        self._closed = False
        self._queue: queue.Queue = queue.Queue(maxsize=2)
        self._thread = threading.Thread(target=self._drain,
                                        name="vector-spill-writer",
                                        daemon=True)
        self._thread.start()

    # -- writer thread ---------------------------------------------------

    def _drain(self) -> None:
        while True:
            item = self._queue.get()
            if item is self._SENTINEL:
                return
            path, payload, event, stats = item
            if self._error is None:
                try:
                    started = time.perf_counter()
                    with open(path, "wb") as handle:
                        handle.write(payload)
                    stats.write_seconds += time.perf_counter() - started
                except BaseException as exc:
                    self._error = exc
            event.set()

    def _raise_deferred(self) -> None:
        if self._error is not None:
            raise SpillError("background vector run write failed: "
                             f"{self._error}") from self._error

    # -- codec -----------------------------------------------------------

    def _encode(self, keys: np.ndarray, row_ids: np.ndarray | None,
                stats: IOStats) -> bytes:
        started = time.perf_counter()
        parts = [_VRUN_HEADER.pack(_VRUN_VERSION, int(keys.size),
                                   1 if row_ids is not None else 0),
                 np.ascontiguousarray(keys, dtype="<f8").tobytes()]
        if row_ids is not None:
            parts.append(np.ascontiguousarray(row_ids, dtype="<i8").tobytes())
        payload = b"".join(parts)
        stats.encode_seconds += time.perf_counter() - started
        stats.bytes_encoded += len(payload)
        return payload

    @staticmethod
    def _decode(payload: bytes, path: str
                ) -> tuple[np.ndarray, np.ndarray | None]:
        if len(payload) < _VRUN_HEADER.size:
            raise SpillError(f"truncated vector run file {path}")
        version, count, has_ids = _VRUN_HEADER.unpack_from(payload, 0)
        if version != _VRUN_VERSION:
            raise SpillError(f"unknown vector run format version {version} "
                             f"in {path}")
        body = payload[_VRUN_HEADER.size:]
        if len(body) != count * 8 * (2 if has_ids else 1):
            raise SpillError(f"truncated vector run file {path}")
        keys = np.frombuffer(body, dtype="<f8", count=count)
        ids = (np.frombuffer(body, dtype="<i8", count=count,
                             offset=count * 8) if has_ids else None)
        return keys, ids

    # -- store interface -------------------------------------------------

    def write(self, run_id: int, keys: np.ndarray,
              row_ids: np.ndarray | None, stats: IOStats) -> DiskVectorRun:
        if self._closed:
            raise SpillError("vector run storage is closed")
        self._raise_deferred()
        payload = self._encode(keys, row_ids, stats)
        path = os.path.join(self._directory, f"vrun{run_id:06d}.spill")
        run = DiskVectorRun(
            run_id=run_id, path=path, count=int(keys.size),
            has_ids=row_ids is not None,
            first_key=float(keys[0]) if keys.size else None,
            last_key=float(keys[-1]) if keys.size else None)
        event = threading.Event()
        self._done[path] = event
        try:
            self._queue.put_nowait((path, payload, event, stats))
        except queue.Full:
            stats.writer_stalls += 1
            started = time.perf_counter()
            self._queue.put((path, payload, event, stats))
            stats.stall_seconds += time.perf_counter() - started
        return run

    def _wait_for(self, run: DiskVectorRun, stats: IOStats | None) -> None:
        event = self._done.get(run.path)
        if event is not None and not event.is_set():
            if stats is not None:
                stats.read_stalls += 1
                started = time.perf_counter()
                event.wait(_JOIN_TIMEOUT)
                stats.stall_seconds += time.perf_counter() - started
            else:
                event.wait(_JOIN_TIMEOUT)
        self._raise_deferred()

    def read(self, run: DiskVectorRun, stats: IOStats,
             limit: int | None = None
             ) -> tuple[np.ndarray, np.ndarray | None]:
        """Read a run back; ``limit`` reads only the first ``limit``
        rows (header + key prefix + id prefix), leaving the tail bytes
        unread on disk."""
        self._wait_for(run, stats)
        if limit is not None and 0 <= limit < run.count:
            header_size = _VRUN_HEADER.size
            started = time.perf_counter()
            with open(run.path, "rb") as handle:
                head = handle.read(header_size)
                if len(head) < header_size:
                    raise SpillError(
                        f"truncated vector run file {run.path}")
                version, count, has_ids = _VRUN_HEADER.unpack(head)
                if version != _VRUN_VERSION:
                    raise SpillError(
                        f"unknown vector run format version {version} "
                        f"in {run.path}")
                key_body = handle.read(8 * limit)
                id_body = b""
                if has_ids:
                    handle.seek(header_size + 8 * count)
                    id_body = handle.read(8 * limit)
            if len(key_body) != 8 * limit or len(id_body) != \
                    (8 * limit if has_ids else 0):
                raise SpillError(f"truncated vector run file {run.path}")
            keys = np.frombuffer(key_body, dtype="<f8", count=limit)
            ids = (np.frombuffer(id_body, dtype="<i8", count=limit)
                   if has_ids else None)
            stats.decode_seconds += time.perf_counter() - started
            stats.bytes_decoded += header_size + len(key_body) + len(id_body)
            return keys, ids
        with open(run.path, "rb") as handle:
            payload = handle.read()
        started = time.perf_counter()
        keys, ids = self._decode(payload, run.path)
        stats.decode_seconds += time.perf_counter() - started
        stats.bytes_decoded += len(payload)
        return keys, ids

    def delete(self, run: DiskVectorRun) -> None:
        event = self._done.pop(run.path, None)
        if event is not None and not event.is_set():
            event.wait(_JOIN_TIMEOUT)
        if os.path.exists(run.path):
            os.unlink(run.path)

    def close(self) -> None:
        """Join the writer, delete all run files, remove an owned
        directory.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        if self._thread.is_alive():
            self._queue.put(self._SENTINEL)
            self._thread.join(_JOIN_TIMEOUT)
        self._done.clear()
        if os.path.isdir(self._directory):
            for name in os.listdir(self._directory):
                if name.startswith("vrun") and name.endswith(".spill"):
                    os.unlink(os.path.join(self._directory, name))
            if self._own_directory:
                os.rmdir(self._directory)

    def __enter__(self) -> "VectorRunDisk":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class VectorRunStore:
    """Creates and accounts vectorized runs.

    Args:
        stats: Shared I/O counters (fresh ones if omitted).
        key_bytes: Bytes charged per key written/read.
        row_id_bytes: Bytes charged per row id (0 for keys-only runs).
        page_rows: Rows per simulated write request.
        storage: Optional :class:`VectorRunDisk`; when given, run bodies
            live in real files (the store keeps only metadata handles).
            The *accounting* counters stay identical to the in-memory
            store — physical traffic shows up in
            ``bytes_encoded``/``bytes_decoded``.
    """

    def __init__(self, stats: IOStats | None = None, key_bytes: int = 8,
                 row_id_bytes: int = 8, page_rows: int = 8_192,
                 storage: VectorRunDisk | None = None):
        self.stats = stats if stats is not None else IOStats()
        self.key_bytes = key_bytes
        self.row_id_bytes = row_id_bytes
        self.page_rows = page_rows
        self.storage = storage
        self._next_run_id = 0
        self.runs: list[VectorRun | DiskVectorRun] = []

    def _row_bytes(self, with_ids: bool) -> int:
        return self.key_bytes + (self.row_id_bytes if with_ids else 0)

    def write_run(self, keys: np.ndarray,
                  row_ids: np.ndarray | None = None
                  ) -> VectorRun | DiskVectorRun:
        """Persist one sorted run, charging write traffic."""
        if keys.size and np.any(np.diff(keys) < 0):
            raise SpillError("vector run keys must be sorted")
        if self.storage is not None:
            run: VectorRun | DiskVectorRun = self.storage.write(
                self._next_run_id, keys, row_ids, self.stats)
            run.chunk_first_keys = tuple(
                float(key) for key in keys[::self.page_rows])
        else:
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

    def _chunk_skip_limit(self, run: VectorRun | DiskVectorRun,
                          max_key: float) -> int:
        """Rows worth reading under ``max_key``: whole leading chunks up
        to (and including) the last chunk whose first key is ``<=
        max_key``.  Sound because run keys are sorted — every row of a
        chunk starting above ``max_key`` exceeds it.  Returns the full
        row count when chunk metadata is missing (never skips blindly).
        """
        rows = len(run)
        if isinstance(run, DiskVectorRun):
            first_keys = run.chunk_first_keys
        else:
            first_keys = run.keys[::self.page_rows]
        if len(first_keys) != -(-rows // self.page_rows):
            return rows
        keep = int(np.searchsorted(first_keys, max_key, side="right"))
        return min(rows, keep * self.page_rows)

    def read_run(self, run: VectorRun | DiskVectorRun,
                 max_key: float | None = None
                 ) -> tuple[np.ndarray, np.ndarray | None]:
        """Read a run back, charging read traffic.

        ``max_key`` bounds the read: chunks whose first key exceeds it
        are skipped — not read, not decoded, not charged — and counted
        in ``pages_skipped_zone_map`` / ``bytes_skipped_decode``.  The
        caller still truncates the returned prefix precisely (chunk
        granularity may admit a few trailing rows above the bound).
        """
        rows = len(run)
        if isinstance(run, DiskVectorRun):
            has_ids = run.has_ids
        else:
            has_ids = run.row_ids is not None
        row_bytes = self._row_bytes(has_ids)
        limit = rows
        if max_key is not None and rows:
            limit = self._chunk_skip_limit(run, max_key)
            if limit < rows:
                skipped = -(-rows // self.page_rows) \
                    - -(-limit // self.page_rows)
                self.stats.pages_skipped_zone_map += skipped
                self.stats.bytes_skipped_decode += (rows - limit) * row_bytes
        self.stats.rows_read += limit
        self.stats.bytes_read += limit * row_bytes
        self.stats.read_requests += max(
            1, -(-limit // self.page_rows)) if limit else 0
        if isinstance(run, DiskVectorRun):
            return self.storage.read(
                run, self.stats, limit=None if limit == rows else limit)
        if limit == rows:
            return run.keys, run.row_ids
        return (run.keys[:limit],
                run.row_ids[:limit] if has_ids else None)

    def delete_run(self, run: VectorRun | DiskVectorRun) -> None:
        """Drop a run (its storage is reclaimed)."""
        if run in self.runs:
            self.runs.remove(run)
        if isinstance(run, DiskVectorRun) and self.storage is not None:
            self.storage.delete(run)
        self.stats.runs_deleted += 1

    def close(self) -> None:
        """Release real storage, if any (idempotent)."""
        if self.storage is not None:
            self.storage.close()
