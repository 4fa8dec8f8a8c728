"""Spill files: the secondary-storage substrate.

Two interchangeable backends implement the same small interface:

* :class:`MemorySpillBackend` — keeps pages in process memory while fully
  accounting bytes and requests.  This is the default for experiments: it
  makes multi-million-row simulations fast and deterministic while the cost
  model still charges for every byte "written".
* :class:`DiskSpillBackend` — writes framed pages through a
  :class:`~repro.storage.codec.TypedPageCodec` (see
  :mod:`repro.storage.codec`) into one append-only temporary file, in
  which each run (each :class:`SpillFile` it creates) is a page table of
  byte ranges.  Used to validate that the abstraction is honest and for
  workloads that genuinely exceed process memory.

A disk page's frame holds the payload's length, a CRC-32 of the payload
and a CRC-32 of its zone-map peek window.  A scan checks the length
against the run's page table, the window's checksum before it trusts
a zone map to skip the rest of the run, and the payload's checksum
before every decode, so a corrupted page raises
:class:`~repro.errors.SpillError` naming the file, offset and page
instead of decoding into wrong rows.

The disk backend does all of its I/O on the calling thread, on one
descriptor.  Each appended page is encoded and written at the file's
end, a short write continued until the page has landed; ``seal()``
flushes.  Scans and the late-materialization stitch read each page with
``os.pread`` at its offset, so no scan opens a file and runs being
written and runs being read share it (a merge step writes its output
run while it reads its inputs).  Deleting a run marks it dead; the
backend closes and unlinks the file when its last live run is deleted
and on ``close()``, so the disk it holds is at most the bytes written
over its life.  A spill file that cannot be created (a missing
directory, a full disk, no free descriptor) and a failed write or flush
raise :class:`~repro.errors.SpillError` chained to the ``OSError``.  A
prefetching scan (:meth:`SpillFile.pages` with ``prefetch=True``, which
every merge scan sets) keeps :data:`READ_AHEAD_PAGES` decoded pages
ahead of its consumer, so a run scan reaches its zone-map cutoff page
one window before the merge needs it.  The latency of the paper's
disaggregated storage is modeled by :mod:`repro.storage.costmodel` from
the counters, not by overlapping I/O threads.

Accounting stays deterministic: the *accounting* counters
(``bytes_written``/``bytes_read``/requests/rows) are charged from the
page's stated byte size, identically across backends and codecs; the
physical codec traffic lands in the separate
``bytes_encoded``/``bytes_decoded`` counters.  All traffic is recorded
into a shared :class:`~repro.storage.stats.IOStats` via the owning
:class:`SpillManager`.
"""

from __future__ import annotations

import errno
import os
import struct
import tempfile
import time
import zlib
from collections import deque
from itertools import islice
from typing import Callable, Iterator, Sequence

from repro.errors import SpillError
from repro.obs.trace import NULL_TRACER
from repro.storage.codec import (TypedPageCodec, decode_page,
                                 decode_page_skeleton, read_zone_map)
from repro.storage.pages import (DEFAULT_PAGE_BYTES, Page, PageBuilder,
                                 default_row_size)
from repro.storage.stats import IOStats

#: Bytes read to peek a page's zone-map header before committing to the
#: full body read.  Large enough for any realistic pair of boundary
#: keys; a header overflowing the window is simply not skipped.
_ZONE_PEEK_BYTES = 4096

#: A disk page's frame: payload length, CRC-32 of the payload, CRC-32 of
#: its first ``_ZONE_PEEK_BYTES`` (the window a zone-map skip reads).
_PAGE_FRAME = struct.Struct("<QII")

#: Pages a prefetching scan keeps decoded ahead of the page its consumer
#: holds.
READ_AHEAD_PAGES = 2


def _read_ahead(pages: Iterator[Page]) -> Iterator[Page]:
    """Yield ``pages`` in order, keeping :data:`READ_AHEAD_PAGES` more
    already loaded."""
    window = deque(islice(pages, READ_AHEAD_PAGES))
    for page in pages:
        window.append(page)
        yield window.popleft()
    yield from window


class SpillFile:
    """A write-once, sequentially-read file of pages.

    Lifecycle: ``append_page`` while writing, then ``seal``, then any number
    of sequential ``pages()`` scans, then ``delete``.
    """

    #: Whether ``pages(prefetch=True)`` reads ahead — only backends with
    #: real I/O do.
    supports_prefetch = False

    #: Whether this file's pages can be read as key-only skeletons
    #: (pages with a key section; see :mod:`repro.storage.codec`).
    supports_lazy = False

    #: When True, sequential scans decode only the key section of pages
    #: that store one and deliver ``(file_id, page_index, slot)``
    #: skeleton rows; the late-materialization stitch resolves winners via
    #: :meth:`read_page`.  Set per file by the consumer — only on
    #: original run files, never on intermediate merge output (whose
    #: rows are already skeleton references).
    lazy_reads = False

    #: Tracer for skip events; :class:`SpillManager` installs its own.
    tracer = NULL_TRACER

    def __init__(self, file_id: int, stats: IOStats):
        self.file_id = file_id
        self._stats = stats
        self._sealed = False
        self.page_count = 0
        self.row_count = 0
        self.byte_size = 0
        #: Row count of each page, in order — lets readers skip whole
        #: pages (and know exactly how many rows they skipped) without
        #: touching storage.
        self.page_row_counts: list[int] = []

    # -- write side ------------------------------------------------------

    def append_page(self, page: Page) -> None:
        """Write one page; charges a write request and its bytes."""
        if self._sealed:
            raise SpillError("cannot append to a sealed spill file")
        self._store_page(page)
        self.page_count += 1
        self.row_count += len(page)
        self.byte_size += page.byte_size
        self.page_row_counts.append(len(page))
        self._stats.write_requests += 1
        self._stats.bytes_written += page.byte_size
        self._stats.rows_spilled += len(page)

    def seal(self) -> None:
        """Finish writing; the file becomes readable.

        On the disk backend this flushes the backend's file; a failed
        flush raises :class:`SpillError`.
        """
        self._sealed = True

    # -- read side -------------------------------------------------------

    def pages(self, start_page: int = 0, prefetch: bool = False,
              transform: Callable[[Page], Page] | None = None,
              cutoff: bytes | None = None) -> Iterator[Page]:
        """Sequentially scan pages from ``start_page``; charges read
        requests and bytes only for the pages actually delivered.

        ``prefetch`` keeps :data:`READ_AHEAD_PAGES` pages loaded and
        decoded ahead of the one delivered, on backends with real I/O
        (ignored elsewhere).  ``transform`` is applied to each page as it
        is loaded, so per-page work such as building the merge key cache
        runs once per page, in page order.

        ``cutoff`` (an encoded binary sort key) enables zone-map
        pruning: the scan ends at the first page whose min key exceeds
        it — pages within a run are key-ordered, so every later page
        exceeds it too.  The test runs *before* the page body is read
        and decoded, so skipped pages are never pulled off disk.
        Skipping is sound for a top-k merge because such a page cannot
        contribute a winner.  Closing the scan early stops its reads and
        drops its read-ahead.
        """
        if not self._sealed:
            raise SpillError("spill file must be sealed before reading")
        if cutoff is not None and not isinstance(cutoff, bytes):
            cutoff = None  # zone maps exist only for binary keys
        loader = self._load_pages(start_page, cutoff)
        source: Iterator[Page] = loader
        if transform is not None:
            source = map(transform, source)
        if prefetch and self.supports_prefetch:
            source = _read_ahead(source)
        stats = self._stats
        try:
            for page in source:
                stats.read_requests += 1
                stats.bytes_read += page.byte_size
                stats.rows_read += len(page)
                yield page
        finally:
            loader.close()

    def rows(self, start_page: int = 0,
             cutoff: bytes | None = None) -> Iterator[tuple]:
        """Sequentially scan rows, optionally starting at a later page."""
        for page in self.pages(start_page, cutoff=cutoff):
            yield from page.rows

    def read_page(self, index: int) -> Page:
        """Random-access read of one fully-decoded page.

        The late-materialization stitch uses this to resolve skeleton
        references back to real rows; charges one random read.
        """
        if not self._sealed:
            raise SpillError("spill file must be sealed before reading")
        page = self._fetch_page(index)
        self._stats.random_reads += 1
        return page

    def delete(self) -> None:
        """Release the file's storage (idempotent).  A disk run is
        marked dead; its bytes go with its backend's last live run."""
        self._discard()

    # -- backend hooks ---------------------------------------------------

    def _store_page(self, page: Page) -> None:
        raise NotImplementedError

    def _load_pages(self, start_page: int = 0,
                    cutoff: bytes | None = None) -> Iterator[Page]:
        """A generator of the pages from ``start_page`` on; :meth:`pages`
        closes it when the scan ends, early or not."""
        raise NotImplementedError

    def _fetch_page(self, index: int) -> Page:
        raise NotImplementedError

    def _discard(self) -> None:
        raise NotImplementedError

    def _charge_skip(self, pages: int, skipped_bytes: int) -> None:
        """Record a zone-map skip (the tail of a scan never decoded)."""
        stats = self._stats
        stats.pages_skipped_zone_map += pages
        stats.bytes_skipped_decode += skipped_bytes
        if self.tracer.enabled:
            self.tracer.event("spill.zone_map.skip", file_id=self.file_id,
                              pages=pages, bytes=skipped_bytes)


class _MemorySpillFile(SpillFile):
    """Spill file held in process memory (byte-accounted)."""

    def __init__(self, file_id: int, stats: IOStats):
        super().__init__(file_id, stats)
        self._pages: list[Page] = []

    def _store_page(self, page: Page) -> None:
        self._pages.append(page)

    def _load_pages(self, start_page: int = 0,
                    cutoff: bytes | None = None) -> Iterator[Page]:
        pages = self._pages
        for index in range(start_page, len(pages)):
            page = pages[index]
            if cutoff is not None:
                # Mirror the disk backend's zone-map rule (binary keys
                # only) so accounting stays parallel across backends.
                keys = page.keys
                if (keys is not None and len(keys) == len(page.rows)
                        and keys and type(keys[0]) is bytes
                        and keys[0] > cutoff):
                    tail = pages[index:]
                    self._charge_skip(
                        len(tail), sum(p.byte_size for p in tail))
                    return
            yield page

    def _fetch_page(self, index: int) -> Page:
        if not 0 <= index < len(self._pages):
            raise SpillError(
                f"page {index} out of range for spill file "
                f"{self.file_id} ({self.page_count} pages)")
        return self._pages[index]

    def _discard(self) -> None:
        self._pages = []


class _RunFile:
    """The one append-only temporary file a :class:`DiskSpillBackend`
    keeps every run's pages in.

    Pages are appended at the end with raw writes, looping on short
    ones, and read back by offset with ``os.pread``, which leaves the
    write position alone.  ``end`` counts every byte that landed, also
    those of a write that failed part way, so later pages land at the
    offsets their runs record.  ``live`` counts the runs not yet deleted.
    """

    def __init__(self, directory: str):
        try:
            fd, self.path = tempfile.mkstemp(
                prefix="runs_", suffix=".spill", dir=directory)
        except OSError as exc:
            raise SpillError(f"cannot create a spill file in {directory}: "
                             f"{exc}") from exc
        try:
            self.handle = os.fdopen(fd, "wb", buffering=0)
        except OSError as exc:
            os.close(fd)
            os.unlink(self.path)
            raise SpillError(f"cannot open spill file {self.path}: "
                             f"{exc}") from exc
        self.fd = fd
        self.end = 0
        self.live = 0
        self.closed = False

    def append(self, blob: bytes) -> int:
        """Write ``blob`` at the file's end; returns its offset."""
        offset = self.end
        view = memoryview(blob)
        while view:
            written = self.handle.write(view)
            if not written:
                raise OSError(errno.EIO, f"a write landed 0 of {len(view)} "
                                         f"bytes")
            self.end += written
            view = view[written:]
        return offset

    def read(self, offset: int, length: int) -> bytes:
        """Up to ``length`` bytes at ``offset`` (fewer at end of file)."""
        if self.closed:
            raise SpillError(f"spill file {self.path} is already released")
        try:
            return os.pread(self.fd, length, offset)
        except OSError as exc:
            raise SpillError(f"spill read failed: {exc}") from exc

    def release_run(self) -> None:
        """One run died; the last one closes the file."""
        self.live -= 1
        if self.live == 0:
            self.close()

    def close(self) -> None:
        """Close and unlink the file (idempotent, never raises)."""
        if self.closed:
            return
        self.closed = True
        try:
            self.handle.close()
        except OSError:
            pass  # the file is unlinked anyway
        try:
            os.unlink(self.path)
        except FileNotFoundError:
            pass  # its directory was removed under it


class _DiskSpillFile(SpillFile):
    """One run in its backend's :class:`_RunFile`: a page table of byte
    ranges, each page a frame and a codec-encoded payload."""

    supports_prefetch = True

    def __init__(self, file_id: int, stats: IOStats, run_file: _RunFile,
                 codec: TypedPageCodec):
        super().__init__(file_id, stats)
        self._codec = codec
        self._run_file = run_file
        run_file.live += 1
        #: Each page's frame offset in the run file, and payload length.
        self._page_offsets: list[int] = []
        self._page_lengths: list[int] = []
        self._deleted = False

    @property
    def _path(self) -> str:
        return self._run_file.path

    def _store_page(self, page: Page) -> None:
        stats = self._stats
        started = time.perf_counter()
        payload = self._codec.encode(page)
        encoded = time.perf_counter()
        stats.encode_seconds += encoded - started
        stats.bytes_encoded += len(payload)
        view = memoryview(payload)
        peek_crc = zlib.crc32(view[:_ZONE_PEEK_BYTES])
        crc = zlib.crc32(view[_ZONE_PEEK_BYTES:], peek_crc)
        blob = _PAGE_FRAME.pack(len(payload), crc, peek_crc) + payload
        try:
            offset = self._run_file.append(blob)
        except (OSError, ValueError) as exc:  # ValueError: closed handle
            raise SpillError(f"spill write failed: {exc}") from exc
        stats.write_seconds += time.perf_counter() - encoded
        self._page_offsets.append(offset)
        self._page_lengths.append(len(payload))

    def seal(self) -> None:
        if not self._sealed:
            started = time.perf_counter()
            try:
                self._run_file.handle.flush()
            except (OSError, ValueError) as exc:
                raise SpillError(f"spill write failed: {exc}") from exc
            self._stats.write_seconds += time.perf_counter() - started
        super().seal()

    @property
    def supports_lazy(self) -> bool:
        return self._codec.late_materialization

    def _where(self, index: int) -> str:
        return (f"page {index} at byte offset {self._page_offsets[index]} "
                f"of {self._path}")

    def _read_framed(self, index: int,
                     size: int) -> tuple[int, int, bytes]:
        """Read page ``index``'s frame and the first ``size`` bytes of
        its payload; returns ``(crc, peek_crc, payload_bytes)``."""
        data = self._run_file.read(self._page_offsets[index],
                                   _PAGE_FRAME.size + size)
        if len(data) < _PAGE_FRAME.size:
            raise SpillError(f"truncated page header ({self._where(index)})")
        length, crc, peek_crc = _PAGE_FRAME.unpack_from(data)
        if length != self._page_lengths[index]:
            raise SpillError(f"corrupted page header: length {length} "
                             f"disagrees with the page table "
                             f"({self._where(index)})")
        payload = data[_PAGE_FRAME.size:]
        if len(payload) != size:
            raise SpillError(f"truncated page body ({self._where(index)})")
        return crc, peek_crc, payload

    def _verify(self, data: bytes, crc: int, index: int, what: str) -> None:
        actual = zlib.crc32(data)
        if actual != crc:
            raise SpillError(
                f"spill {what} checksum mismatch: stored {crc:#010x}, "
                f"computed {actual:#010x} ({self._where(index)})")

    def _load_pages(self, start_page: int = 0,
                    cutoff: bytes | None = None) -> Iterator[Page]:
        stats = self._stats
        lazy = self.lazy_reads
        lengths = self._page_lengths
        for index in range(start_page, len(lengths)):
            started = time.perf_counter()
            length = lengths[index]
            if cutoff is not None:
                # Read only the frame and the zone-map window before
                # committing to the body: the first skipped page costs at
                # most the window, every later page costs nothing — they
                # are never read off disk at all.
                window = min(length, _ZONE_PEEK_BYTES)
                crc, peek_crc, payload = self._read_framed(index, window)
                self._verify(payload, peek_crc, index, "zone-map window")
                try:
                    zone_map = read_zone_map(payload)
                except SpillError:
                    # Section larger than the peek window (or corrupt —
                    # the full decode below reports it with page context).
                    zone_map = None
                if zone_map is not None and zone_map.min_key > cutoff:
                    self._charge_skip(len(lengths) - index,
                                      sum(lengths[index:]))
                    return
                if window < length:
                    rest = self._run_file.read(
                        self._page_offsets[index] + _PAGE_FRAME.size
                        + window, length - window)
                    if len(rest) != length - window:
                        raise SpillError(
                            f"truncated page body ({self._where(index)})")
                    payload += rest
            else:
                crc, _peek_crc, payload = self._read_framed(index, length)
            stats.stall_seconds += time.perf_counter() - started
            self._verify(payload, crc, index, "page")
            yield self._decode_payload(payload, index, lazy)

    def _decode_payload(self, payload: bytes, index: int,
                        lazy: bool) -> Page:
        stats = self._stats
        started = time.perf_counter()
        try:
            if lazy:
                page, undecoded = decode_page_skeleton(
                    payload, self.file_id, index)
            else:
                page, undecoded = decode_page(payload), 0
        except SpillError as exc:
            raise SpillError(f"{exc} ({self._where(index)})") from exc
        stats.decode_seconds += time.perf_counter() - started
        stats.bytes_decoded += len(payload) - undecoded
        if undecoded:
            stats.bytes_skipped_decode += undecoded
        return page

    def _fetch_page(self, index: int) -> Page:
        if not 0 <= index < len(self._page_offsets):
            raise SpillError(
                f"page {index} out of range for spill file "
                f"{self.file_id} ({self.page_count} pages)")
        crc, _peek_crc, payload = self._read_framed(
            index, self._page_lengths[index])
        self._verify(payload, crc, index, "page")
        return self._decode_payload(payload, index, lazy=False)

    def _discard(self) -> None:
        if not self._deleted:
            self._deleted = True
            self._run_file.release_run()


class MemorySpillBackend:
    """Creates in-memory spill files."""

    def create_file(self, file_id: int, stats: IOStats) -> SpillFile:
        return _MemorySpillFile(file_id, stats)

    def close(self) -> None:
        """Nothing to release for the in-memory backend."""


class DiskSpillBackend:
    """Keeps every run it creates in one temporary file under one
    directory.

    Args:
        directory: Spill directory; a private temporary one is created
            (and later removed) when omitted.
        codec: The :class:`~repro.storage.codec.TypedPageCodec` that
            encodes every page; give it the rows' schema for typed
            columns.  The default has no schema, so its payloads pickle.

    The file is created at the first :meth:`create_file`, and each run
    is a page table of byte ranges in it.  A deleted run's ranges stay
    until the backend's last live run is deleted, which closes and
    unlinks the file (the next run opens a fresh one), so the disk
    held is at most the bytes written over the backend's life.
    :meth:`close` closes and unlinks the file too, whatever runs are
    still live, sealed or not.  ``close()`` is idempotent, and the
    backend is a context manager, so error paths can simply ``with`` it.
    A backend dropped unclosed with live runs never unlinks its file,
    and when the collector closes the file's handle, ``python -X dev``
    reports a ``ResourceWarning``.
    """

    def __init__(self, directory: str | None = None,
                 codec: TypedPageCodec | None = None):
        self._own_directory = directory is None
        self._directory = directory or tempfile.mkdtemp(prefix="repro_spill_")
        self._codec = codec if codec is not None else TypedPageCodec()
        self._run_file: _RunFile | None = None
        self._closed = False

    def create_file(self, file_id: int, stats: IOStats) -> SpillFile:
        if self._closed:
            raise SpillError("spill backend is closed")
        if self._run_file is None or self._run_file.closed:
            self._run_file = _RunFile(self._directory)
        return _DiskSpillFile(file_id, stats, self._run_file, self._codec)

    def close(self) -> None:
        """Close and unlink the run file, then remove the directory if
        this backend created it.  Safe to call more than once."""
        if self._closed:
            return
        self._closed = True
        if self._run_file is not None:
            self._run_file.close()
        if self._own_directory and os.path.isdir(self._directory):
            for name in os.listdir(self._directory):
                os.unlink(os.path.join(self._directory, name))
            os.rmdir(self._directory)

    def __enter__(self) -> "DiskSpillBackend":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class SpillManager:
    """Factory and accounting hub for spill files.

    Args:
        backend: Storage backend; defaults to the in-memory one.
        stats: Shared counters; a fresh record is created when omitted.
        page_bytes: Page capacity handed to writers.
        row_size: Row byte estimator handed to writers.
        tracer: Optional :class:`repro.obs.trace.Tracer`; when enabled,
            spill-file lifecycle (create/delete) is emitted as trace
            events — one per *file*, never per page or row.
    """

    def __init__(
        self,
        backend: MemorySpillBackend | DiskSpillBackend | None = None,
        stats: IOStats | None = None,
        page_bytes: int = DEFAULT_PAGE_BYTES,
        row_size: Callable[[Sequence], int] | None = None,
        tracer=None,
    ):
        self.backend = backend or MemorySpillBackend()
        self.stats = stats if stats is not None else IOStats()
        self.page_bytes = page_bytes
        self.row_size = row_size or default_row_size
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._next_file_id = 0
        self._open_files: list[SpillFile] = []
        self._closed = False

    def create_file(self) -> SpillFile:
        """Create a new spill file registered with this manager."""
        spill_file = self.backend.create_file(self._next_file_id, self.stats)
        spill_file.tracer = self.tracer
        self._next_file_id += 1
        self._open_files.append(spill_file)
        if self.tracer.enabled:
            self.tracer.event("spill.file_created",
                              file_id=spill_file.file_id)
        return spill_file

    def new_page_builder(self) -> PageBuilder:
        """A page builder configured with this manager's page geometry."""
        return PageBuilder(page_bytes=self.page_bytes, row_size=self.row_size)

    def delete_file(self, spill_file: SpillFile) -> None:
        """Delete a file and record the run deletion."""
        spill_file.delete()
        if spill_file in self._open_files:
            self._open_files.remove(spill_file)
        self.stats.runs_deleted += 1
        if self.tracer.enabled:
            self.tracer.event("spill.file_deleted",
                              file_id=spill_file.file_id,
                              rows=spill_file.row_count)

    def close(self) -> None:
        """Delete all files and release backend resources (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for spill_file in list(self._open_files):
            spill_file.delete()
        self._open_files.clear()
        self.backend.close()

    def __enter__(self) -> "SpillManager":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
