"""Tests for sorted runs and the run writer."""

import pytest

from repro.core.topk import HistogramTopK
from repro.errors import SpillError
from repro.rows.schema import Column, ColumnType, Schema
from repro.rows.sortspec import SortColumn, SortSpec
from repro.sorting.runs import RunWriter, write_run
from repro.storage.codec import FLAG_ZONE_MAP, PAGE_HEADER, TypedPageCodec
from repro.storage.spill import DiskSpillBackend, SpillManager


class TestRunWriter:
    def test_write_and_close(self, spill):
        writer = RunWriter(spill, run_id=0)
        writer.write(1.0, (1.0,))
        writer.write(2.0, (2.0,))
        run = writer.close()
        assert run.row_count == 2
        assert run.first_key == 1.0
        assert run.last_key == 2.0
        assert list(run.rows()) == [(1.0,), (2.0,)]

    def test_order_violation_detected(self, spill):
        writer = RunWriter(spill, run_id=0)
        writer.write(5.0, (5.0,))
        with pytest.raises(SpillError, match="order violation"):
            writer.write(4.0, (4.0,))

    @pytest.mark.parametrize("previous, keys, message", [
        (None, [1.0, 3.0, 2.0, 4.0], "2.0 after 3.0"),
        (5.0, [4.0, 6.0], "4.0 after 5.0"),
        (None, [1.0, 1.0, 0.5], "0.5 after 1.0"),
    ])
    def test_batch_order_violation_detected_anywhere(self, spill, previous,
                                                     keys, message):
        writer = RunWriter(spill, run_id=0)
        if previous is not None:
            writer.write(previous, (previous,))
        with pytest.raises(SpillError, match=message):
            writer.write_batch(keys, [(key,) for key in keys])

    def test_equal_keys_allowed(self, spill):
        writer = RunWriter(spill, run_id=0)
        writer.write(1.0, (1.0,))
        writer.write(1.0, (1.0,))
        assert writer.close().row_count == 2

    def test_order_check_can_be_disabled(self, spill):
        writer = RunWriter(spill, run_id=0, check_order=False)
        writer.write(5.0, (5.0,))
        writer.write(4.0, (4.0,))  # caller's responsibility
        assert writer.close().row_count == 2

    def test_double_close_rejected(self, spill):
        writer = RunWriter(spill, run_id=0)
        writer.close()
        with pytest.raises(SpillError):
            writer.close()

    def test_write_after_close_rejected(self, spill):
        writer = RunWriter(spill, run_id=0)
        writer.close()
        with pytest.raises(SpillError):
            writer.write(1.0, (1.0,))

    def test_on_spill_fires_per_written_row(self, spill):
        seen = []
        writer = RunWriter(spill, run_id=0,
                           on_spill=lambda key, row: seen.append(key))
        writer.write(1.0, (1.0,))
        writer.write(2.0, (2.0,))
        assert seen == [1.0, 2.0]

    def test_batch_write_rejects_on_spill(self, spill):
        writer = RunWriter(spill, run_id=0, on_spill=lambda key, row: None)
        with pytest.raises(SpillError, match="one by one"):
            writer.write_batch([1.0], [(1.0,)])

    def test_abandon_reclaims_storage(self, spill):
        writer = RunWriter(spill, run_id=0)
        writer.abandon()
        assert spill.stats.runs_deleted == 1
        assert spill.stats.runs_written == 0

    def test_close_counts_run(self, spill):
        writer = RunWriter(spill, run_id=3)
        writer.write(1.0, (1.0,))
        run = writer.close()
        assert spill.stats.runs_written == 1
        assert run.run_id == 3

    def test_empty_run_metadata(self, spill):
        run = RunWriter(spill, run_id=0).close()
        assert run.row_count == 0
        assert run.first_key is None
        assert list(run.rows()) == []

    def test_large_run_spans_pages(self, spill):
        writer = RunWriter(spill, run_id=0)
        for i in range(10_000):
            writer.write(float(i), (float(i),))
        run = writer.close()
        assert run.file.page_count > 1
        assert list(run.rows()) == [(float(i),) for i in range(10_000)]


class TestWriteRunHelper:
    def test_write_run(self, spill):
        run = write_run(spill, 7, [(1.0, (1.0,)), (2.0, (2.0,))])
        assert run.run_id == 7
        assert len(run) == 2

    def test_repr_mentions_bounds(self, spill):
        run = write_run(spill, 1, [(1.0, (1.0,)), (9.0, (9.0,))])
        assert "1.0" in repr(run) and "9.0" in repr(run)


class _FlagRecordingCodec(TypedPageCodec):
    """Keeps the section flags of every page it encodes."""

    def __init__(self, schema):
        super().__init__(schema, zone_maps=True)
        self.flags = []

    def encode(self, page):
        payload = super().encode(page)
        self.flags.append(PAGE_HEADER.unpack_from(payload)[3])
        return payload


@pytest.mark.parametrize("backend", ["memory", "disk"])
def test_binary_key_run_pages_carry_no_codes(backend, tmp_path):
    """Offset-value codes live only in the merge's run scan: the pages a
    binary-key top-k spills hold rows and keys, in memory and on disk,
    and no encoded page sets the retired codes bit (2)."""
    schema = Schema([Column("S", ColumnType.STRING),
                     Column("ID", ColumnType.INT64)])
    spec = SortSpec(schema, [SortColumn("S", ascending=False),
                             SortColumn("ID")])
    rows = [(f"name-{(i * 7919) % 97:02d}", i) for i in range(4_000)]
    codec = _FlagRecordingCodec(schema)
    manager = SpillManager(
        backend=(DiskSpillBackend(directory=str(tmp_path), codec=codec)
                 if backend == "disk" else None),
        page_bytes=1_024)
    with manager:
        operator = HistogramTopK(spec, 1_500, 300, spill_manager=manager)
        output = list(operator.execute(rows))
        assert operator.key_codec is not None
        pages = [page for run in operator.runs
                 for page in run.file.pages()]
    assert output == sorted(rows, key=spec.key)[:1_500]
    assert len(pages) > len(operator.runs) > 1
    assert all(getattr(page, "codes", None) is None for page in pages)
    if backend == "disk":
        assert len(codec.flags) >= len(pages)
        assert all(flags & FLAG_ZONE_MAP for flags in codec.flags)
        assert not any(flags & 2 for flags in codec.flags)
