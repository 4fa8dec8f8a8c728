"""Tests for page layout and the page builder."""

import pytest

from repro.errors import SpillError
from repro.storage.pages import DEFAULT_PAGE_BYTES, Page, PageBuilder


class TestPage:
    def test_len(self):
        assert len(Page(rows=[(1,), (2,)], byte_size=32)) == 2

    def test_keys_default_to_none(self):
        assert Page(rows=[(1,)], byte_size=16).keys is None

    def test_round_trip_through_codec(self):
        # Serialization lives in repro.storage.codec; the default
        # (schemaless, pickled-payload) codec must round-trip any page
        # exactly.
        from repro.storage.codec import TypedPageCodec, decode_page

        page = Page(rows=[(1, "a"), (2, "b")], byte_size=64)
        restored = decode_page(TypedPageCodec().encode(page))
        assert restored.rows == page.rows
        assert restored.byte_size == page.byte_size

    def test_decode_rejects_garbage(self):
        from repro.storage.codec import decode_page

        with pytest.raises(SpillError):
            decode_page(b"not a pickle")


class TestPageBuilder:
    def test_rejects_non_positive_capacity(self):
        with pytest.raises(SpillError):
            PageBuilder(page_bytes=0)

    def test_buffers_until_capacity(self):
        builder = PageBuilder(page_bytes=100,
                              row_size=lambda _row: 30)
        assert builder.add((1,)) is None
        assert builder.add((2,)) is None
        assert builder.add((3,)) is None
        page = builder.add((4,))  # 120 bytes >= 100
        assert page is not None
        assert len(page) == 4
        assert builder.pending_rows == 0

    def test_flush_emits_partial(self):
        builder = PageBuilder(page_bytes=1000, row_size=lambda _row: 10)
        builder.add((1,))
        page = builder.flush()
        assert page is not None and len(page) == 1

    def test_flush_empty_returns_none(self):
        assert PageBuilder().flush() is None

    def test_oversized_row_still_pages(self):
        builder = PageBuilder(page_bytes=10, row_size=lambda _row: 1000)
        page = builder.add(("huge",))
        assert page is not None
        assert page.byte_size == 1000

    def test_default_row_size_counts_width(self):
        builder = PageBuilder()
        narrow = builder.row_size((1,))
        wide = builder.row_size((1, 2, 3, 4, 5))
        assert narrow < wide

    def test_default_capacity(self):
        assert PageBuilder().page_bytes == DEFAULT_PAGE_BYTES

    def test_byte_size_accumulates(self):
        builder = PageBuilder(page_bytes=25, row_size=lambda _row: 10)
        builder.add((1,))
        builder.add((2,))
        page = builder.add((3,))
        assert page.byte_size == 30


class TestPageKeyCache:
    def test_add_with_keys_populates_cache(self):
        builder = PageBuilder(page_bytes=20, row_size=lambda _row: 10)
        builder.add((10,), key=1.0)
        page = builder.add((20,), key=2.0)
        assert page.keys == [1.0, 2.0]

    def test_add_without_keys_leaves_cache_empty(self):
        builder = PageBuilder(page_bytes=20, row_size=lambda _row: 10)
        builder.add((10,))
        page = builder.add((20,))
        assert page.keys is None

    def test_mixed_keys_disable_cache(self):
        # A partially keyed page cannot claim a parallel key list.
        builder = PageBuilder(page_bytes=20, row_size=lambda _row: 10)
        builder.add((10,), key=1.0)
        page = builder.add((20,))
        assert page.keys is None

    def test_extend_with_keys_matches_add_boundaries(self):
        rows = [(i,) for i in range(7)]
        keys = [float(i) for i in range(7)]
        one = PageBuilder(page_bytes=30, row_size=lambda _row: 10)
        two = PageBuilder(page_bytes=30, row_size=lambda _row: 10)
        pages_one = [p for r, k in zip(rows, keys)
                     if (p := one.add(r, k)) is not None]
        pages_two = two.extend(rows, keys)
        assert [p.rows for p in pages_one] == [p.rows for p in pages_two]
        assert [p.keys for p in pages_one] == [p.keys for p in pages_two]
        assert all(p.keys is not None for p in pages_two)
