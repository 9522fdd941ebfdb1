"""Tests for the paged file, including corruption detection."""

import struct

import pytest

from repro.exceptions import PageError, StoreCorruptionError
from repro.storage.pages import PagedFile


#: a ``(flags, id)`` record prefix, 9 bytes
HEADER = struct.Struct("<Bq")


class TestInMemory:
    def test_allocate_and_rw(self):
        paged = PagedFile(page_size=128)
        page = paged.allocate_page()
        assert page == 0
        paged.write(page, 10, b"hello")
        assert paged.unpack(struct.Struct("5s"), page, 10) == (b"hello",)
        assert paged.unpack(struct.Struct("10s"), page, 0) == (bytes(10),)
        paged.write(page, 40, HEADER.pack(1, 77))
        assert paged.unpack(HEADER, page, 40) == (1, 77)

    def test_page_size_validation(self):
        with pytest.raises(PageError):
            PagedFile(page_size=16)

    def test_out_of_range_page(self):
        paged = PagedFile(page_size=128)
        with pytest.raises(PageError, match="out of range"):
            paged.unpack(HEADER, 0, 0)
        paged.allocate_page()
        with pytest.raises(PageError):
            paged.write(1, 0, b"x")
        for page in (-1, 1, 5):
            with pytest.raises(PageError, match="out of range"):
                paged.unpack(HEADER, page, 0)

    def test_out_of_bounds_access(self):
        paged = PagedFile(page_size=128)
        page = paged.allocate_page()
        with pytest.raises(PageError, match="exceeds page size"):
            paged.unpack(struct.Struct("16s"), page, 120)
        with pytest.raises(PageError):
            paged.write(page, 125, b"abcdef")
        for offset in (-1, 128 - HEADER.size + 1, 128):
            with pytest.raises(PageError, match="exceeds page size"):
                paged.unpack(HEADER, page, offset)
        assert paged.unpack(HEADER, page, 128 - HEADER.size) == (0, 0)
        # a layout longer than the whole page never fits
        with pytest.raises(PageError, match="exceeds page size"):
            paged.unpack(struct.Struct("129s"), page, 0)

    def test_size_accounting(self):
        paged = PagedFile(page_size=256)
        paged.allocate_page()
        paged.allocate_page()
        assert paged.num_pages == 2
        assert paged.size_bytes == 512


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        paged = PagedFile(page_size=128)
        for index in range(3):
            page = paged.allocate_page()
            paged.write(page, 0, bytes([index]) * 16)
        path = str(tmp_path / "pages.bin")
        paged.save(path)
        loaded = PagedFile.load(path)
        assert loaded.page_size == 128
        assert loaded.num_pages == 3
        for index in range(3):
            assert loaded.unpack(struct.Struct("16s"), index, 0) == (bytes([index]) * 16,)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + bytes(100))
        with pytest.raises(StoreCorruptionError, match="magic"):
            PagedFile.load(str(path))

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.bin"
        path.write_bytes(b"HR")
        with pytest.raises(StoreCorruptionError, match="truncated"):
            PagedFile.load(str(path))

    def test_crc_detects_bit_flip(self, tmp_path):
        paged = PagedFile(page_size=128)
        page = paged.allocate_page()
        paged.write(page, 0, b"important data")
        path = str(tmp_path / "flip.bin")
        paged.save(path)
        raw = bytearray(open(path, "rb").read())
        raw[-1] ^= 0xFF  # corrupt the last page byte
        open(path, "wb").write(bytes(raw))
        with pytest.raises(StoreCorruptionError, match="CRC"):
            PagedFile.load(path)

    def test_truncated_page(self, tmp_path):
        paged = PagedFile(page_size=128)
        paged.allocate_page()
        path = str(tmp_path / "trunc.bin")
        paged.save(path)
        raw = open(path, "rb").read()
        open(path, "wb").write(raw[:-10])
        with pytest.raises(StoreCorruptionError):
            PagedFile.load(path)
