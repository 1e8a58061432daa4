"""Unit tests for the binary timetag format."""

import tracemalloc

import numpy as np
import pytest

from mcfqkd.photonsim import TAG_DTYPE
from mcfqkd.tagio import (
    CHANNEL_ALICE,
    CHANNEL_BOB,
    FORMAT_VERSION,
    MAGIC,
    TagFormatError,
    read_timetags,
    write_timetags,
)


def sample_tags(n=100, seed=0):
    rng = np.random.default_rng(seed)
    tags = np.zeros(n, dtype=TAG_DTYPE)
    tags["time_ps"] = np.sort(rng.integers(0, 10**15, n))
    tags["channel"] = rng.integers(0, 4, n)
    tags["flags"] = rng.integers(0, 2, n)
    return tags


class TestRoundTrip:
    def test_bit_exact_roundtrip(self, tmp_path):
        tags = sample_tags(5000)
        path = tmp_path / "stream.mcqt"
        write_timetags(path, tags, CHANNEL_ALICE)
        back, channel = read_timetags(path)
        assert channel == CHANNEL_ALICE
        assert back.tobytes() == tags.tobytes()

    def test_rewrite_is_byte_identical(self, tmp_path):
        tags = sample_tags(1000, seed=3)
        p1, p2 = tmp_path / "a.mcqt", tmp_path / "b.mcqt"
        write_timetags(p1, tags, CHANNEL_BOB)
        write_timetags(p2, tags, CHANNEL_BOB)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_stream(self, tmp_path):
        path = tmp_path / "empty.mcqt"
        write_timetags(path, np.zeros(0, dtype=TAG_DTYPE), CHANNEL_ALICE)
        back, channel = read_timetags(path)
        assert len(back) == 0
        assert path.stat().st_size == 16

    def test_header_layout(self, tmp_path):
        path = tmp_path / "h.mcqt"
        write_timetags(path, sample_tags(1), CHANNEL_BOB)
        raw = path.read_bytes()
        assert raw[:4] == MAGIC
        assert int.from_bytes(raw[4:6], "little") == FORMAT_VERSION
        assert int.from_bytes(raw[6:8], "little") == CHANNEL_BOB
        assert len(raw) == 16 + 16

    def test_wrong_dtype_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_timetags(tmp_path / "x.mcqt", np.zeros(3, dtype=np.int64), 0)


class TestCorruption:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.mcqt"
        path.write_bytes(b"XXXX" + bytes(12))
        with pytest.raises(TagFormatError) as err:
            read_timetags(path)
        assert err.value.offset == 0
        assert str(err.value) == "bad magic b'XXXX', expected b'MCQT' (offset 0)"

    def test_bad_version(self, tmp_path):
        path = tmp_path / "bad.mcqt"
        path.write_bytes(MAGIC + (99).to_bytes(2, "little") + bytes(10))
        with pytest.raises(TagFormatError) as err:
            read_timetags(path)
        assert err.value.offset == 4
        assert str(err.value) == "unsupported format version 99 (offset 4)"

    def test_truncated_records(self, tmp_path):
        path = tmp_path / "trunc.mcqt"
        write_timetags(path, sample_tags(10), CHANNEL_ALICE)
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])
        with pytest.raises(TagFormatError) as err:
            read_timetags(path)
        assert str(err.value) == "record region of 155 bytes is not a multiple of 16 (offset 160)"

    def test_too_short_for_header(self, tmp_path):
        path = tmp_path / "short.mcqt"
        path.write_bytes(b"MC")
        with pytest.raises(TagFormatError) as err:
            read_timetags(path)
        assert str(err.value) == "file shorter than the 16-byte header (offset 0)"


def test_read_holds_one_copy_of_the_records(tmp_path):
    tags = sample_tags(200_000)
    path = tmp_path / "big.mcqt"
    write_timetags(path, tags, CHANNEL_BOB)
    tracemalloc.start()
    try:
        back, _ = read_timetags(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.tobytes() == tags.tobytes()
    # a bytes copy of the file beside the array would double this
    assert peak <= 1.1 * tags.nbytes
