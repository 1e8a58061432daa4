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
    last_tag_time,
    read_timetags,
    write_timetags,
)


def sample_tags(n=100, seed=0, channel_id=CHANNEL_ALICE):
    """Records of a ``channel_id`` file: its two channels, flag bit 0 at random."""
    rng = np.random.default_rng(seed)
    tags = np.zeros(n, dtype=TAG_DTYPE)
    tags["time_ps"] = np.sort(rng.integers(0, 10**15, n))
    tags["channel"] = 2 * channel_id + rng.integers(0, 2, n)
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
        tags = sample_tags(1000, seed=3, channel_id=CHANNEL_BOB)
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
        write_timetags(path, sample_tags(1, channel_id=CHANNEL_BOB), CHANNEL_BOB)
        raw = path.read_bytes()
        assert raw[:4] == MAGIC
        assert int.from_bytes(raw[4:6], "little") == FORMAT_VERSION
        assert int.from_bytes(raw[6:8], "little") == CHANNEL_BOB
        assert len(raw) == 16 + 16

    def test_wrong_dtype_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_timetags(tmp_path / "x.mcqt", np.zeros(3, dtype=np.int64), 0)


class TestRangeRead:
    # runs of equal times at 20 and 40; the ranges cover bounds on, between
    # and inside the runs, and ranges before the first and after the last tag
    TIMES = [10, 20, 20, 20, 30, 40, 40, 50]

    @pytest.fixture
    def path(self, tmp_path):
        tags = np.zeros(len(self.TIMES), dtype=TAG_DTYPE)
        tags["time_ps"] = self.TIMES
        tags["channel"] = 2 * CHANNEL_BOB + np.arange(len(self.TIMES)) % 2
        path = tmp_path / "runs.mcqt"
        write_timetags(path, tags, CHANNEL_BOB)
        return path

    @staticmethod
    def expected(path, start_ps, end_ps):
        tags, _ = read_timetags(path)
        keep = tags["time_ps"] >= start_ps
        if end_ps is not None:
            keep &= tags["time_ps"] < end_ps
        return tags[keep]

    @pytest.mark.parametrize(
        "start_ps, end_ps",
        [
            (0, None), (10, 20), (20, 21), (20, 40), (21, 40), (15, 35), (30, 30),
            (40, None), (41, 50), (50, 51), (0, 10), (0, 5), (51, None), (60, 70), (30, 20),
        ],
    )
    def test_range_equals_filtered_full_read(self, path, start_ps, end_ps):
        tags, channel = read_timetags(path, start_ps, end_ps)
        assert channel == CHANNEL_BOB
        assert tags.tobytes() == self.expected(path, start_ps, end_ps).tobytes()

    def test_random_ranges_with_many_equal_times(self, tmp_path):
        rng = np.random.default_rng(7)
        tags = np.zeros(3000, dtype=TAG_DTYPE)
        tags["time_ps"] = np.sort(rng.integers(0, 200, tags.size))
        tags["channel"] = rng.integers(0, 2, tags.size)
        path = tmp_path / "dup.mcqt"
        write_timetags(path, tags, CHANNEL_ALICE)
        for start_ps, end_ps in rng.integers(-5, 210, (50, 2)):
            got, _ = read_timetags(path, int(start_ps), int(end_ps))
            assert got.tobytes() == self.expected(path, start_ps, end_ps).tobytes()

    def test_adjacent_ranges_tile_a_file_out_of_order(self, tmp_path):
        # a reader that checks each range's order then sees every record
        rng = np.random.default_rng(11)
        tags = np.zeros(500, dtype=TAG_DTYPE)
        tags["time_ps"] = rng.integers(0, 1000, tags.size)
        tags["time_ps"][-1] = 1000  # past every bound
        path = tmp_path / "shuffled.mcqt"
        write_timetags(path, tags, CHANNEL_ALICE)
        for _ in range(20):
            bounds = [0, *np.sort(rng.integers(1, 1000, 3)).tolist(), None]
            parts = [read_timetags(path, s, e)[0] for s, e in zip(bounds, bounds[1:])]
            assert np.concatenate(parts).tobytes() == tags.tobytes()

    def test_range_ending_past_the_last_record_must_reach_it(self, tmp_path):
        tags = np.zeros(4, dtype=TAG_DTYPE)
        tags["time_ps"] = [40, 50, 60, 10]
        path = tmp_path / "tail.mcqt"
        write_timetags(path, tags, CHANNEL_ALICE)
        with pytest.raises(TagFormatError) as err:
            read_timetags(path, 0, 30)
        assert str(err.value) == f"{path}: times decrease after this record (offset 16)"

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.mcqt"
        write_timetags(path, np.zeros(0, dtype=TAG_DTYPE), CHANNEL_BOB)
        tags, channel = read_timetags(path, 5, 10)
        assert len(tags) == 0 and channel == CHANNEL_BOB
        assert last_tag_time(path) == (None, CHANNEL_BOB)

    def test_last_tag_time(self, path):
        assert last_tag_time(path) == (50, CHANNEL_BOB)

    def test_range_read_holds_only_its_records(self, tmp_path):
        tags = sample_tags(200_000)
        path = tmp_path / "big.mcqt"
        write_timetags(path, tags, CHANNEL_ALICE)
        start_ps, end_ps = (int(t) for t in tags["time_ps"][[90_000, 110_000]])
        tracemalloc.start()
        try:
            part, _ = read_timetags(path, start_ps, end_ps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert part.tobytes() == tags[90_000:110_000].tobytes()
        # a copy of the file's time column would be five times the range
        assert peak <= 1.1 * part.nbytes


class TestAppend:
    def test_appended_parts_equal_one_write(self, tmp_path):
        tags = sample_tags(1000, seed=5, channel_id=CHANNEL_BOB)
        parts = [tags[:300], tags[300:300], tags[300:]]
        whole, pieces = tmp_path / "whole.mcqt", tmp_path / "pieces.mcqt"
        write_timetags(whole, tags, CHANNEL_BOB)
        for k, part in enumerate(parts):
            write_timetags(pieces, part, CHANNEL_BOB, append=k > 0)
        assert pieces.read_bytes() == whole.read_bytes()

    def test_plain_write_replaces_the_file(self, tmp_path):
        path = tmp_path / "s.mcqt"
        write_timetags(path, sample_tags(50), CHANNEL_ALICE)
        write_timetags(path, sample_tags(7), CHANNEL_ALICE)
        assert path.stat().st_size == 16 + 7 * 16


class TestCorruption:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.mcqt"
        path.write_bytes(b"XXXX" + bytes(12))
        with pytest.raises(TagFormatError) as err:
            read_timetags(path)
        assert err.value.offset == 0
        assert str(err.value) == f"{path}: bad magic b'XXXX', expected b'MCQT' (offset 0)"

    def test_bad_version(self, tmp_path):
        path = tmp_path / "bad.mcqt"
        path.write_bytes(MAGIC + (99).to_bytes(2, "little") + bytes(10))
        with pytest.raises(TagFormatError) as err:
            read_timetags(path)
        assert err.value.offset == 4
        assert str(err.value) == f"{path}: unsupported format version 99 (offset 4)"

    @pytest.mark.parametrize("reserved", [1, 0x100, 2**63])
    @pytest.mark.parametrize("reader", [read_timetags, last_tag_time], ids=["read", "last"])
    def test_nonzero_reserved_header_field(self, tmp_path, reader, reserved):
        path = tmp_path / "bad.mcqt"
        write_timetags(path, sample_tags(10), CHANNEL_ALICE)
        raw = bytearray(path.read_bytes())
        raw[8:16] = reserved.to_bytes(8, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(TagFormatError) as err:
            reader(path)
        assert err.value.offset == 8
        assert str(err.value) == f"{path}: non-zero reserved header field {reserved:#x} (offset 8)"

    def test_truncated_records(self, tmp_path):
        path = tmp_path / "trunc.mcqt"
        write_timetags(path, sample_tags(10), CHANNEL_ALICE)
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])
        with pytest.raises(TagFormatError) as err:
            read_timetags(path)
        assert str(err.value) == f"{path}: record region of 155 bytes is not a multiple of 16 (offset 160)"

    @pytest.mark.parametrize(
        "channel_id, column, value, message",
        [
            (CHANNEL_BOB, "channel", 200, "record channel 200"),
            (CHANNEL_BOB, "channel", 0, "record channel 0"),
            (CHANNEL_BOB, "channel", 1, "record channel 1"),
            (CHANNEL_ALICE, "channel", 2, "record channel 2"),
            (CHANNEL_ALICE, "flags", 0x80, "record flags 0x80"),
            (CHANNEL_BOB, "flags", 0x02, "record flags 0x02"),
            (CHANNEL_ALICE, "reserved", b"\0\0\0\0\0\x01", "record reserved bytes"),
            (CHANNEL_BOB, "reserved", b"\x80\0\0\0\0\0", "record reserved bytes"),
        ],
    )
    def test_record_columns_outside_the_format(self, tmp_path, channel_id, column, value, message):
        # a record may only hold its file's two channels, flag bit 0 and zero
        # reserved bytes; the first one that does not is named by its offset
        tags = sample_tags(50, seed=9, channel_id=channel_id)
        tags[column][[17, 30]] = value
        path = tmp_path / "cols.mcqt"
        write_timetags(path, tags, channel_id)
        offset = 16 + 17 * 16
        for start_ps in (0, int(tags["time_ps"][10])):
            with pytest.raises(TagFormatError) as err:
                read_timetags(path, start_ps)
            assert err.value.offset == offset
            assert str(err.value) == f"{path}: {message} not valid for channel id {channel_id} (offset {offset})"
        # ranges without the bad records read as before
        assert read_timetags(path, 0, int(tags["time_ps"][17]))[0].tobytes() == tags[:17].tobytes()

    def test_too_short_for_header(self, tmp_path):
        path = tmp_path / "short.mcqt"
        path.write_bytes(b"MC")
        with pytest.raises(TagFormatError) as err:
            read_timetags(path)
        assert str(err.value) == f"{path}: file shorter than the 16-byte header (offset 0)"


def test_read_holds_one_copy_of_the_records(tmp_path):
    tags = sample_tags(200_000, channel_id=CHANNEL_BOB)
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
