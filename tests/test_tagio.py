"""Unit tests for the binary timetag format."""

import itertools
import struct
import tracemalloc

import numpy as np
import pytest

from mcfqkd import tagio
from mcfqkd.photonsim import Stream
from mcfqkd.tagio import (
    CHANNEL_ALICE,
    CHANNEL_BOB,
    FORMAT_VERSION,
    MAGIC,
    TAG_DTYPE,
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


def stream_of(tags, channel_id):
    """The stream of the records ``tags``: their times, and codes 2*channel + flags."""
    codes = (2 * tags["channel"].astype(np.int64) + tags["flags"]).astype(np.uint8)
    return Stream(tags["time_ps"].astype(np.int64), codes, channel_id)


def header(channel_id):
    return struct.pack("<4sHHQ", MAGIC, FORMAT_VERSION, channel_id, 0)


def write_records(path, tags, channel_id):
    """A file of the records ``tags`` as they are, written without ``write_timetags``,
    which takes only streams the format allows."""
    path.write_bytes(header(channel_id) + tags.tobytes())


def assert_stream_is(stream, tags):
    """``stream`` holds exactly the records ``tags``."""
    want = stream_of(tags, stream.channel_id)
    assert stream.times.tobytes() == want.times.tobytes()
    assert stream.codes.tobytes() == want.codes.tobytes()


class TestRoundTrip:
    def test_bit_exact_roundtrip(self, tmp_path):
        # 5000 records go out in one chunk, 8 * _CHUNK + 9 in eight of n // 8 and a
        # ninth of one; each file holds all four codes of its channel id
        path = tmp_path / "stream.mcqt"
        for n, channel_id in itertools.product([5000, 8 * tagio._CHUNK + 9], [CHANNEL_ALICE, CHANNEL_BOB]):
            tags = sample_tags(n, channel_id=channel_id)
            assert set(zip(tags["channel"].tolist(), tags["flags"].tolist())) == {
                (2 * channel_id + port, flag) for port in (0, 1) for flag in (0, 1)
            }
            write_timetags(path, stream_of(tags, channel_id))
            assert path.read_bytes() == header(channel_id) + tags.tobytes()
            back, channel = read_timetags(path)
            assert channel == channel_id
            assert_stream_is(back, tags)

    def test_rewrite_is_byte_identical(self, tmp_path):
        tags = sample_tags(1000, seed=3, channel_id=CHANNEL_BOB)
        p1, p2 = tmp_path / "a.mcqt", tmp_path / "b.mcqt"
        write_timetags(p1, stream_of(tags, CHANNEL_BOB))
        write_timetags(p2, read_timetags(p1)[0])
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_stream(self, tmp_path):
        path = tmp_path / "empty.mcqt"
        write_timetags(path, stream_of(sample_tags(0), CHANNEL_ALICE))
        back, channel = read_timetags(path)
        assert len(back) == 0
        assert path.stat().st_size == 16

    def test_header_layout(self, tmp_path):
        path = tmp_path / "h.mcqt"
        write_timetags(path, stream_of(sample_tags(1, channel_id=CHANNEL_BOB), CHANNEL_BOB))
        raw = path.read_bytes()
        assert raw[:4] == MAGIC
        assert int.from_bytes(raw[4:6], "little") == FORMAT_VERSION
        assert int.from_bytes(raw[6:8], "little") == CHANNEL_BOB
        assert len(raw) == 16 + 16

    def test_wrong_dtype_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_timetags(tmp_path / "x.mcqt", np.zeros(3, dtype=np.int64))


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
        write_records(path, tags, CHANNEL_BOB)
        return path

    @staticmethod
    def expected(path, start_ps, end_ps):
        """The file's records with ``start_ps <= time_ps < end_ps``."""
        tags = np.frombuffer(path.read_bytes(), dtype=TAG_DTYPE, offset=16)
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
        assert_stream_is(tags, self.expected(path, start_ps, end_ps))

    def test_random_ranges_with_many_equal_times(self, tmp_path):
        rng = np.random.default_rng(7)
        tags = np.zeros(3000, dtype=TAG_DTYPE)
        tags["time_ps"] = np.sort(rng.integers(0, 200, tags.size))
        tags["channel"] = rng.integers(0, 2, tags.size)
        path = tmp_path / "dup.mcqt"
        write_records(path, tags, CHANNEL_ALICE)
        for start_ps, end_ps in rng.integers(-5, 210, (50, 2)):
            got, _ = read_timetags(path, int(start_ps), int(end_ps))
            assert_stream_is(got, self.expected(path, start_ps, end_ps))

    def test_adjacent_ranges_tile_a_file_out_of_order(self, tmp_path):
        # adjacent ranges meet at one record, so reads that tile the file see
        # every record, and each read checks its range's order: the first read
        # of a range with a decrease names the file's first one
        rng = np.random.default_rng(11)
        tags = np.zeros(500, dtype=TAG_DTYPE)
        tags["time_ps"] = rng.integers(0, 1000, tags.size)
        tags["time_ps"][-1] = 1000  # past every bound
        path = tmp_path / "shuffled.mcqt"
        write_records(path, tags, CHANNEL_ALICE)
        first = 16 + 16 * int(np.flatnonzero(np.diff(tags["time_ps"].astype(np.int64)) < 0)[0])
        for _ in range(20):
            bounds = [0, *np.sort(rng.integers(1, 1000, 3)).tolist(), None]
            with pytest.raises(TagFormatError) as err:
                for s, e in zip(bounds, bounds[1:]):
                    read_timetags(path, s, e)
            assert str(err.value) == f"{path}: times decrease after this record (offset {first})"

    def test_range_ending_past_the_last_record_must_reach_it(self, tmp_path):
        tags = np.zeros(4, dtype=TAG_DTYPE)
        tags["time_ps"] = [40, 50, 60, 10]
        path = tmp_path / "tail.mcqt"
        write_records(path, tags, CHANNEL_ALICE)
        with pytest.raises(TagFormatError) as err:
            read_timetags(path, 0, 30)
        assert str(err.value) == f"{path}: times decrease after this record (offset 16)"

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.mcqt"
        write_timetags(path, stream_of(sample_tags(0), CHANNEL_BOB))
        tags, channel = read_timetags(path, 5, 10)
        assert len(tags) == 0 and channel == CHANNEL_BOB
        assert last_tag_time(path) == (None, CHANNEL_BOB)

    def test_last_tag_time(self, path):
        assert last_tag_time(path) == (50, CHANNEL_BOB)

    def test_range_read_holds_only_its_records(self, tmp_path):
        tags = sample_tags(200_000)
        path = tmp_path / "big.mcqt"
        write_records(path, tags, CHANNEL_ALICE)
        start_ps, end_ps = (int(t) for t in tags["time_ps"][[90_000, 110_000]])
        tracemalloc.start()
        try:
            part, _ = read_timetags(path, start_ps, end_ps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert_stream_is(part, tags[90_000:110_000])
        # a copy of the file's time column would be five times the range's
        # 16-byte records
        assert peak <= 1.1 * 16 * len(part)


class TestAppend:
    def test_appended_parts_equal_one_write(self, tmp_path):
        tags = sample_tags(1000, seed=5, channel_id=CHANNEL_BOB)
        parts = [tags[:300], tags[300:300], tags[300:]]
        whole, pieces = tmp_path / "whole.mcqt", tmp_path / "pieces.mcqt"
        write_timetags(whole, stream_of(tags, CHANNEL_BOB))
        for k, part in enumerate(parts):
            write_timetags(pieces, stream_of(part, CHANNEL_BOB), append=k > 0)
        assert pieces.read_bytes() == whole.read_bytes()

    def test_plain_write_replaces_the_file(self, tmp_path):
        path = tmp_path / "s.mcqt"
        write_timetags(path, stream_of(sample_tags(50), CHANNEL_ALICE))
        write_timetags(path, stream_of(sample_tags(7), CHANNEL_ALICE))
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
        write_records(path, sample_tags(10), CHANNEL_ALICE)
        raw = bytearray(path.read_bytes())
        raw[8:16] = reserved.to_bytes(8, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(TagFormatError) as err:
            reader(path)
        assert err.value.offset == 8
        assert str(err.value) == f"{path}: non-zero reserved header field {reserved:#x} (offset 8)"

    def test_time_bound_holds_at_2_60_ps_less_one(self, tmp_path):
        tags = sample_tags(20, seed=3)
        tags["time_ps"][-1] = 2**60 - 1
        path = tmp_path / "edge.mcqt"
        write_records(path, tags, CHANNEL_ALICE)
        assert_stream_is(read_timetags(path)[0], tags)
        assert last_tag_time(path) == (2**60 - 1, CHANNEL_ALICE)

    @pytest.mark.parametrize("time", [2**60, 2**63 + 5], ids=["2**60", "2**63+5"])
    @pytest.mark.parametrize("i", [12, 19], ids=["middle", "last"])
    def test_times_from_2_60_ps_rejected(self, tmp_path, i, time):
        # the simulator's bound on tag times: a time at 2**63 or later would read
        # as a negative int64, and one in the middle also breaks the order after it
        tags = sample_tags(20, seed=3)
        tags["time_ps"][i] = time
        path = tmp_path / "late.mcqt"
        write_records(path, tags, CHANNEL_ALICE)
        readers = [read_timetags, lambda p: read_timetags(p, int(tags["time_ps"][5]))]
        for reader in readers + [last_tag_time] * (i == 19):
            with pytest.raises(TagFormatError) as err:
                reader(path)
            assert err.value.offset == 16 + 16 * i
            assert str(err.value) == f"{path}: time {time} ps not below 2**60 (offset {16 + 16 * i})"

    def test_truncated_records(self, tmp_path):
        path = tmp_path / "trunc.mcqt"
        write_records(path, sample_tags(10), CHANNEL_ALICE)
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
        write_records(path, tags, channel_id)
        offset = 16 + 17 * 16
        for start_ps in (0, int(tags["time_ps"][10])):
            with pytest.raises(TagFormatError) as err:
                read_timetags(path, start_ps)
            assert err.value.offset == offset
            assert str(err.value) == f"{path}: {message} not valid for channel id {channel_id} (offset {offset})"
        # ranges without the bad records read as before
        assert_stream_is(read_timetags(path, 0, int(tags["time_ps"][17]))[0], tags[:17])

    def test_too_short_for_header(self, tmp_path):
        path = tmp_path / "short.mcqt"
        path.write_bytes(b"MC")
        with pytest.raises(TagFormatError) as err:
            read_timetags(path)
        assert str(err.value) == f"{path}: file shorter than the 16-byte header (offset 0)"


def test_read_holds_one_copy_of_the_records(tmp_path):
    tags = sample_tags(200_000, channel_id=CHANNEL_BOB)
    path = tmp_path / "big.mcqt"
    write_records(path, tags, CHANNEL_BOB)
    tracemalloc.start()
    try:
        back, _ = read_timetags(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert_stream_is(back, tags)
    # a bytes copy of the file beside the stream would double the records' bytes
    assert peak <= 1.1 * tags.nbytes


class TestChunks:
    """Reads and writes go through a buffer of ``_CHUNK`` records, or of an
    eighth of a longer range's: a range of any length reads back the same
    times and codes, and a stream writes the same bytes whole, appended in
    parts, or rewritten from a read."""

    C = tagio._CHUNK

    @pytest.mark.parametrize("append", [False, True], ids=["whole", "appended"])
    @pytest.mark.parametrize("size", [0, 1, C - 1, C, C + 1, 2 * C + 1, 8 * C + 9, 17 * C])
    def test_range_round_trips(self, tmp_path, size, append):
        # ``size`` records between ten before and ten after, at distinct times
        tags = sample_tags(size + 20, seed=size, channel_id=CHANNEL_BOB)
        tags["time_ps"] = 3 + 7 * np.arange(tags.size)
        stream, path = stream_of(tags, CHANNEL_BOB), tmp_path / "s.mcqt"
        if append:
            cuts = [0, 10, 10 + size // 2, 10 + size, tags.size]
            for k, (s, e) in enumerate(zip(cuts, cuts[1:])):
                write_timetags(path, stream_of(tags[s:e], CHANNEL_BOB), append=k > 0)
        else:
            write_timetags(path, stream)
        assert path.read_bytes() == header(CHANNEL_BOB) + tags.tobytes()
        part, _ = read_timetags(path, int(tags["time_ps"][10]), int(tags["time_ps"][10 + size]))
        assert_stream_is(part, tags[10 : 10 + size])
        again = tmp_path / "again.mcqt"
        write_timetags(again, part)
        assert again.read_bytes() == header(CHANNEL_BOB) + tags[10 : 10 + size].tobytes()

    @pytest.mark.parametrize(
        "column, value, message",
        [
            ("channel", 4, "record channel 4 not valid for channel id 1"),
            ("flags", 0x04, "record flags 0x04 not valid for channel id 1"),
            ("reserved", b"\0\0\x01\0\0\0", "record reserved bytes not valid for channel id 1"),
            ("time_ps", 0, "times decrease after this record"),
        ],
    )
    def test_bad_record_in_the_second_chunk(self, tmp_path, column, value, message):
        tags = sample_tags(3 * self.C, seed=4, channel_id=CHANNEL_BOB)
        i = self.C + 123
        tags[column][[i, i + 7]] = value
        path = tmp_path / "bad.mcqt"
        write_records(path, tags, CHANNEL_BOB)
        # a time out of order is named by the record before it
        offset = 16 + 16 * (i - (column == "time_ps"))
        # from the file's start and from record 5, so the chunks start apart
        for start_ps in (0, int(tags["time_ps"][5])):
            with pytest.raises(TagFormatError) as err:
                read_timetags(path, start_ps)
            assert str(err.value) == f"{path}: {message} (offset {offset})"

    @pytest.mark.parametrize("reader", [read_timetags, last_tag_time], ids=["read", "last"])
    def test_header_channel_id_beyond_bob(self, tmp_path, reader):
        path = tmp_path / "bad.mcqt"
        write_records(path, sample_tags(10, channel_id=2), 2)
        with pytest.raises(TagFormatError) as err:
            reader(path)
        assert str(err.value) == f"{path}: channel id 2 is neither 0 nor 1 (offset 6)"
