"""Binary timetag file format.

Little-endian layout:

* header, 16 bytes: magic ``MCQT``, format version ``u16`` (currently 1),
  channel id ``u16`` (0 = Alice stream, 1 = Bob stream), reserved ``u64``.
* records, 16 bytes each: ``time_ps u64``, ``channel u8`` (``2 * channel id``
  for the transmitted port, plus 1 for the reflected one), ``flags u8`` (bit 0
  marks a ground-truth dark count, which the simulator always sets; no
  other bit is used), six reserved zero bytes.

Records exist only here: ``write_timetags(path, stream)`` writes a
``photonsim.Stream`` (times and codes ``2 * channel + flags``) under its
channel id, and ``read_timetags`` reads a time range's records into one, found
by a binary search that reads one record time per step.  Both pass an eighth
of the records, and at least ``_CHUNK``, at a time through one buffer of
``TAG_DTYPE`` records: a write fills a zeroed one column by column (the time,
``code >> 1`` and ``code & 1``), and a read checks each chunk's columns, then
the times' order and bound as a ``Stream``, and names the first bad record's
offset.  Appended parts equal a single write.
"""
from __future__ import annotations

import bisect
import functools
import os
import struct

import numpy as np

from .photonsim import TIME_LIMIT_PS, Stream

__all__ = [
    "MAGIC",
    "FORMAT_VERSION",
    "CHANNEL_ALICE",
    "CHANNEL_BOB",
    "TAG_DTYPE",
    "TagFormatError",
    "write_timetags",
    "read_timetags",
    "last_tag_time",
]

MAGIC = b"MCQT"
FORMAT_VERSION = 1
CHANNEL_ALICE = 0
CHANNEL_BOB = 1

#: one record: the time, the channel, the flags and six reserved zero bytes
TAG_DTYPE = np.dtype(
    [("time_ps", "<u8"), ("channel", "u1"), ("flags", "u1"), ("reserved", "V6")]
)

_HEADER = struct.Struct("<4sHHQ")
_RECORD_SIZE = TAG_DTYPE.itemsize
#: least records per chunk of a read or a write (128 KiB); a longer range moves an eighth
_CHUNK = 1 << 13


class TagFormatError(ValueError):
    """Malformed timetag file; ``offset`` locates the offending bytes in ``path``."""

    def __init__(self, path, message: str, offset: int):
        super().__init__(f"{path}: {message} (offset {offset})")
        self.offset = offset


def write_timetags(path, tags: Stream, *, append: bool = False) -> None:
    """Write the stream ``tags`` as records of its channel id; ``append`` adds them to its file."""
    if not isinstance(tags, Stream):
        raise ValueError(f"tags must be a Stream, got {type(tags).__name__}")
    # each record's columns from the stream's: the time, code >> 1, code & 1 and zeros
    step = max(_CHUNK, len(tags) // 8)
    records = np.zeros(min(len(tags), step), dtype=TAG_DTYPE)
    with open(path, "ab" if append else "wb") as fh:
        if not append:
            fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION, tags.channel_id, 0))
        for s in range(0, len(tags), step):
            rec, codes = records[: len(tags) - s], tags.codes[s : s + step]
            rec["time_ps"] = tags.times[s : s + step]
            np.right_shift(codes, 1, out=rec["channel"])
            np.bitwise_and(codes, 1, out=rec["flags"])
            fh.write(rec)


def _check_header(fh) -> tuple[int, int]:
    """``(channel_id, record count)`` of an open timetag file."""
    header = fh.read(_HEADER.size)
    if len(header) < _HEADER.size:
        raise TagFormatError(fh.name, "file shorter than the 16-byte header", offset=0)
    magic, version, channel_id, reserved = _HEADER.unpack(header)
    if magic != MAGIC:
        raise TagFormatError(fh.name, f"bad magic {magic!r}, expected {MAGIC!r}", offset=0)
    if version != FORMAT_VERSION:
        raise TagFormatError(fh.name, f"unsupported format version {version}", offset=4)
    if channel_id not in (CHANNEL_ALICE, CHANNEL_BOB):
        raise TagFormatError(fh.name, f"channel id {channel_id} is neither 0 nor 1", offset=6)
    if reserved:
        raise TagFormatError(fh.name, f"non-zero reserved header field {reserved:#x}", offset=8)
    body = os.fstat(fh.fileno()).st_size - _HEADER.size
    if body % _RECORD_SIZE != 0:
        raise TagFormatError(
            fh.name,
            f"record region of {body} bytes is not a multiple of {_RECORD_SIZE}",
            offset=_HEADER.size + body - body % _RECORD_SIZE,
        )
    return channel_id, body // _RECORD_SIZE


def _time_at(fh, index: int) -> int:
    fh.seek(_HEADER.size + index * _RECORD_SIZE)
    if (time := int.from_bytes(fh.read(8), "little")) < TIME_LIMIT_PS:
        return time
    raise TagFormatError(fh.name, f"time {time} ps not below 2**60", fh.tell() - 8)


def read_timetags(path, start_ps: int = 0, end_ps: int | None = None) -> tuple[Stream, int]:
    """``(stream, channel_id)`` of the time-ordered records with ``start_ps <= time_ps < end_ps``.

    Raises:
        TagFormatError: on a bad magic, version, channel id or reserved header
            field, a truncated record region, times out of order or >= 2**60 ps,
            or a record whose channel, flags or reserved bytes the format forbids.
    """
    with open(path, "rb") as fh:
        channel_id, n = _check_header(fh)
        at = functools.partial(_time_at, fh)
        # both bounds search the whole file, so adjacent ranges meet at one
        # record even in a file out of time order, whose reads then show it;
        # a range that ends past the last record must reach the end of the file
        lo = bisect.bisect_left(range(n), start_ps, key=at) if start_ps > 0 else 0
        hi = n if end_ps is None else bisect.bisect_left(range(n), max(start_ps, end_ps), key=at)
        if hi < n and at(n - 1) < max(start_ps, end_ps):
            offset = _HEADER.size + hi * _RECORD_SIZE
            raise TagFormatError(fh.name, "times decrease after this record", offset)
        fh.seek(_HEADER.size + lo * _RECORD_SIZE)
        times, codes = np.empty(hi - lo, dtype=np.int64), np.empty(hi - lo, dtype=np.uint8)
        step = max(_CHUNK, (hi - lo) // 8)
        buf = np.empty(min(hi - lo, step), dtype=TAG_DTYPE)
        for s in range(0, hi - lo, step):
            rec = buf[: hi - lo - s]
            if fh.readinto(rec) != rec.nbytes:
                raise TagFormatError(fh.name, "file ended while its records were read", fh.tell())
            # a record's second word is its channel, flags and reserved bytes: one of the
            # file's two channels, flag bit 0 at most and zeros, which one OR and one AND show
            words, want = rec.view(np.int64)[1::2], 2 * channel_id
            seen = np.bitwise_or.reduce(words) & ~0x101, np.bitwise_and.reduce(words) & want
            if seen != (want, want):
                i = int(np.flatnonzero((words & ~0x101) != want)[0])
                ch, fl = int(rec["channel"][i]), int(rec["flags"][i])
                what = "reserved bytes" if fl < 2 else f"flags {fl:#04x}"
                what = what if ch >> 1 == channel_id else f"channel {ch}"
                what = f"record {what} not valid for channel id {channel_id}"
                raise TagFormatError(path, what, _HEADER.size + (lo + s + i) * _RECORD_SIZE)
            times[s : s + rec.size] = rec["time_ps"]
            np.left_shift(rec["channel"], 1, out=codes[s : s + rec.size])
            codes[s : s + rec.size] |= rec["flags"]
        try:  # the stream checks the order and the bound; a time from 2**63 on reads < 0
            return Stream(times, codes, channel_id), channel_id
        except ValueError:
            late = np.flatnonzero(times.view(np.uint64) >= TIME_LIMIT_PS)  # unsigned, as on file
            if late.size:
                at(lo + int(late[0]))  # raises, naming the first record past the bound
    # else named by the record before the first one out of order
    offset = _HEADER.size + (lo + int(np.flatnonzero(times[1:] < times[:-1])[0])) * _RECORD_SIZE
    raise TagFormatError(path, "times decrease after this record", offset)


def last_tag_time(path) -> tuple[int | None, int]:
    """``(last record's time_ps or None, channel_id)``; checks as ``read_timetags``."""
    with open(path, "rb") as fh:
        channel_id, n = _check_header(fh)
        return (_time_at(fh, n - 1) if n else None), channel_id
