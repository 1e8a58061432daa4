"""Binary timetag file format.

Little-endian layout:

* header, 16 bytes: magic ``MCQT``, format version ``u16`` (currently 1),
  channel id ``u16`` (0 = Alice stream, 1 = Bob stream), reserved ``u64``.
* records, 16 bytes each: ``time_ps u64``, ``channel u8`` (``2 * channel id``
  for the transmitted port, plus 1 for the reflected one), ``flags u8`` (bit 0
  marks a ground-truth dark count, which the simulator always sets; no
  other bit is used), six reserved zero bytes.

Fixed-width records let a reader fill one record array straight from the
file, or only a time range's records, found by a binary search that reads one
record time per step.  Appended parts equal one write of their concatenation.
"""
from __future__ import annotations

import bisect
import functools
import os
import struct

import numpy as np

from .photonsim import TAG_DTYPE

__all__ = [
    "MAGIC",
    "FORMAT_VERSION",
    "CHANNEL_ALICE",
    "CHANNEL_BOB",
    "TagFormatError",
    "write_timetags",
    "read_timetags",
    "last_tag_time",
]

MAGIC = b"MCQT"
FORMAT_VERSION = 1
CHANNEL_ALICE = 0
CHANNEL_BOB = 1

_HEADER = struct.Struct("<4sHHQ")
_RECORD_SIZE = TAG_DTYPE.itemsize


class TagFormatError(ValueError):
    """Malformed timetag file; ``offset`` locates the offending bytes in ``path``."""

    def __init__(self, path, message: str, offset: int):
        super().__init__(f"{path}: {message} (offset {offset})")
        self.offset = offset


def write_timetags(path, tags: np.ndarray, channel_id: int, *, append: bool = False) -> None:
    """Write one timetag stream (``TAG_DTYPE``); ``append`` adds to its file."""
    if tags.dtype != TAG_DTYPE:
        raise ValueError(f"tags must have dtype {TAG_DTYPE}, got {tags.dtype}")
    with open(path, "ab" if append else "wb") as fh:
        if not append:
            fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION, channel_id, 0))
        fh.write(np.ascontiguousarray(tags).view(np.uint8))


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
    return int.from_bytes(fh.read(8), "little")


def read_timetags(path, start_ps: int = 0, end_ps: int | None = None) -> tuple[np.ndarray, int]:
    """``(tags, channel_id)`` of the time-ordered records with ``start_ps <= time_ps < end_ps``.

    Raises:
        TagFormatError: on a bad magic, version or reserved header field, a
            truncated record region, times out of order at the range end, or
            a record whose channel, flags or reserved bytes the format forbids.
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
        # the records go straight into their array, the only copy in memory
        tags = np.empty(hi - lo, dtype=TAG_DTYPE)
        if fh.readinto(tags.view(np.uint8)) != tags.nbytes:
            raise TagFormatError(fh.name, "file ended while its records were read", fh.tell())
    # a record's second word is its channel, flags and reserved bytes: one of the file's
    # two channels, flag bit 0 at most and zeros, which one OR and one AND over all show
    words, want = tags.view(np.int64)[1::2], 2 * channel_id
    seen = np.bitwise_or.reduce(words) & ~0x101, np.bitwise_and.reduce(words) & want
    if words.size and seen != (want, want):
        i = int(np.flatnonzero((words & ~0x101) != want)[0])
        ch, fl = int(tags["channel"][i]), int(tags["flags"][i])
        what = "reserved bytes" if fl < 2 else f"flags {fl:#04x}"
        what = what if ch >> 1 == channel_id else f"channel {ch}"
        offset = _HEADER.size + (lo + i) * _RECORD_SIZE
        raise TagFormatError(path, f"record {what} not valid for channel id {channel_id}", offset)
    return tags, channel_id


def last_tag_time(path) -> tuple[int | None, int]:
    """``(last record's time_ps or None, channel_id)``; checks as ``read_timetags``."""
    with open(path, "rb") as fh:
        channel_id, n = _check_header(fh)
        return (_time_at(fh, n - 1) if n else None), channel_id
