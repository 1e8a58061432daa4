"""Binary timetag file format.

Little-endian layout:

* header, 16 bytes: magic ``MCQT``, format version ``u16`` (currently 1),
  channel id ``u16`` (0 = Alice stream, 1 = Bob stream), reserved ``u64``.
* records, 16 bytes each: ``time_ps u64``, ``channel u8``, ``flags u8``
  (bit 0 marks a ground-truth dark count when emission of ground truth was
  enabled), six reserved zero bytes.

Fixed-width records let a reader fill one record array straight from the
file.
"""
from __future__ import annotations

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
]

MAGIC = b"MCQT"
FORMAT_VERSION = 1
CHANNEL_ALICE = 0
CHANNEL_BOB = 1

_HEADER = struct.Struct("<4sHHQ")
_RECORD_SIZE = TAG_DTYPE.itemsize


class TagFormatError(ValueError):
    """Malformed timetag file; ``offset`` locates the offending bytes."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


def write_timetags(path, tags: np.ndarray, channel_id: int) -> None:
    """Write one timetag stream; ``tags`` must use ``TAG_DTYPE``."""
    if tags.dtype != TAG_DTYPE:
        raise ValueError(f"tags must have dtype {TAG_DTYPE}, got {tags.dtype}")
    header = _HEADER.pack(MAGIC, FORMAT_VERSION, channel_id, 0)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(tags).tobytes())


def read_timetags(path) -> tuple[np.ndarray, int]:
    """Read a timetag stream back as ``(tags, channel_id)``.

    Raises:
        TagFormatError: on a bad magic number, unsupported version, or a
            truncated record region.
    """
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise TagFormatError("file shorter than the 16-byte header", offset=0)
        magic, version, channel_id, _reserved = _HEADER.unpack(header)
        if magic != MAGIC:
            raise TagFormatError(f"bad magic {magic!r}, expected {MAGIC!r}", offset=0)
        if version != FORMAT_VERSION:
            raise TagFormatError(f"unsupported format version {version}", offset=4)
        body = os.fstat(fh.fileno()).st_size - _HEADER.size
        if body % _RECORD_SIZE != 0:
            raise TagFormatError(
                f"record region of {body} bytes is not a multiple of {_RECORD_SIZE}",
                offset=_HEADER.size + body - body % _RECORD_SIZE,
            )
        # the records go straight into their array, the only copy in memory
        tags = np.empty(body // _RECORD_SIZE, dtype=TAG_DTYPE)
        n_read = fh.readinto(tags.view(np.uint8))
    if n_read != body:
        raise TagFormatError("file ended while its records were read", offset=_HEADER.size + n_read)
    return tags, channel_id
