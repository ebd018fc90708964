"""Flat binary checkpoint container.

Layout (all integers little-endian, documented in docs/checkpoint_format.md):

    bytes 0..7   magic b"AFCKPT01"
    bytes 8..11  uint32 entry count
    per entry:
        uint16   name length N
        N bytes  UTF-8 entry name
        uint8    rank (number of dims; 0 for scalars)
        rank x uint32  dims
        8 * prod(dims) bytes  float64 little-endian values, row-major

Entries are written sorted by name so identical state always produces
identical bytes.
"""

from __future__ import annotations

import math
import struct

import numpy as np

MAGIC = b"AFCKPT01"


class CheckpointError(ValueError):
    pass


def save_checkpoint(path, entries: dict[str, np.ndarray]):
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", len(entries)))
        for name in sorted(entries):
            arr = np.ascontiguousarray(entries[name], dtype=np.float64)
            raw = name.encode("utf-8")
            if len(raw) > 0xFFFF:
                raise CheckpointError(f"entry name too long: {name!r}")
            if arr.ndim > 0xFF:
                raise CheckpointError(f"entry rank too large: {name!r}")
            f.write(struct.pack("<H", len(raw)))
            f.write(raw)
            f.write(struct.pack("<B", arr.ndim))
            for d in arr.shape:
                f.write(struct.pack("<I", d))
            f.write(arr.astype("<f8").tobytes())


def _check_room(path, blob: bytes, end: int, what: str):
    if end > len(blob):
        raise CheckpointError(f"{path}: truncated at byte {len(blob)} while reading {what}")


def _unpack(path, blob: bytes, fmt: str, off: int, what: str) -> tuple[tuple, int]:
    """struct.unpack_from that reports a cut-off file as a CheckpointError."""
    end = off + struct.calcsize(fmt)
    _check_room(path, blob, end, what)
    return struct.unpack_from(fmt, blob, off), end


def load_checkpoint(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:8] != MAGIC:
        raise CheckpointError(f"{path}: bad magic, not a checkpoint file")
    (count,), off = _unpack(path, blob, "<I", 8, "the entry count")
    out: dict[str, np.ndarray] = {}
    for k in range(count):
        entry = f"entry {k}"
        (nlen,), off = _unpack(path, blob, "<H", off, f"{entry} name length")
        (raw,), off = _unpack(path, blob, f"<{nlen}s", off, f"{entry} name")
        try:
            name = raw.decode("utf-8")
        except UnicodeDecodeError as e:
            raise CheckpointError(f"{path}: {entry} name is not UTF-8") from e
        entry = f"entry {k} ({name!r})"
        if name in out:
            raise CheckpointError(f"{path}: {entry} repeats the name of an earlier entry")
        (rank,), off = _unpack(path, blob, "<B", off, f"{entry} rank")
        dims, off = _unpack(path, blob, f"<{rank}I", off, f"{entry} dims")
        n = math.prod(dims)
        _check_room(path, blob, off + 8 * n, f"{entry} values")
        arr = np.frombuffer(blob, dtype="<f8", count=n, offset=off).copy()
        off += 8 * n
        try:
            out[name] = arr.reshape(dims)
        except ValueError as e:  # rank above numpy's limit, or dims whose product overflows
            raise CheckpointError(f"{path}: {entry} has rank {rank} and dims {dims}, "
                                  f"which numpy cannot hold: {e}") from None
    if off != len(blob):
        raise CheckpointError(f"{path}: {len(blob) - off} trailing bytes")
    return out
