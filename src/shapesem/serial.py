"""Binary tensor serialization.

Format per tensor: magic ``TSR1``, u32 rank, u32 dims (little-endian),
then float32 data little-endian row-major.  Model artifacts start with their
own magic, optionally followed by a u32-length JSON header, then tensors.
"""

from __future__ import annotations

import contextlib
import json
import struct

import numpy as np

from .errors import DataError, ShapesemError

TENSOR_MAGIC = b"TSR1"


def write_array(fh, arr: np.ndarray) -> None:
    arr = np.ascontiguousarray(arr, dtype="<f4")
    fh.write(TENSOR_MAGIC)
    fh.write(struct.pack("<I", arr.ndim))
    fh.write(struct.pack("<%dI" % arr.ndim, *arr.shape))
    fh.write(arr.tobytes())


def read_array(fh) -> np.ndarray:
    magic = fh.read(4)
    if magic != TENSOR_MAGIC:
        raise DataError("bad tensor magic %r" % magic)
    (rank,) = struct.unpack("<I", fh.read(4))
    shape = struct.unpack("<%dI" % rank, fh.read(4 * rank))
    n = int(np.prod(shape)) if rank else 1
    buf = fh.read(4 * n)
    if len(buf) != 4 * n:
        raise DataError("truncated tensor payload")
    return np.frombuffer(buf, dtype="<f4").reshape(shape).astype(np.float32)


def save_array(path, arr: np.ndarray) -> None:
    with open(path, "wb") as fh:
        write_array(fh, arr)


def load_array(path) -> np.ndarray:
    with open(path, "rb") as fh:
        return read_array(fh)


def write_header(fh, magic: bytes, doc: dict) -> None:
    blob = json.dumps(doc).encode()
    fh.write(magic)
    fh.write(struct.pack("<I", len(blob)))
    fh.write(blob)


def read_header(fh) -> dict:
    """The u32-length JSON header that follows an artifact's magic."""
    (ln,) = struct.unpack("<I", fh.read(4))
    return json.loads(fh.read(ln).decode())


@contextlib.contextmanager
def open_artifact(path, magic: bytes):
    """Open a model artifact for reading, checking its magic and, once the
    body has been read, that nothing follows it.  Malformed content of any
    kind surfaces as a DataError that names the file."""
    try:
        with open(path, "rb") as fh:
            if fh.read(len(magic)) != magic:
                raise DataError("bad magic, expected %r" % magic)
            yield fh
            if fh.read(1):
                raise DataError("trailing bytes after the last tensor")
    except (ShapesemError, struct.error, ValueError, TypeError, KeyError) as exc:
        raise DataError("%s: %s" % (path, exc)) from exc
