"""The one artifact container, used by every model and dataset file.

An artifact is a 4-byte magic naming its kind (``GAN1``, ``SEM1``, ``SHD1``,
``VOX1``, and ``REC1`` for the reconstructions the CLI's ``reconstruct``
stores), a u32 header length, that many bytes of JSON header, then tensors
up to the end of the file.  Each tensor is ``TSR1``, u32 rank, u32 dims, then
float32 data, all little-endian and row-major.  Each tensor carries its own
shape, so loaders check the shapes against what the header implies.
Tables (loss logs, reports) are CSV files written by ``write_csv``.  Every
file that is read back is written through ``replacing``, so an interrupted
write leaves the previous file whole.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import struct

import numpy as np

from .errors import DataError, LayoutError, ShapesemError

TENSOR_MAGIC = b"TSR1"


def write_array(fh, arr: np.ndarray) -> None:
    arr = np.ascontiguousarray(arr, dtype="<f4")
    fh.write(TENSOR_MAGIC)
    fh.write(struct.pack("<I", arr.ndim))
    fh.write(struct.pack("<%dI" % arr.ndim, *arr.shape))
    fh.write(arr.tobytes())


def read_array(fh) -> np.ndarray:
    """Read one tensor, refusing a declared size beyond the bytes left."""
    start = fh.tell()
    left = fh.seek(0, io.SEEK_END) - start
    fh.seek(start)
    magic = fh.read(4)
    if magic != TENSOR_MAGIC:
        raise DataError("bad tensor magic %r at byte %d" % (magic, start))
    (rank,) = struct.unpack("<I", fh.read(4))
    if 8 + 4 * rank > left:
        raise DataError("tensor rank %d overruns the file" % rank)
    shape = struct.unpack("<%dI" % rank, fh.read(4 * rank))
    size = 4 * math.prod(shape)
    if 8 + 4 * rank + size > left:
        raise DataError("tensor of shape %s overruns the file" % (shape,))
    return np.frombuffer(fh.read(size), dtype="<f4").reshape(shape).astype(np.float32)


@contextlib.contextmanager
def replacing(path, mode="wb", **kw):
    """A file opened on a temporary name beside ``path``; when the block
    ends it takes ``path``'s place in one ``os.replace``, and when the block
    raises it is removed and ``path`` stays as it was."""
    tmp = "%s.%d.tmp" % (path, os.getpid())
    try:
        with open(tmp, mode, **kw) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def save_artifact(path, magic: bytes, header: dict, arrays) -> None:
    blob = json.dumps(header).encode()
    with replacing(path) as fh:
        fh.write(magic)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for arr in arrays:
            write_array(fh, arr)


@contextlib.contextmanager
def reading(path):
    """Run a reader's parsing and checks; an input fault inside raises again
    as ``<path>: <problem>``, naming the file once.  A LayoutError stays one
    and anything else becomes a DataError; an error from outside the package
    keeps its class name, and an OSError gives its reason without the path."""
    try:
        yield
    except (ShapesemError, OSError, struct.error, ValueError, TypeError,
            LookupError) as exc:
        detail = exc if isinstance(exc, ShapesemError) else "%s: %s" % (
            type(exc).__name__, getattr(exc, "strerror", None) or exc)
        cls = LayoutError if isinstance(exc, LayoutError) else DataError
        raise cls("%s: %s" % (path, detail)) from exc


@contextlib.contextmanager
def open_artifact(path, magic: bytes):
    """Read a whole artifact and yield its ``(header, arrays)``.  Damage in
    the file, a tensor holding NaN or an infinity, or any error the caller's
    block raises while interpreting it, surfaces naming the file."""
    with reading(path):
        with open(path, "rb") as fh:
            blob = fh.read()
        if blob[:4] != magic:
            raise DataError("bad magic %r, expected %r" % (blob[:4], magic))
        (size,) = struct.unpack_from("<I", blob, 4)
        if 8 + size > len(blob):
            raise DataError("header of %d bytes overruns the file" % size)
        header = json.loads(blob[8 : 8 + size].decode())
        if not isinstance(header, dict):
            raise DataError("header is not a JSON object")
        body = io.BytesIO(blob)
        body.seek(8 + size)
        arrays = []
        while body.tell() < len(blob):
            arrays.append(read_array(body))
            if not np.isfinite(arrays[-1]).all():
                raise DataError("tensor %d holds a non-finite value"
                                % (len(arrays) - 1))
        yield header, arrays


def check_shapes(arrays, shapes) -> None:
    """DataError unless there is one array per expected shape, each equal."""
    if len(arrays) != len(shapes):
        raise DataError("%d tensors, expected %d" % (len(arrays), len(shapes)))
    for i, (arr, shape) in enumerate(zip(arrays, shapes)):
        if arr.shape != shape:
            raise DataError("tensor %d has shape %s, expected %s" % (i, arr.shape, shape))


def write_csv(path, header, rows) -> None:
    """``header`` then ``rows`` as RFC-4180 CSV, every float as %.8g."""
    with replacing(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow(["%.8g" % v if isinstance(v, (float, np.floating)) else v
                        for v in row])
