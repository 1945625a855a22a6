"""Path and sample export: CSV and the compact binary column format.

Binary layout (little-endian):
    bytes 0-3   magic "CKLS"
    byte  4     format version (1)
    bytes 5-8   uint32 n_paths
    bytes 9-12  uint32 n_points
    then        n_points float64 times
    then        n_paths * n_points float64 values, row-major

CSV files carry one comment line per metadata entry ("# key: json") and
then the columns path_id,t,value.  Floats are written with repr-level
precision so identical runs produce byte-identical files.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path as FsPath

import numpy as np

from .errors import InputError

__all__ = [
    "BINARY_MAGIC",
    "BINARY_VERSION",
    "write_paths_csv",
    "write_paths_binary",
    "read_paths_binary",
]

BINARY_MAGIC = b"CKLS"
BINARY_VERSION = 1

# CSV lines formatted per write, in whole paths
_CSV_ROWS_PER_WRITE = 1024


def _as_matrix(values: np.ndarray) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise InputError(f"values must be 1- or 2-dimensional, got shape {arr.shape}")
    return arr


def write_paths_csv(
    dest: str | FsPath,
    times: np.ndarray,
    values: np.ndarray,
    metadata: dict | None = None,
) -> None:
    times = np.asarray(times, dtype=float)
    matrix = _as_matrix(values)
    if matrix.shape[1] != times.size:
        raise InputError(
            f"values have {matrix.shape[1]} columns but {times.size} times given"
        )
    with open(dest, "w", newline="") as fh:
        for key, val in (metadata or {}).items():
            fh.write(f"# {key}: {json.dumps(val, sort_keys=True)}\n")
        fh.write("path_id,t,value\n")
        # one template for a path's lines, time strings rendered once: {0}
        # is the path id and {k!r} the repr of value k
        template = "".join(f"{{0}},{t!r},{{{k}!r}}\n" for k, t in enumerate(times.tolist(), 1))
        per_write = max(1, _CSV_ROWS_PER_WRITE // max(1, times.size))
        for lo in range(0, matrix.shape[0], per_write):
            block = matrix[lo : lo + per_write].tolist()
            fh.write("".join(template.format(i, *row) for i, row in enumerate(block, lo)))


def write_paths_binary(dest: str | FsPath, times: np.ndarray, values: np.ndarray) -> None:
    times = np.asarray(times, dtype="<f8")
    matrix = _as_matrix(values).astype("<f8")
    if matrix.shape[1] != times.size:
        raise InputError(
            f"values have {matrix.shape[1]} columns but {times.size} times given"
        )
    with open(dest, "wb") as fh:
        fh.write(BINARY_MAGIC)
        fh.write(struct.pack("<B", BINARY_VERSION))
        fh.write(struct.pack("<II", matrix.shape[0], matrix.shape[1]))
        fh.write(times.tobytes())
        fh.write(matrix.tobytes())


def read_paths_binary(src: str | FsPath) -> tuple[np.ndarray, np.ndarray]:
    """Returns (times, values) from a binary path file."""
    with open(src, "rb") as fh:
        magic = fh.read(4)
        if magic != BINARY_MAGIC:
            raise InputError(f"bad magic {magic!r}, expected {BINARY_MAGIC!r}")
        (version,) = struct.unpack("<B", fh.read(1))
        if version != BINARY_VERSION:
            raise InputError(f"unsupported format version {version}")
        n_paths, n_points = struct.unpack("<II", fh.read(8))
        times = np.frombuffer(fh.read(8 * n_points), dtype="<f8").copy()
        values = np.frombuffer(fh.read(8 * n_paths * n_points), dtype="<f8").copy()
    return times, values.reshape(n_paths, n_points)
