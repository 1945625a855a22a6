"""Path and sample export: CSV and the compact binary column format.

Binary layout (little-endian):
    bytes 0-3   magic "CKLS"
    byte  4     format version (1)
    bytes 5-8   uint32 n_paths
    bytes 9-12  uint32 n_points
    then        n_points float64 times
    then        n_paths * n_points float64 values, row-major

CSV files carry one comment line per metadata entry ("# key: json") and
then the columns path_id,t,value.  Each float is written as its repr, the
shortest text that reads back as the same double, so identical runs
produce byte-identical files.

A CSV write block is one list of four pieces a line, [id, ",t,", value,
"\n", ...], filled by three extended-slice assignments and written with
one join: the ids repeat per path, the ",t," pieces are rendered once per
file, and the values come from map(repr, ...).  The repr calls are most
of the time and cannot be avoided; a str.format template per path was
slower, because it parsed its fields again for every path.
"""

from __future__ import annotations

import json
import struct
from itertools import chain, repeat
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
# magic, version, n_paths, n_points
_BINARY_HEADER = struct.Struct("<4sBII")

# CSV lines formatted per write, in whole paths
_CSV_ROWS_PER_WRITE = 1024


def _times_and_matrix(times: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """times as a 1-D float array and values as a float matrix with one
    column per time; a 1-D values array is one path."""
    times = np.asarray(times, dtype=float)
    matrix = np.asarray(values, dtype=float)
    if matrix.ndim == 1:
        matrix = matrix[None, :]
    if matrix.ndim != 2:
        raise InputError(f"values must be 1- or 2-dimensional, got shape {matrix.shape}")
    if times.ndim != 1:
        raise InputError(f"times must be 1-dimensional, got shape {times.shape}")
    if matrix.shape[1] != times.size:
        raise InputError(
            f"values have {matrix.shape[1]} columns but {times.size} times given"
        )
    return times, matrix


def write_paths_csv(
    dest: str | FsPath,
    times: np.ndarray,
    values: np.ndarray,
    metadata: dict | None = None,
) -> None:
    times, matrix = _times_and_matrix(times, values)
    n_points = times.size
    with open(dest, "w", newline="") as fh:
        for key, val in (metadata or {}).items():
            fh.write(f"# {key}: {json.dumps(val, sort_keys=True)}\n")
        fh.write("path_id,t,value\n")
        time_pieces = [f",{t!r}," for t in times.tolist()]
        per_write = max(1, _CSV_ROWS_PER_WRITE // max(1, n_points))
        for lo in range(0, matrix.shape[0], per_write):
            block = matrix[lo : lo + per_write]
            pieces = ["\n"] * (4 * block.size)
            pieces[0::4] = chain.from_iterable(
                repeat(str(i), n_points) for i in range(lo, lo + len(block))
            )
            pieces[1::4] = time_pieces * len(block)
            pieces[2::4] = map(repr, block.ravel().tolist())
            fh.write("".join(pieces))


def write_paths_binary(dest: str | FsPath, times: np.ndarray, values: np.ndarray) -> None:
    times, matrix = _times_and_matrix(times, values)
    with open(dest, "wb") as fh:
        fh.write(_BINARY_HEADER.pack(BINARY_MAGIC, BINARY_VERSION, *matrix.shape))
        fh.write(times.astype("<f8").tobytes())
        fh.write(matrix.astype("<f8").tobytes())


def read_paths_binary(src: str | FsPath) -> tuple[np.ndarray, np.ndarray]:
    """Returns (times, values) from a binary path file.  Raises InputError
    unless the file is exactly as long as its header says."""
    raw = FsPath(src).read_bytes()
    if len(raw) < _BINARY_HEADER.size:
        raise InputError(
            f"expected at least {_BINARY_HEADER.size} bytes for the header, file has {len(raw)}"
        )
    magic, version, n_paths, n_points = _BINARY_HEADER.unpack_from(raw)
    if magic != BINARY_MAGIC:
        raise InputError(f"bad magic {magic!r}, expected {BINARY_MAGIC!r}")
    if version != BINARY_VERSION:
        raise InputError(f"unsupported format version {version}")
    expected = _BINARY_HEADER.size + 8 * n_points * (1 + n_paths)
    if len(raw) != expected:
        raise InputError(
            f"expected {expected} bytes for {n_paths} paths x {n_points} points, "
            f"file has {len(raw)}"
        )
    data = np.frombuffer(raw, dtype="<f8", offset=_BINARY_HEADER.size).copy()
    return data[:n_points], data[n_points:].reshape(n_paths, n_points)
