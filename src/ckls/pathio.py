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
file, and the values come from _float_texts.  That forms repr's text with
one orjson call a block: orjson's shortest round-trip writer (Ryu) gives
the same digits as repr wherever repr writes plain decimals, magnitudes
in [1e-4, 1e16), at about an eighth of the cost of a repr call a value.
Outside that range repr uses an exponent form orjson does not ("1e-05",
"1e+16"), and orjson writes NaN and inf as null, so those values, and
zero, are formed by repr itself.
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
    "csv_rows",
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


def _float_texts(values: np.ndarray) -> list[str]:
    """repr's text of each value of a 1-D float64 array, in order."""
    # imported here, as the CSV writers' only need, to keep it off the
    # import path of ckls and of every run that writes no CSV
    import orjson

    # orjson reads a numpy array only in C order
    flat = np.ascontiguousarray(values)
    if not flat.size:
        return []
    texts = orjson.dumps(flat, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
    mag = np.abs(flat)
    for i in np.flatnonzero(~((mag >= 1e-4) & (mag < 1e16))).tolist():
        texts[i] = repr(flat[i].item())
    return texts


def csv_rows(*columns) -> str:
    """Lines of comma-separated values, one a row of the equal-length
    float columns, each value written as the path writer writes it."""
    matrix = np.column_stack([np.asarray(col, dtype=float) for col in columns])
    pieces = [","] * (2 * matrix.size)
    pieces[0::2] = _float_texts(matrix.ravel())
    pieces[2 * len(columns) - 1 :: 2 * len(columns)] = ["\n"] * len(matrix)
    return "".join(pieces)


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
        time_pieces = [f",{t}," for t in _float_texts(times)]
        per_write = max(1, _CSV_ROWS_PER_WRITE // max(1, n_points))
        for lo in range(0, matrix.shape[0], per_write):
            block = matrix[lo : lo + per_write]
            pieces = ["\n"] * (4 * block.size)
            pieces[0::4] = chain.from_iterable(
                repeat(str(i), n_points) for i in range(lo, lo + len(block))
            )
            pieces[1::4] = time_pieces * len(block)
            pieces[2::4] = _float_texts(block.ravel())
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
