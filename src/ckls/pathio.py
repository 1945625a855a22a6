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

A CSV write block is whole paths, _CSV_ROWS_PER_WRITE lines or fewer (or
one path where a path is longer), held as one list of four pieces a
line, [id, ",t,", value, "\n", ...] and written with one join.  The path
ids go in by column, one extended-slice assignment of the block's id
strings per grid time; the ",t," pieces, rendered once per file, by one
assignment of their list repeated per path; the values come from
_float_texts.  A block also costs about ten numpy and orjson calls and
one write, which the block length, chosen on the layer benchmark, spreads
over many lines.

_float_texts forms repr's text with one orjson call a block: orjson's
shortest round-trip writer (Ryu) gives the same digits as repr wherever
repr writes plain decimals, magnitudes in [1e-4, 1e16), at about an
eighth of the cost of a repr call a value.  Outside that range repr uses
an exponent form orjson does not ("1e-05", "1e+16"), and orjson writes
NaN and inf as null, so those values, and zero, are formed by repr
itself.

The binary header holds each count as a uint32, so write_paths_binary
refuses 2**32 or more paths or points before it opens the file.

Every file the package writes is opened by open_output, which makes a
file this user alone may rewrite anew in place of truncating it: on
ext4, truncating a file of a few megabytes frees its blocks and its
close starts writeback, several times the cost of a remove and a create.
"""

from __future__ import annotations

import json
import os
import stat
import struct
from pathlib import Path as FsPath

import numpy as np

from .errors import InputError

__all__ = [
    "BINARY_MAGIC",
    "BINARY_VERSION",
    "csv_rows",
    "open_output",
    "write_paths_csv",
    "write_paths_binary",
    "read_paths_binary",
]

BINARY_MAGIC = b"CKLS"
BINARY_VERSION = 1
# magic, version, n_paths, n_points
_BINARY_HEADER = struct.Struct("<4sBII")

# CSV lines joined per write, in whole paths
_CSV_ROWS_PER_WRITE = 16384


def open_output(dest: str | FsPath, mode: str, **kw):
    """open(dest, mode, **kw) for a mode that truncates ("w", "wb"), but
    an existing regular file with one link, owned by the effective uid and
    writable by its owner is removed and created anew with its permission
    bits; its inode, ACLs and extended attributes are not kept.  Anything
    else (a missing path, a symlink, a hard-linked, read-only or foreign
    file, a FIFO or a device, or a file whose directory forbids the
    removal) is opened as open itself opens it."""
    try:
        st = os.lstat(dest)
        fresh = (stat.S_ISREG(st.st_mode) and st.st_nlink == 1
                 and st.st_uid == os.geteuid() and st.st_mode & stat.S_IWUSR)
        if fresh:
            os.unlink(dest)
    except OSError:  # a missing path, or a directory that forbids the removal
        fresh = False
    fh = open(dest, mode, **kw)
    if fresh:
        os.fchmod(fh.fileno(), stat.S_IMODE(st.st_mode))
    return fh


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
    with open_output(dest, "w", newline="") as fh:
        for key, val in (metadata or {}).items():
            fh.write(f"# {key}: {json.dumps(val, sort_keys=True)}\n")
        fh.write("path_id,t,value\n")
        time_pieces = [f",{t}," for t in _float_texts(times)]
        per_write = max(1, _CSV_ROWS_PER_WRITE // max(1, n_points))
        step = 4 * n_points
        for lo in range(0, matrix.shape[0], per_write):
            block = matrix[lo : lo + per_write]
            ids = list(map(str, range(lo, lo + len(block))))
            pieces = ["\n"] * (4 * block.size)
            for j in range(0, step, 4):
                pieces[j::step] = ids
            pieces[1::4] = time_pieces * len(block)
            pieces[2::4] = _float_texts(block.ravel())
            fh.write("".join(pieces))


def write_paths_binary(dest: str | FsPath, times: np.ndarray, values: np.ndarray) -> None:
    times, matrix = _times_and_matrix(times, values)
    n_paths, n_points = matrix.shape
    if max(n_paths, n_points) >= 2**32:
        raise InputError(
            f"{n_paths} paths x {n_points} points do not fit the binary header, "
            f"which holds each count as a uint32 (below 2**32)"
        )
    with open_output(dest, "wb") as fh:
        fh.write(_BINARY_HEADER.pack(BINARY_MAGIC, BINARY_VERSION, n_paths, n_points))
        fh.write(np.ascontiguousarray(times, dtype="<f8"))
        fh.write(np.ascontiguousarray(matrix, dtype="<f8"))


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
