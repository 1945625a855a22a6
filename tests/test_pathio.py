"""CSV and binary path export."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from ckls import InputError
from ckls.pathio import (
    _CSV_ROWS_PER_WRITE as B,
    BINARY_MAGIC,
    read_paths_binary,
    write_paths_binary,
    write_paths_csv,
)


@pytest.fixture
def sample():
    times = np.linspace(0.0, 1.0, 5)
    values = np.array([[1.0, 1.1, 1.05, 0.98, 1.2], [1.0, 0.9, 0.95, 1.01, 0.99]])
    return times, values


class TestCsv:
    def test_layout_and_metadata(self, sample, tmp_path):
        dest = tmp_path / "paths.csv"
        write_paths_csv(dest, *sample, metadata={"seed": 7})
        lines = dest.read_text().splitlines()
        assert lines[0] == "# seed: 7"
        assert lines[1] == "path_id,t,value"
        assert lines[2] == "0,0.0,1.0"
        assert len(lines) == 2 + 2 * 5

    def test_values_roundtrip_through_text(self, sample, tmp_path):
        dest = tmp_path / "paths.csv"
        write_paths_csv(dest, *sample)
        rows = [
            line.split(",")
            for line in dest.read_text().splitlines()
            if not line.startswith(("#", "path_id"))
        ]
        got = np.array([float(v) for _, _, v in rows]).reshape(2, 5)
        np.testing.assert_array_equal(got, sample[1])

    def test_byte_identical_rewrites(self, sample, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_paths_csv(a, *sample, metadata={"k": 1})
        write_paths_csv(b, *sample, metadata={"k": 1})
        assert a.read_bytes() == b.read_bytes()

    @staticmethod
    def per_value_csv(times, values, metadata) -> bytes:
        """The writer's format, one f-string per value."""
        matrix = np.asarray(values, dtype=float)
        matrix = matrix[None, :] if matrix.ndim == 1 else matrix
        text = "".join(
            f"# {key}: {json.dumps(val, sort_keys=True)}\n" for key, val in metadata.items()
        )
        text += "path_id,t,value\n"
        for i in range(matrix.shape[0]):
            for t, v in zip(np.asarray(times, dtype=float).tolist(), matrix[i].tolist()):
                text += f"{i},{t!r},{v!r}\n"
        return text.encode()

    # repr's fixed and exponent forms meet at magnitudes 1e-4 and 1e16
    EDGES = [1e-4, 1e16]
    SPECIALS = [np.inf, -np.inf, np.nan, -0.0, 0.0, 5e-324, -5e-324, 1e300, -1e-300, 0.1, 1 / 3] + [
        sign * v
        for edge in EDGES
        for v in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf))
        for sign in (1.0, -1.0)
    ]

    @classmethod
    def random_values(cls, n_paths, n_points) -> np.ndarray:
        """Magnitudes from 1e-300 to 1e300, led by the special values."""
        rng = np.random.default_rng(n_paths * 7919 + n_points)
        values = rng.standard_normal((n_paths, n_points)) * 10.0 ** rng.integers(-300, 300, (n_paths, n_points))
        flat = values.reshape(-1)
        flat[: len(cls.SPECIALS)] = cls.SPECIALS[: flat.size]
        return values

    @pytest.mark.parametrize(
        "n_paths,n_points",
        [(0, 5), (2, 0), (1, 1), (3, 5), (1023, 1), (1025, 1), (2050, 2), (40, 33), (31, 33), (32, 33), (3, 2000)]
        # across the edges of a write block of B lines
        + [(B - 1, 1), (B, 1), (B + 1, 1), (B // 33 + 1, 33), (3 * (B // 513) + 5, 513)],
    )
    def test_bytes_equal_per_value_format(self, n_paths, n_points, tmp_path):
        """Writes cut into blocks of paths: path ids carry on across the
        block edges, and special floats keep their repr."""
        times = np.linspace(0.0, 0.5, n_points)
        values = self.random_values(n_paths, n_points)
        metadata = {"seed": 7, "mode": "euler-p", "list": [1.5, None]}
        dest = tmp_path / "paths.csv"
        write_paths_csv(dest, times, values, metadata=metadata)
        assert dest.read_bytes() == self.per_value_csv(times, values, metadata)

    @pytest.mark.parametrize("layout", ["F", "strided"])
    def test_bytes_equal_per_value_format_any_layout(self, layout, tmp_path):
        """Values that are not one C-ordered block of memory."""
        times = np.linspace(0.0, 0.5, 33)
        values = self.random_values(40, 33)
        view = np.asfortranarray(values) if layout == "F" else np.repeat(values, 2, axis=1)[:, ::2]
        assert not view.flags.c_contiguous
        dest = tmp_path / "paths.csv"
        write_paths_csv(dest, times, view)
        assert dest.read_bytes() == self.per_value_csv(times, values, {})

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        values=arrays(np.float64, array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=40)),
    )
    def test_bytes_equal_per_value_format_property(self, data, values):
        """Any float64 matrix, NaN, inf, subnormals and both signs included."""
        times = data.draw(arrays(np.float64, values.shape[1]))
        with tempfile.TemporaryDirectory() as tmp:
            dest = Path(tmp) / "paths.csv"
            write_paths_csv(dest, times, values)
            assert dest.read_bytes() == self.per_value_csv(times, values, {})

    @pytest.mark.parametrize("metadata", [None, {}])
    def test_bytes_equal_per_value_format_1d(self, metadata, tmp_path):
        times = np.array([0.0, 0.25, 1e-300, 5e-324])
        values = np.array([np.nan, -0.0, np.inf, 1e300])
        dest = tmp_path / "path.csv"
        write_paths_csv(dest, times, values, metadata=metadata)
        expected = self.per_value_csv(times, values, {})
        assert dest.read_bytes() == expected
        assert expected.decode().splitlines()[1:] == ["0,0.0,nan", "0,0.25,-0.0", "0,1e-300,inf", "0,5e-324,1e+300"]


@pytest.mark.parametrize("writer", [write_paths_csv, write_paths_binary], ids=["csv", "binary"])
@pytest.mark.parametrize(
    "bad_times,match",
    [
        (np.linspace(0.0, 1.0, 3), "5 columns but 3 times"),
        # one row of the right length: not a 1-D time grid
        (np.linspace(0.0, 1.0, 5)[None, :], r"times must be 1-dimensional, got shape \(1, 5\)"),
    ],
    ids=["short", "2d"],
)
def test_shape_mismatch(writer, bad_times, match, sample, tmp_path):
    dest = tmp_path / "x"
    with pytest.raises(InputError, match=match):
        writer(dest, bad_times, sample[1])
    assert not dest.exists()


@pytest.mark.parametrize("writer", [write_paths_csv, write_paths_binary], ids=["csv", "binary"])
def test_three_dimensional_values_rejected(writer, sample, tmp_path):
    dest = tmp_path / "x"
    match = r"values must be 1- or 2-dimensional, got shape \(2, 5, 1\)"
    with pytest.raises(InputError, match=match):
        writer(dest, sample[0], sample[1][:, :, None])
    assert not dest.exists()


class TestBinary:
    def test_count_past_uint32_refused_before_open(self, tmp_path):
        """The header holds each count as a uint32: a larger count is
        refused before the file is created."""
        dest = tmp_path / "paths.bin"
        with pytest.raises(InputError, match=r"4294967296 paths x 0 points .* uint32"):
            write_paths_binary(dest, np.empty(0), np.empty((2**32, 0)))
        assert not dest.exists()

    def test_roundtrip_exact(self, sample, tmp_path):
        dest = tmp_path / "paths.bin"
        write_paths_binary(dest, *sample)
        times, values = read_paths_binary(dest)
        np.testing.assert_array_equal(times, sample[0])
        np.testing.assert_array_equal(values, sample[1])

    @pytest.mark.parametrize("layout", ["F", "strided", "big-endian"])
    def test_bytes_equal_any_layout(self, layout, sample, tmp_path):
        """Arrays not already little-endian float64 in C order are written
        as if they were."""
        times, values = sample
        if layout == "F":
            view = np.asfortranarray(values)
        elif layout == "strided":
            view = np.repeat(values, 2, axis=1)[:, ::2]
        else:
            times, view = times.astype(">f8"), values.astype(">f8")
        write_paths_binary(tmp_path / "c.bin", *sample)
        write_paths_binary(tmp_path / "view.bin", times, view)
        assert (tmp_path / "view.bin").read_bytes() == (tmp_path / "c.bin").read_bytes()

    def test_header_layout(self, sample, tmp_path):
        dest = tmp_path / "paths.bin"
        write_paths_binary(dest, *sample)
        raw = dest.read_bytes()
        assert raw[:4] == BINARY_MAGIC
        assert raw[4] == 1  # version
        assert int.from_bytes(raw[5:9], "little") == 2
        assert int.from_bytes(raw[9:13], "little") == 5
        assert len(raw) == 13 + 8 * 5 + 8 * 10

    def test_single_column_samples(self, tmp_path):
        dest = tmp_path / "draws.bin"
        write_paths_binary(dest, np.array([0.5]), np.arange(4.0)[:, None])
        times, values = read_paths_binary(dest)
        assert times.tolist() == [0.5]
        assert values.shape == (4, 1)

    def test_unsupported_version_rejected(self, sample, tmp_path):
        dest = tmp_path / "paths.bin"
        write_paths_binary(dest, *sample)
        raw = bytearray(dest.read_bytes())
        raw[4] = 2
        dest.write_bytes(bytes(raw))
        with pytest.raises(InputError, match="unsupported format version 2"):
            read_paths_binary(dest)

    def test_bad_magic_rejected(self, tmp_path):
        dest = tmp_path / "junk.bin"
        dest.write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(InputError):
            read_paths_binary(dest)

    @pytest.mark.parametrize(
        "cut,match",
        [
            (lambda raw: raw[:8], "expected at least 13 bytes for the header, file has 8"),
            (lambda raw: raw[:-3], "expected 133 bytes for 2 paths x 5 points, file has 130"),
            (lambda raw: raw + bytes(8), "expected 133 bytes for 2 paths x 5 points, file has 141"),
        ],
        ids=["cut-in-header", "cut-in-values", "trailing-bytes"],
    )
    def test_wrong_length_rejected(self, cut, match, sample, tmp_path):
        dest = tmp_path / "paths.bin"
        write_paths_binary(dest, *sample)
        dest.write_bytes(cut(dest.read_bytes()))
        with pytest.raises(InputError, match=match):
            read_paths_binary(dest)
