"""CSV and binary path export."""

import json

import numpy as np
import pytest

from ckls import InputError
from ckls.pathio import (
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

    @pytest.mark.parametrize(
        "n_paths,n_points",
        [(1, 1), (3, 5), (1023, 1), (1025, 1), (2050, 2), (40, 33), (31, 33), (32, 33), (3, 2000)],
    )
    def test_bytes_equal_per_value_format(self, n_paths, n_points, tmp_path):
        """Writes cut into blocks of paths: path ids carry on across the
        block edges, and special floats keep their repr."""
        rng = np.random.default_rng(n_paths * 7919 + n_points)
        times = np.linspace(0.0, 0.5, n_points)
        values = rng.standard_normal((n_paths, n_points)) * 10.0 ** rng.integers(-300, 300, (n_paths, n_points))
        specials = [np.inf, -np.inf, np.nan, -0.0, 0.0, 5e-324, 1e300, -1e-300, 0.1, 1 / 3]
        flat = values.reshape(-1)
        flat[: len(specials)] = specials[: flat.size]
        metadata = {"seed": 7, "mode": "euler-p", "list": [1.5, None]}
        dest = tmp_path / "paths.csv"
        write_paths_csv(dest, times, values, metadata=metadata)
        assert dest.read_bytes() == self.per_value_csv(times, values, metadata)

    @pytest.mark.parametrize("metadata", [None, {}])
    def test_bytes_equal_per_value_format_1d(self, metadata, tmp_path):
        times = np.array([0.0, 0.25, 1e-300, 5e-324])
        values = np.array([np.nan, -0.0, np.inf, 1e300])
        dest = tmp_path / "path.csv"
        write_paths_csv(dest, times, values, metadata=metadata)
        expected = self.per_value_csv(times, values, {})
        assert dest.read_bytes() == expected
        assert expected.decode().splitlines()[1:] == ["0,0.0,nan", "0,0.25,-0.0", "0,1e-300,inf", "0,5e-324,1e+300"]

    def test_shape_mismatch(self, sample, tmp_path):
        times, values = sample
        with pytest.raises(InputError):
            write_paths_csv(tmp_path / "x.csv", times[:3], values)


class TestBinary:
    def test_roundtrip_exact(self, sample, tmp_path):
        dest = tmp_path / "paths.bin"
        write_paths_binary(dest, *sample)
        times, values = read_paths_binary(dest)
        np.testing.assert_array_equal(times, sample[0])
        np.testing.assert_array_equal(values, sample[1])

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

    def test_bad_magic_rejected(self, tmp_path):
        dest = tmp_path / "junk.bin"
        dest.write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(InputError):
            read_paths_binary(dest)
