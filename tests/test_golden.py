"""Golden outputs of the Euler loops: SHA-256 of fixed-seed arrays.

Recorded before the loops read their noise through engine.step_columns;
any change to the noise bits, the arithmetic of a step or its order, the
clamp rule or the block stitching changes a digest.
"""

import hashlib

import numpy as np
import pytest

from ckls import CklsParams, NoiseMatrix, TimeGrid, euler_auxiliary, euler_ckls
from ckls.analysis import mc_moment
from ckls.engine import ckls_diffusion, ckls_drift, euler_values
from ckls.verify import _snapshot_rates

HIGH = CklsParams(a=1.0, b=0.2, sigma=0.5, gamma=1.5, r0=1.0)
LOW = CklsParams(a=1.0, b=0.2, sigma=0.5, gamma=0.75, r0=1.0)
# near the floor, with a coarse grid: Euler steps overshoot below zero
CLAMPING = CklsParams(a=0.5, b=5.0, sigma=0.5, gamma=0.5, r0=0.01)


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(str(part.shape).encode())
            h.update(np.ascontiguousarray(part, dtype="<f8").tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def path_digest(paths) -> str:
    return digest(
        np.stack([path.values for path in paths]),
        np.array([path.truncations for path in paths], dtype=float),
    )


class TestGoldenEulerValues:
    GRID = TimeGrid(0.5, 16)
    # t = 2 on 16 steps: the gamma > 1 auxiliary runs blow up on some paths
    LONG = TimeGrid(2.0, 16)

    GOLDEN = {
        "ckls-high": "f229c07fab84a60628d3b3d80297c2304c6a9504c5de29ffbe34c66afa1df101",
        "ckls-low": "56d0f50612fcc93bfdd5e5546874ff01b2de57b8bf42ca2838c587c531160301",
        "ckls-clamping": "47c5852829cf01345f45e5fd268d1ff29ca8d3a545bc461ff1330abc5bea0caa",
        "aux-high-derived": "bff97597224e8a35268bf371fd09deb6365f6842c38c7e75609d2c2c8eadbd9f",
        "aux-high-paper": "5859dae129f32b8e690e562753b0b7fe06fb4b1d8db740099ac98cacf0a50106",
        "aux-clamping-derived": "7b48f0e3f0c9e82d65271fda7b7c40509aef80800dba0eff8e1813674a71b328",
        "aux-clamping-paper": "e92fdf73568021f63e9f70a53f270dea327d279cc5a8c609809cdca157a6110b",
        "values-clamp": "47c5852829cf01345f45e5fd268d1ff29ca8d3a545bc461ff1330abc5bea0caa",
        "values-exit-to-inf": "dc5e389b8e1b11b1725c806e641f6645509fb19d0b338889556b22bd3aa7c44c",
    }

    @pytest.mark.parametrize("name,p", [("high", HIGH), ("low", LOW), ("clamping", CLAMPING)])
    def test_euler_ckls(self, name, p):
        paths = euler_ckls(p, self.GRID, NoiseMatrix(3, 3000, self.GRID))
        assert path_digest(paths) == self.GOLDEN[f"ckls-{name}"]

    @pytest.mark.parametrize("variant", ["derived", "paper"])
    def test_euler_auxiliary_exit_to_inf(self, variant):
        res = euler_auxiliary(HIGH, self.LONG, NoiseMatrix(2024, 3000, self.LONG), variant)
        assert res.blowups > 0
        got = digest(path_digest(res.paths), res.min_values, res.floor_hits, res.blowups)
        assert got == self.GOLDEN[f"aux-high-{variant}"]

    @pytest.mark.parametrize("variant", ["derived", "paper"])
    def test_euler_auxiliary_clamp(self, variant):
        res = euler_auxiliary(CLAMPING, self.GRID, NoiseMatrix(3, 3000, self.GRID), variant)
        got = digest(path_digest(res.paths), res.min_values, res.floor_hits, res.blowups)
        assert got == self.GOLDEN[f"aux-clamping-{variant}"]

    @pytest.mark.parametrize("mode,exit_to_inf", [("clamp", False), ("exit-to-inf", True)])
    def test_euler_values(self, mode, exit_to_inf):
        """Both modes on a set that leaves the positive reals, with a
        Fortran-ordered noise block (contiguous columns, strided rows)."""
        dW = np.asfortranarray(NoiseMatrix(3, 3000, self.GRID).increments())
        values, exits = euler_values(
            ckls_drift(CLAMPING), ckls_diffusion(CLAMPING), CLAMPING.r0, self.GRID.dt, dW,
            exit_to_inf=exit_to_inf,
        )
        assert exits.sum() > 0
        assert digest(values, exits.astype(float)) == self.GOLDEN[f"values-{mode}"]


class TestGoldenBlockLoops:
    """mc_moment and the snapshot Euler loop on 10 000 paths, two 8192-row
    thread blocks, on one and two workers."""

    GOLDEN = {
        "moment-high": "d37f80e6058b6872f7d8c97d638ee489f948e294f66ffb1b302fc70b6ad9872f",
        "moment-clamping": "2523454c08f80a5d2617e5532a76b1f56ecead0a296af26ac9b06dd6ca546b16",
        "snapshot-high": "e1d39d836e3e1eef45627085c60a3fab05929d76d150907cfc27676ac37e7312",
        "snapshot-clamping": "f1be0dbcb86e212167d7067bf33b43dbe099844a9b071ef073ed016b848cc143",
    }
    CASES = [("high", HIGH, -3.0), ("clamping", CLAMPING, -1.0)]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("name,p,exponent", CASES)
    def test_mc_moment(self, name, p, exponent, workers):
        res = mc_moment(p, 0.5, exponent, 10_000, 16, seed=5, workers=workers)
        assert digest(res) == self.GOLDEN[f"moment-{name}"]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("name,p", [(name, p) for name, p, _ in CASES])
    def test_snapshot_rates(self, name, p, workers):
        snaps, trunc = _snapshot_rates(p, 0.5, 16, 10_000, 7, [0, 5, 16], workers)
        assert digest(snaps, trunc) == self.GOLDEN[f"snapshot-{name}"]
