"""Golden outputs of the Euler runs: SHA-256 of fixed-seed arrays; and
the KS statistics of the closed-form law checks, pinned by repr.

Recorded when the step came to take one power, sigma r^(gamma-1), for
the diffusion (sigma r^(gamma-1)) r and for q, after
TestOneEulerPowerAgainstOldStep had held the new step to the old one; any
change to the noise bits, the arithmetic of a step or its order, the
clamp rule or the block stitching changes a digest.  Since every loop
became the one kernel engine.euler_blocks, the digests are read through
it: the kernel blocks the noise with engine.map_noise_blocks and forms
sigma r^gamma in engine._CklsDiffusion.
"""

import contextlib
import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np
import pytest

from ckls import (
    CklsParams,
    NoiseMatrix,
    TimeGrid,
    cli,
    engine,
    euler_auxiliary,
    euler_ckls,
    euler_under_q,
    simulate_weighted,
)
from ckls.analysis import ks_statistic
from ckls.distribution import rate_cdf, transition_spec
from ckls.engine import (
    POSITIVITY_FLOOR,
    ckls_diffusion,
    ckls_drift,
    euler_values,
    explicit_rate,
    map_noise_blocks,
)
from ckls.transform import derive_cir, make_transform
from ckls.verify import (
    _snapshot_rates,
    check_delta_arbitration,
    check_explicit_law,
    check_ncx2_battery,
)
from ks_oracle import full_ks
from noise_v1 import NoiseV1

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


def path_digest(values, truncations) -> str:
    """The digest of a value matrix and its per-path clamp counts, as it
    was taken of a list of Path objects: their stacked values and
    truncations."""
    return digest(values, np.asarray(truncations, dtype=float))


def aux_run(p, grid, seed, variant):
    """euler_auxiliary's values and exits on 3000 paths, in the form the
    aux digests were recorded in: exits zeroed for gamma > 1 and the
    exited paths counted as floor hits (gamma < 1) or blowups (gamma > 1).
    Returns (values, exits, floor_hits, blowups)."""
    values, exits = euler_auxiliary(p, grid, NoiseMatrix(seed, 3000, grid), variant)
    n_exited = int(np.count_nonzero(exits))
    if p.gamma > 1.0:
        return values, np.zeros_like(exits), 0, n_exited
    return values, exits, n_exited, 0


def aux_digest(values, exits, floor_hits, blowups) -> str:
    return digest(path_digest(values, exits), values.min(axis=1), floor_hits, blowups)


@dataclass(frozen=True)
class McMomentResult:
    """The result of the Euler-path Monte Carlo of E r_t^kappa and of
    E integral_0^t r_s^kappa ds that the moment digests were recorded
    from; its repr enters them."""

    terminal_estimate: float
    terminal_std_error: float
    time_integral_estimate: float
    time_integral_std_error: float
    n_paths: int
    truncations: int


class Trapezoid:
    """Euler observer: per path, r^kappa after the last step and the
    trapezoid time integral of r^kappa, read at every step."""

    def __init__(self, exponent, dt, n):
        self.exponent, self.dt = exponent, dt
        self.integral = np.zeros(n)
        self.g_prev = None

    def step(self, k, r, s, dW):
        g = r**self.exponent
        if self.g_prev is not None:
            self.integral += 0.5 * self.dt * (self.g_prev + g)
        self.g_prev = g

    def end(self, r):
        self.step(None, r, None, None)
        return {"terminal": self.g_prev, "integral": self.integral}


def mc_moment(p, t, exponent, n_paths, n_steps, seed, workers=1):
    """The trapezoid-moment Monte Carlo through the Euler kernel, with
    standard errors, on the 8192-row thread blocks its digests were
    recorded on (they hash each block's arrays)."""
    grid = TimeGrid(t, n_steps)
    run = engine.euler_blocks(
        ckls_drift(p), ckls_diffusion(p), p.r0, grid.dt, NoiseMatrix(seed, n_paths, grid),
        [lambda n: Trapezoid(exponent, grid.dt, n)], workers=workers, block_size=8192,
    )
    terminal, integral = run["terminal"], run["integral"]
    root_n = math.sqrt(n_paths)
    return McMomentResult(
        terminal_estimate=float(terminal.mean()),
        terminal_std_error=float(terminal.std(ddof=1) / root_n),
        time_integral_estimate=float(integral.mean()),
        time_integral_std_error=float(integral.std(ddof=1) / root_n),
        n_paths=n_paths,
        truncations=int(run["trunc"].sum()),
    )


def mc_moment_with_blocks(p, exponent, workers=1):
    """mc_moment's result on 10 000 paths, and the per-path terminal and
    integral arrays of its blocks, read through engine.map_noise_blocks."""
    blocks = []

    def recording(*args, **kwargs):
        out = map_noise_blocks(*args, **kwargs)
        blocks.extend(out)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "map_noise_blocks", recording)
        res = mc_moment(p, 0.5, exponent, 10_000, 16, seed=5, workers=workers)
    return res, [b[key] for b in blocks for key in ("terminal", "integral")]


class TestGoldenEulerValues:
    GRID = TimeGrid(0.5, 16)
    # t = 2 on 16 steps: the gamma > 1 auxiliary runs blow up on some paths
    LONG = TimeGrid(2.0, 16)

    GOLDEN = {
        "ckls-high": "db2616dc6609adb9225607ed2e0943ec559db55a2cab5270ea27a18b4b610d83",
        "ckls-low": "0708d8a7bbfa7b056763f2b09d99bef5c821bc97a46763590dcf390f23adb827",
        "ckls-clamping": "17c7023da4f60e7ebd36c35ac4bcf4ad9acfb97c1c620e11010dba48e42e3db9",
        "aux-high-derived": "b00ae702343e31921ca6ca2d1273a5b161d7a4b88a33498e56ff3ca4180d2be0",
        "aux-high-paper": "2e4b9f617756c5400963017864fa6100b519ba2fa1c88ca702ef9d9f4922df1e",
        "aux-clamping-derived": "fc428bbfeef47de5704f81cb10b0a2fdfdd6a0239e60ba5cf04db5400beee571",
        "aux-clamping-paper": "c45ca159188b3cfa563c877053d62ee15cccd168cee06f2487a32434d5e84558",
        "values-clamp": "17c7023da4f60e7ebd36c35ac4bcf4ad9acfb97c1c620e11010dba48e42e3db9",
        "values-exit-to-inf": "58970fa1594c16357a3e0d3888919d16eef11d6d04290c84cf94858cc87a7c28",
    }

    @pytest.mark.parametrize("name,p", [("high", HIGH), ("low", LOW), ("clamping", CLAMPING)])
    def test_euler_ckls(self, name, p):
        values, exits = euler_ckls(p, self.GRID, NoiseMatrix(3, 3000, self.GRID))
        assert path_digest(values, exits) == self.GOLDEN[f"ckls-{name}"]

    @pytest.mark.parametrize("variant", ["derived", "paper"])
    def test_euler_auxiliary_run_off(self, variant):
        run = aux_run(HIGH, self.LONG, 2024, variant)
        assert run[3] > 0
        assert aux_digest(*run) == self.GOLDEN[f"aux-high-{variant}"]

    @pytest.mark.parametrize("variant", ["derived", "paper"])
    def test_euler_auxiliary_clamp(self, variant):
        run = aux_run(CLAMPING, self.GRID, 3, variant)
        assert aux_digest(*run) == self.GOLDEN[f"aux-clamping-{variant}"]

    @pytest.mark.parametrize("mode,boundary", [("clamp", "clamp"), ("exit-to-inf", "run-off")])
    def test_euler_values(self, mode, boundary):
        """Both rules on a set that leaves the positive reals, with a
        Fortran-ordered noise block (contiguous columns, strided rows)."""
        dW = np.asfortranarray(NoiseMatrix(3, 3000, self.GRID).increments())
        values, exits = euler_values(
            ckls_drift(CLAMPING), ckls_diffusion(CLAMPING), CLAMPING.r0, self.GRID.dt, dW,
            boundary=boundary,
        )
        assert exits.sum() > 0
        assert digest(values, exits.astype(float)) == self.GOLDEN[f"values-{mode}"]


class TestGoldenBlockLoops:
    """The trapezoid-moment observer (mc_moment above) and the snapshot
    Euler loop on 10 000 paths, two 8192-row thread blocks, on one and
    two workers.  The moment digests were recorded from analysis.mc_moment,
    which the library no longer has; mc_moment here is that function,
    operation for operation, kept as a golden of an observer that reads
    every step."""

    GOLDEN = {
        "moment-high": "d2f27e0b845ecaae8c887254e5c89d7a01ef4ed58b5821635eb091a36aa29123",
        "moment-clamping": "7becbf07ebf8f35f51f60c0b224a51fbb1f691ccea4c7088c012aa01435734ad",
        "snapshot-high": "38d5be3fa2d9811209c4baa4b2fd1038659fff5e0422abefcab4a63483837b1e",
        "snapshot-clamping": "3ea01e74a68a832d41e7dd9f83564aaac6d126757ecab91db6aa62f079865f8b",
    }
    CASES = [("high", HIGH, -3.0), ("clamping", CLAMPING, -1.0)]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("name,p,exponent", CASES)
    def test_mc_moment(self, name, p, exponent, workers):
        """The four rounded means of the result, and the per-path terminal
        and integral arrays of every block: a last-bit change on a path
        can leave the means as they were."""
        res, arrays = mc_moment_with_blocks(p, exponent, workers)
        assert len(arrays) == 4
        assert digest(res, *arrays) == self.GOLDEN[f"moment-{name}"]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("name,p", [(name, p) for name, p, _ in CASES])
    def test_snapshot_rates(self, name, p, workers):
        snaps, trunc = _snapshot_rates(p, 0.5, 16, 10_000, 7, [0, 5, 16], workers)
        assert digest(snaps, trunc) == self.GOLDEN[f"snapshot-{name}"]


def old_times(diffusion, x, s):
    """The diffusion before the Euler step shared its power with q: sign
    sigma x^gamma from a power of its own, s unused."""
    return diffusion.sign * diffusion.p.sigma * x**diffusion.p.gamma


@contextlib.contextmanager
def old_diffusion():
    """Run the Euler kernel with old_times in place of the s x that
    engine._CklsDiffusion forms."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine._CklsDiffusion, "times", old_times)
        yield


def old_weighted_run(p, dt, dW):
    """The weighted Euler step before it shared one power, written out: q
    from u = r^(gamma-1), the diffusion sigma r^gamma, and the log weight
    accumulated a step at a time, each operation in its old order."""
    r = np.full(dW.shape[0], p.r0)
    lw, q_int, trunc = np.zeros_like(r), np.zeros_like(r), 0
    for k in range(dW.shape[1]):
        u = r ** (p.gamma - 1.0)
        q = (2.0 * p.b - p.a / r) / (p.sigma * u) + 0.5 * p.gamma * p.sigma * u
        q_sq_dt = q * q * dt
        lw += q * dW[:, k] - 0.5 * q_sq_dt
        q_int += q_sq_dt
        r = r + (p.a - p.b * r) * dt + p.sigma * r**p.gamma * dW[:, k]
        trunc += int(np.sum(r < POSITIVITY_FLOOR))
        r = np.where(r < POSITIVITY_FLOOR, POSITIVITY_FLOOR, r)
    return r, lw, q_int, trunc


def weighted_digest(rate, log_weight, q_integral_sq, truncations) -> str:
    """tests/test_girsanov.py's weighted_sample_digest of these arrays."""
    h = hashlib.sha256()
    for a in (rate, log_weight, q_integral_sq):
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    h.update(str(truncations).encode())
    return h.hexdigest()


def first_exits(values) -> np.ndarray:
    """Per path, the first grid index at the floor or at +inf."""
    out = (values <= POSITIVITY_FLOOR) | np.isinf(values)
    return np.where(out.any(axis=1), out.argmax(axis=1), values.shape[1])


def euler_golden_runs():
    """Every golden Euler input, by TestGoldenEulerValues/TestGoldenBlockLoops
    key: a function giving (digest, rate arrays, exact counts)."""
    grid, long = TestGoldenEulerValues.GRID, TestGoldenEulerValues.LONG

    def paths_run(values, trunc, *extra):
        return [values], {"trunc": trunc, "first": first_exits(values), "extra": extra}

    def ckls(p):
        values, exits = euler_ckls(p, grid, NoiseMatrix(3, 3000, grid))
        return (path_digest(values, exits), *paths_run(values, exits))

    def aux(p, g, seed, variant):
        run = aux_run(p, g, seed, variant)
        arrays, counts = paths_run(*run)
        return aux_digest(*run), arrays + [run[0].min(axis=1)], counts

    def values(boundary):
        dW = np.asfortranarray(NoiseMatrix(3, 3000, grid).increments())
        vals, exits = euler_values(
            ckls_drift(CLAMPING), ckls_diffusion(CLAMPING), CLAMPING.r0, grid.dt, dW,
            boundary=boundary,
        )
        return digest(vals, exits.astype(float)), [vals], {"trunc": exits, "first": first_exits(vals)}

    def moment(p, exponent):
        res, arrays = mc_moment_with_blocks(p, exponent)
        return digest(res, *arrays), arrays, {"trunc": res.truncations}

    def snapshot(p):
        snaps, trunc = _snapshot_rates(p, 0.5, 16, 10_000, 7, [0, 5, 16])
        return digest(snaps, trunc), [snaps], {"trunc": trunc}

    return {
        "ckls-high": lambda: ckls(HIGH),
        "ckls-low": lambda: ckls(LOW),
        "ckls-clamping": lambda: ckls(CLAMPING),
        "aux-high-derived": lambda: aux(HIGH, long, 2024, "derived"),
        "aux-high-paper": lambda: aux(HIGH, long, 2024, "paper"),
        "aux-clamping-derived": lambda: aux(CLAMPING, grid, 3, "derived"),
        "aux-clamping-paper": lambda: aux(CLAMPING, grid, 3, "paper"),
        "values-clamp": lambda: values("clamp"),
        "values-exit-to-inf": lambda: values("run-off"),
        "moment-high": lambda: moment(HIGH, -3.0),
        "moment-clamping": lambda: moment(CLAMPING, -1.0),
        "snapshot-high": lambda: snapshot(HIGH),
        "snapshot-clamping": lambda: snapshot(CLAMPING),
    }


class TestOneEulerPowerAgainstOldStep:
    """The step that takes one power s = sigma r^(gamma-1), for q and for
    the diffusion (s r) dW, against the step before it (sigma r^gamma, and
    q from its own r^(gamma-1)) on every golden input.  The old step
    reproduces the digests recorded before the change; the new one keeps
    the rates within 1e-12 relative, the log weights within 1e-12
    absolute, and every clamp count, blowup and first exit."""

    OLD_GOLDEN = {
        "ckls-high": "f229c07fab84a60628d3b3d80297c2304c6a9504c5de29ffbe34c66afa1df101",
        "ckls-low": "56d0f50612fcc93bfdd5e5546874ff01b2de57b8bf42ca2838c587c531160301",
        "ckls-clamping": "47c5852829cf01345f45e5fd268d1ff29ca8d3a545bc461ff1330abc5bea0caa",
        "aux-high-derived": "bff97597224e8a35268bf371fd09deb6365f6842c38c7e75609d2c2c8eadbd9f",
        "aux-high-paper": "5859dae129f32b8e690e562753b0b7fe06fb4b1d8db740099ac98cacf0a50106",
        "aux-clamping-derived": "7b48f0e3f0c9e82d65271fda7b7c40509aef80800dba0eff8e1813674a71b328",
        "aux-clamping-paper": "e92fdf73568021f63e9f70a53f270dea327d279cc5a8c609809cdca157a6110b",
        "values-clamp": "47c5852829cf01345f45e5fd268d1ff29ca8d3a545bc461ff1330abc5bea0caa",
        "values-exit-to-inf": "dc5e389b8e1b11b1725c806e641f6645509fb19d0b338889556b22bd3aa7c44c",
        "moment-high": "77ad26b8c8b7c37178cb650c2e0d9f4161a33767a4520d3540eb913d3a657e5c",
        "moment-clamping": "78ec704f0ff678bb1afe6ffce5ca0736cb2cfc1a502ed31525294964e76e34e6",
        "snapshot-high": "e1d39d836e3e1eef45627085c60a3fab05929d76d150907cfc27676ac37e7312",
        "snapshot-clamping": "f1be0dbcb86e212167d7067bf33b43dbe099844a9b071ef073ed016b848cc143",
        "weighted-v1-high": "e8f5abd432c6a1157e222c67fd6b5dd3bfba9dfe7b6739c137484d2cbc1ee6fc",
        "weighted-v1-low": "0a12e0e7c0db2109ed5dcb2e23e8ec96f0d2cc13d7010ee8f2c8730a76f4abbd",
        "weighted-v2-high": "a06937bbfd95d852d851fbf7ac7ce9e2726bf10e04065e5362f70a832916c686",
        "weighted-v2-low": "732f6b8116c53a18d3bb8576890d8621116ffc7bde2a24d1abeea9ce05831cc9",
    }

    @pytest.mark.parametrize("name", sorted(euler_golden_runs()))
    def test_euler_loops(self, name):
        run = euler_golden_runs()[name]
        with old_diffusion():
            old_digest, old_arrays, old_counts = run()
        assert old_digest == self.OLD_GOLDEN[name]
        _, new_arrays, new_counts = run()
        for new, old in zip(new_arrays, old_arrays, strict=True):
            np.testing.assert_allclose(new, old, rtol=1e-12, atol=0)
        assert new_counts.keys() == old_counts.keys()
        for key, old in old_counts.items():
            np.testing.assert_array_equal(new_counts[key], old, err_msg=key)

    @pytest.mark.parametrize("stream", [1, 2])
    @pytest.mark.parametrize("name,p", [("high", HIGH), ("low", LOW)])
    def test_simulate_weighted(self, name, p, stream):
        grid = TimeGrid(0.5, 16)
        noise = (NoiseV1 if stream == 1 else NoiseMatrix)(2024, 3000, grid)
        old = old_weighted_run(p, grid.dt, noise.increments())
        assert weighted_digest(*old) == self.OLD_GOLDEN[f"weighted-v{stream}-{name}"]
        s = simulate_weighted(p, grid, noise, block_size=1024)
        rate, log_weight, q_integral_sq, truncations = old
        np.testing.assert_allclose(s.terminal_rate, rate, rtol=1e-12, atol=0)
        np.testing.assert_allclose(s.log_weight, log_weight, rtol=0, atol=1e-12)
        np.testing.assert_allclose(s.q_integral_sq, q_integral_sq, rtol=1e-12, atol=0)
        assert s.truncations == truncations


class TestGoldenEulerUnderQ:
    """euler_under_q on the golden noise.  Its diffusion sign(1-gamma)
    sigma x^gamma was sign sigma x^gamma until it came to be formed in the
    one kernel, as (sign sigma x^(gamma-1)) x; the old step reproduces the
    digest recorded before that change, and the new one keeps every rate
    within 1e-12 relative of it (the largest gap measured was 1.1e-15)."""

    GRID = TimeGrid(0.5, 16)
    OLD_GOLDEN = {
        "high": "a4777cfd35af2cbac570b5f4cb7cf607d9460f7504283b2e7304e0e70ce26b77",
        "low": "e80805394a8622c6dec291c3abf95e857dbb2ff95b2aa97d781a61ba922635e3",
    }
    GOLDEN = {
        "high": "7b55667abfceac24584f33f5fa9839e036769f1ae61e6c87cc20e4513ce2eedd",
        "low": "3094a7a0fcca944baedb5bda54413473ed5e45e6b4b032f48179abe5402a3bbc",
    }

    @pytest.mark.parametrize("name,p", [("high", HIGH), ("low", LOW)])
    def test_digest_and_old_step(self, name, p):
        noise = NoiseMatrix(3, 3000, self.GRID)
        with old_diffusion():
            old, _ = euler_under_q(p, self.GRID, noise)
        assert digest(old) == self.OLD_GOLDEN[name]
        new, _ = euler_under_q(p, self.GRID, noise)
        np.testing.assert_allclose(new, old, rtol=1e-12, atol=0)
        assert digest(new) == self.GOLDEN[name]


class TestGoldenCliOutput:
    """The files simulate --mode euler-p writes, as the SHA-256 of their
    bytes: HIGH at C = 1, seed 11, 300 paths x 40 steps.  The CSV writer
    formats 1024 // 41 = 24 whole paths a write, so the run is split into
    twelve full blocks and a part block of 12 paths.  Recorded before the
    CSV writer came to build each block from a list of pieces, four to a
    line.  The echoed config leaves out the output path, so the digest does
    not depend on where the file is written."""

    GOLDEN = {
        "csv": "e341f17e0aadae28f5eb669dab7c353eab1ac228776be1a744bd85c0276dd012",
        "binary": "f5234e4067aed27b7aa6bba6834053789c2ad9ebae127fc37aabfe0ad36ecdf6",
    }

    @pytest.mark.parametrize("fmt", ["csv", "binary"])
    def test_simulate_euler_p(self, fmt, tmp_path, capsys):
        out = tmp_path / f"paths.{fmt}"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "params": {**HIGH.to_dict(), "C": 1.0},
            "grid": {"t_end": 0.5, "n_steps": 40},
            "n_paths": 300,
            "seed": 11,
            "output": {"format": fmt, "path": str(out)},
        }))
        assert cli.main(["--config", str(cfg), "simulate", "--mode", "euler-p"]) == 0
        capsys.readouterr()
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.GOLDEN[fmt]


class TestGoldenKsStatistics:
    """The KS statistics the verify checks and the law benchmark shape
    compute, pinned by repr, so the statistic stays the same double.
    Recorded while ks_statistic evaluated the CDF at every sample; the
    law shape is also held to that full evaluation (ks_oracle.full_ks)."""

    EXPLICIT_LAW = {"high": "0.0030575627100174474", "low": "0.0030575627099983516"}
    DELTA_ARBITRATION = {"derived": "0.003208373840617784", "paper": "0.1566892687646655"}
    NCX2_BATTERY = {
        "df=1.0,nonc=14.4533": "0.0018254500581445232",
        "df=1.0,nonc=0.5": "0.0018531466781377404",
        "df=3.0,nonc=2.0": "0.002330088916470352",
    }
    # (seed, set, df rule): HIGH and LOW at C = 2, t = 1, 25 000 sorted
    # draws from the normals of default_rng([seed, set index])
    LAW = {
        (3, "high", "derived"): "0.00560451489203645",
        (3, "high", "paper"): "0.15255971047238215",
        (3, "low", "derived"): "0.008448540631741608",
        (3, "low", "paper"): "0.07082757071020485",
        (13, "high", "derived"): "0.0047663579569022785",
        (13, "high", "paper"): "0.15653621135071827",
        (13, "low", "derived"): "0.005177376287918256",
        (13, "low", "paper"): "0.07618747089815114",
    }

    @pytest.mark.parametrize("name,p", [("high", HIGH), ("low", LOW)])
    def test_explicit_law(self, name, p):
        check = check_explicit_law(p, n=100_000, seed=515)
        assert repr(check.statistic) == self.EXPLICIT_LAW[name]

    def test_delta_arbitration(self):
        results = check_delta_arbitration(HIGH, c=2.0, n=100_000, seed=7713).details["results"]
        assert {rule: repr(r["ks"]) for rule, r in results.items()} == self.DELTA_ARBITRATION

    def test_ncx2_battery(self):
        details = check_ncx2_battery(seed=454).details
        assert {key: repr(v["ks"]) for key, v in details.items()} == self.NCX2_BATTERY

    @pytest.mark.parametrize("rule", ["derived", "paper"])
    @pytest.mark.parametrize("k,name,p", [(0, "high", HIGH), (1, "low", LOW)])
    @pytest.mark.parametrize("seed", [3, 13])
    def test_law_shape(self, seed, k, name, p, rule):
        tr = make_transform(p, 2.0)
        spec = transition_spec(p, derive_cir(p, tr), 1.0, delta_rule=rule)
        z = np.random.default_rng([seed, k]).standard_normal(25_000)
        draws = np.sort(explicit_rate(p, 1.0, z))

        def cdf(x):
            return rate_cdf(p, tr, spec, x)

        statistic = ks_statistic(draws, cdf).statistic
        assert repr(statistic) == self.LAW[seed, name, rule]
        assert statistic == full_ks(draws, cdf)
