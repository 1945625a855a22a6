"""Acceptance battery: one test per criterion, each printing a pass/fail
line with its decision statistic and threshold.

Reference parameter sets: the high-elasticity set (a=1, b=0.2, sigma=0.5,
gamma=1.5, r0=1) and the low-elasticity set (same with gamma=0.75).  All
checks run at fixed seeds; tolerances are the stated ones, not tuned.

Criterion 4 (measure consistency) ties the change of measure to the
closed-form transition law.  It holds with the corrected drift
adjustment, which carries the base drift to the drift the closed-form
solution solves; the printed kernel fails it (README, "Known formula
erratum").
"""

import json
import subprocess
import sys
import time

import pytest

from ckls import CklsParams
from ckls.verify import (
    check_closed_form_mean,
    check_convergence_ladder,
    check_delta_arbitration,
    check_determinism,
    check_explicit_law,
    check_martingale,
    check_measure_consistency,
    check_moment_bounds,
    check_ncx2_battery,
    check_scale_trends,
    check_transform_identities,
)

HIGH = CklsParams(a=1.0, b=0.2, sigma=0.5, gamma=1.5, r0=1.0)
LOW = CklsParams(a=1.0, b=0.2, sigma=0.5, gamma=0.75, r0=1.0)

CONFIGS = [pytest.param(HIGH, id="high-gamma"), pytest.param(LOW, id="low-gamma")]


def report(criterion: str, check) -> None:
    line = "PASS" if check.status == "pass" else "FAIL"
    print(
        f"ACCEPTANCE {criterion}: {line} "
        f"(statistic={check.statistic:.6g}, threshold={check.threshold:.6g})"
    )


@pytest.mark.parametrize("p", CONFIGS)
def test_criterion_01_transform_identities(p):
    """Diffusion identity and inverse round-trip at 1e-10 relative."""
    check = check_transform_identities(p)
    report("1 transform-identities", check)
    assert check.status == "pass", check.details


@pytest.mark.parametrize("p", CONFIGS)
def test_criterion_02_martingale(p):
    """Raw E[R_t] within 1 +- 3 SE at 1e5 paths, t=0.5, dt=2^-10."""
    check = check_martingale(p, t=0.5, n_steps=512, n_paths=100_000, seed=2024)
    report("2 martingale", check)
    assert check.status == "pass", check.details


@pytest.mark.parametrize("p", CONFIGS)
def test_criterion_03_explicit_solution_law(p):
    """KS of 1e5 closed-form draws against the transition CDF below the
    1% critical value, in under a minute."""
    started = time.perf_counter()
    check = check_explicit_law(p, n=100_000, seed=515)
    elapsed = time.perf_counter() - started
    report("3 explicit-law", check)
    assert check.status == "pass", check.details
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_04_measure_consistency():
    """Weighted pushforward of the transformed level against
    scale*(df+nonc), high-elasticity set, t=0.5, ESS-adjusted 3 SE."""
    check = check_measure_consistency(HIGH, t=0.5, n_steps=512, n_paths=100_000, seed=99)
    report("4 measure-consistency", check)
    d = check.details
    assert d["z_vs_closed_form"] <= 3.0, (
        "weighted pushforward does not match the closed-form target: "
        f"estimate {d['weighted_estimate']:.5f} +- {d['std_error']:.5f} vs "
        f"target {d['target_closed_form']:.5f} (z = {d['z_vs_closed_form']:.1f}), "
        f"ESS {d['ess']:.0f}"
    )


def test_criterion_05_delta_arbitration():
    """With C=2 the KS test accepts exactly one df rule at the 1% level,
    and it is the derived one; both statistics are recorded."""
    check = check_delta_arbitration(HIGH, c=2.0, n=100_000, seed=7713)
    report("5 delta-arbitration", check)
    assert check.status == "pass", check.details
    results = check.details["results"]
    assert results["derived"]["accepted"] and not results["paper"]["accepted"]
    assert results["paper"]["ks"] > results["derived"]["ks"]


@pytest.mark.parametrize("p", CONFIGS)
def test_criterion_06_closed_form_mean(p):
    """Euler terminal mean within 3 SE of the closed form at 1e5 paths
    for t in {0.25, 0.5, 1}."""
    check = check_closed_form_mean(p, n_paths=100_000, seed=606)
    report("6 closed-form-mean", check)
    assert check.status == "pass", check.details


@pytest.mark.parametrize("p", CONFIGS)
def test_criterion_07_moment_bounds(p):
    """MC moments do not exceed the closed-form bounds by more than 3 SE
    for both moment kinds, t <= 1."""
    check = check_moment_bounds(p, n_paths=100_000, seed=808)
    report("7 moment-bounds", check)
    assert check.status == "pass", check.details


@pytest.mark.parametrize("p", CONFIGS)
def test_criterion_08_convergence_ladder(p):
    """Shared-noise pathwise max error decreases monotonically across
    dt = 2^-6 .. 2^-10 (1e3 paths)."""
    check = check_convergence_ladder(p, n_paths=1000, seed=31)
    report("8 convergence-ladder", check)
    assert check.status == "pass", check.details


def test_criterion_09_ncx2_battery():
    """pdf normalization 1e-8, pdf/CDF consistency 1e-6, sampler moments
    3 SE at 1e6 draws."""
    check = check_ncx2_battery(seed=454)
    report("9 ncx2-battery", check)
    assert check.status == "pass", check.details


def test_criterion_10_scale_function_trends():
    """Printed-variant scale function diverges strictly at both
    boundaries on the low-elasticity set; expanded-drift variant is
    emitted report-only."""
    asserted = check_scale_trends(LOW, "paper")
    report("10 scale-trends", asserted)
    assert asserted.status == "pass", asserted.details
    informational = check_scale_trends(LOW, "derived")
    assert informational.status == "report"
    assert "log_magnitude_small" in informational.details


def _run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "ckls.cli", *args], capture_output=True, text=True
    )


def test_criterion_11_determinism(tmp_path):
    """Identical config and seed give byte-identical numeric outputs;
    statistics are identical across worker counts 1 vs 4."""
    in_process = check_determinism(HIGH, seed=11)
    report("11 determinism", in_process)
    assert in_process.status == "pass", in_process.details

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "params": {"a": 1.0, "b": 0.2, "sigma": 0.5, "gamma": 1.5, "r0": 1.0, "C": 1.0},
        "grid": {"t_end": 0.5, "n_steps": 128},
        "n_paths": 200,
        "seed": 42,
    }))
    blobs = {}
    for command, fname in (
        (["simulate", "--mode", "euler-p"], "p{}.csv"),
        (["simulate", "--mode", "explicit-q"], "q{}.csv"),
        (["density"], "d{}.csv"),
    ):
        pair = []
        for run in (1, 2):
            out = tmp_path / fname.format(run)
            res = _run_cli("--config", str(cfg_path), "--out", str(out), *command)
            assert res.returncode == 0, res.stderr
            pair.append(out.read_bytes())
        assert pair[0] == pair[1], f"{command} runs differ"
        blobs[fname] = pair[0]
    # worker count must not change simulate output either
    out1 = tmp_path / "w1.csv"
    out4 = tmp_path / "w4.csv"
    for out, workers in ((out1, "1"), (out4, "4")):
        res = _run_cli(
            "--config", str(cfg_path), "--workers", workers,
            "--out", str(out), "simulate", "--mode", "euler-p",
        )
        assert res.returncode == 0, res.stderr
    assert out1.read_bytes() == out4.read_bytes()
