"""Verification-check details that are not acceptance criteria, and the
timings every report carries."""

import json
import math

import numpy as np
import pytest

from ckls import CklsError, CklsParams, DomainError, InputError, NoiseMatrix, TimeGrid, euler_ckls
from ckls.cli import main
from ckls.verify import (
    _snapshot_rates,
    check_closed_form_mean,
    check_convergence_ladder,
    check_moment_bounds,
    run_suite,
)

# near the floor, with a coarse grid: Euler steps overshoot below zero
CLAMPING = CklsParams(a=0.5, b=5.0, sigma=0.5, gamma=0.5, r0=0.01)


@pytest.mark.parametrize("check", [check_closed_form_mean, check_moment_bounds])
def test_snapshot_checks_count_clamped_steps(check):
    """The mean and moment checks report as many clamped steps as the Euler
    scheme counts on the same noise rows."""
    report = check(CLAMPING, ts=(0.25, 0.5), n_paths=3000, n_steps_per_unit=32, seed=3)
    grid = TimeGrid(0.5, 16)
    _, exits = euler_ckls(CLAMPING, grid, NoiseMatrix(3, 3000, grid))
    expected = exits.sum()
    assert expected > 0
    assert report.details["truncations"] == expected


HIGH = CklsParams(a=1.0, b=0.2, sigma=0.5, gamma=1.5, r0=1.0)


def test_convergence_ladder_drops_and_counts_paths_the_euler_scheme_loses():
    """At gamma = 2 the Euler scheme diverges under the superlinear drift
    on 98 of 1000 paths at some rung of the ladder seed.  The gaps are
    averaged over the others, so the statistic is finite, and the lost
    paths fail the check."""
    p = CklsParams(a=1.0, b=0.2, sigma=0.5, gamma=2.0, r0=1.0)
    report = check_convergence_ladder(p, n_paths=1000, seed=2030)
    assert report.status == "fail"
    assert report.details["nonfinite_paths"] == 98
    assert math.isfinite(report.statistic)
    assert all(math.isfinite(e) for e in report.details["errors"])


@pytest.mark.parametrize("check", [check_closed_form_mean, check_moment_bounds])
@pytest.mark.parametrize("ts", [
    (-0.25, 0.5), (0.5, 0.5, 1.0), (0.0, 0.5), (math.nan, 0.5), (math.inf,),
    (0.0001, 0.5),  # index 0 of the grid: the constant r0
    (),
])
def test_snapshot_checks_reject_times_without_a_grid_index_of_their_own(check, ts):
    """A time that is not finite and positive, or that shares a grid index
    with another or with t = 0, has no spread to test; it is rejected
    before any path is run, naming the times."""
    with pytest.raises(InputError, match=r"snapshot times"):
        check(HIGH, ts=ts, n_paths=200, n_steps_per_unit=32, seed=3)


def test_snapshot_rates_fill_every_index_they_are_given():
    """A repeated grid index fills each of its rows; an index past the end
    of the grid is rejected, not left as an unwritten row."""
    snaps, _ = _snapshot_rates(HIGH, 0.5, 32, 2000, 1, [16, 16, 32])
    np.testing.assert_array_equal(snaps[0], snaps[1])
    full, _ = _snapshot_rates(HIGH, 0.5, 32, 2000, 1, [16, 32])
    np.testing.assert_array_equal(snaps[1:], full)
    for bad in ([33], [-1, 16]):
        with pytest.raises(DomainError, match="outside 0..32"):
            _snapshot_rates(HIGH, 0.5, 32, 2000, 1, bad)



def test_every_report_carries_its_elapsed_time():
    """Each check times itself; a check that run_suite skips reads 0."""
    report = check_closed_form_mean(
        CLAMPING, ts=(0.25, 0.5), n_paths=3000, n_steps_per_unit=32, seed=3
    )
    assert report.elapsed_seconds > 0
    assert report.to_dict()["elapsed_seconds"] == report.elapsed_seconds
    (skipped,) = run_suite("moments", CklsParams(a=1.0, b=0.2, sigma=0.5, gamma=2.0, r0=1.0))
    assert skipped.status == "report" and skipped.elapsed_seconds == 0.0


def test_unknown_suite_names_the_known_ones():
    """A library caller gets a CklsError that names every suite, and one
    that is still the KeyError it was."""
    for kind in (KeyError, CklsError):
        with pytest.raises(kind) as info:
            run_suite("everything", HIGH)
    assert str(info.value) == (
        "unknown suite 'everything'; known: default, delta-arbitration, determinism, "
        "explicit-law, ladder, martingale, mean, measure-consistency, moments, ncx2, "
        "scale, transform"
    )


def test_verify_json_carries_elapsed_times(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "params": {"a": 1.0, "b": 0.2, "sigma": 0.5, "gamma": 1.5, "r0": 1.0},
        "grid": {"t_end": 0.5, "n_steps": 16},
        "n_paths": 40,
        "seed": 42,
    }))
    assert main(["--config", str(cfg), "verify", "--suite", "transform"]) == 0
    payload = json.loads(capsys.readouterr().out)
    (check,) = payload["checks"]
    assert 0 < check["elapsed_seconds"] <= payload["elapsed_seconds"]
