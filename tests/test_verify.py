"""Verification-check details that are not acceptance criteria, and the
timings every report carries."""

import json

import pytest

from ckls import CklsParams, NoiseMatrix, TimeGrid, euler_ckls
from ckls.cli import main
from ckls.verify import check_closed_form_mean, check_moment_bounds, run_suite

# near the floor, with a coarse grid: Euler steps overshoot below zero
CLAMPING = CklsParams(a=0.5, b=5.0, sigma=0.5, gamma=0.5, r0=0.01)


@pytest.mark.parametrize("check", [check_closed_form_mean, check_moment_bounds])
def test_snapshot_checks_count_clamped_steps(check):
    """The mean and moment checks report as many clamped steps as the Euler
    scheme counts on the same noise rows."""
    report = check(CLAMPING, ts=(0.25, 0.5), n_paths=3000, n_steps_per_unit=32, seed=3)
    grid = TimeGrid(0.5, 16)
    paths = euler_ckls(CLAMPING, grid, NoiseMatrix(3, 3000, grid))
    expected = sum(path.truncations for path in paths)
    assert expected > 0
    assert report.details["truncations"] == expected



def test_every_report_carries_its_elapsed_time():
    """Each check times itself; a check that run_suite skips reads 0."""
    report = check_closed_form_mean(
        CLAMPING, ts=(0.25, 0.5), n_paths=3000, n_steps_per_unit=32, seed=3
    )
    assert report.elapsed_seconds > 0
    assert report.to_dict()["elapsed_seconds"] == report.elapsed_seconds
    (skipped,) = run_suite("moments", CklsParams(a=1.0, b=0.2, sigma=0.5, gamma=2.0, r0=1.0))
    assert skipped.status == "report" and skipped.elapsed_seconds == 0.0


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
