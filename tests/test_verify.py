"""Verification-check details that are not acceptance criteria."""

import pytest

from ckls import CklsParams, NoiseMatrix, TimeGrid, euler_ckls
from ckls.verify import check_closed_form_mean, check_moment_bounds

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
