"""Verification-check details that are not acceptance criteria, and the
timings every report carries."""

import inspect
import json
import math

import numpy as np
import pytest

from ckls import (
    CklsError, CklsParams, DomainError, InputError, NoiseMatrix, TimeGrid, euler_ckls,
    simulate_weighted,
)
from ckls import verify
from ckls.cli import main
from ckls.verify import (
    CHECKS,
    CheckReport,
    _mean_se,
    _snapshot_rates,
    check_closed_form_mean,
    check_convergence_ladder,
    check_martingale,
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


def test_convergence_ladder_reports_each_rungs_euler_exits():
    """On HIGH at the acceptance seed one path of the dt = 2^-7 rung is
    clamped at the floor and stays finite, so it enters that rung's error;
    the report counts it."""
    report = check_convergence_ladder(HIGH, n_paths=1000, seed=31)
    assert report.details["exits_per_rung"] == [0, 1, 0, 0, 0]
    assert report.details["nonfinite_paths"] == 0


def test_martingale_check_reports_the_novikov_integral():
    """The martingale check reports the mean of the Novikov integral
    integral_0^t q^2 ds and its standard error, those of the q_integral_sq
    of the same weighted run."""
    report = check_martingale(HIGH, n_steps=16, n_paths=2000, seed=3)
    grid = TimeGrid(0.5, 16)
    sample = simulate_weighted(HIGH, grid, NoiseMatrix(3, 2000, grid))
    mean, se = _mean_se(sample.q_integral_sq)
    assert report.details["novikov_mean"] == mean
    assert report.details["novikov_std_error"] == se


def test_law_checks_report_cdf_points():
    """The KS checks report at how many of their n sorted draws the law's
    CDF was evaluated: at least one, at most n."""
    n = 20_000
    law = verify.check_explicit_law(HIGH, n=n, seed=3).details["cdf_points"]
    arbitration = verify.check_delta_arbitration(HIGH, n=n, seed=3).details["results"]
    battery = verify.check_ncx2_battery(seed=3, n_moment=n, n_ks=n).details
    points = [law, *(r["cdf_points"] for r in arbitration.values()),
              *(e["ks_cdf_points"] for e in battery.values())]
    assert len(points) == 6
    assert all(isinstance(k, int) and 0 < k <= n for k in points)


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


def _stub_checks(monkeypatch) -> list:
    """Swap every check_* of verify for a stub that records the check, and
    the seed, c, workers and scale variant it was called with (None where
    the check takes no such argument), and returns a passing report named
    after the call."""
    calls = []
    for fn_name, check in list(vars(verify).items()):
        if not fn_name.startswith("check_"):
            continue

        def stub(*args, _name=fn_name, _sig=inspect.signature(check), **kwargs):
            bound = _sig.bind(*args, **kwargs)
            bound.apply_defaults()
            got = bound.arguments
            call = (_name, got["seed"], got.get("c"), got.get("workers"), got.get("variant"))
            calls.append(call)
            return CheckReport(name=":".join(map(str, call)), status="pass",
                               statistic=0.0, threshold=0.0, seed=got["seed"])

        monkeypatch.setattr(verify, fn_name, stub)
    return calls


GAMMA_2 = CklsParams(a=1.0, b=0.2, sigma=0.5, gamma=2.0, r0=1.0)


@pytest.mark.parametrize(
    "p,moments,scale",
    [
        (HIGH, True, False),
        (CklsParams(a=1.0, b=0.2, sigma=0.5, gamma=0.75, r0=1.0), True, True),
        (GAMMA_2, False, False),
    ],
    ids=["high", "low", "gamma-2"],
)
def test_default_suite_call_and_report_sequence(monkeypatch, p, moments, scale):
    """Suite "default" calls every check in CHECKS order with its seed
    offset (measure-consistency and moments take the seeds of the
    martingale and mean checks, whose runs they share), c and worker count, and skips the moment bounds outside both
    moment cases and the scale trends outside gamma in [1/2, 1) with a
    report-only entry; each single-check suite runs its own slice."""
    calls = _stub_checks(monkeypatch)
    s, c, w = 100, 0.7, 3
    expected_calls = [
        ("check_transform_identities", s, c, None, None),
        ("check_martingale", s, None, w, None),
        ("check_explicit_law", s + 1, c, None, None),
        ("check_measure_consistency", s, c, w, None),
        ("check_delta_arbitration", s + 3, 2.0, None, None),
        ("check_closed_form_mean", s + 4, None, w, None),
        *([("check_moment_bounds", s + 4, None, w, None)] if moments else []),
        ("check_convergence_ladder", s + 6, None, None, None),
        ("check_ncx2_battery", s + 7, None, None, None),
        *([("check_scale_trends", s, None, None, "paper"),
           ("check_scale_trends", s, None, None, "derived")] if scale else []),
        ("check_determinism", s + 8, None, None, None),
    ]
    expected_reports = [(":".join(map(str, call)), "pass", 0.0, call[1]) for call in expected_calls]
    if not moments:
        expected_reports.insert(6, ("moment-bounds", "report", 3.0, s + 4))
    if not scale:
        expected_reports.insert(-1, ("scale-trends", "report", math.inf, s))

    reports = verify.run_suite("default", p, c=c, seed=s, workers=w)
    assert calls == expected_calls
    assert [(r.name, r.status, r.threshold, r.seed) for r in reports] == expected_reports
    assert [math.isnan(r.statistic) for r in reports] == [r.status == "report" for r in reports]
    skipped = [r for r in reports if r.status == "report"]
    assert [r.details for r in skipped] == (
        ([] if moments else [{"skipped": "parameters satisfy neither moment-bound case"}])
        + ([] if scale else [{"skipped": "scale function requires gamma in [1/2, 1)"}])
    )
    assert all(r.elapsed_seconds == 0.0 for r in skipped)

    singles = [r for name in CHECKS for r in verify.run_suite(name, p, c=c, seed=s, workers=w)]
    assert [r.name for r in singles] == [r.name for r in reports]
    assert calls == 2 * expected_calls
