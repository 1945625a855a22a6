"""The statistical verification harness.

Each check runs one statistical experiment at a fixed seed and returns a
CheckReport with the decision statistic, its threshold and a pass/fail or
report-only status.  The CLI `verify` command runs one of CHECKS by
name, or all of them as suite "default"; the acceptance test battery
calls the checks directly.

The measure-consistency check closes the loop between the two halves of
the library: the weighted base-measure pushforward of the transformed
level must match the closed-form transition law.  It holds because the
drift adjustment carries the base drift to the drift the closed-form
solution solves; the printed kernel, which does not, fails it (README,
"Known formula erratum").  Within one run_suite call, checks that need
the same Monte Carlo run share it (see _SUITE).
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .analysis import (
    gronwall_bound,
    ks_statistic,
    mean_rate,
    scale_function,
    scale_function_log_magnitude,
)
from .distribution import (
    NoncentralChiSq,
    noncentral_cdf,
    noncentral_pdf,
    noncentral_sample,
    rate_cdf,
    transition_spec,
)
from .engine import (
    NoiseMatrix,
    Snapshots,
    TimeGrid,
    ckls_diffusion,
    ckls_drift,
    euler_blocks,
    euler_under_q,
    explicit_rate,
    explicit_rate_on_grid,
)
from .errors import InputError, UnknownSuite
from .girsanov import simulate_weighted, weighted_expectation_arrays
from .params import CklsParams, classify_regime
from .transform import derive_cir, make_transform

__all__ = [
    "CheckReport",
    "CHECKS",
    "SUITE_NAMES",
    "run_suite",
    "check_transform_identities",
    "check_martingale",
    "check_explicit_law",
    "check_measure_consistency",
    "check_delta_arbitration",
    "check_closed_form_mean",
    "check_moment_bounds",
    "check_convergence_ladder",
    "check_ncx2_battery",
    "check_scale_trends",
    "check_determinism",
]


@dataclass
class CheckReport:
    name: str
    status: str  # "pass" | "fail" | "report"
    statistic: float
    threshold: float
    seed: int
    details: dict = field(default_factory=dict)
    # wall time of the check; 0 for a check skipped by run_suite
    elapsed_seconds: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)


def _status(ok: bool) -> str:
    return "pass" if ok else "fail"


def _mean_se(x: np.ndarray) -> tuple[float, float]:
    """Sample mean of x and its standard error."""
    return float(x.mean()), float(x.std(ddof=1) / math.sqrt(x.size))


def _timed(check):
    """Set the elapsed_seconds of the CheckReport that check returns."""

    @functools.wraps(check)
    def run(*args, **kwargs) -> CheckReport:
        started = time.perf_counter()
        report = check(*args, **kwargs)
        report.elapsed_seconds = round(time.perf_counter() - started, 6)
        return report

    return run


# the Monte Carlo runs of the run_suite call in progress, by arguments
_runs: dict | None = None


def _run_once(simulate, *args) -> tuple:
    """(simulate(*args), whether an earlier check of the run_suite call
    in progress made that run); outside run_suite it always simulates."""
    runs = {} if _runs is None else _runs
    key = (simulate, *args)
    reused = key in runs
    if not reused:
        runs[key] = simulate(*args)
    return runs[key], reused


@_timed
def check_transform_identities(p: CklsParams, c: float | None = None, seed: int = 0) -> CheckReport:
    """|x^gamma f'(x)| = C sqrt(f(x)) and finv(f(x)) = x on a 100-point
    log grid, 1e-10 relative."""
    tr = make_transform(p, c)
    x = np.geomspace(1e-3, 1e3, 100)
    lhs = np.abs(x**p.gamma * tr.fprime(x))
    rhs = tr.c * np.sqrt(tr.f(x))
    err_id = np.max(np.abs(lhs - rhs) / rhs)
    roundtrip = tr.inverse(tr.f(x))
    err_rt = np.max(np.abs(roundtrip - x) / x)
    stat = float(max(err_id, err_rt))
    return CheckReport(
        name="transform-identities",
        status=_status(stat < 1e-10),
        statistic=stat,
        threshold=1e-10,
        seed=seed,
        details={"diffusion_identity_rel_err": float(err_id), "roundtrip_rel_err": float(err_rt)},
    )


@_timed
def check_martingale(
    p: CklsParams,
    t: float = 0.5,
    n_steps: int = 512,
    n_paths: int = 100_000,
    seed: int = 2024,
    workers: int = 1,
) -> CheckReport:
    """Raw Monte Carlo E[R_t] within 1 +- 3 SE (the weight process is an
    exponential martingale under the base measure).  The Novikov integral
    integral_0^t q(r_s)^2 ds is reported by its mean and standard error:
    their stability under dt refinement is the usable signal, never
    asserted."""
    grid = TimeGrid(t, n_steps)
    run, reused = _run_once(simulate_weighted, p, grid, NoiseMatrix(seed, n_paths, grid), workers)
    mean, se = _mean_se(run.weights())
    novikov_mean, novikov_se = _mean_se(run.q_integral_sq)
    z = abs(mean - 1.0) / se
    return CheckReport(
        name="martingale",
        status=_status(z <= 3.0),
        statistic=z,
        threshold=3.0,
        seed=seed,
        details={"mean_weight": mean, "std_error": se, "n_paths": n_paths,
                 "truncations": run.truncations, "novikov_mean": novikov_mean,
                 "novikov_std_error": novikov_se, "reused_run": reused},
    )


def _law_ks(p: CklsParams, c: float | None, t: float, n: int, seed: int, rules) -> dict:
    """KS test of n sorted closed-form rate draws at time t, from the
    normals of default_rng([seed, 1]), against the transition-law CDF
    under each df rule: {rule: (TransitionSpec, KsResult)}."""
    tr = make_transform(p, c)
    cir = derive_cir(p, tr)
    z = np.random.default_rng([seed, 1]).standard_normal(n)
    draws = np.sort(explicit_rate(p, t, z))
    out = {}
    for rule in rules:
        spec = transition_spec(p, cir, t, delta_rule=rule)
        out[rule] = spec, ks_statistic(draws, lambda x: rate_cdf(p, tr, spec, x))
    return out


@_timed
def check_explicit_law(
    p: CklsParams,
    c: float | None = None,
    t: float = 1.0,
    n: int = 100_000,
    seed: int = 515,
) -> CheckReport:
    """KS distance between closed-form rate draws and the transition-law
    CDF (derived df rule) below the 1% asymptotic critical value."""
    spec, res = _law_ks(p, c, t, n, seed, ("derived",))["derived"]
    return CheckReport(
        name="explicit-law",
        status=_status(res.statistic < res.critical_1pct),
        statistic=res.statistic,
        threshold=res.critical_1pct,
        seed=seed,
        details={"n": n, "t": t, "scale": spec.scale, "df": spec.df, "nonc": spec.nonc,
                 "cdf_points": res.cdf_points},
    )


@_timed
def check_measure_consistency(
    p: CklsParams,
    c: float | None = None,
    t: float = 0.5,
    n_steps: int = 512,
    n_paths: int = 100_000,
    seed: int = 99,
    workers: int = 1,
) -> CheckReport:
    """Weighted pushforward of f(r_t) within 3 SE of the transition-law
    mean scale*(df+nonc).  In run_suite it reads the martingale check's
    weighted run, which has the same grid, paths and seed."""
    tr = make_transform(p, c)
    target = transition_spec(p, derive_cir(p, tr), t, delta_rule="derived").mean()
    grid = TimeGrid(t, n_steps)
    run, reused = _run_once(simulate_weighted, p, grid, NoiseMatrix(seed, n_paths, grid), workers)
    est = weighted_expectation_arrays(run.log_weight, tr.f(run.terminal_rate))
    z_spec = abs(est.estimate - target) / est.std_error
    return CheckReport(
        name="measure-consistency",
        status=_status(z_spec <= 3.0),
        statistic=z_spec,
        threshold=3.0,
        seed=seed,
        details={
            "weighted_estimate": est.estimate,
            "std_error": est.std_error,
            "ess": est.ess,
            "n_paths": n_paths,
            "target_closed_form": target,
            "z_vs_closed_form": z_spec,
            "passes_closed_form_target": bool(z_spec <= 3.0),
            "reused_run": reused,
        },
    )


@_timed
def check_delta_arbitration(
    p: CklsParams,
    c: float = 2.0,
    t: float = 1.0,
    n: int = 100_000,
    seed: int = 7713,
) -> CheckReport:
    """With C != 1 the two degrees-of-freedom rules disagree (derived
    df = 1 vs df = C^2); the KS test against closed-form draws must accept
    exactly one of them at the 1% level, and it should be the derived one."""
    results = {
        rule: {
            "df": spec.df,
            "ks": res.statistic,
            "critical_1pct": res.critical_1pct,
            "accepted": bool(res.statistic < res.critical_1pct),
            "cdf_points": res.cdf_points,
        }
        for rule, (spec, res) in _law_ks(p, c, t, n, seed, ("derived", "paper")).items()
    }
    ok = results["derived"]["accepted"] and not results["paper"]["accepted"]
    better = min(results, key=lambda r: results[r]["ks"])
    return CheckReport(
        name="delta-arbitration",
        status=_status(ok),
        statistic=results["derived"]["ks"],
        threshold=results["derived"]["critical_1pct"],
        seed=seed,
        details={"C": c, "results": results, "better_fit": better},
    )


def _snapshot_rates(
    p: CklsParams,
    t_end: float,
    n_steps: int,
    n_paths: int,
    seed: int,
    snap_indices: tuple[int, ...],
    workers: int = 1,
) -> tuple[np.ndarray, int]:
    """Euler states captured at several grid indices, of shape
    (len(snap_indices), n_paths), and the number of steps clamped at the
    positivity floor."""
    grid = TimeGrid(t_end, n_steps)
    run = euler_blocks(
        ckls_drift(p), ckls_diffusion(p), p.r0, grid, NoiseMatrix(seed, n_paths, grid),
        [lambda n: Snapshots(snap_indices, n_steps, n)], workers=workers,
    )
    return run["snapshots"], int(run["trunc"].sum())


def _snapshot_run(p: CklsParams, ts, n_steps_per_unit, n_paths, seed, workers) -> tuple:
    """_run_once of _snapshot_rates at the snapshot times ts, each on a
    grid index of its own past 0: a repeat or r0 has no spread to test."""
    ts = tuple(ts)
    if not ts or not all(math.isfinite(t) and t > 0 for t in ts):
        raise InputError(f"snapshot times must be finite and positive, got {ts}")
    t_end = max(ts)
    n_steps = int(round(n_steps_per_unit * t_end))
    idx = tuple(int(round(t / t_end * n_steps)) for t in ts)
    if len(set(idx)) < len(idx) or 0 in idx:
        raise InputError(
            f"snapshot times {ts} fall on grid indices {idx} of a {n_steps}-step grid; "
            "each needs an index of its own past 0"
        )
    return _run_once(_snapshot_rates, p, t_end, n_steps, n_paths, seed, idx, workers)


_MEAN_TIMES = (0.25, 0.5, 1.0)


@_timed
def check_closed_form_mean(
    p: CklsParams,
    ts: tuple = _MEAN_TIMES,
    n_paths: int = 100_000,
    n_steps_per_unit: int = 1024,
    seed: int = 606,
    workers: int = 1,
) -> CheckReport:
    """Euler terminal mean against a/b + (r0 - a/b) e^(-b t), 3 SE."""
    (snaps, truncations), reused = _snapshot_run(p, ts, n_steps_per_unit, n_paths, seed, workers)
    zs = {}
    for j, t in enumerate(ts):
        m, se = _mean_se(snaps[j])
        zs[str(t)] = {"mc": m, "closed_form": mean_rate(p, t), "std_error": se,
                      "z": abs(m - mean_rate(p, t)) / se}
    worst = max(v["z"] for v in zs.values())
    return CheckReport(
        name="closed-form-mean",
        status=_status(worst <= 3.0),
        statistic=worst,
        threshold=3.0,
        seed=seed,
        details={**zs, "truncations": truncations, "reused_run": reused},
    )


@_timed
def check_moment_bounds(
    p: CklsParams,
    ts: tuple = (0.5, 1.0),
    n_paths: int = 100_000,
    n_steps_per_unit: int = 1024,
    seed: int = 808,
    workers: int = 1,
) -> CheckReport:
    """MC moments E r_t^(-2 gamma) and E r_t^(2 (gamma-1)) must not exceed
    the closed-form bounds by more than 3 SE."""
    (snaps, truncations), reused = _snapshot_run(p, ts, n_steps_per_unit, n_paths, seed, workers)
    details: dict = {"truncations": truncations, "reused_run": reused}
    worst = -math.inf
    for kind, expo in (
        ("neg_moment", -2.0 * p.gamma),
        ("frac_moment", 2.0 * (p.gamma - 1.0)),
    ):
        for j, t in enumerate(ts):
            m, se = _mean_se(snaps[j] ** expo)
            bound = gronwall_bound(p, t, kind).bound
            excess = (m - bound) / se
            worst = max(worst, excess)
            details[f"{kind}@t={t}"] = {"mc": m, "std_error": se, "bound": bound,
                                        "excess_se": excess}
    return CheckReport(
        name="moment-bounds",
        status=_status(worst <= 3.0),
        statistic=worst,
        threshold=3.0,
        seed=seed,
        details=details,
    )


@_timed
def check_convergence_ladder(
    p: CklsParams,
    n_paths: int = 1000,
    t_end: float = 1.0,
    coarse_exp: int = 6,
    fine_exp: int = 10,
    seed: int = 31,
) -> CheckReport:
    """Strong-convergence trend: with shared noise, the pathwise max gap
    between the Euler scheme for the transformed-measure dynamics and the
    closed-form solution decreases monotonically as dt is halved.

    The gaps are averaged over the paths whose gap is finite at every
    rung.  For gamma > 1 the Euler scheme can itself diverge under the
    superlinear drift; such paths are counted in nonfinite_paths, and any
    of them fails the check, whatever the ratios of the others.  Each
    rung's Euler exits (floor clamps and non-finite ends) are reported in
    exits_per_rung.
    """
    n_fine = int(t_end * 2**fine_exp)
    grid_fine = TimeGrid(t_end, n_fine)
    dW_fine = NoiseMatrix(seed, n_paths, grid_fine).increments()
    ref = explicit_rate_on_grid(p, grid_fine, dW_fine)
    gaps, exits = [], []
    for e in range(coarse_exp, fine_exp + 1):
        stride = 2 ** (fine_exp - e)
        n_steps = n_fine // stride
        dW = dW_fine.reshape(n_paths, n_steps, stride).sum(axis=2)
        grid = TimeGrid(t_end, n_steps)
        with np.errstate(over="ignore", invalid="ignore"):
            euler, rung_exits = euler_under_q(p, grid, dW)
            gaps.append(np.abs(euler - ref[:, ::stride]).max(axis=1))
        exits.append(int(rung_exits.sum()))
    finite = np.logical_and.reduce([np.isfinite(gap) for gap in gaps])
    nonfinite = int(np.count_nonzero(~finite))
    errors = [float(gap[finite].mean()) for gap in gaps]
    ratios = [errors[i + 1] / errors[i] for i in range(len(errors) - 1)]
    worst = max(ratios)
    return CheckReport(
        name="convergence-ladder",
        status=_status(worst < 1.0 and nonfinite == 0),
        statistic=worst,
        threshold=1.0,
        seed=seed,
        details={"dt_exponents": list(range(coarse_exp, fine_exp + 1)),
                 "errors": errors, "ratios": ratios, "nonfinite_paths": nonfinite,
                 "exits_per_rung": exits},
    )


@_timed
def check_ncx2_battery(
    seed: int = 454,
    n_moment: int = 1_000_000,
    n_ks: int = 100_000,
    specs: tuple = ((1.0, 14.4533), (1.0, 0.5), (3.0, 2.0)),
) -> CheckReport:
    """Unit battery for the noncentral chi-square machinery: density
    normalization (1e-8), pdf/CDF consistency (1e-6 absolute) and sampler
    moment identities (3 SE at 1e6 draws), plus a KS self-test."""
    from scipy import integrate  # deferred: it loads scipy.optimize, slow to import

    details = {}
    ok = True
    rng = np.random.default_rng([seed, 3])
    for df, nonc in specs:
        d = NoncentralChiSq(df=df, nonc=nonc)
        upper = df + nonc + 60.0 * math.sqrt(2.0 * (df + 2.0 * nonc)) + 60.0
        norm, _ = integrate.quad(
            lambda x: noncentral_pdf(d, x), 0.0, upper,
            points=[df + nonc], limit=400,
        )
        norm_err = abs(norm - 1.0)
        grid = np.linspace(0.5, df + nonc + 8.0 * math.sqrt(2 * (df + 2 * nonc)), 41)
        h = 1e-5
        fd = (noncentral_cdf(d, grid + h) - noncentral_cdf(d, grid - h)) / (2 * h)
        pdf_vals = noncentral_pdf(d, grid)
        cons_err = float(np.max(np.abs(fd - pdf_vals)))
        draws = noncentral_sample(d, rng, n_moment)
        mean, mean_se = _mean_se(draws)
        mean_z = abs(mean - (df + nonc)) / mean_se
        var_sample = draws.var(ddof=1)
        centered_sq = (draws - mean) ** 2
        var_se = centered_sq.std(ddof=1) / math.sqrt(n_moment)
        var_z = abs(var_sample - 2.0 * (df + 2.0 * nonc)) / var_se
        ks = ks_statistic(np.sort(draws[:n_ks]), lambda x: noncentral_cdf(d, x))
        entry_ok = (
            norm_err < 1e-8 and cons_err < 1e-6 and mean_z <= 3.0 and var_z <= 3.0
            and ks.statistic < ks.critical_1pct
        )
        ok = ok and entry_ok
        details[f"df={df},nonc={nonc}"] = {
            "normalization_err": norm_err,
            "pdf_cdf_consistency_err": cons_err,
            "mean_z": mean_z,
            "var_z": float(var_z),
            "ks": ks.statistic,
            "ks_critical_1pct": ks.critical_1pct,
            "ks_cdf_points": ks.cdf_points,
            "ok": entry_ok,
        }
    stat = max(v["normalization_err"] for v in details.values())
    return CheckReport(
        name="ncx2-battery",
        status=_status(ok),
        statistic=stat,
        threshold=1e-8,
        seed=seed,
        details=details,
    )


@_timed
def check_scale_trends(p: CklsParams, variant: str = "paper", seed: int = 0) -> CheckReport:
    """Boundary divergence trend of the scale function: |p| strictly
    increasing along x = 10^-2k and x = 10^+2k, k = 1..4, from the
    Gauss-Legendre panel sum in log space; the raw values are its
    exponential (scale_function), which overflows only where |p| leaves
    the float range.  Divergence is exhibited, never asserted as a limit."""
    small = [10.0 ** (-2 * k) for k in range(1, 5)]
    big = [10.0 ** (2 * k) for k in range(1, 5)]
    low_logs = [scale_function_log_magnitude(p, x, variant)[1] for x in small]
    high_logs = [scale_function_log_magnitude(p, x, variant)[1] for x in big]
    low_increasing = all(b > a for a, b in zip(low_logs, low_logs[1:]))
    high_increasing = all(b > a for a, b in zip(high_logs, high_logs[1:]))
    ok = low_increasing and high_increasing
    raw = {f"{x:g}": scale_function(p, x, variant) for x in (1e-4, 1e-2, 0.5, 2.0, 1e2)}
    return CheckReport(
        name=f"scale-trends-{variant}",
        status=_status(ok) if variant == "paper" else "report",
        statistic=float(high_logs[-1]),
        threshold=math.inf,
        seed=seed,
        details={
            "variant": variant,
            "x_small": small,
            "log_magnitude_small": low_logs,
            "x_big": big,
            "log_magnitude_big": high_logs,
            "raw_values": raw,
            "small_trend_strict": low_increasing,
            "big_trend_strict": high_increasing,
        },
    )


@_timed
def check_determinism(
    p: CklsParams,
    n_paths: int = 2000,
    n_steps: int = 64,
    t: float = 0.5,
    seed: int = 11,
) -> CheckReport:
    """Identical seeds give bit-identical results, and statistics do not
    depend on the worker count (ordered block reduction)."""
    grid = TimeGrid(t, n_steps)
    noise = NoiseMatrix(seed, n_paths, grid)
    s1 = simulate_weighted(p, grid, noise, workers=1)
    s2 = simulate_weighted(p, grid, noise, workers=1)
    s4 = simulate_weighted(p, grid, noise, workers=4)
    rerun_identical = bool(
        np.array_equal(s1.terminal_rate, s2.terminal_rate)
        and np.array_equal(s1.log_weight, s2.log_weight)
    )
    workers_identical = bool(
        np.array_equal(s1.terminal_rate, s4.terminal_rate)
        and np.array_equal(s1.log_weight, s4.log_weight)
        and s1.terminal_rate.mean() == s4.terminal_rate.mean()
    )
    ok = rerun_identical and workers_identical
    return CheckReport(
        name="determinism",
        status=_status(ok),
        statistic=0.0 if ok else 1.0,
        threshold=0.0,
        seed=seed,
        details={"rerun_identical": rerun_identical, "workers_identical": workers_identical},
    )


def _skipped(name: str, threshold: float, seed: int, why: str) -> list[CheckReport]:
    """The report-only entry of a check whose hypotheses the parameter set
    does not satisfy."""
    return [CheckReport(name=name, status="report", statistic=math.nan, threshold=threshold,
                        seed=seed, details={"skipped": why})]


# Every check in run order, as a call on (params, C, suite seed, workers)
# that returns its reports; `ckls verify --suite NAME` runs the one named
# NAME, and suite "default" runs them all.  Two pairs of checks run the
# same simulation, and the later check takes the earlier one's seed and
# grid: measure-consistency reads martingale's weighted run (seed s), and
# moments reads mean's snapshot run (seed s + 4, times _MEAN_TIMES).
_SUITE = {
    "transform": lambda p, c, s, w: [check_transform_identities(p, c, s)],
    "martingale": lambda p, c, s, w: [check_martingale(p, seed=s, workers=w)],
    "explicit-law": lambda p, c, s, w: [check_explicit_law(p, c, seed=s + 1)],
    "measure-consistency": lambda p, c, s, w: [check_measure_consistency(p, c, seed=s, workers=w)],
    "delta-arbitration": lambda p, c, s, w: [check_delta_arbitration(p, seed=s + 3)],
    "mean": lambda p, c, s, w: [check_closed_form_mean(p, seed=s + 4, workers=w)],
    "moments": lambda p, c, s, w: (
        [check_moment_bounds(p, _MEAN_TIMES, seed=s + 4, workers=w)]
        if classify_regime(p).moment_valid
        else _skipped("moment-bounds", 3.0, s + 4, "parameters satisfy neither moment-bound case")
    ),
    "ladder": lambda p, c, s, w: [check_convergence_ladder(p, seed=s + 6)],
    "ncx2": lambda p, c, s, w: [check_ncx2_battery(seed=s + 7)],
    "scale": lambda p, c, s, w: (
        [check_scale_trends(p, "paper", s), check_scale_trends(p, "derived", s)]
        if 0.5 <= p.gamma < 1.0
        else _skipped("scale-trends", math.inf, s, "scale function requires gamma in [1/2, 1)")
    ),
    "determinism": lambda p, c, s, w: [check_determinism(p, seed=s + 8)],
}
CHECKS = tuple(_SUITE)
# every name run_suite takes, sorted
SUITE_NAMES = sorted(("default", *CHECKS))


def run_suite(
    suite: str,
    p: CklsParams,
    c: float | None = None,
    seed: int = 2024,
    workers: int = 1,
) -> list[CheckReport]:
    """Run one check of CHECKS by name, or all of them as suite
    "default", against one parameter set.

    Checks whose hypotheses the parameter set does not satisfy (moment
    bounds outside both cases, scale function outside gamma in [1/2, 1))
    are skipped with a report-only entry.  Checks on the same Monte Carlo
    run share it for the length of the call (see _SUITE).
    """
    global _runs
    if suite not in SUITE_NAMES:
        raise UnknownSuite(f"unknown suite {suite!r}; known: {', '.join(SUITE_NAMES)}")
    names = CHECKS if suite == "default" else (suite,)
    _runs = {}
    try:
        return [report for name in names for report in _SUITE[name](p, c, seed, workers)]
    finally:
        _runs = None
