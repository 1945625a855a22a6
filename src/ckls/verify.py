"""The statistical verification harness.

Each check runs one statistical experiment at a fixed seed and returns a
CheckReport with the decision statistic, its threshold and a pass/fail or
report-only status.  The CLI `verify` command maps suites onto these
checks; the acceptance test battery calls them directly.

The measure-consistency check closes the loop between the two halves of
the library: the weighted base-measure pushforward of the transformed
level must match the closed-form transition law.  It holds because the
drift adjustment carries the base drift to the drift the closed-form
solution solves; the printed kernel, which does not, fails it (README,
"Known formula erratum").  An independent simulation of the auxiliary
dynamics is reported alongside as a cross-check.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate

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
    POSITIVITY_FLOOR,
    TimeGrid,
    ckls_diffusion,
    ckls_drift,
    auxiliary_drift,
    euler_under_q,
    euler_values,
    explicit_rate,
    explicit_rate_on_grid,
    map_noise_blocks,
    step_columns,
)
from .girsanov import simulate_weighted, weighted_expectation_arrays, weighted_report
from .params import CklsParams, classify_regime
from .transform import derive_cir, make_transform

__all__ = [
    "CheckReport",
    "SUITES",
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
        return {
            "name": self.name,
            "status": self.status,
            "statistic": self.statistic,
            "threshold": self.threshold,
            "seed": self.seed,
            "details": self.details,
            "elapsed_seconds": self.elapsed_seconds,
        }


def _status(ok: bool) -> str:
    return "pass" if ok else "fail"


def _timed(check):
    """Set the elapsed_seconds of the CheckReport that check returns."""

    @functools.wraps(check)
    def run(*args, **kwargs) -> CheckReport:
        started = time.perf_counter()
        report = check(*args, **kwargs)
        report.elapsed_seconds = round(time.perf_counter() - started, 6)
        return report

    return run


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
    exponential martingale under the base measure)."""
    grid = TimeGrid(t, n_steps)
    sample = simulate_weighted(p, grid, NoiseMatrix(seed, n_paths, grid), workers=workers)
    w = sample.weights()
    mean = float(w.mean())
    se = float(w.std(ddof=1) / math.sqrt(n_paths))
    z = abs(mean - 1.0) / se
    return CheckReport(
        name="martingale",
        status=_status(z <= 3.0),
        statistic=z,
        threshold=3.0,
        seed=seed,
        details={"mean_weight": mean, "std_error": se, "n_paths": n_paths,
                 "truncations": sample.truncations},
    )


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
    tr = make_transform(p, c)
    cir = derive_cir(p, tr)
    spec = transition_spec(p, cir, t, delta_rule="derived")
    z = np.random.default_rng([seed, 1]).standard_normal(n)
    draws = np.sort(explicit_rate(p, t, z))
    res = ks_statistic(draws, lambda x: rate_cdf(p, tr, spec, x))
    return CheckReport(
        name="explicit-law",
        status=_status(res.statistic < res.critical_1pct),
        statistic=res.statistic,
        threshold=res.critical_1pct,
        seed=seed,
        details={"n": n, "t": t, "scale": spec.scale, "df": spec.df, "nonc": spec.nonc},
    )


def _terminal_euler(drift, diffusion, r0, grid, noise, workers=1, exit_to_inf=False):
    """Terminal Euler states and the total count of floor exits."""
    def run_block(lo, hi, dW):
        values, exits = euler_values(
            drift, diffusion, r0, grid.dt, dW, exit_to_inf=exit_to_inf
        )
        return {"r": values[:, -1], "exits": int(exits.sum())}

    blocks = map_noise_blocks(noise, run_block, workers=workers)
    return np.concatenate([b["r"] for b in blocks]), sum(b["exits"] for b in blocks)


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
    mean scale*(df+nonc).  The auxiliary-dynamics cross-check, a direct
    Euler simulation of the adjusted drift on independent noise, is
    reported with its floor exits (blowups for gamma > 1, whose level
    f(+inf) is 0)."""
    tr = make_transform(p, c)
    cir = derive_cir(p, tr)
    spec = transition_spec(p, cir, t, delta_rule="derived")
    target = spec.mean()

    grid = TimeGrid(t, n_steps)
    sample = simulate_weighted(p, grid, NoiseMatrix(seed, n_paths, grid), workers=workers)
    est = weighted_expectation_arrays(sample.log_weight, tr.f(sample.terminal_rate))

    aux, aux_exits = _terminal_euler(
        auxiliary_drift(p, "derived"), ckls_diffusion(p), p.r0, grid,
        NoiseMatrix(seed + 1, n_paths, grid), workers=workers,
        exit_to_inf=p.gamma > 1.0,
    )
    aux_f = tr.f(aux)
    aux_mean = float(aux_f.mean())
    aux_se = float(aux_f.std(ddof=1) / math.sqrt(n_paths))

    z_spec = abs(est.estimate - target) / est.std_error
    z_aux = abs(est.estimate - aux_mean) / math.hypot(est.std_error, aux_se)
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
            "report": weighted_report(est, seed, p),
            "target_closed_form": target,
            "auxiliary_estimate": aux_mean,
            "auxiliary_std_error": aux_se,
            "auxiliary_floor_exits": aux_exits,
            "z_vs_closed_form": z_spec,
            "z_vs_auxiliary": z_aux,
            "passes_closed_form_target": bool(z_spec <= 3.0),
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
    tr = make_transform(p, c)
    cir = derive_cir(p, tr)
    z = np.random.default_rng([seed, 1]).standard_normal(n)
    draws = np.sort(explicit_rate(p, t, z))
    results = {}
    for rule in ("derived", "paper"):
        spec = transition_spec(p, cir, t, delta_rule=rule)
        res = ks_statistic(draws, lambda x: rate_cdf(p, tr, spec, x))
        results[rule] = {
            "df": spec.df,
            "ks": res.statistic,
            "critical_1pct": res.critical_1pct,
            "accepted": bool(res.statistic < res.critical_1pct),
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
    snap_indices: list[int],
    workers: int = 1,
) -> tuple[np.ndarray, int]:
    """Euler states captured at several grid indices, of shape
    (len(snap_indices), n_paths), and the number of steps clamped at the
    positivity floor."""
    grid = TimeGrid(t_end, n_steps)
    noise = NoiseMatrix(seed, n_paths, grid)
    drift, diffusion = ckls_drift(p), ckls_diffusion(p)
    dt = grid.dt
    index_set = {k: j for j, k in enumerate(snap_indices)}

    def run_block(lo, hi, dW):
        r = np.full(hi - lo, p.r0)
        snaps = np.empty((len(snap_indices), hi - lo))
        trunc = 0
        if 0 in index_set:
            snaps[index_set[0]] = r
        for k, col in enumerate(step_columns(dW)):
            r = r + drift(r) * dt + diffusion(r) * col
            hit = r < POSITIVITY_FLOOR
            if hit.any():
                trunc += int(hit.sum())
                r = np.where(hit, POSITIVITY_FLOOR, r)
            if k + 1 in index_set:
                snaps[index_set[k + 1]] = r
        return {"snaps": snaps, "trunc": trunc}

    blocks = map_noise_blocks(noise, run_block, workers=workers)
    snaps = np.concatenate([b["snaps"] for b in blocks], axis=1)
    return snaps, sum(b["trunc"] for b in blocks)


@_timed
def check_closed_form_mean(
    p: CklsParams,
    ts: tuple = (0.25, 0.5, 1.0),
    n_paths: int = 100_000,
    n_steps_per_unit: int = 1024,
    seed: int = 606,
    workers: int = 1,
) -> CheckReport:
    """Euler terminal mean against a/b + (r0 - a/b) e^(-b t), 3 SE."""
    t_end = max(ts)
    n_steps = int(round(n_steps_per_unit * t_end))
    idx = [int(round(t / t_end * n_steps)) for t in ts]
    snaps, truncations = _snapshot_rates(p, t_end, n_steps, n_paths, seed, idx, workers)
    zs = {}
    for j, t in enumerate(ts):
        m = float(snaps[j].mean())
        se = float(snaps[j].std(ddof=1) / math.sqrt(n_paths))
        zs[t] = {"mc": m, "closed_form": mean_rate(p, t), "std_error": se,
                 "z": abs(m - mean_rate(p, t)) / se}
    worst = max(v["z"] for v in zs.values())
    return CheckReport(
        name="closed-form-mean",
        status=_status(worst <= 3.0),
        statistic=worst,
        threshold=3.0,
        seed=seed,
        details={**{str(t): v for t, v in zs.items()}, "truncations": truncations},
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
    t_end = max(ts)
    n_steps = int(round(n_steps_per_unit * t_end))
    idx = [int(round(t / t_end * n_steps)) for t in ts]
    snaps, truncations = _snapshot_rates(p, t_end, n_steps, n_paths, seed, idx, workers)
    details: dict = {"truncations": truncations}
    worst = -math.inf
    for kind, expo in (
        ("neg_moment", -2.0 * p.gamma),
        ("frac_moment", 2.0 * (p.gamma - 1.0)),
    ):
        for j, t in enumerate(ts):
            g = snaps[j] ** expo
            m = float(g.mean())
            se = float(g.std(ddof=1) / math.sqrt(n_paths))
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
    closed-form solution decreases monotonically as dt is halved."""
    n_fine = int(t_end * 2**fine_exp)
    grid_fine = TimeGrid(t_end, n_fine)
    dW_fine = NoiseMatrix(seed, n_paths, grid_fine).increments()
    ref = explicit_rate_on_grid(p, grid_fine, dW_fine)
    errors = []
    for e in range(coarse_exp, fine_exp + 1):
        stride = 2 ** (fine_exp - e)
        n_steps = n_fine // stride
        dW = dW_fine.reshape(n_paths, n_steps, stride).sum(axis=2)
        grid = TimeGrid(t_end, n_steps)
        euler = euler_under_q(p, grid, dW)
        gap = np.abs(euler - ref[:, ::stride]).max(axis=1)
        errors.append(float(gap.mean()))
    ratios = [errors[i + 1] / errors[i] for i in range(len(errors) - 1)]
    worst = max(ratios)
    return CheckReport(
        name="convergence-ladder",
        status=_status(worst < 1.0),
        statistic=worst,
        threshold=1.0,
        seed=seed,
        details={"dt_exponents": list(range(coarse_exp, fine_exp + 1)),
                 "errors": errors, "ratios": ratios},
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
        mean_z = abs(draws.mean() - (df + nonc)) / (draws.std(ddof=1) / math.sqrt(n_moment))
        var_sample = draws.var(ddof=1)
        centered_sq = (draws - draws.mean()) ** 2
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
            "mean_z": float(mean_z),
            "var_z": float(var_z),
            "ks": ks.statistic,
            "ks_critical_1pct": ks.critical_1pct,
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
    increasing along x = 10^-2k and x = 10^+2k, k = 1..4 (log-magnitude
    evaluation; raw values overflow beyond x ~ 1e3 for the printed
    variant).  Divergence is exhibited, never asserted as a limit."""
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


def _suite_checks(name: str) -> list[str]:
    if name not in SUITES:
        raise KeyError(name)
    return SUITES[name]


SUITES = {
    "default": [
        "transform",
        "martingale",
        "explicit-law",
        "measure-consistency",
        "delta-arbitration",
        "mean",
        "moments",
        "ladder",
        "ncx2",
        "scale",
        "determinism",
    ],
    "transform": ["transform"],
    "martingale": ["martingale"],
    "explicit-law": ["explicit-law"],
    "measure-consistency": ["measure-consistency"],
    "delta-arbitration": ["delta-arbitration"],
    "mean": ["mean"],
    "moments": ["moments"],
    "ladder": ["ladder"],
    "ncx2": ["ncx2"],
    "scale": ["scale"],
    "determinism": ["determinism"],
}


def run_suite(
    suite: str,
    p: CklsParams,
    c: float | None = None,
    seed: int = 2024,
    workers: int = 1,
    scale_variant: str = "paper",
) -> list[CheckReport]:
    """Run a named suite of checks against one parameter set.

    Checks whose hypotheses the parameter set does not satisfy (moment
    bounds outside both cases, scale function outside gamma in [1/2, 1))
    are skipped with a report-only entry.
    """
    names = _suite_checks(suite)
    regime = classify_regime(p)
    reports: list[CheckReport] = []
    for name in names:
        if name == "transform":
            reports.append(check_transform_identities(p, c, seed))
        elif name == "martingale":
            reports.append(check_martingale(p, seed=seed, workers=workers))
        elif name == "explicit-law":
            reports.append(check_explicit_law(p, c, seed=seed + 1))
        elif name == "measure-consistency":
            reports.append(check_measure_consistency(p, c, seed=seed + 2, workers=workers))
        elif name == "delta-arbitration":
            reports.append(check_delta_arbitration(p, seed=seed + 3))
        elif name == "mean":
            reports.append(check_closed_form_mean(p, seed=seed + 4, workers=workers))
        elif name == "moments":
            if regime.moment_valid:
                reports.append(check_moment_bounds(p, seed=seed + 5, workers=workers))
            else:
                reports.append(CheckReport(
                    name="moment-bounds", status="report", statistic=math.nan,
                    threshold=3.0, seed=seed + 5,
                    details={"skipped": "parameters satisfy neither moment-bound case"},
                ))
        elif name == "ladder":
            reports.append(check_convergence_ladder(p, seed=seed + 6))
        elif name == "ncx2":
            reports.append(check_ncx2_battery(seed=seed + 7))
        elif name == "scale":
            if 0.5 <= p.gamma < 1.0:
                reports.append(check_scale_trends(p, scale_variant, seed))
                other = "derived" if scale_variant == "paper" else "paper"
                reports.append(check_scale_trends(p, other, seed))
            else:
                reports.append(CheckReport(
                    name="scale-trends", status="report", statistic=math.nan,
                    threshold=math.inf, seed=seed,
                    details={"skipped": "scale function requires gamma in [1/2, 1)"},
                ))
        elif name == "determinism":
            reports.append(check_determinism(p, seed=seed + 8))
    return reports
