"""Command-line surface: regime | simulate | density | verify.

Every command takes --config pointing at a JSON run configuration (see
the config module) and is deterministic given (config, seed), at any
worker count: every simulate mode draws path i's noise from row i of
NoiseMatrix under NOISE_RULE.  Exit codes: 0 ok, 1 usage/config error,
2 regime violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time

import numpy as np

from .config import RunConfig, load_config, parse_config
from .distribution import rate_cdf, rate_density, transition_spec
from .engine import (
    NOISE_RULE,
    NoiseMatrix,
    TimeGrid,
    ckls_diffusion,
    ckls_drift,
    euler_auxiliary,
    euler_ckls,  # noqa: F401  (unused: perfbench/tracing.py rebinds cli.euler_ckls)
    euler_values,
    explicit_rate,
    sample_cir_exact,
)
from .errors import (
    CklsError,
    ConfigError,
    DegenerateTransform,
    RegimeError,
    UnknownSuite,
)
from .params import classify_regime
from .pathio import csv_rows, write_paths_binary, write_paths_csv
from .transform import derive_cir, make_transform
from .verify import SUITE_NAMES, run_suite

SIM_MODES = ("euler-p", "explicit-q", "cir-exact", "auxiliary")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ckls",
        description="Short-rate model toolkit: simulation, transition laws, verification.",
    )
    parser.add_argument("--config", required=True, help="path to a JSON run config")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument(
        "--workers", type=int, default=1,
        help="threads for the path blocks of simulate's Euler modes and verify (>= 1)",
    )
    parser.add_argument("--out", default=None, help="override the config output path")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("regime", help="classify the parameter set and print the report")

    sim = sub.add_parser("simulate", help="simulate paths or exact terminal draws")
    sim.add_argument("--mode", choices=SIM_MODES, default="euler-p")
    sim.add_argument("--t-end", type=float, default=None, help="override grid t_end")
    sim.add_argument("--n-steps", type=int, default=None, help="override grid n_steps")
    sim.add_argument("--n-paths", type=int, default=None, help="override path count")

    den = sub.add_parser("density", help="emit (x, pdf, cdf) of the time-t transition law")
    den.add_argument("--x-min", type=float, default=None)
    den.add_argument("--x-max", type=float, default=None)
    den.add_argument("--x-points", type=int, default=512)

    ver = sub.add_parser("verify", help="run a verification suite and emit a JSON report")
    ver.add_argument("--suite", default="default", help=f"one of {SUITE_NAMES}")
    return parser


def _resolve(args) -> RunConfig:
    """The config file with the command-line overrides applied, validated
    like the file's own values."""
    obj = load_config(args.config).to_dict()
    if args.seed is not None:
        obj["seed"] = args.seed
    if args.out is not None:
        obj["output"]["path"] = args.out
    if getattr(args, "t_end", None) is not None:
        obj["grid"]["t_end"] = args.t_end
    if getattr(args, "n_steps", None) is not None:
        obj["grid"]["n_steps"] = args.n_steps
    if getattr(args, "n_paths", None) is not None:
        obj["n_paths"] = args.n_paths
    return parse_config(obj)


def cmd_regime(cfg: RunConfig) -> int:
    if cfg.params.gamma == 1.0:
        raise DegenerateTransform("gamma = 1: the power transform is undefined")
    regime = classify_regime(cfg.params)
    print(json.dumps(regime.to_dict(), sort_keys=True))
    return 0 if regime.girsanov_valid else 2


def _echo_config(cfg: RunConfig) -> dict:
    # the output path is not part of the numeric configuration; leaving it
    # out keeps identical runs byte-identical regardless of the filename
    obj = cfg.to_dict()
    obj["output"].pop("path")
    return obj


@functools.cache
def _scipy_version() -> str:
    """scipy's version from its installed metadata, read once: importing
    scipy to ask it would cost a simulate run that needs no scipy."""
    from importlib import metadata

    return metadata.version("scipy")


def _write_output(cfg: RunConfig, times: np.ndarray, values: np.ndarray, summary: dict) -> None:
    binary = cfg.output_format == "binary"
    dest = cfg.output_path or ("ckls_out.bin" if binary else "ckls_out.csv")
    if binary:
        write_paths_binary(dest, times, values)
    else:
        write_paths_csv(dest, times, values, metadata={"config": _echo_config(cfg)})
    summary["output"] = {"path": str(dest), "format": cfg.output_format}
    with open(f"{dest}.summary.json", "w") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
    print(json.dumps(summary, sort_keys=True))


def cmd_simulate(cfg: RunConfig, mode: str, workers: int) -> int:
    p = cfg.params
    started = time.perf_counter()
    summary: dict = {"mode": mode, "config": cfg.to_dict(), "n_paths": cfg.n_paths}
    # read before the paths: after them, the lookup's small allocations
    # raised a 5000 x 32 run's peak memory by about 4 MB
    summary["scipy_version"] = _scipy_version()
    if mode == "euler-p":
        noise = NoiseMatrix(cfg.seed, cfg.n_paths, cfg.grid)
        values, exits = euler_values(
            ckls_drift(p), ckls_diffusion(p), p.r0, cfg.grid, noise, workers=workers
        )
        summary["truncations"] = int(exits.sum())
        times = cfg.grid.times
    elif mode == "auxiliary":
        noise = NoiseMatrix(cfg.seed, cfg.n_paths, cfg.grid)
        values, exits = euler_auxiliary(
            p, cfg.grid, noise, variant=cfg.aux_variant, workers=workers
        )
        # a blowup ends non-finite; every other exited path hit the floor
        blowups = int(np.count_nonzero(~np.isfinite(values[:, -1])))
        floor_hits = int(np.count_nonzero(exits)) - blowups
        summary["variant"] = cfg.aux_variant
        summary["floor_hits"] = floor_hits
        summary["floor_fraction"] = floor_hits / cfg.n_paths
        summary["blowups"] = blowups
        summary["blowup_fraction"] = blowups / cfg.n_paths
        summary["min_over_paths"] = float(values.min())
        times = cfg.grid.times
    elif mode in ("explicit-q", "cir-exact"):
        # one standard normal a path: row i of the rule on a unit one-step
        # grid, whose sqrt(dt) is exactly 1
        z = NoiseMatrix(cfg.seed, cfg.n_paths, TimeGrid(1.0, 1)).increments()[:, 0]
        t = cfg.grid.t_end
        if mode == "explicit-q":
            draws = explicit_rate(p, t, z)
        else:
            draws = sample_cir_exact(derive_cir(p, make_transform(p, cfg.c)), p, t, z)
        values = draws[:, None]
        times = np.array([t])
    else:
        raise ConfigError(f"unknown simulate mode {mode!r}")
    summary["seed"] = cfg.seed
    summary["noise_stream"] = NOISE_RULE
    summary["numpy_version"] = np.__version__
    summary["elapsed_seconds"] = round(time.perf_counter() - started, 6)
    _write_output(cfg, times, values, summary)
    return 0


def cmd_density(cfg: RunConfig, x_min: float | None, x_max: float | None, x_points: int) -> int:
    p = cfg.params
    regime = classify_regime(p)
    if not regime.girsanov_valid:
        print(json.dumps({"error": "regime violation: transition law unavailable"}))
        return 2
    tr = make_transform(p, cfg.c)
    cir = derive_cir(p, tr)
    t = cfg.grid.t_end
    spec = transition_spec(p, cir, t, delta_rule=cfg.delta_rule)
    if x_min is None or x_max is None:
        # bracket the law: invert the level tail range through the transform
        # (mean + 14 std covers the upper tail to ~1e-12 mass)
        lo_level = spec.scale * 1e-6
        hi_level = spec.scale * (
            spec.df + spec.nonc + 14.0 * math.sqrt(2.0 * (spec.df + 2.0 * spec.nonc))
        )
        lo_rate, hi_rate = sorted((tr.inverse(lo_level), tr.inverse(hi_level)))
        x_min = x_min if x_min is not None else lo_rate
        x_max = x_max if x_max is not None else hi_rate
    if not x_points >= 1:
        raise ConfigError(f"--x-points must be >= 1, got {x_points}")
    if not 0 < x_min <= x_max < math.inf:
        raise ConfigError(f"need 0 < x-min <= x-max < inf, got [{x_min}, {x_max}]")
    xs = np.geomspace(x_min, x_max, x_points)
    pdf = rate_density(p, tr, spec, xs)
    cdf = rate_cdf(p, tr, spec, xs)
    lines = [
        f"# delta_rule: {cfg.delta_rule}",
        f"# t: {t!r}",
        f"# scale: {spec.scale!r}",
        f"# df: {spec.df!r}",
        f"# nonc: {spec.nonc!r}",
        f"# config: {json.dumps(_echo_config(cfg), sort_keys=True)}",
        "x,pdf,cdf",
    ]
    text = "\n".join(lines) + "\n" + csv_rows(xs, pdf, cdf)
    if cfg.output_path:
        with open(cfg.output_path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_verify(cfg: RunConfig, suite: str, workers: int) -> int:
    started = time.perf_counter()
    scipy_version = _scipy_version()
    try:
        reports = run_suite(suite, cfg.params, c=cfg.c, seed=cfg.seed, workers=workers)
    except UnknownSuite:
        print(json.dumps({"error": f"unknown suite {suite!r}", "known": SUITE_NAMES}))
        return 1
    payload = {
        "suite": suite,
        "config": cfg.to_dict(),
        "checks": [r.to_dict() for r in reports],
        # every check draws its paths under NoiseMatrix's one rule
        "noise_stream": NOISE_RULE,
        "numpy_version": np.__version__,
        "scipy_version": scipy_version,
        "elapsed_seconds": round(time.perf_counter() - started, 6),
    }
    text = json.dumps(payload, sort_keys=True, indent=2, default=float)
    if cfg.output_path:
        with open(cfg.output_path, "w") as fh:
            fh.write(text + "\n")
    print(text)
    failed = [r.name for r in reports if r.status == "fail"]
    return 0 if not failed else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.workers < 1:
            raise ConfigError(f"--workers must be >= 1, got {args.workers}")
        cfg = _resolve(args)
        if args.command == "regime":
            return cmd_regime(cfg)
        if args.command == "simulate":
            return cmd_simulate(cfg, args.mode, args.workers)
        if args.command == "density":
            return cmd_density(cfg, args.x_min, args.x_max, args.x_points)
        if args.command == "verify":
            return cmd_verify(cfg, args.suite, args.workers)
        raise ConfigError(f"unknown command {args.command!r}")
    except RegimeError as exc:
        print(f"regime violation: {exc}", file=sys.stderr)
        return 2
    except CklsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
