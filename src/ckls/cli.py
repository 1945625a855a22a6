"""Command-line surface: regime | simulate | density | verify.

Every command takes --config pointing at a JSON run configuration (see
the config module) and is deterministic given (config, seed) at a fixed
worker count.  Exit codes: 0 ok, 1 usage/config error, 2 regime
violation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from .config import RunConfig, load_config
from .distribution import rate_cdf, rate_density, transition_spec
from .engine import (
    NOISE_RULES,
    NOISE_STREAM,
    NoiseMatrix,
    euler_auxiliary,
    euler_ckls,
    explicit_rate,
    sample_cir_exact,
)
from .errors import CklsError, ConfigError, DegenerateTransform, RegimeError, SingularSample
from .params import classify_regime
from .pathio import write_paths_binary, write_paths_csv
from .transform import derive_cir, make_transform
from .verify import SUITES, run_suite

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
        help="threads for the path blocks of verify (>= 1); simulate runs on one thread",
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
    ver.add_argument("--suite", default="default", help=f"one of {sorted(SUITES)}")
    return parser


def _resolve(args) -> RunConfig:
    cfg = load_config(args.config)
    updates = {}
    if args.seed is not None:
        updates["seed"] = int(args.seed)
    if args.out is not None:
        updates["output_path"] = args.out
    if getattr(args, "t_end", None) is not None or getattr(args, "n_steps", None) is not None:
        from .engine import TimeGrid

        updates["grid"] = TimeGrid(
            t_end=args.t_end if args.t_end is not None else cfg.grid.t_end,
            n_steps=args.n_steps if args.n_steps is not None else cfg.grid.n_steps,
        )
    if getattr(args, "n_paths", None) is not None:
        updates["n_paths"] = int(args.n_paths)
    if updates:
        from dataclasses import replace

        cfg = replace(cfg, **updates)
    return cfg


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


def _write_output(cfg: RunConfig, times: np.ndarray, values: np.ndarray, summary: dict) -> None:
    dest = cfg.output_path or f"ckls_out.{ 'bin' if cfg.output_format == 'binary' else cfg.output_format }"
    if cfg.output_format == "csv":
        write_paths_csv(dest, times, values, metadata={"config": _echo_config(cfg)})
    elif cfg.output_format == "binary":
        write_paths_binary(dest, times, values)
    else:
        with open(dest, "w") as fh:
            json.dump(
                {"config": _echo_config(cfg), "times": times.tolist(), "values": values.tolist()},
                fh,
                sort_keys=True,
            )
    summary["output"] = {"path": str(dest), "format": cfg.output_format}
    with open(f"{dest}.summary.json", "w") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
    print(json.dumps(summary, sort_keys=True))


def cmd_simulate(cfg: RunConfig, mode: str) -> int:
    p = cfg.params
    started = time.perf_counter()
    summary: dict = {"mode": mode, "config": cfg.to_dict(), "n_paths": cfg.n_paths}
    if mode == "euler-p":
        noise = NoiseMatrix(cfg.seed, cfg.n_paths, cfg.grid)
        paths = euler_ckls(p, cfg.grid, noise)
        values = np.stack([path.values for path in paths])
        summary["truncations"] = int(sum(path.truncations for path in paths))
        rule = noise.rule
        times = cfg.grid.times
    elif mode == "auxiliary":
        noise = NoiseMatrix(cfg.seed, cfg.n_paths, cfg.grid)
        result = euler_auxiliary(p, cfg.grid, noise, variant=cfg.aux_variant)
        values = np.stack([path.values for path in result.paths])
        summary["variant"] = result.variant
        summary["floor_hits"] = result.floor_hits
        summary["floor_fraction"] = result.floor_fraction
        summary["blowups"] = result.blowups
        summary["blowup_fraction"] = result.blowup_fraction
        summary["min_over_paths"] = float(result.min_values.min())
        rule = noise.rule
        times = cfg.grid.times
    elif mode == "explicit-q":
        rng = np.random.default_rng([cfg.seed, 1])
        singular = 0
        while True:
            z = rng.standard_normal(cfg.n_paths)
            try:
                draws = explicit_rate(p, cfg.grid.t_end, z)
                break
            except SingularSample:
                singular += 1  # probability-zero event; redraw the batch
        summary["singular_resamples"] = singular
        rule = "numpy default_rng([seed, 1]): PCG64, ziggurat standard_normal"
        values = draws[:, None]
        times = np.array([cfg.grid.t_end])
    elif mode == "cir-exact":
        tr = make_transform(p, cfg.c)
        cir = derive_cir(p, tr)
        rng = np.random.default_rng([cfg.seed, 2])
        draws = sample_cir_exact(cir, p, cfg.grid.t_end, rng, cfg.n_paths)
        values = np.asarray(draws)[:, None]
        rule = "numpy default_rng([seed, 2]): PCG64"
        times = np.array([cfg.grid.t_end])
    else:
        raise ConfigError(f"unknown simulate mode {mode!r}")
    summary["seed"] = cfg.seed
    summary["noise_stream"] = rule
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
    lines += [
        f"{x!r},{d!r},{c_!r}"
        for x, d, c_ in zip(xs.tolist(), np.asarray(pdf).tolist(), np.asarray(cdf).tolist())
    ]
    text = "\n".join(lines) + "\n"
    if cfg.output_path:
        with open(cfg.output_path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_verify(cfg: RunConfig, suite: str, workers: int) -> int:
    if suite not in SUITES:
        print(json.dumps({"error": f"unknown suite {suite!r}", "known": sorted(SUITES)}))
        return 1
    started = time.perf_counter()
    reports = run_suite(
        suite,
        cfg.params,
        c=cfg.c,
        seed=cfg.seed,
        workers=workers,
        scale_variant=cfg.scale_variant,
    )
    payload = {
        "suite": suite,
        "config": cfg.to_dict(),
        "checks": [r.to_dict() for r in reports],
        # every check draws its paths from NoiseMatrix's default rule
        "noise_stream": NOISE_RULES[NOISE_STREAM],
        "numpy_version": np.__version__,
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
            return cmd_simulate(cfg, args.mode)
        if args.command == "density":
            return cmd_density(cfg, args.x_min, args.x_max, args.x_points)
        if args.command == "verify":
            return cmd_verify(cfg, args.suite, args.workers)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, DegenerateTransform) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
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
