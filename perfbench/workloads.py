"""The benchmark workloads: inputs made from a seed, one job, its gates.

Each workload calls the public ckls functions directly.  A job given a
Tracer records spans around those calls; given None it runs the library
untouched.  Gates are the correctness checks a job's outputs must pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from ckls import (
    CklsParams,
    NoiseMatrix,
    TimeGrid,
    derive_cir,
    explicit_rate,
    make_transform,
    rate_cdf,
    rate_density,
    simulate_weighted,
    transition_spec,
)
from ckls import cli
from ckls.analysis import KS_CRITICAL_1PCT, ks_statistic
from ckls.girsanov import weighted_expectation_arrays
from ckls.pathio import read_paths_binary

from tracing import Tracer, traced_cli, traced_noise_class

HIGH = {"a": 1.0, "b": 0.2, "sigma": 0.5, "gamma": 1.5, "r0": 1.0}
LOW = dict(HIGH, gamma=0.75)

# The shapes of the acceptance battery and the README config, with 4 to 8
# times fewer paths or draws so that a job takes about a second and a run
# holds a dozen of them.  mc-long keeps two full 8192-path blocks, one per
# worker.
SIZES = {
    "mc-short": {"n_paths": 50_000, "n_steps": 16, "workers": 1},
    "mc-long": {"n_paths": 16_384, "n_steps": 512, "workers": 2},
    "law": {"n_draws": 25_000, "n_grid": 1024},
    "export": {"n_paths": 5_000, "n_steps": 32},
}

# The statistical gates run on every seed the benchmark is given, so they
# use a family-wise level: a two-sided normal z of 5 and the Kolmogorov
# quantile at alpha = 1e-6.  The 3 SE and 1 % verdicts of the acceptance
# battery are reported alongside, ungated, since at those levels one seed
# in a few hundred fails by construction.
MARTINGALE_Z_GATE = 5.0
KS_CRITICAL_GATE = math.sqrt(-math.log(0.5e-6) / 2.0)


def _null_span(name: str):
    return contextlib.nullcontext()


@dataclass
class Outcome:
    """What one job produced: an output digest, gate verdicts, ungated notes."""

    seconds: float
    digest: str
    gates: dict[str, bool]
    notes: dict = field(default_factory=dict)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
    return h.hexdigest()


class MonteCarlo:
    """HIGH set, t = 0.5: simulate_weighted, then a weighted E f(r_T)."""

    def __init__(self, seed: int, n_paths: int, n_steps: int, workers: int):
        self.p = CklsParams(**HIGH)
        self.tr = make_transform(self.p)
        self.grid = TimeGrid(0.5, n_steps)
        self.seed = seed
        self.n_paths = n_paths
        self.workers = workers
        self.work = n_paths * n_steps

    def job(self, tracer: Tracer | None = None, workers: int | None = None) -> Outcome:
        workers = self.workers if workers is None else workers
        span = tracer.span if tracer else _null_span
        noise_cls = traced_noise_class(tracer) if tracer else NoiseMatrix
        t0 = time.perf_counter()
        with span("job"):
            with span("girsanov.kernel"):
                sample = simulate_weighted(
                    self.p, self.grid, noise_cls(self.seed, self.n_paths, self.grid), workers=workers
                )
            phi = self.tr.f(sample.terminal_rate)
            with span("girsanov.estimate"):
                est = weighted_expectation_arrays(sample.log_weight, phi)
        seconds = time.perf_counter() - t0
        w = sample.weights()
        se = float(w.std(ddof=1) / math.sqrt(self.n_paths))
        z = abs(float(w.mean()) - 1.0) / se
        lw_range = float(sample.log_weight.max() - sample.log_weight.min())
        if tracer:
            tracer.add("girsanov.kernel.path_steps", self.work)
            tracer.add("girsanov.kernel.clamps", sample.truncations)
            tracer.add("girsanov.estimate.ess_frac", est.ess / est.n_paths)
            tracer.add("girsanov.estimate.log_weight_range", lw_range)
        return Outcome(
            seconds=seconds,
            digest=_digest(
                sample.terminal_rate, sample.log_weight, sample.q_integral_sq,
                sample.truncations, est.to_dict(),
            ),
            gates={"martingale": z <= MARTINGALE_Z_GATE},
            notes={"martingale_z": z, "martingale_within_3se": z <= 3.0,
                   "estimate": est.estimate, "ess_frac": est.ess / est.n_paths},
        )


class Law:
    """HIGH and LOW sets with C = 2: explicit draws, KS under both df rules,
    and the rate density on a grid per rule."""

    T = 1.0
    C = 2.0
    workers = 1

    def __init__(self, seed: int, n_draws: int, n_grid: int):
        self.sets = []
        for k, params in enumerate((HIGH, LOW)):
            p = CklsParams(**params)
            tr = make_transform(p, self.C)
            z = np.random.default_rng([seed, k]).standard_normal(n_draws)
            # the `ckls density` grid: the derived law's level range mapped
            # back through the transform
            s = transition_spec(p, derive_cir(p, tr), self.T)
            top = s.df + s.nonc + 14.0 * math.sqrt(2.0 * (s.df + 2.0 * s.nonc))
            lo, hi = sorted((tr.inverse(s.scale * 1e-6), tr.inverse(s.scale * top)))
            self.sets.append((p, tr, z, np.geomspace(lo, hi, n_grid)))
        self.work = 2 * 2 * (n_draws + n_grid)  # CDF plus PDF evaluations

    def job(self, tracer: Tracer | None = None) -> Outcome:
        span = tracer.span if tracer else _null_span
        parts, gates, notes = [], {}, {}
        t0 = time.perf_counter()
        with span("job"):
            for k, (p, tr, z, xs) in enumerate(self.sets):
                with span("engine.explicit"):
                    draws = explicit_rate(p, self.T, z)
                draws = np.sort(draws)
                cir = derive_cir(p, tr)
                parts.append(draws)
                for rule in ("derived", "paper"):
                    spec = transition_spec(p, cir, self.T, delta_rule=rule)

                    def cdf(x, p=p, tr=tr, spec=spec):
                        with span("distribution.cdf"):
                            return rate_cdf(p, tr, spec, x)

                    with span("analysis.ks"):
                        ks = ks_statistic(draws, cdf)
                    with span("distribution.pdf"):
                        pdf = rate_density(p, tr, spec, xs)
                    parts += [ks.statistic, pdf]
                    scaled = ks.statistic * math.sqrt(ks.ess)
                    accepted = scaled < KS_CRITICAL_GATE
                    name = f"set{k}.{rule}"
                    gates[name] = accepted if rule == "derived" else not accepted
                    gates[f"{name}.pdf_finite"] = bool(np.all(np.isfinite(pdf)) and np.all(pdf >= 0))
                    notes[f"{name}.ks_sqrt_n"] = scaled
                    notes[f"{name}.accepted_at_1pct"] = scaled < KS_CRITICAL_1PCT
        seconds = time.perf_counter() - t0
        if tracer:
            n_draws, n_grid = self.sets[0][2].size, self.sets[0][3].size
            tracer.add("engine.explicit.draws", 2 * n_draws)
            tracer.add("analysis.ks.samples", 4 * n_draws)
            tracer.add("distribution.cdf.points", 4 * n_draws)
            tracer.add("distribution.pdf.points", 4 * n_grid)
        return Outcome(seconds, _digest(*parts), gates, notes)


class Export:
    """In-process `ckls simulate --mode euler-p`, once to CSV, once to binary."""

    workers = 1  # `simulate` has no worker pool

    def __init__(self, seed: int, n_paths: int, n_steps: int, workdir: str):
        self.work = 2 * n_paths * n_steps
        self.outputs = {}
        self.argvs = []
        for fmt in ("csv", "binary"):
            out = os.path.join(workdir, f"paths.{fmt}")
            cfg = os.path.join(workdir, f"{fmt}.json")
            with open(cfg, "w") as fh:
                json.dump({
                    "params": dict(HIGH, C=1.0),
                    "grid": {"t_end": 0.5, "n_steps": n_steps},
                    "n_paths": n_paths,
                    "seed": seed,
                    "output": {"format": fmt, "path": out},
                }, fh)
            self.outputs[fmt] = out
            self.argvs.append(["--config", cfg, "simulate", "--mode", "euler-p"])
        self.checked_readback = False

    def job(self, tracer: Tracer | None = None) -> Outcome:
        span = tracer.span if tracer else _null_span
        codes = []
        t0 = time.perf_counter()
        # the CLI prints its summary; keep it off the benchmark's stdout
        with span("job"), contextlib.redirect_stdout(io.StringIO()):
            with traced_cli(tracer) if tracer else contextlib.nullcontext():
                for argv in self.argvs:
                    with span("cli.simulate"):
                        codes.append(cli.main(argv))
        seconds = time.perf_counter() - t0
        gates = {"exit_codes": codes == [0, 0]}
        if not self.checked_readback:
            gates["binary_equals_csv"] = self.binary_equals_csv()
            self.checked_readback = True
        blobs = []
        for path in self.outputs.values():
            with open(path, "rb") as fh:
                blobs.append(np.frombuffer(fh.read(), dtype=np.uint8))
        return Outcome(seconds, _digest(*blobs), gates)

    def binary_equals_csv(self) -> bool:
        times, values = read_paths_binary(self.outputs["binary"])
        # metadata lines start with "#", the column header with "path_id"
        rows = np.loadtxt(self.outputs["csv"], delimiter=",", comments=("#", "path_id"))
        n_paths, n_points = values.shape
        if rows.shape != (n_paths * n_points, 3):
            return False
        return bool(
            np.array_equal(rows[:, 0], np.repeat(np.arange(n_paths), n_points))
            and np.array_equal(rows[:, 1], np.tile(times, n_paths))
            and np.array_equal(rows[:, 2], values.ravel())
        )


def make(name: str, seed: int, workdir: str, sizes: dict | None = None):
    """Build a workload's inputs; sizes override the full SIZES entry."""
    kw = dict(SIZES[name], **(sizes or {}))
    if name in ("mc-short", "mc-long"):
        return MonteCarlo(seed, **kw)
    if name == "law":
        return Law(seed, **kw)
    return Export(seed, workdir=workdir, **kw)
