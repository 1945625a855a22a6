"""ckls benchmark: one workload per process, timed end to end with tracing
off, or per layer in a separate traced run.

    python3 perfbench/run.py --workload mc-short --seed 1 --seconds 20 --trace 0

It imports the package from the `src/` directory beside this one and
refuses to run without it.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones.  README.md in this directory lists the workloads, the
metrics and which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("mc-short", "mc-long", "law", "export")

END_TO_END = {
    "job_s": "s",
    "throughput": "work/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_frac": "fraction",
}

PER_LAYER = {
    "engine.noise.busy_s": "s",
    "engine.noise.share": "fraction",
    "engine.noise.rows": "count",
    "engine.noise.normals_per_s": "1/s",
    "engine.noise.bytes_computed": "B",
    "engine.blocks.count": "count",
    "engine.blocks.parallel_efficiency": "fraction",
    "girsanov.kernel.self_s": "s",
    "girsanov.kernel.path_steps_per_s": "1/s",
    "girsanov.kernel.clamps": "count",
    "girsanov.kernel.clamp_frac": "fraction",
    "girsanov.estimate.busy_s": "s",
    "girsanov.estimate.ess_frac": "fraction",
    "girsanov.estimate.log_weight_range": "nat",
    "engine.euler.busy_s": "s",
    "engine.euler.path_steps_per_s": "1/s",
    "engine.euler.clamps": "count",
    "engine.explicit.busy_s": "s",
    "engine.explicit.draws": "count",
    "distribution.cdf.busy_s": "s",
    "distribution.cdf.points_per_s": "1/s",
    "distribution.pdf.busy_s": "s",
    "distribution.pdf.points_per_s": "1/s",
    "analysis.ks.self_s": "s",
    "analysis.ks.samples": "count",
    "pathio.csv.busy_s": "s",
    "pathio.csv.bytes": "B",
    "pathio.csv.rows_per_s": "1/s",
    "pathio.binary.busy_s": "s",
    "pathio.binary.bytes": "B",
    "cli.simulate.self_s": "s",
    "trace.job_s": "s",
    "trace.overhead_frac": "fraction",
    "trace.unattributed_s": "s",
}

SETUP_PROBES = 3   # fresh processes timed per run for setup_s
MIN_JOBS = 3       # so the median of job times drops one slow first job
# wall time of the reference work on one and on two threads, as measured
# on the 2-CPU host the benchmark was built on
NOMINAL_REF_S = {1: 0.20, 2: 0.33}


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: build the workload's inputs in a fresh process and print
    # the wall clock when the first job could start
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_program():
    """Import ckls from this checkout's src/, never from an installed copy."""
    if not (SRC / "ckls" / "__init__.py").is_file():
        raise SystemExit(f"error: no ckls source tree at {SRC}")
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import ckls

    if Path(ckls.__file__).resolve().parent != (SRC / "ckls").resolve():
        raise SystemExit(f"error: imported ckls from {ckls.__file__}, not from {SRC}")
    import workloads

    return workloads


def probe_setup(name: str, seed: int) -> float:
    """Seconds from spawning a fresh process until its first job could start."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
           "--seed", str(seed), "--seconds", "0", "--setup-probe"]
    started = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1]) - started


def run_metadata(workloads, name: str, sizes: dict) -> dict:
    import numpy
    import scipy

    def read(path: str) -> str:
        try:
            with open(path) as fh:
                return fh.read()
        except OSError:
            return ""

    cpu = next((ln.split(":", 1)[1].strip() for ln in read("/proc/cpuinfo").splitlines()
                if ln.startswith("model name")), platform.processor())
    cache = "/sys/devices/system/cpu/cpu0/cache/index{}/size"
    sizes = dict(workloads.SIZES[name], **sizes)
    return {
        "workload": name,
        "sizes": sizes,
        "workers": sizes.get("workers", 1),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "l2_cache": read(cache.format(2)).strip(),
        "l3_cache": read(cache.format(3)).strip(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "noise_stream": "per path numpy.random.default_rng([seed, i]): PCG64, ziggurat standard_normal",
        "bytes_computed_from_array_sizes": ["engine.noise.bytes_computed"],
        "bytes_measured_on_disk": ["pathio.csv.bytes", "pathio.binary.bytes"],
    }


def _reference_work() -> None:
    import io

    import numpy as np
    from scipy import special

    for i in range(2000):
        np.random.default_rng([12345, i]).standard_normal(16)
    x = np.linspace(0.1, 60.0, 40_000)
    special.gammainc(np.arange(1, 11)[:, None] + 0.5, x[None, :]).sum()
    acc = 0.0
    for i in range(500_000):
        acc += i * 0.5
    buf = io.StringIO()
    for i in range(25_000):
        buf.write(f"{i},{i * 0.1!r},{i * 0.37!r}\n")


def reference_seconds(threads: int = 1) -> float:
    """Wall time of fixed work that does not touch ckls, run on as many
    threads as the job uses.

    The work mixes, in about equal parts, the kinds of work the jobs do:
    numpy generator set-up, a special function over an array, an
    interpreter loop and float formatting.  The host's CPU speed swings by
    about 30 % over seconds to minutes; scaling each job by the reference
    work timed around it cancels part of that.  On two threads the copies
    contend for the interpreter lock and the second CPU as a two-worker
    job does.
    """
    started = time.perf_counter()
    if threads == 1:
        _reference_work()
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for future in [pool.submit(_reference_work) for _ in range(threads)]:
                future.result()
    return time.perf_counter() - started


def rescaled(times: list[float], refs: list[float], threads: int = 1) -> list[float]:
    """Each time scaled to the nominal speed by the reference timed before and after it."""
    nominal = NOMINAL_REF_S[threads]
    return [t * nominal / (0.5 * (before + after)) for t, before, after in zip(times, refs, refs[1:])]


def check_repeats(outcomes, gates: list) -> None:
    gates += [o.digest == outcomes[0].digest for o in outcomes[1:]]
    for o in outcomes:
        gates += list(o.gates.values())


def run_untraced(wl, seconds: float, gates: list) -> dict:
    threads = wl.workers
    outcomes, refs = [], [reference_seconds(threads)]
    started = time.perf_counter()
    while len(outcomes) < MIN_JOBS or time.perf_counter() - started < seconds:
        outcomes.append(wl.job())
        refs.append(reference_seconds(threads))
    check_repeats(outcomes, gates)
    times = [o.seconds for o in outcomes]
    job_s = statistics.median(rescaled(times, refs, threads))
    return {
        "job_s": job_s,
        "throughput": wl.work / job_s,
        "jobs": len(times),
        "job_wall_s": statistics.median(times),
        "job_times_s": times,
        "reference_s": refs,
        "digest": outcomes[0].digest,
        "notes": outcomes[0].notes,
    }


def run_traced(wl, seconds: float, gates: list) -> dict:
    """Alternate untraced and traced jobs, swapping which goes first each
    round; layer values come from the traced job of median duration, so
    they add up to its job time."""
    from tracing import Tracer, layer_metrics

    plain, traced = [], []
    started = time.perf_counter()
    while not traced or time.perf_counter() - started < seconds:
        traced_first = len(plain) % 2 == 1
        if traced_first:
            tracer = Tracer()
            traced.append((wl.job(tracer), tracer))
        plain.append(wl.job())
        if not traced_first:
            tracer = Tracer()
            traced.append((wl.job(tracer), tracer))
    check_repeats(plain + [o for o, _ in traced], gates)
    traced.sort(key=lambda item: item[0].seconds)
    outcome, tracer = traced[(len(traced) - 1) // 2]
    metrics = layer_metrics(tracer)
    metrics["trace.overhead_frac"] = (
        statistics.median(o.seconds for o, _ in traced) / statistics.median(o.seconds for o in plain) - 1.0
    )
    metrics["engine.blocks.parallel_efficiency"] = 0.0
    if wl.workers > 1:
        one = Tracer()
        single = wl.job(one, workers=1)
        gates.append(single.digest == outcome.digest)
        metrics["engine.blocks.parallel_efficiency"] = one.duration("girsanov.kernel") / (
            2.0 * tracer.duration("girsanov.kernel")
        )
    return {"metrics": metrics, "jobs": len(traced), "digest": outcome.digest}


def measure_setup(name: str, seed: int, probes: int) -> tuple[float, list[float]]:
    """Median rescaled setup time over fresh processes, and their wall times."""
    reference_seconds()  # warm-up
    setup, refs = [], [reference_seconds()]
    for _ in range(probes):
        setup.append(probe_setup(name, seed))
        refs.append(reference_seconds())
    return statistics.median(rescaled(setup, refs)), setup


def measure(name: str, seed: int, seconds: float, trace: int, sizes: dict | None = None,
            probes: int = SETUP_PROBES) -> tuple[dict, dict]:
    """Run one workload; returns (result line, run metadata)."""
    workloads = import_program()
    gates: list[bool] = []
    meta = run_metadata(workloads, name, sizes or {})
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        wl = workloads.make(name, seed, workdir, sizes)
        if trace:
            out = run_traced(wl, seconds, gates)
            values = out.pop("metrics")
            units = PER_LAYER
        else:
            setup_s, meta["setup_wall_s"] = measure_setup(name, seed, probes)
            out = run_untraced(wl, seconds, gates)
            values = {
                "job_s": out["job_s"],
                "throughput": out["throughput"],
                "setup_s": setup_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "pass_frac": sum(gates) / len(gates),
            }
            units = END_TO_END
    failed = gates.count(False)
    meta.update(out, seed=seed, failed_frac=failed / len(gates))
    result = {
        "correct": failed == 0,
        "attempted": len(gates),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    return result, meta


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        workloads = import_program()
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
            workloads.make(args.workload, args.seed, workdir)
            print(repr(time.time()))
        return 0
    result, meta = measure(args.workload, args.seed, args.seconds, args.trace)
    print("meta " + json.dumps(meta, sort_keys=True, default=float))
    for k, m in result["metrics"].items():
        print(f"{k} = {m['value']!r} {m['unit']}")
    print(f"failed_frac = {meta['failed_frac']!r} ({result['failed']} of {result['attempted']} gates)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
