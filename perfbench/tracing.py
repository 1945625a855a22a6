"""Outside-in spans for the traced benchmark run.

Spans are recorded by the benchmark around its calls into each ckls
module, kept in memory and read out after the job.  A span's self time is
its duration minus the union of the intervals its child spans cover, so
overlapping children from a thread pool are not counted twice.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from ckls import cli
from ckls.engine import NoiseMatrix

# Every span name the benchmark records; "job" is the root of one job and
# its self time is the job time covered by no layer span.
LAYERS = (
    "engine.noise",
    "engine.euler",
    "engine.explicit",
    "girsanov.kernel",
    "girsanov.estimate",
    "distribution.cdf",
    "distribution.pdf",
    "analysis.ks",
    "pathio.csv",
    "pathio.binary",
    "cli.simulate",
)


@dataclass
class Span:
    name: str
    start: float
    end: float = float("nan")
    parent: int | None = None


@dataclass
class Tracer:
    """In-memory span store for one job.

    Spans opened on a pool thread with no open span of their own take the
    innermost open span of the thread that created the tracer as parent:
    that thread is blocked in the call that submitted the work.
    """

    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._owner = self._stack()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent_stack = stack or self._owner
        parent = parent_stack[-1] if parent_stack else None
        with self._lock:
            idx = len(self.spans)
            self.spans.append(Span(name, time.perf_counter(), parent=parent))
        stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx].end = time.perf_counter()
            stack.pop()

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + value

    def duration(self, name: str) -> float:
        """Summed duration of the spans called name."""
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def self_time(self, name: str) -> float:
        """Wall time covered by spans called name and by none of their children."""
        own = [i for i, s in enumerate(self.spans) if s.name == name]
        owned = set(own)
        children = []
        for s in self.spans:
            if s.parent in owned:
                p = self.spans[s.parent]
                children.append((max(s.start, p.start), min(s.end, p.end)))
        return union_length([(self.spans[i].start, self.spans[i].end) for i in own]) - union_length(
            children
        )


def union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def traced_noise_class(tracer: Tracer) -> type:
    """A NoiseMatrix whose increments record an engine.noise span."""

    class TracedNoiseMatrix(NoiseMatrix):
        def increments(self, lo: int = 0, hi: int | None = None) -> np.ndarray:
            with tracer.span("engine.noise"):
                out = super().increments(lo, hi)
            tracer.add("engine.noise.rows", out.shape[0])
            tracer.add("engine.noise.normals", out.size)
            tracer.add("engine.blocks.count", 1)
            return out

    return TracedNoiseMatrix


@contextmanager
def traced_cli(tracer: Tracer):
    """Rebind the names ckls.cli imported to timed wrappers; restore them after."""
    saved = {k: getattr(cli, k) for k in ("NoiseMatrix", "euler_ckls", "write_paths_csv", "write_paths_binary")}

    def euler_ckls(p, grid, noise):
        with tracer.span("engine.euler"):
            paths = saved["euler_ckls"](p, grid, noise)
        tracer.add("engine.euler.path_steps", len(paths) * grid.n_steps)
        tracer.add("engine.euler.clamps", sum(path.truncations for path in paths))
        return paths

    def writer(name, fn):
        def write(dest, times, values, *args, **kwargs):
            with tracer.span(name):
                fn(dest, times, values, *args, **kwargs)
            tracer.add(f"{name}.bytes", os.path.getsize(dest))
            tracer.add(f"{name}.rows", np.size(values))

        return write

    cli.NoiseMatrix = traced_noise_class(tracer)
    cli.euler_ckls = euler_ckls
    cli.write_paths_csv = writer("pathio.csv", saved["write_paths_csv"])
    cli.write_paths_binary = writer("pathio.binary", saved["write_paths_binary"])
    try:
        yield
    finally:
        for k, v in saved.items():
            setattr(cli, k, v)


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer values of one traced job (counts added by the job itself)."""
    c = tracer.counts
    busy = {name: tracer.self_time(name) for name in LAYERS}
    job_s = tracer.duration("job")
    kernel_steps = c.get("girsanov.kernel.path_steps", 0)
    return {
        "trace.job_s": job_s,
        "trace.unattributed_s": tracer.self_time("job"),
        "engine.noise.busy_s": busy["engine.noise"],
        "engine.noise.share": _rate(busy["engine.noise"], job_s),
        "engine.noise.rows": c.get("engine.noise.rows", 0),
        # thread-seconds, so the rate is per thread when blocks overlap
        "engine.noise.normals_per_s": _rate(c.get("engine.noise.normals", 0), tracer.duration("engine.noise")),
        "engine.noise.bytes_computed": 8 * c.get("engine.noise.normals", 0),
        "engine.blocks.count": c.get("engine.blocks.count", 0),
        "girsanov.kernel.self_s": busy["girsanov.kernel"],
        "girsanov.kernel.path_steps_per_s": _rate(kernel_steps, busy["girsanov.kernel"]),
        "girsanov.kernel.clamps": c.get("girsanov.kernel.clamps", 0),
        "girsanov.kernel.clamp_frac": _rate(c.get("girsanov.kernel.clamps", 0), kernel_steps),
        "girsanov.estimate.busy_s": busy["girsanov.estimate"],
        "girsanov.estimate.ess_frac": c.get("girsanov.estimate.ess_frac", 0),
        "girsanov.estimate.log_weight_range": c.get("girsanov.estimate.log_weight_range", 0),
        "engine.euler.busy_s": busy["engine.euler"],
        "engine.euler.path_steps_per_s": _rate(c.get("engine.euler.path_steps", 0), busy["engine.euler"]),
        "engine.euler.clamps": c.get("engine.euler.clamps", 0),
        "engine.explicit.busy_s": busy["engine.explicit"],
        "engine.explicit.draws": c.get("engine.explicit.draws", 0),
        "distribution.cdf.busy_s": busy["distribution.cdf"],
        "distribution.cdf.points_per_s": _rate(c.get("distribution.cdf.points", 0), busy["distribution.cdf"]),
        "distribution.pdf.busy_s": busy["distribution.pdf"],
        "distribution.pdf.points_per_s": _rate(c.get("distribution.pdf.points", 0), busy["distribution.pdf"]),
        "analysis.ks.self_s": busy["analysis.ks"],
        "analysis.ks.samples": c.get("analysis.ks.samples", 0),
        "pathio.csv.busy_s": busy["pathio.csv"],
        "pathio.csv.bytes": c.get("pathio.csv.bytes", 0),
        "pathio.csv.rows_per_s": _rate(c.get("pathio.csv.rows", 0), busy["pathio.csv"]),
        "pathio.binary.busy_s": busy["pathio.binary"],
        "pathio.binary.bytes": c.get("pathio.binary.bytes", 0),
        "cli.simulate.self_s": busy["cli.simulate"],
    }
