"""Smoke test of the benchmark itself at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY = {
    "mc-short": {"n_paths": 64, "n_steps": 8},
    # two 8192-path blocks, so the worker pool really runs two threads
    "mc-long": {"n_paths": 9000, "n_steps": 4},
    "law": {"n_draws": 5000, "n_grid": 64},
    "export": {"n_paths": 50, "n_steps": 8},
}

SELF_TIMES = [
    "engine.noise.busy_s", "engine.euler.busy_s", "engine.explicit.busy_s",
    "girsanov.kernel.self_s", "girsanov.estimate.busy_s", "distribution.cdf.busy_s",
    "distribution.pdf.busy_s", "analysis.ks.self_s", "pathio.csv.busy_s",
    "pathio.binary.busy_s", "cli.simulate.self_s",
]


def test_spec_matches_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert max(SPEC["end_to_end"], key=lambda m: m["bound"])["name"] == "setup_s"


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_metrics_gates_and_trace_invariance(name):
    plain, plain_meta = run.measure(name, 11, 0, 0, TINY[name], probes=1)
    traced, traced_meta = run.measure(name, 11, 0, 1, TINY[name])
    for result, units in ((plain, run.END_TO_END), (traced, run.PER_LAYER)):
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert result["metrics"] == {
            k: {"value": result["metrics"][k]["value"], "unit": u} for k, u in units.items()
        }
        json.dumps(result, allow_nan=False)
    assert all(plain["metrics"][k]["value"] > 0 for k in run.END_TO_END)
    # reading timings must not change results
    assert traced_meta["digest"] == plain_meta["digest"]
    layer = {k: m["value"] for k, m in traced["metrics"].items()}
    accounted = sum(layer[k] for k in SELF_TIMES) + layer["trace.unattributed_s"]
    assert accounted == pytest.approx(layer["trace.job_s"], rel=1e-6, abs=1e-9)
    assert (layer["engine.blocks.parallel_efficiency"] > 0) == (name == "mc-long")


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "law", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
