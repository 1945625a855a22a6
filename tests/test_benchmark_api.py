"""The calls the benchmark in perfbench/ makes into ckls still work.

Each workload is built by perfbench's own workloads.make at the TINY
sizes of perfbench/test_smoke.py and runs one untraced job, whose gates
must all hold.  A change to a signature or name the benchmark uses (a
parameter of simulate_weighted, a name tracing.traced_cli rebinds in
ckls.cli) fails here.  So does a change that breaks one of the per-layer
benchmarks in benchmarks/, which are run once here with timing off.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from ckls import cli  # noqa: E402
from test_smoke import TINY  # noqa: E402


@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_job_passes_its_gates(name, tmp_path):
    job = workloads.make(name, 11, str(tmp_path), TINY[name])
    outcome = job.job()
    assert outcome.gates and all(outcome.gates.values()), outcome.gates


def test_traced_cli_rebinds_and_restores_cli_names():
    before = {k: getattr(cli, k) for k in vars(cli)}
    with tracing.traced_cli(tracing.Tracer()):
        assert cli.NoiseMatrix is not before["NoiseMatrix"]
    assert {k: getattr(cli, k) for k in vars(cli)} == before


def test_layer_benchmarks_run():
    """benchmarks/test_layers.py as `python -m pytest benchmarks
    --benchmark-disable` runs it from the repo root: every case once."""
    res = subprocess.run(
        [sys.executable, "-m", "pytest", "benchmarks", "--benchmark-disable", "-q",
         "-p", "no:cacheprovider"],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert res.returncode == 0, res.stdout[-4000:] + res.stderr[-2000:]
