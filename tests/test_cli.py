"""End-to-end command-line behavior: exit codes, file outputs, determinism."""

import json
import subprocess
import sys

import numpy as np
import pytest
import scipy

from ckls import CklsParams, verify
from ckls.cli import SIM_MODES, main
from ckls.engine import NoiseMatrix
from ckls.pathio import read_paths_binary

# The bytes every simulate summary and verify report print as noise_stream,
# spelled out so that no rename in the library can move them unnoticed.
NOISE_RULE_V2 = (
    "v2: per-block numpy Generator(PCG64(SeedSequence(seed, spawn_key=(k,)))) "
    "for rows [1024k, 1024(k+1)): ziggurat standard_normal, row-major"
)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "ckls.cli", *args],
        capture_output=True,
        text=True,
    )


def write_config(tmp_path, name="cfg.json", **overrides):
    obj = {
        "params": {"a": 1.0, "b": 0.2, "sigma": 0.5, "gamma": 1.5, "r0": 1.0, "C": 1.0},
        "grid": {"t_end": 0.5, "n_steps": 64},
        "n_paths": 40,
        "seed": 42,
    }
    params = overrides.pop("params", None)
    if params:
        obj["params"].update(params)
    obj.update(overrides)
    dest = tmp_path / name
    dest.write_text(json.dumps(obj))
    return str(dest)


class TestRegimeCommand:
    def test_high_gamma_exit_zero(self, tmp_path):
        res = run_cli("--config", write_config(tmp_path), "regime")
        assert res.returncode == 0
        assert json.loads(res.stdout)["girsanov_branch"] == "HighGamma"

    def test_gamma_one_is_usage_error(self, tmp_path):
        cfg = write_config(tmp_path, params={"gamma": 1.0})
        res = run_cli("--config", cfg, "regime")
        assert res.returncode == 1
        assert "power transform is undefined" in res.stderr

    def test_hypothesis_violation_exit_two(self, tmp_path):
        cfg = write_config(tmp_path, params={"gamma": 0.75, "sigma": 1.0})
        res = run_cli("--config", cfg, "regime")
        assert res.returncode == 2
        assert json.loads(res.stdout)["girsanov_valid"] is False

    def test_malformed_config_exit_one(self, tmp_path):
        cfg = write_config(tmp_path, bogus=1)
        res = run_cli("--config", cfg, "regime")
        assert res.returncode == 1
        assert "unknown key" in res.stderr

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exit_one(self, tmp_path, workers):
        cfg = write_config(tmp_path)
        res = run_cli("--config", cfg, "--workers", workers, "verify", "--suite", "transform")
        assert res.returncode == 1
        assert "--workers must be >= 1" in res.stderr


class TestSimulateCommand:
    def test_explicit_mode_deterministic_single_value(self, tmp_path):
        cfg = write_config(tmp_path, n_paths=1)
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            res = run_cli("--config", cfg, "--out", str(out), "simulate", "--mode", "explicit-q")
            assert res.returncode == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_euler_mode_writes_paths_and_summary(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "paths.csv"
        res = run_cli("--config", cfg, "--out", str(out), "simulate", "--mode", "euler-p")
        assert res.returncode == 0
        summary = json.loads((tmp_path / "paths.csv.summary.json").read_text())
        assert summary["mode"] == "euler-p"
        assert "truncations" in summary
        assert summary["noise_stream"] == NOISE_RULE_V2
        assert summary["numpy_version"] == np.__version__
        assert summary["scipy_version"] == scipy.__version__
        assert summary["config"]["params"]["gamma"] == 1.5
        rows = [
            line for line in out.read_text().splitlines()
            if not line.startswith(("#", "path_id"))
        ]
        assert len(rows) == 40 * 65

    @pytest.mark.parametrize("fmt", ["csv", "binary"])
    def test_euler_mode_writes_the_stacked_euler_ckls_paths(self, tmp_path, capsys, fmt):
        """The bytes and the clamp count of simulate --mode euler-p equal
        those of euler_ckls' value matrix, written by the same writer, on a
        set that clamps."""
        from ckls import cli, euler_ckls
        from ckls.config import load_config
        from ckls.pathio import write_paths_binary, write_paths_csv

        out = tmp_path / f"cli.{fmt}"
        cfg_path = write_config(
            tmp_path, params={"a": 0.5, "b": 5.0, "sigma": 0.5, "gamma": 0.5, "r0": 0.01},
            n_paths=300, grid={"t_end": 0.5, "n_steps": 16},
            output={"format": fmt, "path": str(out)},
        )
        assert cli.main(["--config", cfg_path, "simulate", "--mode", "euler-p"]) == 0
        summary = json.loads(capsys.readouterr().out)
        cfg = load_config(cfg_path)
        values, exits = euler_ckls(
            cfg.params, cfg.grid, NoiseMatrix(cfg.seed, cfg.n_paths, cfg.grid)
        )
        expected = tmp_path / f"expected.{fmt}"
        if fmt == "csv":
            metadata = {"config": cli._echo_config(cfg)}
            write_paths_csv(expected, cfg.grid.times, values, metadata=metadata)
        else:
            write_paths_binary(expected, cfg.grid.times, values)
        assert out.read_bytes() == expected.read_bytes()
        assert summary["truncations"] == exits.sum() > 0

    def test_small_vol_terminal_mean_near_closed_form(self, tmp_path):
        from ckls import CklsParams, mean_rate

        cfg = write_config(
            tmp_path, params={"sigma": 0.01}, n_paths=4000, grid={"t_end": 0.5, "n_steps": 128}
        )
        out = tmp_path / "p.bin"
        res = run_cli(
            "--config", cfg, "--out", str(out), "simulate", "--mode", "euler-p"
        )
        assert res.returncode == 0
        # config declares csv; rewrite as binary for the read-back check
        cfg2 = write_config(
            tmp_path, "cfg2.json",
            params={"sigma": 0.01}, n_paths=4000,
            grid={"t_end": 0.5, "n_steps": 128},
            output={"format": "binary", "path": str(tmp_path / "p2.bin")},
        )
        res = run_cli("--config", cfg2, "simulate", "--mode", "euler-p")
        assert res.returncode == 0
        _, values = read_paths_binary(tmp_path / "p2.bin")
        p = CklsParams(a=1.0, b=0.2, sigma=0.01, gamma=1.5, r0=1.0)
        terminal = values[:, -1]
        se = terminal.std(ddof=1) / np.sqrt(terminal.size)
        assert abs(terminal.mean() - mean_rate(p, 0.5)) <= 3.0 * max(se, 1e-6)

    def test_auxiliary_mode_echoes_variant(self, tmp_path):
        cfg = write_config(tmp_path, aux_variant="paper", params={"gamma": 0.75})
        out = tmp_path / "aux.csv"
        res = run_cli("--config", cfg, "--out", str(out), "simulate", "--mode", "auxiliary")
        assert res.returncode == 0
        summary = json.loads((tmp_path / "aux.csv.summary.json").read_text())
        assert summary["variant"] == "paper"
        assert "floor_fraction" in summary

    HIGH = {"a": 1.0, "b": 0.2, "sigma": 0.5, "gamma": 1.5, "r0": 1.0}
    CLAMPING = {"a": 0.5, "b": 5.0, "sigma": 0.5, "gamma": 0.5, "r0": 0.01}

    @pytest.mark.parametrize(
        "params,variant,t_end,floor_hits,blowups,min_over_paths",
        [
            (HIGH, "derived", 2.0, 0, 16, 0.006522466689886208),
            (HIGH, "paper", 2.0, 0, 46, 0.05246387087103521),
            (CLAMPING, "derived", 0.5, 887, 0, 1e-12),
        ],
        ids=["high-derived", "high-paper", "clamping-derived"],
    )
    def test_auxiliary_mode_summary_counts(
        self, tmp_path, capsys, params, variant, t_end, floor_hits, blowups, min_over_paths
    ):
        """The exit counts of simulate --mode auxiliary at seed 2024, 3000
        paths of 16 steps: gamma > 1 exits are blowups, gamma < 1 exits
        floor hits, each path counted at most once."""
        from ckls import cli

        cfg = write_config(
            tmp_path, params=params, aux_variant=variant, seed=2024, n_paths=3000,
            grid={"t_end": t_end, "n_steps": 16}, output={"path": str(tmp_path / "aux.csv")},
        )
        assert cli.main(["--config", cfg, "simulate", "--mode", "auxiliary"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["variant"] == variant
        assert summary["floor_hits"] == floor_hits
        assert summary["floor_fraction"] == floor_hits / 3000
        assert summary["blowups"] == blowups
        assert summary["blowup_fraction"] == blowups / 3000
        assert summary["min_over_paths"] == min_over_paths

    @pytest.mark.parametrize("mode", ["euler-p", "auxiliary"])
    def test_workers_reach_the_euler_blocks(self, tmp_path, capsys, monkeypatch, mode):
        """--workers is the thread count of simulate's Euler run, as of
        verify's."""
        from ckls import cli, engine

        seen = []

        def spy(*args, **kwargs):
            seen.append(kwargs["workers"])
            return map_noise_blocks(*args, **kwargs)

        map_noise_blocks = engine.map_noise_blocks
        monkeypatch.setattr(engine, "map_noise_blocks", spy)
        cfg = write_config(tmp_path, output={"path": str(tmp_path / "p.csv")})
        assert cli.main(["--config", cfg, "--workers", "3", "simulate", "--mode", mode]) == 0
        assert seen == [3]

    @pytest.mark.parametrize(
        "override",
        [
            ["--seed", "-1"],
            ["--seed", str(2**64)],
            ["--n-paths", "0"],
            ["--n-steps", "0"],
            ["--t-end", "nan"],
        ],
        ids=["seed-negative", "seed-2^64", "n-paths-0", "n-steps-0", "t-end-nan"],
    )
    def test_invalid_override_is_a_config_error(self, tmp_path, override):
        """A command-line override is validated like the config value it
        replaces: a one-line error and exit 1, not a traceback."""
        global_opts, sim_opts = (override, []) if override[0] == "--seed" else ([], override)
        cfg = write_config(tmp_path, output={"path": str(tmp_path / "p.csv")})
        res = run_cli("--config", cfg, *global_opts, "simulate", *sim_opts)
        assert res.returncode == 1
        assert res.stderr.startswith("error:")
        assert "Traceback" not in res.stderr
        assert not (tmp_path / "p.csv").exists()

    def test_cir_exact_mode(self, tmp_path):
        cfg = write_config(tmp_path, n_paths=500)
        out = tmp_path / "levels.csv"
        res = run_cli("--config", cfg, "--out", str(out), "simulate", "--mode", "cir-exact")
        assert res.returncode == 0
        rows = [
            float(line.split(",")[2])
            for line in out.read_text().splitlines()
            if not line.startswith(("#", "path_id"))
        ]
        assert len(rows) == 500 and all(v > 0 for v in rows)

    def test_cir_exact_mode_draws_the_squared_gaussian(self, tmp_path):
        """sigma = 0.3, gamma = 1.1 at the default C: the derived law has
        df = 1, so the levels are scale (Z + sqrt(nonc))^2 with Z path i's
        standard normal, row i of the noise rule on a unit one-step grid."""
        from ckls import CklsParams, TimeGrid, derive_cir, make_transform, transition_spec

        params = {"sigma": 0.3, "gamma": 1.1, "C": None}
        out = tmp_path / "levels.bin"
        cfg = write_config(tmp_path, params=params, n_paths=200,
                           output={"format": "binary", "path": str(out)})
        res = run_cli("--config", cfg, "simulate", "--mode", "cir-exact")
        assert res.returncode == 0
        _, values = read_paths_binary(out)
        p = CklsParams(a=1.0, b=0.2, sigma=0.3, gamma=1.1, r0=1.0)
        spec = transition_spec(p, derive_cir(p, make_transform(p)), 0.5)
        z = NoiseMatrix(42, 200, TimeGrid(1.0, 1)).increments()[:, 0]
        np.testing.assert_array_equal(values[:, 0], spec.scale * (z + np.sqrt(spec.nonc)) ** 2)


class TestOneNoiseRule:
    """Every simulate mode draws path i from row i of NoiseMatrix under
    the one rule; the closed-form modes use one standard normal a path."""

    @staticmethod
    def simulate(tmp_path, capsys, mode, *opts, name="out.bin", **overrides):
        """Run simulate in-process to a binary file: (summary, values)."""
        from ckls import cli

        out = tmp_path / name
        cfg = write_config(tmp_path, name=f"{name}.json",
                           output={"format": "binary", "path": str(out)}, **overrides)
        assert cli.main(["--config", cfg, *opts, "simulate", "--mode", mode]) == 0
        summary = json.loads(capsys.readouterr().out)
        return summary, read_paths_binary(out)[1]

    @pytest.mark.parametrize("mode", SIM_MODES)
    def test_every_mode_echoes_the_rule(self, tmp_path, capsys, mode):
        summary, _ = self.simulate(tmp_path, capsys, mode)
        assert summary["noise_stream"] == NOISE_RULE_V2
        assert "singular_resamples" not in summary

    @pytest.mark.parametrize("t_end", [0.5, 3.0])
    @pytest.mark.parametrize("gamma", [0.6, 0.75, 1.5, 3.0])
    def test_cir_exact_is_f_of_explicit_q(self, tmp_path, capsys, gamma, t_end):
        """On the same normals the level is f of the rate, path by path."""
        from ckls import CklsParams, make_transform

        opts = {"params": {"gamma": gamma, "C": None}, "n_paths": 3000,
                "grid": {"t_end": t_end, "n_steps": 1}}
        _, rates = self.simulate(tmp_path, capsys, "explicit-q", name="q.bin", **opts)
        _, levels = self.simulate(tmp_path, capsys, "cir-exact", name="y.bin", **opts)
        p = CklsParams(a=1.0, b=0.2, sigma=0.5, gamma=gamma, r0=1.0)
        np.testing.assert_allclose(levels, make_transform(p).f(rates), rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("mode", ["explicit-q", "cir-exact"])
    def test_path_i_does_not_depend_on_the_path_count(self, tmp_path, capsys, mode):
        """1500 paths cross the first 1024-row stream block."""
        _, few = self.simulate(tmp_path, capsys, mode, name="few.bin", n_paths=1500)
        _, many = self.simulate(tmp_path, capsys, mode, name="many.bin", n_paths=3000)
        np.testing.assert_array_equal(many[:1500], few)

    @pytest.mark.parametrize("mode", ["explicit-q", "cir-exact"])
    def test_path_i_does_not_depend_on_workers(self, tmp_path, capsys, mode):
        _, one = self.simulate(tmp_path, capsys, mode, "--workers", "1", name="w1.bin",
                               n_paths=3000)
        _, three = self.simulate(tmp_path, capsys, mode, "--workers", "3", name="w3.bin",
                                 n_paths=3000)
        np.testing.assert_array_equal(one, three)

    def test_singular_sample_is_one_line(self, tmp_path, capsys, monkeypatch):
        """A zero base is not redrawn: the error ends the run in one line."""
        from ckls import SingularSample, cli

        def singular(*args):
            raise SingularSample("explicit solution hit a zero base; resample")

        monkeypatch.setattr(cli, "explicit_rate", singular)
        out = tmp_path / "q.csv"
        cfg = write_config(tmp_path, output={"path": str(out)})
        assert cli.main(["--config", cfg, "simulate", "--mode", "explicit-q"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", [["density"], ["simulate", "--mode", "cir-exact"]])
    def test_long_horizon_is_one_line(self, tmp_path, command):
        """LOW at t = 7200: the level law's scale is past the float range."""
        cfg = write_config(tmp_path, params={"gamma": 0.75, "C": None},
                           grid={"t_end": 7200.0, "n_steps": 4},
                           output={"path": str(tmp_path / "out.csv")})
        res = run_cli("--config", cfg, *command)
        assert res.returncode == 1
        assert res.stderr.startswith("error:") and res.stderr.count("\n") == 1
        assert "t = 7200.0" in res.stderr and "Traceback" not in res.stderr


class TestDensityCommand:
    def test_byte_identical_runs_and_headers(self, tmp_path):
        cfg = write_config(tmp_path)
        outs = []
        for name in ("d1.csv", "d2.csv"):
            out = tmp_path / name
            res = run_cli("--config", cfg, "--out", str(out), "density")
            assert res.returncode == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        text = outs[0].decode()
        for key in ("# delta_rule:", "# t:", "# scale:", "# df:", "# nonc:"):
            assert key in text

    def test_emitted_density_normalizes(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "dens.csv"
        res = run_cli("--config", cfg, "--out", str(out), "density", "--x-points", "2048")
        assert res.returncode == 0
        xs, pdf = [], []
        for line in out.read_text().splitlines():
            if line.startswith(("#", "x,")):
                continue
            x, d, _ = line.split(",")
            xs.append(float(x))
            pdf.append(float(d))
        assert abs(np.trapezoid(pdf, xs) - 1.0) < 1e-3

    def test_delta_rule_changes_output(self, tmp_path):
        cfg_d = write_config(tmp_path, "d.json", params={"C": 2.0}, delta_rule="derived")
        cfg_p = write_config(tmp_path, "p.json", params={"C": 2.0}, delta_rule="paper")
        out_d, out_p = tmp_path / "outd.csv", tmp_path / "outp.csv"
        assert run_cli("--config", cfg_d, "--out", str(out_d), "density").returncode == 0
        assert run_cli("--config", cfg_p, "--out", str(out_p), "density").returncode == 0
        td, tp = out_d.read_text(), out_p.read_text()
        assert "# delta_rule: derived" in td and "# delta_rule: paper" in tp
        assert "# df: 1.0" in td and "# df: 4.0" in tp
        assert td.splitlines()[8] != tp.splitlines()[8]

    def test_rows_are_per_value_repr(self, tmp_path):
        """Each row is f"{x!r},{pdf!r},{cdf!r}", also in the tails, where
        pdf values below 1e-4 take repr's exponent form."""
        from ckls import CklsParams, make_transform
        from ckls.distribution import rate_cdf, rate_density, transition_spec
        from ckls.transform import derive_cir

        cfg = write_config(tmp_path)
        out = tmp_path / "dens.csv"
        args = ("--x-min", "0.05", "--x-max", "20", "--x-points", "64")
        assert run_cli("--config", cfg, "--out", str(out), "density", *args).returncode == 0
        p = CklsParams(a=1.0, b=0.2, sigma=0.5, gamma=1.5, r0=1.0)
        tr = make_transform(p, 1.0)
        spec = transition_spec(p, derive_cir(p, tr), 0.5)
        xs = np.geomspace(0.05, 20.0, 64)
        pdf, cdf = rate_density(p, tr, spec, xs), rate_cdf(p, tr, spec, xs)
        assert ((0 < pdf) & (pdf < 1e-4)).sum() >= 5
        rows = [f"{x!r},{d!r},{c!r}" for x, d, c in zip(xs.tolist(), pdf.tolist(), cdf.tolist())]
        assert out.read_text().splitlines()[7:] == rows

    def test_derived_law_takes_the_df_one_form(self, tmp_path):
        """sigma = 0.3, gamma = 1.5, C = 3, where 4 drift_const / vol^2
        rounds to 1.0000000000000002: the derived law prints df 1.0, and
        the cdf column is 1 minus the squared-Gaussian distribution
        function at f(x) / scale, bit for bit, not chndtr's."""
        from scipy import special

        from ckls import Transform

        cfg = write_config(tmp_path, params={"sigma": 0.3, "gamma": 1.5, "C": 3.0})
        out = tmp_path / "dens.csv"
        res = run_cli("--config", cfg, "--out", str(out), "density", "--x-points", "64")
        assert res.returncode == 0
        lines = out.read_text().splitlines()
        header = dict(line[2:].split(": ", 1) for line in lines if line.startswith("# "))
        assert header["df"] == "1.0"
        scale, nonc = float(header["scale"]), float(header["nonc"])
        x, cdf = np.array([
            [float(v) for v in line.split(",")[::2]] for line in lines
            if not line.startswith(("#", "x,"))
        ]).T
        s = np.sqrt(Transform(c=3.0, gamma=1.5).f(x) / scale)
        r = np.sqrt(nonc)
        np.testing.assert_array_equal(cdf, 1.0 - (special.ndtr(s - r) - special.ndtr(-s - r)))

    def test_regime_violation_exit_two(self, tmp_path):
        cfg = write_config(tmp_path, params={"gamma": 0.75, "sigma": 1.0})
        res = run_cli("--config", cfg, "density")
        assert res.returncode == 2

    @pytest.mark.parametrize("args", [
        ("--x-points", "-1"), ("--x-points", "0"), ("--x-min", "0"), ("--x-min", "-1"),
        ("--x-min", "nan"), ("--x-max", "inf"), ("--x-min", "2", "--x-max", "1"),
    ], ids=lambda a: "".join(a))
    def test_bad_grid_is_a_config_error(self, tmp_path, args):
        """One line on stderr, exit 1, and no table written."""
        cfg = write_config(tmp_path)
        out = tmp_path / "dens.csv"
        res = run_cli("--config", cfg, "--out", str(out), "density", *args)
        assert res.returncode == 1
        assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1
        assert "Traceback" not in res.stderr and res.stdout == ""
        assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "density"])
def test_c_past_float_range_is_a_config_error(tmp_path, command):
    """A 401-digit JSON int for C: one short error line, naming C's size,
    and exit 1."""
    out = tmp_path / "out.csv"
    res = run_cli("--config", write_config(tmp_path, params={"C": 10**400}), "--out", str(out), command)
    assert res.returncode == 1
    assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1
    assert "C must be finite, got an int of 1329 bits" in res.stderr
    assert len(res.stderr) < 100
    assert "Traceback" not in res.stderr and res.stdout == ""
    assert not out.exists()


class TestVerifyCommand:
    def test_unknown_suite_exit_one(self, tmp_path):
        cfg = write_config(tmp_path)
        res = run_cli("--config", cfg, "verify", "--suite", "everything")
        assert res.returncode == 1
        assert json.loads(res.stdout) == {
            "error": "unknown suite 'everything'",
            "known": [
                "default", "delta-arbitration", "determinism", "explicit-law", "ladder",
                "martingale", "mean", "measure-consistency", "moments", "ncx2", "scale",
                "transform",
            ],
        }

    def test_transform_suite_passes(self, tmp_path):
        cfg = write_config(tmp_path)
        res = run_cli("--config", cfg, "verify", "--suite", "transform")
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["noise_stream"] == NOISE_RULE_V2
        assert payload["numpy_version"] == np.__version__
        assert payload["scipy_version"] == scipy.__version__
        assert payload["checks"][0]["name"] == "transform-identities"
        assert payload["checks"][0]["status"] == "pass"

    def test_delta_arbitration_suite_reports_both(self, tmp_path):
        cfg = write_config(tmp_path, params={"C": 2.0}, n_paths=100)
        res = run_cli("--config", cfg, "verify", "--suite", "delta-arbitration")
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        check = payload["checks"][0]
        assert check["status"] == "pass"
        assert check["details"]["better_fit"] == "derived"
        assert set(check["details"]["results"]) == {"derived", "paper"}

    def test_ladder_suite(self, tmp_path):
        cfg = write_config(tmp_path)
        res = run_cli("--config", cfg, "verify", "--suite", "ladder")
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        errs = payload["checks"][0]["details"]["errors"]
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_default_suite_on_reference_set_exits_zero(self, tmp_path, monkeypatch):
        """The full default suite, in-process: asserted checks all pass,
        the measure-consistency check among them.  It simulates one
        weighted run for martingale and measure-consistency and one Euler
        snapshot run for mean and moments (determinism's three weighted
        runs are its own); run alone, either sharing check gives the same
        report but for its time and reused_run, and no run outlives the
        call."""
        runs = {"simulate_weighted": 0, "euler_blocks": 0}
        for name in runs:
            def spy(*args, _name=name, _run=getattr(verify, name), **kwargs):
                runs[_name] += 1
                return _run(*args, **kwargs)

            monkeypatch.setattr(verify, name, spy)
        cfg = write_config(tmp_path)
        out = tmp_path / "report.json"
        assert main(["--config", cfg, "--out", str(out), "verify", "--suite", "default"]) == 0
        assert runs == {"simulate_weighted": 4, "euler_blocks": 1}
        payload = json.loads(out.read_text())
        by_name = {c["name"]: c for c in payload["checks"]}
        assert by_name["measure-consistency"]["status"] == "pass"
        assert by_name["measure-consistency"]["details"]["passes_closed_form_target"]
        asserted = [c for c in payload["checks"] if c["status"] != "report"]
        assert asserted and all(c["status"] == "pass" for c in asserted)

        def untimed(report: dict) -> dict:
            details = {k: v for k, v in report["details"].items() if k != "reused_run"}
            return {**report, "details": details, "elapsed_seconds": None}

        p = CklsParams(a=1.0, b=0.2, sigma=0.5, gamma=1.5, r0=1.0)
        for suite, name, maker in (("measure-consistency", "measure-consistency", "martingale"),
                                   ("moments", "moment-bounds", "closed-form-mean")):
            assert by_name[name]["details"]["reused_run"]
            assert not by_name[maker]["details"]["reused_run"]
            (alone,) = verify.run_suite(suite, p, c=1.0, seed=42)
            alone = json.loads(json.dumps(alone.to_dict(), default=float))
            assert not alone["details"]["reused_run"]
            assert untimed(alone) == untimed(by_name[name])
        assert runs == {"simulate_weighted": 5, "euler_blocks": 2}
        for _ in range(2):
            verify.check_martingale(p, n_steps=16, n_paths=200, seed=42)
        assert runs["simulate_weighted"] == 7
