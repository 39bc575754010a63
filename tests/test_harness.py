import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import massboost.booster as booster
from massboost import ConfigParse, emit_metrics, run_experiment
from massboost.harness import build_instance, load_config, parse_config

ROOT = Path(__file__).resolve().parent.parent

CONFIG_SMALL = """
# tiny rectangle benchmark driven by the true concept
distribution = rect_grid
rect_d = 2
rect_k = 1
rect_side = 20
noise_profile = rcn
weak_learner = concept
eta = 0.1
alpha = 0.1
gamma = 0.1
epsilon = 0.15
delta = 0.1
sample_scale = 0.02
mode = exact
seeds = 0..2
"""


class TestConfigParsing:
    def test_parse_happy_path(self):
        cfg = parse_config(CONFIG_SMALL)
        assert cfg.distribution == "rect_grid"
        assert cfg.seeds == (0, 1, 2)
        assert cfg.eta == 0.1
        assert cfg.params["rect_side"] == "20"

    def test_missing_key_diagnostic(self):
        with pytest.raises(ConfigParse) as err:
            parse_config("distribution = rect_grid\n")
        assert "missing required" in str(err.value)

    def test_bad_line_diagnostic(self):
        with pytest.raises(ConfigParse) as err:
            parse_config("distribution rect_grid\n", source="cfg.txt")
        assert "cfg.txt:1" in str(err.value)

    def test_bad_field_value(self):
        with pytest.raises(ConfigParse) as err:
            parse_config(CONFIG_SMALL.replace("eta = 0.1", "eta = abc"))
        assert "eta" in str(err.value)

    def test_seed_list_forms(self):
        assert parse_config(CONFIG_SMALL.replace("seeds = 0..2", "seeds = 3, 5, 9")).seeds == (3, 5, 9)
        assert parse_config(CONFIG_SMALL.replace("seeds = 0..2", "seeds =")).seeds == ()


class TestRunExperiment:
    def test_report_fields_and_determinism(self):
        cfg = parse_config(CONFIG_SMALL)
        rep1 = run_experiment(cfg)
        rep2 = run_experiment(cfg)
        assert rep1.to_json_dict() == rep2.to_json_dict()
        assert rep1.success_fraction == 1.0
        assert all(r.ok for r in rep1.results)
        assert all(r.lerr <= 0.25 for r in rep1.results)

    def test_instance_build_deterministic(self):
        cfg = parse_config(CONFIG_SMALL)
        d1, _, _ = build_instance(cfg, 5)
        d2, _, _ = build_instance(cfg, 5)
        assert np.array_equal(d1.f, d2.f)
        assert np.array_equal(d1.eta, d2.eta)

    def test_empty_seed_list(self):
        cfg = parse_config(CONFIG_SMALL.replace("seeds = 0..2", "seeds ="))
        rep = run_experiment(cfg)
        assert rep.results == []
        assert rep.success_fraction == 0.0

    def test_thread_pool_matches_sequential(self, monkeypatch):
        cfg = parse_config(CONFIG_SMALL)
        seq = run_experiment(cfg).to_json_dict()
        monkeypatch.setenv("MB_THREADS", "2")
        par = run_experiment(cfg).to_json_dict()
        assert seq == par

    def test_draw_accounting(self):
        cfg = parse_config(CONFIG_SMALL)
        rep = run_experiment(cfg)
        for r in rep.results:
            assert r.total_draws == sum(row.raw_draws for row in r.trace.rows)
        assert rep.total_draws == sum(r.total_draws for r in rep.results)


class TestEmitMetrics:
    def test_files_and_aggregation_identity(self, tmp_path):
        cfg = parse_config(CONFIG_SMALL)
        rep = run_experiment(cfg)
        written = emit_metrics(rep, tmp_path / "out")
        names = sorted(p.name for p in written)
        assert names == sorted(
            ["summary.json", "round_trace_0.csv", "round_trace_1.csv", "round_trace_2.csv"]
        )
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        per_seed = [s["lerr"] for s in summary["seeds"]]
        assert abs(summary["mean_lerr"] - np.mean(per_seed)) < 1e-12
        header = (tmp_path / "out" / "round_trace_0.csv").read_text().splitlines()[0]
        assert header == "round,d_hat,d_exact,phi,overconfident,raw_draws,lerr_exact,ferr_exact"

    def test_rerun_byte_identical(self, tmp_path):
        cfg = parse_config(CONFIG_SMALL)
        blobs = []
        for sub in ("a", "b"):
            rep = run_experiment(cfg)
            emit_metrics(rep, tmp_path / sub)
            blobs.append(
                {p.name: p.read_bytes() for p in sorted((tmp_path / sub).iterdir())}
            )
        assert blobs[0] == blobs[1]


# Monte Carlo boosting with a tiny rectangle learner: at sample_scale 0.0005
# the over-confidence test samples so little that seed 12 runs out of its
# risky-conditioned draw budget in round 54
CONFIG_MC_FRAGILE = """
distribution = rect_grid
rect_d = 2
rect_k = 1
rect_side = 10
noise_profile = rcn
weak_learner = box
box_scale = 0.05
eta = 0.05
alpha = 0.1
gamma = 0.45
epsilon = 0.15
delta = 0.1
sample_scale = 0.0005
mode = mc
seeds = 12
"""


class TestFailedSeeds:
    """A seed whose run stops early keeps and reports the rounds it completed."""

    def check_partial(self, cfg, tmp_path, error):
        rep = run_experiment(cfg)
        emit_metrics(rep, tmp_path)
        (r,) = rep.results
        assert not r.ok and r.error.startswith(error + ":")
        assert r.rounds > 0 and len(r.aggregated) == r.rounds
        rows = (tmp_path / f"round_trace_{r.seed}.csv").read_text().splitlines()[1:]
        assert [int(row.split(",")[0]) for row in rows] == list(range(1, r.rounds + 1))
        dist, _, _ = build_instance(cfg, r.seed)
        assert np.array_equal(r.trace.scores, r.aggregated.g(dist.xs))
        summary = json.loads((tmp_path / "summary.json").read_text())["seeds"][0]
        assert summary["rounds"] == r.rounds and summary["lerr"] is not None

    def test_draw_budget_keeps_completed_rounds(self, tmp_path, monkeypatch):
        # a density estimate stuck at 0.9 while the true density collapses
        # sizes the rejection-sampling budget for a measure that is no longer there
        monkeypatch.setattr(booster, "est_density", lambda *args: 0.9)
        cfg = parse_config(CONFIG_MC_FRAGILE.replace("sample_scale = 0.0005", "sample_scale = 0.028"))
        self.check_partial(cfg, tmp_path, "DrawBudgetExceeded")

    def test_conditional_budget_keeps_completed_rounds(self, tmp_path):
        # fails inside the over-confidence test, after the round's provisional
        # step: the scores must still be those of the completed rounds
        self.check_partial(parse_config(CONFIG_MC_FRAGILE), tmp_path, "ConditionalDrawBudgetExceeded")

    def test_other_errors_are_not_seed_failures(self, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("not a boosting failure")

        monkeypatch.setattr(booster, "repeat_weak_learner", broken)
        with pytest.raises(ValueError, match="not a boosting failure"):
            run_experiment(parse_config(CONFIG_SMALL))


class TestCli:
    def run_cli(self, args, env_extra=None):
        env = dict(os.environ)
        if env_extra:
            env.update(env_extra)
        return subprocess.run(
            [sys.executable, "-m", "massboost.cli"] + args,
            capture_output=True,
            text=True,
            env=env,
        )

    def test_run_end_to_end(self, tmp_path):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(CONFIG_SMALL)
        out_dir = tmp_path / "metrics"
        res = self.run_cli(["run", str(cfg_path), "--out", str(out_dir), "--seed-range", "0..1"])
        assert res.returncode == 0, res.stderr
        assert (out_dir / "summary.json").exists()
        assert (out_dir / "round_trace_0.csv").exists()
        assert (out_dir / "round_trace_1.csv").exists()
        assert not (out_dir / "round_trace_2.csv").exists()

    def test_malformed_config_exit_code(self, tmp_path):
        cfg_path = tmp_path / "bad.txt"
        cfg_path.write_text("this is not a config\n")
        res = self.run_cli(["run", str(cfg_path)])
        assert res.returncode == 2
        assert "config error" in res.stderr

    def test_missing_config_file(self, tmp_path):
        res = self.run_cli(["run", str(tmp_path / "nope.txt")])
        assert res.returncode == 2

    def test_empty_seed_list_exit_zero(self, tmp_path):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(CONFIG_SMALL.replace("seeds = 0..2", "seeds ="))
        res = self.run_cli(["run", str(cfg_path)])
        assert res.returncode == 0

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_reversed_seed_range_is_config_error(self, tmp_path, where):
        cfg_path = tmp_path / "cfg.txt"
        out_dir = tmp_path / "metrics"
        args = ["run", str(cfg_path), "--out", str(out_dir)]
        if where == "flag":
            cfg_path.write_text(CONFIG_SMALL)
            args += ["--seed-range", "5..3"]
        else:
            cfg_path.write_text(CONFIG_SMALL.replace("seeds = 0..2", "seeds = 5..3"))
        res = self.run_cli(args)
        assert res.returncode == 2
        assert "config error" in res.stderr and "5..3" in res.stderr
        assert "Traceback" not in res.stderr
        assert not out_dir.exists()

    def test_single_seed_flag_runs_that_seed(self, tmp_path):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(CONFIG_SMALL)
        out_dir = tmp_path / "metrics"
        res = self.run_cli(["run", str(cfg_path), "--out", str(out_dir), "--seed-range", "7"])
        assert res.returncode == 0, res.stderr
        assert sorted(p.name for p in out_dir.iterdir()) == ["round_trace_7.csv", "summary.json"]

    @pytest.mark.parametrize(
        "old,new,key",
        [
            ("rect_side = 20", "rect_side = 1e2", "rect_side"),
            ("distribution = rect_grid", "distribution = hard\nhard_rho = 1e-5\nhard_support = 1e5", "hard_support"),
            ("distribution = rect_grid", "distribution = hard\nhard_rho = small", "hard_rho"),
            ("distribution = rect_grid", "distribution = hard\nhard_rho = 0.5", "rho"),
            ("rect_d = 2", "rect_d = 0", "rect_d"),
            ("rect_k = 1", "rect_k = 0", "rect_k"),
            ("rect_k = 1", "rect_k = -1", "rect_k"),
            ("rect_side = 20", "rect_side = 0", "rect_side"),
            ("weak_learner = concept", "weak_learner = box\nbox_scale = -1", "box_scale"),
            ("weak_learner = concept", "weak_learner = box\nbox_c = 0", "box_c"),
            ("weak_learner = concept", "weak_learner = box\nbox_c = -1", "box_c"),
            ("weak_learner = concept", "weak_learner = rude\nrude_m = 0", "rude_m"),
            ("weak_learner = concept", "weak_learner = rude\nrude_t = 0", "rude_t"),
            ("weak_learner = concept", "weak_learner = rude\nrude_scale = nan", "rude_scale"),
            ("weak_learner = concept", "weak_learner = rude\nrude_scale = inf", "rude_scale"),
            ("weak_learner = concept", "weak_learner = rude\nrude_scale = -1", "rude_scale"),
            ("weak_learner = concept", "weak_learner = rude\nrude_scale = 0", "rude_scale"),
            ("weak_learner = concept", "weak_learner = rude\nrude_survivor_cap = -1", "rude_survivor_cap"),
            ("weak_learner = concept", "weak_learner = rude\nrude_survivor_cap = 0", "rude_survivor_cap"),
            ("rect_side = 20", "rect_sid = 20", "rect_sid"),
            ("noise_profile = rcn", "noise_profil = rcn", "noise_profil"),
            ("noise_profile = rcn", "noise_profile = pink", "noise_profile"),
        ],
        ids=[
            "int",
            "hard-int",
            "float",
            "rho-out-of-range",
            "rect-d-zero",
            "rect-k-zero",
            "rect-k-negative",
            "rect-side-zero",
            "box-scale-negative",
            "box-c-zero",
            "box-c-negative",
            "rude-m-zero",
            "rude-t-zero",
            "rude-scale-nan",
            "rude-scale-inf",
            "rude-scale-negative",
            "rude-scale-zero",
            "rude-survivor-cap-negative",
            "rude-survivor-cap-zero",
            "unknown-key-rect-sid",
            "unknown-key-noise-profil",
            "unknown-noise-profile",
        ],
    )
    def test_unparsable_generator_parameter_is_config_error(self, tmp_path, old, new, key):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(CONFIG_SMALL.replace(old, new))
        res = self.run_cli(["run", str(cfg_path)])
        assert res.returncode == 2
        assert "config error" in res.stderr and key in res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize(
        "line",
        ["rude_m = 0", "hard_n = 0", "hard_n = 65", "rude_scale = nan", "hard_rho = -1e-5", "box_c = -1"],
    )
    def test_other_generators_parameter_is_config_error(self, tmp_path, line):
        """A key that the configured generators never read is still checked by the rule of the one that does."""
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(CONFIG_SMALL + line + "\n")
        res = self.run_cli(["run", str(cfg_path)])
        assert res.returncode == 2
        assert "config error" in res.stderr and line.split(" = ")[0] in res.stderr
        assert "Traceback" not in res.stderr

    def test_non_integer_thread_count_is_config_error(self, tmp_path):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(CONFIG_SMALL)
        res = self.run_cli(["run", str(cfg_path)], env_extra={"MB_THREADS": "abc"})
        assert res.returncode == 2
        assert "config error" in res.stderr and "MB_THREADS" in res.stderr
        assert "Traceback" not in res.stderr

    def test_epsilon_below_two_c_is_config_error(self, tmp_path):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(CONFIG_SMALL.replace("epsilon = 0.15", "epsilon = 0.01"))
        res = self.run_cli(["run", str(cfg_path)])
        assert res.returncode == 2
        assert "config error" in res.stderr and "epsilon" in res.stderr
        assert "Traceback" not in res.stderr


class TestCliFlags:
    def run_cli(self, args):
        import os

        return subprocess.run(
            [sys.executable, "-m", "massboost.cli"] + args,
            capture_output=True,
            text=True,
            env=dict(os.environ),
        )

    def test_mode_and_scale_overrides(self, tmp_path):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(CONFIG_SMALL)
        res = self.run_cli(
            ["run", str(cfg_path), "--seed-range", "0..0", "--mode", "exact", "--sample-scale", "0.02"]
        )
        assert res.returncode == 0, res.stderr

    @pytest.mark.parametrize("flag,config_mode", [("mc", "exact"), ("exact", "mc")])
    def test_mode_flag_overrides_config(self, tmp_path, flag, config_mode):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(CONFIG_SMALL.replace("mode = exact", f"mode = {config_mode}"))
        out_dir = tmp_path / "out"
        res = self.run_cli(["run", str(cfg_path), "--seed-range", "0..0", "--mode", flag, "--out", str(out_dir)])
        assert res.returncode == 0, res.stderr
        d_exact = (out_dir / "round_trace_0.csv").read_text().splitlines()[1].split(",")[2]
        assert (d_exact != "") == (flag == "exact")  # exact columns are empty in Monte Carlo mode

    def test_ablation_flag_records_failures_but_exits_zero(self, tmp_path):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(CONFIG_SMALL + "max_rounds = 40\n")
        out_dir = tmp_path / "out"
        res = self.run_cli(
            ["run", str(cfg_path), "--seed-range", "0..1", "--ablate-no-withholding", "--out", str(out_dir)]
        )
        assert res.returncode == 0, res.stderr
        summary = json.loads((out_dir / "summary.json").read_text())
        assert any("MaxRounds" in s["error"] for s in summary["seeds"])


class TestFileDistribution:
    def test_build_instance_from_file(self, tmp_path):
        from massboost import make_massart
        from massboost.core import save_dist

        dist = make_massart(
            [((0.0, 0.0), 0.5, 1, 0.1), ((1.0, 1.0), 0.5, -1, 0.2)], eta_bound=0.25
        )
        path = tmp_path / "dist.txt"
        save_dist(dist, path)
        cfg = parse_config(
            CONFIG_SMALL.replace("distribution = rect_grid", f"distribution = file:{path}")
        )
        loaded, concept, _ = build_instance(cfg, 0)
        assert concept is None
        assert np.array_equal(loaded.eta, dist.eta)
        assert np.array_equal(loaded.xs, dist.xs)

    @pytest.mark.parametrize("config", ["configs/rect_benchmark.cfg", "perfbench/configs/rect_mc.cfg"])
    def test_fixed_instance_configs_parse(self, tmp_path, config):
        """perfbench reruns a rect config on a saved instance, keeping its rect_*, noise_profile and box lines."""
        from massboost.core import save_dist
        from massboost.harness import build_weak_learner

        path = tmp_path / "instance.txt"
        save_dist(build_instance(load_config(ROOT / config), 0)[0], path)
        lines = [
            f"distribution = file:{path}" if line.partition("=")[0].strip() == "distribution" else line
            for line in (ROOT / config).read_text().splitlines()
        ]
        cfg = parse_config("\n".join(lines) + "\n")
        assert {"rect_d", "rect_k", "rect_side", "noise_profile"} <= set(cfg.params)
        dist, concept, _ = build_instance(cfg, 0)
        assert concept is None and dist.n_atoms == int(cfg.params["rect_side"]) ** int(cfg.params["rect_d"])
        assert build_weak_learner(cfg, concept, dist).d == int(cfg.params["rect_d"])
