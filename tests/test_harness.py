import contextlib
import csv
import dataclasses
import gc
import io
import itertools
import json
import os
import pickle
import subprocess
import sys
import tracemalloc
from pathlib import Path
from typing import Optional, Tuple

import numpy as np
import pytest

import massboost.booster as booster
import massboost.harness as harness
from massboost import ConfigParse, cli, run_experiment
from massboost.adversary import HeavyHitterHypothesis
from massboost.core import label_errors, load_dist, save_dist, sign_pm1
from massboost.harness import build_instance, load_config, parse_config
from massboost.rectangles import BoxHypothesis, NegRectangle
from test_properties import check_run

ROOT = Path(__file__).resolve().parent.parent
try:  # show_config takes mode from numpy 1.26 on
    BLAS = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"].lower()
except TypeError:
    BLAS = "unknown"

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


def run_cli(args):
    """cli.main run in process on args, with its exit code and output captured as a subprocess's would be."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(args)
        except SystemExit as exc:  # argparse's exit on a bad command line
            code = exc.code
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


def read_trace(path) -> list:
    """The rows of a trace CSV, each a dict of column name to cell text."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def save_small_instance(tmp_path) -> Path:
    """Seed 0's instance of CONFIG_SMALL, saved as a distribution file."""
    path = tmp_path / "dist.txt"
    save_dist(build_instance(parse_config(CONFIG_SMALL), 0)[0], path)
    return path


class TestConfigParsing:
    def test_parse_happy_path(self):
        cfg = parse_config(CONFIG_SMALL)
        assert cfg.distribution == "rect_grid"
        assert cfg.seeds == (0, 1, 2)
        assert cfg.eta == 0.1
        assert cfg.rect_side == 20

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

    @pytest.mark.parametrize(
        "raw,value", [("TRUE", True), ("Yes", True), ("1", True), ("false", False), ("NO", False), ("0", False)]
    )
    def test_boolean_spellings(self, raw, value):
        assert parse_config(CONFIG_SMALL + f"ablate_no_withholding = {raw}\n").ablate_no_withholding is value


# A value, or a tuple of values, that each config key rejects on top of
# CONFIG_SMALL; None marks a key that accepts every value (any directory name
# is a valid out). The type errors come from each key's annotation
# (TYPE_ERRORS).
REJECTED = {
    "distribution": "grid",
    "weak_learner": "adaboost",
    "eta": ("0.5", "0", "1e-320"),  # 1e-320 overflows the threshold s to infinity
    "alpha": "0",
    "gamma": "0.5",
    "epsilon": "0.01",
    "delta": "0.6",
    "sample_scale": "0",
    "mode": "fast",
    "max_rounds": "0",
    "seeds": ("-3", "1, 1", "2 2 3"),
    "out": None,
    "ablate_no_withholding": "on",
    "rect_d": "0",
    "rect_k": ("0", "-1"),
    "rect_side": "0",
    "noise_profile": "pink",
    "hard_rho": "-1e-5",
    "hard_support": "0",
    "box_scale": "-1",
    "rude_m": "0",
    "rude_t": "0",
    "rude_scale": "0",
}
TYPE_ERRORS = {
    int: ["1.5", "1e2"],
    Optional[int]: ["1.5"],
    float: ["abc", "nan", "inf", "-inf"],
    bool: ["maybe"],
    Tuple[int, ...]: ["0..x"],
    str: [],
    Optional[str]: [],
}


def rejection_cases():
    for key in harness._KEYS:
        bad = REJECTED[key] or ()
        bad = [bad] if isinstance(bad, str) else list(bad)
        for value in bad + TYPE_ERRORS[harness._TYPES[key]]:
            yield pytest.param(key, value, id=f"{key}={value}")


class TestConfigSchema:
    def test_every_key_has_a_rejection_case(self):
        assert set(REJECTED) == set(harness._KEYS)
        assert len(harness._KEYS) == 23

    @pytest.mark.parametrize("key,value", list(rejection_cases()))
    def test_rejected_value_exits_2(self, tmp_path, capsys, key, value):
        lines = dict(line.split(" = ") for line in CONFIG_SMALL.splitlines() if " = " in line)
        lines[key] = value
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
        assert cli.main(["run", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and key in err and "Traceback" not in err

    def test_readme_tables_every_key(self):
        """README has one row per key, no row for a key that is gone, and each row names the key's reader."""
        readme = (ROOT / "README.md").read_text()
        rows = [line.split("|") for line in readme.splitlines() if line.startswith("| `")]
        read_by = {row[1].strip().strip("`"): row[5].strip() for row in rows}
        assert len(read_by) == len(rows)
        assert read_by == {key: f.metadata["reader"] for key, f in harness._KEYS.items()}

    def test_readme_trace_columns(self):
        """The column line in README's outputs section is RoundRecord's field names."""
        readme = (ROOT / "README.md").read_text()
        lines = [line for line in readme.splitlines() if line.startswith("round,")]
        assert lines == [",".join(f.name for f in dataclasses.fields(booster.RoundRecord))]


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

    def test_draw_accounting(self, tmp_path):
        rep = run_experiment(parse_config(CONFIG_SMALL, overrides={"out": str(tmp_path)}))
        for r in rep.results:
            assert r.total_draws == sum(int(row["raw_draws"]) for row in read_trace(tmp_path / f"round_trace_{r.seed}.csv"))
        assert rep.total_draws == sum(r.total_draws for r in rep.results)

    def test_a_seed_writes_its_trace_before_the_next_seed_starts(self, tmp_path, monkeypatch):
        """When seed k starts, the out directory holds the trace CSVs of the seeds before it and nothing else."""
        out, run_seed, started = tmp_path / "out", harness._run_seed, []

        def checked_run_seed(cfg, seed):
            assert sorted(p.name for p in out.iterdir()) == [f"round_trace_{s}.csv" for s in started]
            started.append(seed)
            return run_seed(cfg, seed)

        monkeypatch.setattr(harness, "_run_seed", checked_run_seed)
        run_experiment(parse_config(CONFIG_SMALL, overrides={"out": str(out)}))
        assert started == [0, 1, 2]
        assert sorted(p.name for p in out.iterdir()) == ["round_trace_0.csv", "round_trace_1.csv",
                                                         "round_trace_2.csv", "summary.json"]

    def test_a_finished_batch_keeps_under_2_kb_a_seed(self, tmp_path):
        """A finished 12-seed batch keeps its seeds' summary records and no trace row.

        A seed of CONFIG_SMALL runs about 140 rounds: a batch that kept its
        seeds' RoundRecords kept 42 KB a seed, and one that keeps only the
        records keeps about 0.7 KB. A first run goes before the measured
        one, so that one-time allocations are not counted.
        """
        run_experiment(parse_config(CONFIG_SMALL.replace("seeds = 0..2", "seeds = 0")))
        cfg = parse_config(CONFIG_SMALL.replace("seeds = 0..2", "seeds = 0..11"), overrides={"out": str(tmp_path)})
        gc.collect()
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            rep = run_experiment(cfg)
            gc.collect()
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rep.results) == 12 and all(r.rounds > 0 for r in rep.results)
        assert (kept - base) / 12 < 2048

    def test_round_percentiles_are_the_bits_of_np_percentile(self):
        """_percentile is numpy's linear method bit for bit, on 1 to 60 integer round counts at q = 50, 90 and 100.

        The two forms of the interpolation, a + (b - a) t and
        b - (b - a)(1 - t), differ in the last bit at q = 90 on 3 of these
        1200 draws, so the test tells them apart.
        """
        rng = np.random.default_rng(0)
        for n, hi, _ in itertools.product(range(1, 61), (10, 3000), range(10)):  # many ties, and few
            rounds = sorted(float(r) for r in rng.integers(1, hi + 1, size=n))
            for q in (50, 90, 100):
                assert harness._percentile(rounds, q).hex() == float(np.percentile(rounds, q)).hex(), (rounds, q)

    def test_records_and_hypotheses_survive_pickling(self, tmp_path):
        """A SeedResult, a RoundRecord and both slotted weak hypotheses come back equal from a pickle round trip."""
        cfg = parse_config(CONFIG_SMALL.replace("seeds = 0..2", "seeds = 0"), overrides={"out": str(tmp_path)})
        (result,) = run_experiment(cfg).results
        assert len(read_trace(tmp_path / "round_trace_0.csv")) == result.rounds > 0
        assert pickle.loads(pickle.dumps(result)) == result
        row = booster.RoundRecord(round=3, d_hat=0.5, phi=0.25, overconfident=True, raw_draws=1200, adv_exact=0.2)
        assert pickle.loads(pickle.dumps(row)) == row
        box = BoxHypothesis(NegRectangle(((0, 1, 0.25), (1, -1, -0.5))), 1)
        assert pickle.loads(pickle.dumps(box)) == box
        heavy = HeavyHitterHypothesis(((1.0, -0.5), (3.0, 2.0)), (1, -1))
        assert pickle.loads(pickle.dumps(heavy)) == heavy


class TestEmitMetrics:
    """The files a run writes under out."""

    def test_files_and_aggregation_identity(self, tmp_path):
        run_experiment(parse_config(CONFIG_SMALL, overrides={"out": str(tmp_path / "out")}))
        names = sorted(p.name for p in (tmp_path / "out").iterdir())
        assert names == sorted(
            ["summary.json", "round_trace_0.csv", "round_trace_1.csv", "round_trace_2.csv"]
        )
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        per_seed = [s["lerr"] for s in summary["seeds"]]
        assert abs(summary["mean_lerr"] - np.mean(per_seed)) < 1e-12
        header = (tmp_path / "out" / "round_trace_0.csv").read_text().splitlines()[0].split(",")
        assert header == [f.name for f in dataclasses.fields(booster.RoundRecord)]
        assert header == ["round", "d_hat", "phi", "overconfident", "raw_draws", "lerr_exact", "ferr_exact",
                          "adv_exact", "max_noise_rate", "risky_mass"]

    def test_rerun_byte_identical(self, tmp_path):
        blobs = []
        for sub in ("a", "b"):
            run_experiment(parse_config(CONFIG_SMALL, overrides={"out": str(tmp_path / sub)}))
            blobs.append(
                {p.name: p.read_bytes() for p in sorted((tmp_path / sub).iterdir())}
            )
        assert blobs[0] == blobs[1]

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2 or "openblas" not in BLAS,
                        reason="one usable CPU or another BLAS runs every dot in one summation order")
    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 2: OpenBLAS splits a long np.dot across its threads, which rounds differently")
    def test_rerun_byte_identical_across_blas_thread_counts(self, tmp_path):
        """A 20 000-atom, 5-round slice of hard_floor, run in a process at one and at two BLAS threads."""
        text = (ROOT / "configs" / "hard_floor.cfg").read_text()
        cfg_path = tmp_path / "hard_slice.cfg"
        cfg_path.write_text(text.replace("hard_support = 100000", "hard_support = 20000")
                            .replace("max_rounds = 1500", "max_rounds = 5"))
        blobs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads_{threads}"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
            args = ["run", str(cfg_path), "--seed-range", "0..0", "--out", str(out)]
            res = subprocess.run([sys.executable, "-m", "massboost.cli"] + args, capture_output=True, text=True, env=env)
            if res.returncode != 0:
                pytest.fail(res.stderr)
            blobs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
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

    def check_partial(self, cfg, tmp_path, error, monkeypatch):
        failures = []

        def recording_boost(*args, **kwargs):
            try:
                return booster.boost(*args, **kwargs)
            except booster.BoostFailure as exc:
                failures.append(exc)
                raise

        monkeypatch.setattr(harness, "boost", recording_boost)
        (r,) = run_experiment(dataclasses.replace(cfg, out=str(tmp_path))).results
        assert not r.ok and r.error.startswith(error + ":")
        (failure,) = failures
        assert r.rounds > 0 and len(failure.aggregated) == r.rounds
        text = (tmp_path / f"round_trace_{r.seed}.csv").read_text()
        assert text == failure.trace.to_csv()  # the partial trace, written when the seed ended
        rows = text.splitlines()[1:]
        assert [int(row.split(",")[0]) for row in rows] == list(range(1, r.rounds + 1))
        dist, _, _ = build_instance(cfg, r.seed)
        # the completed rounds keep the round invariants, and the final
        # scores are those their trace replays to
        check_run(dist, harness._boost_params(cfg), failure.aggregated, failure.trace, budget_failure=True)
        summary = json.loads((tmp_path / "summary.json").read_text())["seeds"][0]
        assert summary["rounds"] == r.rounds
        # the reported errors are those of the replayed scores
        replayed = label_errors(dist.p, dist.eta, sign_pm1(failure.trace.scores) != dist.f)
        assert (summary["lerr"], summary["ferr"]) == (r.lerr, r.ferr) == replayed
        # total_draws also meters the draws of the round that failed, which no row records
        assert summary["total_draws"] > sum(int(row.split(",")[4]) for row in rows)

    def test_draw_budget_keeps_completed_rounds(self, tmp_path, monkeypatch):
        # a density estimate stuck at 0.9 while the true density collapses
        # sizes the rejection-sampling budget for a measure that is no longer there
        monkeypatch.setattr(booster, "est_density", lambda *args: 0.9)
        cfg = parse_config(CONFIG_MC_FRAGILE.replace("sample_scale = 0.0005", "sample_scale = 0.028"))
        self.check_partial(cfg, tmp_path, "DrawBudgetExceeded", monkeypatch)

    def test_conditional_budget_keeps_completed_rounds(self, tmp_path, monkeypatch):
        # fails inside the over-confidence test, after the round's provisional
        # step: the scores must still be those of the completed rounds
        self.check_partial(parse_config(CONFIG_MC_FRAGILE), tmp_path, "ConditionalDrawBudgetExceeded", monkeypatch)

    def test_other_errors_are_not_seed_failures(self, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("not a boosting failure")

        monkeypatch.setattr(booster, "repeat_weak_learner", broken)
        with pytest.raises(ValueError, match="not a boosting failure"):
            run_experiment(parse_config(CONFIG_SMALL))


class TestCli:
    def test_run_end_to_end(self, tmp_path):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(CONFIG_SMALL)
        out_dir = tmp_path / "metrics"
        args = ["run", str(cfg_path), "--out", str(out_dir), "--seed-range", "0..1"]
        res = subprocess.run([sys.executable, "-m", "massboost.cli"] + args, capture_output=True, text=True,
                             env=dict(os.environ))  # the module entry point, in its own process
        assert res.returncode == 0, res.stderr
        assert (out_dir / "summary.json").exists()
        assert (out_dir / "round_trace_0.csv").exists()
        assert (out_dir / "round_trace_1.csv").exists()
        assert not (out_dir / "round_trace_2.csv").exists()

    def test_malformed_config_exit_code(self, tmp_path):
        cfg_path = tmp_path / "bad.txt"
        cfg_path.write_text("this is not a config\n")
        res = run_cli(["run", str(cfg_path)])
        assert res.returncode == 2
        assert "config error" in res.stderr

    def test_missing_config_file(self, tmp_path):
        res = run_cli(["run", str(tmp_path / "nope.txt")])
        assert res.returncode == 2

    def test_empty_seed_list_exit_zero(self, tmp_path):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(CONFIG_SMALL.replace("seeds = 0..2", "seeds ="))
        res = run_cli(["run", str(cfg_path)])
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
        res = run_cli(args)
        assert res.returncode == 2
        assert "config error" in res.stderr and "5..3" in res.stderr
        assert "Traceback" not in res.stderr
        assert not out_dir.exists()

    def test_empty_flag_value_overrides_its_key(self, tmp_path):
        """An explicitly empty flag value reads as a blank config line, not as an absent flag."""
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(CONFIG_SMALL)
        out_dir = tmp_path / "metrics"
        res = run_cli(["run", str(cfg_path), "--seed-range", "", "--out", str(out_dir)])
        assert res.returncode == 0, res.stderr
        assert [p.name for p in out_dir.iterdir()] == ["summary.json"]
        assert json.loads((out_dir / "summary.json").read_text())["seeds"] == []

    def test_out_naming_a_file_is_io_error(self, tmp_path, monkeypatch):
        """The out directory is made before the first seed runs, so an out that names a file costs no seed."""
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(CONFIG_SMALL)
        out = tmp_path / "taken"
        out.write_text("")
        run_seed, started = harness._run_seed, []
        monkeypatch.setattr(harness, "_run_seed", lambda cfg, seed: started.append(seed) or run_seed(cfg, seed))
        res = run_cli(["run", str(cfg_path), "--seed-range", "0..0", "--out", str(out)])
        assert res.returncode == 1
        assert "io error" in res.stderr and str(out) in res.stderr
        assert "Traceback" not in res.stderr
        assert started == []

    def test_single_seed_flag_runs_that_seed(self, tmp_path):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(CONFIG_SMALL)
        out_dir = tmp_path / "metrics"
        res = run_cli(["run", str(cfg_path), "--out", str(out_dir), "--seed-range", "7"])
        assert res.returncode == 0, res.stderr
        assert sorted(p.name for p in out_dir.iterdir()) == ["round_trace_7.csv", "summary.json"]

    @pytest.mark.parametrize(
        "old,new,key",
        [
            ("rect_side = 20", "rect_side = 1e2", "rect_side"),
            ("distribution = rect_grid", "distribution = hard\nhard_rho = 1e-5\nhard_support = 1e5", "hard_support"),
            ("distribution = rect_grid", "distribution = hard\nhard_rho = small", "hard_rho"),
            ("distribution = rect_grid", "distribution = hard\nhard_rho = 0.5", "rho"),
            ("rect_k = 1", "rect_k = 0", "rect_k"),
            ("rect_k = 1", "rect_k = -1", "rect_k"),
            ("weak_learner = concept", "weak_learner = box\nbox_scale = -1", "box_scale"),
            # box_c, rude_survivor_cap and hard_n are not keys (two constants and the fixed
            # 64-bit hard domain): setting one is an unknown key
            ("weak_learner = concept", "weak_learner = box\nbox_c = 0", "box_c"),
            ("weak_learner = concept", "weak_learner = box\nbox_c = -1", "box_c"),
            ("weak_learner = concept", "weak_learner = rude\nrude_scale = inf", "rude_scale"),
            ("weak_learner = concept", "weak_learner = rude\nrude_scale = -1", "rude_scale"),
            ("weak_learner = concept", "weak_learner = rude\nrude_survivor_cap = -1", "rude_survivor_cap"),
            ("weak_learner = concept", "weak_learner = rude\nrude_survivor_cap = 0", "rude_survivor_cap"),
            ("distribution = rect_grid", "distribution = hard\nhard_rho = 1e-5\nhard_n = 64", "hard_n"),
            ("rect_side = 20", "rect_sid = 20", "rect_sid"),
            ("noise_profile = rcn", "noise_profil = rcn", "noise_profil"),
            ("noise_profile = rcn", "noise_profile = pink", "noise_profile"),
        ],
        ids=[
            "int",
            "hard-int",
            "float",
            "rho-out-of-range",
            "rect-k-zero",
            "rect-k-negative",
            "box-scale-negative",
            "box-c-zero",
            "box-c-negative",
            "rude-scale-inf",
            "rude-scale-negative",
            "rude-survivor-cap-negative",
            "rude-survivor-cap-zero",
            "hard-n-retired",
            "unknown-key-rect-sid",
            "unknown-key-noise-profil",
            "unknown-noise-profile",
        ],
    )
    def test_unparsable_generator_parameter_is_config_error(self, tmp_path, old, new, key):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(CONFIG_SMALL.replace(old, new))
        res = run_cli(["run", str(cfg_path)])
        assert res.returncode == 2
        assert "config error" in res.stderr and key in res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize(
        "line", ["max_rounds = -5", "ablate_no_withholding = ture"]
    )
    def test_bad_run_setting_is_config_error(self, tmp_path, line):
        """max_rounds below 1 would fail every seed; an unknown boolean would silently read as false."""
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(CONFIG_SMALL + line + "\n")
        res = run_cli(["run", str(cfg_path)])
        assert res.returncode == 2
        assert "config error" in res.stderr and line.split(" = ")[0] in res.stderr
        assert "Traceback" not in res.stderr

    def test_a_run_never_loads_numpy_ma(self, tmp_path):
        """A hard slice and CONFIG_SMALL run without importing numpy.ma, about 2 MB of a process's memory.

        numpy 2.4's np.unique without index outputs and np.percentile import
        it. The check is moot where importing numpy and building a Generator
        already do.
        """
        hard = tmp_path / "hard_slice.cfg"
        hard.write_text((ROOT / "configs" / "hard_floor.cfg").read_text()
                        .replace("hard_support = 100000", "hard_support = 2000")
                        .replace("max_rounds = 1500", "max_rounds = 5"))
        small = tmp_path / "small.cfg"
        small.write_text(CONFIG_SMALL)
        probe = (
            "import sys, numpy\n"
            "numpy.random.default_rng()\n"
            "print('numpy.ma', 'numpy.ma' in sys.modules)\n"
            "from massboost import cli\n"
            "for cfg in sys.argv[1:]:\n"
            "    assert cli.main(['run', cfg, '--seed-range', '0']) == 0\n"
            "    print('numpy.ma', 'numpy.ma' in sys.modules)\n"
        )
        paths = [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
        res = subprocess.run([sys.executable, "-c", probe, str(hard), str(small)], capture_output=True, text=True,
                             env=env)
        assert res.returncode == 0, res.stderr
        loaded = [line.split()[1] == "True" for line in res.stdout.splitlines() if line.startswith("numpy.ma ")]
        if loaded[0]:
            pytest.skip("importing numpy and building a Generator load numpy.ma already")
        assert loaded == [False, False, False]

    def assert_config_error(self, res, key):
        assert res.returncode == 2
        assert "config error" in res.stderr and key in res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_negative_seed_is_config_error(self, tmp_path, where):
        cfg_path = tmp_path / "cfg.txt"
        args = ["run", str(cfg_path)]
        if where == "flag":
            cfg_path.write_text(CONFIG_SMALL)
            args.append("--seed-range=-2..-1")
        else:
            cfg_path.write_text(CONFIG_SMALL.replace("seeds = 0..2", "seeds = -3"))
        self.assert_config_error(run_cli(args), "seeds")

    @pytest.mark.parametrize("rule", ["hard-rho", "concept-on-file", "concept-on-hard"])
    def test_cross_key_rule_is_checked_without_seeds(self, tmp_path, rule):
        text = CONFIG_SMALL.replace("seeds = 0..2", "seeds =")
        if rule == "hard-rho":
            text = text.replace("distribution = rect_grid", "distribution = hard\nhard_rho = 0.5")
        elif rule == "concept-on-hard":
            text = text.replace("distribution = rect_grid", "distribution = hard\nhard_rho = 1e-5")
        else:
            text = text.replace("distribution = rect_grid", f"distribution = file:{save_small_instance(tmp_path)}")
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(text)
        self.assert_config_error(run_cli(["run", str(cfg_path)]), "rho" if rule == "hard-rho" else "concept")

    def test_rect_d_must_match_distribution_file(self, tmp_path):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(
            CONFIG_SMALL.replace("distribution = rect_grid", f"distribution = file:{save_small_instance(tmp_path)}")
            .replace("weak_learner = concept", "weak_learner = box")
            .replace("rect_d = 2", "rect_d = 3")
        )
        self.assert_config_error(run_cli(["run", str(cfg_path)]), "rect_d")

    def test_repeated_seed_flag_is_config_error(self, tmp_path):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(CONFIG_SMALL)
        out_dir = tmp_path / "metrics"
        res = run_cli(["run", str(cfg_path), "--seed-range", "2 2 3", "--out", str(out_dir)])
        self.assert_config_error(res, "seeds")
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "content",
        [
            None,
            "2 0.25\n0.5 0.5 1.0 1\n",
            "0 0.1\n1.0 -1 0.0\n",
            "1 0.1\n0.5 1.0 300 0.0\n",
            "1 0.1\n0.5 1.0 -129 0.0\n",
            "1 nan\n0.5 1.0 1 0.0\n",
        ],
        ids=["missing", "short-atom-line", "dimension-zero", "label-300", "label-minus-129", "nan-bound"],
    )
    def test_bad_distribution_file_is_config_error(self, tmp_path, content):
        dist_path = tmp_path / "dist.txt"
        if content is not None:
            dist_path.write_text(content)
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(  # rect_d is left to be derived from the file
            CONFIG_SMALL.replace("distribution = rect_grid", f"distribution = file:{dist_path}")
            .replace("weak_learner = concept", "weak_learner = box")
            .replace("rect_d = 2\n", "")
        )
        res = run_cli(["run", str(cfg_path), "--out", str(tmp_path / "out")])
        assert res.returncode == 2
        assert "config error" in res.stderr and "dist.txt" in res.stderr
        assert "Traceback" not in res.stderr
        assert not (tmp_path / "out").exists()


class TestCliFlags:
    def test_mode_and_scale_overrides(self, tmp_path):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(CONFIG_SMALL)
        res = run_cli(["run", str(cfg_path), "--seed-range", "0..0", "--mode", "exact"])
        assert res.returncode == 0, res.stderr

    @pytest.mark.parametrize("flag", [["--sample-scale", "1"], ["--ablate-no-withholding"]], ids=lambda f: f[0])
    def test_retired_flag_exits_2(self, tmp_path, flag):
        """sample_scale and ablate_no_withholding are set by their config keys only."""
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(CONFIG_SMALL)
        res = run_cli(["run", str(cfg_path), *flag])
        assert res.returncode == 2
        assert "unrecognized arguments" in res.stderr

    @pytest.mark.parametrize("flag,config_mode", [("mc", "exact"), ("exact", "mc")])
    def test_mode_flag_overrides_config(self, tmp_path, flag, config_mode):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(CONFIG_SMALL.replace("mode = exact", f"mode = {config_mode}"))
        out_dir = tmp_path / "out"
        res = run_cli(["run", str(cfg_path), "--seed-range", "0..0", "--mode", flag, "--out", str(out_dir)])
        assert res.returncode == 0, res.stderr
        header, first = (out_dir / "round_trace_0.csv").read_text().splitlines()[:2]
        phi = dict(zip(header.split(","), first.split(",")))["phi"]
        assert (phi != "") == (flag == "exact")  # exact columns are empty in Monte Carlo mode

    def test_ablation_flag_records_failures_but_exits_zero(self, tmp_path):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(CONFIG_SMALL + "max_rounds = 40\nablate_no_withholding = true\n")
        out_dir = tmp_path / "out"
        res = run_cli(["run", str(cfg_path), "--seed-range", "0..1", "--out", str(out_dir)])
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
            CONFIG_SMALL.replace("distribution = rect_grid", f"distribution = file:{path}").replace(
                "weak_learner = concept", "weak_learner = box"
            )
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
        assert {"rect_d", "rect_k", "rect_side", "noise_profile"} <= {line.partition("=")[0].strip() for line in lines}
        cfg = parse_config("\n".join(lines) + "\n")
        dist, concept, _ = build_instance(cfg, 0)
        assert concept is None and dist.n_atoms == cfg.rect_side**cfg.rect_d
        assert build_weak_learner(cfg, concept, dist).d == cfg.rect_d


    def file_config(self, tmp_path) -> str:
        """Three seeds of a box learner boosting on seed 0's instance of CONFIG_SMALL, saved to a file."""
        return (
            CONFIG_SMALL.replace("distribution = rect_grid", f"distribution = file:{save_small_instance(tmp_path)}")
            .replace("weak_learner = concept", "weak_learner = box\nbox_scale = 0.05")
            .replace("gamma = 0.1", "gamma = 0.45")
        )

    def test_file_is_loaded_once_per_run(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "load_dist", lambda path: calls.append(path) or load_dist(path))
        cfg = parse_config(self.file_config(tmp_path))
        report = run_experiment(cfg)
        assert len(calls) == 1 and len(report.results) == 3 and all(r.ok for r in report.results)
        copy = dataclasses.replace(cfg)
        assert copy == cfg and "instance" not in repr(copy) and "array" not in repr(copy)

    def test_shared_file_instance_writes_the_bytes_of_a_per_seed_load(self, tmp_path, monkeypatch):
        cfg = parse_config(self.file_config(tmp_path))
        run_experiment(dataclasses.replace(cfg, out=str(tmp_path / "once")))
        build = harness.build_instance
        monkeypatch.setattr(
            harness,
            "build_instance",
            lambda cfg, seed: build(dataclasses.replace(cfg, instance=load_dist(cfg.distribution[5:])), seed),
        )
        run_experiment(dataclasses.replace(cfg, out=str(tmp_path / "per_seed")))
        once = {p.name: p.read_bytes() for p in (tmp_path / "once").iterdir()}
        assert len(once) == 4
        assert once == {p.name: p.read_bytes() for p in (tmp_path / "per_seed").iterdir()}
