"""Golden output fingerprints of small slices of the shipped configs.

Each slice runs two seeds of configs/rect_benchmark.cfg or configs/hard_floor.cfg
with overrides that shrink the instance and the round count, in exact-oracle
and in Monte Carlo mode, and compares the sha256 of every file emit_metrics
writes (summary.json and each round_trace_<seed>.csv) against the digests
below. A trace CSV has a column for every RoundRecord field, so a change
that moves any per-round float, draw count or summary field fails here. In
each exact slice, every seed's last trace row must also carry the lerr and
ferr of its summary.json.
Re-record only when outputs change on purpose, and say so in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from massboost import emit_metrics, load_config, run_experiment

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# (config, overrides): the rect slice raises gamma and eta (with epsilon =
# 2c) so a seed stops within about a hundred rounds on a 12x12 grid; the
# hard slice raises gamma on a 2000-point support
SLICES = {
    "rect": ("rect_benchmark.cfg", {"rect_side": "12", "gamma": "0.45", "eta": "0.3", "epsilon": "0.3"}),
    "hard": ("hard_floor.cfg", {"hard_support": "2000", "gamma": "0.2"}),
}

GOLDEN = {
    ('rect', 'exact-oracle'): {
        'summary.json': '0795fea1bd9d9a15b6b67a397a3706eb649b1a24b9c9e128c2b7ac3072a5abca',
        'round_trace_0.csv': 'b4fd24eca99e1883dcc10e5894f4aeb35c343644ae21dce5f7243f0ff036bf05',
        'round_trace_1.csv': '3ab68c1ca0e1326e52e0e87d491567a49b3f0536b40b8e284c85df949d5c49a9',
    },
    ('rect', 'monte-carlo'): {
        'summary.json': '5bd8912405e85ddd9a40425c10796164f69d276d1a3653f48d8f48f6c911364f',
        'round_trace_0.csv': '92d10f39b8d3050e821f06169cfefd61ab034fc646eed5edfd127c1f32e991ac',
        'round_trace_1.csv': '6637ca6609dcca2c560efa759122689924028918d86ea81975cf2618da3dbd1c',
    },
    ('hard', 'exact-oracle'): {
        'summary.json': '0bbe8e3b09286203d692bd76c30874ea1d3b19148dfdda3c1bc8b7ba94badc82',
        'round_trace_0.csv': 'd62bcc1df84e9ebfd2f14c30891d30f5d0e8385bfb4363e0d8affdbf4cc9c99c',
        'round_trace_1.csv': 'dfbd68ae8d2541aedf48de58101af342a4d08f3db929bab160bdcbc1e363e7b1',
    },
    ('hard', 'monte-carlo'): {
        'summary.json': 'f4cb7763ff50001f34788385b0aa519f23aa71327cc8b2d280110edbc789f114',
        'round_trace_0.csv': 'a7c1478c9ba63c03c5f210807115d1a9bdaff8dce2ff38900e6d29c2e63f0841',
        'round_trace_1.csv': '528986f439e5de6498b048c59b076f3edb75858fa02c848e35fd6a8b6a22a690',
    },
}


def run_slice(name: str, mode: str, out_dir: Path) -> dict:
    cfg_file, overrides = SLICES[name]
    cfg = load_config(CONFIGS / cfg_file, {**overrides, "mode": mode, "seeds": "0..1"})
    written = emit_metrics(run_experiment(cfg), out_dir)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in written}


@pytest.fixture(scope="module")
def slice_outputs(tmp_path_factory):
    """run_slice's digests and output directory of a (name, mode), each slice run once."""
    done = {}

    def get(name: str, mode: str):
        if (name, mode) not in done:
            out = tmp_path_factory.mktemp(f"{name}-{mode}")
            done[(name, mode)] = run_slice(name, mode, out), out
        return done[(name, mode)]

    return get


@pytest.mark.parametrize("name,mode", sorted(GOLDEN))
def test_golden_fingerprints(name, mode, slice_outputs):
    assert slice_outputs(name, mode)[0] == GOLDEN[(name, mode)]


@pytest.mark.parametrize("name", sorted(SLICES))
def test_last_trace_row_matches_summary(name, slice_outputs):
    """The exact errors of a seed's last round are those summary.json reports for its final scores."""
    out = slice_outputs(name, "exact-oracle")[1]
    seeds = json.loads((out / "summary.json").read_text())["seeds"]
    assert [seed["seed"] for seed in seeds] == [0, 1]
    for seed in seeds:
        lines = (out / seed["trace_file"]).read_text().splitlines()
        last = dict(zip(lines[0].split(","), lines[-1].split(",")))
        want = (format(seed["lerr"], ".17g"), format(seed["ferr"], ".17g"))
        assert (last["lerr_exact"], last["ferr_exact"]) == want, seed["seed"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name in SLICES:
            for mode in ("exact-oracle", "monte-carlo"):
                digests = run_slice(name, mode, Path(tmp) / f"{name}-{mode}")
                print(f"    ({name!r}, {mode!r}): {{")
                for file, digest in digests.items():
                    print(f"        {file!r}: {digest!r},")
                print("    },")
