"""Golden output fingerprints of small slices of the shipped configs.

Each slice runs two seeds of configs/rect_benchmark.cfg or configs/hard_floor.cfg
with overrides that shrink the instance and the round count, in exact-oracle
and in Monte Carlo mode, and compares the sha256 of every file emit_metrics
writes (summary.json and each round_trace_<seed>.csv) against the digests
below. A further digest, 'records', covers every RoundRecord field of every
seed, including those no output file carries (d_exact_pre, phi_pre,
adv_exact, max_noise_rate, risky_mass). A change that moves any per-round
float, draw count or summary field fails here. In each exact slice, every
seed's last trace row must also carry the lerr and ferr of its summary.json.
Re-record only when outputs change on purpose, and say so in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

import dataclasses
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
        'round_trace_0.csv': '4138831d6f91ec4b2935f6377b39ccc33ad87959af8728cc7471e008f6dc4308',
        'round_trace_1.csv': '5736bf45dd5b80e3367d1cde06c1c523a8133ad2c545cf806cff0ddebd5b326f',
        'records': '320b89b22588099353c15bded30a6e471605c6a9d67f7ef19af0fa6bffc0924e',
    },
    ('rect', 'monte-carlo'): {
        'summary.json': '5bd8912405e85ddd9a40425c10796164f69d276d1a3653f48d8f48f6c911364f',
        'round_trace_0.csv': '4accba40652de6be8e84e569f555bbde6df74414daff332b02aa4c5525b1e5ef',
        'round_trace_1.csv': '7bb073254110310ed5287cdc8834d7efa2b6ab30f0ddc63af28bfcbbd64cbb80',
        'records': '57e8c8309783114ab1c7245196500b8658f35c6486ae2bd593c2af3f400c9c82',
    },
    ('hard', 'exact-oracle'): {
        'summary.json': '0bbe8e3b09286203d692bd76c30874ea1d3b19148dfdda3c1bc8b7ba94badc82',
        'round_trace_0.csv': 'a968f0e635cb17f73e6865992ba039d163eb20d939144d175b1e5652da166cc2',
        'round_trace_1.csv': '36c7c9b1520f25e80bd536d6710f43537a3de4dc6013ea6349c52dd24ee23086',
        'records': 'e0d8ee351cfd489c1cb77da35f5fa89bbdfde3971cec71479a52ca9ab183ec61',
    },
    ('hard', 'monte-carlo'): {
        'summary.json': 'f4cb7763ff50001f34788385b0aa519f23aa71327cc8b2d280110edbc789f114',
        'round_trace_0.csv': 'ff68b9c689215bf8710512f3929b10ba07504f673c76af9711089370a1ba67bf',
        'round_trace_1.csv': 'dd194ae819bcedeacd4e08830167a1632d0d9b66124561701f0412fa5a9e7594',
        'records': 'decdda3de5b76ed1c4188d1d20447a6371d5441da2d22db6922f632cf73ab5d4',
    },
}


def record_digest(report) -> str:
    """sha256 of every RoundRecord field of every seed, one line a round, .17g with None empty."""
    h = hashlib.sha256()
    for result in report.results:
        for rec in result.trace.rows:
            cells = ("" if v is None else format(v, ".17g") for v in dataclasses.astuple(rec))
            h.update((",".join(cells) + "\n").encode())
    return h.hexdigest()


def run_slice(name: str, mode: str, out_dir: Path) -> dict:
    cfg_file, overrides = SLICES[name]
    cfg = load_config(CONFIGS / cfg_file, {**overrides, "mode": mode, "seeds": "0..1"})
    report = run_experiment(cfg)
    written = emit_metrics(report, out_dir)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in written}
    digests["records"] = record_digest(report)
    return digests


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
