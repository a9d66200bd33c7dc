"""Self-tests of the benchmark. From the repository root:

    python3 -m pytest perfbench -q

They run short windows of the workloads in-process, so together they take
about a minute.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run

run.add_src_path()

from projlearn.experiments import run_sweep, run_three_link, run_toy  # noqa: E402
from tracing import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

COUNTED = [name for name, unit in PER_LAYER.items() if unit in ("count", "score")]


def _short(name, trace, window, seed=3):
    return run.run_workload(name, seed=seed, seconds=0, trace=trace, window=window,
                            setup_repeats=1)


def _config(name, **overrides):
    cfg = json.loads((run.ROOT / "configs" / name).read_text())
    cfg.update(overrides)
    return cfg


@pytest.mark.parametrize("name,window", [("toy-recovery", 10), ("arm-replay", 3)])
def test_counts_repeat_and_tracing_keeps_outputs(name, window):
    first = _short(name, True, window)
    second = _short(name, True, window)
    plain = _short(name, False, window)
    for res in (first, second, plain):
        assert res["correct"], res["report"]["failures"]
    for key in COUNTED:
        assert first["metrics"][key] == second["metrics"][key], key
    assert first["report"]["digest"] == second["report"]["digest"] == plain["report"]["digest"]


def test_different_seed_changes_inputs_not_shapes():
    a = _short("toy-recovery", False, 5, seed=1)
    b = _short("toy-recovery", False, 5, seed=2)
    assert a["report"]["digest"] != b["report"]["digest"]
    assert a["attempted"] == b["attempted"] == 5


def test_toy_ops_reproduce_the_shipped_runners():
    seed = 4
    wl = WORKLOADS["toy-recovery"]
    ctx = wl.setup(run.ROOT, seed)
    ops = [wl.run_op(ctx, i) for i in range(wl.pass_len)]
    clean = run_toy(_config("toy.json", seed=seed, trials=1))["rows"]
    noisy = run_sweep(_config("noise_sweep.json", seed=seed, trials=1))["rows"]
    shipped = clean + [r for r in noisy if r["case"] in ("u_noise=0.1", "pi_noise=0.04")]
    assert [o["case"] for o in ops] == [r["case"] for r in shipped]
    for op, row in zip(ops, shipped):
        assert (op["e_w"], op["objective"]) == (row["e_w"], row["objective"])


def test_arm_op_reproduces_run_three_link():
    seed = 4
    wl = WORKLOADS["arm-recovery"]
    op = wl.run_op(wl.setup(run.ROOT, seed), 0)  # case x, trial 0
    row = run_three_link(_config("three_link.json", seed=seed, cases=["x"], trials=1))["rows"][0]
    assert op["case"] == row["case"] == "x"
    assert (op["e_w"], op["objective"]) == (row["e_w"], row["objective"])


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    plain = _short("toy-recovery", False, 5)
    assert set(plain["metrics"]) | {"peak_rss_mb"} == set(run.E2E_UNITS)
    assert set(_short("toy-recovery", True, 5)["metrics"]) == set(PER_LAYER)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "toy-recovery",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
