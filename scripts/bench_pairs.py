"""Run the benchmark in alternating parent/change pairs and append one BENCH entry.

The change is this checkout's working tree and the parent is its HEAD,
extracted with `git archive` into a temporary directory that is removed
afterwards. Each tree runs its own perfbench/run.py with `--trace 0` for
BENCHMARK.json's run_seconds, one process at a time, for PAIRS pairs at
seeds --first-seed, +1, ...: the parent runs first in even pairs and the
change first in odd pairs. The script exits with an error when src/ and
perfbench/ do not differ from HEAD, since the pairs would then compare HEAD
with itself. Before the runs both trees' src/ and perfbench/ are
byte-compiled, so that neither side pays for a stale __pycache__ (with
PYTHONDONTWRITEBYTECODE set, a source edited after its cache was written
recompiles on every import).

The entry goes first in BENCH_<workload>.json, in the format of the entries
before it: each end-to-end metric of BENCHMARK.json with both sides' median
and quartiles (statistics.quantiles(n=4, method="inclusive")), the pairs the
change won, the median change and the parent's IQR as fractions of the
parent's median, and every run. A metric is resolved when the parent's IQR
is within the metric's bound, or when every change run beats every parent
run. A summary also goes to stdout, with whether each metric meets the gain
rule: better in at least 9 of 10 pairs, and medians further apart than the
parent's IQR. Nothing under perfbench/ and nothing in BENCHMARK.json changes.
Run from the repository root:

    python3 scripts/bench_pairs.py --workload arm-recovery --first-seed 2101 \\
        --change "what the change does"
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10  # the fewest pairs the gain rule reads: better in 9 of 10


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def compile_tree(tree: Path):
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"], cwd=tree,
                   check=True, capture_output=True)


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in `tree`: its report and result lines."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True, timeout=seconds + 600)
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    if proc.returncode not in (0, 1) or len(lines) < 2:
        raise RuntimeError(f"{tree}: run.py exited {proc.returncode}: {proc.stderr[-2000:]}")
    return {"report": lines[0]["report"], "result": lines[-1]}


def quartiles(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(statistics.median(values), 6), "q1": round(q1, 6),
            "q3": round(q3, 6)}


def sign(metric: dict) -> float:
    """1 for a metric where lower is better, -1 otherwise: sign * value is lower-better."""
    return 1.0 if metric["better"] == "lower" else -1.0


def summarise(metric: dict, runs: list) -> dict:
    """One end_to_end field: both sides' spread and how the pairs compare."""
    name, s = metric["name"], sign(metric)
    side = {who: [r["metrics"][name] for r in sorted(runs, key=lambda r: r["pair"])
                  if r["side"] == who] for who in ("parent", "change")}
    parent, change = quartiles(side["parent"]), quartiles(side["change"])
    base = parent["median"]
    wins = sum(s * c < s * p for p, c in zip(side["parent"], side["change"]))
    frac = (change["median"] - base) / base
    iqr_frac = (parent["q3"] - parent["q1"]) / base
    every_run_better = max(s * c for c in side["change"]) < min(s * p for p in side["parent"])
    return {"unit": metric["unit"], "parent": parent, "change": change,
            "change_better_in_pairs": wins, "median_change_frac": round(frac, 4),
            "parent_iqr_frac": round(iqr_frac, 4), "bound": metric["bound"],
            "resolved": iqr_frac <= metric["bound"] or every_run_better,
            "within_bound": s * frac <= metric["bound"]}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--change", required=True, help="what the change does, for the entry")
    parser.add_argument("--claim", default="none", help="the claim, for the entry")
    args = parser.parse_args(argv)
    if not git("status", "--porcelain", "--", "src", "perfbench"):
        parser.error("src/ and perfbench/ equal HEAD: there is no change to compare")

    seconds = bench["run_seconds"]
    parent_commit = git("rev-parse", "--verify", "HEAD^{commit}")
    seeds = list(range(args.first_seed, args.first_seed + PAIRS))
    runs, machine = [], None
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        parent_tree = Path(tmp) / "parent"
        parent_tree.mkdir()
        archive = subprocess.run(["git", "archive", parent_commit], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(parent_tree)], input=archive, check=True)
        trees = {"parent": parent_tree, "change": ROOT}
        for tree in trees.values():
            compile_tree(tree)
        for pair, seed in enumerate(seeds):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                out = run_once(trees[side], args.workload, seed, seconds)
                result = out["result"]
                if side == "change" and machine is None:
                    machine = out["report"]["machine"]
                runs.append({"pair": pair, "seed": seed, "side": side,
                             "attempted": result["attempted"], "failed": result["failed"],
                             "correct": result["correct"],
                             "digest": out["report"]["digest"],
                             "metrics": {k: round(v["value"], 6)
                                         for k, v in result["metrics"].items()}})
                print(f"pair {pair} seed {seed} {side}: {runs[-1]['metrics']}", flush=True)

    machine["git_commit"] = None  # run.py reads HEAD, the parent; the change is no commit yet
    end_to_end = {m["name"]: summarise(m, runs) for m in bench["end_to_end"]}
    entry = {
        "change": args.change, "parent_commit": parent_commit,
        "command": f"python3 perfbench/run.py --workload {args.workload} --seed SEED "
                   f"--seconds {seconds:g} --trace 0",
        "pairs": PAIRS,
        "order": "alternating: parent first in even pairs, change first in odd pairs",
        "seeds": seeds,
        "quartiles": "statistics.quantiles(n=4, method='inclusive') over the pairs",
        "claim": args.claim,
        "digests_match_per_seed": all(len({r["digest"] for r in runs if r["seed"] == seed}) == 1
                                      for seed in seeds),
        "machine": machine, "end_to_end": end_to_end, "runs": runs,
    }
    path = ROOT / f"BENCH_{args.workload}.json"
    doc = json.loads(path.read_text()) if path.exists() else {"topic": args.workload,
                                                                "entries": []}
    doc["entries"].insert(0, entry)
    path.write_text(json.dumps(doc, indent=2) + "\n")

    print(f"{path.name}: entry added; every run correct: {all(r['correct'] for r in runs)}")
    for metric in bench["end_to_end"]:
        name = metric["name"]
        f = end_to_end[name]
        gain = (f["change_better_in_pairs"] >= 0.9 * PAIRS
                and sign(metric) * f["median_change_frac"] < -f["parent_iqr_frac"])
        print(f"{name}: {f['parent']['median']:.6g} -> {f['change']['median']:.6g} "
              f"({f['median_change_frac']:+.1%}), better in {f['change_better_in_pairs']}/"
              f"{PAIRS}, parent IQR {f['parent_iqr_frac']:.1%}, resolved {f['resolved']}, "
              f"within bound {f['within_bound']}, gain rule met {gain}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
