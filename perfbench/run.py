"""projlearn benchmark: one workload per run, closed loop, one client.

Usage, from the repository root:

    python3 perfbench/run.py --workload toy-recovery --seed 1 --seconds 30 --trace 0

Times the projlearn import in three fresh processes and runs set-up three
times (the sum of the two medians is ``setup_s``), then runs ops one after
another until ``--seconds`` have passed, the fixed count window is done and
the last pass is complete. A traced run sets up once, inside the trace. Every op checks its outputs against the shipped
gates. stdout gets one ``{"report": ...}`` line (machine, load settings,
digest, checks, trace table) and, last, the result line with
``correct``/``attempted``/``failed``/``metrics``: end-to-end metrics with
``--trace 0``, per-layer metrics from the traced run with ``--trace 1``.
Exits 1 when a correctness check fails and 2 when the projlearn sources or
configs are missing.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Times the library import in a fresh interpreter; prints seconds.
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                "import projlearn.experiments; print(time.perf_counter() - t)")

E2E_UNITS = {"wall_s": "s", "op_s.p50": "s", "op_s.tail": "s", "setup_s": "s",
             "peak_rss_mb": "MiB"}


def pin_load() -> dict:
    """One trial worker, BLAS threads capped at the usable core count.

    Must run before numpy is imported, since BLAS reads these at load time.
    """
    cores = len(os.sched_getaffinity(0))
    pinned = {"PROJLEARN_WORKERS": "1"}
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        limit = int(current) if current.isdigit() and 0 < int(current) < cores else cores
        pinned[var] = str(limit)
    os.environ.update(pinned)
    return pinned


def add_src_path():
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def time_imports(repeats: int) -> list:
    """Seconds to import projlearn (numpy and scipy included) in fresh processes, one at a time."""
    times = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
                              capture_output=True, text=True, check=True, timeout=120)
        times.append(float(proc.stdout))
    return times


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def machine_info() -> dict:
    import numpy
    import scipy

    blas = None
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: deps.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        pass
    return {"cores": os.cpu_count(), "usable_cores": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
            "git_commit": _git_commit()}


def _canon(value):
    """JSON-ready copy with floats written exactly, for the output digest."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {k: _canon(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    return value


def digest(outputs) -> str:
    blob = json.dumps(_canon(list(outputs)), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def tail(times, pct: float) -> tuple:
    """Nearest-rank percentile and how many ops lie beyond it."""
    ranked = sorted(times)
    rank = max(1, math.ceil(pct / 100.0 * len(ranked)))
    return ranked[rank - 1], len(ranked) - rank


def _run_op(wl, ctx, i):
    try:
        return wl.run_op(ctx, i)
    except Exception:  # an op that raises is a failed op; the run goes on
        return {"ok": False, "error": traceback.format_exc(limit=3)}


def run_workload(name: str, seed: int, seconds: float, trace: bool, window: int | None = None,
                 setup_repeats: int = SETUP_REPEATS) -> dict:
    """Set up, run and check one workload; returns the report and the metrics.

    Untraced, set-up runs setup_repeats times and the ops run bare. Traced,
    set-up runs once inside the trace, then the first ops run once untraced
    (the probe, for the tracing overhead and to show tracing leaves outputs
    alone), then every op runs traced.
    """
    from tracing import Tracer, per_layer_metrics
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    window = wl.window if window is None else window
    window += -window % wl.pass_len  # whole passes only
    tracer = Tracer() if trace else None

    setup_times = []
    for _ in range(1 if trace else setup_repeats):
        if tracer is not None:
            tracer.install()
        t0 = time.perf_counter()
        try:
            ctx = wl.setup(ROOT, seed)
        finally:
            if tracer is not None:
                tracer.uninstall()
        setup_times.append(time.perf_counter() - t0)

    probe = []
    if tracer is not None:
        setup_counts = tracer.snapshot()
        t0 = time.perf_counter()
        probe = [_run_op(wl, ctx, i) for i in range(min(wl.probe_ops, window))]
        probe_s = time.perf_counter() - t0
        tracer.install()

    outputs, times = [], []
    window_counts = {}
    start = time.perf_counter()
    try:
        i = 0
        while i < window or i % wl.pass_len or time.perf_counter() - start < seconds:
            t0 = time.perf_counter()
            if tracer is None:
                out = _run_op(wl, ctx, i)
            else:
                out = tracer.call("experiments.op", _run_op, wl, ctx, i)
            times.append(time.perf_counter() - t0)
            outputs.append(out)
            i += 1
            if i == window and tracer is not None:
                window_counts = tracer.snapshot()
    finally:
        if tracer is not None:
            tracer.uninstall()
    wall = time.perf_counter() - start

    extras, failures = wl.finish(ctx, outputs)
    failed = sum(1 for o in outputs if not o["ok"])
    failures = [o["error"] for o in outputs if "error" in o][:5] + failures
    failures += [f"op {j} missed its gate: {o}" for j, o in enumerate(outputs)
                 if not o["ok"] and "error" not in o][:5]
    if trace and digest(probe) != digest(outputs[:len(probe)]):
        failures.append("traced ops produced different outputs from untraced ones")

    passes = len(outputs) // wl.pass_len
    tail_s, beyond = tail(times, wl.tail_pct)
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": bool(trace),
        "ops": len(outputs), "passes": passes, "window_ops": window,
        "tail_percentile": wl.tail_pct, "ops_beyond_tail": beyond,
        "fail_frac": failed / len(outputs), "failures": failures,
        "digest": digest(outputs[:window]),
        "setup_runs_s": setup_times, "timed_wall_s": wall, "op_times_s": times,
    }
    report.update(extras)
    if trace:
        metrics = per_layer_metrics(tracer, setup_counts, window_counts, window)
        metrics["trace.overhead_s"] = sum(times[:len(probe)]) - probe_s
        metrics["trace.overhead_pct"] = 100.0 * metrics["trace.overhead_s"] / probe_s
        report["trace_table"] = tracer.table()
    else:
        metrics = {"wall_s": wall / passes, "op_s.p50": statistics.median(times),
                   "op_s.tail": tail_s, "setup_s": statistics.median(setup_times)}
    return {"report": report, "metrics": metrics, "attempted": len(outputs), "failed": failed,
            "correct": failed == 0 and not failures}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/projlearn/__init__.py", "configs/three_link.json")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: projlearn checkout incomplete, missing {missing}", file=sys.stderr)
        return 2
    pinned = pin_load()
    add_src_path()
    from tracing import PER_LAYER
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    report = result["report"]
    report["load"] = pinned
    report["machine"] = machine_info()
    metrics = result["metrics"]
    if args.trace:
        units = PER_LAYER
    else:
        report["import_runs_s"] = imports = time_imports(SETUP_REPEATS)
        metrics["setup_s"] += statistics.median(imports)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = E2E_UNITS
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
