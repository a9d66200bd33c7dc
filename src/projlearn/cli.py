"""Command-line entry point.

Every experiment is driven by a JSON config file. The CLI validates the
config (exit code 2 on any problem, with the offending key path in the
message), runs the named experiment, and writes a report plus per-trial
CSV into the output directory. Acceptance thresholds embedded in the
config are checked after the run; violations exit with code 1.
"""

import argparse
import json
import logging
import sys
from pathlib import Path

from .experiments import RUNNERS, THREE_LINK_CASES, check_acceptance, config_hash
from .metrics import MetricRecord
from .policies import TOY_POLICIES
from .simulator import save_trajectory_csv

log = logging.getLogger("projlearn")

EXPERIMENTS = tuple(RUNNERS)


class ConfigError(Exception):
    pass


# --- config validation ------------------------------------------------------------

def _fail(path, msg):
    raise ConfigError(f"{path}: {msg}")


def _number(cfg, key, path, lo=None, hi=None, required=False):
    if key not in cfg:
        if required:
            _fail(f"{path}{key}", "missing required key")
        return
    v = cfg[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        _fail(f"{path}{key}", f"expected a number, got {type(v).__name__}")
    if lo is not None and v < lo:
        _fail(f"{path}{key}", f"must be >= {lo}, got {v}")
    if hi is not None and v > hi:
        _fail(f"{path}{key}", f"must be <= {hi}, got {v}")


def _integer(cfg, key, path, lo=None, required=False):
    if key not in cfg:
        if required:
            _fail(f"{path}{key}", "missing required key")
        return
    v = cfg[key]
    if isinstance(v, bool) or not isinstance(v, int):
        _fail(f"{path}{key}", f"expected an integer, got {type(v).__name__}")
    if lo is not None and v < lo:
        _fail(f"{path}{key}", f"must be >= {lo}, got {v}")


def _choice(cfg, key, path, options, required=False):
    if key not in cfg:
        if required:
            _fail(f"{path}{key}", "missing required key")
        return
    if cfg[key] not in options:
        _fail(f"{path}{key}", f"must be one of {sorted(options)}, got {cfg[key]!r}")


def _number_list(cfg, key, path, length=None, lo=None, required=False):
    if key not in cfg:
        if required:
            _fail(f"{path}{key}", "missing required key")
        return
    v = cfg[key]
    if not isinstance(v, list) or any(isinstance(x, bool) or not isinstance(x, (int, float))
                                      for x in v):
        _fail(f"{path}{key}", "expected a list of numbers")
    if length is not None and len(v) != length:
        _fail(f"{path}{key}", f"expected {length} entries, got {len(v)}")
    if lo is not None and any(x < lo for x in v):
        _fail(f"{path}{key}", f"entries must be >= {lo}")


def _subdict(cfg, key, path):
    if key not in cfg:
        return None
    if not isinstance(cfg[key], dict):
        _fail(f"{path}{key}", f"expected an object, got {type(cfg[key]).__name__}")
    return cfg[key]


def _known_keys(cfg, allowed, path=""):
    for key in cfg:
        if key not in allowed:
            _fail(f"{path}{key}", "unknown key")


def _validate_noise(cfg, path):
    noise = _subdict(cfg, "noise", path)
    if noise is None:
        return
    _known_keys(noise, {"epsilon", "target"}, f"{path}noise.")
    _number(noise, "epsilon", f"{path}noise.", lo=0.0, required=True)
    _choice(noise, "target", f"{path}noise.", {"actions", "prior_policy"})


def _validate_optimizer(cfg, path=""):
    oc = _subdict(cfg, "optimizer", path)
    if oc is None:
        return
    _known_keys(oc, {"restarts", "max_iters", "objective_tol", "param_tol"},
                f"{path}optimizer.")
    _integer(oc, "restarts", f"{path}optimizer.", lo=1)
    _integer(oc, "max_iters", f"{path}optimizer.", lo=1)
    _number(oc, "objective_tol", f"{path}optimizer.", lo=0.0)
    _number(oc, "param_tol", f"{path}optimizer.", lo=0.0)


def _validate_pi(cfg, key, path, target_key="target_deg"):
    pi = _subdict(cfg, key, path)
    if pi is None:
        return
    _known_keys(pi, {"type", "beta", target_key}, f"{path}{key}.")
    _choice(pi, "type", f"{path}{key}.", {"point_attractor"}, required=True)
    _number(pi, "beta", f"{path}{key}.", lo=0.0)
    _number_list(pi, target_key, f"{path}{key}.", required=True)


def _validate_acceptance(cfg):
    acc = _subdict(cfg, "acceptance", "")
    if acc is None:
        return
    numeric = {"max_mean_e_w", "max_mean_e_n", "max_final_task_error",
               "max_trace_rmse", "max_e_n"}
    flags = {"require_retargeted_clear", "require_direct_violation"}
    _known_keys(acc, numeric | flags, "acceptance.")
    for key in numeric:
        _number(acc, key, "acceptance.", lo=0.0)
    for key in flags:
        if key in acc and not isinstance(acc[key], bool):
            _fail(f"acceptance.{key}", "expected true or false")


def _validate_three_link_common(cfg):
    _number_list(cfg, "links_m", "", lo=1e-12)
    _number(cfg, "dt", "", lo=1e-9)
    _validate_pi(cfg, "pi", "")
    tr = _subdict(cfg, "target_ranges", "")
    if tr is not None:
        _known_keys(tr, {"x_range", "y_range", "theta_range_deg"}, "target_ranges.")
        for key in ("x_range", "y_range", "theta_range_deg"):
            _number_list(tr, key, "target_ranges.", length=2, required=True)


COMMON_KEYS = {"experiment", "seed", "trials", "workers", "optimizer", "acceptance", "out"}


def _validate_toy(cfg):
    _known_keys(cfg, COMMON_KEYS | {"policies", "n_train", "n_test", "noise"})
    if "policies" in cfg:
        if not isinstance(cfg["policies"], list) or not cfg["policies"]:
            _fail("policies", "expected a non-empty list")
        for i, name in enumerate(cfg["policies"]):
            if name not in TOY_POLICIES:
                _fail(f"policies[{i}]", f"unknown policy {name!r}; "
                      f"choose from {sorted(TOY_POLICIES)}")
    _integer(cfg, "n_train", "", lo=1)
    _integer(cfg, "n_test", "", lo=1)
    _validate_noise(cfg, "")


def _validate_sweep(cfg):
    _known_keys(cfg, COMMON_KEYS | {"policy", "axes", "n_train", "n_test"})
    _choice(cfg, "policy", "", set(TOY_POLICIES))
    axes = _subdict(cfg, "axes", "")
    if axes is None or not axes:
        _fail("axes", "missing required key (at least one sweep axis)")
    _known_keys(axes, {"data_size", "u_noise", "pi_noise"}, "axes.")
    for axis, values in axes.items():
        if not isinstance(values, list) or not values:
            _fail(f"axes.{axis}", "expected a non-empty list of values")
        for i, v in enumerate(values):
            if isinstance(v, bool) or not isinstance(v, (int, float)) or v < 0:
                _fail(f"axes.{axis}[{i}]", f"expected a non-negative number, got {v!r}")
        if axis == "data_size" and any(int(v) < 2 for v in values):
            _fail(f"axes.{axis}", "training sizes must be >= 2")
    _integer(cfg, "n_train", "", lo=1)
    _integer(cfg, "n_test", "", lo=1)


def _validate_three_link(cfg):
    _known_keys(cfg, COMMON_KEYS | {"cases", "links_m", "dt", "n_trajectories",
                                    "points_per_traj", "pi", "target_ranges"})
    if "cases" in cfg:
        if not isinstance(cfg["cases"], list) or not cfg["cases"]:
            _fail("cases", "expected a non-empty list")
        for i, case in enumerate(cfg["cases"]):
            if case not in THREE_LINK_CASES:
                _fail(f"cases[{i}]", f"unknown case {case!r}; "
                      f"choose from {sorted(THREE_LINK_CASES)}")
    _integer(cfg, "n_trajectories", "", lo=2)
    _integer(cfg, "points_per_traj", "", lo=2)
    _validate_three_link_common(cfg)


def _validate_compare_baseline(cfg):
    _known_keys(cfg, COMMON_KEYS | {"case", "links_m", "dt", "pi", "target_ranges",
                                    "train_trajectories", "train_duration_s",
                                    "gt_start_deg", "gt_target", "task_gain",
                                    "gt_duration_s"})
    _choice(cfg, "case", "", set(THREE_LINK_CASES))
    _integer(cfg, "train_trajectories", "", lo=1)
    _number(cfg, "train_duration_s", "", lo=1e-9)
    _number_list(cfg, "gt_start_deg", "", length=3)
    _number_list(cfg, "gt_target", "", length=3)
    _number(cfg, "task_gain", "", lo=1e-9)
    _number(cfg, "gt_duration_s", "", lo=1e-9)
    _validate_three_link_common(cfg)


RETARGET_KEYS = {"links_m", "dt", "pi", "target_ranges", "train_trajectories",
                 "points_per_traj", "demo_start_deg", "demo_target", "demo_duration_s"}


def _validate_retarget_common(cfg):
    _integer(cfg, "train_trajectories", "", lo=1)
    _integer(cfg, "points_per_traj", "", lo=2)
    _number_list(cfg, "demo_start_deg", "", length=3)
    _number_list(cfg, "demo_target", "", length=3)
    _number(cfg, "demo_duration_s", "", lo=1e-9)
    _validate_three_link_common(cfg)


def _validate_retarget_obstacle(cfg):
    _known_keys(cfg, COMMON_KEYS | RETARGET_KEYS | {"obstacle", "pi_robot"})
    _validate_retarget_common(cfg)
    _validate_pi(cfg, "pi_robot", "")
    obs = _subdict(cfg, "obstacle", "")
    if obs is not None:
        _known_keys(obs, {"x_min", "x_max", "y_min", "y_max"}, "obstacle.")
        for key in ("x_min", "x_max", "y_min", "y_max"):
            _number(obs, key, "obstacle.", required=True)
        if obs["x_min"] >= obs["x_max"] or obs["y_min"] >= obs["y_max"]:
            _fail("obstacle", "min bounds must be strictly below max bounds")


def _validate_retarget_embodiment(cfg):
    _known_keys(cfg, COMMON_KEYS | RETARGET_KEYS | {"imitator"})
    _validate_retarget_common(cfg)
    imit = _subdict(cfg, "imitator", "")
    if imit is None:
        return
    _known_keys(imit, {"links_m", "start_deg", "pi_robot", "row_correspondence"},
                "imitator.")
    _number_list(imit, "links_m", "imitator.", lo=1e-12)
    _number_list(imit, "start_deg", "imitator.")
    _validate_pi(imit, "pi_robot", "imitator.")
    if "row_correspondence" in imit:
        rc = imit["row_correspondence"]
        if (not isinstance(rc, list) or any(isinstance(x, bool) or not isinstance(x, int)
                                            for x in rc)):
            _fail("imitator.row_correspondence", "expected a list of row indices")
        if len(set(rc)) != len(rc):
            _fail("imitator.row_correspondence", "row indices must be distinct")
    if "links_m" in imit and "start_deg" in imit:
        if len(imit["links_m"]) != len(imit["start_deg"]):
            _fail("imitator.start_deg",
                  f"expected {len(imit['links_m'])} entries to match links_m")


def _validate_ingest(cfg):
    _known_keys(cfg, COMMON_KEYS | {"inputs", "side", "fps", "scale",
                                    "confidence_floor", "k", "pi"})
    if "inputs" not in cfg:
        _fail("inputs", "missing required key")
    inputs = cfg["inputs"]
    if isinstance(inputs, str):
        inputs = [inputs]
    if not isinstance(inputs, list) or not inputs or any(not isinstance(p, str)
                                                         for p in inputs):
        _fail("inputs", "expected a directory path or non-empty list of paths")
    _choice(cfg, "side", "", {"left", "right"})
    _number(cfg, "fps", "", lo=1e-9)
    _number(cfg, "scale", "", lo=1e-9)
    _number(cfg, "confidence_floor", "", lo=0.0, hi=1.0)
    _integer(cfg, "k", "", lo=1)
    _validate_pi(cfg, "pi", "", target_key="target_deg_human")


VALIDATORS = {
    "toy": _validate_toy,
    "sweep": _validate_sweep,
    "three-link": _validate_three_link,
    "compare-baseline": _validate_compare_baseline,
    "retarget-obstacle": _validate_retarget_obstacle,
    "retarget-embodiment": _validate_retarget_embodiment,
    "ingest-learn": _validate_ingest,
}


def validate_config(cfg: dict, experiment: str):
    if not isinstance(cfg, dict):
        _fail("(root)", f"expected a JSON object, got {type(cfg).__name__}")
    if "experiment" in cfg and cfg["experiment"] != experiment:
        _fail("experiment", f"config names {cfg['experiment']!r} but the "
              f"{experiment!r} command was invoked")
    _integer(cfg, "seed", "", lo=0)
    _integer(cfg, "trials", "", lo=1)
    _integer(cfg, "workers", "", lo=1)
    if "out" in cfg and not isinstance(cfg["out"], str):
        _fail("out", "expected a path string")
    _validate_optimizer(cfg)
    _validate_acceptance(cfg)
    VALIDATORS[experiment](cfg)


# --- output writers ----------------------------------------------------------------

def write_trials_csv(rows, path: Path):
    lines = [",".join(MetricRecord.CSV_FIELDS)]
    for r in rows:
        rec = MetricRecord(trial=r["trial"], case=r["case"], seed=tuple(r["seed"]),
                           e_w=r["e_w"], e_n=r["e_n"], objective=r["objective"])
        lines.append(",".join(rec.csv_row()))
    path.write_text("\n".join(lines) + "\n")


def write_sweep_csv(points, path: Path):
    lines = ["axis,value,e_w_mean,e_w_sd,e_n_mean,e_n_sd"]
    for p in points:
        lines.append(",".join([p["axis"], repr(float(p["value"])),
                               repr(float(p["e_w"]["mean"])), repr(float(p["e_w"]["sd"])),
                               repr(float(p["e_n"]["mean"])), repr(float(p["e_n"]["sd"]))]))
    path.write_text("\n".join(lines) + "\n")


def write_report(report: dict, path: Path):
    path.write_text(json.dumps(report, indent=2) + "\n")


GNUPLOT_TRIALS = """\
# Per-trial errors by case. Run: gnuplot -p plot_trials.gp
set datafile separator ","
set logscale y
set xlabel "trial"
set ylabel "normalised error"
set key outside
plot "trials.csv" using 1:4 with points pt 7 title "e_w", \\
     "trials.csv" using 1:5 with points pt 5 title "e_n"
"""

GNUPLOT_SWEEP = """\
# Mean error against the sweep value. Run: gnuplot -p plot_sweep.gp
set datafile separator ","
set logscale y
set xlabel "sweep value"
set ylabel "mean normalised error"
set key outside
plot "sweep.csv" using 2:3 with linespoints pt 7 title "e_w", \\
     "sweep.csv" using 2:5 with linespoints pt 5 title "e_n"
"""

GNUPLOT_TRACES = """\
# Joint trajectories from each rollout CSV. Run: gnuplot -p plot_traces.gp
set datafile separator ","
set xlabel "t [s]"
set ylabel "joint angle [rad]"
set key outside
plot for [f in system("ls *.csv")] f using 1:2 with lines title f
"""


def write_gnuplot(out_dir: Path, result: dict, experiment: str):
    (out_dir / "plot_trials.gp").write_text(GNUPLOT_TRIALS)
    if experiment == "sweep":
        (out_dir / "plot_sweep.gp").write_text(GNUPLOT_SWEEP)
    if "trajectories" in result:
        (out_dir / "trajectories" / "plot_traces.gp").write_text(GNUPLOT_TRACES)


def write_outputs(result: dict, cfg: dict, out_dir: Path, gnuplot: bool, experiment: str):
    out_dir.mkdir(parents=True, exist_ok=True)
    write_report(result["report"], out_dir / "report.json")
    write_trials_csv(result["rows"], out_dir / "trials.csv")
    if experiment == "sweep":
        write_sweep_csv(result["report"]["points"], out_dir / "sweep.csv")
    if "trajectories" in result:
        traj_dir = out_dir / "trajectories"
        traj_dir.mkdir(exist_ok=True)
        for name, traj in result["trajectories"].items():
            save_trajectory_csv(traj, traj_dir / f"{name}.csv")
    if gnuplot:
        write_gnuplot(out_dir, result, experiment)


# --- argument parsing ---------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="projlearn",
        description="Learn null-space constraints from demonstrations with a known "
                    "secondary-policy prior, and retarget the recovered tasks.")
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    parser.add_argument("-q", "--quiet", action="store_true", help="warnings only")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_command(name, summary):
        p = sub.add_parser(name, help=summary)
        p.add_argument("config", help="path to a JSON config file")
        p.add_argument("--out", help="output directory (default: from config, "
                                     "else results/<experiment>)")
        p.add_argument("--seed", type=int, help="override the master seed")
        p.add_argument("--trials", type=int, help="override the trial count")
        p.add_argument("--workers", type=int, help="parallel trial workers")
        p.add_argument("--gnuplot", action="store_true",
                       help="also write gnuplot scripts next to the CSVs")
        return p

    add_run_command("toy", "constraint recovery on the 2D toy system")
    add_run_command("sweep", "toy-system sweeps over data size and noise")
    add_run_command("three-link", "selection-constraint recovery on a 3-link arm")
    add_run_command("compare-baseline", "head-to-head against the prior-free learner")
    add_run_command("retarget-obstacle", "null-space swap around an obstacle")
    add_run_command("retarget-embodiment", "task transfer to a 7-link arm")
    add_run_command("ingest-learn", "learn from pose-keypoint recordings")

    v = sub.add_parser("validate-config", help="check a config file and exit")
    v.add_argument("config", help="path to a JSON config file")
    v.add_argument("--experiment", help="experiment the config is for "
                                        "(default: its 'experiment' key)")
    return parser


def load_config(path: str) -> dict:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        return json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc


def _apply_overrides(cfg: dict, args) -> dict:
    cfg = dict(cfg)
    for key in ("seed", "trials", "workers"):
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    level = logging.DEBUG if args.verbose else (logging.WARNING if args.quiet
                                                else logging.INFO)
    logging.basicConfig(level=level, format="%(levelname)s %(message)s")

    try:
        cfg = load_config(args.config)
        if args.command == "validate-config":
            experiment = args.experiment or cfg.get("experiment")
            if experiment is None:
                raise ConfigError("experiment: missing key and no --experiment given")
            if experiment not in VALIDATORS:
                raise ConfigError(f"experiment: unknown experiment {experiment!r}; "
                                  f"choose from {sorted(VALIDATORS)}")
            validate_config(cfg, experiment)
            print(f"OK {experiment} config_hash={config_hash(cfg)}")
            return 0
        cfg = _apply_overrides(cfg, args)
        validate_config(cfg, args.command)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    out_dir = Path(args.out or cfg.get("out") or f"results/{args.command}")
    log.info("running %s (config hash %s)", args.command, config_hash(cfg))
    result = RUNNERS[args.command](cfg)
    write_outputs(result, cfg, out_dir, args.gnuplot, args.command)
    log.info("wrote %s", out_dir / "report.json")

    report = result["report"]
    if "cases" in report:
        for case, stats in report["cases"].items():
            log.info("%-14s mean e_w %.3e  mean e_n %.3e", case,
                     stats["e_w"]["mean"], stats["e_n"]["mean"])
    if "points" in report:
        for point in report["points"]:
            log.info("%s=%-8g mean e_w %.3e  mean e_n %.3e", point["axis"],
                     point["value"], point["e_w"]["mean"], point["e_n"]["mean"])
    if args.command == "compare-baseline":
        log.info("final task error: proposed %.3e, baseline %.3e",
                 report["proposed"]["final_task_error"],
                 report["baseline"]["final_task_error"])
    if args.command == "retarget-obstacle":
        log.info("direct clear=%s, retargeted clear=%s",
                 report["direct"]["clear"], report["retargeted"]["clear"])
    if args.command == "retarget-embodiment":
        log.info("task trace RMSE %.3e", report["trace_rmse"])
    if args.command == "ingest-learn":
        log.info("consistency error %.3e over %d samples",
                 report["e_n"], report["n_samples"])

    violations = check_acceptance(cfg, result)
    for v in violations:
        log.warning("acceptance violation: %s", v)
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
