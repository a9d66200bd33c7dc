"""Command-line entry point.

Every experiment is driven by a JSON config file. The CLI validates the
config (exit code 2 on any problem, with the offending key path in the
message), runs the named experiment, and writes a report plus per-trial
CSV into the output directory. Every check the runner returns is logged
and compared with the acceptance thresholds embedded in the config;
violations exit with code 1.
"""

import argparse
import json
import logging
import sys
from pathlib import Path

from .experiments import RUNNERS, SCHEMAS, ConfigError, check_acceptance, config_hash
from .experiments import resolve as validate_config
from .simulator import save_trajectory_csv

log = logging.getLogger("projlearn")


# --- output writers ----------------------------------------------------------------

def write_trials_csv(rows, path: Path):
    lines = ["trial,case,seed,e_w,e_n,objective"]
    for r in rows:
        lines.append(",".join([str(r["trial"]), r["case"], "/".join(str(s) for s in r["seed"]),
                               repr(float(r["e_w"])), repr(float(r["e_n"])),
                               repr(float(r["objective"]))]))
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
        if "trials" in SCHEMAS[name].table:  # multi-trial experiments only
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
            if experiment not in RUNNERS:
                raise ConfigError(f"experiment: unknown experiment {experiment!r}; "
                                  f"choose from {sorted(RUNNERS)}")
            validate_config(cfg, experiment)
            print(f"OK {experiment} config_hash={config_hash(cfg)}")
            return 0
        cfg = _apply_overrides(cfg, args)
        validate_config(cfg, args.command)
        out_dir = Path(args.out or cfg.get("out") or f"results/{args.command}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    log.info("running %s (config hash %s)", args.command, config_hash(cfg))
    result = RUNNERS[args.command](cfg)
    write_outputs(result, cfg, out_dir, args.gnuplot, args.command)
    log.info("wrote %s", out_dir / "report.json")

    for label, _, value in result["checks"]:
        log.info("%s = %s", label, value if isinstance(value, bool) else f"{value:.3e}")

    violations = check_acceptance(cfg, result)
    for v in violations:
        log.warning("acceptance violation: %s", v)
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
