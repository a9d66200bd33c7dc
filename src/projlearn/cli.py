"""Command-line entry point.

Every experiment is driven by a JSON config file. The CLI validates the
config (exit code 2 on any problem, with the offending key path in the
message), runs the named experiment (one subcommand per entry of
experiments.RUNNERS), and writes what the runner returns into the output
directory: the report, the per-trial CSV, and any further table or
trajectory CSVs. Every check the runner returns is logged
and compared with the acceptance thresholds embedded in the config;
violations exit with code 1. A run that fails on its input (a recording it
cannot read or use, a file it cannot write, a rollout whose constraint loses
rank) prints one ``run error:`` line and exits with code 3.
"""

import argparse
import json
import logging
import sys
from pathlib import Path

import numpy as np

from .experiments import RUNNERS, SCHEMAS, ConfigError, check_acceptance, config_hash
from .experiments import resolve as validate_config
from .ingest import read_json_object
from .simulator import RankCollapseError

log = logging.getLogger("projlearn")


# --- output writers ----------------------------------------------------------------

def write_csv(path: Path, header: str, rows):
    """Write the header line, then one comma-separated line per row, each ending in "\\n".

    A string cell is written as it is, any other as repr(float(cell)), which
    reads back to the same double.
    """
    lines = [header]
    lines += [",".join(c if isinstance(c, str) else repr(float(c)) for c in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


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

GNUPLOT_TRACES = """\
# Joint trajectories from each rollout CSV. Run: gnuplot -p plot_traces.gp
set datafile separator ","
set xlabel "t [s]"
set ylabel "joint angle [rad]"
set key outside
plot for [f in system("ls *.csv")] f using 1:2 with lines title f
"""


def write_gnuplot(out_dir: Path, result: dict):
    (out_dir / "plot_trials.gp").write_text(GNUPLOT_TRIALS)
    for name, (_, _, script) in result.get("tables", {}).items():
        (out_dir / f"plot_{name}.gp").write_text(script)
    if "trajectories" in result:
        (out_dir / "trajectories" / "plot_traces.gp").write_text(GNUPLOT_TRACES)


def write_outputs(result: dict, out_dir: Path, gnuplot: bool):
    """Write report.json, trials.csv, every table the result carries and its trajectories."""
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(json.dumps(result["report"], indent=2) + "\n")
    write_csv(out_dir / "trials.csv", "trial,case,seed,e_w,e_n,objective",
              ([str(r["trial"]), r["case"], "/".join(str(s) for s in r["seed"]),
                r["e_w"], r["e_n"], r["objective"]] for r in result["rows"]))
    for name, (header, rows, _) in result.get("tables", {}).items():
        write_csv(out_dir / f"{name}.csv", header, rows)
    if "trajectories" in result:
        traj_dir = out_dir / "trajectories"
        traj_dir.mkdir(exist_ok=True)
        for name, traj in result["trajectories"].items():
            # Columns t, then each array the trajectory has: x1..xn, u1..un, v1..vn, ...
            blocks = traj.arrays()
            header = ["t"] + [f"{k}{i + 1}" for k, a in blocks.items() for i in range(a.shape[1])]
            t = np.arange(traj.n_samples) * traj.dt
            write_csv(traj_dir / f"{name}.csv", ",".join(header),
                      np.column_stack([t, *blocks.values()]))
    if gnuplot:
        write_gnuplot(out_dir, result)


# --- argument parsing ---------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="projlearn",
        description="Learn null-space constraints from demonstrations with a known "
                    "secondary-policy prior, and retarget the recovered tasks.")
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    parser.add_argument("-q", "--quiet", action="store_true", help="warnings only")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, runner in RUNNERS.items():
        p = sub.add_parser(name, help=runner.__doc__.partition("\n")[0])
        p.add_argument("config", help="path to a JSON config file")
        p.add_argument("--out", help="output directory (default: from config, "
                                     "else results/<experiment>)")
        p.add_argument("--seed", type=int, help="override the master seed")
        if "trials" in SCHEMAS[name].table:  # multi-trial experiments only
            p.add_argument("--trials", type=int, help="override the trial count")
        p.add_argument("--gnuplot", action="store_true",
                       help="also write gnuplot scripts next to the CSVs")

    v = sub.add_parser("validate-config", help="check a config file and exit")
    v.add_argument("config", help="path to a JSON config file")
    v.add_argument("--experiment", help="experiment the config is for "
                                        "(default: its 'experiment' key)")
    return parser


def load_config(path: str) -> dict:
    try:
        return read_json_object(Path(path))
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from exc
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


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
            if not isinstance(experiment, str) or experiment not in RUNNERS:
                raise ConfigError(f"experiment: unknown experiment {experiment!r}; "
                                  f"choose from {sorted(RUNNERS)}")
            validate_config(cfg, experiment)
            print(f"OK {experiment} config_hash={config_hash(cfg)}")
            return 0
        cfg.update((key, value) for key in ("seed", "trials")
                   if (value := getattr(args, key, None)) is not None)
        validate_config(cfg, args.command)
        out_dir = Path(args.out or cfg.get("out") or f"results/{args.command}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    log.info("running %s (config hash %s)", args.command, config_hash(cfg))
    try:
        result = RUNNERS[args.command](cfg)
        write_outputs(result, out_dir, args.gnuplot)
    except (ValueError, OSError, RankCollapseError) as exc:
        print(f"run error: {exc}", file=sys.stderr)
        return 3
    log.info("wrote %s", out_dir / "report.json")

    for label, _, value in result["checks"]:
        log.info("%s = %s", label, value if isinstance(value, bool) else f"{value:.3e}")

    violations = check_acceptance(cfg, result)
    for v in violations:
        log.warning("acceptance violation: %s", v)
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
