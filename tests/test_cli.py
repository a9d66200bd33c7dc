import copy
import csv
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from projlearn import experiments, learning
from projlearn.cli import ConfigError, main, validate_config, write_outputs
from projlearn.experiments import (ACCEPTANCE, OPTIONAL, REQUIRED, RUNNERS, SCHEMAS,
                                   check_acceptance, config_hash, run_retarget_obstacle)

REPO = Path(__file__).resolve().parent.parent
CONFIG_DIR = REPO / "configs"

TINY_OPT = {"restarts": 2, "max_iters": 200, "objective_tol": 1e-10, "param_tol": 1e-8}


def tiny_toy_cfg(**extra):
    cfg = {"experiment": "toy", "seed": 0, "trials": 2, "policies": ["limit_cycle"],
           "n_train": 30, "n_test": 30, "optimizer": dict(TINY_OPT)}
    cfg.update(extra)
    return cfg


def write_cfg(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


class TestValidation:
    def test_all_shipped_configs_validate(self):
        files = sorted(CONFIG_DIR.glob("*.json"))
        assert files, "no bundled configs found"
        for f in files:
            cfg = json.loads(f.read_text())
            validate_config(cfg, cfg["experiment"])

    def test_unknown_key_flagged_with_path(self):
        with pytest.raises(ConfigError, match="n_samples"):
            validate_config(tiny_toy_cfg(n_samples=10), "toy")

    def test_wrong_experiment_name(self):
        with pytest.raises(ConfigError, match="experiment"):
            validate_config(tiny_toy_cfg(), "sweep")

    def test_nested_path_in_message(self):
        cfg = {"pi": {"type": "point_attractor", "beta": -1.0, "target_deg": [0.0] * 3}}
        with pytest.raises(ConfigError, match=r"pi\.beta"):
            validate_config(cfg, "three-link")

    def test_bad_policy_name(self):
        with pytest.raises(ConfigError, match=r"policies\[0\]"):
            validate_config(tiny_toy_cfg(policies=["cubic"]), "toy")

    def test_policy_block_needs_its_type(self):
        cfg = json.loads((CONFIG_DIR / "retarget_obstacle.json").read_text())
        del cfg["pi_robot"]["type"]
        with pytest.raises(ConfigError, match=r"pi_robot\.type: missing"):
            validate_config(cfg, "retarget-obstacle")

    def test_bool_is_not_a_number(self):
        with pytest.raises(ConfigError, match="seed"):
            validate_config(tiny_toy_cfg(seed=True), "toy")


# Small sizes keep each run short where a config gets past validation.
SMALL = {
    "toy": tiny_toy_cfg(),
    "sweep": {"trials": 1, "n_test": 20, "axes": {"data_size": [10]},
              "optimizer": dict(TINY_OPT)},
    "three-link": {"trials": 1, "cases": ["x"], "n_trajectories": 4, "points_per_traj": 10,
                   "optimizer": dict(TINY_OPT)},
    "retarget-obstacle": {"train_trajectories": 2, "points_per_traj": 20,
                          "demo_duration_s": 0.5, "optimizer": dict(TINY_OPT)},
    "retarget-embodiment": {"train_trajectories": 2, "points_per_traj": 20,
                            "demo_duration_s": 0.5, "optimizer": dict(TINY_OPT)},
    "ingest-learn": {"inputs": [str(CONFIG_DIR / "data" / "keypoints_demo" / "traj_0")],
                     "optimizer": dict(TINY_OPT)},
    "compare-baseline": {"train_duration_s": 0.2, "gt_duration_s": 0.2,
                         "optimizer": dict(TINY_OPT)},
}

BAD_CONFIGS = [
    ("three-link", {"links_m": [0.1, 0.1]}, "links_m"),
    ("retarget-obstacle", {"links_m": [0.1, 0.1, 0.1, 0.1]}, "links_m"),
    ("three-link", {"pi": {"type": "point_attractor", "target_deg": [10.0]}},
     "pi.target_deg"),
    ("retarget-obstacle", {"pi_robot": {"type": "point_attractor", "target_deg": [1.0, 2.0]}},
     "pi_robot.target_deg"),
    ("retarget-embodiment",
     {"imitator": {"pi_robot": {"type": "point_attractor", "target_deg": [-10.0] * 3}}},
     "imitator.pi_robot.target_deg"),
    ("retarget-embodiment", {"imitator": {"row_correspondence": [0, 1, 5]}},
     "imitator.row_correspondence[2]"),
    ("retarget-embodiment", {"imitator": {"row_correspondence": [0, 1]}},
     "imitator.row_correspondence"),
    # a list entry may not repeat an earlier one: the report keys cases by their label
    ("toy", {"policies": ["limit_cycle", "limit_cycle"]}, "policies[1]"),
    ("three-link", {"cases": ["x", "y", "x"]}, "cases[2]"),
    ("sweep", {"axes": {"data_size": [10, 10]}}, "axes.data_size[1]"),
    ("sweep", {"axes": {"u_noise": [0.1, 0.2, 0.1]}}, "axes.u_noise[2]"),
    ("sweep", {"axes": {"pi_noise": [0.0, 0.0]}}, "axes.pi_noise[1]"),
    ("retarget-embodiment", {"imitator": {"row_correspondence": [1, 1, 0]}},
     "imitator.row_correspondence[1]"),
    ("three-link", {"target_ranges": {"x_range": [0.01, -0.01], "y_range": [0.0, 0.02],
                                      "theta_range_deg": [0.0, 180.0]}},
     "target_ranges.x_range"),
    ("ingest-learn", {"k": 5}, "k"),
    ("ingest-learn", {"k": 3}, "k"),
    ("sweep", {"axes": {"data_size": [2.7]}}, "axes.data_size[0]"),
    ("toy", {"acceptance": {"max_e_n": 1e-40}}, "acceptance.max_e_n"),
    # toy trials learn from clean data; noise is the sweep's axes
    ("toy", {"noise": {"epsilon": 0.1, "target": "actions"}}, "noise"),
    # inputs is a list of recordings; a bare path, even an existing one, is an error
    ("ingest-learn", {"inputs": str(CONFIG_DIR / "data" / "keypoints_demo" / "traj_0")},
     "inputs"),
    ("ingest-learn", {"inputs": [str(CONFIG_DIR / "data" / "keypoints_demo" / "traj_0"),
                                 "no/such/dir"]}, "inputs[1]"),
    # a recording is a directory; a file fails validation, not the run
    ("ingest-learn", {"inputs": [str(CONFIG_DIR / "toy.json")]}, "inputs[0]"),
    # single-run experiments take no trial count
    ("compare-baseline", {"trials": 3}, "trials"),
    ("retarget-obstacle", {"trials": 3}, "trials"),
    ("retarget-embodiment", {"trials": 3}, "trials"),
    ("ingest-learn", {"trials": 3}, "trials"),
    # and no experiment takes a worker count: trials run one after another
    *((experiment, {"workers": 2}, "workers") for experiment in sorted(SMALL)),
]


@pytest.mark.parametrize("experiment,bad,key_path", BAD_CONFIGS,
                         ids=[f"{e}:{p}" for e, _, p in BAD_CONFIGS])
def test_bad_config_exits_2_with_key_path(tmp_path, capsys, experiment, bad, key_path):
    cfg = dict(SMALL[experiment], experiment=experiment, **bad)
    path = write_cfg(tmp_path, cfg)
    assert main([experiment, path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"config error: {key_path}: " in err
    assert "Traceback" not in err


# Durations at dt = 0.02 s, counted the way the rollouts count steps:
# round(duration / dt), half to even, so 0.01 s is 0 steps and 0.03 s is 2.
SHORT_DURATIONS = [
    ("retarget-obstacle", "demo_duration_s", 0.005),
    ("retarget-obstacle", "demo_duration_s", 0.01),
    ("retarget-embodiment", "demo_duration_s", 0.005),
    ("compare-baseline", "gt_duration_s", 0.005),
    ("compare-baseline", "train_duration_s", 0.005),
    ("compare-baseline", "train_duration_s", 0.02),  # one sample; the baseline needs two
]


@pytest.mark.parametrize("experiment,key,value", SHORT_DURATIONS,
                         ids=[f"{e}:{k}={v}" for e, k, v in SHORT_DURATIONS])
def test_too_short_duration_exits_2_from_validation_and_run(tmp_path, capsys, experiment,
                                                            key, value):
    path = write_cfg(tmp_path, dict(SMALL[experiment], experiment=experiment, **{key: value}))
    assert main(["validate-config", path]) == 2
    assert main([experiment, path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count(f"config error: {key}: ") == 2
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("experiment,key,value", [
    ("retarget-obstacle", "demo_duration_s", 0.0101),
    ("retarget-embodiment", "demo_duration_s", 0.0101),
    ("compare-baseline", "gt_duration_s", 0.0101),
    ("compare-baseline", "train_duration_s", 0.03)])
def test_shortest_durations_with_enough_steps_validate(experiment, key, value):
    validate_config(dict(SMALL[experiment], **{key: value}), experiment)


@pytest.mark.parametrize("experiment", sorted(SMALL))
def test_no_command_reaches_the_simplex_search(tmp_path, monkeypatch, experiment):
    # and none reads an optimizer block: it is left out here and has no default
    def refuse(*args, **kwargs):
        raise AssertionError("a command reached the simplex search")
    monkeypatch.setattr(learning, "optimize", refuse)
    monkeypatch.setattr(learning, "minimize", refuse)
    cfg = {k: v for k, v in SMALL[experiment].items() if k != "optimizer"}
    path = write_cfg(tmp_path, dict(cfg, experiment=experiment))
    assert main([experiment, path, "--out", str(tmp_path / "out")]) == 0


def test_experiments_import_loads_no_process_pool():
    # Trials run in one process; a fresh import, the one the benchmark's
    # setup_s times, must not pull in multiprocessing.
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import projlearn.experiments; "
             "print('multiprocessing' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe, str(REPO / "src")], check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "False"


# Runs the toy and three-link commands on clean data, then one noisy Lambda
# learn, and prints whether scipy.optimize was loaded after each.
SCIPY_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from projlearn.cli import main
from projlearn.constraints import diagonal_selection
from projlearn.experiments import resolve
from projlearn.kinematics import PlanarArm, jacobian
from projlearn.learning import learn_constraint
from projlearn.policies import PointAttractor
from projlearn.simulator import NoiseSpec, add_noise, generate_arm_dataset
import numpy as np
loaded = lambda: "scipy.optimize" in sys.modules
ma = lambda: "numpy.ma" in sys.modules
seen = {"import": loaded(), "import numpy.ma": ma()}
for experiment, path, out in json.loads(sys.argv[2]):
    assert main(["-q", experiment, path, "--out", out]) == 0
    seen[experiment] = loaded()
    seen[experiment + " numpy.ma"] = ma()
arm = PlanarArm((0.1, 0.1, 0.1))
ds = generate_arm_dataset(arm, diagonal_selection((1, 1, 0)),
                          PointAttractor(target=np.deg2rad([10.0, -10.0, 10.0])),
                          n_trajectories=2, points_per_traj=30, dt=0.02, seed=43,
                          target_cfg=resolve({}, "three-link")["target_ranges"])
learned = learn_constraint(add_noise(ds, NoiseSpec(epsilon=0.01), 44), k=2,
                           representation="lambda", feature_fn=lambda q: jacobian(arm, q))
seen["noisy"] = loaded()
seen["learner_path"] = learned.diagnostics["learner_path"]
print(json.dumps(seen))
"""


def test_scipy_optimize_loads_only_for_a_fit(tmp_path):
    # clean toy and three-link runs learn in closed form and never import
    # scipy.optimize; a noisy Lambda learn runs the LM fit, which does.
    # Neither import nor clean run loads numpy.ma, which np.median would.
    runs = [(experiment, write_cfg(tmp_path, dict(SMALL[experiment], experiment=experiment),
                                   name=f"{experiment}.json"), str(tmp_path / experiment))
            for experiment in ("toy", "three-link")]
    out = subprocess.run([sys.executable, "-c", SCIPY_PROBE, str(REPO / "src"), json.dumps(runs)],
                         check=True, capture_output=True, text=True, timeout=300)
    assert json.loads(out.stdout) == {"import": False, "toy": False, "three-link": False,
                                      "noisy": True, "learner_path": "least_squares",
                                      "import numpy.ma": False, "toy numpy.ma": False,
                                      "three-link numpy.ma": False}


def shipped(name):
    return json.loads((CONFIG_DIR / name).read_text())


class TestAcceptanceChecks:
    """Every acceptance key, for each experiment that accepts it, on that runner's real checks."""

    # Small runs; the retarget scenarios are cheap at their shipped size.
    RUNS = {
        "toy": tiny_toy_cfg(),
        "sweep": SMALL["sweep"],
        "three-link": SMALL["three-link"],
        "compare-baseline": dict(shipped("compare_baseline.json"), train_duration_s=0.2,
                                 optimizer=dict(TINY_OPT)),
        "retarget-obstacle": shipped("retarget_obstacle.json"),
        "retarget-embodiment": shipped("retarget_embodiment.json"),
        "ingest-learn": SMALL["ingest-learn"],
    }

    # (experiment, key, shipped config holding the threshold, label of the one gated check).
    # No sweep config gates e_n; the sweep runs the toy trial, so the toy gate applies.
    MAX_KEYS = [
        ("toy", "max_mean_e_w", "toy.json", "limit_cycle: mean e_w"),
        ("toy", "max_mean_e_n", "toy.json", "limit_cycle: mean e_n"),
        ("sweep", "max_mean_e_w", "noise_sweep.json", "data_size=10: mean e_w"),
        ("sweep", "max_mean_e_n", "toy.json", "data_size=10: mean e_n"),
        ("three-link", "max_mean_e_w", "three_link.json", "x: mean e_w"),
        ("three-link", "max_mean_e_n", "three_link.json", "x: mean e_n"),
        ("compare-baseline", "max_final_task_error", "compare_baseline.json",
         "proposed final task error"),
        ("retarget-embodiment", "max_trace_rmse", "retarget_embodiment.json", "task trace RMSE"),
        ("ingest-learn", "max_e_n", "ingest_learn.json", "consistency error"),
    ]

    # Obstacles that flip one flag of the shipped scenario: one far from the
    # reach, so the direct replay clears it, and one around the reach's target,
    # which the retargeted run must also reach.
    FLIPS = [
        ("require_direct_violation", {"x_min": 0.5, "x_max": 0.6, "y_min": 0.5, "y_max": 0.6},
         "direct imitation unexpectedly clears the obstacle region"),
        ("require_retargeted_clear",
         {"x_min": -0.1, "x_max": -0.08, "y_min": 0.03, "y_max": 0.05},
         "retargeted trajectory violates the obstacle region"),
    ]

    @pytest.fixture(scope="class")
    def checks(self):
        done = {}

        def run(experiment):
            if experiment not in done:
                cfg = copy.deepcopy(self.RUNS[experiment])
                done[experiment] = RUNNERS[experiment](cfg)["checks"]
            return done[experiment]
        return run

    def test_every_key_is_covered(self):
        covered = {(e, k) for e, k, _, _ in self.MAX_KEYS} | {
            ("retarget-obstacle", k) for k, _, _ in self.FLIPS}
        accepted = {(e, k) for e, schema in SCHEMAS.items()
                    for k in schema.table["acceptance"].table}
        assert covered == accepted
        assert {k for _, k in covered} == set(ACCEPTANCE)

    @pytest.mark.parametrize("experiment,key,config,label", MAX_KEYS,
                             ids=[f"{e}:{k}" for e, k, _, _ in MAX_KEYS])
    def test_max_key(self, checks, experiment, key, config, label):
        result = {"checks": checks(experiment)}
        gated = [(lab, value) for lab, k, value in result["checks"] if k == key]
        assert [lab for lab, _ in gated] == [label]
        value = gated[0][1]
        own = shipped(config)["acceptance"][key]
        assert check_acceptance({"acceptance": {key: own}}, result) == []
        # a threshold below the value; for a value of exactly 0.0 that is a negative one
        tight = 0.5 * value if value > 0.0 else -1.0
        assert check_acceptance({"acceptance": {key: tight}}, result) == [
            f"{label} = {value:.3e} exceeds {key} = {tight:.3e}"]

    def test_nan_fails_a_max_key(self):
        # NaN compares false with everything, so "value > threshold" let it pass
        result = {"checks": [("e", "max_e_n", float("nan"))]}
        assert check_acceptance({"acceptance": {"max_e_n": 1e-10}}, result) == [
            "e is NaN, which fails max_e_n = 1.000e-10"]

    @pytest.mark.parametrize("key,obstacle,violation", FLIPS, ids=[k for k, _, _ in FLIPS])
    def test_require_key(self, checks, key, obstacle, violation):
        cfg = self.RUNS["retarget-obstacle"]
        assert check_acceptance(cfg, {"checks": checks("retarget-obstacle")}) == []
        flipped = dict(cfg, obstacle=obstacle)
        result = run_retarget_obstacle(flipped)
        assert check_acceptance(flipped, result) == [violation]
        assert check_acceptance({"acceptance": {key: False}}, result) == []


def test_report_echoes_config_as_given():
    cfg = {"seed": 0, "train_trajectories": 2, "points_per_traj": 25, "demo_duration_s": 1.0,
           "optimizer": {"restarts": 4, "max_iters": 600}}
    given = copy.deepcopy(cfg)
    report = run_retarget_obstacle(cfg)["report"]
    assert cfg == given
    assert report["config"] == given
    assert report["config_hash"] == config_hash(given)


class TestDocsMatchSchema:
    """The key tables of docs/config.md name the schema's key paths and defaults."""

    @staticmethod
    def doc_default(cell):
        # A cell that opens with a backticked JSON value gives that default.
        m = re.match(r"`([^`]*)`", cell)
        if m:
            try:
                return json.loads(m.group(1))
            except json.JSONDecodeError:
                pass
        return REQUIRED if cell.startswith("required") else OPTIONAL

    def doc_tables(self):
        docs = {name: {} for name in RUNNERS}
        section, header, applies = [], None, False
        for line in (REPO / "docs" / "config.md").read_text().splitlines():
            if line.startswith("## "):
                name = line[3:].strip().strip("`")
                section = [name] if name in docs else []
            if line.startswith("Applies to:"):
                applies = True
                section = list(docs) if "every experiment" in line else []
            if applies:
                section += [n for n in re.findall(r"`([^`]+)`", line) if n in docs]
                applies = line.strip() != ""
            if not line.startswith("|"):
                header = None
                continue
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if header is None:
                header = [c.lower() for c in cells]
                continue
            if set(line.strip()) <= set("|-: "):
                continue
            row = dict(zip(header, cells))
            targets = (re.findall(r"`([^`]+)`", row["applies to"]) if "applies to" in row
                       else section)
            assert targets, f"no experiment for the table row {line!r}"
            for name in targets:
                docs[name][row["key"].strip("`")] = self.doc_default(row["default"])
        return docs

    @staticmethod
    def schema_defaults(table, prefix=""):
        out = {}
        for key, spec in table.items():
            out[prefix + key] = spec.default
            if spec.table is not None:
                out.update(TestDocsMatchSchema.schema_defaults(spec.table, f"{prefix}{key}."))
        return out

    @pytest.mark.parametrize("experiment", sorted(SCHEMAS))
    def test_docs_list_every_key_with_its_default(self, experiment):
        documented = self.doc_tables()[experiment]
        schema = self.schema_defaults(SCHEMAS[experiment].table)
        assert sorted(documented) == sorted(schema)
        for path, default in schema.items():
            assert documented[path] == default, path


def help_text(capsys, *argv) -> str:
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--help"])
    assert exc.value.code == 0
    return capsys.readouterr().out


class TestCommandList:
    """RUNNERS is the one list of experiments: the CLI offers one subcommand per entry."""

    def test_help_names_every_runner_in_order_then_validate_config(self, capsys):
        commands = re.search(r"\{([^}]*)\}", help_text(capsys)).group(1)
        assert commands.split(",") == [*RUNNERS, "validate-config"]

    @pytest.mark.parametrize("experiment", list(RUNNERS))
    def test_help_of_a_command_is_its_runner_docstring_summary(self, capsys, experiment):
        summary = RUNNERS[experiment].__doc__.partition("\n")[0]
        # argparse rewraps the text, at spaces and hyphens
        assert re.sub(r"\s", "", summary) in re.sub(r"\s", "", help_text(capsys))

    @pytest.mark.parametrize("experiment", list(RUNNERS))
    def test_run_command_flags(self, capsys, experiment):
        flags = set(re.findall(r"--[a-z]+", help_text(capsys, experiment)))
        trials = {"--trials"} if experiment in ("toy", "sweep", "three-link") else set()
        assert flags == {"--help", "--out", "--seed", "--gnuplot"} | trials


class TestMainExitCodes:
    @pytest.mark.parametrize("experiment", ["compare-baseline", "retarget-obstacle",
                                            "retarget-embodiment", "ingest-learn"])
    def test_single_run_commands_offer_no_trials_flag(self, tmp_path, capsys, experiment):
        path = write_cfg(tmp_path, dict(SMALL[experiment], experiment=experiment))
        with pytest.raises(SystemExit) as exc:
            main([experiment, path, "--trials", "3"])
        assert exc.value.code == 2
        assert "--trials" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment", sorted(RUNNERS))
    def test_no_command_offers_a_workers_flag(self, tmp_path, capsys, experiment):
        path = write_cfg(tmp_path, dict(SMALL[experiment], experiment=experiment))
        with pytest.raises(SystemExit) as exc:
            main([experiment, path, "--workers", "2"])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["toy", str(tmp_path / "nope.json")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        assert main(["toy", str(p)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    # A config file holds one JSON object; `[]` once ran a default toy experiment.
    @pytest.mark.parametrize("content,message", [
        (b"[]", "holds a JSON list, not an object"),
        (b"[1, 2]", "holds a JSON list, not an object"),
        (b'"toy"', "holds a JSON str, not an object"),
        (b"\xff\xfe{}", "is not valid JSON"),
    ], ids=["empty-list", "list", "string", "not-utf8"])
    @pytest.mark.parametrize("command", ["toy", "validate-config"])
    def test_config_that_is_not_one_object_exits_2(self, tmp_path, capsys, monkeypatch,
                                                   content, message, command):
        monkeypatch.chdir(tmp_path)  # where a run with no --out would write results/
        path = tmp_path / "cfg.json"
        path.write_bytes(content)
        assert main([command, str(path)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"config error: {path} {message}")
        assert sorted(tmp_path.iterdir()) == [path]

    def test_validate_config_rejects_an_experiment_that_is_not_a_name(self, tmp_path, capsys):
        path = write_cfg(tmp_path, tiny_toy_cfg(experiment=["toy"]))
        assert main(["validate-config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: experiment: unknown experiment ['toy']")
        assert "Traceback" not in err

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        path = write_cfg(tmp_path, tiny_toy_cfg(banana=1))
        assert main(["toy", path]) == 2
        assert "banana" in capsys.readouterr().err

    def test_validate_config_command(self, tmp_path, capsys):
        path = write_cfg(tmp_path, tiny_toy_cfg())
        assert main(["validate-config", path]) == 0
        assert "OK toy" in capsys.readouterr().out

    def test_validate_config_needs_experiment(self, tmp_path, capsys):
        cfg = tiny_toy_cfg()
        del cfg["experiment"]
        path = write_cfg(tmp_path, cfg)
        assert main(["validate-config", path]) == 2
        assert main(["validate-config", path, "--experiment", "toy"]) == 0

    def test_acceptance_violation_exits_1(self, tmp_path):
        cfg = tiny_toy_cfg(acceptance={"max_mean_e_w": 1e-40})
        path = write_cfg(tmp_path, cfg)
        assert main(["toy", path, "--out", str(tmp_path / "out")]) == 1

    def test_nan_mean_exits_1(self, tmp_path, monkeypatch):
        monkeypatch.setattr(experiments, "eval_learned_constraint",
                            lambda model, test: {"e_w": float("nan"), "e_n": 0.0})
        path = write_cfg(tmp_path, tiny_toy_cfg(acceptance={"max_mean_e_w": 1e-6}))
        assert main(["toy", path, "--out", str(tmp_path / "out")]) == 1

    def test_acceptance_pass_exits_0(self, tmp_path):
        cfg = tiny_toy_cfg(acceptance={"max_mean_e_w": 1e-6})
        path = write_cfg(tmp_path, cfg)
        assert main(["toy", path, "--out", str(tmp_path / "out")]) == 0

    def test_run_that_fails_on_its_input_exits_3(self, tmp_path, capsys):
        # a valid config over a recording with no confident hand: the run
        # fails, no threshold is violated, and no traceback is printed
        rec = tmp_path / "no_hand"
        rec.mkdir()
        for f in sorted((CONFIG_DIR / "data" / "keypoints_demo" / "traj_0").glob("*.json")):
            frame = json.loads(f.read_text())
            for person in frame["people"]:
                person.pop("hand_right_keypoints_2d")
            (rec / f.name).write_text(json.dumps(frame))
        path = write_cfg(tmp_path, dict(SMALL["ingest-learn"], experiment="ingest-learn",
                                        inputs=[str(rec)]))
        assert main(["ingest-learn", path, "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert [line for line in err.splitlines() if "error" in line] == [
            "run error: no frame has a confident hand point; the wrist angle needs one"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("edit,code,errors", [
        # null reads as absent: the frame is a gap
        (lambda person: person.update(pose_keypoints_2d=None), 0, []),
        # a null coordinate (the right shoulder's x) makes the point absent: a gap too
        (lambda person: person["pose_keypoints_2d"].__setitem__(6, None), 0, []),
        (lambda person: person.update(pose_keypoints_2d={"x": 1.0}), 3,
         ["run error: {path}: frame 7: pose_keypoints_2d is a JSON dict, not a list"]),
    ], ids=["null", "null_coordinate", "dict"])
    def test_keypoint_field_of_the_wrong_type(self, tmp_path, capsys, edit, code, errors):
        rec = tmp_path / "traj_0"
        shutil.copytree(CONFIG_DIR / "data" / "keypoints_demo" / "traj_0", rec)
        path = sorted(rec.glob("*_keypoints.json"))[7]
        frame = json.loads(path.read_text())
        edit(frame["people"][0])
        path.write_text(json.dumps(frame))
        cfg = write_cfg(tmp_path, dict(SMALL["ingest-learn"], experiment="ingest-learn",
                                       inputs=[str(rec)]))
        assert main(["ingest-learn", cfg, "--out", str(tmp_path / "out")]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert [line for line in err.splitlines() if "error" in line] == [
            e.format(path=path) for e in errors]
        assert (tmp_path / "out").exists() == (code == 0)


class TestOutputs:
    def run_toy(self, tmp_path, out_name="out", **extra):
        path = write_cfg(tmp_path, tiny_toy_cfg(**extra))
        out = tmp_path / out_name
        assert main(["toy", path, "--out", str(out)]) == 0
        return out

    def test_report_and_trials_written(self, tmp_path):
        out = self.run_toy(tmp_path)
        report = json.loads((out / "report.json").read_text())
        assert report["experiment"] == "toy"
        assert "limit_cycle" in report["cases"]
        lines = (out / "trials.csv").read_text().splitlines()
        assert lines[0] == "trial,case,seed,e_w,e_n,objective"
        assert len(lines) == 3

    def test_trials_csv_row_is_plain_text(self, tmp_path):
        row = {"trial": 3, "case": "xy", "seed": (1, 2), "e_w": np.float64(0.5), "e_n": 0.25,
               "objective": np.float64(1e-9)}
        write_outputs({"report": {}, "rows": [row]}, tmp_path, False)
        assert (tmp_path / "trials.csv").read_bytes() == (
            b"trial,case,seed,e_w,e_n,objective\n3,xy,1/2,0.5,0.25,1e-09\n")

    @pytest.mark.parametrize("experiment", ["retarget-obstacle", "sweep"])
    def test_every_file_ends_lines_in_newline_and_csvs_read_back_exactly(self, tmp_path,
                                                                          experiment):
        result = RUNNERS[experiment](dict(SMALL[experiment], experiment=experiment))
        write_outputs(result, tmp_path, True)
        written = sorted(p.relative_to(tmp_path).as_posix()
                         for p in tmp_path.rglob("*") if p.is_file())
        for name in written:
            data = (tmp_path / name).read_bytes()
            assert data.endswith(b"\n") and b"\r" not in data, name

        def cells(name):
            with open(tmp_path / name, newline="") as fh:
                header, *rows = csv.reader(fh)
            return header, rows

        def exact(rows, expected):
            # the text of a float cell reads back to the same double
            return np.array_equal(np.array(rows, dtype=float), np.array(expected, dtype=float),
                                  equal_nan=True)

        header, rows = cells("trials.csv")
        assert header == ["trial", "case", "seed", "e_w", "e_n", "objective"]
        assert [r[:3] for r in rows] == [
            [str(r["trial"]), r["case"], "/".join(map(str, r["seed"]))] for r in result["rows"]]
        assert exact([r[3:] for r in rows],
                     [[r["e_w"], r["e_n"], r["objective"]] for r in result["rows"]])
        if experiment == "sweep":
            header, rows = cells("sweep.csv")
            assert header == ["axis", "value", "e_w_mean", "e_w_sd", "e_n_mean", "e_n_sd"]
            points = result["report"]["points"]
            assert [r[0] for r in rows] == [p["axis"] for p in points]
            assert exact([r[1:] for r in rows],
                         [[p["value"], p["e_w"]["mean"], p["e_w"]["sd"], p["e_n"]["mean"],
                           p["e_n"]["sd"]] for p in points])
        for name, traj in result.get("trajectories", {}).items():
            _, rows = cells(f"trajectories/{name}.csv")
            parts = [a for a in (traj.x, traj.u, traj.v, traj.w, traj.b, traj.pi) if a is not None]
            assert exact(rows, np.column_stack([np.arange(traj.n_samples) * traj.dt, *parts]))
        assert ("trajectories/demonstration.csv" in written) == (experiment != "sweep")

    def test_rerun_is_byte_identical(self, tmp_path):
        a = self.run_toy(tmp_path, "out_a")
        b = self.run_toy(tmp_path, "out_b")
        assert (a / "trials.csv").read_bytes() == (b / "trials.csv").read_bytes()
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()

    def test_seed_changes_results(self, tmp_path):
        a = self.run_toy(tmp_path, "out_a")
        path = write_cfg(tmp_path, tiny_toy_cfg(), name="cfg2.json")
        out_b = tmp_path / "out_b"
        assert main(["toy", path, "--seed", "7", "--out", str(out_b)]) == 0
        assert (a / "trials.csv").read_bytes() != (out_b / "trials.csv").read_bytes()
        report = json.loads((out_b / "report.json").read_text())
        assert report["master_seed"] == 7

    def test_trials_override(self, tmp_path):
        path = write_cfg(tmp_path, tiny_toy_cfg())
        out = tmp_path / "out"
        assert main(["toy", path, "--trials", "3", "--out", str(out)]) == 0
        assert len((out / "trials.csv").read_text().splitlines()) == 4

    def test_gnuplot_scripts(self, tmp_path):
        path = write_cfg(tmp_path, tiny_toy_cfg())
        out = tmp_path / "out"
        assert main(["toy", path, "--out", str(out), "--gnuplot"]) == 0
        assert (out / "plot_trials.gp").exists()

    def test_sweep_writes_sweep_csv(self, tmp_path):
        cfg = {"experiment": "sweep", "seed": 0, "trials": 2, "policy": "limit_cycle",
               "n_train": 20, "n_test": 20, "axes": {"data_size": [10, 20]},
               "optimizer": dict(TINY_OPT)}
        path = write_cfg(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["sweep", path, "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "axis,value,e_w_mean,e_w_sd,e_n_mean,e_n_sd"
        assert len(lines) == 3
        assert lines[1].startswith("data_size,10")

    def test_reproduction_writes_trajectories(self, tmp_path):
        cfg = {"experiment": "retarget-obstacle", "seed": 0,
               "train_trajectories": 2, "points_per_traj": 25,
               "demo_duration_s": 1.0,
               "optimizer": {"restarts": 4, "max_iters": 600,
                             "objective_tol": 1e-12, "param_tol": 1e-10}}
        path = write_cfg(tmp_path, cfg)
        out = tmp_path / "out"
        code = main(["retarget-obstacle", path, "--out", str(out)])
        assert code == 0  # no acceptance block, so the short run cannot fail
        traj_dir = out / "trajectories"
        assert (traj_dir / "demonstration.csv").exists()
        assert (traj_dir / "retargeted.csv").exists()


class TestIngestCommand:
    def test_bundled_recordings_run_clean(self, tmp_path, monkeypatch):
        monkeypatch.chdir(REPO)
        out = tmp_path / "out"
        assert main(["ingest-learn", str(CONFIG_DIR / "ingest_learn.json"),
                     "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["e_n"] < 1e-10
        assert report["n_trajectories"] == 3

    def test_report_shows_the_learner_path(self, tmp_path):
        # clean recordings: the closed-form start is the answer, and the
        # scatter spectrum shows k = 2; trials.csv keeps its fixed columns
        path = write_cfg(tmp_path, dict(SMALL["ingest-learn"], experiment="ingest-learn"))
        out = tmp_path / "out"
        assert main(["ingest-learn", path, "--out", str(out)]) == 0
        diag = json.loads((out / "report.json").read_text())["diagnostics"]
        assert diag["learner_path"] == "closed_form"
        assert diag["objective_evals"] == 1
        spectrum = diag["spectrum"]
        assert len(spectrum) == 3 and spectrum == sorted(spectrum, reverse=True)
        assert spectrum[2] < 1e-12 * spectrum[1]
        lines = (out / "trials.csv").read_text().splitlines()
        assert lines[0] == "trial,case,seed,e_w,e_n,objective"
