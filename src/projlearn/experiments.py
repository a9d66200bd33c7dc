"""Experiment protocols: everything the CLI runs lives here as plain functions.

Each runner takes a config dict and first passes it through `resolve`, which
checks it against the experiment's schema below and fills in every default,
so the CLI and tests calling a runner directly with a partial dict get the
same run. The runner returns a report dict, which echoes the config as
given, per-trial rows and its own acceptance checks, (label, acceptance
key, value) triples for check_acceptance. All randomness derives from
(master seed, case index, trial index, stream), so results are
reproducible sample for sample.
"""

import copy
import hashlib
import json
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import __version__
from .constraints import SelectionConstraint, diagonal_selection
from .ingest import arm_angles_from_human, read_keypoint_dir, recording_to_dataset
from .kinematics import PlanarArm, end_pose, jacobian
from .learning import baseline_separate_nullspace, learn_constraint, learn_selection_matrix
from .metrics import consistency_error, eval_learned_constraint, summarize
from .policies import TOY_POLICIES, PointAttractor, TaskPointAttractor, policy_from_config
from .retarget import (AttractorSource, ObstacleRegion, ReplaySource, RetargetPlan,
                       check_obstacle_clearance, estimate_task_policy, reproduce_trajectory)
from .simulator import (Dataset, NoiseSpec, _step_count, add_noise, generate_arm_dataset,
                        generate_toy_dataset, simulate_trajectory, split_dataset)

# Constrained task coordinates per named case; 1s pick rows of (x, y, theta).
THREE_LINK_CASES = {
    "x": (1, 0, 0), "y": (0, 1, 0), "theta": (0, 0, 1),
    "xy": (1, 1, 0), "xtheta": (1, 0, 1), "ytheta": (0, 1, 1),
}


# --- config schema -----------------------------------------------------------------

class ConfigError(Exception):
    pass


REQUIRED = object()  # default of a key that must be present
OPTIONAL = object()  # default of a key that may be absent and is not filled in


@dataclass(frozen=True)
class Key:
    """One config key: its type, default and the values it may take.

    `type` names an entry of _TYPES. A list checks each entry against
    `item`, and with `distinct` rejects an entry equal to an earlier one; an
    object checks its keys against `table`. A default is filled in, and
    checked like a given value, when the key is absent.
    """

    type: str
    default: object = OPTIONAL
    lo: float | None = None
    hi: float | None = None
    choices: tuple | None = None
    length: int | None = None
    nonempty: bool = False
    distinct: bool = False
    item: "Key | None" = None
    table: dict | None = None


_TYPES = {
    "int": ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    "number": ("a number", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "string": ("a string", lambda v: isinstance(v, str)),
    "paths": ("a path or a non-empty list of paths",
              lambda v: isinstance(v, str) or (isinstance(v, list) and v != []
                                               and all(isinstance(p, str) for p in v))),
    "list": ("a list", lambda v: isinstance(v, list)),
    "object": ("an object", lambda v: isinstance(v, dict)),
}


class Schema(NamedTuple):
    table: dict   # key -> Key
    checks: tuple  # functions of the resolved config that raise ConfigError


def _fail(path, msg):
    raise ConfigError(f"{path}: {msg}")


def _resolve_value(spec: Key, value, path: str):
    desc, is_type = _TYPES[spec.type]
    if not is_type(value):
        _fail(path, f"expected {desc}, got {type(value).__name__}")
    if spec.choices is not None and value not in spec.choices:
        _fail(path, f"must be one of {list(spec.choices)}, got {value!r}")
    if spec.lo is not None and value < spec.lo:
        _fail(path, f"must be >= {spec.lo}, got {value}")
    if spec.hi is not None and value > spec.hi:
        _fail(path, f"must be <= {spec.hi}, got {value}")
    if spec.length is not None and len(value) != spec.length:
        _fail(path, f"expected {spec.length} entries, got {len(value)}")
    if spec.nonempty and not value:
        _fail(path, "must not be empty")
    if spec.item is not None:
        for i, entry in enumerate(value):
            _resolve_value(spec.item, entry, f"{path}[{i}]")
    if spec.distinct:
        for i, entry in enumerate(value):
            if entry in value[:i]:
                _fail(f"{path}[{i}]", f"repeats the earlier entry {entry!r}")
    if spec.table is not None:
        return _resolve_table(value, spec.table, f"{path}.")
    return value


def _resolve_table(obj: dict, table: dict, prefix: str) -> dict:
    for key in obj:
        if key not in table:
            _fail(f"{prefix}{key}", "unknown key")
    out = dict(obj)  # keeps the given key order; defaults go after it
    for key, spec in table.items():
        if key in obj:
            out[key] = _resolve_value(spec, obj[key], f"{prefix}{key}")
        elif spec.default is REQUIRED:
            _fail(f"{prefix}{key}", "missing required key")
        elif spec.default is not OPTIONAL:
            out[key] = _resolve_value(spec, copy.deepcopy(spec.default), f"{prefix}{key}")
    return out


def resolve(cfg: dict, experiment: str) -> dict:
    """Check `cfg` against the experiment's schema and fill in every default.

    Raises ConfigError naming the offending key path. Returns a new dict;
    every value present in `cfg` passes through unchanged.
    """
    if not isinstance(cfg, dict):
        _fail("(root)", f"expected a JSON object, got {type(cfg).__name__}")
    if "experiment" in cfg and cfg["experiment"] != experiment:
        _fail("experiment", f"config names {cfg['experiment']!r} but the "
              f"{experiment!r} command was invoked")
    schema = SCHEMAS[experiment]
    out = _resolve_table(cfg, schema.table, "")
    for check in schema.checks:
        check(out)
    return out


def _ordered_ranges(cfg):
    for key, (low, high) in cfg["target_ranges"].items():
        if low > high:
            _fail(f"target_ranges.{key}", f"low end {low} is above high end {high}")


def _obstacle_bounds(cfg):
    obs = cfg["obstacle"]
    if obs["x_min"] >= obs["x_max"] or obs["y_min"] >= obs["y_max"]:
        _fail("obstacle", "min bounds must be strictly below max bounds")


def _inputs_exist(cfg):
    single = isinstance(cfg["inputs"], str)
    for i, path in enumerate([cfg["inputs"]] if single else cfg["inputs"]):
        if not os.path.exists(path):
            _fail("inputs" if single else f"inputs[{i}]", f"no such file or directory: {path!r}")


def _imitator_joints(cfg):
    imit = cfg["imitator"]
    n = len(imit["links_m"])
    for path, value in (("imitator.start_deg", imit["start_deg"]),
                        ("imitator.pi_robot.target_deg", imit["pi_robot"]["target_deg"])):
        if len(value) != n:
            _fail(path, f"expected {n} entries, one per imitator.links_m entry, "
                  f"got {len(value)}")


def _enough_steps(cfg):
    # Steps are counted by the rollouts' own _step_count, so validation and
    # the run agree. The baseline's training rollout needs two: its
    # separation fits at least two samples.
    for key, need in (("demo_duration_s", 1), ("gt_duration_s", 1), ("train_duration_s", 2)):
        if key in cfg:
            try:
                steps = _step_count(cfg["dt"], cfg[key])
            except ValueError:  # under half a step
                steps = 0
            if steps < need:
                _fail(key, f"gives {steps} of the {need} rollout steps needed at "
                      f"dt = {cfg['dt']} s")


POSITIVE = 1e-9  # lower bound of quantities that must be strictly positive


def _vector(default, length=None, lo=None):
    return Key("list", default, item=Key("number", lo=lo), length=length)


def _attractor(default, target_key="target_deg", length=3):
    return Key("object", default, table={
        "type": Key("string", REQUIRED, choices=("point_attractor",)),
        "beta": Key("number", 1.0, lo=0.0),
        target_key: _vector(REQUIRED, length),
    })


# Validated and read by no experiment; the benchmark reads the block from shipped configs.
OPTIMIZER = {
    "restarts": Key("int", lo=1),
    "max_iters": Key("int", lo=1),
    "objective_tol": Key("number", lo=0.0),
    "param_tol": Key("number", lo=0.0),
}

# Thresholds check_acceptance applies; each experiment accepts the ones its checks name.
ACCEPTANCE = {
    "max_mean_e_w": Key("number", lo=0.0),
    "max_mean_e_n": Key("number", lo=0.0),
    "max_final_task_error": Key("number", lo=0.0),
    "max_trace_rmse": Key("number", lo=0.0),
    "max_e_n": Key("number", lo=0.0),
    "require_retargeted_clear": Key("bool"),
    "require_direct_violation": Key("bool"),
}


def _schema(keys: dict, acceptance: tuple, checks=(), trials=None) -> Schema:
    table = {
        "experiment": Key("string"),
        "seed": Key("int", 0, lo=0),
        **({} if trials is None else {"trials": Key("int", trials, lo=1)}),
        "optimizer": Key("object", table=OPTIMIZER),
        "acceptance": Key("object", table={k: ACCEPTANCE[k] for k in acceptance}),
        "out": Key("string"),
    }
    table.update(keys)
    return Schema(table, tuple(checks))


TOY_KEYS = {
    "n_train": Key("int", 150, lo=1),
    "n_test": Key("int", 150, lo=1),
}

# The demonstrator is the planar 3-link arm: its dataset starts are drawn in 3 joints.
ARM_KEYS = {
    "links_m": _vector([0.1, 0.1, 0.1], 3, lo=1e-12),
    "dt": Key("number", 0.02, lo=POSITIVE),
    "pi": _attractor({"type": "point_attractor", "beta": 1.0,
                      "target_deg": [10.0, -10.0, 10.0]}),
    "target_ranges": Key("object", {"x_range": [-0.01, 0.01], "y_range": [0.0, 0.02],
                                    "theta_range_deg": [0.0, 180.0]},
                         table={k: _vector(REQUIRED, 2)
                                for k in ("x_range", "y_range", "theta_range_deg")}),
}

DEMO_KEYS = {
    "train_trajectories": Key("int", 10, lo=1),
    "points_per_traj": Key("int", 50, lo=2),
    "demo_start_deg": _vector([8.67, 94.18, -2.32], 3),
    "demo_target": _vector([-0.0912, 0.0389, 0.0], 3),
    "demo_duration_s": Key("number", 4.0, lo=POSITIVE),
}

TRIAL_ACCEPTANCE = ("max_mean_e_w", "max_mean_e_n")

SCHEMAS = {
    "toy": _schema({
        "policies": Key("list", list(TOY_POLICIES), nonempty=True, distinct=True,
                        item=Key("string", choices=tuple(TOY_POLICIES))),
        "noise": Key("object", table={
            "epsilon": Key("number", REQUIRED, lo=0.0),
            "target": Key("string", "actions", choices=("actions", "prior_policy")),
        }),
        **TOY_KEYS,
    }, TRIAL_ACCEPTANCE, trials=50),
    "sweep": _schema({
        "policy": Key("string", "limit_cycle", choices=tuple(TOY_POLICIES)),
        "axes": Key("object", REQUIRED, nonempty=True, table={
            "data_size": Key("list", nonempty=True, distinct=True, item=Key("int", lo=2)),
            "u_noise": Key("list", nonempty=True, distinct=True, item=Key("number", lo=0.0)),
            "pi_noise": Key("list", nonempty=True, distinct=True, item=Key("number", lo=0.0)),
        }),
        **TOY_KEYS,
    }, TRIAL_ACCEPTANCE, trials=50),
    "three-link": _schema({
        "cases": Key("list", list(THREE_LINK_CASES), nonempty=True, distinct=True,
                     item=Key("string", choices=tuple(THREE_LINK_CASES))),
        "n_trajectories": Key("int", 100, lo=2),
        "points_per_traj": Key("int", 50, lo=2),
        **ARM_KEYS,
    }, TRIAL_ACCEPTANCE, [_ordered_ranges], trials=10),
    "compare-baseline": _schema({
        "case": Key("string", "xy", choices=tuple(THREE_LINK_CASES)),
        "train_trajectories": Key("int", 1, lo=1),
        "train_duration_s": Key("number", 2.0, lo=POSITIVE),
        "gt_start_deg": _vector([90.0, 45.0, -20.0], 3),
        "gt_target": _vector([0.15, 0.1, 0.7853981633974483], 3),
        "task_gain": Key("number", 3.0, lo=POSITIVE),
        "gt_duration_s": Key("number", 4.0, lo=POSITIVE),
        **ARM_KEYS,
    }, ("max_final_task_error",), [_ordered_ranges, _enough_steps]),
    "retarget-obstacle": _schema({
        **ARM_KEYS, **DEMO_KEYS,
        "obstacle": Key("object", {"x_min": -0.085, "x_max": -0.055,
                                   "y_min": 0.085, "y_max": 0.115},
                        table={k: Key("number", REQUIRED)
                               for k in ("x_min", "x_max", "y_min", "y_max")}),
        "pi_robot": _attractor({"type": "point_attractor", "beta": 5.0,
                                "target_deg": [-320.0, 100.0, 50.0]}),
    }, ("require_retargeted_clear", "require_direct_violation"),
        [_ordered_ranges, _obstacle_bounds, _enough_steps]),
    "retarget-embodiment": _schema({
        **ARM_KEYS, **DEMO_KEYS,
        "imitator": Key("object", {}, table={
            "links_m": Key("list", [0.1, 0.05, 0.05, 0.05, 0.05, 0.05, 0.1], nonempty=True,
                           item=Key("number", lo=1e-12)),
            "start_deg": _vector([0.0, 90.0, -90.0, 85.0, 90.0, -1.0, -81.5]),
            "pi_robot": _attractor({"type": "point_attractor", "beta": 1.0,
                                    "target_deg": [-10.0] * 7}, length=None),
            # One imitator Jacobian row per learned feature row (x, y, theta).
            "row_correspondence": Key("list", [0, 1, 2], length=3, distinct=True,
                                      item=Key("int", lo=0, hi=2)),
        }),
    }, ("max_trace_rmse",), [_ordered_ranges, _imitator_joints, _enough_steps]),
    "ingest-learn": _schema({
        "inputs": Key("paths", REQUIRED),
        "side": Key("string", "right", choices=("left", "right")),
        "fps": Key("number", 30.0, lo=POSITIVE),
        "scale": Key("number", 300.0, lo=POSITIVE),
        "confidence_floor": Key("number", 0.3, lo=0.0, hi=1.0),
        # The human arm has 3 joints; k = 3 would leave no null space to score.
        "k": Key("int", 2, lo=1, hi=2),
        "pi": _attractor({"type": "point_attractor", "beta": 1.0,
                          "target_deg_human": [-90.0, 90.0, 0.0]}, "target_deg_human"),
    }, ("max_e_n",), [_inputs_exist]),
}


# --- shared helpers ------------------------------------------------------------------

def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def _mean_checks(groups) -> list:
    """Checks on the mean e_w and e_n of each (label, stats) case or sweep point."""
    return [(f"{label}: mean {m}", f"max_mean_{m}", stats[m]["mean"])
            for label, stats in groups for m in ("e_w", "e_n")]


def _base_report(name: str, raw: dict, cfg: dict) -> dict:
    """Report header; it echoes and hashes the config as given, not as resolved."""
    return {
        "experiment": name,
        "version": __version__,
        "config_hash": config_hash(raw),
        "master_seed": cfg["seed"],
        "config": raw,
    }


def _row(trial: int, case: str, seed: list, e_w, e_n, objective) -> dict:
    """One trials.csv row."""
    return {"trial": trial, "case": case, "seed": seed, "e_w": e_w, "e_n": e_n,
            "objective": objective}


def _eval_row(cfg: dict, case: str, case_index: int, trial: int, learned, test) -> dict:
    """The row of one recovery trial: the learned model's errors on held-out data."""
    ev = eval_learned_constraint(learned.model, test)
    return _row(trial, case, [cfg["seed"], case_index, trial], ev["e_w"], ev["e_n"],
                learned.objective_value)


# --- toy system -------------------------------------------------------------------

def _toy_trial(cfg: dict, case: str, case_index: int, trial: int) -> dict:
    seed, n_train = cfg["seed"], cfg["n_train"]
    policy = policy_from_config({"type": cfg["policy"]})
    ds = generate_toy_dataset(n_train + cfg["n_test"], (seed, case_index, trial, 0), policy)
    train, test = split_dataset(ds, n_train)
    noise = cfg.get("noise")
    if noise and noise["epsilon"] > 0.0:
        train = add_noise(train, NoiseSpec(**noise), (seed, case_index, trial, 1))
    learned = learn_constraint(train, k=1, representation="spherical")
    return _eval_row(cfg, case, case_index, trial, learned, test)


def _run_cases(name: str, raw: dict, cfg: dict, cases: list, trial) -> dict:
    """Run `trial` on every (case, trial index) and summarise e_w and e_n per case.

    `cases` lists (label, config) pairs; every trial of a case runs with its config.
    """
    rows = [trial(case_cfg, case, case_index, t)
            for case_index, (case, case_cfg) in enumerate(cases)
            for t in range(cfg["trials"])]
    report = _base_report(name, raw, cfg)
    report["cases"] = {
        case: {"e_w": summarize(r["e_w"] for r in rows if r["case"] == case),
               "e_n": summarize(r["e_n"] for r in rows if r["case"] == case)}
        for case, _ in cases
    }
    report["trial_seeds"] = [r["seed"] for r in rows]
    return {"report": report, "rows": rows, "checks": _mean_checks(report["cases"].items())}


def run_toy(cfg: dict) -> dict:
    """Constraint recovery on the 2D toy system, one table row per policy."""
    raw, cfg = cfg, resolve(cfg, "toy")
    cases = [(policy, {**cfg, "policy": policy}) for policy in cfg["policies"]]
    return _run_cases("toy", raw, cfg, cases, _toy_trial)


def run_sweep(cfg: dict) -> dict:
    """Toy-system robustness sweeps: training-set size, action noise, prior noise."""
    raw, cfg = cfg, resolve(cfg, "sweep")
    points = []
    for axis, values in cfg["axes"].items():
        for value in values:
            point_cfg = dict(cfg)
            if axis == "data_size":
                point_cfg["n_train"] = value
            else:
                point_cfg["noise"] = {
                    "epsilon": float(value),
                    "target": "actions" if axis == "u_noise" else "prior_policy",
                }
            points.append((axis, value, point_cfg))
    result = _run_cases("sweep", raw, cfg, [(f"{a}={v}", c) for a, v, c in points], _toy_trial)
    # The report lists the points by axis and value, ahead of the trial seeds.
    report = result["report"]
    stats = report.pop("cases")
    report["points"] = [{"axis": a, "value": v, **stats[f"{a}={v}"]} for a, v, _ in points]
    report["trial_seeds"] = report.pop("trial_seeds")
    return result


# --- three-link arm ----------------------------------------------------------------
#
# Every arm command runs one pipeline: generate data under a true selection
# constraint, learn it, roll out a true reach and replay the task with a
# secondary policy of the executing arm's own.

def _arm(cfg: dict):
    """The demonstrating arm, its secondary policy and its Jacobian feature."""
    arm = PlanarArm(tuple(cfg["links_m"]))
    return arm, policy_from_config(cfg["pi"]), lambda q: jacobian(arm, q)


def _learn(cfg: dict, case: str, n_traj: int, length: int, seed, n_first=None) -> tuple:
    """Roll out `n_traj` arm trajectories of `length` samples under `case` and learn it.

    With `n_first`, the learner sees the first `n_first` trajectories and the
    rest are the test set. Returns (learned, training set, test set or None).
    """
    arm, pi, feature = _arm(cfg)
    lam = diagonal_selection(THREE_LINK_CASES[case])
    data = generate_arm_dataset(arm, lam, pi, n_traj, length, dt=cfg["dt"], seed=seed,
                                target_cfg=cfg["target_ranges"])
    train, test = (data, None) if n_first is None else split_dataset(data, n_first)
    learned = learn_constraint(train, k=lam.shape[0], representation="lambda",
                               feature_fn=feature)
    return learned, train, test


def _demonstration(cfg: dict, case: str, start_deg, target, gain, duration):
    """The true reach under `case` from `start_deg` toward the task pose `target`."""
    arm, pi, feature = _arm(cfg)
    truth = SelectionConstraint(lam=diagonal_selection(THREE_LINK_CASES[case]), feature=feature)
    return simulate_trajectory(arm, truth, TaskPointAttractor(arm=arm, target=target, gain=gain),
                               pi, np.deg2rad(start_deg), dt=cfg["dt"], duration=duration)


def _three_link_trial(cfg: dict, case: str, case_index: int, trial: int) -> dict:
    n_traj = cfg["n_trajectories"]
    learned, _, test = _learn(cfg, case, n_traj, cfg["points_per_traj"],
                              (cfg["seed"], case_index, trial, 0), n_traj // 2)
    return _eval_row(cfg, case, case_index, trial, learned, test)


def run_three_link(cfg: dict) -> dict:
    """Selection-constraint recovery on the planar 3-link arm, per case."""
    raw, cfg = cfg, resolve(cfg, "three-link")
    return _run_cases("three-link", raw, cfg, [(case, cfg) for case in cfg["cases"]],
                      _three_link_trial)


# --- head-to-head against the prior-free pipeline -----------------------------------

def run_compare_baseline(cfg: dict) -> dict:
    """Reproduce a ground-truth motion with the prior-aware and prior-free learners.

    Both learners see one short training trajectory. Reproduction replays
    the recorded task rates b_t = A-hat u_t from the ground-truth rollout
    and substitutes each learner's own null-space estimate.
    """
    raw, cfg = cfg, resolve(cfg, "compare-baseline")
    seed, case, dt = cfg["seed"], cfg["case"], cfg["dt"]
    arm, pi, feature = _arm(cfg)
    learned, train, _ = _learn(cfg, case, cfg["train_trajectories"],
                               _step_count(dt, cfg["train_duration_s"]), (seed, 1))
    q0, duration = np.deg2rad(cfg["gt_start_deg"]), cfg["gt_duration_s"]
    target = np.asarray(cfg["gt_target"], dtype=float)
    gt = _demonstration(cfg, case, cfg["gt_start_deg"], target, cfg["task_gain"], duration)

    rng = np.random.default_rng((seed, 0))
    base = baseline_separate_nullspace(train, int(rng.integers(2**31)))
    lam_base, base_obj = learn_selection_matrix(train, base.w_hat, feature, learned.model.k)

    def replay(model, prior):
        b = estimate_task_policy(model, gt.x, gt.u)
        plan = RetargetPlan(constraint=model, task_source=ReplaySource(b), pi_robot=prior,
                            demonstrator=arm)
        return reproduce_trajectory(plan, q0, dt, duration)

    proposed = replay(learned.model, pi)
    baseline = replay(SelectionConstraint(lam=lam_base, feature=feature), base.predict)
    sel = [i for i, v in enumerate(THREE_LINK_CASES[case]) if v]

    def task_error(traj):
        err = target - end_pose(arm, traj.x[-1])
        err[2] = float(np.arctan2(np.sin(err[2]), np.cos(err[2])))
        return float(np.linalg.norm(err[sel]))

    def summary(traj):
        return {"final_task_error": task_error(traj),
                "joint_rmse_vs_gt": float(np.sqrt(np.mean((traj.x - gt.x) ** 2)))}

    report = _base_report("compare-baseline", raw, cfg)
    report["case"] = case
    report["proposed"] = {**summary(proposed), "objective": learned.objective_value,
                          "lam": np.asarray(learned.model.lam).round(12).tolist()}
    report["baseline"] = {**summary(baseline),
                          "separation_objective": base.objective_history[-1],
                          "selection_objective": base_obj,
                          "lam": np.asarray(lam_base).round(12).tolist()}
    report["ground_truth_final_task_error"] = task_error(gt)
    objectives = {"proposed": learned.objective_value, "baseline": base_obj}
    rows = [_row(trial, f"{case}/{name}", [seed], report[name]["joint_rmse_vs_gt"],
                 report[name]["final_task_error"], objectives[name])
            for trial, name in enumerate(objectives)]
    checks = [("proposed final task error", "max_final_task_error",
               report["proposed"]["final_task_error"])]
    return {"report": report, "rows": rows, "checks": checks,
            "trajectories": {"ground_truth": gt, "proposed": proposed, "baseline": baseline}}


# --- retargeting scenarios -----------------------------------------------------------

def _retarget(cfg: dict, pi_robot: dict, start_deg, **imitation) -> tuple:
    """Learn the x-y task, demonstrate the reach, and replay it with `pi_robot`.

    The replay starts at `start_deg` on the demonstrator, or on the arm that
    `imitation` passes on to the plan, and draws its task rates from an
    attractor toward the demonstrated target on the executing arm. Returns
    (demonstrator, target, learned, demonstration, replay).
    """
    arm, _, _ = _arm(cfg)
    learned, _, _ = _learn(cfg, "xy", cfg["train_trajectories"], cfg["points_per_traj"],
                           (cfg["seed"], 0))
    target, duration = np.asarray(cfg["demo_target"], dtype=float), cfg["demo_duration_s"]
    demo = _demonstration(cfg, "xy", cfg["demo_start_deg"], target, 1.0, duration)
    plan = RetargetPlan(constraint=learned.model,
                        task_source=AttractorSource(target=target, gain=1.0),
                        pi_robot=policy_from_config(pi_robot), demonstrator=arm, **imitation)
    replay = reproduce_trajectory(plan, np.deg2rad(start_deg), cfg["dt"], duration)
    return arm, target, learned, demo, replay


def run_retarget_obstacle(cfg: dict) -> dict:
    """Swap the secondary policy so the replayed reach clears an obstacle.

    Direct imitation replays the demonstrated joint trajectory as-is. The
    retargeted run keeps the learned task but drives the null space with an
    avoidance attractor; the task rates come from a task-space attractor on
    the executing arm, which keeps the end-effector path on the demonstrated
    task even through the aggressive null-space transient.
    """
    raw, cfg = cfg, resolve(cfg, "retarget-obstacle")
    arm, r_star, learned, demo, retargeted = _retarget(cfg, cfg["pi_robot"],
                                                       cfg["demo_start_deg"])
    region = ObstacleRegion(**{k: float(v) for k, v in cfg["obstacle"].items()})

    def summary(traj):
        check = check_obstacle_clearance(traj, arm, region)
        return {"clear": check.clear, "first_violation": check.first_violation,
                "min_distance": check.min_distance,
                "final_xy_error": float(np.linalg.norm(end_pose(arm, traj.x[-1])[:2]
                                                       - r_star[:2]))}

    report = _base_report("retarget-obstacle", raw, cfg)
    report["obstacle"] = cfg["obstacle"]
    report["learned_objective"] = learned.objective_value
    report["direct"], report["retargeted"] = summary(demo), summary(retargeted)
    rows = [_row(trial, name, [cfg["seed"]], report[name]["min_distance"],
                 report[name]["final_xy_error"], float(not report[name]["clear"]))
            for trial, name in enumerate(("direct", "retargeted"))]
    checks = [("retargeted trajectory violates the obstacle region", "require_retargeted_clear",
               not report["retargeted"]["clear"]),
              ("direct imitation unexpectedly clears the obstacle region",
               "require_direct_violation", report["direct"]["clear"])]
    return {"report": report, "rows": rows, "checks": checks,
            "trajectories": {"demonstration": demo, "retargeted": retargeted}}


def run_retarget_embodiment(cfg: dict) -> dict:
    """Replay the learned task on an arm with a different kinematic structure."""
    raw, cfg = cfg, resolve(cfg, "retarget-embodiment")
    imit = cfg["imitator"]
    imitator = PlanarArm(tuple(imit["links_m"]))
    arm, r_star, learned, demo, imitated = _retarget(
        cfg, imit["pi_robot"], imit["start_deg"], imitator=imitator,
        row_correspondence=tuple(imit["row_correspondence"]))

    demo_xy = end_pose(arm, demo.x)[:, :2]
    imit_xy = end_pose(imitator, imitated.x)[:, :2]
    steps = min(len(demo_xy), len(imit_xy))
    rmse = float(np.sqrt(np.mean(np.sum((demo_xy[:steps] - imit_xy[:steps]) ** 2, axis=1))))

    report = _base_report("retarget-embodiment", raw, cfg)
    report["learned_objective"] = learned.objective_value
    report["trace_rmse"] = rmse
    report["start_offset"] = float(np.linalg.norm(demo_xy[0] - imit_xy[0]))
    report["final_xy_error_demo"] = float(np.linalg.norm(demo_xy[-1] - r_star[:2]))
    report["final_xy_error_imitator"] = float(np.linalg.norm(imit_xy[-1] - r_star[:2]))
    rows = [_row(0, "embodiment", [cfg["seed"]], rmse, report["final_xy_error_imitator"],
                 learned.objective_value)]
    checks = [("task trace RMSE", "max_trace_rmse", rmse)]
    return {"report": report, "rows": rows, "checks": checks,
            "trajectories": {"demonstration": demo, "imitator": imitated}}


# --- keypoint ingestion ---------------------------------------------------------------

def run_ingest_learn(cfg: dict) -> dict:
    """Learn a constraint from pose-keypoint recordings with an ergonomic prior."""
    raw, cfg = cfg, resolve(cfg, "ingest-learn")
    inputs = cfg["inputs"]
    if isinstance(inputs, str):
        inputs = [inputs]
    side = cfg["side"]
    fps = float(cfg["fps"])
    scale = float(cfg["scale"])
    floor = float(cfg["confidence_floor"])

    trajs = []
    lengths = []
    for path in inputs:
        rec = read_keypoint_dir(path, side=side, fps=fps)
        ds_one, arm_one = recording_to_dataset(rec, scale=scale, confidence_floor=floor)
        trajs.extend(ds_one.trajectories)
        lengths.append(arm_one.link_lengths)
    arm = PlanarArm(tuple(np.mean(np.array(lengths), axis=0)))

    pi_cfg = cfg["pi"]
    target_h = np.deg2rad(pi_cfg["target_deg_human"])
    pi = PointAttractor(target=arm_angles_from_human(target_h), beta=pi_cfg["beta"])

    ds = Dataset(trajectories=trajs)
    learned = learn_constraint(ds, prior_pi=pi, k=cfg["k"], representation="lambda",
                               feature_fn=lambda q: jacobian(arm, q))
    e_n = consistency_error(learned.model, ds, prior_pi=pi)

    report = _base_report("ingest-learn", raw, cfg)
    report["n_samples"] = ds.n_samples
    report["n_trajectories"] = len(trajs)
    report["links"] = list(arm.link_lengths)
    report["e_n"] = e_n
    report["objective"] = learned.objective_value
    report["lam"] = np.asarray(learned.model.lam).round(12).tolist()
    report["diagnostics"] = learned.diagnostics
    rows = [_row(0, "ingest", [cfg["seed"]], float("nan"), e_n, learned.objective_value)]
    return {"report": report, "rows": rows, "checks": [("consistency error", "max_e_n", e_n)]}


# --- acceptance thresholds embedded in configs ------------------------------------------

def check_acceptance(cfg: dict, result: dict) -> list:
    """Compare a finished run's checks against thresholds from the config, if any.

    A max_* check fails when its value exceeds the threshold or is NaN; a
    require_* check, when the key is true and its value, the violation flag,
    is true. Returns human-readable violation strings; empty means all good.
    """
    spec = cfg.get("acceptance") or {}
    violations = []
    for label, key, value in result["checks"]:
        if key.startswith("max_") and key in spec and not value <= spec[key]:
            verdict = "is NaN, which fails" if np.isnan(value) else f"= {value:.3e} exceeds"
            violations.append(f"{label} {verdict} {key} = {spec[key]:.3e}")
        elif key.startswith("require_") and spec.get(key) and value:
            violations.append(label)
    return violations


RUNNERS = {
    "toy": run_toy,
    "sweep": run_sweep,
    "three-link": run_three_link,
    "compare-baseline": run_compare_baseline,
    "retarget-obstacle": run_retarget_obstacle,
    "retarget-embodiment": run_retarget_embodiment,
    "ingest-learn": run_ingest_learn,
}
