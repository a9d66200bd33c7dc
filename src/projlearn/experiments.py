"""Experiment protocols: everything the CLI runs lives here as plain functions.

Each runner takes a config dict and first passes it through `resolve`, which
checks it against the experiment's schema below and fills in every default,
so the CLI and tests calling a runner directly with a partial dict get the
same run. The runner returns a report dict, which echoes the config as
given, per-trial rows and its own acceptance checks, (label, acceptance
key, value) triples for check_acceptance. All randomness derives from
(master seed, case index, trial index, stream), so results are
reproducible sample for sample no matter how trials are scheduled.
"""

import copy
import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import __version__
from .constraints import SelectionConstraint, diagonal_selection
from .ingest import arm_angles_from_human, read_keypoint_dir, recording_to_dataset
from .kinematics import PlanarArm, end_pose, jacobian
from .learning import (BaselineConfig, baseline_separate_nullspace, learn_constraint,
                       learn_selection_matrix)
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
    `item`; an object checks its keys against `table`. A default is filled
    in, and checked like a given value, when the key is absent.
    """

    type: str
    default: object = OPTIONAL
    lo: float | None = None
    hi: float | None = None
    choices: tuple | None = None
    length: int | None = None
    nonempty: bool = False
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
    if len(set(imit["row_correspondence"])) != len(imit["row_correspondence"]):
        _fail("imitator.row_correspondence", "row indices must be distinct")


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
        # Only multi-trial experiments have trials to spread over workers.
        **({} if trials is None else {"trials": Key("int", trials, lo=1),
                                      "workers": Key("int", lo=1)}),
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
        "policies": Key("list", list(TOY_POLICIES), nonempty=True,
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
            "data_size": Key("list", nonempty=True, item=Key("int", lo=2)),
            "u_noise": Key("list", nonempty=True, item=Key("number", lo=0.0)),
            "pi_noise": Key("list", nonempty=True, item=Key("number", lo=0.0)),
        }),
        **TOY_KEYS,
    }, TRIAL_ACCEPTANCE, trials=50),
    "three-link": _schema({
        "cases": Key("list", list(THREE_LINK_CASES), nonempty=True,
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
            "row_correspondence": Key("list", [0, 1, 2], length=3,
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


def _map_trials(task, arg_list, workers: int):
    if workers <= 1 or len(arg_list) <= 1:
        return [task(a) for a in arg_list]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(task, arg_list))


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


# --- toy system -------------------------------------------------------------------

def _toy_trial(args):
    cfg, policy_name, case_index, trial = args
    seed, n_train = cfg["seed"], cfg["n_train"]
    policy = policy_from_config({"type": policy_name})
    ds = generate_toy_dataset(n_train + cfg["n_test"], (seed, case_index, trial, 0), policy)
    train, test = split_dataset(ds, n_train)
    noise = cfg.get("noise")
    if noise and noise["epsilon"] > 0.0:
        train = add_noise(train, NoiseSpec(**noise), (seed, case_index, trial, 1))
    learned = learn_constraint(train, k=1, representation="spherical")
    ev = eval_learned_constraint(learned.model, test)
    return {
        "trial": trial,
        "case": policy_name,
        "seed": [seed, case_index, trial],
        "e_w": ev["e_w"],
        "e_n": ev["e_n"],
        "objective": learned.objective_value,
    }


def _run_cases(name: str, raw: dict, cfg: dict, cases: list, trial) -> dict:
    """Run `trial` on every (case, trial index) and summarise e_w and e_n per case."""
    rows = []
    for case_index, case in enumerate(cases):
        args = [(cfg, case, case_index, t) for t in range(cfg["trials"])]
        rows.extend(_map_trials(trial, args, cfg.get("workers", 1)))
    report = _base_report(name, raw, cfg)
    report["cases"] = {
        case: {"e_w": summarize(r["e_w"] for r in rows if r["case"] == case),
               "e_n": summarize(r["e_n"] for r in rows if r["case"] == case)}
        for case in cases
    }
    report["trial_seeds"] = [r["seed"] for r in rows]
    return {"report": report, "rows": rows, "checks": _mean_checks(report["cases"].items())}


def run_toy(cfg: dict) -> dict:
    """Constraint recovery on the 2D toy system, one table row per policy."""
    raw, cfg = cfg, resolve(cfg, "toy")
    return _run_cases("toy", raw, cfg, cfg["policies"], _toy_trial)


def run_sweep(cfg: dict) -> dict:
    """Toy-system robustness sweeps: training-set size, action noise, prior noise."""
    raw, cfg = cfg, resolve(cfg, "sweep")
    policy = cfg["policy"]
    rows = []
    aggregates = []
    case_index = 0
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
            args = [(point_cfg, policy, case_index, t) for t in range(cfg["trials"])]
            point_rows = _map_trials(_toy_trial, args, cfg.get("workers", 1))
            for r in point_rows:
                r["case"] = f"{axis}={value}"
            rows.extend(point_rows)
            aggregates.append({
                "axis": axis, "value": value,
                "e_w": summarize(r["e_w"] for r in point_rows),
                "e_n": summarize(r["e_n"] for r in point_rows),
            })
            case_index += 1
    report = _base_report("sweep", raw, cfg)
    report["points"] = aggregates
    report["trial_seeds"] = [r["seed"] for r in rows]
    checks = _mean_checks((f"{p['axis']}={p['value']}", p) for p in aggregates)
    return {"report": report, "rows": rows, "checks": checks}


# --- three-link arm ----------------------------------------------------------------

def _three_link_setup(cfg: dict):
    arm = PlanarArm(tuple(cfg["links_m"]))
    pi = policy_from_config(cfg["pi"])
    tr = cfg["target_ranges"]
    target_cfg = {"x_range": tuple(tr["x_range"]), "y_range": tuple(tr["y_range"]),
                  "theta_range_deg": tuple(tr["theta_range_deg"])}
    return arm, pi, target_cfg


def _three_link_trial(args):
    cfg, case, case_index, trial = args
    seed, n_traj = cfg["seed"], cfg["n_trajectories"]
    arm, pi, target_cfg = _three_link_setup(cfg)
    lam = diagonal_selection(THREE_LINK_CASES[case])
    ds = generate_arm_dataset(arm, lam, pi, n_traj, cfg["points_per_traj"], dt=cfg["dt"],
                              seed=(seed, case_index, trial, 0),
                              target_cfg=target_cfg)
    train, test = split_dataset(ds, n_traj // 2)
    k = lam.shape[0]
    learned = learn_constraint(train, k=k, representation="lambda",
                               feature_fn=lambda q: jacobian(arm, q))
    ev = eval_learned_constraint(learned.model, test)
    return {
        "trial": trial,
        "case": case,
        "seed": [seed, case_index, trial],
        "e_w": ev["e_w"],
        "e_n": ev["e_n"],
        "objective": learned.objective_value,
    }


def run_three_link(cfg: dict) -> dict:
    """Selection-constraint recovery on the planar 3-link arm, per case."""
    raw, cfg = cfg, resolve(cfg, "three-link")
    return _run_cases("three-link", raw, cfg, cfg["cases"], _three_link_trial)


# --- head-to-head against the prior-free pipeline -----------------------------------

def run_compare_baseline(cfg: dict) -> dict:
    """Reproduce a ground-truth motion with the prior-aware and prior-free learners.

    Both learners see one short training trajectory. Reproduction replays
    the recorded task rates b_t = A-hat u_t from the ground-truth rollout
    and substitutes each learner's own null-space estimate.
    """
    raw, cfg = cfg, resolve(cfg, "compare-baseline")
    seed, case, dt = cfg["seed"], cfg["case"], cfg["dt"]
    arm, pi, target_cfg = _three_link_setup(cfg)
    lam_true = diagonal_selection(THREE_LINK_CASES[case])
    k = lam_true.shape[0]
    rng = np.random.default_rng((seed, 0))

    train = generate_arm_dataset(arm, lam_true, pi, cfg["train_trajectories"],
                                 _step_count(dt, cfg["train_duration_s"]),
                                 dt=dt, seed=(seed, 1), target_cfg=target_cfg)

    q0 = np.deg2rad(cfg["gt_start_deg"])
    target = np.asarray(cfg["gt_target"], dtype=float)
    gain = float(cfg["task_gain"])
    duration = float(cfg["gt_duration_s"])
    truth = SelectionConstraint(lam=lam_true, feature=lambda q: jacobian(arm, q),
                                meta={"feature": "jacobian", "links": list(arm.link_lengths)})
    gt = simulate_trajectory(arm, truth, TaskPointAttractor(arm=arm, target=target, gain=gain),
                             pi, q0, dt=dt, duration=duration)

    feature_fn = lambda q: jacobian(arm, q)
    learned = learn_constraint(train, k=k, representation="lambda", feature_fn=feature_fn)
    proposed_b = estimate_task_policy(learned.model, gt.x, gt.u)
    proposed_plan = RetargetPlan(constraint=learned.model, task_source=ReplaySource(proposed_b),
                                 pi_robot=pi, demonstrator=arm)
    proposed = reproduce_trajectory(proposed_plan, q0, dt, duration)

    base = baseline_separate_nullspace(train, BaselineConfig(seed=int(rng.integers(2**31))))
    lam_base, base_obj = learn_selection_matrix(train, base.w_hat, feature_fn, k)
    base_model = SelectionConstraint(lam=lam_base, feature=feature_fn)
    base_b = estimate_task_policy(base_model, gt.x, gt.u)
    base_plan = RetargetPlan(constraint=base_model, task_source=ReplaySource(base_b),
                             pi_robot=base.predict, demonstrator=arm)
    baseline = reproduce_trajectory(base_plan, q0, dt, duration)

    sel = [i for i, v in enumerate(THREE_LINK_CASES[case]) if v]

    def task_error(traj):
        err = target - end_pose(arm, traj.x[-1])
        err[2] = float(np.arctan2(np.sin(err[2]), np.cos(err[2])))
        return float(np.linalg.norm(err[sel]))

    def joint_rmse(traj):
        return float(np.sqrt(np.mean((traj.x - gt.x) ** 2)))

    report = _base_report("compare-baseline", raw, cfg)
    report["case"] = case
    report["proposed"] = {
        "final_task_error": task_error(proposed),
        "joint_rmse_vs_gt": joint_rmse(proposed),
        "objective": learned.objective_value,
        "lam": np.asarray(learned.model.lam).round(12).tolist(),
    }
    report["baseline"] = {
        "final_task_error": task_error(baseline),
        "joint_rmse_vs_gt": joint_rmse(baseline),
        "separation_objective": base.objective_history[-1],
        "selection_objective": base_obj,
        "lam": np.asarray(lam_base).round(12).tolist(),
    }
    report["ground_truth_final_task_error"] = task_error(gt)
    rows = [
        {"trial": 0, "case": f"{case}/proposed", "seed": [seed],
         "e_w": report["proposed"]["joint_rmse_vs_gt"],
         "e_n": report["proposed"]["final_task_error"], "objective": learned.objective_value},
        {"trial": 1, "case": f"{case}/baseline", "seed": [seed],
         "e_w": report["baseline"]["joint_rmse_vs_gt"],
         "e_n": report["baseline"]["final_task_error"], "objective": base_obj},
    ]
    checks = [("proposed final task error", "max_final_task_error",
               report["proposed"]["final_task_error"])]
    return {"report": report, "rows": rows, "checks": checks,
            "trajectories": {"ground_truth": gt, "proposed": proposed, "baseline": baseline}}


# --- retargeting scenarios -----------------------------------------------------------

def _learn_xy_constraint(cfg: dict, arm: PlanarArm, pi, target_cfg: dict):
    """Learned coefficients for the x-y constrained system."""
    lam = diagonal_selection(THREE_LINK_CASES["xy"])
    train = generate_arm_dataset(arm, lam, pi, cfg["train_trajectories"],
                                 cfg["points_per_traj"], dt=cfg["dt"],
                                 seed=(cfg["seed"], 0), target_cfg=target_cfg)
    return learn_constraint(train, k=2, representation="lambda",
                            feature_fn=lambda q: jacobian(arm, q))


def _demonstration(cfg: dict, arm: PlanarArm, pi, lam) -> tuple:
    q0 = np.deg2rad(cfg["demo_start_deg"])
    r_star = np.asarray(cfg["demo_target"], dtype=float)
    duration = float(cfg["demo_duration_s"])
    dt = cfg["dt"]
    truth = SelectionConstraint(lam=lam, feature=lambda q: jacobian(arm, q),
                                meta={"feature": "jacobian", "links": list(arm.link_lengths)})
    demo = simulate_trajectory(arm, truth, TaskPointAttractor(arm=arm, target=r_star, gain=1.0),
                               pi, q0, dt=dt, duration=duration)
    return demo, q0, r_star, duration, dt


def run_retarget_obstacle(cfg: dict) -> dict:
    """Swap the secondary policy so the replayed reach clears an obstacle.

    Direct imitation replays the demonstrated joint trajectory as-is. The
    retargeted run keeps the learned task but drives the null space with an
    avoidance attractor; the task rates come from a task-space attractor on
    the executing arm, which keeps the end-effector path on the demonstrated
    task even through the aggressive null-space transient.
    """
    raw, cfg = cfg, resolve(cfg, "retarget-obstacle")
    arm, pi, target_cfg = _three_link_setup(cfg)
    learned = _learn_xy_constraint(cfg, arm, pi, target_cfg)
    demo, q0, r_star, duration, dt = _demonstration(cfg, arm, pi,
                                                    diagonal_selection(THREE_LINK_CASES["xy"]))
    obs_cfg = cfg["obstacle"]
    region = ObstacleRegion(**{k: float(v) for k, v in obs_cfg.items()})
    pi_r = policy_from_config(cfg["pi_robot"])
    plan = RetargetPlan(constraint=learned.model,
                        task_source=AttractorSource(target=r_star, gain=1.0),
                        pi_robot=pi_r, demonstrator=arm)
    retargeted = reproduce_trajectory(plan, q0, dt, duration)

    direct_check = check_obstacle_clearance(demo, arm, region)
    retarget_check = check_obstacle_clearance(retargeted, arm, region)

    def final_xy_error(traj):
        return float(np.linalg.norm(end_pose(arm, traj.x[-1])[:2] - r_star[:2]))

    report = _base_report("retarget-obstacle", raw, cfg)
    report["obstacle"] = obs_cfg
    report["learned_objective"] = learned.objective_value
    report["direct"] = {
        "clear": direct_check.clear,
        "first_violation": direct_check.first_violation,
        "min_distance": direct_check.min_distance,
        "final_xy_error": final_xy_error(demo),
    }
    report["retargeted"] = {
        "clear": retarget_check.clear,
        "first_violation": retarget_check.first_violation,
        "min_distance": retarget_check.min_distance,
        "final_xy_error": final_xy_error(retargeted),
    }
    rows = [
        {"trial": 0, "case": "direct", "seed": [cfg["seed"]],
         "e_w": report["direct"]["min_distance"], "e_n": report["direct"]["final_xy_error"],
         "objective": float(not direct_check.clear)},
        {"trial": 1, "case": "retargeted", "seed": [cfg["seed"]],
         "e_w": report["retargeted"]["min_distance"],
         "e_n": report["retargeted"]["final_xy_error"],
         "objective": float(not retarget_check.clear)},
    ]
    checks = [("retargeted trajectory violates the obstacle region", "require_retargeted_clear",
               not retarget_check.clear),
              ("direct imitation unexpectedly clears the obstacle region",
               "require_direct_violation", direct_check.clear)]
    return {"report": report, "rows": rows, "checks": checks,
            "trajectories": {"demonstration": demo, "retargeted": retargeted}}


def run_retarget_embodiment(cfg: dict) -> dict:
    """Replay the learned task on an arm with a different kinematic structure."""
    raw, cfg = cfg, resolve(cfg, "retarget-embodiment")
    arm, pi, target_cfg = _three_link_setup(cfg)
    learned = _learn_xy_constraint(cfg, arm, pi, target_cfg)
    demo, q0, r_star, duration, dt = _demonstration(cfg, arm, pi,
                                                    diagonal_selection(THREE_LINK_CASES["xy"]))
    imit = cfg["imitator"]
    imitator = PlanarArm(tuple(imit["links_m"]))
    q0_imit = np.deg2rad(imit["start_deg"])
    plan = RetargetPlan(constraint=learned.model,
                        task_source=AttractorSource(target=r_star, gain=1.0),
                        pi_robot=policy_from_config(imit["pi_robot"]), demonstrator=arm,
                        imitator=imitator, row_correspondence=tuple(imit["row_correspondence"]))
    imitated = reproduce_trajectory(plan, q0_imit, dt, duration)

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
    rows = [{"trial": 0, "case": "embodiment", "seed": [cfg["seed"]],
             "e_w": rmse, "e_n": report["final_xy_error_imitator"],
             "objective": learned.objective_value}]
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

    ds = Dataset(trajectories=trajs, meta={"system": "human_arm", "noise": None,
                                           "links": list(arm.link_lengths)})
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
    rows = [{"trial": 0, "case": "ingest", "seed": [cfg["seed"]],
             "e_w": float("nan"), "e_n": e_n, "objective": learned.objective_value}]
    return {"report": report, "rows": rows, "checks": [("consistency error", "max_e_n", e_n)]}


# --- acceptance thresholds embedded in configs ------------------------------------------

def check_acceptance(cfg: dict, result: dict) -> list:
    """Compare a finished run's checks against thresholds from the config, if any.

    A max_* check fails when its value exceeds the threshold; a require_*
    check, when the key is true and its value, the violation flag, is true.
    Returns human-readable violation strings; empty means all good.
    """
    spec = cfg.get("acceptance") or {}
    violations = []
    for label, key, value in result["checks"]:
        if key.startswith("max_") and key in spec and value > spec[key]:
            violations.append(f"{label} = {value:.3e} exceeds {key} = {spec[key]:.3e}")
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
