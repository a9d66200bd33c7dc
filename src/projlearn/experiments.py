"""Experiment protocols: everything the CLI runs lives here as plain functions.

Each runner takes a config dict (already validated by the CLI layer, but
they apply the same defaults themselves so tests can call them directly)
and returns a report dict plus per-trial rows. All randomness derives from
(master seed, case index, trial index, stream), so results are reproducible
sample for sample no matter how trials are scheduled.
"""

import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__
from .constraints import SelectionConstraint, diagonal_selection
from .ingest import arm_angles_from_human, read_keypoint_dir, recording_to_dataset
from .kinematics import PlanarArm, end_pose, forward_kinematics, jacobian
from .learning import (BaselineConfig, OptimizerConfig, baseline_separate_nullspace,
                       learn_constraint, learn_selection_matrix)
from .metrics import consistency_error, eval_learned_constraint, summarize
from .policies import TOY_POLICIES, PointAttractor, TaskPointAttractor, policy_from_config
from .retarget import (AttractorSource, ObstacleRegion, ReplaySource, RetargetPlan,
                       check_obstacle_clearance, estimate_task_policy, reproduce_trajectory)
from .simulator import (Dataset, NoiseSpec, add_noise, generate_arm_dataset,
                        generate_toy_dataset, simulate_trajectory, split_dataset)

# Constrained task coordinates per named case; 1s pick rows of (x, y, theta).
THREE_LINK_CASES = {
    "x": (1, 0, 0), "y": (0, 1, 0), "theta": (0, 0, 1),
    "xy": (1, 1, 0), "xtheta": (1, 0, 1), "ytheta": (0, 1, 1),
}

THREE_LINK_DEFAULTS = {
    "links_m": [0.1, 0.1, 0.1],
    "dt": 0.02,
    "n_trajectories": 100,
    "points_per_traj": 50,
    "pi": {"type": "point_attractor", "beta": 1.0, "target_deg": [10.0, -10.0, 10.0]},
    "target_ranges": {"x_range": [-0.01, 0.01], "y_range": [0.0, 0.02],
                      "theta_range_deg": [0.0, 180.0]},
}


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def _opt_config(cfg: dict, seed) -> OptimizerConfig:
    oc = cfg.get("optimizer", {})
    return OptimizerConfig(restarts=oc.get("restarts", 20),
                           max_iters=oc.get("max_iters", 5000),
                           objective_tol=oc.get("objective_tol", 1e-14),
                           param_tol=oc.get("param_tol", 1e-12),
                           seed=seed)


def _workers(cfg: dict) -> int:
    if "workers" in cfg:
        return max(1, int(cfg["workers"]))
    return max(1, int(os.environ.get("PROJLEARN_WORKERS", "1")))


def _map_trials(task, arg_list, workers: int):
    if workers <= 1 or len(arg_list) <= 1:
        return [task(a) for a in arg_list]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(task, arg_list))


def _base_report(name: str, cfg: dict) -> dict:
    return {
        "experiment": name,
        "version": __version__,
        "config_hash": config_hash(cfg),
        "master_seed": int(cfg.get("seed", 0)),
        "config": cfg,
    }


# --- toy system -------------------------------------------------------------------

def _toy_trial(args):
    cfg, policy_name, case_index, trial = args
    seed = int(cfg.get("seed", 0))
    n_train = cfg.get("n_train", 150)
    n_test = cfg.get("n_test", 150)
    policy = policy_from_config({"type": policy_name})
    ds = generate_toy_dataset(n_train + n_test, (seed, case_index, trial, 0), policy)
    train, test = split_dataset(ds, n_train)
    noise_cfg = cfg.get("noise")
    if noise_cfg and noise_cfg.get("epsilon", 0.0) > 0.0:
        spec = NoiseSpec(epsilon=noise_cfg["epsilon"], target=noise_cfg.get("target", "actions"))
        train = add_noise(train, spec, (seed, case_index, trial, 1))
    learned = learn_constraint(train, k=1, representation="spherical",
                               opt=_opt_config(cfg, (seed, case_index, trial, 2)))
    ev = eval_learned_constraint(learned.model, test)
    return {
        "trial": trial,
        "case": policy_name,
        "seed": [seed, case_index, trial],
        "e_w": ev["e_w"],
        "e_n": ev["e_n"],
        "objective": learned.objective_value,
        "theta_learned_deg": float(np.rad2deg(learned.model.theta[0])),
        "theta_true_deg": float(np.rad2deg(ds.meta["constraint"]["theta_rad"][0])),
    }


def run_toy(cfg: dict) -> dict:
    """Constraint recovery on the 2D toy system, one table row per policy."""
    policies = cfg.get("policies", list(TOY_POLICIES))
    trials = int(cfg.get("trials", 50))
    rows = []
    for case_index, name in enumerate(policies):
        args = [(cfg, name, case_index, t) for t in range(trials)]
        rows.extend(_map_trials(_toy_trial, args, _workers(cfg)))
    report = _base_report("toy", cfg)
    report["cases"] = {
        name: {"e_w": summarize(r["e_w"] for r in rows if r["case"] == name),
               "e_n": summarize(r["e_n"] for r in rows if r["case"] == name)}
        for name in policies
    }
    report["trial_seeds"] = [r["seed"] for r in rows]
    return {"report": report, "rows": rows}


def run_sweep(cfg: dict) -> dict:
    """Toy-system robustness sweeps: training-set size, action noise, prior noise."""
    policy = cfg.get("policy", "limit_cycle")
    trials = int(cfg.get("trials", 50))
    axes = cfg.get("axes", {})
    rows = []
    aggregates = []
    case_index = 0
    for axis, values in axes.items():
        if axis not in ("data_size", "u_noise", "pi_noise"):
            raise ValueError(f"unknown sweep axis {axis!r}")
        for value in values:
            point_cfg = dict(cfg)
            point_cfg["policies"] = [policy]
            if axis == "data_size":
                point_cfg["n_train"] = int(value)
            else:
                point_cfg["noise"] = {
                    "epsilon": float(value),
                    "target": "actions" if axis == "u_noise" else "prior_policy",
                }
            args = [(point_cfg, policy, case_index, t) for t in range(trials)]
            point_rows = _map_trials(_toy_trial, args, _workers(cfg))
            for r in point_rows:
                r["axis"] = axis
                r["value"] = value
                r["case"] = f"{axis}={value}"
            rows.extend(point_rows)
            aggregates.append({
                "axis": axis, "value": value,
                "e_w": summarize(r["e_w"] for r in point_rows),
                "e_n": summarize(r["e_n"] for r in point_rows),
            })
            case_index += 1
    report = _base_report("sweep", cfg)
    report["points"] = aggregates
    report["trial_seeds"] = [r["seed"] for r in rows]
    return {"report": report, "rows": rows}


# --- three-link arm ----------------------------------------------------------------

def _three_link_setup(cfg: dict):
    arm = PlanarArm(tuple(cfg.get("links_m", THREE_LINK_DEFAULTS["links_m"])))
    pi = policy_from_config(cfg.get("pi", THREE_LINK_DEFAULTS["pi"]))
    tr = cfg.get("target_ranges", THREE_LINK_DEFAULTS["target_ranges"])
    target_cfg = {"x_range": tuple(tr["x_range"]), "y_range": tuple(tr["y_range"]),
                  "theta_range_deg": tuple(tr["theta_range_deg"])}
    return arm, pi, target_cfg


def _three_link_trial(args):
    cfg, case, case_index, trial = args
    seed = int(cfg.get("seed", 0))
    arm, pi, target_cfg = _three_link_setup(cfg)
    lam = diagonal_selection(THREE_LINK_CASES[case])
    n_traj = int(cfg.get("n_trajectories", THREE_LINK_DEFAULTS["n_trajectories"]))
    pts = int(cfg.get("points_per_traj", THREE_LINK_DEFAULTS["points_per_traj"]))
    ds = generate_arm_dataset(arm, lam, pi, n_traj, pts,
                              dt=cfg.get("dt", THREE_LINK_DEFAULTS["dt"]),
                              seed=(seed, case_index, trial, 0),
                              target_cfg=target_cfg)
    train, test = split_dataset(ds, n_traj // 2)
    k = lam.shape[0]
    learned = learn_constraint(train, k=k, representation="lambda",
                               feature_fn=lambda q: jacobian(arm, q),
                               opt=_opt_config(cfg, (seed, case_index, trial, 2)))
    ev = eval_learned_constraint(learned.model, test)
    return {
        "trial": trial,
        "case": case,
        "seed": [seed, case_index, trial],
        "e_w": ev["e_w"],
        "e_n": ev["e_n"],
        "objective": learned.objective_value,
        "lam_learned": np.asarray(learned.model.lam).round(12).tolist(),
    }


def run_three_link(cfg: dict) -> dict:
    """Selection-constraint recovery on the planar 3-link arm, per case."""
    cases = cfg.get("cases", list(THREE_LINK_CASES))
    trials = int(cfg.get("trials", 10))
    rows = []
    for case_index, case in enumerate(cases):
        if case not in THREE_LINK_CASES:
            raise ValueError(f"unknown constraint case {case!r}")
        args = [(cfg, case, case_index, t) for t in range(trials)]
        rows.extend(_map_trials(_three_link_trial, args, _workers(cfg)))
    report = _base_report("three-link", cfg)
    report["cases"] = {
        case: {"e_w": summarize(r["e_w"] for r in rows if r["case"] == case),
               "e_n": summarize(r["e_n"] for r in rows if r["case"] == case)}
        for case in cases
    }
    report["trial_seeds"] = [r["seed"] for r in rows]
    return {"report": report, "rows": rows}


# --- head-to-head against the prior-free pipeline -----------------------------------

def run_compare_baseline(cfg: dict) -> dict:
    """Reproduce a ground-truth motion with the prior-aware and prior-free learners.

    Both learners see one short training trajectory. Reproduction replays
    the recorded task rates b_t = A-hat u_t from the ground-truth rollout
    and substitutes each learner's own null-space estimate.
    """
    seed = int(cfg.get("seed", 0))
    case = cfg.get("case", "xy")
    arm, pi, target_cfg = _three_link_setup(cfg)
    lam_true = diagonal_selection(THREE_LINK_CASES[case])
    k = lam_true.shape[0]
    dt = cfg.get("dt", 0.02)
    rng = np.random.default_rng((seed, 0))

    train = generate_arm_dataset(arm, lam_true, pi, cfg.get("train_trajectories", 1),
                                 int(round(cfg.get("train_duration_s", 2.0) / dt)),
                                 dt=dt, seed=(seed, 1), target_cfg=target_cfg)

    q0 = np.deg2rad(cfg.get("gt_start_deg", [90.0, 45.0, -20.0]))
    target = np.asarray(cfg.get("gt_target", [0.15, 0.10, np.deg2rad(45.0)]), dtype=float)
    gain = float(cfg.get("task_gain", 3.0))
    duration = float(cfg.get("gt_duration_s", 4.0))
    truth = SelectionConstraint(lam=lam_true, feature=lambda q: jacobian(arm, q),
                                meta={"feature": "jacobian", "links": list(arm.link_lengths)})
    gt = simulate_trajectory(arm, truth, TaskPointAttractor(arm=arm, target=target, gain=gain),
                             pi, q0, dt=dt, duration=duration)

    feature_fn = lambda q: jacobian(arm, q)
    learned = learn_constraint(train, k=k, representation="lambda", feature_fn=feature_fn,
                               opt=_opt_config(cfg, (seed, 2)))
    proposed_b = estimate_task_policy(learned.model, gt.x, gt.u)
    proposed_plan = RetargetPlan(constraint=learned.model, task_source=ReplaySource(proposed_b),
                                 pi_robot=pi, demonstrator=arm)
    proposed = reproduce_trajectory(proposed_plan, q0, dt, duration)

    base = baseline_separate_nullspace(train, BaselineConfig(seed=int(rng.integers(2**31))))
    lam_base, base_obj = learn_selection_matrix(train, base.w_hat, feature_fn, k,
                                                opt=_opt_config(cfg, (seed, 3)))
    base_model = SelectionConstraint(lam=lam_base, feature=feature_fn)
    base_b = estimate_task_policy(base_model, gt.x, gt.u)
    base_plan = RetargetPlan(constraint=base_model, task_source=ReplaySource(base_b),
                             pi_robot=base.predict, demonstrator=arm)
    baseline = reproduce_trajectory(base_plan, q0, dt, duration)

    sel = [i for i, v in enumerate(THREE_LINK_CASES[case]) if v]

    def task_error(traj):
        pose = forward_kinematics(arm, traj.x[-1]).as_array()
        err = target - pose
        err[2] = float(np.arctan2(np.sin(err[2]), np.cos(err[2])))
        return float(np.linalg.norm(err[sel]))

    def joint_rmse(traj):
        return float(np.sqrt(np.mean((traj.x - gt.x) ** 2)))

    report = _base_report("compare-baseline", cfg)
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
    return {"report": report, "rows": rows,
            "trajectories": {"ground_truth": gt, "proposed": proposed, "baseline": baseline}}


# --- retargeting scenarios -----------------------------------------------------------

def _learn_xy_constraint(cfg: dict, arm: PlanarArm, pi) -> tuple:
    """Training data and learned coefficients for the x-y constrained system."""
    seed = int(cfg.get("seed", 0))
    _, _, target_cfg = _three_link_setup(cfg)
    lam = diagonal_selection(THREE_LINK_CASES["xy"])
    train = generate_arm_dataset(arm, lam, pi, int(cfg.get("train_trajectories", 10)),
                                 int(cfg.get("points_per_traj", 50)),
                                 dt=cfg.get("dt", 0.02), seed=(seed, 0),
                                 target_cfg=target_cfg)
    learned = learn_constraint(train, k=2, representation="lambda",
                               feature_fn=lambda q: jacobian(arm, q),
                               opt=_opt_config(cfg, (seed, 2)))
    return train, learned


def _demonstration(cfg: dict, arm: PlanarArm, pi, lam) -> tuple:
    q0 = np.deg2rad(cfg.get("demo_start_deg", [8.67, 94.18, -2.32]))
    r_star = np.asarray(cfg.get("demo_target", [-0.0912, 0.0389, 0.0]), dtype=float)
    duration = float(cfg.get("demo_duration_s", 4.0))
    dt = cfg.get("dt", 0.02)
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
    arm = PlanarArm(tuple(cfg.get("links_m", THREE_LINK_DEFAULTS["links_m"])))
    pi = policy_from_config(cfg.get("pi", THREE_LINK_DEFAULTS["pi"]))
    train, learned = _learn_xy_constraint(cfg, arm, pi)
    demo, q0, r_star, duration, dt = _demonstration(cfg, arm, pi,
                                                    diagonal_selection(THREE_LINK_CASES["xy"]))
    obs_cfg = cfg.get("obstacle", {"x_min": -0.085, "x_max": -0.055,
                                   "y_min": 0.085, "y_max": 0.115})
    region = ObstacleRegion(**{k: float(v) for k, v in obs_cfg.items()})
    pi_r_cfg = cfg.get("pi_robot", {"type": "point_attractor", "beta": 5.0,
                                    "target_deg": [-320.0, 100.0, 50.0]})
    pi_r = policy_from_config(pi_r_cfg)
    plan = RetargetPlan(constraint=learned.model,
                        task_source=AttractorSource(target=r_star, gain=1.0),
                        pi_robot=pi_r, demonstrator=arm)
    retargeted = reproduce_trajectory(plan, q0, dt, duration)

    direct_check = check_obstacle_clearance(demo, arm, region)
    retarget_check = check_obstacle_clearance(retargeted, arm, region)

    def final_xy_error(traj):
        pose = forward_kinematics(arm, traj.x[-1]).as_array()
        return float(np.linalg.norm(pose[:2] - r_star[:2]))

    report = _base_report("retarget-obstacle", cfg)
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
        {"trial": 0, "case": "direct", "seed": [cfg.get("seed", 0)],
         "e_w": report["direct"]["min_distance"], "e_n": report["direct"]["final_xy_error"],
         "objective": float(not direct_check.clear)},
        {"trial": 1, "case": "retargeted", "seed": [cfg.get("seed", 0)],
         "e_w": report["retargeted"]["min_distance"],
         "e_n": report["retargeted"]["final_xy_error"],
         "objective": float(not retarget_check.clear)},
    ]
    return {"report": report, "rows": rows,
            "trajectories": {"demonstration": demo, "retargeted": retargeted}}


def run_retarget_embodiment(cfg: dict) -> dict:
    """Replay the learned task on an arm with a different kinematic structure."""
    arm = PlanarArm(tuple(cfg.get("links_m", THREE_LINK_DEFAULTS["links_m"])))
    pi = policy_from_config(cfg.get("pi", THREE_LINK_DEFAULTS["pi"]))
    train, learned = _learn_xy_constraint(cfg, arm, pi)
    demo, q0, r_star, duration, dt = _demonstration(cfg, arm, pi,
                                                    diagonal_selection(THREE_LINK_CASES["xy"]))
    imit_cfg = cfg.get("imitator", {})
    imitator = PlanarArm(tuple(imit_cfg.get("links_m",
                                            [0.10, 0.05, 0.05, 0.05, 0.05, 0.05, 0.10])))
    q0_imit = np.deg2rad(imit_cfg.get("start_deg", [0.0, 90.0, -90.0, 85.0, 90.0, -1.0, -81.5]))
    pi_r = policy_from_config(imit_cfg.get("pi_robot", {
        "type": "point_attractor", "beta": 1.0, "target_deg": [-10.0] * imitator.n}))
    plan = RetargetPlan(constraint=learned.model,
                        task_source=AttractorSource(target=r_star, gain=1.0),
                        pi_robot=pi_r, demonstrator=arm, imitator=imitator,
                        row_correspondence=tuple(imit_cfg.get("row_correspondence", (0, 1, 2))))
    imitated = reproduce_trajectory(plan, q0_imit, dt, duration)

    demo_xy = end_pose(arm, demo.x)[:, :2]
    imit_xy = end_pose(imitator, imitated.x)[:, :2]
    steps = min(len(demo_xy), len(imit_xy))
    rmse = float(np.sqrt(np.mean(np.sum((demo_xy[:steps] - imit_xy[:steps]) ** 2, axis=1))))

    report = _base_report("retarget-embodiment", cfg)
    report["learned_objective"] = learned.objective_value
    report["trace_rmse"] = rmse
    report["start_offset"] = float(np.linalg.norm(demo_xy[0] - imit_xy[0]))
    report["final_xy_error_demo"] = float(np.linalg.norm(demo_xy[-1] - r_star[:2]))
    report["final_xy_error_imitator"] = float(np.linalg.norm(imit_xy[-1] - r_star[:2]))
    rows = [{"trial": 0, "case": "embodiment", "seed": [cfg.get("seed", 0)],
             "e_w": rmse, "e_n": report["final_xy_error_imitator"],
             "objective": learned.objective_value}]
    return {"report": report, "rows": rows,
            "trajectories": {"demonstration": demo, "imitator": imitated}}


# --- keypoint ingestion ---------------------------------------------------------------

def run_ingest_learn(cfg: dict) -> dict:
    """Learn a constraint from pose-keypoint recordings with an ergonomic prior."""
    inputs = cfg["inputs"]
    if isinstance(inputs, str):
        inputs = [inputs]
    side = cfg.get("side", "right")
    fps = float(cfg.get("fps", 30.0))
    scale = float(cfg.get("scale", 300.0))
    floor = float(cfg.get("confidence_floor", 0.3))
    k = int(cfg.get("k", 2))

    trajs = []
    lengths = []
    for path in inputs:
        rec = read_keypoint_dir(path, side=side, fps=fps)
        ds_one, arm_one = recording_to_dataset(rec, scale=scale, confidence_floor=floor)
        trajs.extend(ds_one.trajectories)
        lengths.append(arm_one.link_lengths)
    arm = PlanarArm(tuple(np.mean(np.array(lengths), axis=0)))

    pi_cfg = cfg.get("pi", {"type": "point_attractor", "beta": 1.0,
                            "target_deg_human": [-90.0, 90.0, 0.0]})
    target_h = np.deg2rad(pi_cfg.get("target_deg_human", [-90.0, 90.0, 0.0]))
    pi = PointAttractor(target=arm_angles_from_human(target_h), beta=pi_cfg.get("beta", 1.0))

    ds = Dataset(trajectories=trajs, meta={"system": "human_arm", "noise": None,
                                           "links": list(arm.link_lengths)})
    learned = learn_constraint(ds, prior_pi=pi, k=k, representation="lambda",
                               feature_fn=lambda q: jacobian(arm, q),
                               opt=_opt_config(cfg, (int(cfg.get("seed", 0)), 2)))
    e_n = consistency_error(learned.model, ds, prior_pi=pi)

    report = _base_report("ingest-learn", cfg)
    report["n_samples"] = ds.n_samples
    report["n_trajectories"] = len(trajs)
    report["links"] = list(arm.link_lengths)
    report["e_n"] = e_n
    report["objective"] = learned.objective_value
    report["lam"] = np.asarray(learned.model.lam).round(12).tolist()
    report["diagnostics"] = learned.diagnostics
    rows = [{"trial": 0, "case": "ingest", "seed": [cfg.get("seed", 0)],
             "e_w": float("nan"), "e_n": e_n, "objective": learned.objective_value}]
    return {"report": report, "rows": rows}


# --- acceptance thresholds embedded in configs ------------------------------------------

def check_acceptance(cfg: dict, result: dict) -> list:
    """Compare a finished report against thresholds from the config, if any.

    Returns human-readable violation strings; empty means all good.
    """
    spec = cfg.get("acceptance")
    if not spec:
        return []
    report = result["report"]
    violations = []

    def check_max(value, key, label):
        if key in spec and value > spec[key]:
            violations.append(f"{label} = {value:.3e} exceeds {key} = {spec[key]:.3e}")

    if "cases" in report:
        for case, stats in report["cases"].items():
            check_max(stats["e_w"]["mean"], "max_mean_e_w", f"{case}: mean e_w")
            check_max(stats["e_n"]["mean"], "max_mean_e_n", f"{case}: mean e_n")
    if "points" in report:
        for point in report["points"]:
            label = f"{point['axis']}={point['value']}"
            check_max(point["e_w"]["mean"], "max_mean_e_w", f"{label}: mean e_w")
            check_max(point["e_n"]["mean"], "max_mean_e_n", f"{label}: mean e_n")
    if report["experiment"] == "compare-baseline":
        check_max(report["proposed"]["final_task_error"], "max_final_task_error",
                  "proposed final task error")
    if report["experiment"] == "retarget-obstacle":
        if spec.get("require_retargeted_clear") and not report["retargeted"]["clear"]:
            violations.append("retargeted trajectory violates the obstacle region")
        if spec.get("require_direct_violation") and report["direct"]["clear"]:
            violations.append("direct imitation unexpectedly clears the obstacle region")
    if report["experiment"] == "retarget-embodiment":
        check_max(report["trace_rmse"], "max_trace_rmse", "task trace RMSE")
    if report["experiment"] == "ingest-learn":
        check_max(report["e_n"], "max_e_n", "consistency error")
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
