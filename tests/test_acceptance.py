"""Acceptance gates for the shipped experiment suite.

Each test runs one headline claim end to end at its published tolerance and
prints a single PASS or FAIL line with the measured numbers and elapsed
time. Budgets are wall-clock on a single worker.
"""

import json
import time
from pathlib import Path

import numpy as np

from projlearn.cli import main
from projlearn.constraints import (SelectionConstraint, SphericalConstraint,
                                   build_constraint_rows, diagonal_selection,
                                   null_projector, pseudo_inverse,
                                   spherical_param_count)
from projlearn.ingest import (HumanArmRecording, arm_angles_from_human,
                              keypoints_to_joint_angles, parse_keypoint_json,
                              recording_to_dataset, synthesize_keypoint_frames)
from projlearn.kinematics import PlanarArm, end_pose, jacobian, wrap_angle
from projlearn.learning import learn_constraint
from projlearn.metrics import (consistency_objective, eval_learned_constraint,
                               projector_distance)
from projlearn.policies import LimitCyclePolicy, PointAttractor, TaskPointAttractor
from projlearn.simulator import (NoiseSpec, add_noise, generate_arm_dataset,
                                 generate_toy_dataset, simulate_trajectory, split_dataset)
from projlearn.experiments import (THREE_LINK_CASES, _arm, resolve,
                                   run_compare_baseline, run_retarget_embodiment,
                                   run_retarget_obstacle, run_sweep, run_three_link,
                                   run_toy)

REPO = Path(__file__).resolve().parent.parent

TOY_OPT = {"restarts": 8, "max_iters": 600, "objective_tol": 1e-13, "param_tol": 1e-11}
ARM_OPT = {"restarts": 8, "max_iters": 1000, "objective_tol": 1e-12, "param_tol": 1e-10}


def report_line(num, name, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {num} ({name}): {detail} [{elapsed:.1f}s <= {budget:.0f}s]")


def test_criterion_1_toy_recovery():
    budget = 300.0
    t0 = time.monotonic()
    cfg = {"seed": 0, "trials": 50, "policies": ["linear", "limit_cycle", "sinusoidal"],
           "n_train": 150, "n_test": 150, "optimizer": TOY_OPT}
    out = run_toy(cfg)
    elapsed = time.monotonic() - t0
    cases = out["report"]["cases"]
    worst_w = max(stats["e_w"]["mean"] for stats in cases.values())
    worst_n = max(stats["e_n"]["mean"] for stats in cases.values())
    ok = worst_w <= 1e-8 and worst_n <= 1e-6 and elapsed <= budget
    report_line(1, "toy recovery", ok,
                f"worst mean e_w {worst_w:.2e} <= 1e-8, worst mean e_n {worst_n:.2e} <= 1e-6",
                elapsed, budget)
    assert worst_w <= 1e-8
    assert worst_n <= 1e-6
    assert elapsed <= budget


def test_criterion_2_five_point_training():
    budget = 60.0
    t0 = time.monotonic()
    cfg = {"seed": 0, "trials": 50, "policies": ["limit_cycle"],
           "n_train": 5, "n_test": 150, "optimizer": TOY_OPT}
    out = run_toy(cfg)
    elapsed = time.monotonic() - t0
    mean_w = out["report"]["cases"]["limit_cycle"]["e_w"]["mean"]
    ok = mean_w <= 1e-6 and elapsed <= budget
    report_line(2, "five training points", ok, f"mean e_w {mean_w:.2e} <= 1e-6",
                elapsed, budget)
    assert mean_w <= 1e-6
    assert elapsed <= budget


def test_criterion_3_noise_robustness():
    budget = 300.0
    t0 = time.monotonic()
    cfg = {"seed": 0, "trials": 50, "policy": "limit_cycle",
           "n_train": 150, "n_test": 150,
           "axes": {"u_noise": [0.10], "pi_noise": [0.04]}, "optimizer": TOY_OPT}
    out = run_sweep(cfg)
    elapsed = time.monotonic() - t0
    by_axis = {p["axis"]: p["e_w"]["mean"] for p in out["report"]["points"]}
    ok = by_axis["u_noise"] <= 0.1 and by_axis["pi_noise"] <= 0.1 and elapsed <= budget
    report_line(3, "noise robustness", ok,
                f"mean e_w {by_axis['u_noise']:.2e} at action noise 0.10 and "
                f"{by_axis['pi_noise']:.2e} at prior noise 0.04, both <= 0.1",
                elapsed, budget)
    assert by_axis["u_noise"] <= 0.1
    assert by_axis["pi_noise"] <= 0.1
    assert elapsed <= budget


def test_noisy_toy_recovery_every_prior():
    # Criterion 3's protocol for the two priors it leaves out, same threshold.
    budget = 300.0
    t0 = time.monotonic()
    means = {}
    for policy in ("linear", "sinusoidal"):
        cfg = {"seed": 0, "trials": 50, "policy": policy, "n_train": 150, "n_test": 150,
               "axes": {"u_noise": [0.10], "pi_noise": [0.04]}, "optimizer": TOY_OPT}
        for p in run_sweep(cfg)["report"]["points"]:
            means[f"{policy}@{p['axis']}"] = p["e_w"]["mean"]
    elapsed = time.monotonic() - t0
    worst = max(means, key=means.get)
    failing = sorted(k for k, v in means.items() if v > 0.1)
    ok = not failing and elapsed <= budget
    report_line("3c", "noisy toy recovery, every prior", ok,
                f"worst mean e_w {means[worst]:.2e} ({worst}) <= 0.1 at action noise 0.10 "
                f"and prior noise 0.04; failing: {failing or 'none'}", elapsed, budget)
    assert not failing, {k: means[k] for k in failing}
    assert elapsed <= budget


def test_criterion_4_three_link_recovery():
    budget = 900.0
    t0 = time.monotonic()
    cfg = {"seed": 0, "trials": 10,
           "cases": ["x", "y", "theta", "xy", "xtheta", "ytheta"],
           "n_trajectories": 100, "points_per_traj": 50, "optimizer": ARM_OPT}
    out = run_three_link(cfg)
    elapsed = time.monotonic() - t0
    cases = out["report"]["cases"]
    worst_w = max(stats["e_w"]["mean"] for stats in cases.values())
    worst_n = max(stats["e_n"]["mean"] for stats in cases.values())
    ok = worst_w <= 1e-8 and worst_n <= 1e-5 and elapsed <= budget
    report_line(4, "three-link recovery", ok,
                f"worst mean e_w {worst_w:.2e} <= 1e-8, worst mean e_n {worst_n:.2e} <= 1e-5",
                elapsed, budget)
    assert worst_w <= 1e-8
    assert worst_n <= 1e-5
    assert elapsed <= budget


def test_noisy_three_link_recovery():
    # The shipped three-link config at action noise 0.01 and 0.1, trials 0-2,
    # with the runner's seed tuples: trained on the noisy training half,
    # evaluated on the clean test half. The threshold is the toy noise gate's.
    budget = 120.0
    t0 = time.monotonic()
    cfg = resolve(json.loads((REPO / "configs" / "three_link.json").read_text()), "three-link")
    arm, pi, feature = _arm(cfg)
    seed, n_traj = cfg["seed"], cfg["n_trajectories"]
    means = {}
    for case_index, case in enumerate(cfg["cases"]):
        lam = diagonal_selection(THREE_LINK_CASES[case])
        e_w = {0.01: [], 0.1: []}
        for trial in range(3):
            ds = generate_arm_dataset(arm, lam, pi, n_traj, cfg["points_per_traj"],
                                      dt=cfg["dt"], seed=(seed, case_index, trial, 0),
                                      target_cfg=cfg["target_ranges"])
            train, test = split_dataset(ds, n_traj // 2)
            for eps, errors in e_w.items():
                noisy = add_noise(train, NoiseSpec(epsilon=eps, target="actions"),
                                  (seed, case_index, trial, 1))
                learned = learn_constraint(noisy, k=lam.shape[0], representation="lambda",
                                           feature_fn=feature)
                errors.append(eval_learned_constraint(learned.model, test)["e_w"])
        for eps, errors in e_w.items():
            means[f"{case}@{eps}"] = float(np.mean(errors))
    elapsed = time.monotonic() - t0
    worst = max(means, key=means.get)
    failing = sorted(k for k, v in means.items() if v > 0.1)
    ok = not failing and elapsed <= budget
    report_line("3b", "noisy three-link recovery", ok,
                f"worst mean e_w {means[worst]:.2e} ({worst}) <= 0.1 over 6 cases x "
                f"2 noise levels; failing: {failing or 'none'}", elapsed, budget)
    assert not failing, {k: means[k] for k in failing}
    assert elapsed <= budget


def test_criterion_5_reproduction_beats_baseline():
    budget = 300.0
    t0 = time.monotonic()
    base_cfg = {"seed": 0, "train_trajectories": 1, "train_duration_s": 2.0,
                "gt_start_deg": [90.0, 45.0, -20.0],
                "gt_target": [0.15, 0.10, float(np.deg2rad(45.0))],
                "task_gain": 3.0, "gt_duration_s": 4.0, "optimizer": ARM_OPT}
    xy = run_compare_baseline(dict(base_cfg, case="xy"))["report"]
    th = run_compare_baseline(dict(base_cfg, case="theta"))["report"]
    elapsed = time.monotonic() - t0
    err_xy = xy["proposed"]["final_task_error"]
    err_th = th["proposed"]["final_task_error"]
    ok = err_xy <= 1e-3 and err_th <= 1e-3 and elapsed <= budget
    report_line(5, "reproduction vs baseline", ok,
                f"proposed final task error {err_xy:.2e} m (xy) and {err_th:.2e} rad "
                f"(theta), both <= 1e-3; baseline (logged, not gated) "
                f"{xy['baseline']['final_task_error']:.2e} m and "
                f"{th['baseline']['final_task_error']:.2e} rad",
                elapsed, budget)
    assert err_xy <= 1e-3
    assert err_th <= 1e-3
    assert elapsed <= budget


def test_criterion_6_retargeting():
    budget = 300.0
    t0 = time.monotonic()
    obstacle = run_retarget_obstacle({"seed": 0, "optimizer": ARM_OPT})["report"]
    embodiment = run_retarget_embodiment({"seed": 0, "optimizer": ARM_OPT})["report"]
    elapsed = time.monotonic() - t0
    direct_hits = not obstacle["direct"]["clear"]
    retarget_clear = obstacle["retargeted"]["clear"]
    rmse = embodiment["trace_rmse"]
    ok = direct_hits and retarget_clear and rmse <= 1e-2 and elapsed <= budget
    report_line(6, "retargeting", ok,
                f"direct replay violates obstacle: {direct_hits}; retargeted clears: "
                f"{retarget_clear} (margin {obstacle['retargeted']['min_distance']:.4f} m); "
                f"7-link task trace RMSE {rmse:.2e} m <= 1e-2",
                elapsed, budget)
    assert direct_hits
    assert retarget_clear
    assert rmse <= 1e-2
    assert elapsed <= budget


def _property_projector_identities(rng):
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, n))
        theta = rng.uniform(-np.pi, np.pi, spherical_param_count(k, n))
        proj = null_projector(build_constraint_rows(theta, k, n))
        worst = max(worst,
                    float(np.max(np.abs(proj.N @ proj.N - proj.N))),
                    float(np.max(np.abs(proj.N - proj.N.T))),
                    float(np.max(np.abs(proj.A @ proj.N))))
    assert worst <= 1e-8
    return worst


def _property_penrose(rng):
    worst = 0.0
    for _ in range(200):
        rows = int(rng.integers(1, 4))
        cols = int(rng.integers(rows, 8))
        M = rng.normal(size=(rows, cols))
        P = pseudo_inverse(M)
        worst = max(worst,
                    float(np.max(np.abs(M @ P @ M - M))),
                    float(np.max(np.abs(P @ M @ P - P))),
                    float(np.max(np.abs((M @ P).T - M @ P))),
                    float(np.max(np.abs((P @ M).T - P @ M))))
    assert worst <= 1e-8
    return worst


def _property_decomposition():
    arm = PlanarArm((0.1, 0.1, 0.1))
    ds = generate_arm_dataset(arm, diagonal_selection((1, 1, 0)),
                              PointAttractor(target=np.deg2rad([10.0, -10.0, 10.0])),
                              n_trajectories=4, points_per_traj=50, dt=0.02, seed=100,
                              target_cfg=resolve({}, "three-link")["target_ranges"])
    V, W, U = ds.stack("v"), ds.stack("w"), ds.stack("u")
    worst = max(float(np.max(np.abs(np.sum(V * W, axis=1)))),
                float(np.max(np.abs(np.sum(W * (U - W), axis=1)))))
    assert worst <= 1e-10
    truth = SelectionConstraint(lam=diagonal_selection((1, 1, 0)),
                                feature=lambda q: jacobian(arm, q))
    score = consistency_objective(truth, ds)
    floor = 1e-10 * float(np.sum(np.linalg.norm(U, axis=1)))
    assert score <= floor
    ds_toy = generate_toy_dataset(300, seed=101, null_policy=LimitCyclePolicy())
    truth_toy = SphericalConstraint(theta=tuple(ds_toy.meta["constraint"]["theta_rad"]),
                                    k=1, n=2)
    score_toy = consistency_objective(truth_toy, ds_toy)
    floor_toy = 1e-10 * float(np.sum(np.linalg.norm(ds_toy.stack("u"), axis=1)))
    assert score_toy <= floor_toy
    return worst


def _property_grid_oracle():
    grid = np.deg2rad(np.arange(0.0, 180.0, 0.1))
    worst = 0.0
    for seed in range(50):
        ds = generate_toy_dataset(150, seed=(200, seed), null_policy=LimitCyclePolicy())
        vals = [consistency_objective(SphericalConstraint(theta=(g,), k=1, n=2), ds)
                for g in grid]
        oracle = grid[int(np.argmin(vals))]
        learned = learn_constraint(ds, k=1).model.theta[0]
        gap = abs(learned - oracle) % np.pi
        gap = min(gap, np.pi - gap)
        worst = max(worst, float(gap))
    assert worst <= np.deg2rad(0.5)
    return float(np.rad2deg(worst))


def _property_jacobian_fd():
    arm = PlanarArm((0.12, 0.1, 0.07))
    rng = np.random.default_rng(300)
    h = 1e-6
    worst = 0.0
    for _ in range(25):
        q = rng.uniform(-np.pi, np.pi, 3)
        J = jacobian(arm, q)
        fd = np.empty_like(J)
        for j in range(3):
            dq = np.zeros(3)
            dq[j] = h
            hi = end_pose(arm, q + dq)
            lo = end_pose(arm, q - dq)
            diff = hi - lo
            diff[2] = wrap_angle(diff[2])
            fd[:, j] = diff / (2.0 * h)
        worst = max(worst, float(np.max(np.abs(J - fd))))
    assert worst <= 1e-6
    return worst


def _property_ingest_round_trip():
    arm = PlanarArm((0.3, 0.25, 0.1))
    model = SelectionConstraint(lam=diagonal_selection((1, 1, 0)),
                                feature=lambda q: jacobian(arm, q))
    pi = PointAttractor(target=arm_angles_from_human(np.deg2rad([-90.0, 90.0, 0.0])))
    q0 = arm_angles_from_human(np.deg2rad([8.67, 94.18, -2.32]))
    task = TaskPointAttractor(arm=arm, target=np.array([-0.09, 0.04, 0.0]), gain=1.0)
    traj = simulate_trajectory(arm, model, task, pi, q0, dt=1.0 / 30.0, duration=2.0)
    frames = synthesize_keypoint_frames(arm, traj.x)
    rec = HumanArmRecording(frames=parse_keypoint_json(frames), fps=30.0)
    q_human, _ = keypoints_to_joint_angles(rec)
    q_err = float(np.max(np.abs(arm_angles_from_human(q_human) - traj.x)))
    assert q_err <= 1e-6
    ds, est_arm = recording_to_dataset(rec)
    learned = learn_constraint(ds, prior_pi=pi, k=2, representation="lambda",
                               feature_fn=lambda q: jacobian(est_arm, q))
    n_err = 0.0
    for q in ds.stack("x")[::6]:
        N_true = null_projector(model.A_at(q)).N
        n_err = max(n_err, projector_distance(learned.model.projector_at(q).N, N_true))
    assert n_err <= 1e-4
    return q_err, n_err


def test_criterion_7_property_suite():
    budget = 60.0
    t0 = time.monotonic()
    rng = np.random.default_rng(12345)
    proj_worst = _property_projector_identities(rng)
    penrose_worst = _property_penrose(rng)
    decomp_worst = _property_decomposition()
    grid_worst_deg = _property_grid_oracle()
    jac_worst = _property_jacobian_fd()
    q_err, n_err = _property_ingest_round_trip()
    elapsed = time.monotonic() - t0
    ok = elapsed <= budget
    report_line(7, "property suite", ok,
                f"projector identities {proj_worst:.1e} <= 1e-8 (1000 draws), "
                f"pseudo-inverse conditions {penrose_worst:.1e} <= 1e-8, "
                f"decomposition orthogonality {decomp_worst:.1e} <= 1e-10, "
                f"grid-oracle gap {grid_worst_deg:.3f} deg <= 0.5 (50 seeds), "
                f"analytic vs FD Jacobian {jac_worst:.1e} <= 1e-6, "
                f"keypoint round trip {q_err:.1e} rad <= 1e-6 and "
                f"projector {n_err:.1e} <= 1e-4",
                elapsed, budget)
    assert elapsed <= budget


def test_criterion_8_reproducibility(tmp_path):
    budget = 300.0
    t0 = time.monotonic()
    config = str(REPO / "configs" / "toy.json")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    code_a = main(["toy", config, "--trials", "5", "--out", str(out_a)])
    code_b = main(["toy", config, "--trials", "5", "--out", str(out_b)])
    bytes_a = (out_a / "trials.csv").read_bytes()
    bytes_b = (out_b / "trials.csv").read_bytes()
    elapsed = time.monotonic() - t0
    identical = bytes_a == bytes_b
    ok = identical and code_a == code_b == 0 and elapsed <= budget
    report_line(8, "byte-identical re-run", ok,
                f"trials.csv identical across re-runs: {identical} "
                f"({len(bytes_a)} bytes)", elapsed, budget)
    assert code_a == 0 and code_b == 0
    assert identical
    assert elapsed <= budget
