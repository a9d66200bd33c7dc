"""The three benchmark workloads: set-up, one op, and run-level checks.

Each workload runs ops one after another from a single client. Op i
belongs to pass i // pass_len; a pass is one round over the workload's op
mix, and a run always ends on a pass boundary. Ops call projlearn through
module attributes (``learning.learn_constraint``), so an installed tracer
sees them. Every op returns its numeric outputs and whether it met its
correctness gate.

Inputs come from the shipped configs under ``configs/`` with the master
seed replaced by the workload seed, using the same seed tuples as the
experiment runners: (seed, case index, trial, stream).
"""

import json
from pathlib import Path

import numpy as np

from projlearn import constraints, ingest, kinematics, learning, metrics, policies, retarget, \
    simulator
from projlearn.kinematics import PlanarArm
from projlearn.learning import OptimizerConfig
from projlearn.simulator import Dataset, NoiseSpec

# Shipped gates (tests/test_acceptance.py and the configs' acceptance blocks).
TOY_MAX_E_W, TOY_MAX_E_N = 1e-8, 1e-6
NOISY_MAX_MEAN_E_W = 0.1
ARM_MAX_E_W, ARM_MAX_E_N = 1e-8, 1e-5
REPLAY_MAX_RMSE = 1e-6
INGEST_MAX_E_N = 1e-10

# Constrained task coordinates per three-link case; 1s pick rows of (x, y, theta).
ARM_CASES = {
    "x": (1, 0, 0), "y": (0, 1, 0), "theta": (0, 0, 1),
    "xy": (1, 1, 0), "xtheta": (1, 0, 1), "ytheta": (0, 1, 1),
}


def _load(root: Path, name: str) -> dict:
    return json.loads((root / "configs" / name).read_text())


def _opt(cfg: dict, seed) -> OptimizerConfig:
    oc = cfg["optimizer"]
    return OptimizerConfig(restarts=oc["restarts"], max_iters=oc["max_iters"],
                           objective_tol=oc["objective_tol"], param_tol=oc["param_tol"],
                           seed=seed)


def _jacobian_feature(arm):
    return lambda q: kinematics.jacobian(arm, q)


# --- toy-recovery ------------------------------------------------------------------

class ToyRecovery:
    """Spherical k=1 recovery on the 2D toy system: three clean priors, two noisy points."""

    name = "toy-recovery"
    pass_len = 5
    window = 50
    tail_pct = 95.0
    probe_ops = 10

    def setup(self, root: Path, seed: int) -> dict:
        toy = _load(root, "toy.json")
        sweep = _load(root, "noise_sweep.json")
        cases = []
        for case_index, policy in enumerate(toy["policies"]):
            cases.append({"label": policy, "policy": policy, "case_index": case_index,
                          "noise": None, "cfg": toy})
        # Criterion 3 gates the sweep at u_noise 0.10 and pi_noise 0.04; the
        # case index is the point's position in the sweep, as in run_sweep.
        case_index = 0
        for axis, values in sweep["axes"].items():
            for value in values:
                if (axis, value) in (("u_noise", 0.1), ("pi_noise", 0.04)):
                    target = "actions" if axis == "u_noise" else "prior_policy"
                    cases.append({"label": f"{axis}={value}", "policy": sweep["policy"],
                                  "case_index": case_index, "cfg": sweep,
                                  "noise": NoiseSpec(epsilon=float(value), target=target)})
                case_index += 1
        if len(cases) != self.pass_len:
            raise ValueError(f"expected {self.pass_len} toy cases from the configs, "
                             f"found {len(cases)}")
        return {"seed": seed, "cases": cases}

    def run_op(self, ctx: dict, i: int) -> dict:
        case = ctx["cases"][i % self.pass_len]
        trial = i // self.pass_len
        cfg, seed, ci = case["cfg"], ctx["seed"], case["case_index"]
        n_train = cfg["n_train"]
        prior = policies.policy_from_config({"type": case["policy"]})
        ds = simulator.generate_toy_dataset(n_train + cfg["n_test"], (seed, ci, trial, 0), prior)
        train, test = simulator.split_dataset(ds, n_train)
        if case["noise"] is not None:
            train = simulator.add_noise(train, case["noise"], (seed, ci, trial, 1))
        learned = learning.learn_constraint(train, k=1, representation="spherical",
                                            opt=_opt(cfg, (seed, ci, trial, 2)))
        ev = metrics.eval_learned_constraint(learned.model, test)
        noisy = case["noise"] is not None
        ok = noisy or (ev["e_w"] <= TOY_MAX_E_W and ev["e_n"] <= TOY_MAX_E_N)
        return {"case": case["label"], "trial": trial, "noisy": noisy, "ok": bool(ok),
                "e_w": ev["e_w"], "e_n": ev["e_n"], "objective": learned.objective_value,
                "theta": float(learned.model.theta[0])}

    def finish(self, ctx: dict, outputs: list) -> tuple:
        noisy = [o["e_w"] for o in outputs if o.get("noisy")]
        mean = float(np.mean(noisy)) if noisy else float("nan")
        failures = []
        if not mean <= NOISY_MAX_MEAN_E_W:
            # The gate is on the mean, so every noisy trial missed it.
            for o in outputs:
                if o.get("noisy"):
                    o["ok"] = False
            failures.append(f"mean e_w over {len(noisy)} noisy trials {mean:.3e} "
                            f"exceeds {NOISY_MAX_MEAN_E_W}")
        return {"e_w.noisy_mean": mean, "noisy_trials": len(noisy)}, failures


# --- arm-recovery ------------------------------------------------------------------

class ArmRecovery:
    """The three-link protocol's k=1 cases: 100x50 samples split in half, lambda search.

    The k=2 cases are left out: their search cost varies too much with the
    seed (3,000 to 7,100 objective evaluations per trial) for the few trials
    a run can afford to give a steady median. arm-replay's set-up learns two
    k=2 constraints instead.
    """

    name = "arm-recovery"
    pass_len = 3
    window = 12
    tail_pct = 75.0
    probe_ops = 1

    def setup(self, root: Path, seed: int) -> dict:
        cfg = _load(root, "three_link.json")
        tr = cfg["target_ranges"]
        # Keep each case's index in the shipped case list, as run_three_link does.
        cases = [(ci, c) for ci, c in enumerate(cfg["cases"]) if sum(ARM_CASES[c]) == 1]
        if len(cases) != self.pass_len:
            raise ValueError(f"expected {self.pass_len} k=1 cases in three_link.json")
        return {
            "seed": seed, "cfg": cfg, "cases": cases,
            "arm": PlanarArm(tuple(cfg["links_m"])),
            "pi": policies.policy_from_config(cfg["pi"]),
            "target_cfg": {"x_range": tuple(tr["x_range"]), "y_range": tuple(tr["y_range"]),
                           "theta_range_deg": tuple(tr["theta_range_deg"])},
        }

    def run_op(self, ctx: dict, i: int) -> dict:
        ci, case = ctx["cases"][i % self.pass_len]
        trial = i // self.pass_len
        cfg, seed, arm = ctx["cfg"], ctx["seed"], ctx["arm"]
        lam = constraints.diagonal_selection(ARM_CASES[case])
        n_traj = cfg["n_trajectories"]
        ds = simulator.generate_arm_dataset(arm, lam, ctx["pi"], n_traj, cfg["points_per_traj"],
                                            dt=cfg["dt"], seed=(seed, ci, trial, 0),
                                            target_cfg=ctx["target_cfg"])
        train, test = simulator.split_dataset(ds, n_traj // 2)
        learned = learning.learn_constraint(train, k=lam.shape[0], representation="lambda",
                                            feature_fn=_jacobian_feature(arm),
                                            opt=_opt(cfg, (seed, ci, trial, 2)))
        ev = metrics.eval_learned_constraint(learned.model, test)
        ok = ev["e_w"] <= ARM_MAX_E_W and ev["e_n"] <= ARM_MAX_E_N
        return {"case": case, "trial": trial, "ok": bool(ok), "e_w": ev["e_w"],
                "e_n": ev["e_n"], "objective": learned.objective_value,
                "lam": np.asarray(learned.model.lam).ravel().tolist()}

    def finish(self, ctx: dict, outputs: list) -> tuple:
        return {}, []


# --- arm-replay --------------------------------------------------------------------

class ArmReplay:
    """Reuse of learned constraints: decompose, replay, retarget, clearance, re-ingest."""

    name = "arm-replay"
    pass_len = 3  # one pass re-ingests each shipped recording once
    window = 30
    tail_pct = 80.0
    probe_ops = 6
    demos = 24
    target_jitter_m = 0.01

    def setup(self, root: Path, seed: int) -> dict:
        emb = _load(root, "retarget_embodiment.json")
        obs = _load(root, "retarget_obstacle.json")
        three = _load(root, "three_link.json")
        arm = PlanarArm(tuple(three["links_m"]))
        pi = policies.policy_from_config(three["pi"])
        lam_xy = constraints.diagonal_selection(ARM_CASES["xy"])
        tr = three["target_ranges"]
        target_cfg = {"x_range": tuple(tr["x_range"]), "y_range": tuple(tr["y_range"]),
                      "theta_range_deg": tuple(tr["theta_range_deg"])}
        # The shipped training set and learner settings of the retarget experiments.
        cfg_seed = int(emb["seed"])
        train = simulator.generate_arm_dataset(arm, lam_xy, pi, emb["train_trajectories"],
                                               emb["points_per_traj"], dt=emb["dt"],
                                               seed=(cfg_seed, 0), target_cfg=target_cfg)
        model = learning.learn_constraint(train, k=2, representation="lambda",
                                          feature_fn=_jacobian_feature(arm),
                                          opt=_opt(emb, (cfg_seed, 2))).model
        ing = self._learn_ingest(root)

        # Held-out demonstrations: the shipped reach toward targets jittered
        # from the workload seed.
        truth = constraints.SelectionConstraint(lam=lam_xy, feature=_jacobian_feature(arm))
        q0 = np.deg2rad(emb["demo_start_deg"])
        base_target = np.asarray(emb["demo_target"], dtype=float)
        rng = np.random.default_rng((seed, 0))
        demos = []
        for _ in range(self.demos):
            target = base_target.copy()
            target[:2] += rng.uniform(-self.target_jitter_m, self.target_jitter_m, size=2)
            demo = simulator.simulate_trajectory(
                arm, truth, policies.TaskPointAttractor(arm=arm, target=target, gain=1.0),
                pi, q0, dt=emb["dt"], duration=emb["demo_duration_s"])
            demos.append((target, demo))

        imit = emb["imitator"]
        region_cfg = obs["obstacle"]
        return {
            "arm": arm, "pi": pi, "model": model, "emb": emb, "obs": obs, "demos": demos,
            "truth": truth, "ingest": ing,
            "imitator": PlanarArm(tuple(imit["links_m"])),
            "imitator_q0": np.deg2rad(imit["start_deg"]),
            "imitator_pi": policies.policy_from_config(imit["pi_robot"]),
            "rows": tuple(imit["row_correspondence"]),
            "region": retarget.ObstacleRegion(**{k: float(v) for k, v in region_cfg.items()}),
        }

    @staticmethod
    def _learn_ingest(root: Path) -> dict:
        cfg = _load(root, "ingest_learn.json")
        kw = {"side": cfg["side"], "fps": float(cfg["fps"])}
        conv = {"scale": float(cfg["scale"]), "confidence_floor": float(cfg["confidence_floor"])}
        paths = [root / p for p in cfg["inputs"]]
        trajs, lengths = [], []
        for path in paths:
            ds_one, arm_one = ingest.recording_to_dataset(ingest.read_keypoint_dir(path, **kw),
                                                          **conv)
            trajs.extend(ds_one.trajectories)
            lengths.append(arm_one.link_lengths)
        arm = PlanarArm(tuple(np.mean(np.array(lengths), axis=0)))
        target = np.deg2rad(cfg["pi"]["target_deg_human"])
        pi = policies.PointAttractor(target=ingest.arm_angles_from_human(target),
                                     beta=cfg["pi"]["beta"])
        ds = Dataset(trajectories=trajs, meta={"system": "human_arm", "noise": None})
        learned = learning.learn_constraint(ds, prior_pi=pi, k=int(cfg["k"]),
                                            representation="lambda",
                                            feature_fn=_jacobian_feature(arm),
                                            opt=_opt(cfg, (int(cfg["seed"]), 2)))
        return {"model": learned.model, "pi": pi, "paths": paths, "read": kw, "convert": conv}

    def run_op(self, ctx: dict, i: int) -> dict:
        target, demo = ctx["demos"][i % len(ctx["demos"])]
        arm, model, emb = ctx["arm"], ctx["model"], ctx["emb"]
        dt, duration = emb["dt"], emb["demo_duration_s"]
        demo_ds = Dataset(trajectories=[demo])

        w_hat, _ = retarget.estimate_components(demo_ds, model)
        b_hat = retarget.estimate_task_policy(model, demo.x, demo.u)
        ev = metrics.eval_learned_constraint(model, demo_ds)

        plan = retarget.RetargetPlan(constraint=model, task_source=retarget.ReplaySource(b_hat),
                                     pi_robot=ctx["pi"], demonstrator=arm)
        replay = retarget.reproduce_trajectory(plan, demo.x[0], dt, duration)
        replay_rmse = float(np.sqrt(np.mean((replay.x - demo.x) ** 2)))

        imitator = ctx["imitator"]
        plan7 = retarget.RetargetPlan(constraint=model,
                                      task_source=retarget.AttractorSource(target=target, gain=1.0),
                                      pi_robot=ctx["imitator_pi"], demonstrator=arm,
                                      imitator=imitator, row_correspondence=ctx["rows"])
        imitated = retarget.reproduce_trajectory(plan7, ctx["imitator_q0"], dt, duration)
        steps = min(demo.n_samples, imitated.n_samples)
        demo_xy = np.stack([kinematics.joint_positions(arm, q)[-1] for q in demo.x[:steps]])
        imit_xy = np.stack([kinematics.joint_positions(imitator, q)[-1]
                            for q in imitated.x[:steps]])
        trace_rmse = float(np.sqrt(np.mean(np.sum((demo_xy - imit_xy) ** 2, axis=1))))

        clearance = retarget.check_obstacle_clearance(replay, arm, ctx["region"])

        ing = ctx["ingest"]
        path = ing["paths"][i % self.pass_len]
        rec = ingest.read_keypoint_dir(path, **ing["read"])
        rec_ds, _ = ingest.recording_to_dataset(rec, **ing["convert"])
        ingest_e_n = metrics.consistency_error(ing["model"], rec_ds, prior_pi=ing["pi"])

        ok = (ev["e_w"] <= ARM_MAX_E_W and ev["e_n"] <= ARM_MAX_E_N
              and replay_rmse <= REPLAY_MAX_RMSE
              and trace_rmse <= emb["acceptance"]["max_trace_rmse"]
              and ingest_e_n <= INGEST_MAX_E_N)
        return {"demo": i % len(ctx["demos"]), "recording": path.name, "ok": bool(ok),
                "e_w": ev["e_w"], "e_n": ev["e_n"], "w_err": float(np.max(np.abs(w_hat - demo.w))),
                "replay_rmse": replay_rmse, "trace_rmse": trace_rmse,
                "clear": clearance.clear, "min_distance": clearance.min_distance,
                "ingest_e_n": ingest_e_n}

    def finish(self, ctx: dict, outputs: list) -> tuple:
        """The shipped obstacle scenario, once per run: avoidance clears, direct replay hits."""
        arm, emb, obs = ctx["arm"], ctx["emb"], ctx["obs"]
        q0 = np.deg2rad(obs["demo_start_deg"])
        r_star = np.asarray(obs["demo_target"], dtype=float)
        direct = simulator.simulate_trajectory(
            arm, ctx["truth"], policies.TaskPointAttractor(arm=arm, target=r_star, gain=1.0),
            ctx["pi"], q0, dt=obs["dt"], duration=obs["demo_duration_s"])
        plan = retarget.RetargetPlan(constraint=ctx["model"],
                                     task_source=retarget.AttractorSource(target=r_star, gain=1.0),
                                     pi_robot=policies.policy_from_config(obs["pi_robot"]),
                                     demonstrator=arm)
        avoided = retarget.reproduce_trajectory(plan, q0, obs["dt"], obs["demo_duration_s"])
        direct_clear = retarget.check_obstacle_clearance(direct, arm, ctx["region"]).clear
        avoided_clear = retarget.check_obstacle_clearance(avoided, arm, ctx["region"]).clear
        failures = []
        if not avoided_clear:
            failures.append("shipped obstacle scenario: retargeted run hits the obstacle")
        if direct_clear:
            failures.append("shipped obstacle scenario: direct replay clears the obstacle")
        worst = max((o["replay_rmse"] for o in outputs if "replay_rmse" in o),
                    default=float("nan"))
        return {"replay_err.max": worst, "obstacle_direct_clear": direct_clear,
                "obstacle_retargeted_clear": avoided_clear}, failures


WORKLOADS = {w.name: w for w in (ToyRecovery(), ArmRecovery(), ArmReplay())}
