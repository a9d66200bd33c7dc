"""Synthetic constrained-motion data: generation and noise.

Every sample is produced by the decomposition u = A^+ b + N pi, so the
ground-truth split into task part v and null-space part w is stored next to
the observations. Datasets are plain containers; generation is deterministic
given the seed.
"""

from dataclasses import dataclass, field, fields, replace

import numpy as np

from .constraints import SelectionConstraint, SphericalConstraint, split_action
from .kinematics import PlanarArm, pose_and_jacobian
from .policies import TaskPointAttractor, policy_values


@dataclass(frozen=True, eq=False)
class Trajectory:
    """States and actions sampled at a fixed rate, with optional ground truth.

    x, u are (N, n). v, w are the task / null-space action parts, b the task
    rate in constraint coordinates (N, k) and pi the secondary-policy values
    that a learner is given (these are the noisy ones when noise targets the
    prior). For i.i.d. sample sets dt is a placeholder and set to 1.
    """

    dt: float
    x: np.ndarray
    u: np.ndarray
    v: np.ndarray | None = None
    w: np.ndarray | None = None
    b: np.ndarray | None = None
    pi: np.ndarray | None = None

    def __post_init__(self):
        if not np.isfinite(self.dt) or self.dt <= 0.0:
            raise ValueError("dt must be positive")
        arrays = {}
        for name, a in self.arrays().items():
            a = np.asarray(a, dtype=float)
            arrays[name] = a if a.ndim >= 2 else a.reshape(1, -1)  # np.atleast_2d, cheaper
        rows = arrays["x"].shape[0]
        if arrays["u"].shape != arrays["x"].shape:
            raise ValueError("x and u must have matching shapes")
        for name, a in arrays.items():
            if a.shape[0] != rows:
                raise ValueError(f"{name} has {a.shape[0]} rows, expected {rows}")
            object.__setattr__(self, name, a)

    def arrays(self) -> dict:
        """The arrays present (every field but dt), by field name in field order."""
        return {name: a for name in _ARRAY_FIELDS if (a := getattr(self, name)) is not None}

    @property
    def n_samples(self) -> int:
        return self.x.shape[0]

    def slice(self, start: int, stop: int) -> "Trajectory":
        return Trajectory(dt=self.dt, **{name: a[start:stop] for name, a in self.arrays().items()})


_ARRAY_FIELDS = tuple(f.name for f in fields(Trajectory) if f.name != "dt")


@dataclass(eq=False)
class Dataset:
    """A list of trajectories plus metadata: the toy's true constraint under "constraint"."""

    trajectories: list
    meta: dict = field(default_factory=dict)

    def stack(self, name: str) -> np.ndarray:
        parts = [getattr(t, name) for t in self.trajectories]
        if any(p is None for p in parts):
            raise ValueError(f"field {name!r} missing from at least one trajectory")
        return np.concatenate(parts, axis=0)

    @property
    def n_samples(self) -> int:
        return sum(t.n_samples for t in self.trajectories)


def action_std(dataset: Dataset) -> np.ndarray:
    """Per-dimension standard deviation of the observed actions."""
    return np.std(dataset.stack("u"), axis=0)


@dataclass(frozen=True)
class NoiseSpec:
    """Additive white Gaussian noise scaled by the action spread.

    Per dimension i the noise is N(0, epsilon * std(u_i)^2). target selects
    what gets perturbed: the observed actions, or the secondary-policy values
    handed to the learner (stored u stays untouched in that case).
    """

    epsilon: float
    target: str = "actions"

    def __post_init__(self):
        if self.epsilon < 0.0:
            raise ValueError("epsilon must be >= 0")
        if self.target not in ("actions", "prior_policy"):
            raise ValueError("target must be 'actions' or 'prior_policy'")


def add_noise(dataset: Dataset, spec: NoiseSpec, seed) -> Dataset:
    """Return a noisy copy of the dataset; the input is left alone."""
    rng = np.random.default_rng(seed)
    sigma = action_std(dataset)
    scale = np.sqrt(spec.epsilon) * sigma
    out = []
    for traj in dataset.trajectories:
        noise = rng.normal(0.0, 1.0, size=traj.u.shape) * scale
        if spec.target == "actions":
            out.append(replace(traj, u=traj.u + noise))
        else:
            if traj.pi is None:
                raise ValueError("cannot noise the prior: trajectory stores no pi values")
            out.append(replace(traj, pi=traj.pi + noise))
    return Dataset(trajectories=out, meta=dict(dataset.meta))


def generate_toy_dataset(n_points: int, seed, null_policy) -> Dataset:
    """I.i.d. two-dimensional samples under a one-dimensional constraint.

    The constraint direction is a random unit vector alpha(theta) with
    theta ~ U[0, pi); states are drawn from U[-1, 1]^2 and the task policy
    is a point attractor b = r* - alpha . x toward a random target
    r* ~ U[-2, 2]. The dataset's meta holds the drawn constraint.
    """
    if n_points < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    theta = float(rng.uniform(0.0, np.pi))
    r_star = float(rng.uniform(-2.0, 2.0))
    X = rng.uniform(-1.0, 1.0, size=(n_points, 2))
    model = SphericalConstraint(theta=(theta,), k=1, n=2)
    A = model.matrix
    N = np.eye(2) - A.T @ A
    PI = policy_values(null_policy, X)
    B = r_star - X @ A[0]
    V = B[:, None] * A  # A^+ = A^T for a unit row
    W = PI @ N.T
    U = V + W
    traj = Trajectory(dt=1.0, x=X, u=U, v=V, w=W, b=B[:, None], pi=PI)
    return Dataset(trajectories=[traj], meta={"constraint": model.to_config()})


# Rollouts stop when sigma_min/sigma_max of A(x) falls below this: a
# scale-free test, so it does not depend on length units.
RANK_TOL = 1e-10


class RankCollapseError(RuntimeError):
    """Constraint matrix lost row rank while rolling out a trajectory."""

    def __init__(self, step: int, sigma_ratio: float):
        super().__init__(f"constraint rank collapse at step {step} "
                         f"(sigma_min/sigma_max = {sigma_ratio:.3e})")
        self.step = step
        self.sigma_ratio = sigma_ratio


def _rollout(terms, null_policy, Q0, dt: float, steps: int) -> list:
    """Explicit-Euler rollout of m trajectories in lockstep, u = A^+ b + N pi.

    Q0 holds the m start states, (m, n). terms(Q) gives the constraint
    matrices of every state and their task rates in constraint coordinates,
    (m, k, n) and (m, k). Every step takes v, w and the rank test of the m
    constraint matrices from one split_action call, and raises
    RankCollapseError with the worst sigma_min/sigma_max when one falls
    below RANK_TOL. Returns one Trajectory per start.
    """
    Q = np.array(Q0, dtype=float)
    m, n = Q.shape
    X, U, V, W, PI = (np.empty((m, steps, n)) for _ in range(5))
    B = []
    for t in range(steps):
        A, b = terms(Q)
        pi = policy_values(null_policy, Q)
        v, w, ratio = split_action(A, b, pi)
        if ratio.min() < RANK_TOL:
            raise RankCollapseError(t, float(ratio.min()))
        X[:, t] = Q
        U[:, t] = v + w
        V[:, t] = v
        W[:, t] = w
        B.append(b)
        PI[:, t] = pi
        Q = Q + dt * U[:, t]
    B = np.stack(B, axis=1)
    return [Trajectory(dt=dt, x=X[i], u=U[i], v=V[i], w=W[i], b=B[i], pi=PI[i])
            for i in range(m)]


def _step_count(dt: float, duration: float) -> int:
    if dt <= 0.0 or duration <= 0.0:
        raise ValueError("dt and duration must be positive")
    steps = int(round(duration / dt))
    if steps < 1:
        raise ValueError("duration shorter than one step")
    return steps


def simulate_trajectory(arm: PlanarArm, constraint: SelectionConstraint, task_policy,
                        null_policy, q0, dt: float, duration: float) -> Trajectory:
    """Explicit-Euler rollout of u = A^+ b + N pi on a planar arm.

    task_policy returns the full task-space rate; the constraint selects the
    coordinates it governs. Raises RankCollapseError when A(x) loses row
    rank along the way. This is the lockstep rollout with one trajectory.
    """
    steps = _step_count(dt, duration)
    q0 = np.asarray(q0, dtype=float)
    if q0.shape != (arm.n,):
        raise ValueError(f"expected {arm.n} joint angles, got shape {q0.shape}")

    def terms(Q):
        return constraint.A_stack(Q), constraint.select_rates(policy_values(task_policy, Q))

    return _rollout(terms, null_policy, q0[None], dt, steps)[0]


THREE_LINK_START_RANGES_DEG = ((0.0, 10.0), (90.0, 100.0), (0.0, 10.0))


def generate_arm_dataset(arm: PlanarArm, lam: np.ndarray, null_policy, n_trajectories: int,
                         points_per_traj: int, dt: float, seed, target_cfg: dict) -> Dataset:
    """Batch of arm trajectories under a fixed selection constraint.

    Each trajectory gets a fresh start drawn from THREE_LINK_START_RANGES_DEG
    and a fresh task target drawn from the x_range, y_range and
    theta_range_deg of `target_cfg`, so b varies across the data while the
    constraint stays put. One draw call fills a row per trajectory: its three
    start angles, then its target's x, y and theta. All trajectories are
    rolled out in lockstep; each equals simulate_trajectory from its own
    start toward its own target.
    """
    if n_trajectories < 1:
        raise ValueError("need at least one trajectory")
    rng = np.random.default_rng(seed)
    lam = np.asarray(lam, dtype=float)
    ranges = np.array([*np.deg2rad(THREE_LINK_START_RANGES_DEG), target_cfg["x_range"],
                       target_cfg["y_range"], np.deg2rad(target_cfg["theta_range_deg"])])
    draws = rng.uniform(ranges[:, 0], ranges[:, 1], size=(n_trajectories, 6))
    task = TaskPointAttractor(arm=arm, target=draws[:, 3:])

    def terms(Q):
        # A(x) = lam J(x) and the selected task rates from one kinematics pass.
        pose, J = pose_and_jacobian(arm, Q)
        return lam @ J, task.at_pose(pose) @ lam.T

    trajs = _rollout(terms, null_policy, draws[:, :3], dt, _step_count(dt, points_per_traj * dt))
    return Dataset(trajectories=trajs)


def split_dataset(dataset: Dataset, n_first: int) -> tuple:
    """Split into two datasets sharing metadata.

    A single-trajectory dataset is split at the sample level, a multi
    trajectory one at the trajectory level.
    """
    if len(dataset.trajectories) == 1:
        traj = dataset.trajectories[0]
        if not (0 < n_first < traj.n_samples):
            raise ValueError("split point outside the trajectory")
        parts = ([traj.slice(0, n_first)], [traj.slice(n_first, traj.n_samples)])
    else:
        if not (0 < n_first < len(dataset.trajectories)):
            raise ValueError("split point outside the trajectory list")
        parts = (dataset.trajectories[:n_first], dataset.trajectories[n_first:])
    return (Dataset(trajectories=parts[0], meta=dict(dataset.meta)),
            Dataset(trajectories=parts[1], meta=dict(dataset.meta)))

