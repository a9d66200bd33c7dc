"""Replaying a learned task on the demonstrator or a different arm.

A retarget plan pairs a learned constraint with a source of task rates
(either the recorded sequence b_t indexed by timestep, or a task-space
attractor re-evaluated on the executing arm) and a secondary policy chosen
for the imitator. Crossing embodiments re-targets the coefficient matrix
onto the imitator's Jacobian through a row correspondence that matches task
coordinates by meaning.
"""

from dataclasses import dataclass

import numpy as np

from .constraints import SelectionConstraint, null_projector, null_space_apply, split_action
from .kinematics import PlanarArm, end_pose, jacobian, joint_positions, wrap_angle
from .learning import _stacked
from .simulator import Dataset, RankCollapseError, Trajectory, _step_count


def estimate_components(dataset: Dataset, model, prior_pi=None):
    """Split observed actions into estimated null-space and task parts.

    w-hat = N(x) pi and v-hat = u - w-hat. Returns (w_hat, v_hat) arrays.
    The prior resolves as in learn_constraint: None reads the recorded pi, an
    array must match the action array's shape, anything else is a policy.
    """
    X, U, PI = _stacked(dataset, prior_pi)
    w_hat = null_space_apply(model.A_stack(X), PI)
    return w_hat, U - w_hat


def estimate_task_policy(model, X, U) -> np.ndarray:
    """Recorded task rates b_t = A(x_t) u_t, one row per sample."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    U = np.atleast_2d(np.asarray(U, dtype=float))
    if X.shape[0] != U.shape[0]:
        raise ValueError("states and actions disagree on the sample count")
    return np.einsum("skj,sj->sk", model.A_stack(X), U)


@dataclass(frozen=True, eq=False)
class ReplaySource:
    """Recorded task rates replayed by timestep; holds the last value at the end."""

    b_samples: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "b_samples", np.atleast_2d(np.asarray(self.b_samples, dtype=float)))

    def rate(self, plan, x, step: int) -> np.ndarray:
        idx = min(max(step, 0), self.b_samples.shape[0] - 1)
        return self.b_samples[idx]


@dataclass(frozen=True, eq=False)
class AttractorSource:
    """Task attractor gain * (r* - r) evaluated on the executing arm.

    Produces rates in the learned constraint's coordinates by pushing the
    full task-space error through the coefficient matrix, exactly like the
    constraint itself selects coordinates.
    """

    target: np.ndarray
    gain: float = 1.0

    def __post_init__(self):
        target = np.asarray(self.target, dtype=float)
        if target.shape != (3,):
            raise ValueError("target must be a full task pose (x, y, theta)")
        object.__setattr__(self, "target", target)

    def rate(self, plan, x, step: int) -> np.ndarray:
        err = self.target - end_pose(plan.arm, x)
        err[2] = wrap_angle(err[2])
        return plan.execution_model.lam @ (self.gain * err)


@dataclass(eq=False)
class RetargetPlan:
    """Everything needed to run a learned task with a substituted policy.

    constraint: the learned model, a SelectionConstraint whose feature
    closure already evaluates on the demonstrator. demonstrator: the arm the
    data came from. imitator: the executing arm when it differs; its
    Jacobian replaces the demonstrator's through row_correspondence, which
    maps each feature row of the learned coefficients to the imitator
    Jacobian row with the same task meaning.
    """

    constraint: SelectionConstraint
    task_source: object
    pi_robot: object
    demonstrator: PlanarArm
    imitator: PlanarArm | None = None
    row_correspondence: tuple = (0, 1, 2)

    def __post_init__(self):
        if not isinstance(self.constraint, SelectionConstraint):
            raise ValueError("plans execute coefficient-form constraints; wrap constant "
                             "matrices as a selection over identity features")
        corr = tuple(int(i) for i in self.row_correspondence)
        if len(set(corr)) != len(corr):
            raise ValueError("row correspondence must be injective")
        self.row_correspondence = corr
        if self.imitator is not None:
            arm = self.imitator
            self.execution_model = SelectionConstraint(
                lam=self.constraint.lam,
                feature=lambda q: jacobian(arm, q)[..., list(corr), :],
                meta={"feature": "jacobian", "links": list(arm.link_lengths),
                      "rows": list(corr)})
        else:
            self.execution_model = self.constraint
        self.arm = self.imitator if self.imitator is not None else self.demonstrator

    def projector_at(self, x):
        return null_projector(self.execution_model.A_at(x))


def _step(plan: RetargetPlan, x: np.ndarray, step: int, rank_tol: float):
    """The retargeted action at x and the constraint matrix A(x) it was formed with."""
    A = plan.execution_model.A_at(x)
    b = np.asarray(plan.task_source.rate(plan, x, step), dtype=float)
    v, w, ratio = split_action(A[None], b[None], np.asarray(plan.pi_robot(x), dtype=float)[None])
    if ratio[0] < rank_tol:
        raise RankCollapseError(step, float(ratio[0]))
    return v[0] + w[0], A


def retarget_step(plan: RetargetPlan, x, step: int = 0, rank_tol: float = 1e-10) -> np.ndarray:
    """One action of the retargeted controller: u = A^+ b + N pi_robot.

    Raises RankCollapseError when sigma_min/sigma_max of A(x) falls below
    rank_tol, the same scale-free test the data rollouts use.
    """
    return _step(plan, np.asarray(x, dtype=float), step, rank_tol)[0]


def reproduce_trajectory(plan: RetargetPlan, x0, dt: float, duration: float) -> Trajectory:
    """Euler rollout of the retargeted controller from x0, one A(x) per step.

    The step count follows the data rollouts' rule: round(duration / dt),
    and a duration shorter than half a step is an error.
    """
    steps = _step_count(dt, duration)
    x = np.asarray(x0, dtype=float).copy()
    X = np.empty((steps, x.size))
    U = np.empty((steps, x.size))
    B = np.empty((steps, plan.execution_model.k))
    for t in range(steps):
        u, A = _step(plan, x, t, rank_tol=1e-10)
        X[t] = x
        U[t] = u
        B[t] = A @ u
        x = x + dt * u
    return Trajectory(dt=dt, x=X, u=U, b=B)


# --- obstacle clearance ---------------------------------------------------------

@dataclass(frozen=True)
class ObstacleRegion:
    """Axis-aligned rectangle treated as forbidden space."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def __post_init__(self):
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError("rectangle must have positive area")

    def contains(self, p) -> bool:
        return bool(self.x_min <= p[0] <= self.x_max and self.y_min <= p[1] <= self.y_max)

    @property
    def corners(self) -> np.ndarray:
        return np.array([[self.x_min, self.y_min], [self.x_max, self.y_min],
                         [self.x_max, self.y_max], [self.x_min, self.y_max]])


def _dot(a, b):
    # matmul of (1, 2) by (2, 1) takes the same dot kernel as a scalar
    # v @ v or np.linalg.norm, so every sum below rounds like the loop form.
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _point_distance(p, q, pt):
    """Distance from points pt to segments p-q, all (..., 2) and broadcast."""
    d = q - p
    denom = _dot(d, d)
    num = _dot(pt - p, d)
    t = np.clip(np.divide(num, denom, out=np.zeros_like(num), where=denom != 0.0), 0.0, 1.0)
    r = p + t[..., None] * d - pt
    return np.sqrt(_dot(r, r))


def _orient(a, b, c):
    val = (b[..., 0] - a[..., 0]) * (c[..., 1] - a[..., 1]) - \
        (b[..., 1] - a[..., 1]) * (c[..., 0] - a[..., 0])
    return np.where(np.abs(val) < 1e-15, 0.0, np.sign(val))


def _on_segment(a, b, c):
    lo = np.minimum(a, b) - 1e-15
    hi = np.maximum(a, b) + 1e-15
    return np.all((lo <= c) & (c <= hi), axis=-1)


def segment_rect_distance(p, q, region: ObstacleRegion):
    """Distance from segments p-q to a rectangle; zero when they touch or overlap.

    One segment (2,) gives a float, stacks (..., 2) give an array (...). An
    endpoint inside, or a crossing of any edge (orientation test with 1e-15
    tolerances), gives zero; otherwise the smallest endpoint-to-segment
    distance over the four edges.
    """
    p = np.asarray(p, dtype=float)[..., None, :]
    q = np.asarray(q, dtype=float)[..., None, :]
    a = region.corners
    b = np.roll(a, -1, axis=0)
    o1, o2, o3, o4 = _orient(p, q, a), _orient(p, q, b), _orient(a, b, p), _orient(a, b, q)
    # Corners 0 and 2 are the low and high ones: the last line tests containment.
    touch = ((o1 != o2) & (o3 != o4)) | \
        ((o1 == 0) & _on_segment(p, q, a)) | ((o2 == 0) & _on_segment(p, q, b)) | \
        ((o3 == 0) & _on_segment(a, b, p)) | ((o4 == 0) & _on_segment(a, b, q)) | \
        np.all((a[0] <= p) & (p <= a[2]), axis=-1) | np.all((a[0] <= q) & (q <= a[2]), axis=-1)
    apart = np.minimum(np.minimum(_point_distance(p, q, a), _point_distance(p, q, b)),
                       np.minimum(_point_distance(a, b, p), _point_distance(a, b, q)))
    dist = np.where(touch, 0.0, apart).min(axis=-1)
    return float(dist) if dist.ndim == 0 else dist


@dataclass
class ClearanceReport:
    clear: bool
    first_violation: tuple | None  # (step, link index)
    min_distance: float


def check_obstacle_clearance(traj: Trajectory, arm: PlanarArm, region: ObstacleRegion,
                             violation_tol: float = 0.0) -> ClearanceReport:
    """Check every link segment at every timestep against a forbidden rectangle.

    A segment at distance d violates when d <= violation_tol; first_violation
    is the first violating (step, link) in row-major order, the earliest step
    and within it the link nearest the base.
    """
    pts = joint_positions(arm, traj.x)
    d = segment_rect_distance(pts[:, :-1], pts[:, 1:], region)
    hits = np.argwhere(d <= violation_tol)
    first = (int(hits[0, 0]), int(hits[0, 1])) if len(hits) else None
    return ClearanceReport(clear=first is None, first_violation=first,
                           min_distance=float(d.min(initial=np.inf)))
