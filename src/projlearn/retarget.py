"""Replaying a learned task on the demonstrator or a different arm.

A retarget plan pairs a learned constraint with a source of task rates
(either the recorded sequence b_t indexed by timestep, or a task-space
attractor re-evaluated on the executing arm) and a secondary policy chosen
for the imitator. Crossing embodiments re-targets the coefficient matrix
onto the imitator's Jacobian through a row correspondence that matches task
coordinates by meaning.
"""

from dataclasses import dataclass, field
from operator import mul

import numpy as np

from .constraints import SelectionConstraint, null_space_apply
from .kinematics import PlanarArm, dot_last, end_pose, jacobian, joint_positions, wrap_angle
from .metrics import _stacked
from .simulator import (Dataset, Trajectory, _step_count, attractor_rate, check_jacobian_model,
                        float_step)


def estimate_components(dataset: Dataset, model):
    """Split observed actions into estimated null-space and task parts.

    w-hat = N(x) pi with the recorded pi, and v-hat = u - w-hat. Returns
    (w_hat, v_hat) arrays.
    """
    X, U, PI = _stacked(dataset, None)
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

    def float_rate(self, plan):
        """rate as the replay step takes it: (step, end pose) -> a list of floats."""
        rows = self.b_samples.tolist()
        return lambda step, x, y, angle: rows[min(max(step, 0), len(rows) - 1)]


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
        # lam's columns follow the executing arm's Jacobian rows, row_correspondence
        return plan.execution_model.lam @ (self.gain * err)[list(plan.row_correspondence)]

    def float_rate(self, plan):
        """rate as the replay step takes it: (step, end pose) -> a list of floats."""
        return attractor_rate(self.target, self.gain, plan.task_lam)


@dataclass(frozen=True, eq=False)
class RetargetPlan:
    """Everything needed to run a learned task with a substituted policy.

    constraint: the learned model, whose feature must be the demonstrator's
    task Jacobian. A plan runs lam over the executing arm's Jacobian rows:
    (x, y, theta) on the demonstrator, and on an imitator the rows of
    row_correspondence, which maps each feature row of the learned
    coefficients to the imitator Jacobian row with the same task meaning.
    The plan is frozen, since the executing arm and execution_model are
    derived from these fields once.
    """

    constraint: SelectionConstraint
    task_source: object
    pi_robot: object
    demonstrator: PlanarArm
    imitator: PlanarArm | None = None
    row_correspondence: tuple = (0, 1, 2)
    execution_model: SelectionConstraint = field(init=False, repr=False)
    arm: PlanarArm = field(init=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.constraint, SelectionConstraint):
            raise ValueError("plans run lam over the executing arm's task Jacobian, so the "
                             "constraint must be a SelectionConstraint")
        corr = tuple(int(i) for i in self.row_correspondence)
        if len(set(corr)) != len(corr):
            raise ValueError("row correspondence must be injective")
        object.__setattr__(self, "row_correspondence", corr)
        arm, model = self.demonstrator, self.constraint
        if self.imitator is None:
            if corr != (0, 1, 2):
                raise ValueError(f"a same-arm plan runs the demonstrator's own Jacobian rows, "
                                 f"so its row_correspondence must be (0, 1, 2), got {corr}")
            check_jacobian_model(model, arm)
        else:
            p = self.constraint.lam.shape[1]
            if len(corr) != p or not set(corr) <= {0, 1, 2}:
                raise ValueError(f"row_correspondence needs one imitator Jacobian row (0, 1 or "
                                 f"2: x, y, theta) per learned feature row ({p}), got {corr}")
            arm, rows = self.imitator, np.array(corr)
            model = SelectionConstraint(lam=model.lam,
                                        feature=lambda q: jacobian(arm, q)[..., rows, :])
        object.__setattr__(self, "execution_model", model)
        object.__setattr__(self, "arm", arm)

    @property
    def task_lam(self) -> np.ndarray:
        """lam over the executing arm's (x, y, theta) Jacobian rows, (k, 3)."""
        return self.constraint.lam @ np.eye(3)[list(self.row_correspondence)]


def _stepper(plan: RetargetPlan):
    """The replay step of a plan on lists of floats: (x, step) -> (u, A(x) u).

    simulator.float_step over the executing arm with the plan's task_lam,
    its task source's float rate and pi_robot; u = v + w.
    """
    step = float_step(plan.arm, plan.task_lam, plan.task_source.float_rate(plan), plan.pi_robot)

    def replay(x, t):
        A, _, _, v, w = step(x, t)
        u = [vi + wi for vi, wi in zip(v, w)]
        return u, [sum(map(mul, row, u)) for row in A]
    return replay


def _step(plan: RetargetPlan, x, step: int):
    """The replay step at one state x (n,): u and A(x) u as arrays."""
    return tuple(map(np.array, _stepper(plan)(np.asarray(x, dtype=float).tolist(), step)))


def reproduce_trajectory(plan: RetargetPlan, x0, dt: float, duration: float) -> Trajectory:
    """Euler rollout of the retargeted controller from x0, one A(x) per step.

    The step count follows the data rollouts' rule: round(duration / dt),
    and a duration shorter than half a step is an error.
    """
    steps = _step_count(dt, duration)
    x, step, out = np.asarray(x0, dtype=float).reshape(plan.arm.n).tolist(), _stepper(plan), []
    for t in range(steps):
        u, b = step(x, t)
        out.append((x, u, b))
        x = [xi + dt * ui for xi, ui in zip(x, u)]
    X, U, B = zip(*out)
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

    @property
    def corners(self) -> np.ndarray:
        return np.array([[self.x_min, self.y_min], [self.x_max, self.y_min],
                         [self.x_max, self.y_max], [self.x_min, self.y_max]])


def _point_distance(p, q, pt):
    """Distance from points pt to segments p-q, all (..., 2) and broadcast."""
    d = q - p
    denom = dot_last(d, d)
    num = dot_last(pt - p, d)
    t = np.clip(np.divide(num, denom, out=np.zeros_like(num), where=denom != 0.0), 0.0, 1.0)
    r = p + t[..., None] * d - pt
    return np.sqrt(dot_last(r, r))


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

    Endpoints of shape (..., 2) give numpy distances of shape (...), a numpy
    scalar for one segment. An endpoint inside, or a crossing of any edge
    (orientation test with 1e-15 tolerances), gives zero; otherwise the
    smallest endpoint-to-segment distance over the four edges.
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
    corner = _point_distance(p, q, a)  # b is a rolled, so its distances are these rolled
    apart = np.minimum(np.minimum(corner, np.roll(corner, -1, axis=-1)),
                       np.minimum(_point_distance(a, b, p), _point_distance(a, b, q)))
    return np.where(touch, 0.0, apart).min(axis=-1)


@dataclass
class ClearanceReport:
    clear: bool
    first_violation: tuple | None  # (step, link index)
    min_distance: float


def check_obstacle_clearance(traj: Trajectory, arm: PlanarArm,
                             region: ObstacleRegion) -> ClearanceReport:
    """Check every link segment at every timestep against a forbidden rectangle.

    A segment violates when it touches the region (distance 0); first_violation
    is the first violating (step, link) in row-major order, the earliest step
    and within it the link nearest the base.
    """
    pts = joint_positions(arm, traj.x)
    d = segment_rect_distance(pts[:, :-1], pts[:, 1:], region)
    hits = np.argwhere(d <= 0.0)
    first = (int(hits[0, 0]), int(hits[0, 1])) if len(hits) else None
    return ClearanceReport(clear=first is None, first_violation=first,
                           min_distance=float(d.min(initial=np.inf)))
