"""Planar revolute-chain kinematics.

joint_positions, end_pose (x, y, theta) and jacobian broadcast over stacks of states.
All three build on one pass of link terms, l_i cos and l_i sin of the
cumulative joint angles; pose_and_jacobian returns the pose and the
Jacobian of a stack from a single pass, bit for bit the two separate calls.
end_pose and jacobian take a scalar path for a single state, (n,) or a stack
of one (1, n), that gives the same bits as a row of the batched call.
"""

import math
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate
from operator import add

import numpy as np


def wrap_angle(theta):
    """Wrap an angle (or array of angles) to the half-open interval (-pi, pi].

    An angle with |theta| < pi comes back unchanged, -0.0 included: the
    modulo would move a negative one by up to half an ulp of 2 pi. A float
    (np.float64 included) gives a Python float; anything else goes through
    numpy and gives an ndarray.
    """
    if isinstance(theta, float):  # np.float64 included
        if abs(theta) < np.pi:
            return float(theta)
        # Python's % rounds as np.mod does, without numpy's per-call overhead.
        wrapped = float(theta) % (2.0 * np.pi)
        return wrapped - 2.0 * np.pi if wrapped > np.pi else wrapped
    out = np.array(theta, dtype=float)
    big = np.abs(out) >= np.pi  # NaN stays as it is, as the modulo would leave it
    if big.any():
        wrapped = np.mod(out[big], 2.0 * np.pi)
        # np.mod returns [0, 2pi); fold the upper half down, keeping +pi itself.
        out[big] = np.where(wrapped > np.pi, wrapped - 2.0 * np.pi, wrapped)
    return out


def dot_last(a, b):
    """Dot products over the last axis of two broadcast stacks of vectors."""
    # matmul of (1, m) by (m, 1) takes the same dot kernel as a single v @ w
    # or np.linalg.norm, so every product rounds like the per-vector loop.
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


@dataclass(frozen=True)
class PlanarArm:
    """Planar arm with revolute joints and rigid links of fixed length.

    Joint angles are relative: joint i rotates link i with respect to link
    i-1. Lengths are in whatever unit the experiment uses, the math does not
    care; all experiment configs in this repo state the unit explicitly.
    """

    link_lengths: tuple

    def __post_init__(self):
        lengths = tuple(float(l) for l in self.link_lengths)
        if len(lengths) == 0:
            raise ValueError("arm needs at least one link")
        if any(not np.isfinite(l) or l <= 0.0 for l in lengths):
            raise ValueError("link lengths must be positive and finite")
        object.__setattr__(self, "link_lengths", lengths)

    @property
    def n(self) -> int:
        return len(self.link_lengths)


def _check_states(arm: PlanarArm, q) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    if q.ndim == 0 or q.shape[-1] != arm.n:
        raise ValueError(f"expected {arm.n} joint angles, got shape {q.shape}")
    # One state: a loop over floats costs less than numpy's per-call overhead.
    finite = (all(map(math.isfinite, q.ravel().tolist())) if q.size == arm.n
              else np.isfinite(q).all())
    if not finite:
        raise ValueError("joint angles must be finite")
    return q


def _is_one_state(q: np.ndarray) -> bool:
    """True for one state (n,) or a stack of one state (1, n)."""
    return q.ndim == 1 or q.ndim == 2 and len(q) == 1


def _link_terms(arm: PlanarArm, q: np.ndarray):
    """l_i cos(q_1 + ... + q_i) and l_i sin(...) of one state (n,), as lists of floats.

    The one-state path of end_pose and jacobian: numpy's per-call overhead
    is most of the cost of a single state, so their sums run over these
    lists, one at a time in the order the batched cumsums take, and give the
    same bits.
    """
    angles = q.cumsum()
    return ([l * c for l, c in zip(arm.link_lengths, np.cos(angles).tolist())],
            [l * s for l, s in zip(arm.link_lengths, np.sin(angles).tolist())])


def _chain_terms(arm: PlanarArm, q: np.ndarray):
    """l_i cos(q_1 + ... + q_i) and l_i sin(...) of a checked stack of states (..., n).

    The one pass of link terms that the batched joint_positions, end_pose
    and jacobian share.
    """
    # Method calls, not np.cumsum: a single state is all per-call overhead.
    angles = q.cumsum(-1)
    lengths = np.asarray(arm.link_lengths)
    return lengths * np.cos(angles), lengths * np.sin(angles)


def joint_positions(arm: PlanarArm, q) -> np.ndarray:
    """Cartesian positions of the base and every joint/end point.

    Args:
        arm: the arm description.
        q: joint angles, shape (n,), or a stack of states (..., n).

    Returns:
        Array of shape (n + 1, 2), or (..., n + 1, 2) for a stack; row 0 is
        the base at the origin, row i is the far end of link i.
    """
    q = _check_states(arm, q)
    coss, sins = _chain_terms(arm, q)
    pts = np.zeros(q.shape[:-1] + (arm.n + 1, 2))
    pts[..., 1:, 0] = coss.cumsum(-1)
    pts[..., 1:, 1] = sins.cumsum(-1)
    return pts


def _stack_pose(q, coss, sins) -> np.ndarray:
    """end_pose of a checked stack from its link terms: the last joint_positions row."""
    pose = np.empty(q.shape[:-1] + (3,))
    pose[..., 0] = coss.cumsum(-1)[..., -1]
    pose[..., 1] = sins.cumsum(-1)[..., -1]
    pose[..., 2] = wrap_angle(np.sum(q, axis=-1))
    return pose


def _stack_jacobian(q, coss, sins) -> np.ndarray:
    """jacobian of a checked stack from its link terms."""
    # dx/dq_j = -sum_{i>=j} l_i sin(angle_i); a reverse cumsum keeps it O(n).
    J = np.ones(q.shape[:-1] + (3, q.shape[-1]))
    J[..., 0, :] = -sins[..., ::-1].cumsum(-1)[..., ::-1]
    J[..., 1, :] = coss[..., ::-1].cumsum(-1)[..., ::-1]
    return J


def end_pose(arm: PlanarArm, q) -> np.ndarray:
    """End-effector pose (x, y, theta) of a planar chain; broadcasts like joint_positions.

    x = sum_i l_i cos(q_1 + ... + q_i), same with sin for y, and the
    orientation is the plain angle sum wrapped to (-pi, pi]. q of shape
    (..., n) gives (..., 3).
    """
    q = _check_states(arm, q)
    if _is_one_state(q):
        one = q.reshape(arm.n)
        coss, sins = _link_terms(arm, one)
        # one.sum(), not a running sum: np.sum adds pairwise.
        pose = np.array([reduce(add, coss), reduce(add, sins), wrap_angle(one.sum())])
        return pose.reshape(q.shape[:-1] + (3,))
    return _stack_pose(q, *_chain_terms(arm, q))


def jacobian(arm: PlanarArm, q) -> np.ndarray:
    """Task Jacobian of (x, y, theta) with respect to the joint angles.

    Broadcasts over leading axes: a single state (n,) gives a (3, n)
    matrix, a stack of states (..., n) gives (..., 3, n) whose slices equal
    the single-state calls bit for bit. The last axis must still hold
    exactly n finite angles. joint_positions and end_pose broadcast the
    same way. The orientation row is all ones: every revolute joint
    contributes its rate directly to the end-effector orientation.
    """
    q = _check_states(arm, q)
    if _is_one_state(q):
        coss, sins = _link_terms(arm, q.reshape(arm.n))
        J = np.array([[-s for s in accumulate(sins[::-1])][::-1],
                      [*accumulate(coss[::-1])][::-1], [1.0] * arm.n])
        return J.reshape(q.shape[:-1] + (3, arm.n))
    return _stack_jacobian(q, *_chain_terms(arm, q))


def pose_and_jacobian(arm: PlanarArm, q) -> tuple:
    """end_pose and jacobian of the same states from one pass of link terms.

    A lockstep rollout needs both at every step. This takes the batched
    path for every input, which gives the bits of the two separate calls.
    """
    q = _check_states(arm, q)
    coss, sins = _chain_terms(arm, q)
    return _stack_pose(q, coss, sins), _stack_jacobian(q, coss, sins)
