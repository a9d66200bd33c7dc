"""Planar revolute-chain kinematics.

joint_positions, end_pose (x, y, theta) and jacobian broadcast over stacks of states.
"""

from dataclasses import dataclass

import numpy as np


def wrap_angle(theta):
    """Wrap an angle (or array of angles) to the half-open interval (-pi, pi]."""
    wrapped = np.mod(theta, 2.0 * np.pi)
    # np.mod returns [0, 2pi); fold the upper half down, keeping +pi itself.
    return np.where(wrapped > np.pi, wrapped - 2.0 * np.pi, wrapped)


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
    if not np.isfinite(q).all():
        raise ValueError("joint angles must be finite")
    return q


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
    # Method calls, not np.cumsum: a single state is all per-call overhead.
    angles = q.cumsum(-1)
    lengths = np.asarray(arm.link_lengths)
    pts = np.zeros(q.shape[:-1] + (arm.n + 1, 2))
    pts[..., 1:, 0] = (lengths * np.cos(angles)).cumsum(-1)
    pts[..., 1:, 1] = (lengths * np.sin(angles)).cumsum(-1)
    return pts


def end_pose(arm: PlanarArm, q) -> np.ndarray:
    """End-effector pose (x, y, theta) of a planar chain; broadcasts like joint_positions.

    x = sum_i l_i cos(q_1 + ... + q_i), same with sin for y, and the
    orientation is the plain angle sum wrapped to (-pi, pi]. q of shape
    (..., n) gives (..., 3).
    """
    pts = joint_positions(arm, q)
    pose = np.empty(pts.shape[:-2] + (3,))
    pose[..., :2] = pts[..., -1, :]
    pose[..., 2] = wrap_angle(np.sum(q, axis=-1))
    return pose


def jacobian(arm: PlanarArm, q) -> np.ndarray:
    """Task Jacobian of (x, y, theta) with respect to the joint angles.

    Broadcasts over leading axes: a single state (n,) gives a (3, n)
    matrix, a stack of states (..., n) gives (..., 3, n) whose slices equal
    the single-state calls. The last axis must still hold exactly n finite
    angles. joint_positions and end_pose broadcast the same way. The
    orientation row is all ones: every revolute joint contributes its rate
    directly to the end-effector orientation.
    """
    q = _check_states(arm, q)
    angles = q.cumsum(-1)
    lengths = np.asarray(arm.link_lengths)
    sins = lengths * np.sin(angles)
    coss = lengths * np.cos(angles)
    J = np.ones(q.shape[:-1] + (3, arm.n))
    # dx/dq_j = -sum_{i>=j} l_i sin(angle_i); reverse cumsum keeps it O(n).
    J[..., 0, :] = -sins[..., ::-1].cumsum(-1)[..., ::-1]
    J[..., 1, :] = coss[..., ::-1].cumsum(-1)[..., ::-1]
    return J

