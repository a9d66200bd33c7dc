"""Secondary and task-space policies used by the experiments.

All policies are pure functions of the state that broadcast over leading
axes: a state (n,) gives one rate, a stack (S, n) gives (S, dim), so
policy_values is a single call. The secondary policies mirror the ones used
to generate the benchmark data: a linear map, a planar limit cycle, a
sinusoidal field and joint-space point attractors. Task policies
return rates in the full task space (x, y, theta for the arms); the
constraint picks out the coordinates it actually governs.
"""

from dataclasses import dataclass

import numpy as np

from .kinematics import PlanarArm, end_pose, wrap_angle


@dataclass(frozen=True, eq=False)
class LinearPolicy:
    """u = -L (x^T, 1)^T, an affine contraction written as one matrix."""

    L: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "L", np.atleast_2d(np.asarray(self.L, dtype=float)))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return -(x @ self.L[:, :-1].T + self.L[:, -1])


# The toy limit cycle's squared radius and angular rate.
LIMIT_CYCLE_RHO0 = 0.75
LIMIT_CYCLE_OMEGA = 1.0


@dataclass(frozen=True)
class LimitCyclePolicy:
    """Polar-coordinate limit cycle rho' = rho (rho0 - rho^2), phi' = omega."""

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        rho = np.hypot(x[..., 0], x[..., 1])
        phi = np.arctan2(x[..., 1], x[..., 0])
        rho_dot = rho * (LIMIT_CYCLE_RHO0 - rho * rho)
        c, s = np.cos(phi), np.sin(phi)
        # rho = 0 gives phi = 0 and so an exact zero, the fixed point.
        return np.stack([rho_dot * c - rho * LIMIT_CYCLE_OMEGA * s,
                         rho_dot * s + rho * LIMIT_CYCLE_OMEGA * c], axis=-1)


@dataclass(frozen=True)
class SinusoidalPolicy:
    """u = (cos z1 cos z2, -sin z1 sin z2) with z1 = pi x1, z2 = pi (x2 + 1/2)."""

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        z1 = np.pi * x[..., 0]
        z2 = np.pi * (x[..., 1] + 0.5)
        return np.stack([np.cos(z1) * np.cos(z2), -np.sin(z1) * np.sin(z2)], axis=-1)


@dataclass(frozen=True, eq=False)
class PointAttractor:
    """Joint-space attractor u = beta (x* - x) with scalar gain beta."""

    target: np.ndarray
    beta: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "target", np.asarray(self.target, dtype=float))

    def __call__(self, x):
        return self.beta * (self.target - np.asarray(x, dtype=float))


@dataclass(frozen=True, eq=False)
class TaskPointAttractor:
    """Full task-space attractor toward a target pose.

    Returns gain * (r* - r) over (x, y, theta), with the angular difference
    wrapped so the orientation error stays in (-pi, pi]. The constraint
    model selects the coordinates it constrains from this 3-vector.

    A single target (3,) serves one state (n,). A stack of targets (m, 3)
    serves a stack of states (m, n), one target per state, and returns
    (m, 3); this is how lockstep rollouts drive many trajectories at once.
    """

    arm: PlanarArm
    target: np.ndarray
    gain: float = 1.0

    def __post_init__(self):
        target = np.asarray(self.target, dtype=float)
        if target.ndim not in (1, 2) or target.shape[-1] != 3:
            raise ValueError("target must be (x, y, theta) or a stack of them")
        object.__setattr__(self, "target", target)

    def __call__(self, q):
        err = self.target - end_pose(self.arm, q)
        err[..., 2] = wrap_angle(err[..., 2])
        return self.gain * err


def policy_values(spec, X) -> np.ndarray:
    """Evaluate a policy at every row of X, returning an (S, dim) array.

    Every policy in this module broadcasts over leading axes, so this is
    one call on the whole stack.
    """
    X = np.asarray(X, dtype=float)
    out = np.asarray(spec(X), dtype=float)
    if out.ndim != 2 or out.shape[0] != X.shape[0]:
        raise ValueError(f"policy returned shape {out.shape} for states of shape {X.shape}; "
                         "it must broadcast over a stack of states to (S, dim)")
    return out


# The 2D toy priors by name; toy configs name a prior and set no parameters.
TOY_POLICIES = {
    "linear": lambda: LinearPolicy(L=np.array([[2.0, 4.0, 0.0], [1.0, 3.0, -1.0]])),
    "limit_cycle": LimitCyclePolicy,
    "sinusoidal": SinusoidalPolicy,
}


def policy_from_config(cfg: dict):
    """Build a policy from its JSON form: a toy prior by name, or a point attractor."""
    kind = cfg.get("type")
    if kind in TOY_POLICIES:
        return TOY_POLICIES[kind]()
    if kind == "point_attractor":
        return PointAttractor(target=np.deg2rad(np.asarray(cfg["target_deg"], dtype=float)),
                              beta=float(cfg.get("beta", 1.0)))
    raise ValueError(f"unknown policy type: {kind!r}")
