"""Regenerate the bundled keypoint recordings under configs/data/keypoints_demo.

Three short reaches of a human-proportioned arm moving under an x-y task
constraint with an ergonomic point-attractor null-space policy, rendered to
pose-estimator JSON. Deterministic; run from the repository root:

    python3 scripts/make_demo_keypoints.py
"""

from pathlib import Path

import numpy as np

from projlearn.constraints import SelectionConstraint, diagonal_selection
from projlearn.ingest import (arm_angles_from_human, synthesize_keypoint_frames,
                              write_keypoint_files)
from projlearn.kinematics import PlanarArm, jacobian
from projlearn.policies import PointAttractor, TaskPointAttractor
from projlearn.simulator import simulate_trajectory

ARM = PlanarArm((0.3, 0.25, 0.1))
FPS = 30.0
FRAMES = 60

REACHES = [
    {"start_deg_human": [8.67, 94.18, -2.32], "target": [-0.09, 0.04, 0.0]},
    {"start_deg_human": [24.0, 80.0, 6.0], "target": [-0.12, 0.02, 0.0]},
    {"start_deg_human": [-12.0, 70.0, -8.0], "target": [-0.05, 0.08, 0.0]},
]


def reach_frames(reach: dict) -> list:
    """Pose-estimator frames of one entry of REACHES, as main() writes them."""
    model = SelectionConstraint(lam=diagonal_selection((1, 1, 0)),
                                feature=lambda q: jacobian(ARM, q))
    pi = PointAttractor(target=arm_angles_from_human(np.deg2rad([-90.0, 90.0, 0.0])))
    q0 = arm_angles_from_human(np.deg2rad(reach["start_deg_human"]))
    task = TaskPointAttractor(arm=ARM, target=np.asarray(reach["target"]), gain=1.0)
    traj = simulate_trajectory(ARM, model, task, pi, q0, dt=1.0 / FPS, duration=FRAMES / FPS)
    return synthesize_keypoint_frames(ARM, traj.x)


def main():
    out_root = Path(__file__).resolve().parent.parent / "configs" / "data" / "keypoints_demo"
    for i, reach in enumerate(REACHES):
        paths = write_keypoint_files(reach_frames(reach), out_root / f"traj_{i}")
        print(f"traj_{i}: {len(paths)} frames -> {paths[0].parent}")


if __name__ == "__main__":
    main()
