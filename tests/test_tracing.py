"""The benchmark's tracer (perfbench/tracing.py) against the current package.

The tracer patches projlearn functions by name from outside the package, so
renaming or removing one of them breaks only traced benchmark runs. This
installs it, runs one learn of each kind and the tests' reference simplex
search under it, and uninstalls it. No command reaches that search any more;
the tracer still patches its names.
"""

import importlib.util
from pathlib import Path

import numpy as np

from projlearn import learning
from projlearn.constraints import build_constraint_rows, diagonal_selection, spherical_param_count
from projlearn.kinematics import PlanarArm, jacobian
from projlearn.policies import LimitCyclePolicy, PointAttractor
from projlearn.simulator import NoiseSpec, add_noise, generate_arm_dataset, generate_toy_dataset
from test_learning import restart_search

REPO = Path(__file__).resolve().parent.parent


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  REPO / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    tracing = load_tracing()
    patched = [(owner, attr) for owner, attr, _, _ in tracing.SPANS]
    patched += [(learning, attr) for attr in ("optimize", "_screened_sampler", "minimize")]
    originals = {(owner, attr): getattr(owner, attr) for owner, attr in patched}

    tracer = tracing.Tracer()
    tracer.install()
    try:
        for owner, attr in patched:
            assert getattr(owner, attr) is not originals[(owner, attr)], attr
        noise = NoiseSpec(epsilon=0.1, target="actions")
        toy = add_noise(generate_toy_dataset(60, seed=1, null_policy=LimitCyclePolicy()),
                        noise, 2)
        learning.learn_constraint(toy, k=1)
        arm = PlanarArm((0.1, 0.1, 0.1))
        ds = generate_arm_dataset(arm, diagonal_selection((1, 1, 0)),
                                  PointAttractor(target=np.deg2rad([10.0, -10.0, 10.0])),
                                  n_trajectories=2, points_per_traj=20, dt=0.02, seed=3)
        learning.learn_constraint(add_noise(ds, noise, 4), k=2, representation="lambda",
                                  feature_fn=lambda q: jacobian(arm, q))
        X, PI = ds.stack("x"), ds.stack("pi")
        D, Phi = ds.stack("u") - PI, jacobian(arm, X)
        score = lambda theta: learning._l1_score(PI, D, build_constraint_rows(theta, 2, 3) @ Phi)
        restart_search(score, spherical_param_count(2, 3),
                       learning.OptimizerConfig(restarts=2, max_iters=50))
    finally:
        tracer.uninstall()

    for owner, attr in patched:
        assert getattr(owner, attr) is originals[(owner, attr)], attr
    assert tracer.spans["learning.learn_constraint"][0] == 2
    # the reference search runs Nelder-Mead, seen through optimize,
    # _screened_sampler and minimize
    assert tracer.counts["learning.nm_runs"] >= 1
    assert tracer.counts["learning.objective_evals"] > 1
