"""Span and counter tracing for the benchmark, installed from outside the package.

A Tracer replaces selected projlearn functions with wrappers that time each
call as a span and bump counters. Every module namespace that holds the
same function object is patched, so calls made through another module's
call-time name lookup (``simulator.generate_arm_dataset`` calling
``simulate_trajectory``, a feature closure calling ``kinematics.jacobian``)
are seen as well. ``uninstall`` puts every original back.

Spans are aggregated in memory per name as (calls, busy seconds, self
seconds). Self time is a span's duration minus the durations of the traced
spans nested directly inside it; calls are single-threaded, so nested spans
never overlap.
"""

from collections import defaultdict
from time import perf_counter

from projlearn import (constraints, ingest, kinematics, learning, metrics, policies, retarget,
                       simulator)

NAMESPACES = (constraints, ingest, kinematics, learning, metrics, policies, retarget, simulator)


def _after_learn(tracer, out):
    tracer.counts["learning.restart_failures"] += out.diagnostics.get("failures", 0)
    tracer.counts["learning.score_sum"] += out.objective_value


def _after_rollout(tracer, out):
    tracer.counts["simulator.rollout_steps"] += out.n_samples


def _after_replay(tracer, out):
    tracer.counts["retarget.steps"] += out.n_samples


def _after_read(tracer, out):
    tracer.counts["ingest.frames"] += len(out.frames)


# (owner, attribute, span name, hook run on the return value)
SPANS = (
    (simulator, "generate_toy_dataset", "simulator.generate_toy_dataset", None),
    (simulator, "add_noise", "simulator.add_noise", None),
    (simulator, "generate_arm_dataset", "simulator.generate_arm_dataset", None),
    (simulator, "simulate_trajectory", "simulator.simulate_trajectory", _after_rollout),
    (learning, "learn_constraint", "learning.learn_constraint", _after_learn),
    (metrics, "eval_learned_constraint", "metrics.eval_learned_constraint", None),
    (metrics, "consistency_error", "metrics.consistency_error", None),
    (constraints, "null_projector", "constraints.projector", None),
    (constraints.SphericalConstraint, "projector_at", "constraints.projector", None),
    (kinematics, "jacobian", "kinematics.jacobian", None),
    (policies, "policy_values", "policies.policy_values", None),
    (retarget, "estimate_components", "retarget.estimate_components", None),
    (retarget, "estimate_task_policy", "retarget.estimate_task_policy", None),
    (retarget, "reproduce_trajectory", "retarget.reproduce_trajectory", _after_replay),
    (retarget, "check_obstacle_clearance", "retarget.clearance", None),
    (ingest, "read_keypoint_dir", "ingest.read_keypoint_dir", _after_read),
    (ingest, "recording_to_dataset", "ingest.recording_to_dataset", None),
)


class Tracer:
    def __init__(self):
        self.spans = {}  # name -> [calls, busy_s, self_s]
        self.counts = defaultdict(float)
        self._stack = []  # child seconds accumulated per open span
        self._patches = []

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        self._stack.append(0.0)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            child = self._stack.pop()
            rec = self.spans.setdefault(name, [0, 0.0, 0.0])
            rec[0] += 1
            rec[1] += dt
            rec[2] += dt - child
            if self._stack:
                self._stack[-1] += dt

    def _span_wrapper(self, fn, name, after):
        def wrapper(*args, **kwargs):
            out = self.call(name, fn, *args, **kwargs)
            if after is not None:
                after(self, out)
            return out
        return wrapper

    def _counting_objective(self, fn):
        """Wrap fn so calls of the objective passed as its first argument are counted."""
        def wrapper(objective, *args, **kwargs):
            def counted(p):
                self.counts["learning.objective_evals"] += 1
                return objective(p)
            return fn(counted, *args, **kwargs)
        return wrapper

    def _minimize_wrapper(self, fn):
        def wrapper(*args, **kwargs):
            self.counts["learning.nm_runs"] += 1
            res = fn(*args, **kwargs)
            self.counts["learning.nfev"] += res.nfev
            return res
        return wrapper

    def _patch(self, owner, attr, make):
        orig = getattr(owner, attr)
        wrapper = make(orig)
        holders = [owner] if isinstance(owner, type) else \
            [ns for ns in NAMESPACES if getattr(ns, attr, None) is orig]
        for ns in holders:
            self._patches.append((ns, attr, orig))
            setattr(ns, attr, wrapper)

    def install(self):
        for owner, attr, name, after in SPANS:
            self._patch(owner, attr, lambda fn, n=name, a=after: self._span_wrapper(fn, n, a))
        # learn_constraint hands its objective to the optimizer and to the
        # screened sampler, which probes it before and between local searches.
        self._patch(learning, "optimize", self._counting_objective)
        self._patch(learning, "_screened_sampler", self._counting_objective)
        self._patch(learning, "minimize", self._minimize_wrapper)

    def uninstall(self):
        while self._patches:
            ns, attr, orig = self._patches.pop()
            setattr(ns, attr, orig)

    def snapshot(self) -> dict:
        """Counters and span call counts at this moment."""
        snap = dict(self.counts)
        for name, (calls, _, _) in self.spans.items():
            snap[f"{name}.calls"] = calls
        return snap

    def table(self) -> dict:
        return {name: {"calls": calls, "busy_s": busy, "self_s": own}
                for name, (calls, busy, own) in sorted(self.spans.items())}


# Per-layer metric names and units, in the order they are printed.
PER_LAYER = {
    "learning.learn_constraint.s": "s",
    "learning.learn_constraint.self_s": "s",
    "learning.objective_evals": "count",
    "learning.eval_us": "us",
    "learning.eval_self_us": "us",
    "learning.nm_runs": "count",
    "learning.nfev": "count",
    "learning.restart_failures": "count",
    "learning.score_final": "score",
    "simulator.generate_arm_dataset.s": "s",
    "simulator.generate_arm_dataset.self_s": "s",
    "simulator.rollout_steps": "count",
    "simulator.step_us": "us",
    "simulator.step_self_us": "us",
    "simulator.generate_toy_dataset.s": "s",
    "simulator.generate_toy_dataset.self_s": "s",
    "simulator.add_noise.s": "s",
    "simulator.add_noise.self_s": "s",
    "metrics.eval_learned_constraint.s": "s",
    "metrics.eval_learned_constraint.self_s": "s",
    "constraints.projector_calls": "count",
    "constraints.projector_us": "us",
    "constraints.projector_self_us": "us",
    "kinematics.jacobian_calls": "count",
    "kinematics.jacobian_us": "us",
    "kinematics.jacobian_self_us": "us",
    "policies.policy_values.s": "s",
    "policies.policy_values.self_s": "s",
    "retarget.reproduce_trajectory.s": "s",
    "retarget.reproduce_trajectory.self_s": "s",
    "retarget.step_us": "us",
    "retarget.step_self_us": "us",
    "retarget.clearance.s": "s",
    "retarget.clearance.self_s": "s",
    "retarget.estimate_components.s": "s",
    "retarget.estimate_components.self_s": "s",
    "retarget.estimate_task_policy.s": "s",
    "retarget.estimate_task_policy.self_s": "s",
    "ingest.read_keypoint_dir.s": "s",
    "ingest.read_keypoint_dir.self_s": "s",
    "ingest.recording_to_dataset.s": "s",
    "ingest.recording_to_dataset.self_s": "s",
    "ingest.frames": "count",
    "trace.overhead_s": "s",
    "trace.overhead_pct": "%",
}

# Busy and self time per call of a span, in seconds.
_PER_CALL_S = ("learning.learn_constraint", "simulator.generate_arm_dataset",
               "simulator.generate_toy_dataset", "simulator.add_noise",
               "metrics.eval_learned_constraint", "policies.policy_values",
               "retarget.reproduce_trajectory", "retarget.clearance",
               "retarget.estimate_components", "retarget.estimate_task_policy",
               "ingest.read_keypoint_dir", "ingest.recording_to_dataset")


def _ratio(num, den, scale=1.0) -> float:
    return scale * num / den if den else 0.0


def per_layer_metrics(tracer: Tracer, setup: dict, window: dict, window_ops: int) -> dict:
    """Layer metrics of a traced run from snapshots after set-up and after the window.

    Counts come from set-up plus the fixed window of first ops, so they
    repeat exactly between runs of one seed: learning counts per
    learn_constraint call (set-up learns included), other counts per window
    op (set-up excluded). Times are per call over set-up and every traced op.
    """
    spans, counts = tracer.spans, tracer.counts
    zero = (0, 0.0, 0.0)

    def per_op(key):
        return _ratio(window.get(key, 0) - setup.get(key, 0), window_ops)

    out = {}
    for name in _PER_CALL_S:
        calls, busy, own = spans.get(name, zero)
        out[f"{name}.s"] = _ratio(busy, calls)
        out[f"{name}.self_s"] = _ratio(own, calls)

    learn_calls, learn_busy, learn_self = spans.get("learning.learn_constraint", zero)
    w_learn = window.get("learning.learn_constraint.calls", 0)
    for key in ("objective_evals", "nm_runs", "nfev", "restart_failures"):
        out[f"learning.{key}"] = _ratio(window.get(f"learning.{key}", 0), w_learn)
    out["learning.score_final"] = _ratio(window.get("learning.score_sum", 0.0), w_learn)
    evals = counts.get("learning.objective_evals", 0)
    out["learning.eval_us"] = _ratio(learn_busy, evals, 1e6)
    out["learning.eval_self_us"] = _ratio(learn_self, evals, 1e6)

    _, roll_busy, roll_self = spans.get("simulator.simulate_trajectory", zero)
    steps = counts.get("simulator.rollout_steps", 0)
    out["simulator.rollout_steps"] = per_op("simulator.rollout_steps")
    out["simulator.step_us"] = _ratio(roll_busy, steps, 1e6)
    out["simulator.step_self_us"] = _ratio(roll_self, steps, 1e6)

    _, rep_busy, rep_self = spans.get("retarget.reproduce_trajectory", zero)
    rep_steps = counts.get("retarget.steps", 0)
    out["retarget.step_us"] = _ratio(rep_busy, rep_steps, 1e6)
    out["retarget.step_self_us"] = _ratio(rep_self, rep_steps, 1e6)

    for layer in ("constraints.projector", "kinematics.jacobian"):
        calls, busy, own = spans.get(layer, zero)
        out[f"{layer}_calls"] = per_op(f"{layer}.calls")
        out[f"{layer}_us"] = _ratio(busy, calls, 1e6)
        out[f"{layer}_self_us"] = _ratio(own, calls, 1e6)
    out["ingest.frames"] = per_op("ingest.frames")
    return out
