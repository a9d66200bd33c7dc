import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from projlearn.constraints import diagonal_selection, null_projector
from projlearn.ingest import (ELBOW, HAND, HAND_KEY, HAND_MIDDLE_KNUCKLE, SHOULDER, SIDE_POINTS,
                              WRIST, HumanArmRecording, arm_angles_from_human,
                              estimate_link_lengths, finite_difference_velocities,
                              keypoints_to_joint_angles, parse_keypoint_json, read_keypoint_dir,
                              recording_to_dataset, synthesize_keypoint_frames,
                              write_keypoint_files)
from projlearn.kinematics import PlanarArm, jacobian
from projlearn.learning import learn_constraint
from projlearn.policies import PointAttractor, TaskPointAttractor
from projlearn.simulator import SelectionConstraint, simulate_trajectory

REPO = Path(__file__).resolve().parent.parent
BUNDLED = REPO / "configs" / "data" / "keypoints_demo"
HUMAN_ARM = PlanarArm((0.3, 0.25, 0.1))
GAP = np.full((5, 3), np.nan)


def frame(shoulder, elbow, wrist, hip, hand):
    """One frame's keypoint rows (5, 3), every point at confidence 1."""
    return np.array([(p[0], p[1], 1.0) for p in (shoulder, elbow, wrist, hip, hand)], dtype=float)


def recording(frames, fps=30.0):
    return HumanArmRecording(frames=np.array(frames, dtype=float), fps=fps)


def loop_reference(frame_objs, floor, scale=300.0, side="right"):
    """Angles, kept indices and link lengths straight from the JSON frames, one
    frame at a time: the slow reference for the array path.

    A point counts when its triple is present, its confidence is not 0 and
    reaches the floor.
    """
    names = ("shoulder", "elbow", "wrist", "hip", "hand")
    segments = (("shoulder", "elbow"), ("elbow", "wrist"), ("wrist", "hand"))

    def confident_points(obj):
        if not obj.get("people"):
            return {}
        person = obj["people"][0]
        flats = [person.get("pose_keypoints_2d", [])] * 4 + [person.get(HAND_KEY[side]) or []]
        out = {}
        for name, flat, index in zip(names, flats, SIDE_POINTS[side] + (HAND_MIDDLE_KNUCKLE,)):
            triple = flat[3 * index:3 * index + 3]
            if len(triple) == 3 and triple[2] != 0 and triple[2] >= floor:
                out[name] = np.array(triple[:2], dtype=float)
        return out

    def image_vec(p_from, p_to):
        d = p_to - p_from
        return np.array([d[0], -d[1]])

    def signed_angle(v_from, v_to):
        cross = v_from[0] * v_to[1] - v_from[1] * v_to[0]
        return float(np.arctan2(cross, float(v_from @ v_to)))

    angles, kept = [], []
    sums, counts = np.zeros(3), np.zeros(3, dtype=int)
    for i, obj in enumerate(frame_objs):
        pts = confident_points(obj)
        for j, (a, b) in enumerate(segments):
            if a in pts and b in pts:
                sums[j] += float(np.linalg.norm(pts[a] - pts[b]))
                counts[j] += 1
        if len(pts) < 5:
            continue
        down = image_vec(pts["shoulder"], pts["hip"])
        upper = image_vec(pts["shoulder"], pts["elbow"])
        fore = image_vec(pts["elbow"], pts["wrist"])
        hand = image_vec(pts["wrist"], pts["hand"])
        angles.append([signed_angle(upper, down), signed_angle(upper, fore),
                       signed_angle(fore, hand)])
        kept.append(i)
    return np.array(angles), kept, sums / counts / scale


class TestAngleExtraction:
    def test_hanging_arm_is_all_zero(self):
        # shoulder at origin, everything straight down in image space
        f = frame((100, 100), (100, 150), (100, 200), (100, 250), hand=(100, 230))
        angles, kept = keypoints_to_joint_angles(recording([f, f]))
        assert np.allclose(angles, 0.0, atol=1e-12)
        assert list(kept) == [0, 1]

    def test_forward_horizontal_arm(self):
        # arm pointing at image +x while the torso hangs down
        f = frame((100, 100), (150, 100), (200, 100), (100, 250), hand=(230, 100))
        angles, _ = keypoints_to_joint_angles(recording([f, f]))
        assert angles[0, 0] == pytest.approx(-np.pi / 2)
        assert angles[0, 1] == pytest.approx(0.0, abs=1e-12)
        assert angles[0, 2] == pytest.approx(0.0, abs=1e-12)

    def test_bent_elbow_sign(self):
        # forearm folded upward in image space: positive elbow flexion
        f = frame((100, 100), (100, 150), (150, 150), (100, 250), hand=(170, 150))
        angles, _ = keypoints_to_joint_angles(recording([f, f]))
        assert angles[0, 1] == pytest.approx(np.pi / 2)

    def test_recording_without_a_hand_raises(self):
        # no length or angle is invented for a hand the estimator never saw
        f = frame((100, 100), (100, 150), (100, 200), (100, 250), hand=(0, 0))
        f[HAND] = np.nan
        with pytest.raises(ValueError, match="hand"):
            keypoints_to_joint_angles(recording([f, f]))
        with pytest.raises(ValueError, match="hand"):
            estimate_link_lengths(recording([f, f]))

    def test_low_confidence_frames_dropped(self):
        good = frame((100, 100), (100, 150), (100, 200), (100, 250), hand=(100, 230))
        shaky = good.copy()
        shaky[SHOULDER, 2] = 0.1
        angles, kept = keypoints_to_joint_angles(recording([good, shaky, good]))
        assert list(kept) == [0, 2]
        assert angles.shape == (2, 3)

    def test_too_few_confident_frames(self):
        f = frame((100, 100), (100, 150), (100, 200), (100, 250), hand=(100, 230))
        with pytest.raises(ValueError):
            keypoints_to_joint_angles(recording([f, GAP]))

    def test_rotating_the_whole_image_changes_nothing(self):
        # angles are relative quantities; a camera roll cancels out
        base = [(100, 100), (140, 130), (190, 120), (105, 250), (220, 110)]
        c, s = np.cos(0.6), np.sin(0.6)

        def rot(p):
            dx, dy = p[0] - 100, p[1] - 100
            return (100 + c * dx - s * dy, 100 + s * dx + c * dy)

        plain = frame(*base[:4], hand=base[4])
        rolled = frame(*[rot(p) for p in base[:4]], hand=rot(base[4]))
        a, _ = keypoints_to_joint_angles(recording([plain, plain]))
        b, _ = keypoints_to_joint_angles(recording([rolled, rolled]))
        assert np.max(np.abs(a - b)) < 1e-9


class TestArrayPathAgainstLoop:
    """The vectorised angles and lengths equal the per-frame loop bit for bit."""

    @staticmethod
    def assert_matches_loop(rec, frame_objs, floor):
        ref_angles, ref_kept, ref_lengths = loop_reference(frame_objs, floor)
        angles, kept = keypoints_to_joint_angles(rec, confidence_floor=floor)
        assert list(kept) == ref_kept
        assert np.array_equal(angles, ref_angles)
        assert np.array_equal(estimate_link_lengths(rec, confidence_floor=floor), ref_lengths)

    @pytest.mark.parametrize("traj", [0, 1, 2])
    def test_bundled_recordings(self, traj):
        path = BUNDLED / f"traj_{traj}"
        frame_objs = [json.loads(f.read_text()) for f in sorted(path.glob("*_keypoints.json"))]
        self.assert_matches_loop(read_keypoint_dir(path), frame_objs, floor=0.3)

    @pytest.mark.parametrize("floor", [0.0, 0.3, 0.6])
    def test_dropped_and_low_confidence_frames(self, floor):
        rng = np.random.default_rng(3)
        Q = np.column_stack([rng.uniform(-2.5, -0.5, 30), rng.uniform(0.2, 2.0, 30),
                             rng.uniform(-1.0, 1.0, 30)])
        payload = synthesize_keypoint_frames(HUMAN_ARM, Q)
        for obj in payload:
            person = obj["people"][0]
            for flat in (person["pose_keypoints_2d"], person["hand_right_keypoints_2d"]):
                # about one point in six is shaky or undetected
                n = len(flat) // 3
                flat[2::3] = np.where(rng.random(n) < 1 / 6, rng.choice([0.0, 0.2, 0.5], n),
                                      rng.choice([0.7, 0.9, 1.0], n)).tolist()
        payload[4] = {"people": []}
        del payload[9]["people"][0]["hand_right_keypoints_2d"]
        del payload[13]["people"][0]["pose_keypoints_2d"][15:]  # ends before the elbow
        with pytest.warns(UserWarning):
            rec = recording(parse_keypoint_json(payload))
        self.assert_matches_loop(rec, payload, floor)


class TestConventionMaps:
    def test_known_pair(self):
        # hanging human arm points down the chain frame
        assert arm_angles_from_human(np.zeros(3))[0] == pytest.approx(-np.pi / 2)
        assert np.allclose(arm_angles_from_human(np.zeros(3))[1:], 0.0)

    def test_map_is_its_own_inverse(self):
        # one function converts both ways; a single state and a stack alike
        rng = np.random.default_rng(0)
        Q = rng.uniform(-np.pi, np.pi, size=(10, 3))
        assert np.allclose(arm_angles_from_human(arm_angles_from_human(Q)), Q)
        assert np.allclose(arm_angles_from_human(arm_angles_from_human(Q[0])), Q[0])


class TestParser:
    def test_single_object_and_list_forms(self):
        frames = synthesize_keypoint_frames(HUMAN_ARM, np.deg2rad([[10.0, 20.0, 5.0]]))
        one = parse_keypoint_json(json.dumps(frames[0]))
        many = parse_keypoint_json(json.dumps(frames))
        assert one.shape == many.shape == (1, 5, 3)
        assert np.array_equal(one, many)

    def test_empty_people_becomes_gap_with_warning(self):
        payload = json.dumps([{"people": []}, {"people": []}])
        with pytest.warns(UserWarning):
            frames = parse_keypoint_json(payload)
        assert frames.shape == (2, 5, 3) and np.isnan(frames).all()

    def test_absent_points_are_nan(self):
        # a missing hand block, a body array cut short before the wrist and a
        # zero-confidence elbow are all absent, not points at pixel (0, 0)
        payload = synthesize_keypoint_frames(HUMAN_ARM, np.zeros((1, 3)))[0]
        person = payload["people"][0]
        del person["hand_right_keypoints_2d"]
        person["pose_keypoints_2d"][3 * SIDE_POINTS["right"][ELBOW] + 2] = 0.0
        del person["pose_keypoints_2d"][3 * SIDE_POINTS["right"][WRIST]:]
        (parsed,) = parse_keypoint_json(payload)
        assert np.isnan(parsed[[ELBOW, WRIST, HAND]]).all()
        assert not np.isnan(parsed[SHOULDER]).any()

    def test_side_selection(self):
        q = np.deg2rad([[30.0, 40.0, 10.0]])
        left = synthesize_keypoint_frames(HUMAN_ARM, q, side="left")
        parsed = parse_keypoint_json(json.dumps(left[0]), side="left")
        assert parsed[0, SHOULDER, 2] == 1.0
        # the right-side slots of a left-side file are empty
        parsed_wrong = parse_keypoint_json(json.dumps(left[0]), side="right")
        assert np.isnan(parsed_wrong).all()

    def test_bad_side_rejected(self):
        with pytest.raises(ValueError):
            parse_keypoint_json("{}", side="front")


class TestSynthesisRoundTrip:
    def test_angles_survive_the_image_and_back(self):
        rng = np.random.default_rng(1)
        Q_arm = np.column_stack([
            rng.uniform(-2.5, -0.5, 25),
            rng.uniform(0.2, 2.0, 25),
            rng.uniform(-1.0, 1.0, 25),
        ])
        frames = synthesize_keypoint_frames(HUMAN_ARM, Q_arm)
        rec = recording(parse_keypoint_json(frames))
        q_human, _ = keypoints_to_joint_angles(rec)
        back = arm_angles_from_human(q_human)
        assert np.max(np.abs(back - Q_arm)) < 1e-6

    def test_link_lengths_recovered(self):
        Q_arm = np.tile(np.deg2rad([-60.0, 50.0, -10.0]), (5, 1))
        frames = synthesize_keypoint_frames(HUMAN_ARM, Q_arm, scale=300.0)
        rec = recording(parse_keypoint_json(frames))
        lengths = estimate_link_lengths(rec, scale=300.0)
        assert np.max(np.abs(lengths - np.array(HUMAN_ARM.link_lengths))) < 1e-9

    def test_scale_one_returns_pixels(self):
        Q_arm = np.tile(np.deg2rad([-60.0, 50.0, -10.0]), (3, 1))
        frames = synthesize_keypoint_frames(HUMAN_ARM, Q_arm, scale=300.0)
        rec = recording(parse_keypoint_json(frames))
        px = estimate_link_lengths(rec, scale=1.0)
        assert np.max(np.abs(px - 300.0 * np.array(HUMAN_ARM.link_lengths))) < 1e-6

    def test_bad_scale(self):
        with pytest.raises(ValueError):
            estimate_link_lengths(recording([GAP, GAP]), scale=0.0)


class TestVelocities:
    def test_loop_oracle(self):
        rng = np.random.default_rng(2)
        Q = rng.normal(size=(12, 3))
        U = finite_difference_velocities(Q, fps=25.0)
        assert U.shape == (11, 3)
        for t in range(11):
            assert np.allclose(U[t], (Q[t + 1] - Q[t]) * 25.0)

    def test_linear_motion_is_exact(self):
        t = np.arange(20)[:, None]
        slope = np.array([0.02, -0.01, 0.005])
        Q = t * slope
        U = finite_difference_velocities(Q, fps=30.0)
        assert np.max(np.abs(U - slope * 30.0)) < 1e-12

    def test_input_validation(self):
        with pytest.raises(ValueError):
            finite_difference_velocities(np.zeros((1, 3)), fps=30.0)
        with pytest.raises(ValueError):
            finite_difference_velocities(np.zeros((3, 3)), fps=0.0)


class TestFileReading:
    def make_files(self, tmp_path, n_frames=6):
        Q_arm = np.linspace([-1.6, 0.3, 0.1], [-1.2, 0.9, -0.2], n_frames)
        frames = synthesize_keypoint_frames(HUMAN_ARM, Q_arm)
        write_keypoint_files(frames, tmp_path / "rec")
        return Q_arm, frames

    def test_directory_of_numbered_files(self, tmp_path):
        Q_arm, _ = self.make_files(tmp_path)
        rec = read_keypoint_dir(tmp_path / "rec")
        assert len(rec.frames) == 6
        q_human, _ = keypoints_to_joint_angles(rec)
        assert np.max(np.abs(arm_angles_from_human(q_human) - Q_arm)) < 1e-6

    def test_single_concatenated_file(self, tmp_path):
        Q_arm, frames = self.make_files(tmp_path)
        single = tmp_path / "all.json"
        single.write_text(json.dumps(frames))
        rec = read_keypoint_dir(single)
        assert len(rec.frames) == 6
        q_human, _ = keypoints_to_joint_angles(rec)
        assert np.max(np.abs(arm_angles_from_human(q_human) - Q_arm)) < 1e-6

    def test_missing_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_keypoint_dir(tmp_path / "nothing")


class TestPipeline:
    def constrained_human_motion(self, seed=0, points=60):
        lam = diagonal_selection((1, 1, 0))
        model = SelectionConstraint(lam=lam, feature=lambda q: jacobian(HUMAN_ARM, q))
        task = TaskPointAttractor(arm=HUMAN_ARM,
                                  target=np.array([-0.09, 0.04, 0.0]), gain=1.0)
        pi = PointAttractor(target=arm_angles_from_human(np.deg2rad([-90.0, 90.0, 0.0])))
        q0 = arm_angles_from_human(np.deg2rad([8.67, 94.18, -2.32]))
        return simulate_trajectory(HUMAN_ARM, model, task, pi, q0,
                                   dt=1.0 / 30.0, duration=points / 30.0)

    def test_dataset_matches_simulated_motion(self):
        traj = self.constrained_human_motion()
        frames = synthesize_keypoint_frames(HUMAN_ARM, traj.x)
        rec = recording(parse_keypoint_json(frames))
        ds, arm = recording_to_dataset(rec)
        # forward differences of an explicit-Euler rollout are the actions
        assert np.max(np.abs(ds.stack("x") - traj.x[:-1])) < 1e-6
        assert np.max(np.abs(ds.stack("u") - traj.u[:-1])) < 1e-4
        assert np.max(np.abs(np.array(arm.link_lengths)
                             - np.array(HUMAN_ARM.link_lengths))) < 1e-9

    def test_dropped_frame_splits_the_recording(self):
        # the elbow opens by 1/6 rad per frame at 10 fps, 1.67 rad/s throughout;
        # differencing across the empty frame 5 would report 3.33
        t = np.arange(10)
        Q = np.column_stack([np.full(10, -1.2), 0.4 + t / 6.0, np.full(10, 0.1)])
        payload = synthesize_keypoint_frames(HUMAN_ARM, Q)
        payload[5] = {"people": []}
        with pytest.warns(UserWarning):
            frames = parse_keypoint_json(json.dumps(payload))
        ds, _ = recording_to_dataset(recording(frames, fps=10.0))
        assert [traj.n_samples for traj in ds.trajectories] == [4, 3]
        assert np.max(np.abs(ds.stack("u")[:, 1] - 10.0 / 6.0)) < 1e-9
        assert np.max(np.abs(ds.stack("u")[:, [0, 2]])) < 1e-9
        assert np.max(np.abs(ds.stack("x") - Q[[0, 1, 2, 3, 6, 7, 8]])) < 1e-9

    def test_frame_without_hand_splits_a_recording_with_hands(self):
        # the wrist holds 0.3 rad; reading frame 5's missing hand as a zero
        # wrist would report wrist rates of -9 and +9 rad/s around it
        t = np.arange(10)
        Q = np.column_stack([np.full(10, -1.2), 0.4 + t / 6.0, np.full(10, 0.3)])
        payload = synthesize_keypoint_frames(HUMAN_ARM, Q)
        del payload[5]["people"][0]["hand_right_keypoints_2d"]
        frames = parse_keypoint_json(json.dumps(payload))
        _, kept = keypoints_to_joint_angles(recording(frames))
        assert list(kept) == [0, 1, 2, 3, 4, 6, 7, 8, 9]
        ds, _ = recording_to_dataset(recording(frames, fps=10.0))
        assert [traj.n_samples for traj in ds.trajectories] == [4, 3]
        assert np.max(np.abs(ds.stack("u")[:, 1] - 10.0 / 6.0)) < 1e-9
        assert np.max(np.abs(ds.stack("u")[:, [0, 2]])) < 1e-9
        assert np.max(np.abs(ds.stack("x") - Q[[0, 1, 2, 3, 6, 7, 8]])) < 1e-9

    def test_floor_zero_admits_no_missing_hand(self):
        # a confidence floor of 0 still drops the frame without a hand block;
        # keeping its hand at pixel (0, 0) would misread the wrist and hand link
        t = np.arange(10)
        Q = np.column_stack([np.full(10, -1.2), 0.4 + t / 6.0, np.full(10, 0.3)])
        payload = synthesize_keypoint_frames(HUMAN_ARM, Q)
        del payload[5]["people"][0]["hand_right_keypoints_2d"]
        rec = recording(parse_keypoint_json(payload))
        angles, kept = keypoints_to_joint_angles(rec, confidence_floor=0.0)
        assert list(kept) == [0, 1, 2, 3, 4, 6, 7, 8, 9]
        assert np.max(np.abs(angles[:, 2] - 0.3)) < 1e-12
        lengths = estimate_link_lengths(rec, confidence_floor=0.0)
        assert lengths[2] == pytest.approx(0.1, abs=1e-12)

    def test_no_two_consecutive_frames_rejected(self):
        payload = synthesize_keypoint_frames(HUMAN_ARM, np.zeros((5, 3)))
        payload[1] = payload[3] = {"people": []}
        with pytest.warns(UserWarning):
            frames = parse_keypoint_json(json.dumps(payload))
        with pytest.raises(ValueError, match="consecutive"):
            recording_to_dataset(recording(frames))

    def test_constraint_recovered_from_keypoints(self):
        traj = self.constrained_human_motion()
        frames = synthesize_keypoint_frames(HUMAN_ARM, traj.x)
        rec = recording(parse_keypoint_json(frames))
        ds, arm = recording_to_dataset(rec)
        pi = PointAttractor(target=arm_angles_from_human(np.deg2rad([-90.0, 90.0, 0.0])))
        learned = learn_constraint(ds, prior_pi=pi, k=2, representation="lambda",
                                   feature_fn=lambda q: jacobian(arm, q))
        lam_true = diagonal_selection((1, 1, 0))
        worst = 0.0
        for q in ds.stack("x")[::10]:
            N_true = null_projector(lam_true @ jacobian(HUMAN_ARM, q)).N
            N_hat = learned.model.projector_at(q).N
            worst = max(worst, float(np.max(np.abs(N_hat - N_true))))
        assert worst < 1e-4


class TestBundledRecordings:
    """scripts/make_demo_keypoints.py regenerates configs/data/keypoints_demo.

    Not bit for bit: the shipped files differ from what the script writes
    today by up to about 2e-13 px, so the pixel values are compared to 1e-9.
    """

    def test_regenerated_frames_match_the_shipped_files(self):
        spec = importlib.util.spec_from_file_location(
            "make_demo_keypoints", REPO / "scripts" / "make_demo_keypoints.py")
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        for i, reach in enumerate(script.REACHES):
            files = sorted((REPO / "configs" / "data" / "keypoints_demo" / f"traj_{i}").glob(
                "demo_*_keypoints.json"))
            frames = script.reach_frames(reach)
            assert len(files) == len(frames) == script.FRAMES
            for path, frame in zip(files, frames):
                (person,) = json.loads(path.read_text())["people"]
                (made,) = frame["people"]
                assert person.keys() == made.keys()
                for key in person:
                    np.testing.assert_allclose(made[key], person[key], rtol=0.0, atol=1e-9,
                                               err_msg=f"{path.name} {key}")
