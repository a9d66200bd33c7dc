"""Turn 2D pose-keypoint JSON into planar-arm demonstrations.

Input is the common pose-estimator layout: a directory of
``*_keypoints.json`` files, read in name order, each holding the JSON object
of one frame. A frame has a ``people`` list, each person carrying a flat
``pose_keypoints_2d`` array of (x, y, confidence) triples in the 25-point
body format, and a ``hand_right_keypoints_2d`` / ``hand_left_keypoints_2d``
block whose middle-finger knuckle is the hand point.

A recording is one float array of shape (F, 5, 3): x, y and confidence of
the shoulder, elbow, wrist, hip and hand of the configured side, rows in
the order of the module constants SHOULDER ... HAND. Every absent point is
NaN: a frame with no person, a missing hand block, an index past a short
array, a triple whose confidence is 0, or a triple holding a value that is
not finite (a JSON null, NaN or Infinity). NaN fails every confidence test,
so no floor admits a point the estimator did not report. A frame is kept
when all five points reach the floor. The hand is required: a recording
with no confident hand raises.

Only the sagittal plane is modelled. The shoulder, elbow and wrist angles of
the configured side are extracted per kept frame:

  * shoulder: upper-arm direction against the body-down reference, the
    shoulder-to-hip line. Arm hanging straight down is 0; raised forward
    (subject facing +x in image coordinates) is -90 degrees.
  * elbow: forearm against the upper-arm continuation; a straight arm is 0.
  * wrist: hand against the forearm continuation.

The chain convention differs only in the shoulder, measured from the +x
axis; arm_angles_from_human converts either way.

Image y grows downward, so vertical components are flipped before any
angle arithmetic. Pixel link lengths are averaged over the frames where
both ends of a segment are confident and divided by a configurable scale to
give arm link lengths, and velocities come from forward differences times
the frame rate within each run of consecutive kept frames.
"""

import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .kinematics import PlanarArm, dot_last, joint_positions
from .simulator import Dataset, Trajectory

# Rows of a recording's (F, 5, 3) keypoint array.
SHOULDER, ELBOW, WRIST, HIP, HAND = range(5)

# Body-format indices of the shoulder, elbow, wrist and hip, per side.
SIDE_POINTS = {"right": (2, 3, 4, 9), "left": (5, 6, 7, 12)}

HAND_KEY = {"right": "hand_right_keypoints_2d", "left": "hand_left_keypoints_2d"}
HAND_MIDDLE_KNUCKLE = 9


@dataclass(frozen=True, eq=False)
class HumanArmRecording:
    frames: np.ndarray  # (F, 5, 3), NaN where a point is absent
    fps: float


def _triple(flat, index):
    triple = flat[3 * index:3 * index + 3]
    return triple if len(triple) == 3 else (np.nan,) * 3


def _typed(value, kind: type, name: str):
    """value, or an empty `kind` when it is absent or null; ValueError for another type."""
    if value is None:
        return kind()
    if not isinstance(value, kind):
        raise ValueError(f"{name} is a JSON {type(value).__name__}, not a {kind.__name__}")
    return value


def parse_keypoint_json(frames: list, side: str = "right", files=None) -> np.ndarray:
    """Keypoint array (F, 5, 3) from a list of decoded frame objects.

    Takes the first person of each frame. A field that is absent or null
    reads as empty, so its points are absent; a field of another wrong type
    raises ValueError naming the frame, and its file when ``files`` gives
    the path of each frame. A triple holding a value that is not finite is
    absent, like one of confidence 0. Frames with an empty people list
    stay as all-NaN rows, with a warning, so frame indexing downstream
    stays aligned with the files.
    """
    if side not in SIDE_POINTS:
        raise ValueError("side must be 'right' or 'left'")
    rows, empty = [], 0
    for i, obj in enumerate(frames):
        try:
            people = _typed(obj.get("people"), list, "people")
            person = _typed(people[0] if people else None, dict, "people[0]")
            body = _typed(person.get("pose_keypoints_2d"), list, "pose_keypoints_2d")
            hand = _typed(person.get(HAND_KEY[side]), list, HAND_KEY[side])
        except ValueError as exc:
            where = f"frame {i}" if files is None else f"{files[i]}: frame {i}"
            raise ValueError(f"{where}: {exc}") from None
        empty += not people
        rows += [_triple(body, index) for index in SIDE_POINTS[side]]
        rows.append(_triple(hand, HAND_MIDDLE_KNUCKLE))
    points = np.array(rows, dtype=float).reshape(-1, 5, 3)
    # Estimators write (0, 0, 0) for a point they did not detect. A null
    # coordinate reads as NaN: a point with a value that is not finite is absent too.
    points[(points[:, :, 2] == 0.0) | ~np.isfinite(points).all(axis=2)] = np.nan
    if empty:
        warnings.warn(f"{empty} frame(s) contained no people and were kept as gaps",
                      stacklevel=2)
    return points


def read_json_object(path: Path) -> dict:
    """The JSON object in the file at `path`, parsed from its bytes.

    Raises ValueError naming the file when the bytes are not JSON text
    (UTF-8, -16 or -32) or when the top level is not an object.
    """
    try:
        obj = json.loads(path.read_bytes())
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8/16/32
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValueError(f"{path} holds a JSON {type(obj).__name__}, not an object")
    return obj


def read_keypoint_dir(path, side: str = "right", fps: float = 30.0) -> HumanArmRecording:
    """Read a recording: a directory of *_keypoints.json files, one frame object each."""
    files = sorted(Path(path).glob("*_keypoints.json"))
    if not files:
        raise FileNotFoundError(f"no keypoint JSON files under {path}")
    frames = [read_json_object(f) for f in files]
    return HumanArmRecording(frames=parse_keypoint_json(frames, side=side, files=files),
                             fps=float(fps))


def keypoints_to_joint_angles(rec: HumanArmRecording, confidence_floor: float = 0.3):
    """Per-frame (shoulder, elbow, wrist) angles in radians.

    A frame is kept when all five points reach the confidence floor.
    Returns (angles, kept_indices); angles has one row per kept frame.
    Raises when no frame has a confident hand, and when fewer than two
    frames are kept, since velocities cannot be formed then.
    """
    confident = rec.frames[:, :, 2] >= confidence_floor
    if not confident[:, HAND].any():
        raise ValueError("no frame has a confident hand point; the wrist angle needs one")
    kept = np.flatnonzero(confident.all(axis=1))
    if len(kept) < 2:
        raise ValueError(f"only {len(kept)} confident frame(s); need at least 2")
    P = rec.frames[kept, :, :2]
    # Body down (shoulder to hip), upper arm, forearm and hand. Image y points
    # down; flipping it puts the angles in a right-handed frame.
    seg = P[:, [HIP, ELBOW, WRIST, HAND]] - P[:, [SHOULDER, SHOULDER, ELBOW, WRIST]]
    seg[..., 1] *= -1.0
    # Shoulder: upper arm to body down; elbow: upper arm to forearm; wrist: forearm to hand.
    a, b = seg[:, [1, 1, 2]], seg[:, [0, 2, 3]]
    cross = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
    return np.arctan2(cross, dot_last(a, b)), kept


# Shoulder angles are measured from the body-down reference, chain angles
# from the +x axis; the two conventions differ by the affine map
# q0 -> -pi/2 - q0, which is its own inverse, so this one function converts
# either way.
def arm_angles_from_human(q_human) -> np.ndarray:
    q = np.atleast_2d(np.asarray(q_human, dtype=float)).copy()
    q[:, 0] = -np.pi / 2.0 - q[:, 0]
    return q if np.ndim(q_human) > 1 else q[0]


def estimate_link_lengths(rec: HumanArmRecording, scale: float = 300.0,
                          confidence_floor: float = 0.3) -> np.ndarray:
    """(upper arm, forearm, hand) lengths: mean pixel distances over scale.

    Each segment is averaged over the frames where both of its ends reach
    the confidence floor. Raises when a segment has no such frame.
    """
    if scale <= 0.0:
        raise ValueError("scale must be positive")
    P = rec.frames
    ends = [SHOULDER, ELBOW, WRIST], [ELBOW, WRIST, HAND]
    confident = P[:, :, 2] >= confidence_floor
    mask = confident[:, ends[0]] & confident[:, ends[1]]
    counts = mask.sum(axis=0)
    if np.any(counts == 0):
        missing = [("upper", "fore", "hand")[j] for j in np.flatnonzero(counts == 0)]
        raise ValueError(f"no confident frames to measure segment(s): {', '.join(missing)}")
    d = P[:, ends[0], :2] - P[:, ends[1], :2]
    # A running sum, not np.sum's pairwise one: it rounds like a per-frame loop.
    sums = np.add.accumulate(np.where(mask, np.sqrt(dot_last(d, d)), 0.0))[-1]
    return sums / counts / scale


def finite_difference_velocities(angles, fps: float) -> np.ndarray:
    """Forward differences u_t = (q_{t+1} - q_t) * fps; the last sample is dropped."""
    angles = np.atleast_2d(np.asarray(angles, dtype=float))
    if angles.shape[0] < 2:
        raise ValueError("need at least two samples to difference")
    if fps <= 0.0:
        raise ValueError("fps must be positive")
    return np.diff(angles, axis=0) * fps


def recording_to_dataset(rec: HumanArmRecording, scale: float = 300.0,
                         confidence_floor: float = 0.3):
    """Full pipeline: keypoints to a (Dataset, PlanarArm) pair in chain convention.

    States are chain-convention joint angles, actions their forward-difference
    velocities. Dropped frames split the recording: each run of at least two
    consecutive kept frames becomes one trajectory, so no velocity is taken
    across a gap, and shorter runs are discarded. The returned arm carries
    the estimated link lengths so its Jacobian can serve as the constraint
    feature.
    """
    q_human, kept = keypoints_to_joint_angles(rec, confidence_floor)
    q_arm = arm_angles_from_human(q_human)
    breaks = np.flatnonzero(np.diff(kept) != 1) + 1
    runs = [run for run in np.split(q_arm, breaks) if len(run) >= 2]
    if not runs:
        raise ValueError("no two consecutive confident frames; cannot form velocities")
    trajs = [Trajectory(dt=1.0 / rec.fps, x=run[:-1],
                        u=finite_difference_velocities(run, rec.fps)) for run in runs]
    lengths = estimate_link_lengths(rec, scale=scale, confidence_floor=confidence_floor)
    arm = PlanarArm(tuple(lengths))
    return Dataset(trajectories=trajs), arm


# --- synthesis (the exact inverse of the parser, for round-trip checks) -----------

ORIGIN_PX = (640.0, 360.0)  # where synthesized frames put the shoulder, in pixels
HIP_DROP = 0.5  # how far below the shoulder they put the hip, in arm units


def synthesize_keypoint_frames(arm: PlanarArm, Q_arm, scale: float = 300.0,
                               side: str = "right") -> list:
    """Per-frame JSON dicts for a chain-convention joint trajectory.

    The shoulder sits at ORIGIN_PX with the hip HIP_DROP straight below it,
    positions are arm units times scale, and image y is flipped. Confidence
    is 1.0 everywhere. Useful for tests and demo data; the output parses
    back to the generating angles.
    """
    if arm.n != 3:
        raise ValueError("synthesis expects a 3-link arm (upper, fore, hand)")
    Q_arm = np.atleast_2d(np.asarray(Q_arm, dtype=float))
    ox, oy = ORIGIN_PX

    def to_px(p_math):
        return (ox + scale * p_math[0], oy - scale * p_math[1])

    frames = []
    for q in Q_arm:
        pts = joint_positions(arm, q)
        body = [0.0] * 75
        named = (to_px(pts[0]), to_px(pts[1]), to_px(pts[2]), (ox, oy + scale * HIP_DROP))
        for kp_index, (px, py) in zip(SIDE_POINTS[side], named):
            body[3 * kp_index:3 * kp_index + 3] = [px, py, 1.0]
        hand = [0.0] * 63
        hx, hy = to_px(pts[3])
        hand[3 * HAND_MIDDLE_KNUCKLE:3 * HAND_MIDDLE_KNUCKLE + 3] = [hx, hy, 1.0]
        frames.append({"version": 1.3, "people": [{
            "pose_keypoints_2d": body, HAND_KEY[side]: hand}]})
    return frames


def write_keypoint_files(frames, directory):
    """One JSON file per frame, demo_<index>_keypoints.json like a pose-estimator output."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for i, frame in enumerate(frames):
        (directory / f"demo_{i:012d}_keypoints.json").write_text(json.dumps(frame))
