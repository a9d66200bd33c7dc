"""Turn 2D pose-keypoint JSON into planar-arm demonstrations.

Input is the common pose-estimator layout: one JSON object per frame with a
``people`` list, each person carrying a flat ``pose_keypoints_2d`` array of
(x, y, confidence) triples in the 25-point body format. Optional
``hand_right_keypoints_2d`` / ``hand_left_keypoints_2d`` blocks supply a
hand point (middle-finger knuckle) so the wrist angle can be measured. A
recording with no confident hand in any frame reports the wrist angle as
zero; in a recording that has one, frames without it are dropped.

Only the sagittal plane is modelled. The shoulder, elbow and wrist angles of
the configured side are extracted per frame:

  * shoulder: upper-arm direction against the body-down reference, the
    shoulder-to-hip line. Arm hanging straight down is 0; raised forward
    (subject facing +x in image coordinates) is -90 degrees.
  * elbow: forearm against the upper-arm continuation; a straight arm is 0.
  * wrist: hand against the forearm continuation.

The chain convention differs only in the shoulder, measured from the +x
axis; arm_angles_from_human converts either way.

Image y grows downward, so vertical components are flipped before any
angle arithmetic. Pixel link lengths are averaged over confident frames and
divided by a configurable scale to give arm link lengths, and velocities
come from forward differences times the frame rate within each run of
consecutive kept frames.
"""

import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .kinematics import PlanarArm, joint_positions
from .simulator import Dataset, Trajectory

# Body points per side, as indices into the 25-point body format.
SIDE_POINTS = {
    "right": {"shoulder": 2, "elbow": 3, "wrist": 4, "hip": 9},
    "left": {"shoulder": 5, "elbow": 6, "wrist": 7, "hip": 12},
}

HAND_KEY = {"right": "hand_right_keypoints_2d", "left": "hand_left_keypoints_2d"}
HAND_MIDDLE_KNUCKLE = 9


@dataclass(frozen=True)
class KeypointFrame:
    """Named image-space points of one frame, each an (x, y, confidence) triple."""

    shoulder: tuple
    elbow: tuple
    wrist: tuple
    hip: tuple
    hand: tuple = (0.0, 0.0, 0.0)

    def point(self, name: str) -> np.ndarray:
        return np.asarray(getattr(self, name)[:2], dtype=float)

    def confidence(self, name: str) -> float:
        return float(getattr(self, name)[2])

    def valid(self, floor: float, need_hand: bool = False) -> bool:
        names = ["shoulder", "elbow", "wrist", "hip"] + (["hand"] if need_hand else [])
        return all(self.confidence(n) >= floor for n in names)


@dataclass(frozen=True)
class HumanArmRecording:
    frames: tuple
    fps: float
    side: str


def _triple(flat, index):
    base = 3 * index
    if base + 3 > len(flat):
        return (0.0, 0.0, 0.0)
    return (float(flat[base]), float(flat[base + 1]), float(flat[base + 2]))


def parse_keypoint_json(data, side: str = "right") -> list:
    """Frames from raw JSON bytes/text; accepts one frame object or a list.

    Takes the first person of each frame. Frames with an empty people list
    come back as None entries with a warning, so frame indexing downstream
    stays aligned with the files.
    """
    if side not in SIDE_POINTS:
        raise ValueError("side must be 'right' or 'left'")
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    if isinstance(data, str):
        data = json.loads(data)
    frame_objs = data if isinstance(data, list) else [data]
    idx = SIDE_POINTS[side]
    frames = []
    empty = 0
    for obj in frame_objs:
        people = obj.get("people", [])
        if not people:
            frames.append(None)
            empty += 1
            continue
        person = people[0]
        body = person.get("pose_keypoints_2d", [])
        hand_flat = person.get(HAND_KEY[side], [])
        hand = _triple(hand_flat, HAND_MIDDLE_KNUCKLE) if hand_flat else (0.0, 0.0, 0.0)
        frames.append(KeypointFrame(
            shoulder=_triple(body, idx["shoulder"]),
            elbow=_triple(body, idx["elbow"]),
            wrist=_triple(body, idx["wrist"]),
            hip=_triple(body, idx["hip"]),
            hand=hand,
        ))
    if empty:
        warnings.warn(f"{empty} frame(s) contained no people and were kept as gaps",
                      stacklevel=2)
    return frames


def read_keypoint_dir(path, side: str = "right", fps: float = 30.0) -> HumanArmRecording:
    """Read a recording: a directory of *_keypoints.json files, or one file
    holding the concatenated frame array."""
    path = Path(path)
    if path.is_file():
        files = [path]
    else:
        files = sorted(path.glob("*_keypoints.json")) or sorted(path.glob("*.json"))
    if not files:
        raise FileNotFoundError(f"no keypoint JSON files under {path}")
    frames = []
    for f in files:
        frames.extend(parse_keypoint_json(f.read_bytes(), side=side))
    return HumanArmRecording(frames=tuple(frames), fps=float(fps), side=side)


def _math_vec(p_from: np.ndarray, p_to: np.ndarray) -> np.ndarray:
    # Image y points down; flip it so angle arithmetic happens in a
    # conventional right-handed frame.
    d = p_to - p_from
    return np.array([d[0], -d[1]])


def _signed_angle(v_from: np.ndarray, v_to: np.ndarray) -> float:
    cross = v_from[0] * v_to[1] - v_from[1] * v_to[0]
    return float(np.arctan2(cross, float(v_from @ v_to)))


def keypoints_to_joint_angles(rec: HumanArmRecording, confidence_floor: float = 0.3):
    """Per-frame (shoulder, elbow, wrist) angles in radians.

    Frames with any required point under the confidence floor are dropped.
    The hand is required as soon as one frame has it: a zero wrist amid
    measured ones would invent wrist velocities. A recording with no
    confident hand anywhere gets a zero wrist throughout. Returns
    (angles, kept_indices); angles has one row per kept frame. At least two
    frames must survive, otherwise velocities cannot be formed.
    """
    need_hand = any(f is not None and f.valid(confidence_floor, need_hand=True)
                    for f in rec.frames)
    angles = []
    kept = []
    for i, frame in enumerate(rec.frames):
        if frame is None or not frame.valid(confidence_floor, need_hand):
            continue
        down = _math_vec(frame.point("shoulder"), frame.point("hip"))
        upper = _math_vec(frame.point("shoulder"), frame.point("elbow"))
        fore = _math_vec(frame.point("elbow"), frame.point("wrist"))
        shoulder = _signed_angle(upper, down)
        elbow = _signed_angle(upper, fore)
        if need_hand:
            hand = _math_vec(frame.point("wrist"), frame.point("hand"))
            wrist = _signed_angle(fore, hand)
        else:
            wrist = 0.0
        angles.append([shoulder, elbow, wrist])
        kept.append(i)
    if len(angles) < 2:
        raise ValueError(f"only {len(angles)} confident frame(s); need at least 2")
    return np.array(angles), kept


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

    The hand length needs hand keypoints; frames without them simply do not
    contribute to that average. Raises when a segment has no confident
    frames at all.
    """
    if scale <= 0.0:
        raise ValueError("scale must be positive")
    sums = np.zeros(3)
    counts = np.zeros(3, dtype=int)
    pairs = (("shoulder", "elbow"), ("elbow", "wrist"), ("wrist", "hand"))
    for frame in rec.frames:
        if frame is None:
            continue
        for j, (a, b) in enumerate(pairs):
            if frame.confidence(a) >= confidence_floor and frame.confidence(b) >= confidence_floor:
                sums[j] += float(np.linalg.norm(frame.point(a) - frame.point(b)))
                counts[j] += 1
    if np.any(counts == 0):
        missing = [("upper", "fore", "hand")[j] for j in np.flatnonzero(counts == 0)]
        raise ValueError(f"no confident frames to measure segment(s): {', '.join(missing)}")
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
    ds = Dataset(trajectories=trajs,
                 meta={"system": "human_arm", "side": rec.side, "fps": rec.fps,
                       "scale": scale, "links": lengths.tolist(), "noise": None})
    return ds, arm


# --- synthesis (the exact inverse of the parser, for round-trip checks) -----------

def synthesize_keypoint_frames(arm: PlanarArm, Q_arm, origin_px=(640.0, 360.0),
                               scale: float = 300.0, hip_drop: float = 0.5,
                               side: str = "right") -> list:
    """Per-frame JSON dicts for a chain-convention joint trajectory.

    The shoulder sits at origin_px with the hip straight below it, positions
    are arm units times scale, and image y is flipped. Confidence is 1.0
    everywhere. Useful for tests and demo data; the output parses back to
    the generating angles.
    """
    if arm.n != 3:
        raise ValueError("synthesis expects a 3-link arm (upper, fore, hand)")
    Q_arm = np.atleast_2d(np.asarray(Q_arm, dtype=float))
    idx = SIDE_POINTS[side]
    ox, oy = float(origin_px[0]), float(origin_px[1])

    def to_px(p_math):
        return (ox + scale * p_math[0], oy - scale * p_math[1])

    frames = []
    for q in Q_arm:
        pts = joint_positions(arm, q)
        body = [0.0] * 75
        named = {
            idx["shoulder"]: to_px(pts[0]),
            idx["elbow"]: to_px(pts[1]),
            idx["wrist"]: to_px(pts[2]),
            idx["hip"]: (ox, oy + scale * hip_drop),
        }
        for kp_index, (px, py) in named.items():
            body[3 * kp_index:3 * kp_index + 3] = [px, py, 1.0]
        hand = [0.0] * 63
        hx, hy = to_px(pts[3])
        hand[3 * HAND_MIDDLE_KNUCKLE:3 * HAND_MIDDLE_KNUCKLE + 3] = [hx, hy, 1.0]
        frames.append({"version": 1.3, "people": [{
            "pose_keypoints_2d": body, HAND_KEY[side]: hand}]})
    return frames


def write_keypoint_files(frames, directory, prefix: str = "frame"):
    """One JSON file per frame, named like a pose-estimator output directory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, frame in enumerate(frames):
        p = directory / f"{prefix}_{i:012d}_keypoints.json"
        p.write_text(json.dumps(frame))
        paths.append(p)
    return paths
