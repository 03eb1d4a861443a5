"""Seeded inputs, command lines and references for the benchmark workloads.

The `cohort` and `audit` frame streams come from this file's own hinge
generator, not from ``kpcurve.synth``, so a change to synth never changes
what ``analyze`` is given. Each generated case also carries the
benchmark's own reference: the four middle-line angles per frame from an
independent atan2 formula, from which the expected curvature, argmax
frame, counts and diagnosis follow.

The generator stays clear of what the aggregation contract has yet to
settle: no ``(case_id, frame_index)`` pair repeats, no case is entirely
degenerate, and within a case the largest frame angle leads the next one
by more than ``TIE_GAP_DEG``, so no argmax tie rule is exercised.
"""

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

KEY_ORDER = ("case_id", "frame_index", "class_id", "bbox", "keypoints")
DECIMALS = 6
THRESHOLD_DEG = 30.0
# middle-line segments shorter than this are degenerate (kpcurve's rule)
EPSILON = 1e-9
# argmax and threshold margins kept clear of ties
TIE_GAP_DEG = 1e-6
DEGENERATE_SHARE = 0.005
JITTER_SD = 0.0015
FRACTIONS = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
# vector pairs per angle: deviation (first vs last segment), then bends
PAIRS = ((0, 3), (0, 1), (1, 2), (2, 3))


@dataclass(frozen=True)
class StreamShape:
    """Size and layout of a generated frame stream."""

    cases: int
    frames: int  # per case
    block: int  # cases interleaved frame by frame; 1 keeps cases contiguous
    aspect: float
    per_frame: bool  # analyze writes per-frame rows


@dataclass(frozen=True)
class PhantomShape:
    specs: int
    steps: int


# Sizes give roughly 0.3-0.6 s per pass of the commands on a 2-core box,
# so a 10 s run takes a median over a dozen or more passes.
SHAPES = {
    "cohort": StreamShape(cases=200, frames=16, block=8, aspect=16 / 9, per_frame=False),
    "audit": StreamShape(cases=4, frames=600, block=1, aspect=1.0, per_frame=True),
    "phantom": PhantomShape(specs=16, steps=80),
}
TINY = {
    "cohort": StreamShape(cases=12, frames=6, block=4, aspect=16 / 9, per_frame=False),
    "audit": StreamShape(cases=2, frames=40, block=1, aspect=1.0, per_frame=True),
    "phantom": PhantomShape(specs=4, steps=6),
}
WORKLOADS = tuple(SHAPES)


@dataclass
class CaseTruth:
    """One generated case and the benchmark's reference for it."""

    case_id: str
    hinge_deg: float
    frame_angles: np.ndarray  # (frames, 4) reference angles, NaN when degenerate
    valid: np.ndarray  # (frames,) bool

    @property
    def actual(self) -> str:
        return "pd" if self.hinge_deg > THRESHOLD_DEG else "normal"

    @property
    def frame_max(self) -> np.ndarray:
        """Largest of the four angles per frame, -1 for degenerate frames."""
        best = np.full(len(self.valid), -1.0)
        best[self.valid] = self.frame_angles[self.valid].max(axis=1)
        return best

    @property
    def curvature(self) -> float:
        return float(self.frame_max.max())

    @property
    def argmax_frame(self) -> int:
        return int(np.argmax(self.frame_max))

    @property
    def diagnosis(self) -> str:
        return "pd" if self.curvature > THRESHOLD_DEG else "normal"


@dataclass
class Inputs:
    """Files written for one workload, the commands to run on them, and references."""

    workload: str
    frames: int  # frames taken through the commands per pass
    commands: list[list[str]]
    outputs: list[Path]  # files the commands write, hashed every pass
    setup_commands: list[list[str]] = field(default_factory=list)
    per_frame: bool = False  # analyze writes per-frame rows
    cases: list[CaseTruth] = field(default_factory=list)  # first-appearance order
    specs: list[dict] = field(default_factory=list)
    report: Path | None = None
    metrics: Path | None = None


def reference_angles(middle: np.ndarray, aspect: float) -> tuple[np.ndarray, np.ndarray]:
    """Four angles per (5, 2) middle line by atan2(|cross|, dot), in degrees.

    ``middle`` holds normalized coordinates; x is scaled by ``aspect``
    in float64, as ``analyze --aspect`` does. Degenerate rows get NaN.
    """
    pts = middle * np.array([aspect, 1.0])
    seg = pts[:, 1:, :] - pts[:, :-1, :]
    valid = (np.hypot(seg[..., 0], seg[..., 1]) >= EPSILON).all(axis=1)
    angles = np.empty((len(pts), 4))
    for col, (a, b) in enumerate(PAIRS):
        u, v = seg[:, a], seg[:, b]
        cross = u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]
        dot = u[:, 0] * v[:, 0] + u[:, 1] * v[:, 1]
        angles[:, col] = np.degrees(np.arctan2(np.abs(cross), dot))
    angles[~valid] = np.nan
    return angles, valid


def _hinge_frames(rng, frames: int, aspect: float, hinge_deg: float) -> np.ndarray:
    """Quantized (frames, 15, 2) keypoints of one yaw sweep of a hinged shaft.

    The shaft runs along +y and bends by ``hinge_deg`` in the x-y plane
    at an interior keypoint; the laterals sit half a width away along z.
    Yaw about y foreshortens the bend and separates the laterals; a
    per-case roll and placement then put it in an image of the given
    width/height ratio, with Gaussian jitter and 6-decimal rounding.
    """
    beta = math.radians(hinge_deg)
    vertex = FRACTIONS[rng.integers(1, 4)]
    length = rng.uniform(0.4, 0.55)
    width = length * rng.uniform(0.2, 0.3)
    pre = np.outer(np.minimum(FRACTIONS, vertex), [0.0, 1.0])
    post = np.outer(np.maximum(FRACTIONS - vertex, 0.0), [math.sin(beta), math.cos(beta)])
    center = (pre + post) * length  # (5, 2) in the x-y plane
    center -= (center.min(axis=0) + center.max(axis=0)) / 2
    depth = np.array([width / 2, 0.0, -width / 2])[:, None]  # z per row

    yaw = np.radians(np.linspace(rng.uniform(-65, -40), rng.uniform(40, 65), frames))
    yaw = yaw + rng.uniform(-0.5, 0.5) * (yaw[1] - yaw[0] if frames > 1 else 0.0)
    x = center[None, None, :, 0] * np.cos(yaw)[:, None, None] + depth[None] * np.sin(yaw)[:, None, None]
    y = np.broadcast_to(-center[None, None, :, 1], x.shape)  # image y points down
    roll = math.radians(rng.uniform(-30, 30))
    xr = x * math.cos(roll) - y * math.sin(roll)
    yr = x * math.sin(roll) + y * math.cos(roll)
    cx = aspect * rng.uniform(0.45, 0.55)
    cy = rng.uniform(0.45, 0.55)
    pts = np.stack([(xr + cx) / aspect, yr + cy], axis=-1).reshape(frames, 15, 2)
    pts = pts + rng.normal(0.0, JITTER_SD, pts.shape)
    return np.clip(np.round(pts, DECIMALS), 0.0, 1.0)


def _make_case(seed: int, workload: str, index: int, frames: int, aspect: float):
    """Generate one case, re-drawing it until it is clear of ties."""
    for attempt in range(100):
        rng = np.random.default_rng([seed, WORKLOADS.index(workload), index, attempt])
        if rng.random() < 0.5:
            hinge = rng.uniform(0.0, 90.0)
        else:
            hinge = float(np.clip(rng.normal(THRESHOLD_DEG, 8.0), 0.0, 90.0))
        pts = _hinge_frames(rng, frames, aspect, hinge)
        degenerate = np.flatnonzero(rng.random(frames) < DEGENERATE_SHARE)
        if len(degenerate) == frames:
            degenerate = degenerate[1:]
        for f in degenerate:
            j = 5 + rng.integers(0, 4)  # middle row is keypoints 5..9
            pts[f, j + 1] = pts[f, j]
        angles, valid = reference_angles(pts[:, 5:10], aspect)
        truth = CaseTruth(f"{workload[0]}{index:04d}", hinge, angles, valid)
        top = np.sort(truth.frame_max)[::-1]
        clear_tie = len(top) < 2 or top[0] - top[1] > TIE_GAP_DEG
        if clear_tie and abs(truth.curvature - THRESHOLD_DEG) > TIE_GAP_DEG:
            return truth, pts
    raise RuntimeError(f"case {index}: no tie-free draw in 100 attempts")


def frame_line(case_id: str, frame_index: int, keypoints: list) -> str:
    """One JSONL frame in the documented key order, bbox from the keypoints."""
    xs = [p[0] for p in keypoints]
    ys = [p[1] for p in keypoints]
    x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
    bbox = [round((x0 + x1) / 2, DECIMALS), round((y0 + y1) / 2, DECIMALS),
            round(x1 - x0, DECIMALS), round(y1 - y0, DECIMALS)]
    record = dict(zip(KEY_ORDER, (case_id, frame_index, 0, bbox, keypoints)))
    return json.dumps(record, separators=(",", ":"))


def _stream_order(rng, shape: StreamShape) -> list[tuple[int, int]]:
    """(case, frame) pairs: blocks of cases interleaved round by round."""
    order = []
    for first in range(0, shape.cases, shape.block):
        block = np.arange(first, min(first + shape.block, shape.cases))
        for frame in range(shape.frames):
            order.extend((int(c), frame) for c in rng.permutation(block))
    return order


def _write_stream(workload, seed, shape: StreamShape, workdir: Path) -> Inputs:
    cases, points = [], []
    for index in range(shape.cases):
        truth, pts = _make_case(seed, workload, index, shape.frames, shape.aspect)
        cases.append(truth)
        points.append(pts.tolist())
    order = _stream_order(np.random.default_rng([seed, 99]), shape)
    frames_path = workdir / "frames.jsonl"
    with open(frames_path, "w") as out:
        for c, f in order:
            out.write(frame_line(cases[c].case_id, f, points[c][f]) + "\n")
    seen = dict.fromkeys(c for c, _ in order)  # first-appearance order
    cases = [cases[c] for c in seen]

    labels = workdir / "truth.csv"
    labels.write_text("case_id,actual\n" + "".join(f"{t.case_id},{t.actual}\n" for t in cases))
    report, metrics = workdir / "report.json", workdir / "metrics.json"
    analyze = ["analyze", str(frames_path), "--aspect", repr(shape.aspect), "-o", str(report)]
    if not shape.per_frame:
        analyze.insert(2, "--no-per-frame")
    evaluate = ["evaluate", str(report), "--labels", str(labels), "-o", str(metrics)]
    return Inputs(
        workload=workload,
        frames=len(order),
        commands=[analyze, evaluate],
        outputs=[report, metrics],
        per_frame=shape.per_frame,
        cases=cases,
        report=report,
        metrics=metrics,
    )


def _write_phantom(seed, shape: PhantomShape, workdir: Path) -> Inputs:
    rng = np.random.default_rng([seed, WORKLOADS.index("phantom")])
    commands, outputs, specs = [], [], []
    for index in range(shape.specs):
        spec = {
            "case_id": f"p{index:04d}",
            "hinge_angle_deg": round(float(rng.uniform(0.0, 90.0)), 3),
            "hinge_position": round(float(rng.uniform(0.15, 0.85)), 3),
            "length_cm": round(float(rng.uniform(4.0, 7.0)), 2),
            "width_cm": round(float(rng.uniform(1.0, 2.0)), 2),
            "seed": int(rng.integers(0, 2**31)),
            "yaw_start_deg": round(float(rng.uniform(-60.0, -30.0)), 2),
            "yaw_end_deg": round(float(rng.uniform(30.0, 60.0)), 2),
            "steps": shape.steps,
            "pitch_deg": round(float(rng.uniform(-20.0, 20.0)), 2) if index % 4 < 2 else 0.0,
            "jitter_sd": 0.002 if index % 2 else 0.0,
        }
        spec_path = workdir / f"spec{index:04d}.json"
        spec_path.write_text(json.dumps(spec))
        stream = workdir / f"phantom{index:04d}.jsonl"
        commands.append(["synth", str(spec_path), "-o", str(stream)])
        outputs += [stream, Path(str(stream) + ".oracle.json")]
        specs.append(spec)
    return Inputs(
        workload="phantom",
        frames=shape.specs * shape.steps,
        commands=commands,
        outputs=outputs,
        specs=specs,
    )


def write_inputs(workload: str, seed: int, workdir: Path, tiny: bool = False) -> Inputs:
    """Write the workload's input files under ``workdir`` and describe its run."""
    shape = (TINY if tiny else SHAPES)[workload]
    if isinstance(shape, PhantomShape):
        inputs = _write_phantom(seed, shape, workdir)
    else:
        inputs = _write_stream(workload, seed, shape, workdir)
    # set-up probe: one frame through analyze, as every CLI call pays it
    truth, pts = _make_case(seed, "cohort", 10**6, 1, 1.0)
    one = workdir / "setup.jsonl"
    one.write_text(frame_line(truth.case_id, 0, pts[0].tolist()) + "\n")
    inputs.setup_commands = [["analyze", str(one), "--no-per-frame", "-o", str(workdir / "setup.json")]]
    return inputs
