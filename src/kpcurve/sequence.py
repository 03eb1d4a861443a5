"""Measurement of frame streams: four angles per frame, a maximum per case.

A detection's curvature is read from the five middle-row landmarks
P0..P4 (base to tip). Four angles are computed between pairs of the
four segments they span: the deviation angle between the first and
last segments, and three segment angles between consecutive segments
meeting at the interior points. The frame-level angle is the largest
of the four, which keeps the measurement sensitive to both gradual
arcs and a sharp local kink. Coordinates arrive normalized per axis,
so angles are distorted on non-square images unless x is rescaled by
the width/height ratio first; :func:`measure_stream` takes that ratio
as ``aspect`` (default 1.0), a positive number whose square is finite
(at most ~1.34e154).

A case is a stream of detections from one video (or a single still).
Each frame is measured independently; the case-level curvature is the
maximum frame angle across the stream. The maximum compensates for
yaw about the shaft's base axis: foreshortening across that axis
shrinks a bend of up to 90 degrees, so the frontal-most view reads the
true bend. It over-reads otherwise: foreshortening along the axis
(camera pitch) widens a bend, and so does yaw on a bend past 90 degrees.

Frames whose geometry is degenerate (coincident keypoints) are marked
invalid and skipped rather than failing the case; only a case with
zero valid frames is an error. :func:`measure_stream` consumes batches
``(case_ids, frame_indices, points)`` of whole (15, 2) keypoint grids,
of any size, as :func:`kpcurve.report.iter_frame_stream` yields them
from JSONL (a still image is one batch of one frame). It alone picks the
middle row (:func:`middle_line`) and runs the angle kernel on it once per
batch, cases interleaving freely within and across batches, then
reduces frame by frame. The reduction is a per-case maximum, ties going
to the lowest frame index, so neither batch size nor stream order
changes any result. A case's retained frames stay as columns
(:class:`FrameColumns`), with no object per frame.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from ._kernels import polyline_angles
from .annotation import COLS, MIDDLE_ROW


class EmptySequenceError(ValueError):
    """The frame stream yielded no frames at all."""


class AllFramesInvalidError(ValueError):
    """Every frame of a case had degenerate geometry."""


@dataclass(frozen=True)
class AngleSet:
    """The four angles, in degrees, of one frame, as the overlay draws them.

    ``deviation_deg`` compares the base segment P0P1 with the tip
    segment P3P4. ``segment_deg`` holds the angles between consecutive
    segments meeting at interior points P1, P2, P3. ``frame_angle_deg``
    and ``curvature_col`` follow :func:`frame_rules`.
    """

    deviation_deg: float
    segment_deg: tuple[float, float, float]
    frame_angle_deg: float
    curvature_col: int


def middle_line(points: np.ndarray) -> np.ndarray:
    """The middle row of (..., 15, 2) keypoints as a (..., 5, 2) view, base to tip.

    This is the one accessor of the middle row, for one detection, a
    stack of them, or the 3D model points of a phantom (last axis 3).
    Coordinates pass through unchanged; aspect correction is applied by
    the angle computation, not here.
    """
    return points[..., MIDDLE_ROW * COLS : (MIDDLE_ROW + 1) * COLS, :]


def frame_rules(angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Frame angle and curvature column of each row of a (k, 4) angle block.

    The frame angle is the largest of the four angles; the curvature
    column (1, 2 or 3) the first largest segment angle, ties going low.
    """
    return angles.max(axis=1), 1 + angles[:, 1:].argmax(axis=1)


def angle_set_from_row(row: np.ndarray) -> AngleSet:
    """Assemble an AngleSet from one kernel output row."""
    frame_angle, curvature_col = frame_rules(row[None])
    deviation, *segments = row.tolist()
    return AngleSet(deviation, tuple(segments), frame_angle.item(), curvature_col.item())


@dataclass(frozen=True, eq=False)
class FrameColumns:
    """A case's retained frames in stream order; row i is one frame.

    Python int frame indices, the kernel's (k, 4) angle rows (NaN when
    degenerate) and each frame's first bad segment, -1 when valid.
    """

    frame_indices: list[int]
    angles: np.ndarray
    first_bad: np.ndarray

    def __eq__(self, other):
        return (
            isinstance(other, FrameColumns)
            and self.frame_indices == other.frame_indices
            and np.array_equal(self.angles, other.angles, equal_nan=True)
            and np.array_equal(self.first_bad, other.first_bad)
        )


@dataclass(frozen=True)
class CaseMeasurement:
    """A case-level curvature with its provenance.

    ``curvature_deg`` is the maximum frame angle over valid frames and
    ``argmax_frame`` the lowest frame index attaining it, whatever the
    stream order. ``per_frame`` holds the case's frames, and no rows when
    frame retention was disabled.
    """

    case_id: str
    curvature_deg: float
    argmax_frame: int
    frames_total: int
    frames_valid: int
    per_frame: FrameColumns


@dataclass
class _CaseState:
    total: int = 0
    valid: int = 0
    best_angle: float = -1.0
    best_frame: int = -1
    positions: list = field(default_factory=list)  # stream positions of kept frames
    frame_indices: list = field(default_factory=list)


def measure_stream(
    batches,
    aspect: float = 1.0,
    keep_frames: bool = True,
) -> tuple[list[CaseMeasurement], list[tuple[str, str]]]:
    """Measure a stream of frame batches.

    Each batch is ``(case_ids, frame_indices, points)``, of any size:
    per frame a case id, a frame index and its whole keypoint grid, an
    (n, 15, 2) array in all, of which the middle row is measured. Cases
    may interleave arbitrarily; results come back in order of first
    appearance. With ``keep_frames`` each case's frames are kept as
    :class:`FrameColumns`; otherwise its columns have no rows. Returns
    the measured cases plus a (case_id, message) list for cases whose
    frames were all degenerate. Raises ValueError when ``aspect`` is not
    a positive number whose square is finite, and EmptySequenceError
    when the stream has no frames at all.
    """
    # a NaN or infinite ratio would give NaN angles that count as valid
    if not 0.0 < aspect < math.inf:
        raise ValueError(f"aspect ratio {aspect} must be positive and finite")
    # coordinates lie in [0, 1], so the kernel's products stay below aspect**2 + 1
    if aspect * aspect == math.inf:
        raise ValueError(f"aspect ratio {aspect} is too large: its square overflows a float")
    scale = np.array([aspect, 1.0], dtype=np.float64)

    states: dict[str, _CaseState] = {}
    # the kernel output of every batch, when frames are kept
    kept_angles, kept_bad = [np.empty((0, 4))], [np.empty(0, np.int64)]
    offset = 0
    for case_ids, frame_indices, points in batches:
        lines = middle_line(points)
        if aspect != 1.0:
            lines = lines * scale
        angles, bad = polyline_angles(lines)
        if keep_frames:
            kept_angles.append(angles)
            kept_bad.append(bad)
        frame_max = frame_rules(angles)[0].tolist()
        for position, (case_id, frame_index, angle, first_bad) in enumerate(
            zip(case_ids, frame_indices, frame_max, bad.tolist()), start=offset
        ):
            state = states.get(case_id)
            if state is None:
                state = states[case_id] = _CaseState()
            state.total += 1
            if keep_frames:
                state.positions.append(position)
                state.frame_indices.append(frame_index)
            if first_bad >= 0:
                continue
            state.valid += 1
            if angle > state.best_angle or (
                angle == state.best_angle and frame_index < state.best_frame
            ):
                state.best_angle = angle
                state.best_frame = frame_index
        offset += len(case_ids)

    if not states:
        raise EmptySequenceError("no frames in stream")

    all_angles, all_bad = np.concatenate(kept_angles), np.concatenate(kept_bad)
    no_frames = FrameColumns([], all_angles, all_bad)  # every case's, unless frames are kept
    cases = []
    failures = []
    for case_id, state in states.items():
        if state.valid == 0:
            failures.append((case_id, f"all {state.total} frames had degenerate geometry"))
            continue
        cases.append(
            CaseMeasurement(
                case_id=case_id,
                curvature_deg=state.best_angle,
                argmax_frame=state.best_frame,
                frames_total=state.total,
                frames_valid=state.valid,
                per_frame=FrameColumns(
                    state.frame_indices, all_angles[state.positions], all_bad[state.positions]
                )
                if keep_frames
                else no_frames,
            )
        )
    return cases, failures
