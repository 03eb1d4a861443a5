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
as ``aspect`` (default 1.0), once :class:`kpcurve.report.RunConfig` has
checked it: options and input are checked where they enter, not here.

A case is a stream of detections from one video (or a single still).
Each frame is measured independently; the case-level curvature is the
maximum frame angle across the stream. The maximum compensates for
yaw about the shaft's base axis: foreshortening across that axis
shrinks a bend of up to 90 degrees, so the frontal-most view reads the
true bend. It over-reads otherwise: foreshortening along the axis
(camera pitch) widens a bend, and so does yaw on a bend past 90 degrees.

A frame is degenerate when a middle-line segment is shorter than
``EPSILON`` after aspect scaling; it is skipped rather than failing the
case. A case with zero valid frames is returned as a failure, which a
caller raises as :class:`DegenerateProjectionError` (``synth`` checks
the rule too, raises that class, and writes no such frame).
:func:`measure_stream` consumes batches ``(case_ids, frame_indices,
points)`` of whole (15, 2) keypoint grids, of any size, as
:func:`kpcurve.report.iter_frame_stream` yields them from JSONL (a still
image is one batch of one frame). It alone picks the middle row
(:func:`middle_line`) and runs the angle kernel (:func:`polyline_angles`)
on it once per batch, cases interleaving freely within and across
batches, then reduces frame by frame. The reduction is a per-case
maximum, ties going to the lowest frame index, so neither batch size nor
stream order changes any result. A case's retained frames stay as
columns (:class:`FrameColumns`).

Each angle is ``atan2(|cross|, dot)`` of two segment vectors. Unlike
arccos of a normalized dot product, it needs no division and no clip,
and stays accurate across [0, 180], including bends near 0 or 180
degrees where arccos loses most of its digits (W. Kahan, "How Futile are
Mindless Assessments of Roundoff in Floating-Point Computation?", 2006).
"""

from dataclasses import dataclass, field

import numpy as np

from .annotation import COLS, MIDDLE_ROW

EPSILON = 1e-9


class DegenerateProjectionError(ValueError):
    """Geometry the kernel cannot measure: a case none of whose frames is
    valid, or a synth pose whose projection collapses (a collapsed bend
    direction, a single point or a short middle-line segment)."""


def middle_line(points: np.ndarray) -> np.ndarray:
    """The middle row of (..., 15, 2) keypoints as a (..., 5, 2) view, base to tip.

    This is the one accessor of the middle row, for one detection, a
    stack of them, or the 3D model points of a phantom (last axis 3).
    Coordinates pass through unchanged; aspect correction is applied by
    the angle computation, not here.
    """
    return points[..., MIDDLE_ROW * COLS : (MIDDLE_ROW + 1) * COLS, :]


def segments(lines: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (n, 4, 2) segments s0..s3 of (n, 5, 2) middle lines, and each line's
    first segment shorter than ``EPSILON``, -1 when none: the one statement of
    the degeneracy rule, for the angle kernel and for ``synth``'s check."""
    seg = lines[:, 1:] - lines[:, :-1]
    short = np.sqrt(seg[..., 0] * seg[..., 0] + seg[..., 1] * seg[..., 1]) < EPSILON
    return seg, np.where(short.any(axis=1), short.argmax(axis=1), -1)


def polyline_angles(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Angles of (n, 5, 2) middle lines, aspect already applied, plus their first bad segment.

    Returns (n, 4) angles in degrees (deviation, bend 1, bend 2, bend 3)
    and an (n,) int64 array of each line's first segment shorter than
    ``EPSILON``, -1 when none; such a row's angles are NaN. Raises
    ValueError on another shape.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 3 or pts.shape[1:] != (5, 2):
        raise ValueError(f"expected (n, 5, 2) array, got {pts.shape}")

    seg, bad = segments(pts)
    # the deviation (s0, s3), then the bends (s0, s1), (s1, s2), (s2, s3)
    u, v = np.take(seg, [0, 0, 1, 2], axis=1), np.take(seg, [3, 1, 2, 3], axis=1)
    cross = u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]
    dot = u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1]
    angles = np.degrees(np.arctan2(np.abs(cross), dot))
    angles[bad >= 0] = np.nan
    return angles, bad


def frame_rules(angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Frame angle and curvature column of each row of a (k, 4) angle block.

    The frame angle is the largest of the four angles; the curvature
    column (1, 2 or 3) the first largest segment angle, ties going low.
    """
    return angles.max(axis=1), 1 + angles[:, 1:].argmax(axis=1)


def angle_set_from_row(row: np.ndarray) -> tuple[float, tuple, float, int]:
    """One kernel row as the overlay draws it, in Python numbers: the
    deviation, the three segment angles, then the frame angle and
    curvature column of :func:`frame_rules`."""
    frame_angle, curvature_col = frame_rules(row[None])
    deviation, *segments = row.tolist()
    return deviation, tuple(segments), frame_angle.item(), curvature_col.item()


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
    frames were all degenerate; a stream with no frames gives two empty
    lists. ``aspect`` is a ratio that :class:`kpcurve.report.RunConfig`
    has checked: positive, with a finite square.
    """
    # x * 1.0 is exact, so at aspect 1.0 the scaling changes no coordinate
    scale = np.array([aspect, 1.0], dtype=np.float64)

    states: dict[str, _CaseState] = {}
    # the kernel output of every batch, when frames are kept
    kept_angles, kept_bad = [np.empty((0, 4))], [np.empty(0, np.int64)]
    offset = 0
    for case_ids, frame_indices, points in batches:
        angles, bad = polyline_angles(middle_line(points) * scale)
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
