"""Aggregation of per-frame angles into per-case measurements.

A case is a stream of detections from one video (or a single still).
Each frame is measured independently; the case-level curvature is the
maximum frame angle across the stream. The maximum compensates for
camera deviation: out-of-plane viewing only foreshortens a planar
bend, so the largest apparent angle over a sweep is the closest
estimate of the true one.

Frames whose geometry is degenerate (coincident keypoints) are marked
invalid and skipped rather than failing the case; only a case with
zero valid frames is an error. Streams carrying several interleaved
cases are handled by :func:`measure_stream`, which batches the angle
kernel across case boundaries, ``CHUNK_FRAMES`` frames at a time; the
kernel measures each frame on its own and the reduction is a per-case
maximum, so the batch size never changes any result.
"""

from dataclasses import dataclass, field

import numpy as np

from ._kernels import polyline_angles
from .annotation import FrameDetection
from .geometry import AngleSet, angle_set_from_row, middle_line

# frames buffered per kernel dispatch; bounds memory on long streams
CHUNK_FRAMES = 4096


class EmptySequenceError(ValueError):
    """The frame stream yielded no frames at all."""


class AllFramesInvalidError(ValueError):
    """Every frame of a case had degenerate geometry."""


@dataclass(frozen=True)
class FrameMeasurement:
    """Measurement outcome for one frame; angles absent when invalid."""

    frame_index: int
    angles: AngleSet | None
    valid: bool
    error_note: str | None = None


@dataclass(frozen=True)
class CaseMeasurement:
    """A case-level curvature with its provenance.

    ``curvature_deg`` is the maximum frame angle over valid frames and
    ``argmax_frame`` the index of the earliest frame attaining it.
    ``per_frame`` is empty when frame retention was disabled.
    """

    case_id: str
    curvature_deg: float
    argmax_frame: int
    frames_total: int
    frames_valid: int
    per_frame: tuple[FrameMeasurement, ...]


@dataclass
class _CaseState:
    total: int = 0
    valid: int = 0
    best_angle: float = -1.0
    best_frame: int = -1
    retained: list = field(default_factory=list)


def measure_stream(
    records,
    aspect: float = 1.0,
    keep_frames: bool = True,
) -> tuple[list[CaseMeasurement], list[tuple[str, str]]]:
    """Measure a stream of (case_id, FrameDetection) records.

    Cases may interleave arbitrarily; results come back in order of
    first appearance. Detections without a ``frame_index`` are numbered
    by position within their case. Returns the measured cases plus a
    (case_id, message) list for cases whose frames were all degenerate.
    Raises EmptySequenceError when the stream has no records at all.
    """
    if aspect <= 0.0:
        raise ValueError(f"aspect ratio must be positive, got {aspect}")
    scale = np.array([aspect, 1.0], dtype=np.float64)

    states: dict[str, _CaseState] = {}
    buffer_pts: list[np.ndarray] = []
    buffer_meta: list[tuple[_CaseState, int]] = []

    def flush():
        if not buffer_pts:
            return
        batch = np.stack(buffer_pts)
        if aspect != 1.0:
            batch = batch * scale
        angles, bad = polyline_angles(batch)
        for row, first_bad, (state, frame_index) in zip(angles, bad, buffer_meta):
            if first_bad >= 0:
                if keep_frames:
                    state.retained.append(
                        FrameMeasurement(
                            frame_index=frame_index,
                            angles=None,
                            valid=False,
                            error_note=f"degenerate middle-line segment {first_bad}",
                        )
                    )
                continue
            angle_set = angle_set_from_row(row)
            state.valid += 1
            if angle_set.frame_angle_deg > state.best_angle:
                state.best_angle = angle_set.frame_angle_deg
                state.best_frame = frame_index
            if keep_frames:
                state.retained.append(
                    FrameMeasurement(
                        frame_index=frame_index, angles=angle_set, valid=True
                    )
                )
        buffer_pts.clear()
        buffer_meta.clear()

    for case_id, det in records:
        state = states.get(case_id)
        if state is None:
            state = states[case_id] = _CaseState()
        index = det.frame_index if det.frame_index is not None else state.total
        state.total += 1
        buffer_pts.append(middle_line(det.keypoints))
        buffer_meta.append((state, index))
        if len(buffer_pts) >= CHUNK_FRAMES:
            flush()
    flush()

    if not states:
        raise EmptySequenceError("no frames in stream")

    cases = []
    failures = []
    for case_id, state in states.items():
        if state.valid == 0:
            failures.append(
                (
                    case_id,
                    f"all {state.total} frames had degenerate geometry",
                )
            )
            continue
        cases.append(
            CaseMeasurement(
                case_id=case_id,
                curvature_deg=state.best_angle,
                argmax_frame=state.best_frame,
                frames_total=state.total,
                frames_valid=state.valid,
                per_frame=tuple(state.retained),
            )
        )
    return cases, failures


def measure_sequence(
    case_id: str,
    frames,
    aspect: float = 1.0,
    keep_frames: bool = True,
) -> CaseMeasurement:
    """Measure every frame of one case and take the maximum angle.

    ``frames`` is any iterable of FrameDetection; detections without a
    ``frame_index`` are numbered by stream position. Ties on the
    maximum resolve to the earliest frame. With ``keep_frames`` false
    the per-frame list is dropped and memory stays bounded regardless
    of stream length.
    """
    try:
        cases, failures = measure_stream(
            ((case_id, det) for det in frames),
            aspect=aspect,
            keep_frames=keep_frames,
        )
    except EmptySequenceError:
        raise EmptySequenceError(f"case {case_id!r}: no frames in stream") from None
    if failures:
        raise AllFramesInvalidError(f"case {case_id!r}: {failures[0][1]}")
    return cases[0]


def measure_single(
    case_id: str, frame: FrameDetection, aspect: float = 1.0
) -> CaseMeasurement:
    """Measure a still image as a one-frame stream."""
    return measure_sequence(case_id, [frame], aspect=aspect)
