"""Aggregation of per-frame angles into per-case measurements.

A case is a stream of detections from one video (or a single still).
Each frame is measured independently; the case-level curvature is the
maximum frame angle across the stream. The maximum compensates for
yaw about the shaft's base axis: foreshortening across that axis
shrinks a bend of up to 90 degrees, so the frontal-most view reads the
true bend. It over-reads otherwise: foreshortening along the axis
(camera pitch) widens a bend, and so does yaw on a bend past 90 degrees.

Frames whose geometry is degenerate (coincident keypoints) are marked
invalid and skipped rather than failing the case; only a case with
zero valid frames is an error. :func:`measure_stream` consumes frame
batches ``(case_ids, frame_indices, middle_lines)`` of up to
``CHUNK_FRAMES`` frames, as :func:`kpcurve.report.iter_frame_stream`
yields them from JSONL (a still image is one batch of one frame).
It runs the angle kernel once per batch, cases interleaving freely
within and across batches, then reduces frame by frame. The reduction
is a per-case maximum, ties going to the lowest frame index, so neither
batch size nor stream order changes any result.
"""

from dataclasses import dataclass, field

import numpy as np

from ._kernels import polyline_angles
from .geometry import AngleSet, angle_set_from_row
from .geometry import middle_line  # noqa: F401  a call site perfbench traces by name

# frames per batch, read when a batch producer starts; bounds how many
# parsed lines (~2.9 KB each) are held at once
CHUNK_FRAMES = 256


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
    ``argmax_frame`` the lowest frame index attaining it, whatever the
    stream order. ``per_frame`` is empty when frame retention was
    disabled.
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
    batches,
    aspect: float = 1.0,
    keep_frames: bool = True,
) -> tuple[list[CaseMeasurement], list[tuple[str, str]]]:
    """Measure a stream of frame batches.

    Each batch is ``(case_ids, frame_indices, middle_lines)``: per frame
    a case id, a frame index and an (n, 5, 2) array of middle-row
    keypoints. Cases may interleave arbitrarily; results come back in
    order of first appearance. An ``AngleSet`` is built only for frames
    that are retained (``keep_frames``). Returns the measured cases plus
    a (case_id, message) list for cases whose frames were all
    degenerate. Raises EmptySequenceError when the stream has no frames
    at all.
    """
    if aspect <= 0.0:
        raise ValueError(f"aspect ratio must be positive, got {aspect}")
    scale = np.array([aspect, 1.0], dtype=np.float64)

    states: dict[str, _CaseState] = {}
    for case_ids, frame_indices, lines in batches:
        if aspect != 1.0:
            lines = lines * scale
        angles, bad = polyline_angles(lines)
        frame_max = angles.max(axis=1).tolist()
        for row, case_id, frame_index, angle, first_bad in zip(
            angles, case_ids, frame_indices, frame_max, bad.tolist()
        ):
            state = states.get(case_id)
            if state is None:
                state = states[case_id] = _CaseState()
            state.total += 1
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
            state.valid += 1
            if angle > state.best_angle or (
                angle == state.best_angle and frame_index < state.best_frame
            ):
                state.best_angle = angle
                state.best_frame = frame_index
            if keep_frames:
                angle_set = angle_set_from_row(row)
                state.retained.append(FrameMeasurement(frame_index, angle_set, True))

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
