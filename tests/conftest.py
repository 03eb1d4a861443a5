"""Shared fixtures and builders for the test suite."""

import io
import json
import math
from typing import NamedTuple

import numpy as np
import pytest

from kpcurve import report
from kpcurve.report import RunConfig, dumps_frame, dumps_report, measurement_report
from kpcurve.sequence import (
    EPSILON,
    DegenerateProjectionError,
    angle_set_from_row,
    measure_stream,
)


def vector_angle(a, b, c, d) -> float:
    """Unsigned angle in degrees between vectors b-a and d-c: the tests' oracle.

    Computed as atan2(|cross|, dot) in scalar Python floats, so the
    result is always in [0, 180]. Raises ValueError naming the vector
    (segment 0 for b-a, segment 1 for d-c) when either is shorter than
    the kernel's degeneracy threshold.
    """
    ax, ay = float(b[0]) - float(a[0]), float(b[1]) - float(a[1])
    bx, by = float(d[0]) - float(c[0]), float(d[1]) - float(c[1])
    for segment, (x, y) in enumerate([(ax, ay), (bx, by)]):
        if math.hypot(x, y) < EPSILON:
            raise ValueError(f"segment {segment} shorter than {EPSILON}; angle undefined")
    return math.degrees(math.atan2(abs(ax * by - ay * bx), ax * bx + ay * by))


class LineAngles(NamedTuple):
    """The four angles of one frame, in degrees, and its frame rules.

    ``deviation_deg`` compares the base segment P0P1 with the tip
    segment P3P4. ``segment_deg`` holds the angles between consecutive
    segments meeting at interior points P1, P2, P3. ``frame_angle_deg``
    and ``curvature_col`` follow ``sequence.frame_rules``.
    """

    deviation_deg: float
    segment_deg: tuple[float, float, float]
    frame_angle_deg: float
    curvature_col: int


def line_angles(points, aspect: float = 1.0) -> LineAngles:
    """The angles ``measure_stream`` gives a (5, 2) middle line as a one-frame case.

    The line is the middle row of a grid whose three rows are all that
    line. The angles are read from the case's frame columns, the frame's kernel row
    through ``angle_set_from_row``. Raises DegenerateProjectionError when a
    segment of the line is degenerate.
    """
    batch = (["line"], [0], np.tile(np.asarray(points, dtype=np.float64), (3, 1))[None])
    cases, failures = measure_stream([batch], aspect=aspect)
    if failures:
        raise DegenerateProjectionError(failures[0][1])
    return LineAngles(*angle_set_from_row(cases[0].per_frame.angles[0]))


def report_text(document) -> str:
    """The text ``dumps_report`` writes for ``document``."""
    out = io.StringIO()
    dumps_report(document, out)
    return out.getvalue()


def per_frame_rows(case) -> list[dict]:
    """The ``per_frame`` rows a measurement report writes for ``case``."""
    document = measurement_report([case], RunConfig())
    return json.loads(report_text(document))["cases"][0]["per_frame"]


def hinge_polyline(bend_deg: float, vertex: int = 2) -> np.ndarray:
    """A 5-point polyline straight along +x with one bend at an interior point.

    Unit-length segments; the direction turns by ``bend_deg`` at the
    given vertex and continues straight, so every angle except the one
    at the vertex (and the deviation) is zero.
    """
    turn = math.radians(bend_deg)
    direction = np.array([1.0, 0.0])
    bent = np.array([math.cos(turn), math.sin(turn)])
    pts = np.zeros((5, 2))
    for i in range(1, 5):
        step = direction if i <= vertex else bent
        pts[i] = pts[i - 1] + step
    return pts


def normalize_unit(points: np.ndarray, decimals: int | None = None) -> np.ndarray:
    """Fit points into the unit square with a 10% margin, optionally rounding."""
    pts = np.asarray(points, dtype=np.float64)
    mins = pts.min(axis=0)
    extent = (pts.max(axis=0) - mins).max()
    fitted = (pts - mins) / extent * 0.8 + 0.1
    return np.round(fitted, decimals) if decimals is not None else fitted


def detection_from_middle(middle: np.ndarray, offset: float = 0.02):
    """Wrap a (5, 2) middle line into a detection: its box (cx, cy, w, h)
    and (15, 2) keypoints.

    Lateral rows are the middle line shifted by a small y offset, which
    never affects middle-line angle computations.
    """
    mid = np.asarray(middle, dtype=np.float64)
    rows = [mid + np.array([0.0, -offset]), mid, mid + np.array([0.0, offset])]
    pts = np.concatenate(rows)
    pts = np.clip(pts, 0.0, 1.0)
    xs, ys = pts[:, 0], pts[:, 1]
    box = np.array(
        [
            (xs.min() + xs.max()) / 2,
            (ys.min() + ys.max()) / 2,
            max(xs.max() - xs.min(), 1e-3),
            max(ys.max() - ys.min(), 1e-3),
        ]
    )
    return box, pts


def detection_with_angle(bend_deg: float, vertex: int = 2):
    """A detection whose middle line measures exactly-ish bend_deg."""
    return detection_from_middle(normalize_unit(hinge_polyline(bend_deg, vertex)))


def frame_line(case_id: str, det, frame_index: int) -> str:
    """One detection ``(box, points)`` as a JSONL frame line without its newline.

    A batch of one row for ``dumps_frame``, the synth stream writer.
    """
    box, points = det
    return dumps_frame(case_id, [box], points[None], [frame_index])[:-1]


def detection_batches(records):
    """Batch ``(case_id, frame_index, points)`` records for ``measure_stream``.

    Batches of whole (15, 2) grids hold up to ``report.CHUNK_FRAMES``
    frames (read at the first ``next()``), as the JSONL parser's do. A ``frame_index`` of
    None is numbered by position within its case.
    """
    size = report.CHUNK_FRAMES
    positions: dict[str, int] = {}
    case_ids, frame_indices, grids = [], [], []
    for case_id, frame_index, points in records:
        position = positions.get(case_id, 0)
        positions[case_id] = position + 1
        case_ids.append(case_id)
        frame_indices.append(position if frame_index is None else frame_index)
        grids.append(points)
        if len(grids) >= size:
            yield case_ids, frame_indices, np.array(grids)
            case_ids, frame_indices, grids = [], [], []
    if grids:
        yield case_ids, frame_indices, np.array(grids)


def measure_sequence(case_id, frames, aspect=1.0, keep_frames=True, frame_indices=None):
    """``measure_stream`` over the detections of one case.

    Frames are numbered by position unless ``frame_indices`` gives
    their indices. Raises ValueError for no frames, as a case of none has
    no measurement, and DegenerateProjectionError when every frame is degenerate.
    """
    if not frames:
        raise ValueError(f"case {case_id!r}: no frames")
    if frame_indices is None:
        frame_indices = range(len(frames))
    records = [(case_id, index, points) for index, (_, points) in zip(frame_indices, frames)]
    cases, failures = measure_stream(
        detection_batches(records), aspect=aspect, keep_frames=keep_frames
    )
    if failures:
        raise DegenerateProjectionError(f"case {case_id!r}: {failures[0][1]}")
    return cases[0]


CVAT_DOCUMENT = """<?xml version="1.0" encoding="utf-8"?>
<annotations>
  <version>1.1</version>
  <meta>
    <task><name>demo</name><size>2</size></task>
  </meta>
  <image id="0" name="case_a_0001.png" width="1280" height="720">
    <box label="shaft" xtl="100.5" ytl="50.25" xbr="900.75" ybr="600.5" occluded="0"/>
    <points label="grid" points="120,80;300,90;500,100;700,110;880,120;130,300;310,310;510,320;710,330;890,340;140,520;320,530;520,540;720,550;895,560"/>
  </image>
  <image id="1" name="case_b_0001.png" width="640" height="480">
    <box label="shaft" xtl="0" ytl="0" xbr="640" ybr="480"/>
    <points label="grid" points="10,20;110,30;210,40;310,50;410,60;15,200;115,210;215,220;315,230;415,240;20,380;120,390;220,400;320,410;420,420"/>
  </image>
</annotations>
"""


@pytest.fixture
def cvat_document() -> str:
    return CVAT_DOCUMENT
