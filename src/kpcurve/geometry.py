"""Angle measurement along the middle keypoint line.

A detection's curvature is read from the five middle-row landmarks
P0..P4 (base to tip). Four angles are computed between pairs of the
four segments they span: the deviation angle between the first and
last segments, and three segment angles between consecutive segments
meeting at the interior points. The frame-level angle is the largest
of the four, which keeps the measurement sensitive to both gradual
arcs and a sharp local kink.

Coordinates arrive normalized per axis, so angles are distorted on
non-square images unless x is rescaled by the width/height ratio
first; ``compute_angles`` takes an ``aspect`` parameter (default 1.0)
for that.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import EPSILON, polyline_angles
from .annotation import COLS, MIDDLE_ROW, KeypointSet


class DegenerateVectorError(ValueError):
    """A direction vector shorter than the degeneracy threshold."""

    def __init__(self, segment: int):
        self.segment = segment
        super().__init__(
            f"middle-line segment {segment} shorter than {EPSILON}; angle undefined"
        )


@dataclass(frozen=True)
class AngleSet:
    """The four angles, in degrees, measured on one middle line.

    ``deviation_deg`` compares the base segment P0P1 with the tip
    segment P3P4. ``segment_deg`` holds the angles between consecutive
    segments meeting at interior points P1, P2, P3. ``frame_angle_deg``
    is the maximum of all four; ``curvature_col`` is the grid column
    (1, 2, or 3) of the interior point with the largest segment angle,
    ties resolving to the lowest column.
    """

    deviation_deg: float
    segment_deg: tuple[float, float, float]
    frame_angle_deg: float
    curvature_col: int


def vector_angle(a, b, c, d) -> float:
    """Unsigned angle in degrees between vectors b-a and d-c.

    Computed as atan2(|cross|, dot), the same formula as the batch
    kernel, so the result is always in [0, 180]. Raises
    DegenerateVectorError when either vector is shorter than the
    degeneracy threshold (segment 0 for b-a, segment 1 for d-c).
    """
    ax, ay = float(b[0]) - float(a[0]), float(b[1]) - float(a[1])
    bx, by = float(d[0]) - float(c[0]), float(d[1]) - float(c[1])
    if math.hypot(ax, ay) < EPSILON:
        raise DegenerateVectorError(0)
    if math.hypot(bx, by) < EPSILON:
        raise DegenerateVectorError(1)
    return math.degrees(math.atan2(abs(ax * by - ay * bx), ax * bx + ay * by))


def middle_line(keypoints: KeypointSet) -> np.ndarray:
    """The middle row as a read-only (5, 2) view of ``points``, base to tip.

    This is the one accessor of the middle row. Coordinates pass through
    unchanged; aspect correction is applied by the angle computation,
    not here.
    """
    return keypoints.points[MIDDLE_ROW * COLS : (MIDDLE_ROW + 1) * COLS]


def angle_set_from_row(row: np.ndarray) -> AngleSet:
    """Assemble an AngleSet from one kernel output row."""
    values = [float(v) for v in row]
    segments = values[1:]
    col = 1 + int(np.argmax(segments))  # ties resolve to the lowest column
    return AngleSet(
        deviation_deg=values[0],
        segment_deg=(segments[0], segments[1], segments[2]),
        frame_angle_deg=max(values),
        curvature_col=col,
    )


def line_angles(points: np.ndarray, aspect: float = 1.0) -> AngleSet:
    """Compute the four angles of one (5, 2) middle-line array."""
    if aspect <= 0.0:
        raise ValueError(f"aspect ratio must be positive, got {aspect}")
    pts = np.asarray(points, dtype=np.float64)
    if pts.shape != (5, 2):
        raise ValueError(f"expected (5, 2) array, got {pts.shape}")
    if aspect != 1.0:
        pts = pts * np.array([aspect, 1.0])
    angles, bad = polyline_angles(pts[np.newaxis])
    if bad[0] >= 0:
        raise DegenerateVectorError(int(bad[0]))
    return angle_set_from_row(angles[0])


def compute_angles(keypoints: KeypointSet, aspect: float = 1.0) -> AngleSet:
    """Measure the four curvature angles of a detection's middle line."""
    return line_angles(middle_line(keypoints), aspect=aspect)
