"""Batch angle kernel over middle-line polylines.

Input is an (n, 5, 2) float64 array of middle-line points in image
coordinates (aspect correction already applied). Output is an (n, 4)
angle array in degrees ordered deviation, bend 1, bend 2, bend 3, plus
an (n,) int64 array marking the first degenerate segment per frame
(-1 when none). Rows flagged degenerate have NaN angles.

Each angle is ``atan2(|cross|, dot)`` of the two segment vectors. Unlike
arccos of a normalized dot product, this needs no division and no clip,
and stays accurate across the whole range [0, 180], including bends
near 0 or 180 degrees where arccos loses most of its digits (W. Kahan,
"How Futile are Mindless Assessments of Roundoff in Floating-Point
Computation?", 2006).
"""

import numpy as np

EPSILON = 1e-9

# segment index pairs compared per angle: the deviation angle uses the
# first and last segments, the bend angles use consecutive segments
_FIRST = [0, 0, 1, 2]
_SECOND = [3, 1, 2, 3]


def polyline_angles(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Four angles per polyline plus the first degenerate segment index."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 3 or pts.shape[1:] != (5, 2):
        raise ValueError(f"expected (n, 5, 2) array, got {pts.shape}")

    seg = pts[:, 1:, :] - pts[:, :-1, :]  # (n, 4, 2)
    degenerate = np.sqrt(np.sum(seg * seg, axis=2)) < EPSILON
    bad = np.where(
        degenerate.any(axis=1), np.argmax(degenerate, axis=1), -1
    ).astype(np.int64)

    u = seg[:, _FIRST, :]  # (n, 4, 2)
    v = seg[:, _SECOND, :]
    cross = u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]
    dot = u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1]
    angles = np.degrees(np.arctan2(np.abs(cross), dot))
    angles[bad >= 0] = np.nan
    return angles, bad
