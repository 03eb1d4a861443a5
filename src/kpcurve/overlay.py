"""SVG overlay rendering of a detection and its measured angles.

Draws the three keypoint rows as polylines (the middle line
emphasized), every keypoint as a circle, the bounding box, and a text
block with the four measured angles. The angle that determined the
frame measurement is highlighted. Output is standalone SVG 1.1.

The document is written as text, not built as a tree. Every attribute
value is an int, a ``:g``-formatted float or a fixed string, and every
label is a name, a fixed-point number and a degree sign, so none of the
characters XML escapes (``&``, ``<``, ``>``, ``"``) can occur and no
value is escaped.
"""

import sys

import numpy as np

from .annotation import COLS, MIDDLE_ROW, ROWS
from .evaluation import DISPLAY_DECIMALS, round_half_up
from .sequence import angle_set_from_row

SVG_NS = "http://www.w3.org/2000/svg"

POINT_RADIUS = 4.0
LATERAL_COLOR = "#8a8a8a"
MIDDLE_COLOR = "#d62828"
BOX_COLOR = "#1d6fa5"
LABEL_X = 10.0
LABEL_Y0 = 22.0
LABEL_STEP = 18.0


def render_svg(
    box: np.ndarray,
    points: np.ndarray,
    angles: np.ndarray,
    image_width: int,
    image_height: int,
) -> str:
    """Render one detection, its box (cx, cy, w, h) and (15, 2) keypoints,
    as an SVG document string; ``angles`` is the frame's kernel row
    (deviation, bend 1, bend 2, bend 3)."""
    if image_width <= 0 or image_height <= 0:
        raise ValueError(
            f"canvas dimensions must be positive, got {image_width}x{image_height}"
        )
    if max(image_width, image_height) > sys.float_info.max:  # an int with no float value
        raise ValueError("canvas dimensions too large for a float")
    # only ints, :g floats and fixed strings go into the text: nothing to escape
    cx, cy, w, h = box.tolist()
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="{SVG_NS}" version="1.1" width="{image_width}" height="{image_height}"'
        f' viewBox="0 0 {image_width} {image_height}">'
        f'<rect x="{(cx - w / 2.0) * image_width:g}" y="{(cy - h / 2.0) * image_height:g}"'
        f' width="{w * image_width:g}" height="{h * image_height:g}"'
        f' fill="none" stroke="{BOX_COLOR}" stroke-dasharray="6 4" />'
    ]
    pixels = [(f"{x:g}", f"{y:g}") for x, y in (points * [image_width, image_height]).tolist()]
    for row in range(ROWS):
        row_pts = " ".join(f"{x},{y}" for x, y in pixels[row * COLS : (row + 1) * COLS])
        stroke, width = (MIDDLE_COLOR, "3") if row == MIDDLE_ROW else (LATERAL_COLOR, "1.5")
        parts.append(
            f'<polyline points="{row_pts}" fill="none" stroke="{stroke}" stroke-width="{width}" />'
        )
    for index, (x, y) in enumerate(pixels):
        fill = MIDDLE_COLOR if index // COLS == MIDDLE_ROW else LATERAL_COLOR
        parts.append(f'<circle cx="{x}" cy="{y}" r="{POINT_RADIUS:g}" fill="{fill}" />')

    deviation, segments, frame_angle, curvature_col = angle_set_from_row(angles)
    highlighted = "deviation" if deviation == frame_angle else f"bend{curvature_col}"
    labels = [("deviation", deviation)]
    labels += [(f"bend{col}", value) for col, value in enumerate(segments, start=1)]
    for slot, (name, value) in enumerate(labels):
        fill, weight = (MIDDLE_COLOR, "bold") if name == highlighted else ("#222222", "normal")
        parts.append(
            f'<text x="{LABEL_X:g}" y="{LABEL_Y0 + slot * LABEL_STEP:g}" font-family="monospace"'
            f' font-size="14" fill="{fill}" font-weight="{weight}">'
            f"{name} {round_half_up(value):.{DISPLAY_DECIMALS}f}°</text>"
        )
    parts.append("</svg>\n")
    return "".join(parts)
