"""SVG overlay rendering of a detection and its measured angles.

Draws the three keypoint rows as polylines (the middle line
emphasized), every keypoint as a circle, the bounding box, and a text
block with the four measured angles. The angle that determined the
frame measurement is highlighted. Output is standalone SVG 1.1.
"""

import sys
import xml.etree.ElementTree as ET

import numpy as np

from .annotation import COLS, MIDDLE_ROW, ROWS
from .evaluation import DISPLAY_DECIMALS, round_half_up
from .sequence import AngleSet

SVG_NS = "http://www.w3.org/2000/svg"

DEFAULT_CANVAS_PX = 640

POINT_RADIUS = 4.0
LATERAL_COLOR = "#8a8a8a"
MIDDLE_COLOR = "#d62828"
BOX_COLOR = "#1d6fa5"
LABEL_X = 10.0
LABEL_Y0 = 22.0
LABEL_STEP = 18.0


def _fmt(value: float) -> str:
    return f"{value:g}"


def render_svg(
    box: np.ndarray,
    points: np.ndarray,
    angles: AngleSet,
    image_width: int = DEFAULT_CANVAS_PX,
    image_height: int = DEFAULT_CANVAS_PX,
) -> str:
    """Render one detection, its box (cx, cy, w, h) and (15, 2) keypoints,
    as an SVG document string."""
    if image_width <= 0 or image_height <= 0:
        raise ValueError(
            f"canvas dimensions must be positive, got {image_width}x{image_height}"
        )
    if max(image_width, image_height) > sys.float_info.max:  # an int with no float value
        raise ValueError("canvas dimensions too large for a float")
    ET.register_namespace("", SVG_NS)
    svg = ET.Element(
        f"{{{SVG_NS}}}svg",
        {
            "version": "1.1",
            "width": str(image_width),
            "height": str(image_height),
            "viewBox": f"0 0 {image_width} {image_height}",
        },
    )

    cx, cy, w, h = box.tolist()
    ET.SubElement(
        svg,
        f"{{{SVG_NS}}}rect",
        {
            "x": _fmt((cx - w / 2.0) * image_width),
            "y": _fmt((cy - h / 2.0) * image_height),
            "width": _fmt(w * image_width),
            "height": _fmt(h * image_height),
            "fill": "none",
            "stroke": BOX_COLOR,
            "stroke-dasharray": "6 4",
        },
    )

    pixels = (points * [image_width, image_height]).tolist()
    for row in range(ROWS):
        row_pts = pixels[row * COLS : (row + 1) * COLS]
        is_middle = row == MIDDLE_ROW
        ET.SubElement(
            svg,
            f"{{{SVG_NS}}}polyline",
            {
                "points": " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in row_pts),
                "fill": "none",
                "stroke": MIDDLE_COLOR if is_middle else LATERAL_COLOR,
                "stroke-width": "3" if is_middle else "1.5",
            },
        )
    for index, (x, y) in enumerate(pixels):
        is_middle = index // COLS == MIDDLE_ROW
        ET.SubElement(
            svg,
            f"{{{SVG_NS}}}circle",
            {
                "cx": _fmt(x),
                "cy": _fmt(y),
                "r": _fmt(POINT_RADIUS),
                "fill": MIDDLE_COLOR if is_middle else LATERAL_COLOR,
            },
        )

    deviation_is_max = angles.deviation_deg == angles.frame_angle_deg
    labels = [("deviation", angles.deviation_deg, deviation_is_max)]
    for col, value in enumerate(angles.segment_deg, start=1):
        labels.append(
            (f"bend{col}", value, not deviation_is_max and col == angles.curvature_col)
        )
    for slot, (name, value, highlight) in enumerate(labels):
        shown = round_half_up(value)
        text = ET.SubElement(
            svg,
            f"{{{SVG_NS}}}text",
            {
                "x": _fmt(LABEL_X),
                "y": _fmt(LABEL_Y0 + slot * LABEL_STEP),
                "font-family": "monospace",
                "font-size": "14",
                "fill": MIDDLE_COLOR if highlight else "#222222",
                "font-weight": "bold" if highlight else "normal",
            },
        )
        text.text = f"{name} {shown:.{DISPLAY_DECIMALS}f}°"

    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        + ET.tostring(svg, encoding="unicode")
        + "\n"
    )
