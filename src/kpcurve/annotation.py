"""Parsing and emission of the two label representations.

Two formats are read: YOLO keypoint label lines (one detection per
line, 35 whitespace-separated tokens, everything normalized to [0, 1])
and a minimal CVAT-style XML subset (pixel-space box plus 15 points per
image element). A detection is a pair of float64 arrays, the same in
every format: a box ``(cx, cy, w, h)`` of shape (4,) and keypoints of
shape (15, 2), normalized (x, y) pairs. Both parsers reach that pair in
one pass: :func:`parse_cvat_xml` reads, checks, clamps and normalizes
each pixel value of an image once. Every label error is an
:class:`AnnotationError`. Keypoints are kept in a fixed row-major
order: lateral row 0 first, the middle row 1 second, lateral row 2
last, base to tip within each row. ``COORD_DECIMALS`` is the one
output precision shared by YOLO label lines, JSONL frame streams and
synthetic phantoms.
"""

import math

import numpy as np

ROWS = 3
COLS = 5
NUM_KEYPOINTS = ROWS * COLS
MIDDLE_ROW = 1
YOLO_TOKENS = 1 + 4 + 2 * NUM_KEYPOINTS
COORD_DECIMALS = 6

# annotation tools jitter box corners slightly past the image edge;
# anything beyond this is treated as bad data rather than clamped
PIXEL_SLACK = 0.5


class AnnotationError(ValueError):
    """A label line or CVAT document that cannot be read."""


def parse_yolo_line(line: str) -> tuple[np.ndarray, np.ndarray]:
    """The box and keypoints of one YOLO keypoint label line.

    The line must contain exactly 35 whitespace-separated tokens:
    class id, four box values, then 15 (x, y) keypoint pairs, all
    normalized coordinates in [0, 1]. The class id is checked, then
    dropped.
    """
    tokens = line.split()
    if len(tokens) != YOLO_TOKENS:
        raise AnnotationError(f"expected {YOLO_TOKENS} tokens, got {len(tokens)}")
    try:
        class_id = int(tokens[0])
    except ValueError:
        raise AnnotationError(f"class id {tokens[0]!r} is not an integer") from None
    if class_id < 0:
        raise AnnotationError(f"class id must be >= 0, got {class_id}")

    values = []
    for pos, token in enumerate(tokens[1:], start=1):
        try:
            value = float(token)
        except ValueError:
            raise AnnotationError(f"token {pos} ({token!r}) is not a number") from None
        if not math.isfinite(value) or value < 0.0 or value > 1.0:
            raise AnnotationError(f"token {pos} ({token}) outside [0, 1]")
        values.append(value)

    if values[2] <= 0.0 or values[3] <= 0.0:
        raise AnnotationError("bounding box width and height must be positive")
    return np.array(values[:4]), np.reshape(values[4:], (NUM_KEYPOINTS, 2))


def emit_yolo_line(class_id: int, box, points) -> str:
    """Format a detection as a YOLO label line (6 decimal places).

    ``box`` is (cx, cy, w, h) and ``points`` the (15, 2) keypoints.
    Returns the bare line with no trailing whitespace or newline; file
    writers append the terminator. Raises AnnotationError for a negative
    ``class_id``.
    """
    if class_id < 0:
        raise AnnotationError(f"class id must be >= 0, got {class_id}")
    values = [*np.ravel(box).tolist(), *np.ravel(points).tolist()]
    return " ".join([str(class_id), *(f"{v:.{COORD_DECIMALS}f}" for v in values)])


def _dimension(element, name: str) -> int:
    raw = element.get(name)
    if raw is None:
        raise AnnotationError(f"image element missing {name!r} attribute")
    try:
        value = int(raw)
    except ValueError:
        raise AnnotationError(f"image {name} {raw!r} is not an integer") from None
    if value <= 0:
        raise AnnotationError(f"image {name} must be positive, got {value}")
    return value


def _box_attr(box, name: str, image_name: str) -> float:
    raw = box.get(name)
    if raw is None:
        raise AnnotationError(f"box in {image_name!r} missing {name!r} attribute")
    try:
        return float(raw)
    except ValueError:
        raise AnnotationError(
            f"box attribute {name}={raw!r} in {image_name!r} is not a number"
        ) from None


def _clamped(value: float, limit: int, label: str) -> float:
    """A pixel value clamped to [0, limit].

    A value more than PIXEL_SLACK outside, or NaN, raises instead.
    """
    if not -PIXEL_SLACK <= value <= limit + PIXEL_SLACK:
        raise AnnotationError(
            f"{label} = {value} more than {PIXEL_SLACK} px outside [0, {limit}]"
        )
    return min(max(value, 0.0), limit)


def parse_cvat_xml(document: str) -> list[tuple[str, np.ndarray, np.ndarray]]:
    """Each image's name, normalized box and keypoints, from a CVAT-style XML document.

    Only ``image`` elements carrying width/height attributes with one
    ``box`` child (xtl/ytl/xbr/ybr) and one ``points`` child (15
    semicolon-separated "x,y" pairs) are consumed; everything else in
    the document is ignored. Within an image the box is checked xtl,
    xbr, ytl, ybr, then its size, then the points. A coordinate up to
    half a pixel outside the image is clamped to the edge; a larger
    excursion raises, as does a box whose clamped width or height is not
    positive at ``COORD_DECIMALS`` decimals, so every label written has
    a box that :func:`parse_yolo_line` accepts. The k-th pixel point
    maps to the k-th normalized keypoint.
    """
    import xml.etree.ElementTree as ET  # here, so that only ``convert`` loads an XML parser

    try:
        root = ET.fromstring(document)
    except ET.ParseError as exc:
        raise AnnotationError(f"not well-formed XML: {exc}") from None

    detections = []
    for image in root.iter("image"):
        name = image.get("name")
        if not name:
            raise AnnotationError("image element missing 'name' attribute")
        width = _dimension(image, "width")
        height = _dimension(image, "height")

        box = image.find("box")
        if box is None:
            raise AnnotationError(f"image {name!r} has no box element")
        xtl, xbr, ytl, ybr = (
            _clamped(_box_attr(box, key, name), limit, f"{name}: box {key}")
            for key, limit in (("xtl", width), ("xbr", width), ("ytl", height), ("ybr", height))
        )
        w, h = float(width), float(height)
        box_w, box_h = (xbr - xtl) / w, (ybr - ytl) / h
        # the size as written: a box wholly inside the slack past an edge is empty
        if not (round(box_w, COORD_DECIMALS) > 0.0 and round(box_h, COORD_DECIMALS) > 0.0):
            raise AnnotationError(f"box in {name!r} is empty or inverted")

        points_el = image.find("points")
        if points_el is None:
            raise AnnotationError(f"image {name!r} has no points element")
        raw_points = points_el.get("points", "")
        pairs = []
        for chunk in filter(None, (c.strip() for c in raw_points.split(";"))):
            parts = chunk.split(",")
            if len(parts) != 2:
                raise AnnotationError(f"bad point {chunk!r} in {name!r}")
            try:
                pairs.append((float(parts[0]), float(parts[1])))
            except ValueError:
                raise AnnotationError(f"bad point {chunk!r} in {name!r}") from None
        if len(pairs) != NUM_KEYPOINTS:
            raise AnnotationError(
                f"image {name!r} has {len(pairs)} points, expected {NUM_KEYPOINTS}"
            )

        normalized = [
            (
                _clamped(px, width, f"{name}: point {k} x") / w,
                _clamped(py, height, f"{name}: point {k} y") / h,
            )
            for k, (px, py) in enumerate(pairs)
        ]
        box_values = [(xtl + xbr) / (2.0 * w), (ytl + ybr) / (2.0 * h), box_w, box_h]
        detections.append((name, np.array(box_values), np.array(normalized)))
    return detections
