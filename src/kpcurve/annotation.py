"""Parsing, emission, and conversion of the two label representations.

Two formats are supported: YOLO keypoint label lines (one detection per
line, 35 whitespace-separated tokens, everything normalized to [0, 1])
and a minimal CVAT-style XML subset (pixel-space box plus 15 points per
image element). Keypoints are kept in a fixed row-major order: lateral
row 0 first, the middle row 1 second, lateral row 2 last, base to tip
within each row. ``COORD_DECIMALS`` is the one output precision shared
by YOLO label lines, JSONL frame streams and synthetic phantoms.
"""

import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass

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
    """Base class for label parsing and conversion failures."""


class TokenCountError(AnnotationError):
    pass


class NonNumericError(AnnotationError):
    pass


class OutOfRangeError(AnnotationError):
    pass


class NegativeClassError(AnnotationError):
    pass


class MalformedXmlError(AnnotationError):
    pass


class MissingBoxError(AnnotationError):
    pass


class MissingPointsError(AnnotationError):
    pass


class WrongPointCountError(AnnotationError):
    pass


class BadDimensionsError(AnnotationError):
    pass


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box in normalized center/size form."""

    cx: float
    cy: float
    w: float
    h: float


@dataclass(frozen=True, eq=False)
class KeypointSet:
    """The 15 landmarks as a 3-row by 5-column grid, base to tip.

    ``points`` is a read-only (15, 2) float64 array of normalized
    (x, y) pairs in row-major order: row 0 cols 0..4, then row 1 (the
    middle line), then row 2. Construction copies its input, so the
    caller's array is never aliased or frozen, and enforces the shape
    only; range checks belong to the parsers that build it. Equality
    compares the values; a KeypointSet is not hashable.
    """

    points: np.ndarray

    def __post_init__(self):
        points = np.array(self.points, dtype=np.float64)
        if points.shape != (NUM_KEYPOINTS, 2):
            raise WrongPointCountError(
                f"expected ({NUM_KEYPOINTS}, 2) keypoints, got shape {points.shape}"
            )
        points.flags.writeable = False
        object.__setattr__(self, "points", points)

    def __eq__(self, other):
        if not isinstance(other, KeypointSet):
            return NotImplemented
        return np.array_equal(self.points, other.points)


@dataclass(frozen=True)
class FrameDetection:
    """One detection record: class id, box, keypoints, optional frame index."""

    class_id: int
    bbox: BoundingBox
    keypoints: KeypointSet
    frame_index: int | None = None


@dataclass(frozen=True)
class CvatImageAnnotation:
    """Pixel-space annotation of a single image element.

    ``box`` is (xtl, ytl, xbr, ybr); ``points`` holds 15 (x, y) pairs in
    the same row-major order used everywhere else. Values are preserved
    exactly as written in the XML.
    """

    image_name: str
    image_width: int
    image_height: int
    box: tuple[float, float, float, float]
    points: tuple[tuple[float, float], ...]


def parse_yolo_line(line: str) -> FrameDetection:
    """Parse one YOLO keypoint label line into a FrameDetection.

    The line must contain exactly 35 whitespace-separated tokens:
    class id, four box values, then 15 (x, y) keypoint pairs, all
    normalized coordinates in [0, 1].
    """
    tokens = line.split()
    if len(tokens) != YOLO_TOKENS:
        raise TokenCountError(f"expected {YOLO_TOKENS} tokens, got {len(tokens)}")
    try:
        class_id = int(tokens[0])
    except ValueError:
        raise NonNumericError(f"class id {tokens[0]!r} is not an integer") from None
    if class_id < 0:
        raise NegativeClassError(f"class id must be >= 0, got {class_id}")

    values = []
    for pos, token in enumerate(tokens[1:], start=1):
        try:
            value = float(token)
        except ValueError:
            raise NonNumericError(f"token {pos} ({token!r}) is not a number") from None
        if not math.isfinite(value) or value < 0.0 or value > 1.0:
            raise OutOfRangeError(f"token {pos} ({token}) outside [0, 1]")
        values.append(value)

    bbox = BoundingBox(values[0], values[1], values[2], values[3])
    if bbox.w <= 0.0 or bbox.h <= 0.0:
        raise OutOfRangeError("bounding box width and height must be positive")
    keypoints = KeypointSet(np.reshape(values[4:], (NUM_KEYPOINTS, 2)))
    return FrameDetection(class_id=class_id, bbox=bbox, keypoints=keypoints)


def emit_yolo_line(det: FrameDetection) -> str:
    """Format a detection as a YOLO label line (6 decimal places).

    Returns the bare line with no trailing whitespace or newline; file
    writers append the terminator.
    """
    bbox = det.bbox
    values = [bbox.cx, bbox.cy, bbox.w, bbox.h, *det.keypoints.points.ravel().tolist()]
    return " ".join([str(det.class_id), *(f"{v:.{COORD_DECIMALS}f}" for v in values)])


def _dimension(element: ET.Element, name: str) -> int:
    raw = element.get(name)
    if raw is None:
        raise BadDimensionsError(f"image element missing {name!r} attribute")
    try:
        value = int(raw)
    except ValueError:
        raise BadDimensionsError(f"image {name} {raw!r} is not an integer") from None
    if value <= 0:
        raise BadDimensionsError(f"image {name} must be positive, got {value}")
    return value


def _box_attr(box: ET.Element, name: str, image_name: str) -> float:
    raw = box.get(name)
    if raw is None:
        raise MalformedXmlError(f"box in {image_name!r} missing {name!r} attribute")
    try:
        return float(raw)
    except ValueError:
        raise MalformedXmlError(
            f"box attribute {name}={raw!r} in {image_name!r} is not a number"
        ) from None


def _check_pixel_bounds(value: float, limit: float, label: str) -> None:
    if value < -PIXEL_SLACK or value > limit + PIXEL_SLACK:
        raise OutOfRangeError(
            f"{label} = {value} more than {PIXEL_SLACK} px outside [0, {limit}]"
        )


def parse_cvat_xml(document: str) -> list[CvatImageAnnotation]:
    """Extract per-image annotations from a CVAT-style XML document.

    Only ``image`` elements carrying width/height attributes with one
    ``box`` child (xtl/ytl/xbr/ybr) and one ``points`` child (15
    semicolon-separated "x,y" pairs) are consumed; everything else in
    the document is ignored. Pixel values are kept exactly as written,
    but coordinates more than half a pixel outside the image are
    rejected.
    """
    try:
        root = ET.fromstring(document)
    except ET.ParseError as exc:
        raise MalformedXmlError(f"not well-formed XML: {exc}") from None

    annotations = []
    for image in root.iter("image"):
        name = image.get("name")
        if not name:
            raise MalformedXmlError("image element missing 'name' attribute")
        width = _dimension(image, "width")
        height = _dimension(image, "height")

        box = image.find("box")
        if box is None:
            raise MissingBoxError(f"image {name!r} has no box element")
        xtl = _box_attr(box, "xtl", name)
        ytl = _box_attr(box, "ytl", name)
        xbr = _box_attr(box, "xbr", name)
        ybr = _box_attr(box, "ybr", name)
        if not (xtl < xbr and ytl < ybr):
            raise MalformedXmlError(f"box in {name!r} is empty or inverted")

        points_el = image.find("points")
        if points_el is None:
            raise MissingPointsError(f"image {name!r} has no points element")
        raw_points = points_el.get("points", "")
        pairs = []
        for chunk in filter(None, (c.strip() for c in raw_points.split(";"))):
            parts = chunk.split(",")
            if len(parts) != 2:
                raise MalformedXmlError(f"bad point {chunk!r} in {name!r}")
            try:
                pairs.append((float(parts[0]), float(parts[1])))
            except ValueError:
                raise MalformedXmlError(f"bad point {chunk!r} in {name!r}") from None
        if len(pairs) != NUM_KEYPOINTS:
            raise WrongPointCountError(
                f"image {name!r} has {len(pairs)} points, expected {NUM_KEYPOINTS}"
            )

        for label, value, limit in (
            (f"{name}: box xtl", xtl, width),
            (f"{name}: box xbr", xbr, width),
            (f"{name}: box ytl", ytl, height),
            (f"{name}: box ybr", ybr, height),
        ):
            _check_pixel_bounds(value, limit, label)
        for k, (px, py) in enumerate(pairs):
            _check_pixel_bounds(px, width, f"{name}: point {k} x")
            _check_pixel_bounds(py, height, f"{name}: point {k} y")

        annotations.append(
            CvatImageAnnotation(
                image_name=name,
                image_width=width,
                image_height=height,
                box=(xtl, ytl, xbr, ybr),
                points=tuple(pairs),
            )
        )
    return annotations


def _clamp_pixel(value: float, limit: float, label: str) -> float:
    _check_pixel_bounds(value, limit, label)
    return min(max(value, 0.0), limit)


def convert_cvat_to_yolo(ann: CvatImageAnnotation, class_id: int = 0) -> FrameDetection:
    """Normalize a pixel-space annotation into a YOLO-style detection.

    Coordinates up to half a pixel outside the image are clamped to the
    edge; larger excursions raise. The k-th pixel point maps to the k-th
    normalized keypoint.
    """
    if ann.image_width <= 0 or ann.image_height <= 0:
        raise BadDimensionsError(
            f"image dimensions must be positive, got "
            f"{ann.image_width}x{ann.image_height}"
        )
    if class_id < 0:
        raise NegativeClassError(f"class id must be >= 0, got {class_id}")

    w, h = float(ann.image_width), float(ann.image_height)
    name = ann.image_name
    xtl = _clamp_pixel(ann.box[0], w, f"{name}: box xtl")
    ytl = _clamp_pixel(ann.box[1], h, f"{name}: box ytl")
    xbr = _clamp_pixel(ann.box[2], w, f"{name}: box xbr")
    ybr = _clamp_pixel(ann.box[3], h, f"{name}: box ybr")
    bbox = BoundingBox(
        cx=(xtl + xbr) / (2.0 * w),
        cy=(ytl + ybr) / (2.0 * h),
        w=(xbr - xtl) / w,
        h=(ybr - ytl) / h,
    )
    normalized = []
    for k, (px, py) in enumerate(ann.points):
        cx = _clamp_pixel(px, w, f"{name}: point {k} x")
        cy = _clamp_pixel(py, h, f"{name}: point {k} y")
        normalized.append((cx / w, cy / h))
    return FrameDetection(
        class_id=class_id,
        bbox=bbox,
        keypoints=KeypointSet(normalized),
    )
