"""Synthetic planar-hinge phantom generator.

Builds a parameterized shaft model (three 5-point polylines: a center
line plus two laterals) that is straight except for a single in-plane
bend of known angle, then renders it through a rotating orthographic
camera into keypoint frames. Because the bend angle and its projection
are known in closed form, the generated frames carry exact oracle
values for validating the measurement chain end to end.

Geometry: the shaft base runs along +y (the vertical camera yaw axis)
and the bend deflects in the x-y plane, so yaw rotation foreshortens
the apparent bend. The lateral lines are offset along z (the viewing
axis at the frontal pose), so they project onto the center line at
yaw 0 and separate as the camera swings.
"""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from ._kernels import EPSILON
from .annotation import COORD_DECIMALS, BoundingBox, FrameDetection, KeypointSet
from .geometry import middle_line

DEFAULT_LENGTH_CM = 5.5
DEFAULT_WIDTH_CM = 1.5
DEFAULT_IMAGE_SIZE = 640
FIT_MARGIN = 0.1

# arc-length fractions of the five keypoints along each line
LINE_FRACTIONS = (0.0, 0.25, 0.5, 0.75, 1.0)
INTERIOR_FRACTIONS = (0.25, 0.5, 0.75)


class BadSpecError(ValueError):
    pass


class BadPoseError(ValueError):
    pass


class DegenerateProjectionError(ValueError):
    pass


@dataclass(frozen=True)
class HingeModelSpec:
    """Parameters of a single-bend shaft phantom."""

    hinge_angle_deg: float
    length_cm: float = DEFAULT_LENGTH_CM
    width_cm: float = DEFAULT_WIDTH_CM
    hinge_position: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.hinge_angle_deg < 180.0:
            raise BadSpecError(
                f"hinge angle {self.hinge_angle_deg} outside [0, 180)"
            )
        if self.length_cm <= 0.0:
            raise BadSpecError(f"length {self.length_cm} must be positive")
        if self.width_cm <= 0.0:
            raise BadSpecError(f"width {self.width_cm} must be positive")
        if not 0.0 < self.hinge_position < 1.0:
            raise BadSpecError(
                f"hinge position {self.hinge_position} must be strictly interior"
            )

    @property
    def snapped_position(self) -> float:
        """Hinge position snapped to the nearest interior keypoint.

        Snapping keeps the bend vertex on a sampled point, which makes
        the true angle recoverable from five samples.
        """
        return min(INTERIOR_FRACTIONS, key=lambda f: (abs(f - self.hinge_position), f))


@dataclass(frozen=True)
class CameraPose:
    """Orthographic camera orientation; yaw about vertical, then pitch."""

    yaw_deg: float = 0.0
    pitch_deg: float = 0.0

    def __post_init__(self):
        for name, value in (("yaw", self.yaw_deg), ("pitch", self.pitch_deg)):
            if not -90.0 < value < 90.0:
                raise BadPoseError(
                    f"{name} {value} outside (-90, 90); model self-occludes"
                )


@dataclass(frozen=True)
class SynthFrame:
    """A generated detection with its pose and oracle angle."""

    detection: FrameDetection
    pose: CameraPose
    true_apparent_deg: float


def build_model(spec: HingeModelSpec) -> np.ndarray:
    """Construct the three 5-point 3D polylines of the phantom.

    Returns a (3, 5, 3) array in keypoint row order: lateral, center,
    lateral. The center line starts at the origin along +y, bends by
    the hinge angle at the snapped interior point, and continues in
    the x-y plane; laterals are the center line offset by half the
    width along +/-z.
    """
    beta = math.radians(spec.hinge_angle_deg)
    snap = spec.snapped_position
    length = spec.length_cm
    hinge = np.array([0.0, length * snap, 0.0])
    pre_dir = np.array([0.0, 1.0, 0.0])
    post_dir = np.array([math.sin(beta), math.cos(beta), 0.0])

    center = np.empty((5, 3), dtype=np.float64)
    for i, frac in enumerate(LINE_FRACTIONS):
        if frac <= snap:
            center[i] = pre_dir * (length * frac)
        else:
            center[i] = hinge + post_dir * (length * (frac - snap))

    offset = np.array([0.0, 0.0, spec.width_cm / 2.0])
    return np.stack([center + offset, center, center - offset])


def _rotation(pose: CameraPose) -> np.ndarray:
    """World-to-camera rotation: yaw about y, then pitch about x."""
    cy, sy = math.cos(math.radians(pose.yaw_deg)), math.sin(math.radians(pose.yaw_deg))
    cp, sp = math.cos(math.radians(pose.pitch_deg)), math.sin(
        math.radians(pose.pitch_deg)
    )
    rot_yaw = np.array([[cy, 0.0, sy], [0.0, 1.0, 0.0], [-sy, 0.0, cy]])
    rot_pitch = np.array([[1.0, 0.0, 0.0], [0.0, cp, -sp], [0.0, sp, cp]])
    return rot_pitch @ rot_yaw


def _planar_angle_deg(u: np.ndarray, v: np.ndarray) -> float:
    """Unsigned angle between two 2D vectors via atan2, in degrees."""
    nu = math.hypot(u[0], u[1])
    nv = math.hypot(v[0], v[1])
    if nu < EPSILON or nv < EPSILON:
        raise DegenerateProjectionError(
            "projected bend direction collapsed below the degeneracy threshold"
        )
    cross = u[0] * v[1] - u[1] * v[0]
    dot = u[0] * v[0] + u[1] * v[1]
    return abs(math.degrees(math.atan2(cross, dot)))


def _quantized_detection(coords: np.ndarray, class_id: int = 0) -> FrameDetection:
    """Round normalized (15, 2) coordinates and wrap as a detection."""
    snapped = np.round(coords, COORD_DECIMALS)
    xs, ys = snapped[:, 0], snapped[:, 1]
    xtl, xbr = float(xs.min()), float(xs.max())
    ytl, ybr = float(ys.min()), float(ys.max())
    bbox = BoundingBox(
        cx=round((xtl + xbr) / 2.0, COORD_DECIMALS),
        cy=round((ytl + ybr) / 2.0, COORD_DECIMALS),
        w=round(xbr - xtl, COORD_DECIMALS),
        h=round(ybr - ytl, COORD_DECIMALS),
    )
    return FrameDetection(
        class_id=class_id,
        bbox=bbox,
        keypoints=KeypointSet(snapped),
    )


def project(
    model: np.ndarray,
    pose: CameraPose,
    image_width: int = DEFAULT_IMAGE_SIZE,
    image_height: int = DEFAULT_IMAGE_SIZE,
) -> SynthFrame:
    """Render the model at a pose into a normalized keypoint frame.

    The rotated model is orthographically projected (depth dropped),
    flipped to image-down y, uniformly scaled and centered into the
    frame with a 10% margin, normalized by the image size, and rounded
    to the serialization precision. The oracle angle is the projected
    angle between the pre-bend and post-bend center-line directions at
    full precision.
    """
    if image_width <= 0 or image_height <= 0:
        raise BadSpecError(
            f"image dimensions must be positive, got {image_width}x{image_height}"
        )
    rot = _rotation(pose)
    pts = np.asarray(model, dtype=np.float64).reshape(15, 3) @ rot.T
    flat = np.column_stack([pts[:, 0], -pts[:, 1]])

    center = np.asarray(model, dtype=np.float64)[1]
    u_pre = rot @ (center[1] - center[0])
    u_post = rot @ (center[4] - center[3])
    true_apparent = _planar_angle_deg(
        np.array([u_pre[0], -u_pre[1]]), np.array([u_post[0], -u_post[1]])
    )

    mins = flat.min(axis=0)
    extents = flat.max(axis=0) - mins
    avail = np.array(
        [image_width * (1.0 - 2.0 * FIT_MARGIN), image_height * (1.0 - 2.0 * FIT_MARGIN)]
    )
    scales = [avail[d] / extents[d] for d in range(2) if extents[d] > EPSILON]
    if not scales:
        raise DegenerateProjectionError("model projects to a single point")
    scale = min(scales)

    size = np.array([float(image_width), float(image_height)])
    pixels = (flat - mins) * scale + (size - extents * scale) / 2.0
    detection = _quantized_detection(pixels / size)

    mid = middle_line(detection.keypoints)
    seg_norms = np.linalg.norm(np.diff(mid, axis=0), axis=1)
    if (seg_norms < EPSILON).any():
        raise DegenerateProjectionError(
            "a projected middle-line segment collapsed below the degeneracy threshold"
        )
    return SynthFrame(detection=detection, pose=pose, true_apparent_deg=true_apparent)


def sweep(
    spec: HingeModelSpec,
    yaw_start_deg: float = -60.0,
    yaw_end_deg: float = 60.0,
    steps: int = 25,
    jitter_sd: float = 0.0,
    pitch_deg: float = 0.0,
    image_width: int = DEFAULT_IMAGE_SIZE,
    image_height: int = DEFAULT_IMAGE_SIZE,
) -> list[SynthFrame]:
    """Generate a deterministic yaw sweep of the phantom.

    Frames are indexed 0..steps-1 at equally spaced yaw values
    (steps=1 yields the start yaw alone). Optional Gaussian jitter is
    applied per normalized coordinate with a per-frame generator
    derived from the spec seed and the frame index, then clipped to
    [0, 1]; output is fully reproducible for a given spec.
    """
    if steps < 1:
        raise BadSpecError(f"steps must be >= 1, got {steps}")
    if jitter_sd < 0.0:
        raise BadSpecError(f"jitter sd must be >= 0, got {jitter_sd}")
    model = build_model(spec)
    frames = []
    for index, yaw in enumerate(np.linspace(yaw_start_deg, yaw_end_deg, steps)):
        pose = CameraPose(yaw_deg=float(yaw), pitch_deg=pitch_deg)
        frame = project(model, pose, image_width, image_height)
        detection = frame.detection
        if jitter_sd > 0.0:
            rng = np.random.default_rng([spec.seed, index])
            coords = detection.keypoints.points
            coords = np.clip(coords + rng.normal(0.0, jitter_sd, coords.shape), 0.0, 1.0)
            detection = _quantized_detection(coords, class_id=detection.class_id)
        detection = dataclasses.replace(detection, frame_index=index)
        frames.append(
            SynthFrame(
                detection=detection,
                pose=pose,
                true_apparent_deg=frame.true_apparent_deg,
            )
        )
    return frames
