"""Synthetic planar-hinge phantom generator.

Builds a parameterized shaft model (three 5-point polylines: a center
line plus two laterals) that is straight except for a single in-plane
bend of known angle, then renders it through a rotating orthographic
camera into keypoint frames. Because the bend angle and its projection
are known in closed form, the generated frames carry exact oracle
values for validating the measurement chain end to end.

Every pose of a sweep is projected, checked and given its oracle angle
in one array pass, and ``sweep`` returns the result as columns
(:class:`SweepColumns`): keypoints and boxes as arrays, poses and oracle
angles as lists, with no object or Python loop per frame.

The synth spec format has its one home here: :func:`read_spec` takes
its fields from :class:`HingeModelSpec` and the keywords of :func:`sweep`.

Geometry: the shaft base runs along +y (the vertical camera yaw axis)
and the bend deflects in the x-y plane, so yaw rotation foreshortens
the apparent bend. The lateral lines are offset along z (the viewing
axis at the frontal pose), so they project onto the center line at
yaw 0 and separate as the camera swings.
"""

import math
import sys
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .annotation import COORD_DECIMALS
from .report import is_case_id
from .sequence import EPSILON, DegenerateProjectionError, middle_line, segments

DEFAULT_LENGTH_CM = 5.5
DEFAULT_WIDTH_CM = 1.5
DEFAULT_IMAGE_SIZE = 640
FIT_MARGIN = 0.1

# arc-length fractions of the five keypoints along each line
LINE_FRACTIONS = (0.0, 0.25, 0.5, 0.75, 1.0)
INTERIOR_FRACTIONS = (0.25, 0.5, 0.75)


class BadSpecError(ValueError):
    """A phantom spec or sweep parameter outside its valid range."""


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
        if not 0.0 < self.length_cm < math.inf:
            raise BadSpecError(f"length {self.length_cm} must be positive and finite")
        if not 0.0 < self.width_cm < math.inf:
            raise BadSpecError(f"width {self.width_cm} must be positive and finite")
        if not 0.0 < self.hinge_position < 1.0:
            raise BadSpecError(
                f"hinge position {self.hinge_position} must be strictly interior"
            )
        if self.seed < 0:
            raise BadSpecError(f"seed must be >= 0, got {self.seed}")

    @property
    def snapped_position(self) -> float:
        """Hinge position snapped to the nearest interior keypoint.

        Snapping keeps the bend vertex on a sampled point, which makes
        the true angle recoverable from five samples.
        """
        return min(INTERIOR_FRACTIONS, key=lambda f: (abs(f - self.hinge_position), f))


@dataclass(frozen=True, eq=False)
class SweepColumns:
    """A generated sweep as columns; row i is frame index i.

    ``points`` holds the (n, 15, 2) quantized keypoints and ``boxes`` the
    (n, 4) boxes ``cx, cy, w, h``; ``yaw_deg`` and ``true_apparent_deg``
    hold one float per frame, and every frame shares ``pitch_deg``.
    """

    points: np.ndarray
    boxes: np.ndarray
    yaw_deg: list[float]
    pitch_deg: float
    true_apparent_deg: list[float]


def build_model(spec: HingeModelSpec) -> np.ndarray:
    """Construct the three 5-point 3D polylines of the phantom.

    Returns a (3, 5, 3) array in keypoint row order: lateral, center,
    lateral. The center line starts at the origin along +y, bends by
    the hinge angle at the snapped interior point, and continues in
    the x-y plane; laterals are the center line offset by half the
    width along +/-z.
    """
    beta = math.radians(spec.hinge_angle_deg)
    sin, cos = math.sin(beta), math.cos(beta)
    snap, length, half = spec.snapped_position, spec.length_cm, spec.width_cm / 2.0
    rise = length * snap
    # Python floats, each value the IEEE result of the vector form: up +y to the
    # hinge, then along (sin, cos, 0); the laterals add and subtract (0, 0, half)
    center = []
    for frac in LINE_FRACTIONS:
        if frac <= snap:
            center.append((0.0, length * frac, 0.0))
        else:
            run = length * (frac - snap)
            center.append((sin * run, rise + cos * run, 0.0))
    # 0.0 - half, not -half: a width whose half underflows to 0 would give -0.0
    lower = [(x, y, 0.0 - half) for x, y, _ in center]
    return np.array([[(x, y, half) for x, y, _ in center], center, lower])


def _rotations(yaws, pitch_deg: float) -> np.ndarray:
    """World-to-camera rotations, (n, 3, 3): yaw about y, then pitch about x.

    Sines and cosines come from ``math``, one call each per yaw: ``np.sin``
    may take a SIMD path whose last bit differs from libm on other hosts.
    The yaw matrices fill one block, multiplied by copies of the pitch's.
    """
    pitch = math.radians(pitch_deg)
    cp, sp = math.cos(pitch), math.sin(pitch)
    radians = list(map(math.radians, yaws))
    cos, sin = np.array(list(map(math.cos, radians))), np.array(list(map(math.sin, radians)))
    rot_yaw = np.zeros((len(radians), 3, 3))
    rot_yaw[:, 0, 0] = rot_yaw[:, 2, 2] = cos
    rot_yaw[:, 0, 2], rot_yaw[:, 2, 0], rot_yaw[:, 1, 1] = sin, -sin, 1.0
    rot_pitch = np.array([[1.0, 0.0, 0.0], [0.0, cp, -sp], [0.0, sp, cp]])
    return np.repeat(rot_pitch[None], len(radians), axis=0) @ rot_yaw


def _project_all(model, yaws, pitch_deg: float, image_width: int, image_height: int):
    """Quantized (n, 15, 2) keypoints and oracle angles at n yaws, in one array pass.

    The rotated model is orthographically projected (depth dropped),
    flipped to image-down y, uniformly scaled and centered into the
    frame with a 10% margin, normalized by the image size, and rounded
    to the serialization precision. The oracle angle is the projected
    angle between the pre-bend and post-bend center-line directions at
    full precision. Errors are raised in the order a frame-by-frame loop
    would meet them.
    """
    model = np.asarray(model, dtype=np.float64)
    rot = _rotations(yaws, pitch_deg)
    pts = model.reshape(-1, 3) @ rot.transpose(0, 2, 1)
    # keypoint-major (15, n, 2), C-contiguous, y flipped to image-down: a
    # frame's extent is a reduction over contiguous blocks
    flat = np.empty((pts.shape[1], len(yaws), 2))
    flat[..., 0] = pts[..., 0].T
    np.negative(pts[..., 1].T, out=flat[..., 1])
    center = middle_line(model.reshape(-1, 3))
    pre = rot @ (center[1] - center[0])
    post = rot @ (center[4] - center[3])

    mins = flat.min(axis=0)
    extents = flat.max(axis=0) - mins
    size = np.array([image_width, image_height], dtype=np.float64)
    fits = extents > EPSILON
    avail = size * (1.0 - 2.0 * FIT_MARGIN)
    ratios = np.divide(avail, extents, out=np.full_like(extents, np.inf), where=fits)
    single = ~fits.any(axis=1, keepdims=True)
    scale = np.where(single, 1.0, ratios.min(axis=1, keepdims=True))  # single raises below
    pixels = (flat - mins) * scale + (size - extents * scale) / 2.0
    points = np.round(pixels / size, COORD_DECIMALS).transpose(1, 0, 2)

    # the bend directions in image axes (y down); a frame's first fault is the
    # collapsed direction, then the single point, then the short segment
    ux, uy, vx, vy = pre[:, 0], -pre[:, 1], post[:, 0], -post[:, 1]
    collapsed = np.array(list(map(math.hypot, ux.tolist(), uy.tolist()))) < EPSILON
    collapsed |= np.array(list(map(math.hypot, vx.tolist(), vy.tolist()))) < EPSILON
    short = segments(middle_line(points))[1] >= 0
    failed = collapsed | single.ravel() | short
    if failed.any():
        i = int(failed.argmax())
        raise DegenerateProjectionError(
            "projected bend direction collapsed below the degeneracy threshold"
            if collapsed[i]
            else "model projects to a single point"
            if single.flat[i]
            else "a projected middle-line segment collapsed below the degeneracy threshold"
        )
    cross, dot = (ux * vy - uy * vx).tolist(), (ux * vx + uy * vy).tolist()
    return points, list(map(abs, map(math.degrees, map(math.atan2, cross, dot))))


def _boxes(points: np.ndarray) -> np.ndarray:
    """Tight (n, 4) boxes ``cx, cy, w, h`` around quantized (n, 15, 2) keypoints.

    Centres and sizes are rounded as Python ``round(v, 6)`` does. Away
    from a decimal tie ``np.rint(v * 1e6) / 1e6`` gives the same integer
    and the same nearest double; a value whose ``v * 1e6`` lies within
    1e-6 of a half-integer, as a centre often does, or whose magnitude
    reaches 2**52, is rounded by ``round`` itself.
    """
    keypoint_major = np.ascontiguousarray(points.transpose(1, 0, 2))
    lo, hi = keypoint_major.min(axis=0), keypoint_major.max(axis=0)
    raw = np.concatenate([(lo + hi) / 2.0, hi - lo], axis=1)
    scaled = raw * 10.0**COORD_DECIMALS
    boxes = np.rint(scaled) / 10.0**COORD_DECIMALS
    near_tie = (abs(scaled - np.floor(scaled) - 0.5) < 1e-6) | (abs(scaled) >= 2.0**52)
    boxes[near_tie] = [round(v, COORD_DECIMALS) for v in raw[near_tie].tolist()]
    return boxes


def sweep(
    spec: HingeModelSpec,
    yaw_start_deg: float = -60.0,
    yaw_end_deg: float = 60.0,
    steps: int = 25,
    jitter_sd: float = 0.0,
    pitch_deg: float = 0.0,
    image_width: int = DEFAULT_IMAGE_SIZE,
    image_height: int = DEFAULT_IMAGE_SIZE,
) -> SweepColumns:
    """Generate a deterministic yaw sweep of the phantom, as columns.

    Frames are indexed 0..steps-1 at equally spaced yaw values, frame 0
    at the start yaw even when the step overflows a float (steps=1
    yields the start yaw alone). A bad pose raises for the
    first failing frame, its yaw checked before the shared pitch. All
    poses are rotated, projected, checked for degeneracy and measured
    by the oracle in one array pass, and each row equals a one-step
    sweep at its pose; a frame's box is its keypoints' extent.
    Optional Gaussian jitter is one draw from one generator per sweep,
    ``default_rng(spec.seed).normal(0.0, jitter_sd, (steps, 15, 2))``,
    whose row i is frame i's (schema 2); numpy draws in sequence, so
    frame i's jitter does not depend on ``steps``. The jitter is added
    per normalized coordinate, clipped to [0, 1] and re-quantized, and
    the box is taken again from the jittered keypoints. Output is fully
    reproducible for a given spec.
    """
    if steps < 1:
        raise BadSpecError(f"steps must be >= 1, got {steps}")
    if steps > np.iinfo(np.intp).max:  # more frames than an array can index
        raise BadSpecError(f"steps must be <= {np.iinfo(np.intp).max}")
    if not 0.0 <= jitter_sd < math.inf:
        raise BadSpecError(f"jitter sd must be finite and >= 0, got {jitter_sd}")
    with np.errstate(all="ignore"):  # a step past the float range is caught as a yaw below
        yaws = np.linspace(yaw_start_deg, yaw_end_deg, steps).tolist()
    if math.isnan(yaws[0]):  # 0 * inf; frame 0 is the start yaw, whatever the step
        yaws[0] = float(yaw_start_deg)
    # as frame by frame: frame 0's yaw, then the pitch every frame shares, then the other yaws
    poses = [("yaw", yaws[0]), ("pitch", pitch_deg)]
    poses += (("yaw", yaw) for yaw in yaws[1:] if not -90.0 < yaw < 90.0)
    for name, value in poses:
        if not -90.0 < value < 90.0:
            raise BadSpecError(f"{name} {value} outside (-90, 90); model self-occludes")
    if image_width <= 0 or image_height <= 0:
        raise BadSpecError(
            f"image dimensions must be positive, got {image_width}x{image_height}"
        )
    if max(image_width, image_height) > sys.float_info.max:  # an int with no float value
        raise BadSpecError("image dimensions too large for a float")
    model = build_model(spec)
    points, angles = _project_all(model, yaws, pitch_deg, image_width, image_height)
    if jitter_sd > 0.0:
        noise = np.random.default_rng(spec.seed).normal(0.0, jitter_sd, points.shape)
        points = np.round(np.clip(points + noise, 0.0, 1.0), COORD_DECIMALS)
    return SweepColumns(points, _boxes(points), yaws, pitch_deg, angles)


# spec fields by type: case_id, then the phantom's, then sweep's keywords
_MODEL_FIELDS = {field.name: field.type for field in fields(HingeModelSpec)}
_SWEEP_FIELDS = {k: v for k, v in sweep.__annotations__.items() if k not in ("spec", "return")}
_SPEC_FIELDS = {"case_id": str, **_MODEL_FIELDS, **_SWEEP_FIELDS}


@dataclass(frozen=True)
class PhantomSpec:
    """A checked synth spec; ``given`` holds its fields as written, in its order."""

    case_id: str
    model: HingeModelSpec
    sweep_args: dict
    given: dict


def _typed(given: dict, kinds: dict) -> dict:
    """The given fields of ``kinds`` as their types, so "pitch_deg": 12 is a float downstream."""
    typed = {}
    for name, kind in kinds.items():
        if name in given:
            try:
                typed[name] = kind(given[name])
            except OverflowError:  # an integer with no float value
                raise BadSpecError(f"spec field {name!r} is too large for a float") from None
    return typed


def read_spec(raw, seed: int | None = None) -> PhantomSpec:
    """Check a decoded synth spec: a ``case_id`` (default "synth") that
    ``report.is_case_id`` accepts, and the parameters of
    :class:`HingeModelSpec` and :func:`sweep`, each taking its default
    there when left out. ``seed`` replaces the spec's seed.
    """
    if not isinstance(raw, dict):
        raise BadSpecError("spec must be a JSON object")
    for key, value in raw.items():
        kind = _SPEC_FIELDS.get(key)
        if kind is None:
            raise BadSpecError(f"unknown spec field {key!r}")
        # a float field takes an int too; bool is never a number here
        accepted = (int, float) if kind is float else kind
        if not isinstance(value, accepted) or isinstance(value, bool):
            raise BadSpecError(f"spec field {key!r} has the wrong type")
    case_id = raw.get("case_id", "synth")
    if not is_case_id(case_id):
        raise BadSpecError("spec field 'case_id' is empty or has outer whitespace")
    for field in fields(HingeModelSpec):
        if field.default is MISSING and field.name not in raw:
            raise BadSpecError(f"spec is missing {field.name!r}")
    given = raw if seed is None else {**raw, "seed": seed}
    model = HingeModelSpec(**_typed(given, _MODEL_FIELDS))
    return PhantomSpec(case_id, model, _typed(given, _SWEEP_FIELDS), given)
