"""Serialization: JSONL frame streams, report documents, run config.

The frame-stream format is one JSON object per line with a fixed key
order and floats rounded to the shared 6-decimal precision, so a given
stream serializes to identical bytes on every run.
:func:`iter_frame_stream` reads such a stream in batches of up to
``sequence.CHUNK_FRAMES`` lines: each batch is checked as a whole and
lands in one keypoint array, and a batch that fails any check is parsed
again line by line by :func:`parse_frame_line`, which raises the first
bad line's error with its line number. Every indented document (report
or synth sidecar) is written by the one writer :func:`dumps_report`, as
``json.dumps(document, indent=2)`` plus a newline. Report documents
carry exact values alongside their display-rounded counterparts; the
rounded fields are always recomputable from the exact ones under the
half-up rule.
"""

import json
from dataclasses import dataclass
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from . import sequence
from .annotation import (
    COLS,
    COORD_DECIMALS,
    MIDDLE_ROW,
    NUM_KEYPOINTS,
    ROWS,
    BoundingBox,
    FrameDetection,
    KeypointSet,
)
from .evaluation import (
    DISPLAY_DECIMALS,
    CaseRecord,
    ConfusionMatrix,
    Diagnosis,
    MetricsReport,
    round_half_up,
)
from .geometry import middle_line
from .sequence import CaseMeasurement

SCHEMA_VERSION = 1

# json's spelling of the constants, and of the floats repr writes as nan and inf
_CONSTANTS = {None: "null", True: "true", False: "false"}
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


class JsonlFormatError(ValueError):
    """A frame-stream line that does not match the schema."""


@dataclass(frozen=True)
class RunConfig:
    """Knobs shared across commands, snapshotted into every report.

    The snapshot also records the fixed output precisions, so a report
    states how its coordinates and rounded fields were produced.
    """

    threshold_deg: float = 30.0
    aspect_ratio: float = 1.0
    retain_per_frame: bool = True

    def __post_init__(self):
        if not 0.0 < self.threshold_deg < 180.0:
            raise ValueError(f"threshold {self.threshold_deg} outside (0, 180)")
        if self.aspect_ratio <= 0.0:
            raise ValueError(f"aspect ratio {self.aspect_ratio} must be positive")

    def as_dict(self) -> dict:
        return {
            "threshold_deg": self.threshold_deg,
            "aspect_ratio": self.aspect_ratio,
            "emit_precision": COORD_DECIMALS,
            "retain_per_frame": self.retain_per_frame,
            "rounding": DISPLAY_DECIMALS,
        }


# case_id, frame_index, class_id, then the 4 bbox and 30 keypoint coordinates
_FRAME = (
    '{{"case_id":{},"frame_index":{},"class_id":{},"bbox":[{},{},{},{}],"keypoints":['
    + ",".join(["[{},{}]"] * NUM_KEYPOINTS)
    + "]}}"
)


def dumps_frame(case_id: str, det: FrameDetection, frame_index: int) -> str:
    """Serialize one frame as a compact single-line JSON string.

    A coordinate is written as json writes ``round(v, 6)``: in
    [1e-4, 0.9999995) that is its ``%.6f`` text without trailing zeros.
    """
    box = det.bbox
    values = [box.cx, box.cy, box.w, box.h, *det.keypoints.points.ravel().tolist()]
    return _FRAME.format(
        _encode(case_id, ""),
        _encode(frame_index, ""),
        _encode(det.class_id, ""),
        *[
            ("%.6f" % v).rstrip("0")
            if type(v) is float and 1e-4 <= v < 0.9999995
            else _encode(round(v, COORD_DECIMALS), "")
            for v in values
        ],
    )


def _require(condition: bool, lineno: int, message: str) -> None:
    if not condition:
        raise JsonlFormatError(f"line {lineno}: {message}")


def parse_frame_line(line: str, lineno: int = 1) -> tuple[str, FrameDetection]:
    """Parse one JSONL frame line; errors carry the line number.

    Messages that quote the offending value are built only on failure.
    """
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise JsonlFormatError(f"line {lineno}: not valid JSON ({exc.msg})") from None
    _require(isinstance(obj, dict), lineno, "expected a JSON object")
    for key in ("case_id", "frame_index", "class_id", "bbox", "keypoints"):
        if key not in obj:
            raise JsonlFormatError(f"line {lineno}: missing field {key!r}")

    case_id = obj["case_id"]
    _require(isinstance(case_id, str) and case_id != "", lineno, "bad case_id")
    frame_index = obj["frame_index"]
    _require(
        isinstance(frame_index, int) and not isinstance(frame_index, bool)
        and frame_index >= 0,
        lineno,
        "frame_index must be a non-negative integer",
    )
    class_id = obj["class_id"]
    _require(
        isinstance(class_id, int) and not isinstance(class_id, bool) and class_id >= 0,
        lineno,
        "class_id must be a non-negative integer",
    )

    bbox = obj["bbox"]
    _require(
        isinstance(bbox, list) and len(bbox) == 4,
        lineno,
        "bbox must be a list of 4 numbers",
    )
    keypoints = obj["keypoints"]
    _require(
        isinstance(keypoints, list) and len(keypoints) == NUM_KEYPOINTS,
        lineno,
        f"keypoints must be a list of {NUM_KEYPOINTS} [x, y] pairs",
    )
    values = list(bbox)
    for pair in keypoints:
        _require(
            isinstance(pair, list) and len(pair) == 2,
            lineno,
            "each keypoint must be an [x, y] pair",
        )
        values.extend(pair)
    for value in values:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise JsonlFormatError(f"line {lineno}: coordinates must be numbers")
        if not 0.0 <= value <= 1.0:
            raise JsonlFormatError(f"line {lineno}: coordinate {value} outside [0, 1]")

    det = FrameDetection(
        class_id=class_id,
        bbox=BoundingBox(*(float(v) for v in bbox)),
        keypoints=KeypointSet(keypoints),
        frame_index=frame_index,
    )
    return case_id, det


def _batch_from_objects(objs: list):
    """Check a batch of decoded lines as a whole and stack its keypoints.

    Returns None when any line breaks a rule of :func:`parse_frame_line`;
    a missing field raises KeyError and a coordinate too large for a
    float raises OverflowError.
    """
    if set(map(type, objs)) != {dict}:
        return None
    case_ids = [obj["case_id"] for obj in objs]
    frame_indices = [obj["frame_index"] for obj in objs]
    class_ids = [obj["class_id"] for obj in objs]
    bboxes = [obj["bbox"] for obj in objs]
    keypoints = [obj["keypoints"] for obj in objs]
    # exact type sets: json.loads yields no subclasses, and bool is not int here
    if (
        set(map(type, case_ids)) != {str}
        or "" in case_ids
        or set(map(type, frame_indices)) != {int}
        or min(frame_indices) < 0
        or set(map(type, class_ids)) != {int}
        or min(class_ids) < 0
        or set(map(type, bboxes)) != {list}
        or set(map(len, bboxes)) != {4}
        or set(map(type, keypoints)) != {list}
        or set(map(len, keypoints)) != {NUM_KEYPOINTS}
    ):
        return None
    pairs = list(chain.from_iterable(keypoints))
    if set(map(type, pairs)) != {list} or set(map(len, pairs)) != {2}:
        return None
    values = list(chain(chain.from_iterable(bboxes), chain.from_iterable(pairs)))
    if not set(map(type, values)) <= {int, float}:
        return None
    array = np.array(values, dtype=np.float64)
    if not (array.min() >= 0.0 and array.max() <= 1.0):  # NaN fails both
        return None
    grid = array[4 * len(objs) :].reshape(len(objs), ROWS, COLS, 2)
    return case_ids, frame_indices, grid[:, MIDDLE_ROW]


def _parse_batch(texts: list[str], linenos: list[int]):
    """One batch of non-blank lines as (case_ids, frame_indices, middle_lines).

    Any failed batch check hands the batch to the per-line parser, so a
    batch is accepted exactly when every line passes
    :func:`parse_frame_line`, and a bad line raises that parser's error.
    """
    try:
        batch = _batch_from_objects(list(map(json.loads, texts)))
    # JSONDecodeError is a ValueError; RecursionError is deeply nested JSON,
    # which the per-line pass raises again unless an earlier line fails first
    except (ValueError, KeyError, OverflowError, RecursionError):
        batch = None
    if batch is not None:
        return batch
    records = [parse_frame_line(text, lineno) for text, lineno in zip(texts, linenos)]
    return (
        [case_id for case_id, _ in records],
        [det.frame_index for _, det in records],
        np.array([middle_line(det.keypoints) for _, det in records]),
    )


def iter_frame_stream(lines):
    """Yield frame batches from an iterable of JSONL lines.

    Each batch is ``(case_ids, frame_indices, middle_lines)`` for up to
    ``sequence.CHUNK_FRAMES`` (read at the first ``next()``) consecutive
    non-blank lines: a list of case ids, a list of frame indices as
    Python ints, and an (n, 5, 2) float64 array of middle-row keypoints.
    Blank lines are skipped; line numbers in errors refer to the
    physical input.
    """
    size = sequence.CHUNK_FRAMES
    texts: list[str] = []
    linenos: list[int] = []
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        texts.append(stripped)
        linenos.append(lineno)
        if len(texts) >= size:
            yield _parse_batch(texts, linenos)
            texts, linenos = [], []
    if texts:
        yield _parse_batch(texts, linenos)


def _case_entry(
    case: CaseMeasurement, diagnosis: Diagnosis, config: RunConfig
) -> dict:
    entry = {
        "case_id": case.case_id,
        "curvature_deg": case.curvature_deg,
        "curvature_deg_rounded": round_half_up(case.curvature_deg),
        "diagnosis": diagnosis.value,
        "argmax_frame": case.argmax_frame,
        "frames_total": case.frames_total,
        "frames_valid": case.frames_valid,
    }
    if config.retain_per_frame:
        per_frame = []
        for fm in case.per_frame:
            row = {"frame_index": fm.frame_index, "valid": fm.valid}
            if fm.valid:
                row["deviation_deg"] = fm.angles.deviation_deg
                row["segment_deg"] = list(fm.angles.segment_deg)
                row["frame_angle_deg"] = fm.angles.frame_angle_deg
                row["curvature_col"] = fm.angles.curvature_col
            else:
                row["error_note"] = fm.error_note
            per_frame.append(row)
        entry["per_frame"] = per_frame
    return entry


def measurement_report(
    cases: list[tuple[CaseMeasurement, Diagnosis]],
    config: RunConfig,
    tool_version: str,
    errors: list[dict] | None = None,
) -> dict:
    """Assemble the measurement report document."""
    return {
        "schema_version": SCHEMA_VERSION,
        "tool_version": tool_version,
        "config": config.as_dict(),
        "cases": [_case_entry(case, diagnosis, config) for case, diagnosis in cases],
        "errors": errors or [],
    }


def evaluation_report(
    records: list[CaseRecord],
    cm: ConfusionMatrix,
    report: MetricsReport,
    config: RunConfig,
    tool_version: str,
) -> dict:
    """Assemble the evaluation report document."""
    return {
        "schema_version": SCHEMA_VERSION,
        "tool_version": tool_version,
        "config": config.as_dict(),
        "cases": [
            {
                "case_id": r.case_id,
                "actual": r.actual.value,
                "measured_deg": r.measured_deg,
                "predicted": r.predicted.value,
            }
            for r in records
        ],
        "confusion": {"tp": cm.tp, "fp": cm.fp, "fn": cm.fn, "tn": cm.tn},
        "metrics": {
            "accuracy": report.accuracy,
            "sensitivity": report.sensitivity,
            "specificity": report.specificity,
        },
        "metrics_rounded": report.rounded(),
    }


def _key(key) -> str:
    """A dict key that is not a str, as json writes it (or rejects it)."""
    return json.dumps({key: None}, separators=(",", ":"))[1:-6]  # '{' key ':null}'


def _encode(value, pad: str) -> str:
    """``value`` as ``json.dumps(value, indent=2)`` writes it at indent ``pad``.

    The exact JSON types are written here; anything else (a subclass
    such as numpy.float64, or a value json rejects) is json's own call.
    """
    kind = type(value)
    if kind is float:
        text = float.__repr__(value)
        return _NON_FINITE.get(text, text)
    if kind is str:
        return _quote(value)
    if kind is int:
        return int.__repr__(value)
    if kind is dict:
        if not value:
            return "{}"
        inner = pad + "  "
        items = [
            (_quote(k) if type(k) is str else _key(k)) + ": " + _encode(v, inner)
            for k, v in value.items()
        ]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = pad + "  "
        items = [_encode(v, inner) for v in value]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    if value is None or kind is bool:
        return _CONSTANTS[value]
    return json.dumps(value, indent=2).replace("\n", "\n" + pad)


def dumps_report(document) -> str:
    """Render a document as ``json.dumps(document, indent=2)`` plus a newline."""
    try:
        return _encode(document, "") + "\n"
    except RecursionError:  # nested deeper, or circular: json's own encoder decides
        return json.dumps(document, indent=2) + "\n"


def sweep_sidecar(
    case_id: str,
    spec_fields: dict,
    frames,
) -> dict:
    """Oracle sidecar for a generated sweep: true angle per frame."""
    return {
        "schema_version": SCHEMA_VERSION,
        "case_id": case_id,
        "spec": spec_fields,
        "frames": [
            {
                "frame_index": f.detection.frame_index,
                "yaw_deg": f.pose.yaw_deg,
                "pitch_deg": f.pose.pitch_deg,
                "true_apparent_deg": f.true_apparent_deg,
            }
            for f in frames
        ],
    }
