"""Serialization: JSONL frame streams, report documents, run config.

The frame-stream format is one JSON object per line with a fixed key
order and floats rounded to the shared 6-decimal precision, so a given
stream serializes to identical bytes on every run. Report documents
carry exact values alongside their display-rounded counterparts; the
rounded fields are always recomputable from the exact ones under the
half-up rule.
"""

import json
from dataclasses import dataclass

from .annotation import (
    COORD_DECIMALS,
    NUM_KEYPOINTS,
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
from .sequence import CaseMeasurement

SCHEMA_VERSION = 1


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


def frame_record(case_id: str, det: FrameDetection, frame_index: int) -> dict:
    """Build the canonical JSONL object for one detection."""
    return {
        "case_id": case_id,
        "frame_index": frame_index,
        "class_id": det.class_id,
        "bbox": [
            round(det.bbox.cx, COORD_DECIMALS),
            round(det.bbox.cy, COORD_DECIMALS),
            round(det.bbox.w, COORD_DECIMALS),
            round(det.bbox.h, COORD_DECIMALS),
        ],
        "keypoints": [
            [round(x, COORD_DECIMALS), round(y, COORD_DECIMALS)]
            for x, y in det.keypoints.points.tolist()
        ],
    }


def dumps_frame(case_id: str, det: FrameDetection, frame_index: int) -> str:
    """Serialize one frame as a compact single-line JSON string."""
    return json.dumps(frame_record(case_id, det, frame_index), separators=(",", ":"))


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


def iter_frame_stream(lines):
    """Yield (case_id, FrameDetection) from an iterable of JSONL lines.

    Blank lines are skipped; line numbers in errors refer to the
    physical input.
    """
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        yield parse_frame_line(stripped, lineno)


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


def dumps_report(document: dict) -> str:
    """Render a report document as pretty JSON with a trailing newline."""
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
