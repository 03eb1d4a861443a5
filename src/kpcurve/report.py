"""Serialization: JSONL frame streams, report documents, run config.

The frame-stream format is one JSON object per line with a fixed key
order and floats rounded to the shared 6-decimal precision, so a given
stream serializes to identical bytes on every run.
:func:`dumps_frame` writes a whole sweep from its box and keypoint
arrays: a row whose values all lie on the 6-decimal grid in
[1e-4, 0.9999995) is formatted in numpy from their integer digits, and
any other row value by value, to the same bytes.
:func:`iter_frame_stream` reads such a stream in batches of up to
``CHUNK_FRAMES`` lines: each batch is checked as a whole and its whole
keypoint grids land in one array, and a batch that fails any check is
parsed again line by line by :func:`parse_frame_line`, which raises the
first bad line's error with its line number. Every indented document
(report or synth sidecar) is written by :func:`dumps_report` as
``json.dumps(document, indent=2)`` plus a newline: one encoder, the
stock one, writes all of it but the lists of cases and frames, which
fixed templates write from their columns (a report's case entry, its
valid and degenerate ``per_frame`` rows, a sidecar's ``frames`` row).
Report documents carry exact values alongside their display-rounded
counterparts; the rounded fields are always recomputable from the exact
ones under the half-up rule. A measurement report is read back here
too, by :func:`report_results`, so its schema has one home, and so do
its policies: which diagnosis a case gets and which cases metrics count.
"""

import json
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .annotation import COORD_DECIMALS, NUM_KEYPOINTS
from .evaluation import (
    DEFAULT_THRESHOLD_DEG,
    DISPLAY_DECIMALS,
    DatasetFormatError,
    Diagnosis,
    classify,
    round_half_up,
)
from .sequence import CaseMeasurement, FrameColumns, frame_rules

SCHEMA_VERSION = 1

# frames per batch, read when a batch producer starts; bounds how many
# parsed lines (~2.9 KB each) are held at once
CHUNK_FRAMES = 256

# the one home of each layout below: a list item as json.dumps(document,
# indent=2) writes it at its depth; floats go in through float.__repr__,
# json's text for the finite angles and poses
_CASE_ENTRY = """\
    {{
      "case_id": {},
      "curvature_deg": {},
      "curvature_deg_rounded": {},
      "diagnosis": {},
      "argmax_frame": {},
      "frames_total": {},
      "frames_valid": {}{}
    }}"""
_VALID_ROW = """\
        {{
          "frame_index": {},
          "valid": true,
          "deviation_deg": {},
          "segment_deg": [
            {},
            {},
            {}
          ],
          "frame_angle_deg": {},
          "curvature_col": {}
        }}"""
_DEGENERATE_ROW = """\
        {{
          "frame_index": {},
          "valid": false,
          "error_note": "degenerate middle-line segment {}"
        }}"""
_SIDECAR_ROW = """\
    {{
      "frame_index": {},
      "yaw_deg": {},
      "pitch_deg": {},
      "true_apparent_deg": {}
    }}"""


class JsonlFormatError(ValueError):
    """A frame-stream line that does not match the schema."""


@dataclass(frozen=True)
class RunConfig:
    """Knobs shared across commands, snapshotted into every report.

    The snapshot also records the fixed output precisions, so a report
    states how its coordinates and rounded fields were produced.
    """

    threshold_deg: float = DEFAULT_THRESHOLD_DEG
    aspect_ratio: float = 1.0
    retain_per_frame: bool = True

    def __post_init__(self):
        if not 0.0 < self.threshold_deg < 180.0:
            raise ValueError(f"threshold {self.threshold_deg} outside (0, 180)")

    def as_dict(self) -> dict:
        return {
            "threshold_deg": self.threshold_deg,
            "aspect_ratio": self.aspect_ratio,
            "emit_precision": COORD_DECIMALS,
            "retain_per_frame": self.retain_per_frame,
            "rounding": DISPLAY_DECIMALS,
        }


# json writes a float in [_FIXED_LO, _FIXED_HI) rounded to 6 decimals as
# its "%.6f" text without trailing zeros
_FIXED_LO, _FIXED_HI = 1e-4, 0.9999995
# a frame line after its frame index: class id 0, then the 4 bbox and 30
# keypoint coordinates
_TAIL = (
    ',"class_id":0,"bbox":[{},{},{},{}],"keypoints":['
    + ",".join(["[{},{}]"] * NUM_KEYPOINTS)
    + "]}}\n"
)
# the same tail as bytes, each coordinate "0." and six digit slots
_TAIL_BYTES = np.frombuffer(
    _TAIL.format(*["0.######"] * (4 + 2 * NUM_KEYPOINTS)).encode(), np.uint8
)
_DIGIT_SLOTS = np.flatnonzero(_TAIL_BYTES == ord("#"))
_PLACES = 10 ** np.arange(COORD_DECIMALS - 1, -1, -1)  # 100000, ..., 10, 1


def _digit_tails(values: np.ndarray) -> list[str]:
    """Line tails of (m, 34) rows whose values all lie on the 6-decimal grid
    in [_FIXED_LO, _FIXED_HI).

    Such a value is ``k / 1e6`` for the integer ``k = rint(v * 1e6)``, and
    its text is "0." and the six digits of ``k`` without trailing zeros; a
    dropped digit is written as NUL and removed with the others at once.
    """
    k = np.rint(values * 10.0**COORD_DECIMALS).astype(np.int64)[..., None]
    digits = np.where(k % (10 * _PLACES) != 0, k // _PLACES % 10 + ord("0"), 0)
    rows = np.tile(_TAIL_BYTES, (len(values), 1))
    rows[:, _DIGIT_SLOTS] = digits.reshape(len(values), len(_DIGIT_SLOTS))
    return rows[rows != 0].tobytes().decode("ascii").splitlines(keepends=True)


def _row_tails(values: np.ndarray) -> list[str]:
    """Line tails of (m, 34) rows, each row on the array path if its values allow."""
    with np.errstate(all="ignore"):  # huge values overflow inside np.round
        on_grid = np.round(values, COORD_DECIMALS) == values
    array_path = (on_grid & (values >= _FIXED_LO) & (values < _FIXED_HI)).all(axis=1)
    tails = _digit_tails(values[array_path])
    if len(tails) == len(values):
        return tails
    digit_tails = iter(tails)
    return [
        next(digit_tails)
        if on_path
        else _TAIL.format(*[json.dumps(round(v, COORD_DECIMALS)) for v in row])
        for on_path, row in zip(array_path.tolist(), values.tolist())
    ]


def dumps_frame(case_id: str, boxes, points, frame_indices) -> str:
    """Serialize frames as compact single-line JSON, each line ending in a newline.

    Row i is frame ``frame_indices[i]`` of ``case_id`` with class id 0,
    box ``boxes[i]`` (cx, cy, w, h) and keypoints ``points[i]`` (15 x 2),
    read as float64. A coordinate is written as json writes
    ``round(v, 6)``. A row whose values all lie on the 6-decimal grid in
    [1e-4, 0.9999995) is formatted in numpy from their integer digits;
    any other row goes value by value. Rows are formatted in blocks of at
    most ``CHUNK_FRAMES``, so the temporaries stay bounded.
    """
    values = np.concatenate(
        [np.reshape(boxes, (-1, 4)), np.reshape(points, (-1, 2 * NUM_KEYPOINTS))],
        axis=1,
        dtype=np.float64,
    )
    size = CHUNK_FRAMES
    tails = []
    for start in range(0, len(values), size):
        tails += _row_tails(values[start : start + size])
    head = '{"case_id":' + json.dumps(case_id) + ',"frame_index":'
    lines = zip(frame_indices, tails, strict=True)
    return "".join([head + int.__repr__(index) + tail for index, tail in lines])


def _require(condition: bool, lineno: int, message: str) -> None:
    if not condition:
        raise JsonlFormatError(f"line {lineno}: {message}")


def loads_json(text: str, error: type[ValueError], template: str):
    """``json.loads(text)``, raising ``error(template % reason)`` on invalid JSON.

    The reason is the decoder's message, or "nested too deeply" for JSON
    nested past the interpreter's recursion limit.
    """
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        reason = getattr(exc, "msg", "nested too deeply")  # RecursionError has no msg
        raise error(template % reason) from None


def parse_frame_line(line: str, lineno: int = 1) -> tuple[str, int, np.ndarray]:
    """The case id, frame index and (15, 2) keypoints of one JSONL frame line.

    Every field is checked, the box and class id too; errors carry the
    line number.

    Messages that quote the offending value are built only on failure.
    """
    obj = loads_json(line, JsonlFormatError, f"line {lineno}: not valid JSON (%s)")
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

    return case_id, frame_index, np.array(keypoints, dtype=np.float64)


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
    points = array[4 * len(objs) :].reshape(len(objs), NUM_KEYPOINTS, 2)
    return case_ids, frame_indices, points


def _parse_batch(texts: list[str], linenos: list[int]):
    """One batch of non-blank lines as (case_ids, frame_indices, points).

    Any failed batch check hands the batch to the per-line parser, so a
    batch is accepted exactly when every line passes
    :func:`parse_frame_line`, and a bad line raises that parser's error.
    """
    try:
        batch = _batch_from_objects(list(map(json.loads, texts)))
    # JSONDecodeError is a ValueError; RecursionError is deeply nested JSON,
    # which the per-line pass reports with its line number
    except (ValueError, KeyError, OverflowError, RecursionError):
        batch = None
    if batch is not None:
        return batch
    case_ids, frame_indices, points = zip(*map(parse_frame_line, texts, linenos))
    return list(case_ids), list(frame_indices), np.array(points)


def iter_frame_stream(lines):
    """Yield frame batches from an iterable of JSONL lines.

    Each batch is ``(case_ids, frame_indices, points)`` for up to
    ``CHUNK_FRAMES`` (read at the first ``next()``) consecutive non-blank
    lines: a list of case ids, a list of frame indices as Python ints,
    and an (n, 15, 2) float64 array of whole keypoint grids.
    Blank lines are skipped; line numbers in errors refer to the
    physical input.
    """
    size = CHUNK_FRAMES
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


@dataclass(frozen=True)
class _Rows:
    """A list in a document whose items are written already, each with its indent."""

    items: list[str]


def _dumps(value, pad: str) -> str:
    """``json.dumps(value, indent=2)`` at indent ``pad``, with _Rows spliced in.

    A dict holding a _Rows value is written member by member; json.dumps
    writes everything else, and its raw newlines are all structural. The
    long texts are joined once, not copied by each ``+``.
    """
    if type(value) is _Rows:
        items = ",\n".join(value.items)
        return "".join(["[\n", items, "\n", pad, "]"]) if value.items else "[]"
    if type(value) is dict and _Rows in map(type, value.values()):
        inner = pad + "  "
        members = [json.dumps(key) + ": " + _dumps(v, inner) for key, v in value.items()]
        return "".join(["{\n", inner, (",\n" + inner).join(members), "\n", pad, "}"])
    return json.dumps(value, indent=2).replace("\n", "\n" + pad)


def _per_frame_rows(columns: FrameColumns) -> list[str]:
    """A case's ``per_frame`` rows, written from its columns in stream order."""
    frame_angle, curvature_col = frame_rules(columns.angles)
    rows = zip(
        columns.frame_indices,
        columns.angles.tolist(),
        frame_angle.tolist(),
        curvature_col.tolist(),
        columns.first_bad.tolist(),
    )
    return [
        _VALID_ROW.format(index, *map(float.__repr__, [*angles, top]), col)
        if first_bad < 0
        else _DEGENERATE_ROW.format(index, first_bad)
        for index, angles, top, col, first_bad in rows
    ]


def _case_entry(case: CaseMeasurement, config: RunConfig) -> str:
    """One case of a measurement report, an item of its ``cases``, diagnosed at the threshold."""
    per_frame = ""
    if config.retain_per_frame:
        rows = _Rows(_per_frame_rows(case.per_frame))
        per_frame = ',\n      "per_frame": ' + _dumps(rows, "      ")
    return _CASE_ENTRY.format(
        json.dumps(case.case_id),
        float.__repr__(case.curvature_deg),
        float.__repr__(round_half_up(case.curvature_deg)),
        json.dumps(classify(case.curvature_deg, config.threshold_deg).value),
        case.argmax_frame,
        case.frames_total,
        case.frames_valid,
        per_frame,
    )


def measurement_report(
    cases: list[CaseMeasurement],
    config: RunConfig,
    tool_version: str,
    errors: list[tuple[str, str]] = (),
) -> dict:
    """Assemble the measurement report document from the measured cases and
    the ``(case_id, message)`` errors that ``measure_stream`` returns."""
    return {
        "schema_version": SCHEMA_VERSION,
        "tool_version": tool_version,
        "config": config.as_dict(),
        "cases": _Rows([_case_entry(case, config) for case in cases]),
        "errors": [{"case_id": case_id, "error": message} for case_id, message in errors],
    }


def report_results(
    document: dict, labels: dict[str, Diagnosis]
) -> tuple[list[tuple[str, Diagnosis, float]], list[tuple[str, str]]]:
    """A measurement report's ``(case_id, actual, curvature_deg)`` triples in
    report order, and a ``(case_id, reason)`` pair per case the metrics leave
    out: failed cases in report order, then the labelled cases it lacks in
    ``labels`` order. A case listed under both ``cases`` and ``errors``, or
    twice under ``errors``, raises; an unlabelled case raises after that."""
    cases = document.get("cases")
    if not isinstance(cases, list):
        raise DatasetFormatError("report JSON has no 'cases' list")
    measured = []
    for entry in cases:
        if (
            not isinstance(entry, dict)
            or not isinstance(entry.get("case_id"), str)
            # exact types, so a JSON true is not read as 1 degree
            or type(entry.get("curvature_deg")) not in (int, float)
        ):
            raise DatasetFormatError("report cases need 'case_id' and 'curvature_deg' fields")
        try:
            angle = float(entry["curvature_deg"])
        except OverflowError:  # an integer with no float value
            raise DatasetFormatError(
                f"report case {entry['case_id']!r} has a curvature_deg too large for a float"
            ) from None
        measured.append((entry["case_id"], angle))

    errors = document.get("errors", [])
    if not isinstance(errors, list) or not all(
        isinstance(entry, dict)
        and isinstance(entry.get("case_id"), str)
        and isinstance(entry.get("error"), str)
        for entry in errors
    ):
        raise DatasetFormatError("report errors need 'case_id' and 'error' fields")
    measured_ids = {case_id for case_id, _ in measured}
    failed_ids = set()
    for entry in errors:
        case_id = entry["case_id"]
        if case_id in measured_ids:
            raise DatasetFormatError(
                f"report case {case_id!r} is listed under both 'cases' and 'errors'"
            )
        if case_id in failed_ids:
            raise DatasetFormatError(
                f"report case {case_id!r} is listed more than once under 'errors'"
            )
        failed_ids.add(case_id)
    unlabelled = [case_id for case_id, _ in measured if case_id not in labels]
    if unlabelled:
        raise DatasetFormatError(f"case {unlabelled[0]!r} missing from labels file")
    reported = measured_ids | failed_ids
    absent = [case_id for case_id in labels if case_id not in reported]
    left_out = [(entry["case_id"], f"not measured ({entry['error']})") for entry in errors]
    left_out += [(case_id, "labelled but not in the report") for case_id in absent]
    return [(case_id, labels[case_id], angle) for case_id, angle in measured], left_out


def evaluation_report(rows, counts, scores, config: RunConfig, tool_version: str) -> dict:
    """Assemble the evaluation report document from ``evaluate_dataset``'s
    case rows, confusion counts and metrics; every metric is also rounded."""
    return {
        "schema_version": SCHEMA_VERSION,
        "tool_version": tool_version,
        "config": config.as_dict(),
        "cases": rows,
        "confusion": counts,
        "metrics": scores,
        "metrics_rounded": {name: round_half_up(value) for name, value in scores.items()},
    }


def dumps_report(document) -> str:
    """Render a document as ``json.dumps(document, indent=2)`` plus a newline."""
    return _dumps(document, "") + "\n"


def sweep_sidecar(phantom, result) -> dict:
    """Oracle sidecar of a ``synth.PhantomSpec`` and its ``synth.SweepColumns``:
    the spec as given, the snapped hinge position and the true angle per frame."""
    pitch = json.dumps(result.pitch_deg)  # once per sweep, and exact for an int pitch too
    frames = enumerate(zip(result.yaw_deg, result.true_apparent_deg))
    return {
        "schema_version": SCHEMA_VERSION,
        "case_id": phantom.case_id,
        "spec": {**phantom.given, "snapped_hinge_position": phantom.model.snapped_position},
        "frames": _Rows(
            [
                _SIDECAR_ROW.format(index, float.__repr__(yaw), pitch, float.__repr__(angle))
                for index, (yaw, angle) in frames
            ]
        ),
    }
