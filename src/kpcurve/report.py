"""Serialization: JSONL frame streams, report documents, run config.

The frame-stream format is one JSON object per line with a fixed key
order and floats rounded to the shared 6-decimal precision, so a given
stream serializes to identical bytes on every run.
:func:`dumps_frame` writes a whole sweep from its box and keypoint
arrays: orjson writes all rows whose values lie on the 6-decimal grid
and are each 0 or of a magnitude in [1e-4, 1e16), where its float text
is json's, at once, and the stdlib json each other row, to the same bytes.
:func:`iter_frame_stream` reads such a stream in batches of up to
``CHUNK_FRAMES`` lines: orjson decodes each line of a batch, and
:func:`_frames`, the one statement of the frame-line rules, checks the
batch as a whole and stacks its whole keypoint grids in one array. A
batch with a line over ``_ORJSON_MAX_CHARS``, a line orjson refuses or a
broken rule is parsed again line by line by :func:`parse_frame_line`,
the stdlib json's decode plus the same check, which raises the first
bad line's error with its line number.
Every indented document (report or synth sidecar) is written by
:func:`dumps_report` to a text stream as ``json.dumps(document, indent=2)``
plus a newline. Its long lists (a report's case entries and ``per_frame``
rows, a sidecar's ``frames`` rows, an evaluation's ``cases`` rows) are
:class:`_Rows`, whose items :func:`_dumps`, which alone lays a document out,
makes run by run as it writes them, so no whole document text is held. A run
of up to ``CHUNK_FRAMES`` consecutive items whose floats orjson writes as json
does is one orjson call, kept unless orjson refuses it or writes non-ASCII or
DEL, which json escapes; json writes each other run of plain items.
Report documents carry exact values alongside their display-rounded
counterparts; the rounded fields are always recomputable from the exact
ones under the half-up rule. A measurement report is read back here
too, by :func:`loads_report` and :func:`report_results`, so its schema
has one home, and so do its policies: which diagnosis a case gets and
which cases metrics count.
"""

import json
import math
from collections.abc import Callable, Iterator
from contextlib import suppress
from dataclasses import dataclass
from itertools import chain, groupby

import numpy as np
import orjson

from . import __version__
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

SCHEMA_VERSION = 2

# frames per batch, read when a batch producer starts; bounds how many
# parsed lines (~2.9 KB each), or per-frame rows being written, are held at once
CHUNK_FRAMES = 256

# the longest line orjson decodes. orjson 3.8 builds valid JSON's values by
# recursion with no depth limit, and overflows the C stack (a segfault) on a
# line like '{"":' * 100000 + '1' + '}' * 100000. A line this long nests at most
# 819 objects or 2048 lists deep; orjson parsed 4000 and 16000 on a 1 MB
# thread stack. A frame line is ~450 characters; a longer one goes to json.
_ORJSON_MAX_CHARS = 4096

def _orjson_floats(values):
    """Where a float array holds 0 or a magnitude in [1e-4, 1e16): below, json
    switches to an exponent first ("9.9e-05" against "0.000099"), at 1e16
    orjson writes "1e16" where json writes "1e+16", and NaN and infinities null."""
    magnitude = np.abs(values)
    return (values == 0.0) | ((magnitude >= 1e-4) & (magnitude < 1e16))


class JsonlFormatError(ValueError):
    """A frame-stream line that does not match the schema."""


@dataclass(frozen=True)
class RunConfig:
    """Knobs shared across commands, snapshotted into every report.

    It checks every option it records before a command reads any input: the
    threshold lies in (0, 180), the aspect ratio is positive with a finite
    square (at most ~1.34e154). The stages read their options from it, so a
    report records the options it was made with: ``measure_stream`` the ratio
    and frame retention, ``evaluate_dataset`` the threshold. The snapshot also
    records the fixed output precisions, so a report states how its
    coordinates and rounded fields were produced.
    """

    threshold_deg: float = DEFAULT_THRESHOLD_DEG
    aspect_ratio: float = 1.0
    retain_per_frame: bool = True

    def __post_init__(self):
        if not 0.0 < self.threshold_deg < 180.0:
            raise ValueError(f"threshold {self.threshold_deg} outside (0, 180)")
        aspect = self.aspect_ratio
        # a NaN or infinite ratio would give NaN angles that count as valid
        if not 0.0 < aspect < math.inf:
            raise ValueError(f"aspect ratio {aspect} must be positive and finite")
        # coordinates lie in [0, 1], so polyline_angles' products stay below aspect**2 + 1
        if aspect * aspect == math.inf:
            raise ValueError(f"aspect ratio {aspect} is too large: its square overflows a float")

    def as_dict(self) -> dict:
        return {
            "threshold_deg": self.threshold_deg,
            "aspect_ratio": self.aspect_ratio,
            "emit_precision": COORD_DECIMALS,
            "retain_per_frame": self.retain_per_frame,
            "rounding": DISPLAY_DECIMALS,
        }


def dumps_frame(case_id: str, boxes, points, frame_indices) -> str:
    """Serialize frames as compact single-line JSON, each line ending in a newline.

    Row i is frame ``frame_indices[i]`` of ``case_id`` with class id 0,
    box ``boxes[i]`` (cx, cy, w, h) and keypoints ``points[i]`` (15 x 2),
    read as float64; each coordinate ``v`` is written as json writes
    ``round(v, 6)``. orjson writes the boxes, in one call, and keypoints, in
    another, of rows whose values all lie on the 6-decimal grid and are each
    0 or of a magnitude in [1e-4, 1e16), and its text is split back into rows;
    json writes the other rows one by one, rounded, and every line's head, as
    orjson leaves non-ASCII text unescaped and refuses integers past 64 bits.
    """
    values = np.concatenate(
        [np.reshape(boxes, (-1, 4)), np.reshape(points, (-1, 2 * NUM_KEYPOINTS))],
        axis=1,
        dtype=np.float64,
    )
    # a value on the grid is its own round(v, 6)
    with np.errstate(all="ignore"):  # huge values overflow inside np.round
        on_grid = np.round(values, COORD_DECIMALS) == values
    orjson_rows = (on_grid & _orjson_floats(values)).all(axis=1)
    # orjson writes the rows it takes as two blocks (C-contiguous, as it requires),
    # each split into one text per row
    taken, option = values[orjson_rows], orjson.OPT_SERIALIZE_NUMPY
    boxes = orjson.dumps(taken[:, :4].copy(), option=option).decode()[2:-2].split("],[")
    grids = taken[:, 4:].reshape(-1, NUM_KEYPOINTS, 2).copy()
    grids = orjson.dumps(grids, option=option).decode()[3:-3].split("]],[[")
    written, fallback = zip(boxes, grids), map(_json_texts, values[~orjson_rows].tolist())
    texts = (next(written) if by_orjson else next(fallback) for by_orjson in orjson_rows.tolist())
    head = '{"case_id":' + json.dumps(case_id) + ',"frame_index":'
    return "".join(
        f'{head}{int.__repr__(index)},"class_id":0,"bbox":[{box}],"keypoints":[[{grid}]]}}\n'
        for index, (box, grid) in zip(frame_indices, texts, strict=True)
    )


def _json_texts(row: list) -> tuple[str, str]:
    """The box and keypoint texts of a frame row that json writes, rounded."""
    row = [round(v, COORD_DECIMALS) for v in row]
    box = json.dumps(row[:4], separators=(",", ":"))[1:-1]
    grid = json.dumps(list(zip(row[4::2], row[5::2])), separators=(",", ":"))[2:-2]
    return box, grid


def is_case_id(text: str) -> bool:
    """Whether ``text`` can name a case: non-empty, with no leading or trailing
    whitespace, since a labels CSV strips its ids and could never match one."""
    return text != "" and text == text.strip()


def loads_json(text: str, error: type[ValueError], lineno: int = 0, **decoder):
    """``json.loads(text, **decoder)``, raising ``error("line N: not valid JSON (reason)")``
    if invalid.

    N is ``lineno`` if given, else the decoder's line; the reason is the decoder's
    message. JSON nested past the interpreter's recursion limit gives "nested too
    deeply", and no line unless ``lineno`` is given.
    """
    try:
        return json.loads(text, **decoder)
    except (json.JSONDecodeError, RecursionError) as exc:
        reason = getattr(exc, "msg", "nested too deeply")  # RecursionError has no msg
        line = lineno or getattr(exc, "lineno", 0)  # nor a line
        raise error((f"line {line}: " if line else "") + f"not valid JSON ({reason})") from None


def loads_report(text: str, error: type[ValueError]):
    """A report JSON decoded by :func:`loads_json` for :func:`report_results`, which
    reads only case and error entries and the angles in them: an object holding a
    ``case_id`` or ``cases`` key is kept, any other (a ``per_frame`` row, ``config``)
    is None, and a float stays its text as ASCII bytes, for ``float`` where read.

    json, not orjson: orjson 3.8 has no nesting limit and overflows the C stack on
    deep input, and a report is far longer than the lines it is trusted with.
    """
    kept = lambda obj: obj if "case_id" in obj or "cases" in obj else None
    return loads_json(text, error, object_hook=kept, parse_float=str.encode)


def parse_frame_line(line: str, lineno: int = 1) -> tuple[str, int, np.ndarray]:
    """The case id, frame index and (15, 2) keypoints of one JSONL frame line.

    The line must be valid UTF-8 and JSON, which the stdlib json decodes,
    and :func:`_frames` checks it; errors carry the line number. A lone
    surrogate in the line's text is a byte that was not valid UTF-8, as a
    file or stdin read with ``surrogateescape`` yields it; an escaped
    ``\\ud800`` is JSON text and stays accepted.
    """
    try:
        line.encode("utf-8")
    except UnicodeEncodeError:
        raise JsonlFormatError(f"line {lineno}: not valid UTF-8") from None
    obj = loads_json(line, JsonlFormatError, lineno)  # its message has the line already
    try:
        frames = _frames([obj])
    except JsonlFormatError as exc:
        raise JsonlFormatError(f"line {lineno}: {exc}") from None
    return tuple(column[0] for column in frames)


def _frames(objs: list):
    """The frame-line rules, each checked in turn over a batch of decoded lines.

    Returns ``(case_ids, frame_indices, points)``, or raises JsonlFormatError for
    the first rule that some line breaks: for one line, that line's message.
    Types are exact, as json and orjson yield no subclasses and bool is
    not int here; orjson returns an integer past 64 bits as a float.

    A batch of good lines takes one pass per field, then three over the
    keypoints: the lengths of the flattened pairs (a pair with no length
    breaks the pair rule), the types of the flattened values, and their
    conversion, which the range test reads. The pairs' own type is tested
    only once the value types fail: a pair of length 2 that is not a list is
    a text or an object, and flattens to texts, so values that are all
    numbers come from list pairs only, and a pair fault is still named
    before a value fault.
    """
    if set(map(type, objs)) != {dict}:
        raise JsonlFormatError("expected a JSON object")
    try:
        case_ids = [obj["case_id"] for obj in objs]
        frame_indices = [obj["frame_index"] for obj in objs]
        class_ids = [obj["class_id"] for obj in objs]
        bboxes = [obj["bbox"] for obj in objs]
        keypoints = [obj["keypoints"] for obj in objs]
    except KeyError:
        fields = ("case_id", "frame_index", "class_id", "bbox", "keypoints")
        missing = next(f for f in fields if not all(f in o for o in objs))
        raise JsonlFormatError(f"missing field {missing!r}") from None
    if set(map(type, case_ids)) != {str} or not all(map(is_case_id, set(case_ids))):
        raise JsonlFormatError("bad case_id")
    if set(map(type, frame_indices)) != {int} or min(frame_indices) < 0:
        raise JsonlFormatError("frame_index must be a non-negative integer")
    if set(map(type, class_ids)) != {int} or min(class_ids) < 0:
        raise JsonlFormatError("class_id must be a non-negative integer")
    if set(map(type, bboxes)) != {list} or set(map(len, bboxes)) != {4}:
        raise JsonlFormatError("bbox must be a list of 4 numbers")
    if set(map(type, keypoints)) != {list} or set(map(len, keypoints)) != {NUM_KEYPOINTS}:
        raise JsonlFormatError(f"keypoints must be a list of {NUM_KEYPOINTS} [x, y] pairs")
    pairs = list(chain.from_iterable(keypoints))
    try:
        paired = set(map(len, pairs)) == {2}
    except TypeError:  # a number, true or null has no length
        paired = False
    if not paired:
        raise JsonlFormatError("each keypoint must be an [x, y] pair")
    values = list(chain(chain.from_iterable(bboxes), chain.from_iterable(pairs)))
    if set(map(type, values)) <= {int, float}:
        with suppress(OverflowError):  # an integer with no float value
            array = np.fromiter(values, np.float64, len(values))
            if array.min() >= 0.0 and array.max() <= 1.0:  # NaN fails both
                points = array[4 * len(objs) :].reshape(len(objs), NUM_KEYPOINTS, 2)
                return case_ids, frame_indices, points
    elif set(map(type, pairs)) != {list}:
        raise JsonlFormatError("each keypoint must be an [x, y] pair")
    # the first bad value in line order, each line's box before its keypoints
    for value in chain.from_iterable(chain(obj["bbox"], *obj["keypoints"]) for obj in objs):
        if type(value) not in (int, float):
            raise JsonlFormatError("coordinates must be numbers")
        if not 0.0 <= value <= 1.0:
            raise JsonlFormatError(f"coordinate {value} outside [0, 1]")


def _parse_batch(texts: list[str], linenos: list[int]):
    """One batch of non-blank lines as (case_ids, frame_indices, points).

    orjson decodes a batch whose lines are all at most ``_ORJSON_MAX_CHARS``
    long, and :func:`_frames` checks it. orjson refuses some text that json
    accepts (NaN, Infinity, 1e400, lone surrogates); where both accept, the
    values are equal but for integers past 64 bits, which it returns as
    floats. An overlong line, a refusal or a broken rule sends the batch
    line by line to :func:`parse_frame_line`, which raises the first bad
    line's message.
    """
    if max(map(len, texts)) <= _ORJSON_MAX_CHARS:
        with suppress(orjson.JSONDecodeError, JsonlFormatError):
            return _frames(list(map(orjson.loads, texts)))
    case_ids, frame_indices, points = zip(*map(parse_frame_line, texts, linenos))
    return list(case_ids), list(frame_indices), np.array(points)


def iter_frame_stream(lines):
    """Yield frame batches from an iterable of JSONL lines.

    Each batch is ``(case_ids, frame_indices, points)`` for up to
    ``CHUNK_FRAMES`` (read at the first ``next()``) consecutive non-blank
    lines: a list of case ids, a list of frame indices as Python ints,
    and an (n, 15, 2) float64 array of whole keypoint grids.
    orjson decodes a batch and one checker holds the rules; an orjson
    refusal, an overlong line or a broken rule sends the batch line by line
    to the stdlib json, which names the first bad line. Lines are stripped
    of JSON whitespace only (space, tab, CR, LF), and lines left empty are
    skipped; line numbers in errors refer to the physical input. A stream
    with no frame line raises JsonlFormatError once its last line is read.
    """
    size, full_batches = CHUNK_FRAMES, 0
    texts: list[str] = []
    linenos: list[int] = []
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip(" \t\r\n")
        if not stripped:
            continue
        texts.append(stripped)
        linenos.append(lineno)
        if len(texts) >= size:
            yield _parse_batch(texts, linenos)
            texts, linenos, full_batches = [], [], full_batches + 1
    if texts:
        yield _parse_batch(texts, linenos)
    elif not full_batches:  # not read from texts, which every full batch empties
        raise JsonlFormatError("no frames in stream")


@dataclass(frozen=True)
class _Rows:
    """A list in a document whose items are made only as :func:`_dumps` writes them.

    ``gates`` holds a bool per item, True where orjson writes each of its floats
    as json does; ``items(run)`` makes the items of the slice ``run``: all built
    of json's types, or all dicts holding a _Rows. Each write makes them again.
    """

    gates: np.ndarray
    items: Callable[[slice], list]


def _holds_rows(value) -> bool:
    """Whether ``value`` is a dict with a _Rows member at any depth."""
    types = set(map(type, value.values())) if type(value) is dict else ()
    return _Rows in types or dict in types and any(map(_holds_rows, value.values()))


def _dumps(value, pad: str) -> Iterator[str]:
    """Yield ``json.dumps(value, indent=2)`` at indent ``pad`` piece by piece.

    Only here is a document laid out. A _Rows list goes in blocks of ``CHUNK_FRAMES``
    items, split into runs of one gate; a run of plain items, written by :func:`_item`,
    is one piece with its separator. A dict holding a _Rows at any depth is written
    member by member, so no text longer than one run is built; json.dumps writes
    everything else, and its raw newlines are all structural.
    """
    inner = pad + "  "
    if type(value) is _Rows:
        opening, size, nested = "[\n" + inner, CHUNK_FRAMES, None
        for block in range(0, len(value.gates), size):
            stop = block
            for by_orjson, run in groupby(value.gates[block : block + size].tolist()):
                start, stop = stop, stop + len(list(run))
                items = value.items(slice(start, stop))
                # all of a list's items hold a _Rows or none do: one answer per list
                nested = _holds_rows(items[0]) if nested is None else nested
                if not nested:
                    yield opening + _item(items, by_orjson, inner)  # a run is one write
                    opening = ",\n" + inner
                else:
                    for item in items:
                        yield opening
                        opening = ",\n" + inner
                        yield from _dumps(item, inner)
        yield "[]" if opening[0] == "[" else "\n" + pad + "]"  # "[]": no item came
    elif _holds_rows(value):
        opening = "{\n" + inner
        for key, member in value.items():
            yield opening + json.dumps(key) + ": "
            opening = ",\n" + inner
            yield from _dumps(member, inner)
        yield "\n" + pad + "}"
    else:
        yield json.dumps(value, indent=2).replace("\n", "\n" + pad)


def _item(items: list, by_orjson: bool, pad: str) -> str:
    """A run of list items at indent ``pad``, two or more spaces, with the
    separators between them, as ``json.dumps(document, indent=2)`` writes them.

    orjson writes the run in one call when ``by_orjson`` says that every float in
    it is one orjson writes as json does. json.dumps writes it otherwise, and, as
    :func:`_parse_batch` reads again a batch orjson refuses, when orjson refuses it
    (an integer past 64 bits, a lone surrogate, a non-text key) or writes non-ASCII or DEL.
    """
    # nested depth - 1 lists deeper, the run lies at pad's depth, past the outer lists'
    # head "[\n  [\n ... pad" of depth * (depth + 3) characters and tail of depth * (depth + 1)
    depth = len(pad) // 2
    for _ in range(depth - 1):
        items = [items]
    try:
        text = orjson.dumps(items, option=orjson.OPT_INDENT_2).decode() if by_orjson else None
    except orjson.JSONEncodeError:
        text = None
    if text is None or not text.isascii() or "\x7f" in text:
        text = json.dumps(items, indent=2)
    return text[depth * (depth + 3) : -depth * (depth + 1)]


def _per_frame_rows(columns: FrameColumns) -> _Rows:
    """A case's ``per_frame`` rows, made from its columns in stream order.

    The columns become Python values one run at a time, as :func:`_dumps` writes
    it, so a long case never holds more than a run's rows as Python objects.
    """
    frame_angle, curvature_col = frame_rules(columns.angles)
    # a degenerate row writes no angle
    gates = _orjson_floats(columns.angles).all(axis=1) | (columns.first_bad >= 0)

    def rows(run: slice) -> list[dict]:
        return [
            {
                "frame_index": index,
                "valid": True,
                "deviation_deg": angles[0],
                "segment_deg": angles[1:],
                "frame_angle_deg": top,
                "curvature_col": col,
            }
            if first_bad < 0
            else {
                "frame_index": index,
                "valid": False,
                "error_note": f"degenerate middle-line segment {first_bad}",
            }
            for index, angles, top, col, first_bad in zip(
                columns.frame_indices[run],
                columns.angles[run].tolist(),
                frame_angle[run].tolist(),
                curvature_col[run].tolist(),
                columns.first_bad[run].tolist(),
            )
        ]

    return _Rows(gates, rows)


def _case_entries(cases: list[CaseMeasurement], config: RunConfig) -> _Rows:
    """A measurement report's ``cases``, each diagnosed at the threshold and
    holding its ``per_frame`` rows when they are kept. Only the exact angle is
    gated: classified, it lies in [0, 180], so its rounded value is 0 or in [0.01, 180]."""
    rounded = [round_half_up(case.curvature_deg) for case in cases]
    gates = _orjson_floats(np.array([case.curvature_deg for case in cases], np.float64))

    def entry(case: CaseMeasurement, top: float) -> dict:
        fields = {
            "case_id": case.case_id,
            "curvature_deg": case.curvature_deg,
            "curvature_deg_rounded": top,
            "diagnosis": classify(case.curvature_deg, config.threshold_deg).value,
            "argmax_frame": case.argmax_frame,
            "frames_total": case.frames_total,
            "frames_valid": case.frames_valid,
        }
        if config.retain_per_frame:
            fields["per_frame"] = _per_frame_rows(case.per_frame)
        return fields

    return _Rows(gates, lambda run: list(map(entry, cases[run], rounded[run])))


def measurement_report(
    cases: list[CaseMeasurement],
    config: RunConfig,
    errors: list[tuple[str, str]] = (),
) -> dict:
    """Assemble the measurement report document from the measured cases and
    the ``(case_id, message)`` errors that ``measure_stream`` returns."""
    return {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "config": config.as_dict(),
        "cases": _case_entries(cases, config),
        "errors": [{"case_id": case_id, "error": message} for case_id, message in errors],
    }


def report_results(
    document: dict, labels: dict[str, Diagnosis]
) -> tuple[list[tuple[str, Diagnosis, float]], list[tuple[str, str]]]:
    """A measurement report's ``(case_id, actual, curvature_deg)`` triples in
    report order, and a ``(case_id, reason)`` pair per case the metrics leave
    out: failed cases in report order, then the labelled cases it lacks in
    ``labels`` order. A case listed twice, under one list or under both,
    raises; an unlabelled case raises after that. The document is as
    :func:`loads_report` gives it: None, or a dict whose floats may be bytes."""
    cases = (document or {}).get("cases")
    if not isinstance(cases, list):
        raise DatasetFormatError("report JSON has no 'cases' list")
    measured = []
    for entry in cases:
        if (
            not isinstance(entry, dict)
            or not isinstance(entry.get("case_id"), str)
            # exact types, so a JSON true is not read as 1 degree
            or type(entry.get("curvature_deg")) not in (int, float, bytes)
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
    listed = {}  # case id -> the list it is first under
    for where, entries in (("cases", cases), ("errors", errors)):
        for case_id in [entry["case_id"] for entry in entries]:
            if case_id in listed:
                raise DatasetFormatError(
                    f"report case {case_id!r} is listed more than once under {where!r}"
                    if listed[case_id] == where
                    else f"report case {case_id!r} is listed under both 'cases' and 'errors'"
                )
            listed[case_id] = where
    unlabelled = [case_id for case_id, _ in measured if case_id not in labels]
    if unlabelled:
        raise DatasetFormatError(f"case {unlabelled[0]!r} missing from labels file")
    absent = [case_id for case_id in labels if case_id not in listed]
    left_out = [(entry["case_id"], f"not measured ({entry['error']})") for entry in errors]
    left_out += [(case_id, "labelled but not in the report") for case_id in absent]
    return [(case_id, labels[case_id], angle) for case_id, angle in measured], left_out


def evaluation_report(rows, counts, scores, config: RunConfig) -> dict:
    """Assemble the evaluation report document from ``evaluate_dataset``'s
    case rows, confusion counts and metrics; every metric is also rounded.
    Case rows are gated by their measured angle, their one float."""
    gates = _orjson_floats(np.array([row["measured_deg"] for row in rows], np.float64))
    return {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "config": config.as_dict(),
        "cases": _Rows(gates, rows.__getitem__),
        "confusion": counts,
        "metrics": scores,
        "metrics_rounded": {name: round_half_up(value) for name, value in scores.items()},
    }


def dumps_report(document, out) -> None:
    """Write a document to the text stream ``out`` as ``json.dumps(document, indent=2)``
    plus a newline, as it is made: one write per piece of :func:`_dumps`, so a
    write holds at most one run of ``CHUNK_FRAMES`` items."""
    out.writelines(_dumps(document, ""))
    out.write("\n")


def sweep_sidecar(phantom, result) -> dict:
    """Oracle sidecar of a ``synth.PhantomSpec`` and its ``synth.SweepColumns``:
    the spec as given, the snapped hinge position and the true angle per frame."""
    pitch = result.pitch_deg  # a float, or an int as given to synth.sweep
    poses = np.array([result.yaw_deg, result.true_apparent_deg], np.float64).reshape(2, -1)
    in_range = _orjson_floats(poses).all(axis=0) & _orjson_floats(np.float64(pitch))
    frames = [
        {"frame_index": i, "yaw_deg": yaw, "pitch_deg": pitch, "true_apparent_deg": angle}
        for i, (yaw, angle) in enumerate(zip(result.yaw_deg, result.true_apparent_deg))
    ]
    return {
        "schema_version": SCHEMA_VERSION,
        "case_id": phantom.case_id,
        "spec": {**phantom.given, "snapped_hinge_position": phantom.model.snapped_position},
        "frames": _Rows(in_range, frames.__getitem__),
    }
