"""JSONL frame-line validation: exact, line-numbered error messages, and
the batched stream parser checked line for line against the per-line one."""

import copy
import decimal
import json
import math
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import detection_with_angle, frame_line
from kpcurve import report
from kpcurve.report import (
    JsonlFormatError,
    iter_frame_stream,
    parse_frame_line,
)

GOOD_LINE = frame_line("c", detection_with_angle(30.0), 0)


def bad_stream(edit) -> list[str]:
    """A good line followed by a copy edited by ``edit(record)``."""
    record = json.loads(GOOD_LINE)
    edit(record)
    return [GOOD_LINE, json.dumps(record)]


def error_for(lines) -> str:
    with pytest.raises(JsonlFormatError) as exc:
        list(iter_frame_stream(lines))
    return str(exc.value)


def set_bbox(value):
    def edit(record):
        record["bbox"][1] = value

    return edit


def set_keypoint(value):
    def edit(record):
        record["keypoints"][4][1] = value

    return edit


NOT_A_NUMBER = "line 2: coordinates must be numbers"


@pytest.mark.parametrize("slot", [set_bbox, set_keypoint], ids=["bbox", "keypoint"])
@pytest.mark.parametrize(
    "value, message",
    [
        (True, NOT_A_NUMBER),
        ("0.5", NOT_A_NUMBER),
        (None, NOT_A_NUMBER),
        ([0.5], NOT_A_NUMBER),
        (float("nan"), "line 2: coordinate nan outside [0, 1]"),
        (float("inf"), "line 2: coordinate inf outside [0, 1]"),
        (1.5, "line 2: coordinate 1.5 outside [0, 1]"),
        (-1e-9, "line 2: coordinate -1e-09 outside [0, 1]"),
    ],
    ids=["true", "string", "null", "list", "NaN", "Infinity", "1.5", "-1e-9"],
)
def test_bad_value_message(slot, value, message):
    assert error_for(bad_stream(slot(value))) == message


def test_three_element_pair():
    def edit(record):
        record["keypoints"][4] = [0.5, 0.5, 0.5]

    assert error_for(bad_stream(edit)) == "line 2: each keypoint must be an [x, y] pair"


def test_five_element_bbox():
    def edit(record):
        record["bbox"].append(0.5)

    assert error_for(bad_stream(edit)) == "line 2: bbox must be a list of 4 numbers"


def test_missing_field():
    assert error_for(bad_stream(lambda record: record.pop("bbox"))) == (
        "line 2: missing field 'bbox'"
    )


def test_first_bad_value_wins():
    def range_first(record):
        record["bbox"][0] = 1.5
        record["keypoints"][0][0] = "x"

    def type_first(record):
        record["bbox"][0] = "x"
        record["keypoints"][0][0] = 1.5

    assert error_for(bad_stream(range_first)) == "line 2: coordinate 1.5 outside [0, 1]"
    assert error_for(bad_stream(type_first)) == NOT_A_NUMBER


def test_huge_integer_is_a_range_error():
    assert error_for(bad_stream(set_keypoint(10**400))).startswith(
        "line 2: coordinate 1000"
    )


# -- the batched parser against the per-line one --------------------------

BAD_VALUES = [
    True, "0.5", None, [0.5], float("nan"), float("inf"), float("-inf"), 1.5, -1e-9,
    10**400, 2**64,
]
# JSON literals in range, so accepted by both parsers, including the integers
# 0, 1 and -0, and 17-significant-digit floats
GOOD_VALUES = [
    "0", "1", "-0", "0.0", "-0.0", "1.0", "5e-324", "1E-1",
    "0.30000000000000004", "0.12345678901234567", "9.9999999999999995e-7",
]
BAD_FIELDS = {
    "case_id": ["", 5, None, " a", "a ", "\ta", "a\u3000"],
    "frame_index": [-1, True, 1.0, "0"],
    "class_id": [-1, False, 0.5],
    "bbox": ["0.5", {}],
    "keypoints": [[[0.5, 0.5]] * 14, [[0.5, 0.5]] * 16, "k"],
}


def edited(edit) -> str:
    record = json.loads(GOOD_LINE)
    edit(record)
    return json.dumps(record)


def set_field(field, value):
    def edit(record):
        record[field] = value

    return edit


def drop_field(field):
    return lambda record: record.pop(field)


def three_element_pair(record):
    record["keypoints"][4].append(0.5)


def regrouped_pairs(record):
    # a 3-element pair and a 1-element pair: the value count stays 34
    record["keypoints"][2].append(record["keypoints"][3].pop())


def label(value) -> str:
    return f"list{len(value)}" if isinstance(value, list) else f"{value!r:.12}"


BAD_LINES = {
    **{
        f"{slot.__name__}={label(value)}": edited(slot(value))
        for slot in (set_bbox, set_keypoint)
        for value in BAD_VALUES
    },
    **{
        f"{field}={label(value)}": edited(set_field(field, value))
        for field, values in BAD_FIELDS.items()
        for value in values
    },
    **{f"no_{field}": edited(drop_field(field)) for field in BAD_FIELDS},
    "three_element_pair": edited(three_element_pair),
    "regrouped_pairs": edited(regrouped_pairs),
    "array": "[1, 2]",
    "string": '"frame"',
    "number": "3",
    "null": "null",
    "truncated": GOOD_LINE[:-1],
    "trailing_data": GOOD_LINE + "x",
    "half_line": GOOD_LINE[: len(GOOD_LINE) // 2],
    # text that orjson refuses and json reads (BAD_VALUES gives NaN and Infinity)
    "bbox=1e400": edited(set_bbox("<v>")).replace('"<v>"', "1e400"),
    "keypoint=-1e400": edited(set_keypoint("<v>")).replace('"<v>"', "-1e400"),
    "raw_surrogate_id": GOOD_LINE.replace('"c"', '"c\udcff"'),
    # the last of duplicate keys wins in both decoders
    "duplicate_bad_last": GOOD_LINE[:-1] + ',"frame_index":-1}',
    # whitespace that is not JSON's makes no line blank
    "formfeed_after": GOOD_LINE + "\x0c",
    "nbsp_after": GOOD_LINE + "\xa0",
    "separator_after": GOOD_LINE + "\x1c",
    "formfeed_before": "\x0c" + GOOD_LINE,
    "formfeed_only": "\x0c",
    "nbsp_only": "\xa0",
    "separator_only": "\x1c",
}
NOT_NUMBERS = "coordinates must be numbers"
# each BAD_VALUES entry's message, in order
BAD_VALUE_MESSAGES = [
    NOT_NUMBERS, NOT_NUMBERS, NOT_NUMBERS, NOT_NUMBERS,
    "coordinate nan outside [0, 1]",
    "coordinate inf outside [0, 1]",
    "coordinate -inf outside [0, 1]",
    "coordinate 1.5 outside [0, 1]",
    "coordinate -1e-09 outside [0, 1]",
    "coordinate 1" + "0" * 400 + " outside [0, 1]",
    "coordinate 18446744073709551616 outside [0, 1]",
]
BAD_FIELD_MESSAGES = {
    "case_id": "bad case_id",
    "frame_index": "frame_index must be a non-negative integer",
    "class_id": "class_id must be a non-negative integer",
    "bbox": "bbox must be a list of 4 numbers",
    "keypoints": "keypoints must be a list of 15 [x, y] pairs",
}
NOT_JSON = "not valid JSON (Expecting value)"
# the exact message of every BAD_LINES entry, without its "line N: " prefix
BAD_LINE_MESSAGES = {
    **{
        f"{slot.__name__}={label(value)}": message
        for slot in (set_bbox, set_keypoint)
        for value, message in zip(BAD_VALUES, BAD_VALUE_MESSAGES, strict=True)
    },
    **{
        f"{field}={label(value)}": BAD_FIELD_MESSAGES[field]
        for field, values in BAD_FIELDS.items()
        for value in values
    },
    **{f"no_{field}": f"missing field {field!r}" for field in BAD_FIELDS},
    "three_element_pair": "each keypoint must be an [x, y] pair",
    "regrouped_pairs": "each keypoint must be an [x, y] pair",
    "array": "expected a JSON object",
    "string": "expected a JSON object",
    "number": "expected a JSON object",
    "null": "expected a JSON object",
    "truncated": "not valid JSON (Expecting ',' delimiter)",
    "trailing_data": "not valid JSON (Extra data)",
    "half_line": "not valid JSON (Expecting ',' delimiter)",
    "bbox=1e400": "coordinate inf outside [0, 1]",
    "keypoint=-1e400": "coordinate -inf outside [0, 1]",
    "raw_surrogate_id": "not valid UTF-8",
    "duplicate_bad_last": "frame_index must be a non-negative integer",
    "formfeed_after": "not valid JSON (Extra data)",
    "nbsp_after": "not valid JSON (Extra data)",
    "separator_after": "not valid JSON (Extra data)",
    "formfeed_before": NOT_JSON,
    "formfeed_only": NOT_JSON,
    "nbsp_only": NOT_JSON,
    "separator_only": NOT_JSON,
}
JSON_WHITESPACE = " \t\r\n"
BASE_RECORDS = [
    json.loads(frame_line("c", detection_with_angle(angle), 0))
    for angle in (5.0, 40.0, 120.0)
]


def good_line(base, case_id, frame_index, edit, ensure_ascii, duplicate) -> str:
    """A valid line. ``frame_index`` is a JSON literal, and ``edit`` None or
    (flat coordinate slot, in-range JSON literal). Non-ASCII ids are escaped
    only with ``ensure_ascii``; ``duplicate`` puts bad values first under
    keys that the line's own later keys override."""
    record = copy.deepcopy(base)
    record["case_id"] = case_id
    record["frame_index"] = "<index>"
    if edit is not None:
        slot, value = edit
        if slot < 4:
            record["bbox"][slot] = "<value>"
        else:
            record["keypoints"][(slot - 4) // 2][slot % 2] = "<value>"
    text = json.dumps(record, separators=(",", ":"), ensure_ascii=ensure_ascii)
    text = text.replace('"<index>"', frame_index)
    if edit is not None:
        text = text.replace('"<value>"', edit[1])
    if duplicate:
        text = '{"frame_index":-1,"case_id":"","bbox":null,' + text[1:]
    return text


def outcome(parse):
    """Flattened (case_ids, frame_indices, keypoint-grid bytes), or the error
    text; every one of a frame's 15 keypoints is compared."""
    try:
        case_ids, frame_indices, points = parse()
    except JsonlFormatError as exc:
        return str(exc)
    assert all(type(index) is int for index in frame_indices)
    assert points.shape == (len(case_ids), 15, 2) and points.dtype == np.float64
    return case_ids, frame_indices, points.tobytes()


@given(
    frames=st.lists(
        st.builds(
            good_line,
            st.sampled_from(BASE_RECORDS),
            # "\ud800" is escaped with ensure_ascii and a bad raw surrogate without
            st.sampled_from(["a", "b", "ça", "\ud800", "日本"]),
            st.one_of(
                st.integers(0, 40).map(str),
                st.sampled_from([str(10**30), str(2**63), str(2**64), "-0"]),
            ),
            st.none()
            | st.tuples(
                st.integers(0, 33),
                st.sampled_from(GOOD_VALUES)
                | st.integers(0, 10**17 - 1).map(lambda digits: f"0.{digits:017d}"),
            ),
            st.booleans(),
            st.booleans(),
        ),
        min_size=1,
        max_size=12,
    ),
    bad=st.none() | st.tuples(st.integers(0, 12), st.sampled_from(list(BAD_LINES.values()))),
    blanks=st.lists(
        st.tuples(st.integers(0, 14), st.sampled_from(["", " ", "\t"])), max_size=3
    ),
    chunk=st.sampled_from([1, 3, 4, 256]),
)
@settings(max_examples=300, deadline=None)
def test_batched_parse_matches_line_parser(frames, bad, blanks, chunk):
    lines = list(frames)
    if bad is not None:
        lines.insert(min(bad[0], len(lines)), bad[1])
    for position, blank in blanks:
        lines.insert(min(position, len(lines)), blank)
    lines = [line + "\n" for line in lines]

    def batched():
        batches = list(iter_frame_stream(lines))
        assert all(len(ids) <= chunk for ids, _, _ in batches)
        return (
            [case_id for ids, _, _ in batches for case_id in ids],
            [index for _, indices, _ in batches for index in indices],
            np.concatenate([points for _, _, points in batches]),
        )

    def reference():
        records = [
            parse_frame_line(line.strip(JSON_WHITESPACE), lineno)
            for lineno, line in enumerate(lines, start=1)
            if line.strip(JSON_WHITESPACE)
        ]
        return (
            [case_id for case_id, _, _ in records],
            [frame_index for _, frame_index, _ in records],
            np.array([points for _, _, points in records]),
        )

    with mock.patch.object(report, "CHUNK_FRAMES", chunk):
        assert outcome(batched) == outcome(reference)


@pytest.mark.parametrize("position", [0, 2, 3, 5], ids=["first", "mid", "last", "later"])
@pytest.mark.parametrize("bad", BAD_LINES.values(), ids=BAD_LINES.keys())
def test_bad_line_anywhere_in_a_batch(position, bad, monkeypatch):
    # batches of four: first, mid-batch, last in the batch, second batch
    monkeypatch.setattr(report, "CHUNK_FRAMES", 4)
    lines = [GOOD_LINE] * 7
    lines[position] = bad
    with pytest.raises(JsonlFormatError) as expected:
        parse_frame_line(bad, position + 1)
    assert error_for(lines) == str(expected.value)


@pytest.mark.parametrize("chunk", [1, 4])
@pytest.mark.parametrize("name", BAD_LINES)
def test_bad_line_message(name, chunk, monkeypatch):
    # the bad line is third: mid-batch in batches of four
    monkeypatch.setattr(report, "CHUNK_FRAMES", chunk)
    lines = [GOOD_LINE + "\n"] * 7
    lines[2] = BAD_LINES[name] + "\n"
    assert error_for(lines) == f"line 3: {BAD_LINE_MESSAGES[name]}"
    with pytest.raises(JsonlFormatError) as exc:
        parse_frame_line(BAD_LINES[name], 9)
    assert str(exc.value) == f"line 9: {BAD_LINE_MESSAGES[name]}"


LONG_ID = "L" * 5000
LONG_LINE = GOOD_LINE.replace('"c"', f'"{LONG_ID}"')


@pytest.mark.parametrize("chunk", [1, 4, 256])
def test_long_line_is_accepted(chunk, monkeypatch):
    # a line past _ORJSON_MAX_CHARS goes to json, alone or among short lines
    assert len(LONG_LINE) > 5000 > report._ORJSON_MAX_CHARS
    monkeypatch.setattr(report, "CHUNK_FRAMES", chunk)
    short = [frame_line(f"s{i}", detection_with_angle(10.0 * i), i) for i in range(5)]
    for lines in ([LONG_LINE], short[:2] + [LONG_LINE] + short[2:]):
        case_ids, frame_indices, points = zip(*map(parse_frame_line, lines))
        batches = list(iter_frame_stream(lines))
        assert [case_id for ids, _, _ in batches for case_id in ids] == list(case_ids)
        assert [index for _, indices, _ in batches for index in indices] == list(frame_indices)
        grids = np.concatenate([grids for _, _, grids in batches])
        assert grids.tobytes() == np.array(points).tobytes()
    assert LONG_ID in case_ids


def test_value_count_checked_per_line(monkeypatch):
    # five bbox values on one line and three on the next keep the batch's
    # total at 34 per line, so only the per-line length check sees them
    monkeypatch.setattr(report, "CHUNK_FRAMES", 4)
    long_box = edited(lambda record: record["bbox"].append(0.5))
    short_box = edited(lambda record: record["bbox"].pop())
    lines = [GOOD_LINE, long_box, short_box, GOOD_LINE]
    assert error_for(lines) == "line 2: bbox must be a list of 4 numbers"


@pytest.mark.parametrize(
    "lines",
    [[], ["\n", "\n", "\n", "\n"], [" \t\r\n", "\r\n", "  ", "\t"]],
    ids=["no-lines", "blank", "json-whitespace"],
)
def test_stream_without_frames_raises(lines, monkeypatch):
    # more lines than a batch of three, and not one of them a frame
    monkeypatch.setattr(report, "CHUNK_FRAMES", 3)
    assert error_for(lines) == "no frames in stream"


@pytest.mark.parametrize("count", [3, 6])
def test_whole_batches_are_not_empty(count, monkeypatch):
    # every full batch empties the lists the next is gathered in, so a stream of
    # whole batches, a blank line after them, ends with those lists empty
    monkeypatch.setattr(report, "CHUNK_FRAMES", 3)
    batches = list(iter_frame_stream([GOOD_LINE + "\n"] * count + ["\n"]))
    assert [len(ids) for ids, _, _ in batches] == [3] * (count // 3)


def test_lone_surrogates():
    # a raw surrogate is an undecodable byte read with surrogateescape; an
    # escaped one is JSON text, which json reads when orjson refuses it
    raw = GOOD_LINE.replace('"c"', '"c\udcff"')
    escaped = GOOD_LINE.replace('"c"', '"c\\udcff"')
    with pytest.raises(JsonlFormatError, match="^line 1: not valid UTF-8$"):
        parse_frame_line(raw)
    assert parse_frame_line(escaped)[0] == "c\udcff"
    assert [ids for ids, _, _ in iter_frame_stream([GOOD_LINE, escaped])] == [["c", "c\udcff"]]


def decimal_strings(seed: int) -> list[str]:
    """120000 decimal texts of finite floats, seeded: reprs of random doubles,
    fractions of 1-25 digits, 64-bit mantissas with exponents -340..288, and
    the exact midpoints between neighbouring doubles, each also nudged up and
    down by 1e-30 of their gap."""
    rng = np.random.default_rng(seed)
    n = 30_000
    # every finite double, sign included: the exponent field is below 0x7FF
    bits = rng.integers(0, 0x7FF0000000000000, n, dtype=np.uint64)
    bits |= rng.integers(0, 2, n, dtype=np.uint64) << np.uint64(63)
    texts = [repr(x) for x in bits.view(np.float64).tolist()]
    lengths = rng.integers(1, 26, n)
    digits = rng.integers(0, 10, (n, 25)).astype(str)
    texts += ["0." + "".join(row[:k]) for row, k in zip(digits.tolist(), lengths.tolist())]
    mantissas = rng.integers(0, 2**64 - 1, n, dtype=np.uint64, endpoint=True)
    exponents = rng.integers(-340, 289, n)
    texts += [f"{m}e{e}" for m, e in zip(mantissas.tolist(), exponents.tolist())]
    lows = 10.0 ** rng.uniform(-20, 20, n // 3)
    with decimal.localcontext(prec=200):
        for low in lows.tolist():
            gap = decimal.Decimal(math.nextafter(low, math.inf)) - decimal.Decimal(low)
            middle = decimal.Decimal(low) + gap / 2
            nudge = gap * decimal.Decimal("1e-30")
            texts += [f"{middle:e}", f"{middle + nudge:e}", f"{middle - nudge:e}"]
    return texts


def test_orjson_decodes_floats_as_json_does():
    texts = decimal_strings(seed=17)
    assert len(texts) >= 10**5
    document = "[" + ",".join(texts) + "]"
    ours, stock = orjson.loads(document), json.loads(document)
    assert set(map(type, ours)) == set(map(type, stock)) == {float}
    assert np.array(ours).view(np.uint64).tolist() == np.array(stock).view(np.uint64).tolist()
