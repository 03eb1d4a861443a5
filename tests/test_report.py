"""JSONL frame-line validation: exact, line-numbered error messages, and
the batched stream parser checked line for line against the per-line one."""

import copy
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import detection_with_angle, frame_line
from kpcurve import sequence
from kpcurve.report import (
    JsonlFormatError,
    iter_frame_stream,
    parse_frame_line,
)
from kpcurve.sequence import middle_line

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
    10**400,
]
# in range, so accepted by both parsers, including the integers 0 and 1
GOOD_VALUES = [0, 1, 0.0, -0.0, 1.0, 5e-324]
BAD_FIELDS = {
    "case_id": ["", 5, None],
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
}
BASE_RECORDS = [
    json.loads(frame_line("c", detection_with_angle(angle), 0))
    for angle in (5.0, 40.0, 120.0)
]


def good_line(base, case_id, frame_index, edit) -> str:
    """A valid line; ``edit`` is None or (flat coordinate slot, in-range value)."""
    record = copy.deepcopy(base)
    record["case_id"] = case_id
    record["frame_index"] = frame_index
    if edit is not None:
        slot, value = edit
        if slot < 4:
            record["bbox"][slot] = value
        else:
            record["keypoints"][(slot - 4) // 2][slot % 2] = value
    return json.dumps(record, separators=(",", ":"))


def outcome(parse):
    """Flattened (case_ids, frame_indices, middle-line bytes), or the error text."""
    try:
        case_ids, frame_indices, middles = parse()
    except JsonlFormatError as exc:
        return str(exc)
    assert all(type(index) is int for index in frame_indices)
    return case_ids, frame_indices, middles.tobytes()


@given(
    frames=st.lists(
        st.builds(
            good_line,
            st.sampled_from(BASE_RECORDS),
            st.sampled_from(["a", "b", "ça"]),
            st.one_of(st.integers(0, 40), st.just(10**30)),
            st.none() | st.tuples(st.integers(0, 33), st.sampled_from(GOOD_VALUES)),
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
            np.concatenate([middles for _, _, middles in batches]),
        )

    def reference():
        records = [
            parse_frame_line(line.strip(), lineno)
            for lineno, line in enumerate(lines, start=1)
            if line.strip()
        ]
        return (
            [case_id for case_id, _, _ in records],
            [frame_index for _, frame_index, _ in records],
            middle_line(np.array([points for _, _, points in records])),
        )

    with mock.patch.object(sequence, "CHUNK_FRAMES", chunk):
        assert outcome(batched) == outcome(reference)


@pytest.mark.parametrize("position", [0, 2, 3, 5], ids=["first", "mid", "last", "later"])
@pytest.mark.parametrize("bad", BAD_LINES.values(), ids=BAD_LINES.keys())
def test_bad_line_anywhere_in_a_batch(position, bad, monkeypatch):
    # batches of four: first, mid-batch, last in the batch, second batch
    monkeypatch.setattr(sequence, "CHUNK_FRAMES", 4)
    lines = [GOOD_LINE] * 7
    lines[position] = bad
    with pytest.raises(JsonlFormatError) as expected:
        parse_frame_line(bad, position + 1)
    assert error_for(lines) == str(expected.value)


def test_value_count_checked_per_line(monkeypatch):
    # five bbox values on one line and three on the next keep the batch's
    # total at 34 per line, so only the per-line length check sees them
    monkeypatch.setattr(sequence, "CHUNK_FRAMES", 4)
    long_box = edited(lambda record: record["bbox"].append(0.5))
    short_box = edited(lambda record: record["bbox"].pop())
    lines = [GOOD_LINE, long_box, short_box, GOOD_LINE]
    assert error_for(lines) == "line 2: bbox must be a list of 4 numbers"
