"""JSONL frame-line validation: exact, line-numbered error messages."""

import json

import pytest

from conftest import detection_with_angle
from kpcurve.report import JsonlFormatError, dumps_frame, iter_frame_stream

GOOD_LINE = dumps_frame("c", detection_with_angle(30.0), 0)


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
