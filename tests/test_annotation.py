"""Label parsing, emission, and conversion."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kpcurve.annotation import (
    BadDimensionsError,
    BoundingBox,
    FrameDetection,
    KeypointSet,
    MalformedXmlError,
    MissingBoxError,
    MissingPointsError,
    NegativeClassError,
    NonNumericError,
    OutOfRangeError,
    TokenCountError,
    WrongPointCountError,
    convert_cvat_to_yolo,
    emit_yolo_line,
    parse_cvat_xml,
    parse_yolo_line,
)
from kpcurve.geometry import middle_line
from kpcurve.report import dumps_frame, parse_frame_line

VALID_LINE = "0 0.5 0.5 0.4 0.6 " + " ".join(
    f"{0.1 + 0.05 * k:.6f} {0.2 + 0.04 * k:.6f}" for k in range(15)
)


def coords(n=34):
    return st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        min_size=n,
        max_size=n,
    )


def random_detection(rng) -> FrameDetection:
    values = rng.uniform(0.0, 1.0, 34)
    values[2] = rng.uniform(1e-3, 1.0)
    values[3] = rng.uniform(1e-3, 1.0)
    return FrameDetection(
        class_id=int(rng.integers(0, 5)),
        bbox=BoundingBox(*values[:4]),
        keypoints=KeypointSet(values[4:].reshape(15, 2)),
    )


class TestKeypointSet:
    def test_points_are_read_only(self):
        kp = KeypointSet(np.full((15, 2), 0.5))
        with pytest.raises(ValueError):
            kp.points[0, 0] = 0.25

    def test_source_array_is_copied(self):
        source = np.full((15, 2), 0.5)
        kp = KeypointSet(source)
        source[0, 0] = 0.25
        assert kp.points[0, 0] == 0.5
        assert source.flags.writeable

    @pytest.mark.parametrize("shape", [(14, 2), (15, 3)])
    def test_wrong_shape_rejected(self, shape):
        with pytest.raises(WrongPointCountError):
            KeypointSet(np.full(shape, 0.5))

    def test_repeated_parses_compare_equal(self):
        assert parse_yolo_line(VALID_LINE) == parse_yolo_line(VALID_LINE)
        line = dumps_frame("c", parse_yolo_line(VALID_LINE), 3)
        assert parse_frame_line(line) == parse_frame_line(line)
        assert parse_frame_line(line) != parse_frame_line(line.replace("0.1,", "0.15,", 1))

    def test_detections_are_not_hashable(self):
        with pytest.raises(TypeError):
            hash(parse_yolo_line(VALID_LINE))


class TestParseYoloLine:
    def test_happy_path_round_values(self):
        det = parse_yolo_line(VALID_LINE)
        assert det.class_id == 0
        assert det.bbox == BoundingBox(0.5, 0.5, 0.4, 0.6)
        assert det.keypoints.points[0, 0] == pytest.approx(0.1, abs=1e-12)
        assert det.keypoints.points[14, 1] == pytest.approx(0.2 + 0.04 * 14, abs=1e-12)

    def test_row_major_grid_addressing(self):
        det = parse_yolo_line(VALID_LINE)
        # row r spans flat positions 5r .. 5r+4
        tokens = [float(t) for t in VALID_LINE.split()[5:]]
        assert det.keypoints.points[10:15].ravel().tolist() == tokens[20:30]
        assert np.array_equal(middle_line(det.keypoints), det.keypoints.points[5:10])

    @pytest.mark.parametrize("count", [34, 36, 1, 0])
    def test_wrong_token_count(self, count):
        line = " ".join(["0.5"] * count)
        with pytest.raises(TokenCountError):
            parse_yolo_line(line)

    def test_non_numeric_token(self):
        bad = VALID_LINE.split()
        bad[7] = "abc"
        with pytest.raises(NonNumericError):
            parse_yolo_line(" ".join(bad))

    def test_non_integer_class(self):
        bad = VALID_LINE.split()
        bad[0] = "1.5"
        with pytest.raises(NonNumericError):
            parse_yolo_line(" ".join(bad))

    def test_negative_class(self):
        bad = VALID_LINE.split()
        bad[0] = "-1"
        with pytest.raises(NegativeClassError):
            parse_yolo_line(" ".join(bad))

    @pytest.mark.parametrize("value", ["1.2", "-0.1", "nan", "inf"])
    def test_out_of_range_coordinate(self, value):
        bad = VALID_LINE.split()
        bad[5] = value
        with pytest.raises(OutOfRangeError):
            parse_yolo_line(" ".join(bad))

    def test_zero_size_box_rejected(self):
        bad = VALID_LINE.split()
        bad[3] = "0.000000"
        with pytest.raises(OutOfRangeError):
            parse_yolo_line(" ".join(bad))

    def test_whitespace_flexible(self):
        det = parse_yolo_line("  " + VALID_LINE.replace(" ", "   ") + " \t")
        assert det.class_id == 0


class TestEmitYoloLine:
    def test_shape_and_precision(self):
        det = parse_yolo_line(VALID_LINE)
        line = emit_yolo_line(det)
        tokens = line.split(" ")
        assert len(tokens) == 35
        assert line == line.strip()
        assert tokens[0] == "0"
        assert all("." in t and len(t.split(".")[1]) == 6 for t in tokens[1:])

    def test_emit_parse_fixpoint(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            det = random_detection(rng)
            once = emit_yolo_line(det)
            again = emit_yolo_line(parse_yolo_line(once))
            assert once == again

    @given(values=coords())
    @settings(max_examples=200)
    def test_round_trip_within_emit_precision(self, values):
        bbox = BoundingBox(values[0], values[1], max(values[2], 1e-3), max(values[3], 1e-3))
        det = FrameDetection(
            class_id=0,
            bbox=bbox,
            keypoints=KeypointSet(np.reshape(values[4:], (15, 2))),
        )
        back = parse_yolo_line(emit_yolo_line(det))
        assert np.abs(det.keypoints.points - back.keypoints.points).max() <= 5e-7


class TestParseCvatXml:
    def test_fixture_fields_preserved(self, cvat_document):
        anns = parse_cvat_xml(cvat_document)
        assert [a.image_name for a in anns] == ["case_a_0001.png", "case_b_0001.png"]
        first = anns[0]
        assert (first.image_width, first.image_height) == (1280, 720)
        assert first.box == (100.5, 50.25, 900.75, 600.5)
        assert len(first.points) == 15
        assert first.points[0] == (120.0, 80.0)
        assert first.points[14] == (895.0, 560.0)

    def test_non_image_elements_ignored(self, cvat_document):
        anns = parse_cvat_xml(cvat_document)
        assert len(anns) == 2  # version/meta elements skipped

    def test_malformed_xml(self):
        with pytest.raises(MalformedXmlError):
            parse_cvat_xml("<annotations><image")

    def test_missing_box(self, cvat_document):
        doc = cvat_document.replace(
            '<box label="shaft" xtl="100.5" ytl="50.25" xbr="900.75" ybr="600.5" occluded="0"/>',
            "",
        )
        with pytest.raises(MissingBoxError):
            parse_cvat_xml(doc)

    def test_missing_points(self, cvat_document):
        start = cvat_document.index('<points label="grid" points="120')
        end = cvat_document.index("/>", start) + 2
        with pytest.raises(MissingPointsError):
            parse_cvat_xml(cvat_document[:start] + cvat_document[end:])

    def test_wrong_point_count(self, cvat_document):
        doc = cvat_document.replace(";895,560", "")
        with pytest.raises(WrongPointCountError):
            parse_cvat_xml(doc)

    def test_bad_dimensions(self, cvat_document):
        with pytest.raises(BadDimensionsError):
            parse_cvat_xml(cvat_document.replace('width="1280"', 'width="0"'))
        with pytest.raises(BadDimensionsError):
            parse_cvat_xml(cvat_document.replace('width="1280"', 'width="wide"'))

    def test_inverted_box(self, cvat_document):
        doc = cvat_document.replace('xbr="900.75"', 'xbr="50.0"')
        with pytest.raises(MalformedXmlError):
            parse_cvat_xml(doc)

    def test_half_pixel_excursion_preserved(self, cvat_document):
        doc = cvat_document.replace('xtl="100.5"', 'xtl="-0.4"')
        anns = parse_cvat_xml(doc)
        assert anns[0].box[0] == -0.4

    def test_larger_excursion_rejected(self, cvat_document):
        doc = cvat_document.replace('xtl="100.5"', 'xtl="-0.6"')
        with pytest.raises(OutOfRangeError):
            parse_cvat_xml(doc)
        doc = cvat_document.replace("895,560", "1280.6,560")
        with pytest.raises(OutOfRangeError):
            parse_cvat_xml(doc)


class TestConvertCvatToYolo:
    def test_matches_independent_normalization(self, cvat_document):
        # recompute the expected values with plain arithmetic, no library code
        ann = parse_cvat_xml(cvat_document)[0]
        det = convert_cvat_to_yolo(ann, class_id=3)
        w, h = 1280.0, 720.0
        assert det.class_id == 3
        assert math.isclose(det.bbox.cx, (100.5 + 900.75) / 2 / w, abs_tol=1e-9)
        assert math.isclose(det.bbox.cy, (50.25 + 600.5) / 2 / h, abs_tol=1e-9)
        assert math.isclose(det.bbox.w, (900.75 - 100.5) / w, abs_tol=1e-9)
        assert math.isclose(det.bbox.h, (600.5 - 50.25) / h, abs_tol=1e-9)
        for k, (px, py) in enumerate(ann.points):
            assert math.isclose(det.keypoints.points[k, 0], px / w, abs_tol=1e-9)
            assert math.isclose(det.keypoints.points[k, 1], py / h, abs_tol=1e-9)

    def test_point_order_is_row_major(self, cvat_document):
        ann = parse_cvat_xml(cvat_document)[0]
        det = convert_cvat_to_yolo(ann)
        # middle row of the fixture starts at pixel point index 5
        assert middle_line(det.keypoints)[0, 0] == pytest.approx(130 / 1280, abs=1e-12)

    def test_half_pixel_clamped_to_edge(self, cvat_document):
        ann = parse_cvat_xml(cvat_document)[0]
        shifted = dataclasses.replace(ann, box=(-0.4, 50.25, 900.75, 720.3))
        det = convert_cvat_to_yolo(shifted)
        assert det.bbox.cx == pytest.approx((0.0 + 900.75) / 2 / 1280, abs=1e-12)
        assert det.bbox.cy == pytest.approx((50.25 + 720.0) / 2 / 720, abs=1e-12)

    def test_large_excursion_rejected(self, cvat_document):
        ann = parse_cvat_xml(cvat_document)[0]
        shifted = dataclasses.replace(ann, box=(-0.6, 50.25, 900.75, 600.5))
        with pytest.raises(OutOfRangeError):
            convert_cvat_to_yolo(shifted)

    def test_negative_class_rejected(self, cvat_document):
        ann = parse_cvat_xml(cvat_document)[0]
        with pytest.raises(NegativeClassError):
            convert_cvat_to_yolo(ann, class_id=-2)

    def test_converted_detection_is_valid(self, cvat_document):
        for ann in parse_cvat_xml(cvat_document):
            det = convert_cvat_to_yolo(ann)
            box = (det.bbox.cx, det.bbox.cy, det.bbox.w, det.bbox.h)
            values = [*box, *det.keypoints.points.ravel()]
            assert all(0.0 <= v <= 1.0 for v in values)
            assert det.bbox.w > 0.0 and det.bbox.h > 0.0
