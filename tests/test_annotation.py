"""Label parsing, emission, and conversion."""

import io
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import frame_line
from kpcurve.annotation import (
    AnnotationError,
    emit_yolo_line,
    parse_cvat_xml,
    parse_yolo_line,
)
from kpcurve.cli import EXIT_INPUT, EXIT_OK, main
from kpcurve.report import parse_frame_line
from kpcurve.sequence import middle_line

VALID_LINE = "0 0.5 0.5 0.4 0.6 " + " ".join(
    f"{0.1 + 0.05 * k:.6f} {0.2 + 0.04 * k:.6f}" for k in range(15)
)


def raises(message):
    """Expect an AnnotationError whose message is exactly ``message``."""
    return pytest.raises(AnnotationError, match=f"^{re.escape(message)}$")


def coords(n=34):
    return st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        min_size=n,
        max_size=n,
    )


def random_detection(rng):
    """A class id, box and keypoints, drawn at random."""
    values = rng.uniform(0.0, 1.0, 34)
    values[2] = rng.uniform(1e-3, 1.0)
    values[3] = rng.uniform(1e-3, 1.0)
    return int(rng.integers(0, 5)), values[:4], values[4:].reshape(15, 2)


def convert(document, tmp_path, class_id):
    """Run ``convert`` on ``document``; (exit code, stdout, stderr, files written)."""
    out, err = io.StringIO(), io.StringIO()
    argv = ["convert", "-", "-o", str(tmp_path), "--class-id", str(class_id)]
    rc = main(argv, stdin=io.StringIO(document), stdout=out, stderr=err)
    return rc, out.getvalue(), err.getvalue(), sorted(tmp_path.iterdir())


class TestParseYoloLine:
    def test_happy_path_round_values(self):
        box, points = parse_yolo_line(VALID_LINE)
        assert box.tolist() == [0.5, 0.5, 0.4, 0.6]
        assert points[0, 0] == pytest.approx(0.1, abs=1e-12)
        assert points[14, 1] == pytest.approx(0.2 + 0.04 * 14, abs=1e-12)

    def test_row_major_grid_addressing(self):
        _, points = parse_yolo_line(VALID_LINE)
        # row r spans flat positions 5r .. 5r+4
        tokens = [float(t) for t in VALID_LINE.split()[5:]]
        assert points[10:15].ravel().tolist() == tokens[20:30]
        assert np.array_equal(middle_line(points), points[5:10])

    def test_repeated_parses_compare_equal(self):
        def parsed(line):
            case_id, frame_index, points = parse_frame_line(line)
            return case_id, frame_index, points.tolist()

        first, again = parse_yolo_line(VALID_LINE), parse_yolo_line(VALID_LINE)
        assert [a.tolist() for a in first] == [a.tolist() for a in again]
        line = frame_line("c", first, 3)
        assert parsed(line) == parsed(line)
        assert parsed(line) != parsed(line.replace("0.1,", "0.15,", 1))

    @pytest.mark.parametrize("count", [34, 36, 1, 0])
    def test_wrong_token_count(self, count):
        line = " ".join(["0.5"] * count)
        with raises(f"expected 35 tokens, got {count}"):
            parse_yolo_line(line)

    def test_non_numeric_token(self):
        bad = VALID_LINE.split()
        bad[7] = "abc"
        with raises("token 7 ('abc') is not a number"):
            parse_yolo_line(" ".join(bad))

    def test_non_integer_class(self):
        bad = VALID_LINE.split()
        bad[0] = "1.5"
        with raises("class id '1.5' is not an integer"):
            parse_yolo_line(" ".join(bad))

    @pytest.mark.parametrize(
        "position, token, message",
        [
            (0, "\u0660", "class id '\u0660' is not an integer"),
            (7, "0.3_5", "token 7 ('0.3_5') is not a number"),
        ],
        ids=["arabic-indic-class", "underscore-token"],
    )
    def test_python_literal_grammar_refused(self, position, token, message):
        # int and float read 0.3_5 as 0.35 and an Arabic-Indic zero as 0
        bad = VALID_LINE.split()
        bad[position] = token
        with raises(message):
            parse_yolo_line(" ".join(bad))

    def test_signs_and_exponents_still_read(self):
        tokens = VALID_LINE.split()
        tokens[0], tokens[1], tokens[4] = "+0", "5E-1", "+6e-1"
        assert [a.tolist() for a in parse_yolo_line(" ".join(tokens))] == [
            a.tolist() for a in parse_yolo_line(VALID_LINE)
        ]

    def test_negative_class(self):
        bad = VALID_LINE.split()
        bad[0] = "-1"
        with raises("class id must be >= 0, got -1"):
            parse_yolo_line(" ".join(bad))

    @pytest.mark.parametrize("value", ["1.2", "-0.1", "nan", "inf"])
    def test_out_of_range_coordinate(self, value):
        bad = VALID_LINE.split()
        bad[5] = value
        with raises(f"token 5 ({value}) outside [0, 1]"):
            parse_yolo_line(" ".join(bad))

    def test_zero_size_box_rejected(self):
        bad = VALID_LINE.split()
        bad[3] = "0.000000"
        with raises("bounding box width and height must be positive"):
            parse_yolo_line(" ".join(bad))

    def test_whitespace_flexible(self):
        box, points = parse_yolo_line("  " + VALID_LINE.replace(" ", "   ") + " \t")
        expected_box, expected_points = parse_yolo_line(VALID_LINE)
        assert box.tolist() == expected_box.tolist()
        assert points.tolist() == expected_points.tolist()


class TestEmitYoloLine:
    def test_shape_and_precision(self):
        line = emit_yolo_line(0, *parse_yolo_line(VALID_LINE))
        tokens = line.split(" ")
        assert len(tokens) == 35
        assert line == line.strip()
        assert tokens[0] == "0"
        assert all("." in t and len(t.split(".")[1]) == 6 for t in tokens[1:])

    def test_emit_parse_fixpoint(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            once = emit_yolo_line(*random_detection(rng))
            again = emit_yolo_line(int(once.split()[0]), *parse_yolo_line(once))
            assert once == again

    @given(values=coords())
    @settings(max_examples=200)
    def test_round_trip_within_emit_precision(self, values):
        box = [values[0], values[1], max(values[2], 1e-3), max(values[3], 1e-3)]
        points = np.reshape(values[4:], (15, 2))
        _, back = parse_yolo_line(emit_yolo_line(0, box, points))
        assert np.abs(points - back).max() <= 5e-7

    @pytest.mark.parametrize("class_id", [-1, -2])
    def test_negative_class_id_rejected(self, class_id):
        with raises(f"class id must be >= 0, got {class_id}"):
            emit_yolo_line(class_id, *parse_yolo_line(VALID_LINE))


class TestParseCvatXml:
    def test_fixture_fields_preserved(self, cvat_document):
        images = parse_cvat_xml(cvat_document)
        assert [name for name, _, _ in images] == ["case_a_0001.png", "case_b_0001.png"]
        _, box, points = images[0]
        assert box.shape == (4,)
        assert box[2] == (900.75 - 100.5) / 1280
        assert points.shape == (15, 2)
        assert tuple(points[0]) == (120 / 1280, 80 / 720)
        assert tuple(points[14]) == (895 / 1280, 560 / 720)

    def test_non_image_elements_ignored(self, cvat_document):
        pairs = parse_cvat_xml(cvat_document)
        assert len(pairs) == 2  # version/meta elements skipped

    def test_malformed_xml(self):
        with pytest.raises(AnnotationError, match="^not well-formed XML: unclosed token"):
            parse_cvat_xml("<annotations><image")

    def test_missing_box(self, cvat_document):
        doc = cvat_document.replace(
            '<box label="shaft" xtl="100.5" ytl="50.25" xbr="900.75" ybr="600.5" occluded="0"/>',
            "",
        )
        with raises("image 'case_a_0001.png' has no box element"):
            parse_cvat_xml(doc)

    def test_missing_points(self, cvat_document):
        start = cvat_document.index('<points label="grid" points="120')
        end = cvat_document.index("/>", start) + 2
        with raises("image 'case_a_0001.png' has no points element"):
            parse_cvat_xml(cvat_document[:start] + cvat_document[end:])

    def test_wrong_point_count(self, cvat_document):
        doc = cvat_document.replace(";895,560", "")
        with raises("image 'case_a_0001.png' has 14 points, expected 15"):
            parse_cvat_xml(doc)

    def test_bad_dimensions(self, cvat_document):
        with raises("image width must be positive, got 0"):
            parse_cvat_xml(cvat_document.replace('width="1280"', 'width="0"'))
        with raises("image width 'wide' is not an integer"):
            parse_cvat_xml(cvat_document.replace('width="1280"', 'width="wide"'))

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ('width="1280"', 'width="1_280"', "image width '1_280' is not an integer"),
            (
                'height="720"',
                'height="\u0667\u0662\u0660"',
                "image height '\u0667\u0662\u0660' is not an integer",
            ),
            (
                'xtl="100.5"',
                'xtl="10_0.5"',
                "box attribute xtl='10_0.5' in 'case_a_0001.png' is not a number",
            ),
            ("120,80", "12_0,80", "bad point '12_0,80' in 'case_a_0001.png'"),
            ("120,80", "120,\uff18\uff10", "bad point '120,\uff18\uff10' in 'case_a_0001.png'"),
        ],
        ids=[
            "underscore-width",
            "arabic-indic-height",
            "underscore-xtl",
            "underscore-x",
            "fullwidth-y",
        ],
    )
    def test_python_literal_grammar_refused(self, cvat_document, old, new, message):
        # int and float read 1_280 as 1280 and non-ASCII digits as their values
        with raises(message):
            parse_cvat_xml(cvat_document.replace(old, new, 1))

    def test_signs_exponents_and_spaces_still_read(self, cvat_document):
        doc = cvat_document.replace('width="1280"', 'width=" +1280 "', 1)
        doc = doc.replace('xtl="100.5"', 'xtl="1.005e2"', 1).replace("120,80", " +120 , 8E1 ", 1)
        first, again = parse_cvat_xml(doc)[0], parse_cvat_xml(cvat_document)[0]
        assert first[0] == again[0]
        assert [a.tolist() for a in first[1:]] == [a.tolist() for a in again[1:]]

    def test_inverted_box(self, cvat_document):
        doc = cvat_document.replace('xbr="900.75"', 'xbr="50.0"')
        with raises("box in 'case_a_0001.png' is empty or inverted"):
            parse_cvat_xml(doc)

    def test_larger_excursion_rejected(self, cvat_document):
        doc = cvat_document.replace('xtl="100.5"', 'xtl="-0.6"')
        with raises("case_a_0001.png: box xtl = -0.6 more than 0.5 px outside [0, 1280]"):
            parse_cvat_xml(doc)
        doc = cvat_document.replace("895,560", "1280.6,560")
        with raises("case_a_0001.png: point 14 x = 1280.6 more than 0.5 px outside [0, 1280]"):
            parse_cvat_xml(doc)

    @pytest.mark.parametrize(
        "edits, message",
        [
            # within an image the box goes xtl, xbr, ytl, ybr, then the points
            (
                [('xbr="900.75"', 'xbr="1300"'), ('ytl="50.25"', 'ytl="-1"')],
                "box xbr = 1300.0 more than 0.5 px outside [0, 1280]",
            ),
            (
                [('ybr="600.5"', 'ybr="800"'), ("120,80", "-5,80")],
                "box ybr = 800.0 more than 0.5 px outside [0, 720]",
            ),
            (
                [("120,80", "nan,80"), ("895,560", "895,-1")],
                "point 0 x = nan more than 0.5 px outside [0, 1280]",
            ),
        ],
    )
    def test_first_bound_fault_wins(self, cvat_document, edits, message):
        doc = cvat_document
        for old, new in edits:
            doc = doc.replace(old, new)
        with raises(f"case_a_0001.png: {message}"):
            parse_cvat_xml(doc)

    # the class id is checked by the writer, so these go through ``convert``
    def test_xml_fault_in_a_later_image_wins_over_negative_class(self, cvat_document, tmp_path):
        doc = cvat_document.replace("10,20", "10,481")
        assert convert(doc, tmp_path, -1) == (
            EXIT_INPUT,
            "",
            "kpcurve convert: <stdin>: case_b_0001.png: point 0 y = 481.0 "
            "more than 0.5 px outside [0, 480]\n",
            [],
        )

    def test_no_image_needs_no_class_check(self, tmp_path):
        rc, out, err, written = convert("<annotations><meta/></annotations>", tmp_path, -1)
        assert (rc, out, err, written) == (EXIT_OK, f"converted 0 images to {tmp_path}\n", "", [])


class TestConvertCvatToYolo:
    def test_matches_independent_normalization(self, cvat_document):
        # recompute the expected values with plain arithmetic, no library code
        name, box, points = parse_cvat_xml(cvat_document)[0]
        w, h = 1280.0, 720.0
        pixels = [
            tuple(map(float, pair.split(",")))
            for pair in cvat_document.split('points="')[1].split('"')[0].split(";")
        ]
        assert name == "case_a_0001.png"
        assert emit_yolo_line(3, box, points).split()[0] == "3"
        cx, cy, box_w, box_h = box
        assert math.isclose(cx, (100.5 + 900.75) / 2 / w, abs_tol=1e-9)
        assert math.isclose(cy, (50.25 + 600.5) / 2 / h, abs_tol=1e-9)
        assert math.isclose(box_w, (900.75 - 100.5) / w, abs_tol=1e-9)
        assert math.isclose(box_h, (600.5 - 50.25) / h, abs_tol=1e-9)
        assert len(pixels) == 15
        for k, (px, py) in enumerate(pixels):
            assert math.isclose(points[k, 0], px / w, abs_tol=1e-9)
            assert math.isclose(points[k, 1], py / h, abs_tol=1e-9)

    def test_point_order_is_row_major(self, cvat_document):
        _, _, points = parse_cvat_xml(cvat_document)[0]
        # middle row of the fixture starts at pixel point index 5
        assert middle_line(points)[0, 0] == pytest.approx(130 / 1280, abs=1e-12)

    def test_half_pixel_clamped_to_edge(self, cvat_document):
        doc = cvat_document.replace('xtl="100.5"', 'xtl="-0.4"').replace(
            'ybr="600.5"', 'ybr="720.3"'
        )
        _, box, _ = parse_cvat_xml(doc)[0]
        assert box[0] == pytest.approx((0.0 + 900.75) / 2 / 1280, abs=1e-12)
        assert box[1] == pytest.approx((50.25 + 720.0) / 2 / 720, abs=1e-12)
        _, _, points = parse_cvat_xml(cvat_document.replace("895,560", "1280.5,-0.5"))[0]
        assert tuple(points[14]) == (1.0, 0.0)

    def test_large_excursion_rejected(self, cvat_document):
        doc = cvat_document.replace('ybr="600.5"', 'ybr="720.51"')
        with raises("case_a_0001.png: box ybr = 720.51 more than 0.5 px outside [0, 720]"):
            parse_cvat_xml(doc)

    def test_negative_class_rejected(self, cvat_document, tmp_path):
        assert convert(cvat_document, tmp_path, -1) == (
            EXIT_INPUT, "", "kpcurve convert: class id must be >= 0, got -1\n", []
        )

    def test_converted_detection_is_valid(self, cvat_document):
        for _, box, points in parse_cvat_xml(cvat_document):
            values = [*box, *points.ravel()]
            assert all(0.0 <= v <= 1.0 for v in values)
            assert box[2] > 0.0 and box[3] > 0.0
