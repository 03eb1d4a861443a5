"""End-to-end command tests driving main() with injected streams."""

import contextlib
import dataclasses
import errno
import gc
import hashlib
import importlib
import inspect
import io
import json
import math
import os
import pkgutil
import shutil
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    CVAT_DOCUMENT,
    detection_from_middle,
    detection_with_angle,
    frame_line,
    hinge_polyline,
    normalize_unit,
    report_text,
)
import kpcurve
from kpcurve import __version__, cli, report
from kpcurve.annotation import emit_yolo_line
from kpcurve.cli import EXIT_GEOMETRY, EXIT_INPUT, EXIT_OK, build_parser, main
from kpcurve.evaluation import round_half_up
from kpcurve.report import RunConfig, iter_frame_stream, measurement_report
from kpcurve.sequence import DegenerateProjectionError, measure_stream
from kpcurve.synth import HingeModelSpec, sweep

SVG = "{http://www.w3.org/2000/svg}"


def run(argv, stdin_text=""):
    out, err = io.StringIO(), io.StringIO()
    rc = main(argv, stdin=io.StringIO(stdin_text), stdout=out, stderr=err)
    return rc, out.getvalue(), err.getvalue()


def fresh_env(**overrides) -> dict:
    """The environment with ``overrides`` and this kpcurve's source first on
    PYTHONPATH, so a new interpreter imports it, installed or not."""
    src = str(Path(kpcurve.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, **overrides, "PYTHONPATH": path}


def run_fresh(argv):
    """Run the CLI in a new interpreter; it must exit 0."""
    proc = subprocess.run(
        [sys.executable, "-m", "kpcurve", *argv], env=fresh_env(), capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def label_line(bend_deg, vertex=2):
    return emit_yolo_line(0, *detection_with_angle(bend_deg, vertex)) + "\n"


def degenerate_label_line():
    middle = normalize_unit(hinge_polyline(30.0))
    middle[2] = middle[1]  # middle segment collapses
    return emit_yolo_line(0, *detection_from_middle(middle)) + "\n"


def jsonl_for(case_id, bends, start_index=0):
    lines = [
        frame_line(case_id, detection_with_angle(b), start_index + i)
        for i, b in enumerate(bends)
    ]
    return "".join(line + "\n" for line in lines)


def golden_dataset_csv():
    rows = ["case_id,actual,measured_deg"]
    n = 0

    def add(actual, measured, count):
        nonlocal n
        for _ in range(count):
            rows.append(f"case_{n:03d},{actual},{measured}")
            n += 1

    add("pd", 45.0, 29)
    add("pd", 12.0, 1)
    add("normal", 10.0, 30)
    return "\n".join(rows) + "\n"


class TestConvert:
    def test_writes_one_label_per_image(self, tmp_path):
        out_dir = tmp_path / "labels"
        rc, out, err = run(["convert", "-", "-o", str(out_dir)], CVAT_DOCUMENT)
        assert rc == EXIT_OK
        assert f"converted 2 images to {out_dir}" in out
        a = (out_dir / "case_a_0001.txt").read_text()
        b = (out_dir / "case_b_0001.txt").read_text()
        for text in (a, b):
            tokens = text.split()
            assert len(tokens) == 35
            assert not text.endswith(" \n")
        # spot check one normalized coordinate against the source pixels
        assert float(a.split()[5]) == pytest.approx(120 / 1280, abs=1e-6)

    def test_reads_xml_from_file(self, tmp_path):
        xml_path = tmp_path / "annotations.xml"
        xml_path.write_text(CVAT_DOCUMENT)
        out_dir = tmp_path / "labels"
        rc, _, _ = run(["convert", str(xml_path), "-o", str(out_dir)])
        assert rc == EXIT_OK
        assert len(list(out_dir.glob("*.txt"))) == 2

    def test_custom_class_id(self, tmp_path):
        out_dir = tmp_path / "labels"
        rc, _, _ = run(["convert", "-", "-o", str(out_dir), "--class-id", "3"], CVAT_DOCUMENT)
        assert rc == EXIT_OK
        assert (out_dir / "case_a_0001.txt").read_text().split()[0] == "3"

    def test_malformed_xml_writes_nothing(self, tmp_path):
        out_dir = tmp_path / "labels"
        rc, _, err = run(["convert", "-", "-o", str(out_dir)], "<annotations><image/>")
        assert rc == EXIT_INPUT
        assert "convert" in err
        assert not out_dir.exists()

    def test_colliding_image_stems_rejected(self, tmp_path):
        doc = CVAT_DOCUMENT.replace("case_b_0001.png", "case_a_0001.jpg")
        out_dir = tmp_path / "labels"
        rc, _, err = run(["convert", "-", "-o", str(out_dir)], doc)
        assert rc == EXIT_INPUT
        assert "case_a_0001.txt" in err
        assert not out_dir.exists()

    # sha256 of each label file, recorded before CVAT parsing became one
    # pass; "clamped" moves three values up to half a pixel past the edge
    GOLDEN = {
        ("plain", "0"): {
            "case_a_0001.txt": "ca1d03df95e5230809d166710cce39820c1b885662dec46121edc0ab49dd48e7",
            "case_b_0001.txt": "f87dd56ef929542d9b9ef1b9119f52ac4b6f21e64d24f7d8a6cbb071c4c491c9",
        },
        ("plain", "3"): {
            "case_a_0001.txt": "9782c4094bdd66709783253945050b8b12fac66e642bbdda11b45f92d8939d9f",
            "case_b_0001.txt": "cfd43c22d036c35275e28bab5c38d7c85d1cd4a100134321961638d934b9a653",
        },
        ("clamped", "0"): {
            "case_a_0001.txt": "5ba5bb76dcdec25924c2f9a2dcf3043788a74c6cf55e7d98aa1d6807637758db",
            "case_b_0001.txt": "f87dd56ef929542d9b9ef1b9119f52ac4b6f21e64d24f7d8a6cbb071c4c491c9",
        },
    }
    DOCUMENTS = {
        "plain": CVAT_DOCUMENT,
        "clamped": CVAT_DOCUMENT.replace('xtl="100.5"', 'xtl="-0.4"')
        .replace('ybr="600.5"', 'ybr="720.3"')
        .replace("895,560", "1280.5,560"),
    }

    @pytest.mark.parametrize("variant, class_id", sorted(GOLDEN))
    def test_label_files_match_golden_digests(self, variant, class_id, tmp_path):
        argv = ["convert", "-", "-o", str(tmp_path), "--class-id", class_id]
        rc, _, err = run(argv, self.DOCUMENTS[variant])
        assert (rc, err) == (EXIT_OK, "")
        digests = {path.name: sha256_of(path) for path in tmp_path.iterdir()}
        assert digests == self.GOLDEN[variant, class_id]

    def test_nan_point_is_an_input_error(self, tmp_path):
        out_dir = tmp_path / "labels"
        doc = CVAT_DOCUMENT.replace("120,80", "nan,80")
        rc, out, err = run(["convert", "-", "-o", str(out_dir)], doc)
        assert (rc, out) == (EXIT_INPUT, "")
        assert err == (
            "kpcurve convert: <stdin>: case_a_0001.png: "
            "point 0 x = nan more than 0.5 px outside [0, 1280]\n"
        )
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "old, new",
        [
            # wholly inside the half-pixel slack: both corners clamp to 640
            ('xtl="0" ytl="0" xbr="640"', 'xtl="640.1" ytl="0" xbr="640.4"'),
            # a sliver whose width rounds to 0 at 6 decimals
            ('xtl="0" ytl="0" xbr="640"', 'xtl="100" ytl="0" xbr="100.0002"'),
            ('ybr="480"', 'ybr="0.0001"'),
        ],
        ids=["clamped_to_edge", "rounds_to_zero", "flat_box"],
    )
    def test_zero_size_box_is_an_input_error(self, old, new, tmp_path):
        out_dir = tmp_path / "labels"
        assert old in CVAT_DOCUMENT
        rc, out, err = run(["convert", "-", "-o", str(out_dir)], CVAT_DOCUMENT.replace(old, new))
        assert (rc, out) == (EXIT_INPUT, "")
        assert err == "kpcurve convert: <stdin>: box in 'case_b_0001.png' is empty or inverted\n"
        assert not out_dir.exists()

    def test_missing_input_file(self, tmp_path):
        rc, _, err = run(["convert", str(tmp_path / "nope.xml"), "-o", str(tmp_path)])
        assert rc == EXIT_INPUT
        assert "convert" in err

    @pytest.mark.parametrize(
        "old, new, message",
        [
            (' name="case_a_0001.png"', "", "image element missing 'name' attribute"),
            (' width="1280"', "", "image element missing 'width' attribute"),
            (' xtl="100.5"', "", "box in 'case_a_0001.png' missing 'xtl' attribute"),
            (
                'xtl="100.5"',
                'xtl="x"',
                "box attribute xtl='x' in 'case_a_0001.png' is not a number",
            ),
            ("120,80;", "1,2,3;", "bad point '1,2,3' in 'case_a_0001.png'"),
            ("120,80;", "a,b;", "bad point 'a,b' in 'case_a_0001.png'"),
        ],
        ids=["no_name", "no_width", "no_xtl", "xtl_not_a_number", "three_values", "not_numbers"],
    )
    def test_malformed_image_is_an_input_error(self, old, new, message, tmp_path):
        out_dir = tmp_path / "labels"
        assert old in CVAT_DOCUMENT
        rc, out, err = run(["convert", "-", "-o", str(out_dir)], CVAT_DOCUMENT.replace(old, new))
        assert (rc, out, err) == (EXIT_INPUT, "", f"kpcurve convert: <stdin>: {message}\n")
        assert not out_dir.exists()

    def test_failed_write_removes_the_files_written(self, tmp_path):
        # the second label file's path is a directory: the first file is removed
        blocked = tmp_path / "case_b_0001.txt"
        blocked.mkdir()
        rc, out, err = run(["convert", "-", "-o", str(tmp_path)], CVAT_DOCUMENT)
        assert (rc, out) == (EXIT_INPUT, "")
        assert err == f"kpcurve convert: [Errno 21] Is a directory: '{blocked}'\n"
        assert list(tmp_path.iterdir()) == [blocked]


class TestMeasure:
    def test_straight_shaft_is_normal(self):
        rc, out, _ = run(["measure", "-"], label_line(0.0))
        assert rc == EXIT_OK
        doc = json.loads(out)
        case = doc["cases"][0]
        assert case["case_id"] == "stdin"
        assert case["curvature_deg"] == pytest.approx(0.0, abs=1e-6)
        assert case["diagnosis"] == "normal"
        assert case["frames_total"] == case["frames_valid"] == 1

    def test_invalid_utf8_on_stdin_names_its_line(self):
        # a byte that is not UTF-8 is named as such, not as a bad number
        rc, out, err = run(["measure", "-"], label_line(0.0).rstrip("\n") + "\udcff\n")
        assert (rc, out, err) == (
            EXIT_INPUT, "", "kpcurve measure: <stdin>: line 1: not valid UTF-8\n"
        )

    def test_bent_shaft_crosses_threshold(self, tmp_path):
        label = tmp_path / "case_007.txt"
        label.write_text(label_line(67.51))
        rc, out, _ = run(["measure", str(label)])
        assert rc == EXIT_OK
        case = json.loads(out)["cases"][0]
        assert case["case_id"] == "case_007"
        assert case["curvature_deg"] == pytest.approx(67.51, abs=1e-3)
        assert case["diagnosis"] == "pd"
        assert case["curvature_deg_rounded"] == round_half_up(case["curvature_deg"])

    def test_threshold_is_strict(self):
        rc, out, _ = run(["measure", "--threshold", "40", "-"], label_line(40.0))
        assert rc == EXIT_OK
        case = json.loads(out)["cases"][0]
        # measurement lands a hair off exactly 40 after 6-decimal emit
        expected = "pd" if case["curvature_deg"] > 40.0 else "normal"
        assert case["diagnosis"] == expected

    def test_per_frame_block_toggles(self):
        rc, out, _ = run(["measure", "-"], label_line(10.0))
        assert "per_frame" in json.loads(out)["cases"][0]
        rc, out, _ = run(["measure", "--no-per-frame", "-"], label_line(10.0))
        assert "per_frame" not in json.loads(out)["cases"][0]

    def test_multiple_lines_warns_and_uses_first(self):
        rc, out, err = run(["measure", "-"], label_line(50.0) + label_line(5.0))
        assert rc == EXIT_OK
        assert err == "kpcurve: warning: 2 label lines found, measuring the first\n"
        assert json.loads(out)["cases"][0]["diagnosis"] == "pd"

    def test_degenerate_geometry_exit_code(self):
        rc, _, err = run(["measure", "-"], degenerate_label_line())
        assert rc == EXIT_GEOMETRY
        assert "measure" in err

    def test_empty_input(self):
        rc, _, err = run(["measure", "-"], "\n\n")
        assert rc == EXIT_INPUT
        assert "empty" in err

    def test_missing_label_file(self):
        rc, _, _ = run(["measure", "/no/such/file.txt"])
        assert rc == EXIT_INPUT

    @pytest.mark.parametrize("command", ["measure", "render"])
    @pytest.mark.parametrize("from_stdin", [False, True], ids=["file", "stdin"])
    @pytest.mark.parametrize(
        "text, message",
        [
            ("\n1 0.5\n", "line 2: expected 35 tokens, got 2"),
            (" \n\n0 x" + " 0.5" * 33 + "\n", "line 3: token 1 ('x') is not a number"),
            ("\n \n", "label input is empty"),
        ],
        ids=["tokens", "number", "empty"],
    )
    def test_bad_label_names_its_source_and_line(
        self, command, from_stdin, text, message, tmp_path
    ):
        path = tmp_path / "case.txt"
        path.write_text(text)
        rc, out, err = run([command, "-" if from_stdin else str(path)], text)
        source = "<stdin>" if from_stdin else path
        assert (rc, out, err) == (EXIT_INPUT, "", f"kpcurve {command}: {source}: {message}\n")

    @pytest.mark.parametrize("command", ["measure", "render"])
    @pytest.mark.parametrize("stem", [" a", "a ", "\ta"])
    def test_stem_with_outer_whitespace_is_an_input_error(self, command, stem, tmp_path):
        # a labels CSV strips its ids, so evaluate could never match this case
        label = tmp_path / f"{stem}.txt"
        label.write_text(label_line(20.0))
        rc, out, err = run([command, str(label), "-o", str(tmp_path / "out")])
        assert (rc, out) == (EXIT_INPUT, "")
        assert err == (
            f"kpcurve {command}: case id {stem!r} from the label file's name is empty "
            "or has outer whitespace\n"
        )
        assert list(tmp_path.iterdir()) == [label]

    def test_output_file(self, tmp_path):
        target = tmp_path / "report.json"
        rc, out, _ = run(["measure", "-", "-o", str(target)], label_line(20.0))
        assert rc == EXIT_OK
        assert out == ""
        assert json.loads(target.read_text())["schema_version"] == 2


class TestAnalyze:
    def test_groups_cases_and_takes_max(self):
        stream = jsonl_for("a", [10.0, 42.0, 20.0]) + jsonl_for("b", [5.0])
        rc, out, _ = run(["analyze", "-"], stream)
        assert rc == EXIT_OK
        doc = json.loads(out)
        by_id = {c["case_id"]: c for c in doc["cases"]}
        assert set(by_id) == {"a", "b"}
        assert by_id["a"]["curvature_deg"] == pytest.approx(42.0, abs=1e-3)
        assert by_id["a"]["argmax_frame"] == 1
        assert by_id["a"]["diagnosis"] == "pd"
        assert by_id["b"]["diagnosis"] == "normal"
        assert doc["errors"] == []

    def test_long_case_id_measures_as_a_short_one(self):
        # 5000-character ids make lines past report._ORJSON_MAX_CHARS, read by json
        long_id = "L" * 5000
        others = jsonl_for("x", [12.0, 7.0])
        results = []
        for case_id in ("a", long_id):
            stream = others + jsonl_for(case_id, [10.0, 42.0, 20.0]) + others
            rc, out, _ = run(["analyze", "-"], stream)
            assert rc == EXIT_OK
            case = {c["case_id"]: c for c in json.loads(out)["cases"]}[case_id]
            results.append((case["curvature_deg"], case["argmax_frame"]))
        assert results[0] == results[1]
        assert results[0][1] == 1

    def test_only_json_whitespace_makes_a_line_blank(self):
        good, blank = jsonl_for("a", [10.0]), " \t\r\n"
        for text in ("\x0c", "\xa0", "\x1c"):
            rc, out, err = run(["analyze", "-"], good + blank + good.rstrip("\n") + text + "\n")
            assert (rc, out) == (EXIT_INPUT, "")
            assert err == "kpcurve analyze: <stdin>: line 3: not valid JSON (Extra data)\n"
            rc, out, err = run(["analyze", "-"], good + text + "\n" + good)
            assert (rc, out) == (EXIT_INPUT, "")
            assert err == "kpcurve analyze: <stdin>: line 2: not valid JSON (Expecting value)\n"

    def test_interleaved_cases_group_correctly(self):
        lines = (
            jsonl_for("a", [10.0], 0)
            + jsonl_for("b", [50.0], 0)
            + jsonl_for("a", [35.0], 1)
            + jsonl_for("b", [8.0], 1)
        )
        rc, out, _ = run(["analyze", "-"], lines)
        doc = json.loads(out)
        assert [c["case_id"] for c in doc["cases"]] == ["a", "b"]
        by_id = {c["case_id"]: c for c in doc["cases"]}
        assert by_id["a"]["frames_total"] == 2
        assert by_id["a"]["curvature_deg"] == pytest.approx(35.0, abs=1e-3)
        assert by_id["b"]["argmax_frame"] == 0

    def test_frame_order_does_not_change_measurement(self):
        forward = jsonl_for("c", [5.0, 25.0, 15.0])
        reversed_lines = "".join(
            line + "\n" for line in reversed(forward.strip().split("\n"))
        )
        _, out_a, _ = run(["analyze", "-"], forward)
        _, out_b, _ = run(["analyze", "-"], reversed_lines)
        case_a = json.loads(out_a)["cases"][0]
        case_b = json.loads(out_b)["cases"][0]
        assert case_a["curvature_deg"] == case_b["curvature_deg"]
        assert case_a["argmax_frame"] == case_b["argmax_frame"] == 1

    def test_malformed_line_reports_line_number(self):
        stream = jsonl_for("a", [10.0]) + '{"case_id": "broken"\n'
        rc, _, err = run(["analyze", "-"], stream)
        assert rc == EXIT_INPUT
        assert "line 2" in err

    @pytest.mark.parametrize("valid_before, lineno", [(0, 1), (3, 5)])
    def test_deeply_nested_line_is_an_input_error(self, valid_before, lineno):
        # the deep line sits first, or mid-batch after valid lines and a blank one
        valid = jsonl_for("a", [10.0, 20.0, 30.0][:valid_before])
        stream = valid + ("\n" if valid else "") + "[" * 100_000 + "\n" + valid
        rc, out, err = run(["analyze", "-"], stream)
        assert rc == EXIT_INPUT
        assert out == ""
        assert err == (
            f"kpcurve analyze: <stdin>: line {lineno}: not valid JSON (nested too deeply)\n"
        )

    def test_deeply_nested_valid_line_is_an_input_error(self):
        # valid JSON this deep overflows the C stack in orjson 3.8, so json reads it
        deep = '{"":' * 100_000 + "1" + "}" * 100_000
        rc, out, err = run(["analyze", "-"], jsonl_for("a", [10.0]) + deep + "\n")
        assert (rc, out) == (EXIT_INPUT, "")
        assert err == "kpcurve analyze: <stdin>: line 2: not valid JSON (nested too deeply)\n"

    def test_invalid_utf8_in_a_file_names_its_line(self, tmp_path):
        path = tmp_path / "frames.jsonl"
        first, second = jsonl_for("c", [10.0, 20.0]).encode().splitlines(keepends=True)
        path.write_bytes(first + second.replace(b'"c"', b'"c\xff"'))
        rc, out, err = run(["analyze", str(path)])
        assert (rc, out) == (EXIT_INPUT, "")
        assert err == f"kpcurve analyze: {path}: line 2: not valid UTF-8\n"

    def test_invalid_utf8_on_stdin_names_its_line(self):
        # stdin read with surrogateescape, as in the C locale, hands on 0xff as "\udcff"
        first, second = jsonl_for("c", [10.0, 20.0]).splitlines(keepends=True)
        stream = first + second.replace('"c"', '"c\udcff"')
        rc, out, err = run(["analyze", "-"], stream)
        assert (rc, out) == (EXIT_INPUT, "")
        assert err == "kpcurve analyze: <stdin>: line 2: not valid UTF-8\n"

    def test_escaped_lone_surrogate_case_id_is_accepted(self):
        # dumps_frame escapes the id as "\\ud800", which is valid JSON text
        rc, out, _ = run(["analyze", "-"], jsonl_for("c\ud800", [10.0]))
        assert rc == EXIT_OK
        assert json.loads(out)["cases"][0]["case_id"] == "c\ud800"

    @pytest.mark.parametrize("case_id", [" a", "a ", "\ta", "a\u3000"])
    def test_case_id_with_outer_whitespace_is_an_input_error(self, case_id):
        # a labels CSV strips its ids, so evaluate could never match this case
        stream = jsonl_for("a", [10.0]) + jsonl_for(case_id, [20.0])
        rc, out, err = run(["analyze", "-"], stream)
        assert (rc, out) == (EXIT_INPUT, "")
        assert err == "kpcurve analyze: <stdin>: line 2: bad case_id\n"

    def test_out_of_range_coordinate_rejected(self):
        record = json.loads(jsonl_for("a", [10.0]).strip())
        record["keypoints"][3][0] = 1.5
        rc, _, err = run(["analyze", "-"], json.dumps(record) + "\n")
        assert rc == EXIT_INPUT
        assert "1.5" in err

    def test_failed_case_listed_in_document(self):
        bad = frame_line("bad", degenerate_detection(), 0) + "\n"
        stream = jsonl_for("good", [40.0]) + bad
        rc, out, _ = run(["analyze", "-"], stream)
        assert rc == EXIT_OK
        doc = json.loads(out)
        assert [c["case_id"] for c in doc["cases"]] == ["good"]
        assert doc["errors"] == [
            {"case_id": "bad", "error": doc["errors"][0]["error"]}
        ]
        assert "degenerate" in doc["errors"][0]["error"]

    def test_all_cases_failed(self, tmp_path):
        stream = frame_line("bad", degenerate_detection(), 0) + "\n"
        rc, out, err = run(["analyze", "-"], stream)
        assert rc == EXIT_GEOMETRY
        assert err == "kpcurve analyze: no case yielded a valid measurement\n"
        assert json.loads(out)["cases"] == []
        # the report is written before the fault is raised, so -o keeps it
        target = tmp_path / "report.json"
        assert run(["analyze", "-", "-o", str(target)], stream) == (EXIT_GEOMETRY, "", err)
        assert target.read_text() == out
        assert [entry["case_id"] for entry in json.loads(out)["errors"]] == ["bad"]

    def test_empty_stream(self, tmp_path):
        # a stream with no frames names its source, as every other input error does
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        for source, text in (("-", ""), ("-", " \n\t\r\n\n"), (str(empty), "")):
            rc, out, err = run(["analyze", source], text)
            named = "<stdin>" if source == "-" else source
            assert (rc, out) == (EXIT_INPUT, "")
            assert err == f"kpcurve analyze: {named}: no frames in stream\n"

    def test_no_per_frame_flag(self):
        rc, out, _ = run(["analyze", "--no-per-frame", "-"], jsonl_for("a", [10.0, 20.0]))
        case = json.loads(out)["cases"][0]
        assert "per_frame" not in case
        assert case["frames_total"] == 2

    def test_invalid_worker_count(self, capsys):
        # --workers is a retired flag; argparse rejects it with a usage error
        rc, out, _ = run(["analyze", "--workers", "2", "-"], jsonl_for("a", [5.0]))
        assert rc == EXIT_INPUT
        assert out == ""
        err = capsys.readouterr().err
        assert "usage:" in err and "--workers" in err

    def test_rounded_field_matches_half_up_rule(self):
        rc, out, _ = run(["analyze", "-"], jsonl_for("a", [33.333]))
        case = json.loads(out)["cases"][0]
        assert case["curvature_deg_rounded"] == round_half_up(case["curvature_deg"])

    def test_reads_stream_from_file(self, tmp_path):
        path = tmp_path / "frames.jsonl"
        path.write_text(jsonl_for("a", [12.0]))
        rc, out, _ = run(["analyze", str(path)])
        assert rc == EXIT_OK
        assert json.loads(out)["cases"][0]["case_id"] == "a"

    def test_chunk_sizes_give_identical_report_bytes(self, monkeypatch):
        bends = [5.0 + 7.5 * i for i in range(20)]
        stream = "".join(
            line + "\n"
            for group in zip(*(jsonl_for(c, bends).splitlines() for c in "abc"))
            for line in group
        ) + frame_line("bad", degenerate_detection(), 0) + "\n"
        outputs = {}
        for chunk in (1, 7, report.CHUNK_FRAMES):
            monkeypatch.setattr(report, "CHUNK_FRAMES", chunk)
            rc, outputs[chunk], _ = run(["analyze", "--no-per-frame", "-"], stream)
            assert rc == EXIT_OK
        assert len(set(outputs.values())) == 1

    @given(
        frames=st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "c"]),
                st.sampled_from([15.0, 40.0, None]),  # None: degenerate frame
                st.integers(0, 6),
            ),
            min_size=1,
            max_size=20,
        ),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_permuted_lines_leave_case_results_unchanged(self, frames, seed):
        # few angles and indices, so ties on the maximum are common
        lines = [
            frame_line(
                case,
                degenerate_detection() if bend is None else detection_with_angle(bend),
                index,
            )
            + "\n"
            for case, bend, index in frames
        ]
        order = np.random.default_rng(seed).permutation(len(lines))

        def results(stream):
            _, out, _ = run(["analyze", "--no-per-frame", "-"], "".join(stream))
            doc = json.loads(out)
            return (
                {case.pop("case_id"): case for case in doc["cases"]},
                sorted(error["case_id"] for error in doc["errors"]),
            )

        with mock.patch.object(report, "CHUNK_FRAMES", 3):
            assert results([lines[i] for i in order]) == results(lines)

    def test_huge_frame_index_reported_exactly(self):
        line = frame_line("a", detection_with_angle(20.0), 10**30)
        rc, out, _ = run(["analyze", "-"], line + "\n")
        assert rc == EXIT_OK
        case = json.loads(out)["cases"][0]
        assert case["argmax_frame"] == 10**30
        assert case["per_frame"][0]["frame_index"] == 10**30
        assert '"argmax_frame": 1000000000000000000000000000000,' in out


@pytest.fixture(scope="module")
def long_stream(tmp_path_factory) -> Path:
    """One jittered 10 000-frame case as a JSONL file, written by synth."""
    workdir = tmp_path_factory.mktemp("long")
    spec = workdir / "spec.json"
    spec.write_text(
        '{"hinge_angle_deg": 35, "steps": 10000, "jitter_sd": 0.002, "seed": 7, "pitch_deg": 5}'
    )
    stream = workdir / "frames.jsonl"
    assert main(["synth", str(spec), "-o", str(stream), "--sidecar", str(workdir / "o.json")]) == 0
    return stream


class TestStreamedReport:
    """analyze writes its report as it makes it: the same bytes to a file, to
    stdout and through dumps_report, and never the whole text in memory."""

    def test_peak_memory_is_below_the_report_size(self, long_stream, tmp_path):
        out = tmp_path / "report.json"
        argv = ["analyze", str(long_stream), "-o", str(out)]
        tracemalloc.start()
        try:
            assert main(argv, stderr=io.StringIO()) == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(json.loads(out.read_text())["cases"][0]["per_frame"]) == 10_000
        assert peak < out.stat().st_size

    def test_file_stdout_and_dumps_report_give_the_same_bytes(self, long_stream, tmp_path):
        out = tmp_path / "report.json"
        assert main(["analyze", str(long_stream), "-o", str(out)]) == EXIT_OK
        rc, stdout, _ = run(["analyze", "-"], long_stream.read_text())
        with long_stream.open() as lines:
            cases, failures = measure_stream(iter_frame_stream(lines))
        document = measurement_report(cases, RunConfig(), errors=failures)
        assert rc == EXIT_OK
        assert out.read_text() == stdout == report_text(document)

    def test_bad_line_leaves_no_output_file(self, tmp_path):
        stream = jsonl_for("a", [10.0, 20.0]) + '{"case_id": "a"}\n' + jsonl_for("a", [30.0], 3)
        out = tmp_path / "report.json"
        rc, stdout, err = run(["analyze", "-", "-o", str(out)], stream)
        assert (rc, stdout) == (EXIT_INPUT, "")
        assert err == "kpcurve analyze: <stdin>: line 3: missing field 'frame_index'\n"
        assert not out.exists()


def test_report_writes_are_its_pieces(long_stream):
    # one write per piece of the report's layout, so a write holds at most
    # one run of CHUNK_FRAMES rows, never the whole report
    class Recorder(io.StringIO):
        def write(self, text):
            writes.append(text)
            return super().write(text)

    writes, stdout = [], Recorder()
    assert main(["analyze", str(long_stream)], stdout=stdout) == EXIT_OK
    with long_stream.open() as lines:
        cases, failures = measure_stream(iter_frame_stream(lines))
    document = measurement_report(cases, RunConfig(), errors=failures)
    assert writes == [*report._dumps(document, ""), "\n"]
    assert len(stdout.getvalue()) > 20 * max(map(len, writes))


def degenerate_detection():
    middle = normalize_unit(hinge_polyline(30.0))
    middle[2] = middle[1]
    return detection_from_middle(middle)


class TestEvaluate:
    def test_dataset_csv_metrics(self):
        rc, out, _ = run(["evaluate", "-"], golden_dataset_csv())
        assert rc == EXIT_OK
        doc = json.loads(out)
        assert doc["confusion"] == {"tp": 29, "fp": 0, "fn": 1, "tn": 30}
        assert doc["metrics_rounded"] == {
            "accuracy": 0.98,
            "sensitivity": 0.97,
            "specificity": 1.0,
        }

    def test_dataset_csv_from_file(self, tmp_path):
        path = tmp_path / "dataset.csv"
        path.write_text("case_id,actual,measured_deg\nc1,pd,67.51\nc2,normal,3.75\n")
        rc, out, _ = run(["evaluate", str(path)])
        doc = json.loads(out)
        assert doc["confusion"] == {"tp": 1, "fp": 0, "fn": 0, "tn": 1}
        assert doc["cases"][0]["predicted"] == "pd"
        assert doc["cases"][1]["predicted"] == "normal"

    def test_invalid_utf8_in_a_dataset_csv_names_its_line(self, tmp_path):
        path = tmp_path / "dataset.csv"
        path.write_bytes(b"case_id,actual,measured_deg\nc1,pd,67.51\nc\xed\xa0\x80,pd,50\n")
        rc, out, err = run(["evaluate", str(path)])
        assert (rc, out) == (EXIT_INPUT, "")
        assert err == f"kpcurve evaluate: {path}: line 3: not valid UTF-8\n"

    def test_invalid_utf8_on_stdin_names_its_line(self):
        # stdin read with surrogateescape, as in the C locale, hands on 0xff as "\udcff"
        rc, out, err = run(["evaluate", "-"], "case_id,actual,measured_deg\nc\udcff,pd,50\n")
        assert (rc, out, err) == (
            EXIT_INPUT, "", "kpcurve evaluate: <stdin>: line 2: not valid UTF-8\n"
        )

    def test_invalid_utf8_in_labels_on_stdin_names_stdin(self, tmp_path):
        _, report, _ = run(["analyze", "-"], jsonl_for("a", [67.51]))
        path = tmp_path / "r.json"
        path.write_text(report)
        labels = "case_id,actual\na\udcff,pd\n"
        rc, out, err = run(["evaluate", str(path), "--labels", "-"], labels)
        assert (rc, out, err) == (
            EXIT_INPUT, "", "kpcurve evaluate: <stdin>: line 2: not valid UTF-8\n"
        )

    @pytest.mark.parametrize("from_stdin", [False, True], ids=["file", "stdin"])
    def test_dataset_csv_with_byte_order_mark(self, from_stdin, tmp_path):
        # a spreadsheet's "CSV UTF-8" starts with U+FEFF
        text = "\ufeffcase_id,actual,measured_deg\nc1,pd,67.51\nc2,normal,3.75\n"
        path = tmp_path / "dataset.csv"
        path.write_text(text, encoding="utf-8")
        rc, out, err = run(["evaluate", "-"], text) if from_stdin else run(["evaluate", str(path)])
        assert (rc, err) == (EXIT_OK, "")
        assert json.loads(out)["confusion"] == {"tp": 1, "fp": 0, "fn": 0, "tn": 1}

    @pytest.mark.parametrize("from_stdin", [False, True], ids=["file", "stdin"])
    def test_report_json_with_byte_order_mark(self, from_stdin, tmp_path):
        # a report saved by an editor that writes a BOM is still read as JSON
        _, report, _ = run(["analyze", "-"], jsonl_for("a", [67.51]) + jsonl_for("b", [3.75]))
        text, report_path, labels = "\ufeff" + report, tmp_path / "r.json", tmp_path / "labels.csv"
        report_path.write_text(text, encoding="utf-8")
        labels.write_text("case_id,actual\na,pd\nb,normal\n", encoding="utf-8")
        source = "-" if from_stdin else str(report_path)
        rc, out, err = run(["evaluate", source, "--labels", str(labels)], text)
        assert (rc, err) == (EXIT_OK, "")
        assert json.loads(out)["confusion"] == {"tp": 1, "fp": 0, "fn": 0, "tn": 1}

    @pytest.mark.parametrize("from_stdin", [False, True], ids=["file", "stdin"])
    def test_labels_csv_with_byte_order_mark(self, from_stdin, tmp_path):
        _, report, _ = run(["analyze", "-"], jsonl_for("a", [67.51]) + jsonl_for("b", [3.75]))
        report_path, labels = tmp_path / "r.json", tmp_path / "labels.csv"
        report_path.write_text(report)
        text = "\ufeffcase_id,actual\r\na,pd\r\nb,normal\r\n"
        labels.write_text(text, encoding="utf-8")
        if from_stdin:
            rc, out, err = run(["evaluate", str(report_path), "--labels", "-"], text)
        else:
            rc, out, err = run(["evaluate", "--labels", str(labels), "-"], report)
        assert (rc, err) == (EXIT_OK, "")
        assert json.loads(out)["confusion"] == {"tp": 1, "fp": 0, "fn": 0, "tn": 1}

    @pytest.mark.parametrize("from_stdin", [False, True], ids=["file", "stdin"])
    @pytest.mark.parametrize(
        "row, message",
        [
            (" ,pd,10", "line 3: empty case_id"),
            ("b,maybe,5", "line 3: unknown diagnosis label 'maybe'; expected 'pd' or 'normal'"),
            ("b,pd,x", "line 3: measured_deg 'x' is not a number"),
            ("b,pd", "line 3: expected 3 fields, got 2"),
            ("a,normal,10", "line 3: case id 'a' appears more than once"),
        ],
        ids=["empty-id", "label", "angle", "width", "duplicate"],
    )
    def test_bad_dataset_row_names_its_line(self, row, message, from_stdin, tmp_path):
        text = f"case_id,actual,measured_deg\na,pd,50\n{row}\n"
        path = tmp_path / "dataset.csv"
        path.write_text(text)
        rc, out, err = run(["evaluate", "-"], text) if from_stdin else run(["evaluate", str(path)])
        source = "<stdin>" if from_stdin else path
        assert (rc, out, err) == (EXIT_INPUT, "", f"kpcurve evaluate: {source}: {message}\n")

    @pytest.mark.parametrize("from_stdin", [False, True], ids=["file", "stdin"])
    @pytest.mark.parametrize(
        "row, message",
        [
            (",pd", "line 3: empty case_id"),
            ("b,maybe", "line 3: unknown diagnosis label 'maybe'; expected 'pd' or 'normal'"),
            ("a,normal", "line 3: case id 'a' appears more than once"),
        ],
        ids=["empty-id", "label", "duplicate"],
    )
    def test_bad_labels_row_names_its_line(self, row, message, from_stdin, tmp_path):
        _, report, _ = run(["analyze", "-"], jsonl_for("a", [67.51]))
        report_path, labels = tmp_path / "r.json", tmp_path / "labels.csv"
        report_path.write_text(report)
        text = f"case_id,actual\na,pd\n{row}\n"
        labels.write_text(text)
        if from_stdin:
            rc, out, err = run(["evaluate", str(report_path), "--labels", "-"], text)
        else:
            rc, out, err = run(["evaluate", "--labels", str(labels), "-"], report)
        source = "<stdin>" if from_stdin else labels
        assert (rc, out, err) == (EXIT_INPUT, "", f"kpcurve evaluate: {source}: {message}\n")

    def test_header_only_yields_undefined_metrics(self):
        rc, out, err = run(["evaluate", "-"], "case_id,actual,measured_deg\n")
        assert rc == EXIT_OK
        # a warning, not a fault: it never has the shape "kpcurve evaluate: ..."
        assert err == "kpcurve: warning: no cases in input; metrics undefined\n"
        doc = json.loads(out)
        assert doc["metrics"] == {
            "accuracy": None,
            "sensitivity": None,
            "specificity": None,
        }

    def test_bad_header(self):
        rc, _, err = run(["evaluate", "-"], "id,truth,angle\nc1,pd,50\n")
        assert rc == EXIT_INPUT
        expected = "<stdin>: expected header 'case_id,actual,measured_deg', got 'id,truth,angle'"
        assert err == f"kpcurve evaluate: {expected}\n"

    def test_duplicate_case_rejected(self):
        text = "case_id,actual,measured_deg\nc1,pd,50\nc1,pd,60\n"
        rc, _, err = run(["evaluate", "-"], text)
        assert rc == EXIT_INPUT
        assert "c1" in err

    def test_report_json_with_labels(self, tmp_path):
        stream = jsonl_for("a", [67.51]) + jsonl_for("b", [3.75])
        _, report, _ = run(["analyze", "-"], stream)
        labels = tmp_path / "labels.csv"
        labels.write_text("case_id,actual\na,pd\nb,normal\n")
        rc, out, err = run(["evaluate", "--labels", str(labels), "-"], report)
        assert rc == EXIT_OK
        doc = json.loads(out)
        assert doc["confusion"] == {"tp": 1, "fp": 0, "fn": 0, "tn": 1}
        assert doc["metrics"]["accuracy"] == 1.0
        assert err == ""

    def test_invalid_utf8_in_a_labels_csv_names_its_line(self, tmp_path):
        # the bytes of an escaped lone surrogate in a frame stream's case_id
        _, report, _ = run(["analyze", "-"], jsonl_for("a", [67.51]))
        labels = tmp_path / "labels.csv"
        labels.write_bytes(b"case_id,actual\r\na,pd\r\nc\xed\xa0\x80,pd\r\n")
        rc, out, err = run(["evaluate", "--labels", str(labels), "-"], report)
        assert (rc, out) == (EXIT_INPUT, "")
        assert err == f"kpcurve evaluate: {labels}: line 3: not valid UTF-8\n"

    def test_unmeasured_cases_named_and_left_out_of_metrics(self, tmp_path):
        bad = frame_line("bad", degenerate_detection(), 0) + "\n"
        _, report, _ = run(["analyze", "-"], jsonl_for("a", [67.51]) + bad)
        labels = tmp_path / "labels.csv"
        labels.write_text("case_id,actual\na,pd\nbad,pd\nghost,normal\n")
        rc, out, err = run(["evaluate", "--labels", str(labels), "-"], report)
        assert rc == EXIT_OK
        doc = json.loads(out)
        # metrics count measured cases only
        assert [c["case_id"] for c in doc["cases"]] == ["a"]
        assert doc["confusion"] == {"tp": 1, "fp": 0, "fn": 0, "tn": 0}
        assert err.splitlines() == [
            "kpcurve: warning: case 'bad' left out of the metrics: not measured "
            "(all 1 frames had degenerate geometry)",
            "kpcurve: warning: case 'ghost' left out of the metrics: "
            "labelled but not in the report",
        ]

    def test_malformed_report_errors_rejected(self, tmp_path):
        _, report, _ = run(["analyze", "-"], jsonl_for("a", [40.0]))
        document = json.loads(report)
        document["errors"] = [{"case_id": "x"}]
        labels = tmp_path / "labels.csv"
        labels.write_text("case_id,actual\na,pd\n")
        rc, out, err = run(["evaluate", "--labels", str(labels), "-"], json.dumps(document))
        assert rc == EXIT_INPUT
        assert out == ""
        assert "'error'" in err

    def test_case_both_measured_and_failed_rejected(self, tmp_path):
        labels = tmp_path / "labels.csv"
        labels.write_text("case_id,actual\na,pd\n")
        report = json.dumps(
            {
                "cases": [{"case_id": "a", "curvature_deg": 40}],
                "errors": [{"case_id": "a", "error": "x"}],
            }
        )
        rc, out, err = run(["evaluate", "--labels", str(labels), "-"], report)
        assert (rc, out) == (EXIT_INPUT, "")
        assert err == (
            "kpcurve evaluate: <stdin>: report case 'a' is listed under both 'cases' and 'errors'\n"
        )

    def test_case_failed_twice_rejected(self, tmp_path):
        labels = tmp_path / "labels.csv"
        labels.write_text("case_id,actual\na,pd\n")
        report = json.dumps(
            {
                "cases": [],
                "errors": [{"case_id": "a", "error": "x"}, {"case_id": "a", "error": "y"}],
            }
        )
        rc, out, err = run(["evaluate", "--labels", str(labels), "-"], report)
        assert (rc, out) == (EXIT_INPUT, "")
        assert err == (
            "kpcurve evaluate: <stdin>: report case 'a' is listed more than once under 'errors'\n"
        )

    FAILED_F = [{"case_id": "f", "error": "all 1 frames had degenerate geometry"}]
    LEFT_OUT = (
        "kpcurve: warning: case 'f' left out of the metrics: "
        "not measured (all 1 frames had degenerate geometry)\n"
        "kpcurve: warning: case 'ghost' left out of the metrics: "
        "labelled but not in the report\n"
    )

    @pytest.mark.parametrize(
        "cases, errors, expected",
        [
            pytest.param(
                [{"case_id": "zz", "curvature_deg": 40}, {"case_id": "a"}],
                [],
                "kpcurve evaluate: <stdin>: "
                "report cases need 'case_id' and 'curvature_deg' fields\n",
                id="case-without-angle",
            ),
            pytest.param(
                [{"case_id": "zz", "curvature_deg": 40}],
                [{"case_id": 1}],
                "kpcurve evaluate: <stdin>: report errors need 'case_id' and 'error' fields\n",
                id="error-without-message",
            ),
            pytest.param(
                [{"case_id": "zz", "curvature_deg": 40}, {"case_id": "f", "curvature_deg": 10}],
                [{"case_id": "f", "error": "x"}],
                "kpcurve evaluate: <stdin>: "
                "report case 'f' is listed under both 'cases' and 'errors'\n",
                id="measured-and-failed",
            ),
            pytest.param(
                [{"case_id": "a", "curvature_deg": 40}, {"case_id": "a", "curvature_deg": 50}],
                FAILED_F,
                "kpcurve evaluate: <stdin>: "
                "report case 'a' is listed more than once under 'cases'\n",
                id="measured-twice",
            ),
            pytest.param(
                [{"case_id": "a", "curvature_deg": 400}],
                FAILED_F,
                LEFT_OUT + "kpcurve evaluate: case 'a': measured angle 400.0 outside [0, 180]\n",
                id="angle-out-of-range",
            ),
        ],
    )
    def test_report_faults_keep_their_precedence(self, cases, errors, expected, tmp_path):
        """Report faults come before a missing label; the left-out warnings
        precede the faults that scoring finds."""
        labels = tmp_path / "labels.csv"
        labels.write_text("case_id,actual\na,pd\nghost,normal\nf,normal\n")
        report = json.dumps({"cases": cases, "errors": errors})
        rc, out, err = run(["evaluate", "-", "--labels", str(labels)], report)
        assert (rc, out, err) == (EXIT_INPUT, "", expected)

    def test_deeply_nested_report_is_an_input_error(self, tmp_path):
        labels = tmp_path / "labels.csv"
        labels.write_text("case_id,actual\na,pd\n")
        report = '{"cases": ' + "[" * 100_000
        rc, out, err = run(["evaluate", "--labels", str(labels), "-"], report)
        assert rc == EXIT_INPUT
        assert out == ""
        assert err == "kpcurve evaluate: <stdin>: not valid JSON (nested too deeply)\n"

    @pytest.mark.parametrize("from_stdin", [False, True], ids=["file", "stdin"])
    def test_undecodable_report_names_its_source_and_line(self, from_stdin, tmp_path):
        labels, path = tmp_path / "labels.csv", tmp_path / "r.json"
        labels.write_text("case_id,actual\na,pd\n")
        text = '{"cases": [\n}\n'
        path.write_text(text)
        argv = ["evaluate", "-" if from_stdin else str(path), "--labels", str(labels)]
        rc, out, err = run(argv, text)
        source = "<stdin>" if from_stdin else path
        expected = f"kpcurve evaluate: {source}: line 2: not valid JSON (Expecting value)\n"
        assert (rc, out, err) == (EXIT_INPUT, "", expected)

    @pytest.mark.parametrize("angle", ["true", "false", '"40"', "null"])
    def test_non_numeric_report_angle_rejected(self, angle, tmp_path):
        labels = tmp_path / "labels.csv"
        labels.write_text("case_id,actual\na,pd\n")
        report = '{"cases": [{"case_id": "a", "curvature_deg": %s}]}' % angle
        rc, out, err = run(["evaluate", "--labels", str(labels), "-"], report)
        assert rc == EXIT_INPUT
        assert out == ""
        assert err == (
            "kpcurve evaluate: <stdin>: report cases need 'case_id' and 'curvature_deg' fields\n"
        )

    def test_huge_integer_report_angle_rejected(self, tmp_path):
        labels = tmp_path / "labels.csv"
        labels.write_text("case_id,actual\na,pd\n")
        report = '{"cases": [{"case_id": "a", "curvature_deg": 1%s}]}' % ("0" * 400)
        rc, out, err = run(["evaluate", "--labels", str(labels), "-"], report)
        assert rc == EXIT_INPUT
        assert out == ""
        assert err == (
            "kpcurve evaluate: <stdin>: report case 'a' has a curvature_deg too large for a float\n"
        )

    @pytest.mark.parametrize("angle", ["200", "nan", "-1e-9"])
    def test_out_of_range_csv_angle_names_its_case(self, angle):
        text = f"case_id,actual,measured_deg\na,pd,50\nb,normal,{angle}\n"
        rc, out, err = run(["evaluate", "-"], text)
        assert (rc, out) == (EXIT_INPUT, "")
        assert err == (
            f"kpcurve evaluate: case 'b': measured angle {float(angle)} outside [0, 180]\n"
        )

    @pytest.mark.parametrize("angle", ["-1", "180.5", "NaN"])
    def test_out_of_range_report_angle_names_its_case(self, angle, tmp_path):
        labels = tmp_path / "labels.csv"
        labels.write_text("case_id,actual\na,pd\nb,normal\n")
        report = (
            '{"cases": [{"case_id": "a", "curvature_deg": 50.0}, '
            '{"case_id": "b", "curvature_deg": %s}]}' % angle
        )
        rc, out, err = run(["evaluate", "--labels", str(labels), "-"], report)
        assert (rc, out) == (EXIT_INPUT, "")
        assert err == (
            f"kpcurve evaluate: case 'b': measured angle {float(angle)} outside [0, 180]\n"
        )

    def test_labels_from_stdin_with_a_report_file(self, tmp_path):
        _, report, _ = run(["analyze", "-"], jsonl_for("a", [67.51]) + jsonl_for("b", [3.75]))
        path = tmp_path / "report.json"
        path.write_text(report)
        labels = "case_id,actual\na,pd\nb,normal\n"
        rc, out, err = run(["evaluate", str(path), "--labels", "-"], labels)
        assert (rc, err) == (EXIT_OK, "")
        labels_file = tmp_path / "labels.csv"
        labels_file.write_text(labels)
        assert out == run(["evaluate", str(path), "--labels", str(labels_file)])[1]

    def test_report_and_labels_cannot_both_be_stdin(self):
        _, report, _ = run(["analyze", "-"], jsonl_for("a", [40.0]))
        rc, out, err = run(["evaluate", "-", "--labels", "-"], report)
        assert (rc, out) == (EXIT_INPUT, "")
        assert err == (
            "kpcurve evaluate: the report JSON and --labels cannot both be stdin\n"
        )

    def test_report_json_requires_labels(self):
        _, report, _ = run(["analyze", "-"], jsonl_for("a", [40.0]))
        rc, _, err = run(["evaluate", "-"], report)
        assert rc == EXIT_INPUT
        assert "--labels" in err

    def test_label_missing_for_case(self, tmp_path):
        _, report, _ = run(["analyze", "-"], jsonl_for("a", [40.0]))
        labels = tmp_path / "labels.csv"
        labels.write_text("case_id,actual\nother,pd\n")
        rc, _, err = run(["evaluate", "--labels", str(labels), "-"], report)
        assert rc == EXIT_INPUT
        assert "'a'" in err

    def test_labels_ignored_for_csv_with_warning(self, tmp_path):
        labels = tmp_path / "labels.csv"
        labels.write_text("case_id,actual\nc1,pd\n")
        csv_text = "case_id,actual,measured_deg\nc1,pd,50\n"
        rc, _, err = run(["evaluate", "--labels", str(labels), "-"], csv_text)
        assert rc == EXIT_OK
        assert err == "kpcurve: warning: --labels ignored for dataset CSV input\n"

    def test_custom_threshold_changes_predictions(self):
        csv_text = "case_id,actual,measured_deg\nc1,pd,25.0\n"
        _, out_default, _ = run(["evaluate", "-"], csv_text)
        _, out_low, _ = run(["evaluate", "--threshold", "20", "-"], csv_text)
        assert json.loads(out_default)["confusion"]["fn"] == 1
        assert json.loads(out_low)["confusion"]["tp"] == 1


def paused_run(name, tmp_path):
    """The argv, stdin text and exit code of one analyze or evaluate run, by name."""
    long = jsonl_for("a", [10.0, 42.0] * (report.CHUNK_FRAMES // 2 + 22)) + jsonl_for("b", [5.0])
    _, analyzed, _ = run(["analyze", "-"], long)
    labels = tmp_path / "labels.csv"
    labels.write_text("case_id,actual\na,pd\nb,normal\n")
    evaluate = ["evaluate", "-", "--labels", str(labels)]
    bad_errors = json.dumps({**json.loads(analyzed), "errors": [{"case_id": "x"}]})
    return {
        "analyze": (["analyze", "-"], long, EXIT_OK),
        "analyze-no-per-frame": (["analyze", "--no-per-frame", "-"], long, EXIT_OK),
        # a 5000-character id puts its lines past the length orjson is trusted with
        "json-fallback": (["analyze", "-"], jsonl_for("L" * 5000, [10.0, 42.0]) + long, EXIT_OK),
        "bad-line": (["analyze", "-"], long + '{"case_id": "a"}\n', EXIT_INPUT),
        "all-degenerate": (
            ["analyze", "-"], frame_line("bad", degenerate_detection(), 0) + "\n", EXIT_GEOMETRY
        ),
        "evaluate-report": (evaluate, analyzed, EXIT_OK),
        "evaluate-report-bom": (evaluate, "\ufeff" + analyzed, EXIT_OK),
        "evaluate-csv": (["evaluate", "-"], golden_dataset_csv(), EXIT_OK),
        "evaluate-rejected-report": (evaluate, bad_errors, EXIT_INPUT),
    }[name]


class TestCollectorPause:
    """analyze and evaluate read with the cycle collector paused, and write with
    it as the caller left it."""

    @pytest.mark.parametrize(
        "name",
        [
            "analyze",
            "analyze-no-per-frame",
            "json-fallback",
            "bad-line",
            "all-degenerate",
            "evaluate-report",
            "evaluate-report-bom",
            "evaluate-csv",
            "evaluate-rejected-report",
        ],
    )
    def test_paused_regions_leave_no_cyclic_garbage(self, name, tmp_path, monkeypatch):
        # garbage a paused region leaves is never collected while it runs
        argv, stdin_text, expected = paused_run(name, tmp_path)
        paused, counts = cli._collector_paused, []

        @contextlib.contextmanager
        def collecting():
            gc.collect()  # only what the region makes is counted
            with paused():
                try:
                    yield
                finally:
                    counts.append(gc.collect())

        monkeypatch.setattr(cli, "_collector_paused", collecting)
        assert run(argv, stdin_text)[0] == expected
        assert counts and counts == [0] * len(counts)

    def test_only_reading_runs_paused(self, monkeypatch):
        states = []

        def recorded(name, function):
            def call(*args, **kwargs):
                states.append((name, gc.isenabled()))
                return function(*args, **kwargs)

            return call

        monkeypatch.setattr(cli, "measure_stream", recorded("measure", cli.measure_stream))
        monkeypatch.setattr(cli, "dumps_report", recorded("write", cli.dumps_report))
        assert gc.isenabled()
        good, bad = jsonl_for("a", [10.0]), frame_line("bad", degenerate_detection(), 0) + "\n"
        for stream, expected in ((good, EXIT_OK), (good + "{\n", EXIT_INPUT), (bad, EXIT_GEOMETRY)):
            states.clear()
            assert run(["analyze", "-"], stream)[0] == expected
            writes = [("write", True)] if expected != EXIT_INPUT else []
            assert states == [("measure", False), *writes]
            assert gc.isenabled()

        def failing(*args, **kwargs):
            raise RuntimeError("measure failed")

        monkeypatch.setattr(cli, "measure_stream", recorded("measure", failing))
        with pytest.raises(RuntimeError, match="measure failed"):
            run(["analyze", "-"], good)
        assert gc.isenabled()

    def test_a_caller_that_disabled_the_collector_keeps_it_disabled(self):
        gc.disable()
        try:
            assert run(["analyze", "-"], jsonl_for("a", [10.0]))[0] == EXIT_OK
            assert not gc.isenabled()
        finally:
            gc.enable()


class TestSynth:
    SPEC = json.dumps({"case_id": "ph1", "hinge_angle_deg": 40.0, "steps": 5})

    def test_emits_one_line_per_step(self):
        rc, out, _ = run(["synth", "-"], self.SPEC)
        assert rc == EXIT_OK
        lines = out.strip().split("\n")
        assert len(lines) == 5
        for i, line in enumerate(lines):
            record = json.loads(line)
            assert record["case_id"] == "ph1"
            assert record["frame_index"] == i
            assert len(record["keypoints"]) == 15

    def test_invalid_utf8_on_stdin_names_its_line(self, tmp_path):
        spec = '{"hinge_angle_deg": 40.0,\n "case_id": "c\udcff"}'
        sidecar = tmp_path / "oracle.json"
        rc, out, err = run(["synth", "-", "--sidecar", str(sidecar)], spec)
        assert (rc, out, err) == (
            EXIT_INPUT, "", "kpcurve synth: <stdin>: line 2: not valid UTF-8\n"
        )
        assert not sidecar.exists()

    def test_byte_deterministic(self):
        _, first, _ = run(["synth", "-"], self.SPEC)
        _, second, _ = run(["synth", "-"], self.SPEC)
        assert first == second

    def test_sidecar_default_path(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(self.SPEC)
        out_path = tmp_path / "frames.jsonl"
        rc, _, _ = run(["synth", str(spec), "-o", str(out_path)])
        assert rc == EXIT_OK
        sidecar = json.loads((tmp_path / "frames.jsonl.oracle.json").read_text())
        assert sidecar["case_id"] == "ph1"
        assert len(sidecar["frames"]) == 5
        assert sidecar["spec"]["snapped_hinge_position"] == 0.5
        yaws = [f["yaw_deg"] for f in sidecar["frames"]]
        assert yaws == sorted(yaws)

    def test_explicit_sidecar_path(self, tmp_path):
        sidecar_path = tmp_path / "oracle.json"
        rc, out, _ = run(["synth", "-", "--sidecar", str(sidecar_path)], self.SPEC)
        assert rc == EXIT_OK
        assert out.count("\n") == 5
        assert json.loads(sidecar_path.read_text())["schema_version"] == 2

    def test_no_sidecar_on_stdout_by_default(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc, _, _ = run(["synth", "-"], self.SPEC)
        assert rc == EXIT_OK
        assert list(tmp_path.iterdir()) == []

    def test_seed_override_changes_jitter(self):
        spec = json.dumps({"hinge_angle_deg": 30.0, "steps": 3, "jitter_sd": 0.01})
        _, base, _ = run(["synth", "-"], spec)
        _, same, _ = run(["synth", "--seed", "0", "-"], spec)
        _, other, _ = run(["synth", "--seed", "9", "-"], spec)
        assert base == same
        assert base != other

    def test_unknown_field_rejected(self):
        rc, _, err = run(["synth", "-"], '{"hinge_angle_deg": 30, "wobble": 2}')
        assert rc == EXIT_INPUT
        assert "wobble" in err

    def test_missing_hinge_angle(self):
        rc, _, err = run(["synth", "-"], '{"steps": 5}')
        assert rc == EXIT_INPUT
        assert "hinge_angle_deg" in err

    def test_invalid_json_spec(self):
        rc, _, err = run(["synth", "-"], "not json")
        assert rc == EXIT_INPUT
        assert "JSON" in err

    def test_out_of_range_angle(self):
        rc, _, _ = run(["synth", "-"], '{"hinge_angle_deg": 185.0}')
        assert rc == EXIT_INPUT

    def test_wrong_field_type(self):
        rc, _, err = run(["synth", "-"], '{"hinge_angle_deg": 30, "steps": "five"}')
        assert rc == EXIT_INPUT
        assert "steps" in err

    def test_empty_case_id_rejected(self, tmp_path):
        # analyze would reject every line of the stream with "bad case_id"
        out = tmp_path / "frames.jsonl"
        spec = '{"case_id": "", "hinge_angle_deg": 40, "steps": 3}'
        rc, stdout, err = run(["synth", "-", "-o", str(out)], spec)
        assert (rc, stdout) == (EXIT_INPUT, "")
        assert err == (
            "kpcurve synth: <stdin>: spec field 'case_id' is empty or has outer whitespace\n"
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("case_id", [" a", "a ", "\\ta"])
    def test_case_id_with_outer_whitespace_rejected(self, case_id, tmp_path):
        # analyze would reject every line of the stream with "bad case_id"
        out = tmp_path / "frames.jsonl"
        spec = '{"case_id": "%s", "hinge_angle_deg": 40, "steps": 3}' % case_id
        rc, stdout, err = run(["synth", "-", "-o", str(out)], spec)
        assert (rc, stdout) == (EXIT_INPUT, "")
        assert err == (
            "kpcurve synth: <stdin>: spec field 'case_id' is empty or has outer whitespace\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_sidecar_leaves_no_stream(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(self.SPEC)
        out, sidecar = tmp_path / "frames.jsonl", tmp_path / "nodir" / "oracle.json"
        rc, stdout, err = run(["synth", str(spec), "-o", str(out), "--sidecar", str(sidecar)])
        assert (rc, stdout) == (EXIT_INPUT, "")
        assert "No such file or directory" in err
        assert not out.exists()
        assert not sidecar.exists()

    def test_unwritable_sidecar_writes_nothing_to_stdout(self, tmp_path):
        # a pipe reader gets no stream from a run that fails
        sidecar = tmp_path / "nodir" / "oracle.json"
        rc, stdout, err = run(["synth", "-", "--sidecar", str(sidecar)], self.SPEC)
        assert (rc, stdout) == (EXIT_INPUT, "")
        assert err == f"kpcurve synth: [Errno 2] No such file or directory: {str(sidecar)!r}\n"
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_stream_leaves_no_sidecar(self, tmp_path):
        out, sidecar = tmp_path / "nodir" / "frames.jsonl", tmp_path / "oracle.json"
        rc, stdout, err = run(["synth", "-", "-o", str(out), "--sidecar", str(sidecar)], self.SPEC)
        assert (rc, stdout) == (EXIT_INPUT, "")
        assert err == f"kpcurve synth: [Errno 2] No such file or directory: {str(out)!r}\n"
        assert list(tmp_path.iterdir()) == []

    def test_failed_stdout_leaves_no_sidecar(self, tmp_path):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        sidecar, err = tmp_path / "oracle.json", io.StringIO()
        argv = ["synth", "-", "--sidecar", str(sidecar)]
        rc = main(argv, stdin=io.StringIO(self.SPEC), stdout=ClosedPipe(), stderr=err)
        assert (rc, err.getvalue()) == (EXIT_INPUT, "kpcurve synth: [Errno 32] Broken pipe\n")
        assert list(tmp_path.iterdir()) == []

    def test_failed_stream_leaves_a_symlinked_sidecar_in_place(self, tmp_path):
        # only a regular file the run opened is removed, never a link named as an output
        target, link = tmp_path / "target.json", tmp_path / "link.json"
        link.symlink_to(target)
        out = tmp_path / "nodir" / "frames.jsonl"
        rc, stdout, err = run(["synth", "-", "-o", str(out), "--sidecar", str(link)], self.SPEC)
        assert (rc, stdout) == (EXIT_INPUT, "")
        assert err == f"kpcurve synth: [Errno 2] No such file or directory: {str(out)!r}\n"
        assert link.is_symlink() and link.readlink() == target

    @pytest.mark.parametrize("sidecar", ["out.jsonl", "./out.jsonl", "{tmp}/out.jsonl"])
    def test_sidecar_naming_the_stream_file_is_an_input_error(
        self, sidecar, tmp_path, monkeypatch
    ):
        # either write would leave the file holding only one of the two outputs
        monkeypatch.chdir(tmp_path)
        argv = ["synth", "-", "-o", "out.jsonl", "--sidecar", sidecar.format(tmp=tmp_path)]
        rc, stdout, err = run(argv, self.SPEC)
        assert (rc, stdout) == (EXIT_INPUT, "")
        assert err == "kpcurve synth: --sidecar and --output name the same file 'out.jsonl'\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "output", [[], ["-o", "-"], ["-o", "out.jsonl"]], ids=["none", "stdout", "file"]
    )
    def test_sidecar_on_stdout_is_an_input_error(self, output, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc, stdout, err = run(["synth", "-", *output, "--sidecar", "-"], self.SPEC)
        assert (rc, stdout) == (EXIT_INPUT, "")
        assert err == "kpcurve synth: --sidecar must name a file, not -\n"
        assert list(tmp_path.iterdir()) == []

    def test_both_paths_unwritable_names_the_sidecar(self, tmp_path):
        # the sidecar is written first, so its error is the one reported
        out, sidecar = tmp_path / "a" / "frames.jsonl", tmp_path / "b" / "oracle.json"
        rc, stdout, err = run(["synth", "-", "-o", str(out), "--sidecar", str(sidecar)], self.SPEC)
        assert (rc, stdout) == (EXIT_INPUT, "")
        assert err == f"kpcurve synth: [Errno 2] No such file or directory: {str(sidecar)!r}\n"
        assert list(tmp_path.iterdir()) == []

    def synth_outputs(self, spec, tmp_path):
        """(stream, sidecar document) of one spec written to files."""
        tmp_path.mkdir()
        spec_path, out = tmp_path / "spec.json", tmp_path / "frames.jsonl"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        rc, _, err = run(["synth", str(spec_path), "-o", str(out)])
        assert rc == EXIT_OK, err
        sidecar = Path(str(out) + ".oracle.json").read_text(encoding="utf-8")
        return out.read_text(encoding="utf-8"), json.loads(sidecar)

    def test_omitted_fields_take_documented_defaults(self, tmp_path):
        explicit = {
            "case_id": "synth",
            "hinge_angle_deg": 40.0,
            "length_cm": 5.5,
            "width_cm": 1.5,
            "hinge_position": 0.5,
            "seed": 0,
            "yaw_start_deg": -60.0,
            "yaw_end_deg": 60.0,
            "steps": 25,
            "jitter_sd": 0.0,
            "pitch_deg": 0.0,
            "image_width": 640,
            "image_height": 640,
        }
        stream, sidecar = self.synth_outputs({"hinge_angle_deg": 40.0}, tmp_path / "a")
        full_stream, full_sidecar = self.synth_outputs(explicit, tmp_path / "b")
        assert stream == full_stream
        assert stream.count("\n") == 25
        # the sidecar echoes the spec as written, so only that block differs
        assert sidecar["spec"] == {"hinge_angle_deg": 40.0, "snapped_hinge_position": 0.5}
        assert full_sidecar["spec"] == {**explicit, "snapped_hinge_position": 0.5}
        assert {**sidecar, "spec": None} == {**full_sidecar, "spec": None}
        assert [f["yaw_deg"] for f in sidecar["frames"]][::12] == [-60.0, 0.0, 60.0]

    @pytest.mark.parametrize(
        "field, value",
        [("pitch_deg", 12), ("yaw_start_deg", -40), ("yaw_end_deg", 50), ("jitter_sd", 0)],
    )
    def test_int_valued_float_fields_write_float_bytes(self, field, value, tmp_path):
        base = {"hinge_angle_deg": 35.0, "steps": 4, "pitch_deg": 5.0, "jitter_sd": 0.002}
        as_int = self.synth_outputs({**base, field: value}, tmp_path / "int")
        as_float = self.synth_outputs({**base, field: float(value)}, tmp_path / "float")
        assert as_int[0] == as_float[0]
        assert as_int[1]["frames"] == as_float[1]["frames"]
        pitches = [f["pitch_deg"] for f in as_int[1]["frames"]]
        assert all(type(p) is float for p in pitches)

    def test_deeply_nested_spec_is_an_input_error(self):
        rc, _, err = run(["synth", "-"], "[" * 100_000)
        assert rc == EXIT_INPUT
        assert err == "kpcurve synth: <stdin>: not valid JSON (nested too deeply)\n"

    @pytest.mark.parametrize("from_stdin", [False, True], ids=["file", "stdin"])
    def test_undecodable_spec_names_its_source_and_line(self, from_stdin, tmp_path):
        path = tmp_path / "spec.json"
        text = '{"hinge_angle_deg": 40\n "steps": 5}\n'
        path.write_text(text)
        rc, out, err = run(["synth", "-" if from_stdin else str(path)], text)
        source = "<stdin>" if from_stdin else path
        expected = f"kpcurve synth: {source}: line 2: not valid JSON (Expecting ',' delimiter)\n"
        assert (rc, out, err) == (EXIT_INPUT, "", expected)

    @pytest.mark.parametrize("field", ["hinge_angle_deg", "pitch_deg"])
    def test_huge_integer_spec_is_an_input_error(self, field):
        # json.loads reads the integer exactly; it has no float value
        fields = {"hinge_angle_deg": "30", field: "1" + "0" * 400}
        spec = "{" + ", ".join(f'"{key}": {value}' for key, value in fields.items()) + "}"
        rc, out, err = run(["synth", "-"], spec)
        assert rc == EXIT_INPUT
        assert out == ""
        assert err == f"kpcurve synth: <stdin>: spec field {field!r} is too large for a float\n"

    # NaN and Infinity are JSON extensions json.loads accepts
    BAD_VALUES = {
        "width_inf": ({"width_cm": math.inf}, "width inf must be positive and finite"),
        "width_nan": ({"width_cm": math.nan}, "width nan must be positive and finite"),
        "length_inf": ({"length_cm": math.inf}, "length inf must be positive and finite"),
        "length_nan": ({"length_cm": math.nan}, "length nan must be positive and finite"),
        "jitter_inf": ({"jitter_sd": math.inf}, "jitter sd must be finite and >= 0, got inf"),
        "jitter_nan": ({"jitter_sd": math.nan}, "jitter sd must be finite and >= 0, got nan"),
        "huge_image_width": ({"image_width": 10**400}, "image dimensions too large for a float"),
        "huge_image_height": ({"image_height": 10**400}, "image dimensions too large for a float"),
    }

    @pytest.mark.parametrize("name", sorted(BAD_VALUES))
    def test_non_finite_or_oversize_value_is_an_input_error(self, name, tmp_path):
        fields, message = self.BAD_VALUES[name]
        spec = json.dumps({"hinge_angle_deg": 30.0, "steps": 3, **fields})
        sidecar = tmp_path / "oracle.json"
        rc, out, err = run(["synth", "-", "--sidecar", str(sidecar)], spec)
        assert (rc, out, err) == (EXIT_INPUT, "", f"kpcurve synth: <stdin>: {message}\n")
        assert not sidecar.exists()

    # a seed or a step count numpy cannot take is named as a spec field
    @pytest.mark.parametrize(
        "options, fields, message",
        [
            ([], {"seed": -1, "jitter_sd": 0.01}, "seed must be >= 0, got -1"),
            ([], {"seed": -1}, "seed must be >= 0, got -1"),
            (["--seed", "-3"], {}, "seed must be >= 0, got -3"),
            ([], {"steps": 10**400}, f"steps must be <= {np.iinfo(np.intp).max}"),
        ],
        ids=["negative_seed_jittered", "negative_seed", "negative_seed_option", "huge_steps"],
    )
    def test_seed_and_steps_errors_name_the_field(self, options, fields, message, tmp_path):
        spec = json.dumps({"hinge_angle_deg": 30.0, "steps": 3, **fields})
        sidecar = tmp_path / "oracle.json"
        rc, out, err = run(["synth", "-", "--sidecar", str(sidecar), *options], spec)
        assert (rc, out, err) == (EXIT_INPUT, "", f"kpcurve synth: <stdin>: {message}\n")
        assert not sidecar.exists()

    # the first frame whose pose fails, in sweep order; a frame's yaw is checked first
    POSE_ERRORS = {
        "first_bad_yaw": (
            {"hinge_angle_deg": 30, "yaw_start_deg": 0, "yaw_end_deg": 120, "steps": 5},
            "yaw 90.0",
        ),
        "bad_pitch": ({"hinge_angle_deg": 30, "pitch_deg": 95}, "pitch 95.0"),
        "bad_yaw_and_pitch": (
            {"hinge_angle_deg": 30, "pitch_deg": -90, "yaw_start_deg": 100},
            "yaw 100.0",
        ),
        "bad_pitch_then_bad_yaw": (
            {"hinge_angle_deg": 30, "pitch_deg": -90, "yaw_start_deg": 10, "yaw_end_deg": 100},
            "pitch -90.0",
        ),
    }

    @pytest.mark.parametrize("name", sorted(POSE_ERRORS))
    def test_pose_error_names_first_failing_frame(self, name):
        spec, value = self.POSE_ERRORS[name]
        rc, out, err = run(["synth", "-"], json.dumps(spec))
        assert rc == EXIT_INPUT
        assert out == ""
        assert err == f"kpcurve synth: <stdin>: {value} outside (-90, 90); model self-occludes\n"

    # a step past the float range: frame 0 is still the start yaw, and the
    # error names a yaw the spec gave, with no numpy warning
    YAW_OVERFLOWS = {
        "span_overflows": ('"yaw_start_deg": -1e308, "yaw_end_deg": 1e308', "yaw -1e+308"),
        "infinite_end": ('"yaw_start_deg": 0, "yaw_end_deg": 1e999', "yaw inf"),
    }

    @pytest.mark.parametrize("name", sorted(YAW_OVERFLOWS))
    def test_overflowing_yaw_step_names_a_given_yaw(self, name):
        fields, value = self.YAW_OVERFLOWS[name]
        rc, out, err = run(["synth", "-"], '{"hinge_angle_deg": 30, ' + fields + "}")
        assert (rc, out) == (EXIT_INPUT, "")
        assert err == f"kpcurve synth: <stdin>: {value} outside (-90, 90); model self-occludes\n"

    def test_one_step_sweep_is_its_start_yaw(self, tmp_path):
        spec = '{"hinge_angle_deg": 30, "steps": 1, "yaw_start_deg": 0, "yaw_end_deg": 1e999}'
        sidecar = tmp_path / "oracle.json"
        rc, out, err = run(["synth", "-", "--sidecar", str(sidecar)], spec)
        assert (rc, err, out.count("\n")) == (EXIT_OK, "", 1)
        assert [f["yaw_deg"] for f in json.loads(sidecar.read_text())["frames"]] == [0.0]

    def test_spec_fields_are_the_phantom_and_sweep_parameters(self):
        """The spec takes exactly case_id, HingeModelSpec's fields and sweep's
        keyword parameters, and README's phantom section names each."""
        values = {"case_id": "x"}
        for field in dataclasses.fields(HingeModelSpec):
            values[field.name] = 30.0 if field.default is dataclasses.MISSING else field.default
        for name, param in inspect.signature(sweep).parameters.items():
            if param.default is not param.empty:
                values[name] = param.default
        for name, value in values.items():
            rc, _, err = run(["synth", "-"], json.dumps({"hinge_angle_deg": 30.0, "steps": 2, name: value}))
            assert (rc, err) == (EXIT_OK, ""), name
        for name in ("spec", "return", "snapped_hinge_position"):
            rc, _, err = run(["synth", "-"], json.dumps({"hinge_angle_deg": 30.0, name: 1}))
            expected = f"kpcurve synth: <stdin>: unknown spec field {name!r}\n"
            assert (rc, err) == (EXIT_INPUT, expected)
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Synthetic phantoms\n")[1].split("\n## ")[0]
        assert [name for name in values if f"`{name}`" not in section] == []

    # sha256 of (stream, sidecar) per spec: any change to synth output bytes fails here
    GOLDEN = {
        "plain": (
            {"case_id": "plain", "hinge_angle_deg": 40.0},
            "4dfd8dff87c598384b0909805764f17072e50e7afd0e14c31ca534e6c5fd58b4",
            "b6a6ad7bd4ced2d889e92a46c6d67966cf68914a1df72cde2c08fcca36f4ae86",
        ),
        "jittered_pitch": (
            {
                "case_id": "jit",
                "hinge_angle_deg": 65.5,
                "hinge_position": 0.3,
                "seed": 11,
                "jitter_sd": 0.004,
                "pitch_deg": 12.5,
                "steps": 17,
                "yaw_start_deg": -45.0,
                "yaw_end_deg": 70.0,
            },
            "53fca95a2e5483dbce88a5928fc3b02c18d8eac6bfd629bb8a727b19c76d9ece",
            "8f86b9df9e69b8830eb253b03aea3fc9021283836dc17ff11c12de90015a0f25",
        ),
        "wide_single": (
            {
                "case_id": "wide",
                "hinge_angle_deg": 120.0,
                "image_width": 1280,
                "image_height": 720,
                "steps": 1,
                "yaw_start_deg": 20.0,
            },
            "a8bc588c0594249934dd192d489513f1ef8b19a73cf25d46578997df19784a38",
            "7596eca31874172a8b11e931c29562aa6a9e781680ff2324e2bb16cdc9ed8b3d",
        ),
        # jitter clips coordinates to 0.0 and 1.0, so every row takes the
        # writer's per-value path
        "clipped_fallback": (
            {
                "case_id": "clip\u00f1o\u00e9",
                "hinge_angle_deg": 50.0,
                "seed": 5,
                "jitter_sd": 0.3,
                "image_width": 101,
                "image_height": 37,
                "steps": 9,
                "pitch_deg": 7.5,
            },
            "d29278e29c989cd8ba9b8561ea0cbf961a20456f5bd80a216c2575ca521d5f60",
            "cffe015557357e11c26030d998c38f806a001645250e58797c512ee74a0d029d",
        ),
    }

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_golden_bytes_in_fresh_process(self, name, tmp_path):
        spec, stream_sha, sidecar_sha = self.GOLDEN[name]
        spec_path, out = tmp_path / "spec.json", tmp_path / "frames.jsonl"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        run_fresh(["synth", str(spec_path), "-o", str(out)])
        sidecar = tmp_path / "frames.jsonl.oracle.json"
        assert sha256_of(out) == stream_sha
        assert sha256_of(sidecar) == sidecar_sha


class TestReportGolden:
    """Report bytes of measure, analyze and evaluate, each run in a new process.

    The inputs are two synth sweeps (one with a non-ASCII case id) plus
    literal lines: a degenerate frame in the first case, and a case of
    one degenerate frame that lands under ``errors``. ``evaluate`` also
    reads two dataset CSVs: the final reference table and a header only.
    """

    DEGENERATE = (
        '{{"case_id":"{}","frame_index":{},"class_id":0,"bbox":[0.5,0.5,0.1,0.1],'
        '"keypoints":[' + ",".join(["[0.5,0.5]"] * 15) + "]}}\n"
    )
    STILL = "0 0.5 0.5 0.8 0.8 " + " ".join(
        f"{0.1 + 0.18 * c:.6f} {0.2 + 0.15 * r + 0.02 * c * c:.6f}"
        for r in range(3)
        for c in range(5)
    )
    # sha256 per output: any change to report bytes fails here
    GOLDEN = {
        "analyze": "11fdbb10b7f9686c54a4f6635c49e0a293a4a414dbe4e8932bee19e01a6b6285",
        "analyze_slim": "31b5d606f3fb817d88302e2831d182a60d80bc9bf2b90545bc16adc34a50c20b",
        "evaluate": "de8c22a0b8669a5be1f4cf91cf9d789337ff0b03b4b731ac6208a0915360df2e",
        "evaluate_csv": "351aa5c302092daba393268ddccfb640e2edf90f68648b8641e94271d5bf859b",
        "evaluate_empty": "874d00771fe50f334ce781814b1bd3a64e6a2d3d484e6c1b75e0e9dffc9e57c7",
        "measure": "17dcb08bab59799d65e96ac315241bee9c00f244152462c8044faf85711dc00e",
    }

    @pytest.fixture(scope="class")
    def outputs(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("golden")
        specs = [
            {"case_id": "plain", "hinge_angle_deg": 40.0},
            {**TestSynth.GOLDEN["jittered_pitch"][0], "case_id": "ca\u00f1o"},
        ]
        stream = ""
        for i, spec in enumerate(specs):
            spec_path, out = tmp / f"spec{i}.json", tmp / f"part{i}.jsonl"
            spec_path.write_text(json.dumps(spec), encoding="utf-8")
            run_fresh(["synth", str(spec_path), "-o", str(out)])
            stream += out.read_text(encoding="utf-8")
        stream += self.DEGENERATE.format("plain", 25) + self.DEGENERATE.format("flat", 0)
        frames = tmp / "frames.jsonl"
        frames.write_text(stream, encoding="utf-8")
        labels = tmp / "labels.csv"
        labels.write_text("case_id,actual\nplain,pd\nca\u00f1o,normal\nflat,normal\n", encoding="utf-8")
        still = tmp / "still.txt"
        still.write_text(self.STILL + "\n", encoding="utf-8")

        paths = {name: tmp / f"{name}.json" for name in self.GOLDEN}
        run_fresh(["analyze", str(frames), "-o", str(paths["analyze"])])
        run_fresh([
            "analyze", str(frames), "--no-per-frame", "--aspect", "1.7777777777777777",
            "-o", str(paths["analyze_slim"]),
        ])
        run_fresh([
            "evaluate", str(paths["analyze_slim"]), "--labels", str(labels),
            "-o", str(paths["evaluate"]),
        ])
        dataset, empty = tmp / "dataset.csv", tmp / "empty.csv"
        dataset.write_text(golden_dataset_csv(), encoding="utf-8")
        empty.write_text("case_id,actual,measured_deg\n", encoding="utf-8")
        run_fresh(["evaluate", str(dataset), "-o", str(paths["evaluate_csv"])])
        run_fresh(["evaluate", str(empty), "-o", str(paths["evaluate_empty"])])
        run_fresh(["measure", str(still), "-o", str(paths["measure"])])
        return paths

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_golden_bytes_in_fresh_process(self, name, outputs):
        assert sha256_of(outputs[name]) == self.GOLDEN[name]


class TestRender:
    def parse_svg(self, text):
        assert text.startswith("<?xml")
        return ET.fromstring(text)

    def test_svg_structure(self):
        rc, out, _ = run(["render", "-"], label_line(40.0))
        assert rc == EXIT_OK
        root = self.parse_svg(out)
        assert len(root.findall(f".//{SVG}circle")) == 15
        assert len(root.findall(f".//{SVG}polyline")) == 3
        assert len(root.findall(f".//{SVG}rect")) == 1
        texts = [t.text for t in root.findall(f".//{SVG}text")]
        assert len(texts) == 4
        assert any("deviation 40.00°" in t for t in texts)
        assert any("bend2 40.00°" in t for t in texts)

    def test_straight_shaft_labels_zero(self):
        rc, out, _ = run(["render", "-"], label_line(0.0))
        root = self.parse_svg(out)
        texts = [t.text for t in root.findall(f".//{SVG}text")]
        assert any("deviation 0.00°" in t for t in texts)

    def test_canvas_dimensions(self):
        rc, out, _ = run(["render", "--width", "800", "--height", "450", "-"], label_line(10.0))
        root = self.parse_svg(out)
        assert root.get("width") == "800"
        assert root.get("height") == "450"

    def test_default_canvas(self, capsys):
        rc, out, _ = run(["render", "-"], label_line(40.0))
        assert rc == EXIT_OK
        root = self.parse_svg(out)
        assert (root.get("width"), root.get("height")) == ("640", "640")
        # the SVG bytes of the default canvas, recorded before it got one constant
        digest = "a3ec56afeea0239296dfd342697e2df94fea1cc7e07511ed60a4f36bd376ab81"
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        assert run(["render", "--help"])[0] == EXIT_OK
        help_text = " ".join(capsys.readouterr().out.split())
        assert "canvas width (default 640)" in help_text
        assert "canvas height (default 640)" in help_text

    def test_wide_canvas_golden(self):
        argv = ["render", "--aspect", "1.7778", "--width", "1280", "--height", "720", "-"]
        rc, out, err = run(argv, label_line(33.0, vertex=3))
        assert (rc, err) == (EXIT_OK, "")
        # recorded before render measured through measure_stream
        digest = "0eac6240acb61b592d3e613ba1fc20524a2ace72b61e6c902e555d5232c2c599"
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # recorded while the overlay was built with ElementTree; a straight shaft's
    # deviation ties the frame angle, an S-shaped middle line's bend 2 does not
    @pytest.mark.parametrize(
        "stdin_text, bold, digest",
        [
            pytest.param(
                label_line(0.0),
                "deviation 0.00°",
                "a2bf3291b15bb490793c3cc9c8760689c93450539129f31b199e2efc7f034f8e",
                id="straight",
            ),
            pytest.param(
                "0 0.450000 0.425000 0.700000 0.250000 0.100000 0.450000 0.300000 0.450000"
                " 0.450000 0.300000 0.600000 0.450000 0.800000 0.450000 0.100000 0.500000"
                " 0.300000 0.500000 0.450000 0.350000 0.600000 0.500000 0.800000 0.500000"
                " 0.100000 0.550000 0.300000 0.550000 0.450000 0.400000 0.600000 0.550000"
                " 0.800000 0.550000\n",
                "bend2 90.00°",
                "ce155c5d447f15c1be4afb73af357d95b6c064e73c6891703dcb4551d91f23f9",
                id="s-shaped",
            ),
        ],
    )
    def test_highlighted_label_golden(self, stdin_text, bold, digest):
        rc, out, err = run(["render", "-"], stdin_text)
        assert (rc, err) == (EXIT_OK, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        texts = self.parse_svg(out).findall(f".//{SVG}text")
        assert [t.text for t in texts if t.get("font-weight") == "bold"] == [bold]

    @pytest.mark.parametrize("side", ["width", "height"])
    def test_canvas_too_large_for_a_float(self, side):
        rc, out, err = run(["render", f"--{side}", str(10**400), "-"], label_line(25.0))
        assert (rc, out) == (EXIT_INPUT, "")
        assert err == "kpcurve render: canvas dimensions too large for a float\n"

    def test_zero_width_canvas(self):
        rc, out, err = run(["render", "--width", "0", "-"], label_line(25.0))
        assert (rc, out) == (EXIT_INPUT, "")
        assert err == "kpcurve render: canvas dimensions must be positive, got 0x640\n"

    def test_degenerate_input_exit_code(self):
        rc, _, _ = run(["render", "-"], degenerate_label_line())
        assert rc == EXIT_GEOMETRY

    def test_degenerate_message_matches_measure(self, tmp_path):
        # to stdout or to a file named by -o, which is never left behind
        for argv in (["-"], ["-", "-o", str(tmp_path / "out")]):
            for cmd in ("measure", "render"):
                rc, out, err = run([cmd, *argv], degenerate_label_line())
                assert (rc, out) == (EXIT_GEOMETRY, "")
                assert err == f"kpcurve {cmd}: case 'stdin': all 1 frames had degenerate geometry\n"
        assert list(tmp_path.iterdir()) == []

    def test_output_file(self, tmp_path):
        target = tmp_path / "overlay.svg"
        rc, out, _ = run(["render", "-", "-o", str(target)], label_line(25.0))
        assert rc == EXIT_OK
        assert out == ""
        assert target.read_text().startswith("<?xml")


class TestFailedWrite:
    """A command whose write fails after its file is opened leaves none of the
    files it opened, the one that failed included."""

    LABEL, SPEC = label_line(30.0), TestSynth.SPEC
    # argv, stdin and which file opened for writing fails; every output is under DIR
    RUNS = {
        "measure": (["measure", "-", "-o", "DIR/report.json"], LABEL, 1),
        "analyze": (["analyze", "-", "-o", "DIR/report.json"], jsonl_for("a", [10.0, 20.0]), 1),
        "evaluate": (["evaluate", "-", "-o", "DIR/metrics.json"], golden_dataset_csv(), 1),
        "render": (["render", "-", "-o", "DIR/overlay.svg"], LABEL, 1),
        "synth-sidecar": (["synth", "-", "-o", "DIR/frames.jsonl"], SPEC, 1),
        "synth-stream": (["synth", "-", "-o", "DIR/frames.jsonl"], SPEC, 2),
        "convert-second-label": (["convert", "-", "-o", "DIR"], CVAT_DOCUMENT, 2),
        "convert-new-directory": (["convert", "-", "-o", "DIR/new/labels"], CVAT_DOCUMENT, 1),
    }

    @pytest.mark.parametrize("name", RUNS)
    def test_full_disk_leaves_no_file(self, name, tmp_path, monkeypatch):
        argv, stdin_text, fail_at = self.RUNS[name]
        opened = []

        def full_disk_open(path, mode="r", **kwargs):
            stream = open(path, mode, **kwargs)
            if "w" in mode:
                opened.append(Path(path))
                if len(opened) == fail_at:
                    write = stream.write

                    def failing_write(text):
                        # the text reaches the file, then the disk is full
                        write(text)
                        stream.flush()
                        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

                    stream.write = failing_write
            return stream

        monkeypatch.setattr(cli, "open", full_disk_open, raising=False)
        argv = [arg.replace("DIR", str(tmp_path)) for arg in argv]
        rc, stdout, err = run(argv, stdin_text)
        assert (rc, stdout) == (EXIT_INPUT, "")
        assert err == f"kpcurve {argv[0]}: [Errno 28] No space left on device\n"
        assert len(opened) == fail_at
        assert list(tmp_path.iterdir()) == []


class TestPipeline:
    def test_synth_analyze_evaluate_round_trip(self, tmp_path):
        spec = json.dumps(
            {"case_id": "sweep60", "hinge_angle_deg": 60.0, "steps": 25}
        )
        _, stream, _ = run(["synth", "-"], spec)
        rc, report, _ = run(["analyze", "-"], stream)
        assert rc == EXIT_OK
        case = json.loads(report)["cases"][0]
        assert case["curvature_deg"] == pytest.approx(60.0, abs=1.0)
        assert case["argmax_frame"] == 12  # frontal view of the sweep
        assert case["diagnosis"] == "pd"

        labels = tmp_path / "labels.csv"
        labels.write_text("case_id,actual\nsweep60,pd\n")
        rc, metrics, _ = run(["evaluate", "--labels", str(labels), "-"], report)
        assert rc == EXIT_OK
        assert json.loads(metrics)["confusion"]["tp"] == 1

    # the max rule's pose bias, pinned as documented current behaviour
    # (README, "How it measures"); criterion 5 covers pitch 0 and bends up to 90
    @pytest.mark.parametrize(
        "spec,rounded,frame",
        [
            ({"hinge_angle_deg": 28.0, "pitch_deg": 25.0}, 31.2, 9),
            ({"hinge_angle_deg": 120.0}, 139.11, 0),
        ],
        ids=["pitch_widens_28", "yaw_widens_120"],
    )
    def test_pose_bias_over_reads(self, spec, rounded, frame):
        _, stream, _ = run(["synth", "-"], json.dumps(spec))
        rc, report, _ = run(["analyze", "--no-per-frame", "-"], stream)
        assert rc == EXIT_OK
        case = json.loads(report)["cases"][0]
        assert case["curvature_deg"] > spec["hinge_angle_deg"]
        assert case["curvature_deg_rounded"] == rounded
        assert case["argmax_frame"] == frame
        assert case["diagnosis"] == "pd"

    def test_convert_then_measure(self, tmp_path):
        out_dir = tmp_path / "labels"
        run(["convert", "-", "-o", str(out_dir)], CVAT_DOCUMENT)
        rc, out, _ = run(["measure", str(out_dir / "case_a_0001.txt")])
        assert rc == EXIT_OK
        case = json.loads(out)["cases"][0]
        assert case["case_id"] == "case_a_0001"
        assert case["frames_valid"] == 1


class TestParserReuse:
    def test_parser_built_once(self):
        assert build_parser() is build_parser()

    def test_successive_calls_get_independent_namespaces(self, tmp_path):
        stream = jsonl_for("a", [10.0, 45.0])
        _, slim, _ = run(["analyze", "--no-per-frame", "--aspect", "2", "-"], stream)
        _, full, _ = run(["analyze", "-"], stream)
        assert "per_frame" not in json.loads(slim)["cases"][0]
        assert "per_frame" in json.loads(full)["cases"][0]
        assert json.loads(full)["config"]["aspect_ratio"] == 1.0
        assert run(["analyze", "-"], stream)[1] == full

        labels = tmp_path / "labels.csv"
        labels.write_text("case_id,actual\na,pd\n")
        _, low, _ = run(["evaluate", "--threshold", "50", "--labels", str(labels), "-"], full)
        _, default, _ = run(["evaluate", "-"], "case_id,actual,measured_deg\na,pd,45\n")
        assert json.loads(low)["config"]["threshold_deg"] == 50.0
        assert json.loads(default)["config"]["threshold_deg"] == 30.0
        assert json.loads(default)["confusion"]["tp"] == 1

        spec = json.dumps({"hinge_angle_deg": 30.0, "steps": 3, "jitter_sd": 0.01})
        seeded = run(["synth", "--seed", "5", "-"], spec)[1]
        assert run(["synth", "-"], spec)[1] != seeded
        assert run(["synth", "--seed", "5", "-"], spec)[1] == seeded


class TestAspectRule:
    """One rule for ``--aspect`` on every measuring command: positive, with a finite square."""

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0"])
    @pytest.mark.parametrize("command", ["measure", "analyze", "render"])
    def test_rejected(self, command, value):
        stdin = jsonl_for("a", [10.0, 20.0]) if command == "analyze" else label_line(20.0)
        rc, out, err = run([command, f"--aspect={value}", "-"], stdin)
        assert (rc, out) == (EXIT_INPUT, "")
        assert err == f"kpcurve {command}: aspect ratio {float(value)} must be positive and finite\n"

    # coordinates lie in [0, 1], so the angle kernel's products stay below aspect**2 + 1
    @pytest.mark.parametrize("command", ["measure", "analyze", "render"])
    def test_square_must_be_finite(self, command):
        stdin = jsonl_for("a", [10.0, 20.0]) if command == "analyze" else label_line(20.0)
        rc, out, err = run([command, "--aspect=1e300", "-"], stdin)
        assert (rc, out) == (EXIT_INPUT, "")
        assert err == (
            f"kpcurve {command}: aspect ratio 1e+300 is too large: its square overflows a float\n"
        )
        rc, out, err = run([command, "--aspect=1e154", "-"], stdin)
        assert (rc, err) == (EXIT_OK, "")

    @pytest.mark.parametrize("command", ["measure", "analyze", "render"])
    def test_checked_before_the_input_is_read(self, command):
        # the run config checks the aspect as the command builds it, so an input
        # that is neither a label line nor a frame line is never reached
        rc, out, err = run([command, "--aspect=0", "-"], "not a line\n")
        assert (rc, out) == (EXIT_INPUT, "")
        assert err == f"kpcurve {command}: aspect ratio 0.0 must be positive and finite\n"


class TestArgumentErrors:
    def test_no_command(self):
        rc, _, _ = run([])
        assert rc == 2

    def test_unknown_command(self):
        rc, _, _ = run(["frobnicate"])
        assert rc == 2

    def test_convert_requires_output_dir(self):
        rc, _, _ = run(["convert", "file.xml"])
        assert rc == 2

    @pytest.mark.parametrize("command", ["measure", "analyze", "evaluate"])
    @pytest.mark.parametrize("value", ["0", "180", "nan"])
    def test_threshold_outside_the_open_range(self, command, value):
        # the run config rejects it before any input is read
        rc, out, err = run([command, "--threshold", value, "-"], jsonl_for("a", [40.0]))
        assert (rc, out) == (EXIT_INPUT, "")
        assert err == f"kpcurve {command}: threshold {float(value)} outside (0, 180)\n"


class TestInputErrorsNameTheirSource:
    """A fault found in a whole read input names its file, or <stdin>."""

    LABELS = "case_id,actual\na,pd\n"
    CASES = {
        "convert": (
            "x.xml",
            CVAT_DOCUMENT.replace('width="640"', 'width="x"'),
            ["-o", "labels"],
            "image width 'x' is not an integer",
        ),
        "evaluate": (
            "r.json",
            '{"cases": [{"case_id": "a"}]}',
            ["--labels", "labels.csv"],
            "report cases need 'case_id' and 'curvature_deg' fields",
        ),
        "evaluate-no-cases": (
            "r.json",
            "{}",
            ["--labels", "labels.csv"],
            "report JSON has no 'cases' list",
        ),
        "synth": (
            "s.json",
            '{"hinge_angle_deg": 40, "bogus": 1}',
            ["-o", "frames.jsonl"],
            "unknown spec field 'bogus'",
        ),
        "synth-array": (
            "s.json",
            '[{"hinge_angle_deg": 40}]',
            ["-o", "frames.jsonl"],
            "spec must be a JSON object",
        ),
        "synth-pose": (
            "s.json",
            '{"hinge_angle_deg": 40, "pitch_deg": 95}',
            ["-o", "frames.jsonl"],
            "pitch 95.0 outside (-90, 90); model self-occludes",
        ),
    }

    @pytest.mark.parametrize("from_stdin", [False, True], ids=["file", "stdin"])
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_message_names_the_file_or_stdin(self, name, from_stdin, tmp_path, monkeypatch):
        filename, text, options, message = self.CASES[name]
        monkeypatch.chdir(tmp_path)
        Path(filename).write_text(text)
        Path("labels.csv").write_text(self.LABELS)
        command = name.split("-")[0]
        rc, out, err = run([command, "-" if from_stdin else filename, *options], text)
        source = "<stdin>" if from_stdin else filename
        assert (rc, out, err) == (EXIT_INPUT, "", f"kpcurve {command}: {source}: {message}\n")
        assert sorted(os.listdir()) == sorted({filename, "labels.csv"})


def library_exceptions():
    """Every exception class defined in a kpcurve module."""
    found = []
    for info in pkgutil.iter_modules(kpcurve.__path__):
        module = importlib.import_module(f"kpcurve.{info.name}")
        found.extend(
            obj
            for obj in vars(module).values()
            if isinstance(obj, type)
            and issubclass(obj, BaseException)
            and obj.__module__ == module.__name__
        )
    return found


class TestExitCodes:
    def test_library_exceptions_found(self):
        # one input error per module, plus the one the CLI maps to exit 3
        names = {cls.__name__ for cls in library_exceptions()}
        assert names == {
            "AnnotationError",
            "JsonlFormatError",
            "DatasetFormatError",
            "BadSpecError",
            "DegenerateProjectionError",
        }

    @pytest.mark.parametrize("error", library_exceptions(), ids=lambda cls: cls.__name__)
    def test_every_library_exception_maps_to_a_stable_exit_code(self, error):
        # a ValueError is an input error unless it is the one geometry error
        assert issubclass(error, ValueError)

        exc = error("boom")

        def fail(args, stdin, stdout, stderr):
            raise exc

        with mock.patch.dict(cli._COMMANDS, {"render": fail}):
            rc, out, err = run(["render", "-"])
        expected = EXIT_GEOMETRY if error is DegenerateProjectionError else EXIT_INPUT
        assert (rc, out, err) == (expected, "", f"kpcurve render: {exc}\n")


class TestConsoleScript:
    def test_module_invocation_and_pipe(self):
        proc = subprocess.run(
            [sys.executable, "-m", "kpcurve", "measure", "-"],
            env=fresh_env(),
            input=label_line(67.51),
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["cases"][0]["diagnosis"] == "pd"

    def test_version_flag(self):
        # the console script named in pyproject.toml, run the way its wrapper runs it
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        assert 'kpcurve = "kpcurve.cli:entry"' in pyproject.read_text(encoding="utf-8")
        src = str(Path(kpcurve.__file__).resolve().parent.parent)
        code = (
            f"import sys; sys.path.insert(0, {src!r}); "
            "sys.argv = ['kpcurve', '--version']; from kpcurve.cli import entry; entry()"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == f"kpcurve {__version__}"
        script = shutil.which("kpcurve")
        if script is not None:
            proc = subprocess.run([script, "--version"], capture_output=True, text=True)
            assert proc.returncode == 0
            assert proc.stdout.strip() == f"kpcurve {__version__}"

    def test_import_leaves_numpy_random_unloaded(self):
        # numpy.random is slow and large to import, and only a jittered sweep needs it
        code = "import sys, kpcurve.cli; print('numpy.random' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", code], env=fresh_env(), capture_output=True, text=True
        )
        assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr

    # only the command that runs the phantom, SVG or XML code loads it
    @pytest.mark.parametrize(
        "commands, unloaded",
        [
            (
                ["measure", "analyze", "evaluate"],
                ["kpcurve.synth", "kpcurve.overlay", "xml.etree.ElementTree", "pyexpat", "numpy.random"],
            ),
            (["synth"], ["kpcurve.overlay", "xml.etree.ElementTree"]),
        ],
        ids=["measure-analyze-evaluate", "synth"],
    )
    def test_commands_leave_unused_modules_unloaded(self, commands, unloaded, tmp_path):
        label, frames, labels = tmp_path / "a.txt", tmp_path / "f.jsonl", tmp_path / "l.csv"
        label.write_text(label_line(40.0))
        frames.write_text(jsonl_for("a", [67.51]) + jsonl_for("b", [3.75]))
        labels.write_text("case_id,actual\na,pd\nb,normal\n")
        spec = tmp_path / "spec.json"
        spec.write_text('{"hinge_angle_deg": 40, "steps": 3}')
        argvs = {
            "measure": ["measure", str(label)],
            "analyze": ["analyze", str(frames), "-o", str(tmp_path / "r.json")],
            "evaluate": ["evaluate", str(tmp_path / "r.json"), "--labels", str(labels)],
            "synth": ["synth", str(spec)],
        }
        code = (
            "import io, sys, kpcurve.cli as cli\n"
            f"for argv in {[argvs[c] for c in commands]!r}:\n"
            "    assert cli.main(argv, stdout=io.StringIO()) == 0, argv\n"
            f"print([m for m in {unloaded!r} if m in sys.modules])"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=fresh_env(), capture_output=True, text=True
        )
        assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr

    # the lazily loaded modules keep their exit codes and bytes with nothing preloaded
    @pytest.mark.parametrize(
        "argv, stdin_text, expected",
        [
            (
                ["convert", "-", "-o", "out"],
                "<annotations><image",
                "kpcurve convert: <stdin>: not well-formed XML: ",
            ),
            (
                ["synth", "-"],
                '{"hinge_angle_deg": 40, "bogus": 1}',
                "kpcurve synth: <stdin>: unknown spec field 'bogus'\n",
            ),
        ],
        ids=["convert", "synth"],
    )
    def test_lazily_loaded_input_errors_exit_2(self, argv, stdin_text, expected, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "kpcurve", *argv],
            env=fresh_env(),
            cwd=tmp_path,
            input=stdin_text,
            capture_output=True,
            text=True,
        )
        assert (proc.returncode, proc.stdout) == (EXIT_INPUT, "")
        assert proc.stderr.startswith(expected), proc.stderr
        assert not (tmp_path / "out").exists()

    def test_render_in_a_fresh_interpreter_matches_in_process(self):
        proc = subprocess.run(
            [sys.executable, "-m", "kpcurve", "render", "-"],
            env=fresh_env(),
            input=label_line(40.0),
            capture_output=True,
            text=True,
        )
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        assert proc.stdout == run(["render", "-"], label_line(40.0))[1]


class TestFileEncoding:
    def test_utf8_files_under_ascii_locale(self, tmp_path):
        # files named on the command line are UTF-8 whatever the locale says
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps({"case_id": "caño", "hinge_angle_deg": 40.0, "steps": 5}, ensure_ascii=False),
            encoding="utf-8",
        )
        frames, report = tmp_path / "frames.jsonl", tmp_path / "report.json"
        env = fresh_env(LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
        for argv in (
            ["synth", str(spec), "-o", str(frames)],
            ["analyze", str(frames), "-o", str(report)],
        ):
            proc = subprocess.run(
                [sys.executable, "-m", "kpcurve", *argv],
                env=env,
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
        assert json.loads(report.read_text(encoding="utf-8"))["cases"][0]["case_id"] == "caño"

    # stdin and stdout are UTF-8 whatever the locale, as files are
    def test_bad_stdin_byte_under_a_strict_utf8_locale_names_its_line(self):
        proc = subprocess.run(
            [sys.executable, "-m", "kpcurve", "analyze", "-"],
            env=fresh_env(PYTHONIOENCODING="utf-8:strict"),
            input=b"\xff\n",
            capture_output=True,
        )
        assert (proc.returncode, proc.stdout) == (EXIT_INPUT, b"")
        assert proc.stderr == b"kpcurve analyze: <stdin>: line 1: not valid UTF-8\n"

    @pytest.mark.parametrize("command", ["analyze", "evaluate"])
    def test_strict_stream_given_to_main(self, command):
        # an embedding caller's stdin may decode strictly: its decode error is an
        # input fault, exit 2, whether the command reads stdin whole or line by line
        stdin = io.TextIOWrapper(io.BytesIO(b"\xff\n"), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        assert main([command, "-"], stdin=stdin, stdout=out, stderr=err) == EXIT_INPUT
        assert (out.getvalue(), err.getvalue()) == (
            "",
            f"kpcurve {command}: 'utf-8' codec can't decode byte 0xff in position 0: "
            "invalid start byte\n",
        )

    def test_utf8_stdin_under_ascii_locale(self):
        proc = subprocess.run(
            [sys.executable, "-m", "kpcurve", "evaluate", "-"],
            env=fresh_env(LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0"),
            input="case_id,actual,measured_deg\ncaño,pd,50\n".encode("utf-8"),
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["cases"][0]["case_id"] == "caño"

    def test_utf8_stdout_under_latin1_encoding(self):
        proc = subprocess.run(
            [sys.executable, "-m", "kpcurve", "render", "-"],
            env=fresh_env(PYTHONIOENCODING="latin-1"),
            input=label_line(40.0).encode("ascii"),
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert '<?xml version="1.0" encoding="UTF-8"' in proc.stdout.decode("utf-8")
        assert "°" in proc.stdout.decode("utf-8")

    def test_undecodable_path_byte_written_back_to_stdout(self, tmp_path):
        xml = tmp_path / "empty.xml"
        xml.write_text("<annotations></annotations>")
        out_dir = bytes(tmp_path / "labels") + b"\xff"
        proc = subprocess.run(
            [sys.executable, "-m", "kpcurve", "convert", str(xml), "-o", out_dir],
            env=fresh_env(PYTHONIOENCODING="utf-8:strict"),
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == b"converted 0 images to " + out_dir + b"\n"
