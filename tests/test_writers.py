"""The JSON writers pinned byte for byte to the stock json encoder.

``dumps_report`` must write ``json.dumps(value, indent=2) + "\\n"`` for
every value json accepts, and raise what json raises otherwise; a
measurement report and a sidecar, whose list items orjson writes in runs
where their floats are ones it writes as json does, must equal ``json.dumps``
of the same document built as dicts. ``dumps_frame`` must equal the
compact dumps of the canonical records below, one line per row, whose
coordinates are Python ``round`` to six decimals.
"""

import json
import math
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import report_text
from kpcurve import __version__, report
from kpcurve.annotation import COORD_DECIMALS
from kpcurve.evaluation import Diagnosis, classify, evaluate_dataset, round_half_up
from kpcurve.report import (
    SCHEMA_VERSION,
    RunConfig,
    dumps_frame,
    evaluation_report,
    is_case_id,
    iter_frame_stream,
    measurement_report,
    sweep_sidecar,
)
from kpcurve.sequence import CaseMeasurement, FrameColumns
from kpcurve.synth import HingeModelSpec, PhantomSpec, SweepColumns, sweep


def frame_record(case_id, box, points, frame_index) -> dict:
    """The canonical JSONL object for one frame, built as a dict."""
    return {
        "case_id": case_id,
        "frame_index": frame_index,
        "class_id": 0,
        "bbox": [round(v, COORD_DECIMALS) for v in box],
        "keypoints": [[round(x, COORD_DECIMALS), round(y, COORD_DECIMALS)] for x, y in points],
    }


def reference_frames(case_id, boxes, points, frame_indices) -> str:
    """One compact json line per row; rows are taken as Python floats."""
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4).tolist()
    points = np.asarray(points, dtype=np.float64).reshape(-1, 15, 2).tolist()
    return "".join(
        json.dumps(frame_record(case_id, *row), separators=(",", ":")) + "\n"
        for row in zip(boxes, points, frame_indices)
    )


def reference_report(value) -> str:
    return json.dumps(value, indent=2) + "\n"


EDGE_FLOATS = [0.0, -0.0, 5e-324, 1e16, math.nan, math.inf, -math.inf]
# text with non-ASCII, control and lone-surrogate characters
text = st.text(st.characters(exclude_categories=()), max_size=8)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**30), 10**30),
    st.floats(),
    st.sampled_from(EDGE_FLOATS),
    st.floats().map(np.float64),
    text,
)
keys = st.one_of(text, st.integers(-(10**30), 10**30), st.floats(), st.booleans(), st.none())
trees = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(text, children, max_size=4),
        st.dictionaries(keys, children, max_size=3),
    ),
    max_leaves=24,
)
# values whose floats orjson writes as json does, 0 or a magnitude in [1e-4, 1e16),
# as float or np.float64, with any text, integers and keys, alone or in lists and dicts
gated_floats = st.one_of(
    st.just(0.0),
    st.floats(1e-4, 1e16, exclude_max=True),
    st.floats(-1e16, -1e-4, exclude_min=True),
)
gated_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        gated_floats,
        gated_floats.map(np.float64),
        text,
        st.integers(-(10**30), 10**30),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=3), st.dictionaries(keys, children, max_size=3)
    ),
    max_leaves=8,
)


class TestDumpsReport:
    @given(value=trees)
    @settings(max_examples=500, deadline=None)
    def test_matches_stock_encoder(self, value):
        assert report_text(value) == reference_report(value)

    @given(
        items=st.lists(
            st.one_of(st.tuples(st.just(True), gated_values), st.tuples(st.just(False), trees)),
            max_size=8,
        ),
        path=st.lists(text, max_size=4),
        chunk=st.integers(1, 4),
    )
    @settings(max_examples=300, deadline=None)
    def test_lazy_list_at_any_depth_matches_stock_encoder(self, items, path, chunk):
        # a lazy list as the document or under 1 to 4 keys: its layout is the
        # writer's alone, whatever the gates and the blocks of CHUNK_FRAMES items
        values = [value for _, value in items]
        document = report._Rows(np.array([gate for gate, _ in items], bool), values.__getitem__)
        concrete = values
        for key in reversed(path):
            document, concrete = {key: document}, {key: concrete}
        with mock.patch.object(report, "CHUNK_FRAMES", chunk):
            assert report_text(document) == reference_report(concrete)

    @pytest.mark.parametrize(
        "value",
        [
            {},
            [],
            (),
            {"a": {}, "b": [], "c": ()},
            [None, True, False, 0, -1, 10**30, -(10**30)],
            EDGE_FLOATS,
            [np.float64(1.5), np.float64("nan"), np.float64(-0.0)],
            {"caño\x00\x1f\"\\\ud800": "\udfff €"},
            {1: "int", 2.5: "float", True: "bool", None: "none", -0.0: "zero"},
            ("a", ("b", ("c",))),
        ],
        ids=repr,
    )
    def test_edge_values(self, value):
        assert report_text(value) == reference_report(value)

    def test_subclasses_follow_json(self):
        class Text(str):
            pass

        class Count(int):
            def __repr__(self):
                return "Count()"

        class Mapping(dict):
            pass

        class Seq(list):
            pass

        value = Mapping({Text("k"): Seq([Count(3), Text("v"), Mapping()])})
        assert report_text(value) == reference_report(value)
        nested = {"a": [value, Seq([Mapping({"b": Seq([1.5])})])]}
        assert report_text(nested) == reference_report(nested)

    @pytest.mark.parametrize(
        "value", [np.int64(1), np.float32(0.5), object(), {(1,): 2}, [1, {2, 3}]]
    )
    def test_unsupported_values_raise_type_error(self, value):
        with pytest.raises(TypeError) as ours:
            report_text(value)
        with pytest.raises(TypeError) as theirs:
            json.dumps(value, indent=2)
        assert str(ours.value) == str(theirs.value)

    def test_deep_and_circular_values_behave_as_json(self):
        deep = 0
        for _ in range(800):
            deep = [deep]
        assert report_text(deep) == reference_report(deep)
        loop = []
        loop.append(loop)
        with pytest.raises(ValueError, match="Circular reference"):
            report_text(loop)


# angles at the ends of the range, the smallest subnormal, and a value
# repr writes in exponent form
EDGE_ANGLES = [0.0, 180.0, 5e-324, 1e-07]
# angles about the least orjson writes as json does, and frame indices
# about the least integer it refuses
GATE_ANGLES = [9.99e-05, math.nextafter(1e-4, 0.0), 1e-4]
GATE_INDICES = [2**64 - 1, 2**64]
# poses about the least orjson writes as json does, and a zero of each sign
GATE_POSES = [9.99e-05, -9.99e-05, 1e-4, -1e-4, 0.0, -0.0]
angles = st.one_of(st.floats(0.0, 180.0), st.sampled_from(EDGE_ANGLES))
# a frame's index, then its four angles, or the first bad segment of a
# degenerate frame
frames = st.tuples(
    st.integers(0, 10**30),
    st.one_of(st.lists(angles, min_size=4, max_size=4), st.integers(0, 3)),
)


def case_from_frames(case_id: str, rows: list) -> CaseMeasurement:
    """A measured case whose retained frames are ``rows``, in stream order."""
    valid = [(index, max(value)) for index, value in rows if type(value) is list]
    top = max((angle for _, angle in valid), default=0.0)
    columns = FrameColumns(
        [index for index, _ in rows],
        np.array(
            [value if type(value) is list else [math.nan] * 4 for _, value in rows],
            dtype=np.float64,
        ).reshape(-1, 4),
        np.array([-1 if type(value) is list else value for _, value in rows], np.int64),
    )
    return CaseMeasurement(
        case_id=case_id,
        curvature_deg=top,
        argmax_frame=min((index for index, angle in valid if angle == top), default=0),
        frames_total=len(rows),
        frames_valid=len(valid),
        per_frame=columns,
    )


def reference_row(frame_index: int, value) -> dict:
    """A per_frame row as a dict: a valid frame's angles, or a degenerate one's note."""
    if type(value) is int:
        return {
            "frame_index": frame_index,
            "valid": False,
            "error_note": f"degenerate middle-line segment {value}",
        }
    segments = value[1:]
    return {
        "frame_index": frame_index,
        "valid": True,
        "deviation_deg": value[0],
        "segment_deg": segments,
        "frame_angle_deg": max(value),
        "curvature_col": 1 + segments.index(max(segments)),
    }


def reference_measurement(cases, config, errors) -> str:
    """The measurement report of ``(case_id, rows)`` pairs, built as dicts."""
    entries = []
    for case_id, rows in cases:
        case = case_from_frames(case_id, rows)
        entry = {
            "case_id": case_id,
            "curvature_deg": case.curvature_deg,
            "curvature_deg_rounded": round_half_up(case.curvature_deg),
            "diagnosis": classify(case.curvature_deg, config.threshold_deg).value,
            "argmax_frame": case.argmax_frame,
            "frames_total": case.frames_total,
            "frames_valid": case.frames_valid,
        }
        if config.retain_per_frame:
            entry["per_frame"] = [reference_row(*row) for row in rows]
        entries.append(entry)
    document = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "config": config.as_dict(),
        "cases": entries,
        "errors": errors,
    }
    return reference_report(document)


class TestReportItems:
    @given(
        cases=st.lists(st.tuples(text, st.lists(frames, min_size=1, max_size=6)), max_size=3),
        retain=st.booleans(),
        errors=st.lists(st.tuples(text, text), max_size=2),
    )
    @settings(max_examples=300, deadline=None)
    def test_measurement_report_matches_stock_encoder(self, cases, retain, errors):
        config = RunConfig(retain_per_frame=retain)
        measured = [case_from_frames(*case) for case in cases]
        document = measurement_report(measured, config, errors=errors)
        entries = [{"case_id": case_id, "error": message} for case_id, message in errors]
        assert report_text(document) == reference_measurement(cases, config, entries)

    def test_a_document_writes_the_same_bytes_twice(self, monkeypatch):
        # rows are made run by run as they are written, here in blocks of 3
        monkeypatch.setattr(report, "CHUNK_FRAMES", 3)
        rows = [(i, [10.0 + i, 1.0, 2.0, 3.0]) for i in range(8)] + [(8, 3), (9, [1e-07] * 4)]
        cases = [("a", rows), ("b", rows[:1]), ("c", rows[:3])]
        for retain in (True, False):
            config = RunConfig(retain_per_frame=retain)
            measured = [case_from_frames(*case) for case in cases]
            document = measurement_report(measured, config, errors=[("d", "x")])
            first = report_text(document)
            assert first == report_text(document)
            assert first == reference_measurement(cases, config, [{"case_id": "d", "error": "x"}])
        result = sweep(HingeModelSpec(30.0), steps=7)
        sidecar = sweep_sidecar(PhantomSpec("c", HingeModelSpec(30.0), {}, {}), result)
        assert report_text(sidecar) == report_text(sidecar)

    def test_edge_rows_in_stream_order(self):
        rows = [(10**30, EDGE_ANGLES), (0, 2), (7, EDGE_ANGLES[::-1])]
        rows += [(i, segment) for i, segment in enumerate(range(4))]
        rows += [(5, [1e-07] * 4), (3, [180.0, 0.0, 180.0, 5e-324])]
        for retain in (True, False):
            config = RunConfig(retain_per_frame=retain)
            document = measurement_report([case_from_frames("c", rows)], config)
            assert report_text(document) == reference_measurement([("c", rows)], config, [])

    @pytest.mark.parametrize("angle", GATE_ANGLES, ids=repr)
    def test_angles_at_the_gate(self, angle):
        # the angle in each slot of a row, and as a case's curvature
        rows = [(0, [angle, 1.0, 2.0, 3.0]), (1, [30.0, angle, 2.0, 3.0])]
        rows += [(2, [30.0, 1.0, angle, 3.0]), (3, [30.0, 1.0, 2.0, angle])]
        cases = [("a", rows), ("b", [(0, [angle] * 4), (1, 1)])]
        for retain in (True, False):
            config = RunConfig(retain_per_frame=retain)
            measured = [case_from_frames(*case) for case in cases]
            document = measurement_report(measured, config)
            assert report_text(document) == reference_measurement(cases, config, [])

    @pytest.mark.parametrize("index", GATE_INDICES)
    def test_frame_indices_at_the_gate(self, index):
        # a valid and a degenerate row, the valid one the case's argmax
        rows = [(index, [40.0, 1.0, 2.0, 3.0]), (index, 2), (0, [10.0, 1.0, 2.0, 3.0])]
        for retain in (True, False):
            config = RunConfig(retain_per_frame=retain)
            document = measurement_report([case_from_frames("c", rows)], config)
            assert report_text(document) == reference_measurement([("c", rows)], config, [])

    @pytest.mark.parametrize("case_id", ["caño\U0001f600", "a\x7fb", "a\x00\x1f\"\\b"])
    def test_case_ids_json_escapes(self, case_id):
        cases = [(case_id, [(0, [40.0, 1.0, 2.0, 3.0]), (1, 0)]), ("a", [(0, [1.0] * 4)])]
        for retain in (True, False):
            config = RunConfig(retain_per_frame=retain)
            measured = [case_from_frames(*case) for case in cases]
            document = measurement_report(measured, config)
            assert report_text(document) == reference_measurement(cases, config, [])

    def test_one_fallback_row_leaves_the_others_to_orjson(self, orjson_rows):
        rows = [(i, [10.0 + i, 1.0, 2.0, 3.0]) for i in range(8)] + [(8, 3)]
        rows[5] = (5, [10.0, 1.0, 9.99e-05, 3.0])
        config = RunConfig()
        document = measurement_report([case_from_frames("c", rows)], config)
        assert report_text(document) == reference_measurement([("c", rows)], config, [])
        # row 5 is json's; the degenerate row 8 writes no angle and joins the run before it
        assert frame_runs(orjson_rows) == [[0, 1, 2, 3, 4], [6, 7, 8]]
        expected = [reference_row(*row) for row in rows if row[0] != 5]
        assert sum(item_runs(orjson_rows), []) == expected

    def test_per_frame_runs_end_at_each_block(self, orjson_rows, monkeypatch):
        # runs of at most CHUNK_FRAMES rows, here 3, with a fallback row and a
        # degenerate row in the second block
        monkeypatch.setattr(report, "CHUNK_FRAMES", 3)
        rows = [(i, [10.0 + i, 1.0, 2.0, 3.0]) for i in range(8)]
        rows[4], rows[5] = (4, [10.0, 9.99e-05, 2.0, 3.0]), (5, 1)
        config = RunConfig()
        document = measurement_report([case_from_frames("c", rows)], config)
        assert report_text(document) == reference_measurement([("c", rows)], config, [])
        assert frame_runs(orjson_rows) == [[0, 1, 2], [3], [5], [6, 7]]

    def test_case_entries_fall_back_one_by_one(self, orjson_rows):
        cases = [(case_id, [(0, [40.0, 1.0, 2.0, 3.0])]) for case_id in "abcd"]
        cases[1] = ("b", [(0, [9.99e-05] * 4)])
        cases[2] = ("c\x7f", cases[2][1])
        cases[3] = ("d", [(2**64, [40.0, 1.0, 2.0, 3.0])])
        config = RunConfig(retain_per_frame=False)
        document = measurement_report([case_from_frames(*case) for case in cases], config)
        assert report_text(document) == reference_measurement(cases, config, [])
        # json writes "b" for its angle; orjson is handed "c\x7f" and "d" as one run,
        # refuses it for d's argmax frame past 64 bits, and json writes that run whole
        runs = [[entry["case_id"] for entry in run] for run in item_runs(orjson_rows)]
        assert runs == [["a"], ["c\x7f", "d"]]

    def test_case_entry_runs_end_at_each_block(self, orjson_rows, monkeypatch):
        # without per-frame rows, runs of at most CHUNK_FRAMES entries, here 3; json
        # writes "f" for its angle, the run orjson is handed with "d\x7f", as orjson's
        # text holds DEL, and the one it refuses for i's argmax frame past 64 bits
        monkeypatch.setattr(report, "CHUNK_FRAMES", 3)
        cases = [(case_id, [(0, [40.0, 1.0, 2.0, 3.0])]) for case_id in "abcdefghi"]
        cases[3] = ("d\x7f", cases[3][1])
        cases[5] = ("f", [(0, [9.99e-05] * 4)])
        cases[8] = ("i", [(2**64, [40.0, 1.0, 2.0, 3.0])])
        config = RunConfig(retain_per_frame=False)
        document = measurement_report([case_from_frames(*case) for case in cases], config)
        assert report_text(document) == reference_measurement(cases, config, [])
        runs = [[entry["case_id"] for entry in run] for run in item_runs(orjson_rows)]
        assert runs == [["a", "b", "c"], ["d\x7f", "e"], ["g", "h", "i"]]

    @given(
        case_id=text,
        spec=st.dictionaries(text, scalars, max_size=3),
        yaws=st.lists(st.one_of(st.floats(-89.0, 89.0), st.sampled_from(GATE_POSES)), max_size=6),
        pitch=st.one_of(st.floats(-89.0, 89.0), st.sampled_from([-12.5, -89.0, *GATE_POSES])),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_sidecar_matches_stock_encoder(self, case_id, spec, yaws, pitch, data):
        true_angles = data.draw(st.lists(angles, min_size=len(yaws), max_size=len(yaws)))
        assert_sidecar_matches_reference(case_id, spec, yaws, pitch, true_angles)

    @pytest.mark.parametrize("pose", GATE_POSES, ids=repr)
    def test_sidecar_poses_at_the_gate(self, pose, orjson_rows):
        # the pose as one frame's yaw, then as the pitch every frame shares;
        # json writes the frames it is in, orjson each run of the others in one call
        by_orjson = pose == 0.0 or abs(pose) >= 1e-4
        assert_sidecar_matches_reference("c", {}, [-30.0, pose, 30.0], 12.5, [40.0, 41.0, 42.0])
        assert frame_runs(orjson_rows) == ([[0, 1, 2]] if by_orjson else [[0], [2]])
        orjson_rows.clear()
        assert_sidecar_matches_reference("c", {}, [-30.0, 30.0], pose, [40.0, 42.0])
        assert frame_runs(orjson_rows) == ([[0, 1]] if by_orjson else [])

    def test_sidecar_runs_between_fallback_rows(self, orjson_rows):
        yaws = [-30.0, 9.99e-05, 10.0, 30.0]
        assert_sidecar_matches_reference("c", {}, yaws, 12.5, [40.0, 41.0, 42.0, 43.0])
        assert frame_runs(orjson_rows) == [[0], [2, 3]]

    def test_sidecar_runs_end_at_each_block(self, orjson_rows, monkeypatch):
        # runs of at most CHUNK_FRAMES rows, here 3, with a fallback row in the second block
        monkeypatch.setattr(report, "CHUNK_FRAMES", 3)
        yaws = [float(i) for i in range(8)]
        yaws[4] = -9.99e-05
        assert_sidecar_matches_reference("c", {}, yaws, 12.5, [40.0] * 8)
        assert frame_runs(orjson_rows) == [[0, 1, 2], [3], [5], [6, 7]]

    @given(
        rows=st.lists(
            st.tuples(text.filter(is_case_id), st.one_of(angles, st.sampled_from(GATE_ANGLES))),
            max_size=6,
            unique_by=lambda row: row[0],
        ),
        labels=st.lists(st.booleans(), min_size=6, max_size=6),
    )
    @settings(max_examples=200, deadline=None)
    def test_evaluation_report_matches_stock_encoder(self, rows, labels):
        triples = [
            (case_id, Diagnosis.PD if pd else Diagnosis.NORMAL, angle)
            for (case_id, angle), pd in zip(rows, labels)
        ]
        assert_evaluation_matches_reference(triples)

    def test_evaluation_case_rows_fall_back_one_by_one(self, orjson_rows, monkeypatch):
        # runs of at most CHUNK_FRAMES rows, here 3; json writes a row whose angle
        # orjson writes otherwise, and a run whose text orjson writes with DEL or "é"
        monkeypatch.setattr(report, "CHUNK_FRAMES", 3)
        ids = ["a", "b", "c\x7f", "d", "e", "f", "g", "hé", "i"]
        angles = [40.0, 9.99e-05, 40.0, 0.0, 1e-4, 180.0, 12.5, 40.0, 5e-324]
        triples = [(case_id, Diagnosis.PD, angle) for case_id, angle in zip(ids, angles)]
        assert_evaluation_matches_reference(triples)
        runs = [[row["case_id"] for row in run] for run in item_runs(orjson_rows)]
        assert runs == [["a"], ["c\x7f"], ["d", "e", "f"], ["g", "hé"]]


def item_runs(records) -> list[list[dict]]:
    """The runs of items handed to orjson, one per call, each a list nested
    in lists up to its list's depth."""
    runs = []
    for record in records:
        while len(record) == 1 and type(record[0]) is list:
            record = record[0]
        runs.append(record)
    return runs


def frame_runs(records) -> list[list[int]]:
    """The frame indices of each run of rows handed to orjson, in call order."""
    return [[row["frame_index"] for row in run] for run in item_runs(records)]


def assert_evaluation_matches_reference(triples):
    """The evaluation report of these triples equals json's text of it built as dicts."""
    config = RunConfig()
    rows, counts, scores = evaluate_dataset(triples, config.threshold_deg)
    document = evaluation_report(rows, counts, scores, config)
    expected = {**document, "cases": rows}
    assert report_text(document) == reference_report(expected)


def assert_sidecar_matches_reference(case_id, spec, yaws, pitch, true_angles):
    """The sidecar of a sweep with these poses and angles equals json's text of it."""
    n = len(yaws)
    result = SweepColumns(np.zeros((n, 15, 2)), np.zeros((n, 4)), yaws, pitch, true_angles)
    phantom = PhantomSpec(case_id, HingeModelSpec(30.0, hinge_position=0.3), {}, spec)
    document = {
        "schema_version": SCHEMA_VERSION,
        "case_id": case_id,
        "spec": {**spec, "snapped_hinge_position": 0.25},
        "frames": [
            {"frame_index": i, "yaw_deg": yaw, "pitch_deg": pitch, "true_apparent_deg": angle}
            for i, (yaw, angle) in enumerate(zip(yaws, true_angles))
        ],
    }
    assert report_text(sweep_sidecar(phantom, result)) == reference_report(document)


# values on either side of the orjson path's bounds, an exact binary tie,
# decimal ties whose %.6f text and rint(v * 1e6) disagree, a grid value
# below 1e-4, and the non-finite floats
EDGE_COORDS = [
    0.0,
    -0.0,
    1.0,
    5e-324,
    0.000099,
    0.00009999949,
    0.0000999995,
    0.0001,
    math.nextafter(0.0001, 0.0),
    0.9999995,
    math.nextafter(0.9999995, 0.0),
    math.nextafter(0.9999995, 1.0),
    0.99999949,
    0.999999,
    0.0078125,
    0.0001005,
    0.0001075,
    0.5,
    0.1234565,
    1e16,
    math.nextafter(1e16, 0.0),
    math.nan,
    math.inf,
    -math.inf,
]
# values on the 6-decimal grid, which the orjson path takes inside its bounds
grid_coords = st.integers(0, 10**6).map(lambda k: k / 10**6)
coords = st.one_of(
    st.floats(0.0, 1.0),
    st.sampled_from(EDGE_COORDS),
    st.floats(),
    st.floats(-2.0, 2.0),
    grid_coords,
)
rows = st.one_of(
    st.lists(grid_coords, min_size=34, max_size=34),
    st.lists(coords, min_size=34, max_size=34),
)


def test_orjson_float_text_is_json_text_in_its_range():
    # dumps_frame hands orjson only such values: an orjson upgrade that
    # changes its float text fails here first
    def differ(values: list[float]) -> bool:
        return orjson.dumps(values) != json.dumps(values, separators=(",", ":")).encode()

    grid = (np.arange(10**6 + 1) / 10**6).tolist()
    assert not differ(grid[:1] + grid[100:])
    assert all(differ([v]) for v in grid[1:100])  # below 1e-4
    magnitudes = 10 ** np.random.default_rng(3).uniform(-4.0, 16.0, 200_000)
    magnitudes = magnitudes[(magnitudes >= 1e-4) & (magnitudes < 1e16)].tolist()
    assert not differ(magnitudes + [-v for v in magnitudes])
    assert differ([9.9e-05]) and differ([1e16])


def test_orjson_numpy_float_text_is_json_text_in_its_range():
    # dumps_frame hands orjson float64 blocks and splits its text per row: an
    # orjson upgrade that writes numpy floats unlike Python floats, or lays a
    # block out otherwise, fails here first
    grid = np.arange(10**6 + 1) / 10**6
    magnitudes = 10 ** np.random.default_rng(4).uniform(-4.0, 16.0, 200_000)
    magnitudes = magnitudes[(magnitudes >= 1e-4) & (magnitudes < 1e16)]
    values = np.concatenate([grid[:1], grid[100:], magnitudes, -magnitudes, [-0.0]])
    text = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)
    assert text == orjson.dumps(values.tolist())
    assert text == json.dumps(values.tolist(), separators=(",", ":")).encode()
    for shape in ((0, 4), (1, 4), (3, 4), (1, 15, 2), (3, 15, 2)):
        block = grid[100 : 100 + math.prod(shape)].reshape(shape)
        text = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY)
        assert text == json.dumps(block.tolist(), separators=(",", ":")).encode()


def test_orjson_indent_layout_is_json_layout():
    # the report writers hand orjson items of these shapes: an orjson upgrade
    # that changes its indented layout, or its int and text rules, fails here first
    values = [
        [],
        {},
        [[], {}, [[]], [{}]],
        {"a": [1, [2, [3, []]], {"b": {"c": []}}], "d": {}},
        [True, False, None],
        {"valid": True, "note": None, "ok": False},
        [0, -1, 2**63 - 1, -(2**63), 2**64 - 1],
        {"frame_index": 2**64 - 1, "segment_deg": [0.5, -0.0, 1e-4], "note": "a \"b\" \\ \n"},
        [{"frame_index": 0, "yaw_deg": -30.0}, {"frame_index": 1, "segment_deg": [1.5, 2.0]}, {}],
        # a run of items, nested as the report writers hand it at indents 4 and 8
        [[{"frame_index": 0, "yaw_deg": -30.0}, {"frame_index": 1, "segment_deg": [1.5, 2.0]}]],
        [[[[{"frame_index": 0, "valid": False, "note": "x"}, {"segment_deg": [1.5, 2.0]}, {}]]]],
    ]
    for value in values:
        text = json.dumps(value, indent=2).encode()
        assert orjson.dumps(value, option=orjson.OPT_INDENT_2) == text
    for value in (2**64, -(2**63) - 1):
        with pytest.raises(orjson.JSONEncodeError):
            orjson.dumps(value)
    # json escapes these, orjson does not
    assert orjson.dumps("\x7f") != json.dumps("\x7f").encode()
    assert orjson.dumps("ç") != json.dumps("ç").encode()
    ascii_but_del = "".join(map(chr, range(127)))
    assert orjson.dumps(ascii_but_del) == json.dumps(ascii_but_del).encode()


def frames_from_rows(values):
    """(boxes, points) arrays from (n, 34) rows."""
    values = np.asarray(values, dtype=np.float64).reshape(-1, 34)
    return values[:, :4], values[:, 4:].reshape(-1, 15, 2)


def grid_row(seed: int) -> list[float]:
    """A row every value of which takes the orjson path."""
    rng = np.random.default_rng(seed)
    return (rng.integers(100, 999_999, 34) / 10**6).tolist()


def row_ending_in(value: float) -> list[float]:
    """A row of orjson-path values but the last; the row takes that value's path."""
    return [0.25] * 33 + [value]


def assert_matches_reference(case_id, boxes, points, frame_indices):
    text = dumps_frame(case_id, boxes, points, frame_indices)
    assert text == reference_frames(case_id, boxes, points, frame_indices)
    return text


@pytest.fixture
def orjson_rows(monkeypatch):
    """The values that the writers hand ``orjson.dumps``, one per call: the box and
    keypoint blocks of a frame stream, and each run of items, as a list nested in
    lists, of a report, sidecar or evaluation, also one that orjson refuses or
    whose text json then writes again."""
    records = []
    dumps = orjson.dumps

    def recording(record, **options):
        records.append(record)
        return dumps(record, **options)

    monkeypatch.setattr(orjson, "dumps", recording)
    return records


def orjson_frame_rows(records) -> list[list[float]]:
    """The 34-value rows of the one box block and one keypoint block that
    ``dumps_frame`` hands orjson."""
    assert [type(block) for block in records] == [np.ndarray, np.ndarray]
    boxes, points = records
    return np.concatenate([boxes, points.reshape(len(points), 30)], axis=1).tolist()


class TestDumpsFrame:
    @given(
        values=st.lists(rows, max_size=6),
        case_id=text.filter(bool),
        frame_indices=st.lists(st.integers(0, 10**30), min_size=6, max_size=6),
    )
    @settings(max_examples=500, deadline=None)
    def test_matches_reference(self, values, case_id, frame_indices):
        boxes, points = frames_from_rows(values)
        assert_matches_reference(case_id, boxes, points, frame_indices[: len(values)])

    @given(
        values=st.lists(
            st.lists(
                st.one_of(
                    grid_coords,
                    st.sampled_from([0.0, 5e-05, 0.0001, 1.0]),
                    st.floats(0.0, 1.0),
                ),
                min_size=34,
                max_size=34,
            ),
            min_size=1,
            max_size=6,
        ),
        case_id=text.filter(is_case_id),
        frame_indices=st.lists(st.integers(0, 10**30), min_size=6, max_size=6),
    )
    @settings(max_examples=100, deadline=None)
    def test_reader_reads_back_what_it_wrote(self, values, case_id, frame_indices):
        boxes, points = frames_from_rows(values)
        frame_indices = frame_indices[: len(values)]
        lines = dumps_frame(case_id, boxes, points, frame_indices).splitlines(keepends=True)
        batches = list(iter_frame_stream(lines))
        assert [c for case_ids, _, _ in batches for c in case_ids] == [case_id] * len(values)
        assert [i for _, indices, _ in batches for i in indices] == frame_indices
        rounded = [[round(v, COORD_DECIMALS) for v in row[4:]] for row in values]
        read = np.concatenate([points for _, _, points in batches]).reshape(len(values), 30)
        assert read.tolist() == rounded

    @pytest.mark.parametrize("value", EDGE_COORDS, ids=repr)
    def test_edge_values(self, value):
        # the value alone, and once among orjson-path values, between orjson-path rows
        values = [[value] * 34, grid_row(1), row_ending_in(value), grid_row(2)]
        assert_matches_reference("c", *frames_from_rows(values), [0, 1, 2, 3])

    def test_random_detections(self):
        rng = np.random.default_rng(7)
        for scale in (1.0, 1e-3, 1e-5):
            boxes = rng.uniform(0.0, 1.0, (200, 4))
            points = rng.uniform(0.0, 1.0, (200, 15, 2)) * scale
            assert_matches_reference("r", boxes, points, range(200))
            quantized = np.round(points, COORD_DECIMALS)
            assert_matches_reference("r", np.round(boxes, 6), quantized, range(200))

    @pytest.mark.parametrize(
        "box",
        [(0, 1, 1, 0), (True, False, 1, 0), (np.float64(0.25), np.float64(1e-5), 0.5, 2)],
        ids=["ints", "bools", "float64"],
    )
    def test_directly_built_box(self, box):
        # box fields of any real type are written as their float64 values
        points = np.full((1, 15, 2), 0.5)
        text = assert_matches_reference("c", [box], points, [0])
        assert text == dumps_frame("c", [[float(v) for v in box]], points, [0])

    @pytest.mark.parametrize("value", ["0.5"], ids=repr)
    def test_unsupported_coordinate_type_raises(self, value):
        with pytest.raises(TypeError):
            dumps_frame("c", [[value, 0.5, 0.5, 0.5]], np.full((1, 15, 2), 0.5), [0])

    def test_non_ascii_case_id_and_huge_frame_index(self):
        boxes = [[0.5, 0.5, 0.25, 0.125], [0.5, 0.5, 0.25, 0.125]]
        points = np.full((2, 15, 2), 0.3)
        text = assert_matches_reference("caño\U0001f600", boxes, points, [10**30, 0])
        assert text.isascii()
        assert text.count("\n") == 2

    def test_no_rows_no_text(self):
        assert dumps_frame("c", np.empty((0, 4)), np.empty((0, 15, 2)), []) == ""

    def test_row_and_frame_index_counts_must_agree(self):
        with pytest.raises(ValueError):
            dumps_frame("c", np.full((2, 4), 0.5), np.full((2, 15, 2), 0.5), [0])

    def test_blocks_mix_array_and_fallback_rows(self, orjson_rows):
        # the grid rows and the rows ending in an edge value on the grid that
        # is 0 or of a magnitude in [1e-4, 1e16) go to orjson, the others to json
        on_grid = [0.0, -0.0, 1.0, 0.0001, 0.999999, 0.5, math.nextafter(1e16, 0.0)]
        values, taken = [], []
        for i, value in enumerate(EDGE_COORDS):
            values += [grid_row(i), row_ending_in(value)]
            taken += [grid_row(i)] + ([row_ending_in(value)] if value in on_grid else [])
        text = assert_matches_reference("m", *frames_from_rows(values), range(len(values)))
        assert text.count("\n") == len(values)
        assert len(taken) == len(EDGE_COORDS) + len(on_grid)
        assert orjson_frame_rows(orjson_rows) == taken

    @pytest.mark.parametrize("rows_count", [1, 255, 256, 257])
    def test_block_sizes(self, rows_count, orjson_rows):
        # one json row, the last of the first 256, among orjson rows
        values = [grid_row(i) for i in range(rows_count)]
        by_json = min(rows_count, 256) - 1
        values[by_json] = row_ending_in(0.000099)
        assert_matches_reference("b", *frames_from_rows(values), range(rows_count))
        assert orjson_frame_rows(orjson_rows) == values[:by_json] + values[by_json + 1 :]

    def test_every_frame_of_jittered_sweeps(self, orjson_rows):
        for i in range(16):
            spec = HingeModelSpec(hinge_angle_deg=5.0 + 11.0 * i, seed=i)
            result = sweep(
                spec,
                steps=80,
                jitter_sd=0.003 * (i % 2),
                pitch_deg=2.0 * (i % 5),
                image_width=640 + 97 * i,
            )
            assert_matches_reference("s", result.boxes, result.points, range(80))
            # orjson writes every frame of a sweep, clipped or not, in one call per block
            rows = np.concatenate([result.boxes, result.points.reshape(80, -1)], axis=1)
            assert orjson_frame_rows(orjson_rows) == rows.tolist()
            orjson_rows.clear()
