"""The JSON writers pinned byte for byte to the stock json encoder.

``dumps_report`` must equal ``json.dumps(value, indent=2) + "\\n"`` for
every value json accepts, and raise what json raises otherwise; a
measurement report and a sidecar, whose per-frame lists the row
templates write, must equal ``json.dumps`` of the same document built
as dicts. ``dumps_frame`` must equal the compact dumps of the canonical
records below, one line per row, whose coordinates are Python ``round``
to six decimals.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kpcurve import report
from kpcurve.annotation import COORD_DECIMALS
from kpcurve.evaluation import classify, round_half_up
from kpcurve.report import (
    SCHEMA_VERSION,
    RunConfig,
    dumps_frame,
    dumps_report,
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


class TestDumpsReport:
    @given(value=trees)
    @settings(max_examples=500, deadline=None)
    def test_matches_stock_encoder(self, value):
        assert dumps_report(value) == reference_report(value)

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
        assert dumps_report(value) == reference_report(value)

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
        assert dumps_report(value) == reference_report(value)
        nested = {"a": [value, Seq([Mapping({"b": Seq([1.5])})])]}
        assert dumps_report(nested) == reference_report(nested)

    @pytest.mark.parametrize(
        "value", [np.int64(1), np.float32(0.5), object(), {(1,): 2}, [1, {2, 3}]]
    )
    def test_unsupported_values_raise_type_error(self, value):
        with pytest.raises(TypeError) as ours:
            dumps_report(value)
        with pytest.raises(TypeError) as theirs:
            json.dumps(value, indent=2)
        assert str(ours.value) == str(theirs.value)

    def test_deep_and_circular_values_behave_as_json(self):
        deep = 0
        for _ in range(800):
            deep = [deep]
        assert dumps_report(deep) == reference_report(deep)
        loop = []
        loop.append(loop)
        with pytest.raises(ValueError, match="Circular reference"):
            dumps_report(loop)


# angles at the ends of the range, the smallest subnormal, and a value
# repr writes in exponent form
EDGE_ANGLES = [0.0, 180.0, 5e-324, 1e-07]
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
        "tool_version": "v",
        "config": config.as_dict(),
        "cases": entries,
        "errors": errors,
    }
    return reference_report(document)


class TestRowTemplates:
    @given(
        cases=st.lists(st.tuples(text, st.lists(frames, min_size=1, max_size=6)), max_size=3),
        retain=st.booleans(),
        errors=st.lists(st.tuples(text, text), max_size=2),
    )
    @settings(max_examples=300, deadline=None)
    def test_measurement_report_matches_stock_encoder(self, cases, retain, errors):
        config = RunConfig(retain_per_frame=retain)
        measured = [case_from_frames(*case) for case in cases]
        document = measurement_report(measured, config, "v", errors=errors)
        entries = [{"case_id": case_id, "error": message} for case_id, message in errors]
        assert dumps_report(document) == reference_measurement(cases, config, entries)

    def test_edge_rows_in_stream_order(self):
        rows = [(10**30, EDGE_ANGLES), (0, 2), (7, EDGE_ANGLES[::-1])]
        rows += [(i, segment) for i, segment in enumerate(range(4))]
        rows += [(5, [1e-07] * 4), (3, [180.0, 0.0, 180.0, 5e-324])]
        for retain in (True, False):
            config = RunConfig(retain_per_frame=retain)
            document = measurement_report([case_from_frames("c", rows)], config, "v")
            assert dumps_report(document) == reference_measurement([("c", rows)], config, [])

    @given(
        case_id=text,
        spec=st.dictionaries(text, scalars, max_size=3),
        yaws=st.lists(st.one_of(st.floats(-89.0, 89.0), st.just(-0.0)), max_size=6),
        pitch=st.one_of(st.floats(-89.0, 89.0), st.sampled_from([-0.0, -12.5, -89.0])),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_sidecar_matches_stock_encoder(self, case_id, spec, yaws, pitch, data):
        true_angles = data.draw(st.lists(angles, min_size=len(yaws), max_size=len(yaws)))
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
        assert dumps_report(sweep_sidecar(phantom, result)) == reference_report(document)


# values on either side of the array path's bounds, an exact binary tie,
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
    math.nan,
    math.inf,
    -math.inf,
]
# values on the 6-decimal grid, which the array path takes inside its bounds
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


def frames_from_rows(values):
    """(boxes, points) arrays from (n, 34) rows."""
    values = np.asarray(values, dtype=np.float64).reshape(-1, 34)
    return values[:, :4], values[:, 4:].reshape(-1, 15, 2)


def grid_row(seed: int) -> list[float]:
    """A row every value of which takes the array path."""
    rng = np.random.default_rng(seed)
    return (rng.integers(100, 999_999, 34) / 10**6).tolist()


def row_ending_in(value: float) -> list[float]:
    """A row of array-path values but the last; the row takes that value's path."""
    return [0.25] * 33 + [value]


def assert_matches_reference(case_id, boxes, points, frame_indices):
    text = dumps_frame(case_id, boxes, points, frame_indices)
    assert text == reference_frames(case_id, boxes, points, frame_indices)
    return text


@pytest.fixture
def array_path_rows(monkeypatch):
    """Count the rows that ``dumps_frame`` formats on the array path."""
    counted = []
    digit_tails = report._digit_tails

    def counting(values):
        counted.append(len(values))
        return digit_tails(values)

    monkeypatch.setattr(report, "_digit_tails", counting)
    return counted


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

    @pytest.mark.parametrize("value", EDGE_COORDS, ids=repr)
    def test_edge_values(self, value):
        # the value alone, and once among array-path values, between array-path rows
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

    def test_blocks_mix_array_and_fallback_rows(self, array_path_rows):
        values = []
        for i, value in enumerate(EDGE_COORDS):
            values += [grid_row(i), row_ending_in(value)]
        text = assert_matches_reference("m", *frames_from_rows(values), range(len(values)))
        assert text.count("\n") == len(values)
        # the grid rows and the rows ending in an edge value on the grid in
        # [1e-4, 0.9999995) take the array path, the others go value by value
        on_grid = [0.0001, 0.999999, 0.5]
        assert array_path_rows == [len(EDGE_COORDS) + len(on_grid)]

    @pytest.mark.parametrize(
        "rows_count",
        [1, report.CHUNK_FRAMES - 1, report.CHUNK_FRAMES, report.CHUNK_FRAMES + 1],
    )
    def test_block_sizes(self, rows_count, array_path_rows):
        # a fallback row ends the first block, so each block has both paths
        values = [grid_row(i) for i in range(rows_count)]
        end = min(rows_count, report.CHUNK_FRAMES) - 1
        values[end] = row_ending_in(0.0)
        assert_matches_reference("b", *frames_from_rows(values), range(rows_count))
        blocks = [min(rows_count, report.CHUNK_FRAMES) - 1]
        if rows_count > report.CHUNK_FRAMES:
            blocks.append(rows_count - report.CHUNK_FRAMES)
        assert array_path_rows == blocks

    def test_every_frame_of_jittered_sweeps(self, array_path_rows):
        rows_total = 0
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
            rows_total += 80
        # a sweep whose jitter does not clip goes wholly down the array path
        assert sum(array_path_rows) == rows_total
