"""The two JSON writers pinned byte for byte to the stock json encoder.

``dumps_report`` must equal ``json.dumps(value, indent=2) + "\\n"`` for
every value json accepts, and raise what json raises otherwise.
``dumps_frame`` must equal the compact dump of the canonical record
below, whose coordinates are Python ``round`` to six decimals.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kpcurve.annotation import COORD_DECIMALS, BoundingBox, FrameDetection, KeypointSet
from kpcurve.report import dumps_frame, dumps_report
from kpcurve.synth import HingeModelSpec, sweep


def frame_record(case_id, det, frame_index) -> dict:
    """The canonical JSONL object for one detection, built as a dict."""
    return {
        "case_id": case_id,
        "frame_index": frame_index,
        "class_id": det.class_id,
        "bbox": [
            round(det.bbox.cx, COORD_DECIMALS),
            round(det.bbox.cy, COORD_DECIMALS),
            round(det.bbox.w, COORD_DECIMALS),
            round(det.bbox.h, COORD_DECIMALS),
        ],
        "keypoints": [
            [round(x, COORD_DECIMALS), round(y, COORD_DECIMALS)]
            for x, y in det.keypoints.points.tolist()
        ],
    }


def reference_frame(case_id, det, frame_index) -> str:
    return json.dumps(frame_record(case_id, det, frame_index), separators=(",", ":"))


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


# values on either side of the %.6f fast path's bounds, and an exact binary tie
EDGE_COORDS = [
    0.0,
    -0.0,
    1.0,
    5e-324,
    0.00009999949,
    0.0000999995,
    0.0001,
    math.nextafter(0.0001, 0.0),
    0.9999995,
    math.nextafter(0.9999995, 0.0),
    math.nextafter(0.9999995, 1.0),
    0.99999949,
    0.0078125,
    0.5,
    0.1234565,
]
coords = st.one_of(
    st.floats(0.0, 1.0), st.sampled_from(EDGE_COORDS), st.floats(), st.floats(-2.0, 2.0)
)


def detection(box, points) -> FrameDetection:
    return FrameDetection(class_id=0, bbox=BoundingBox(*box), keypoints=KeypointSet(points))


class TestDumpsFrame:
    @given(
        box=st.lists(coords, min_size=4, max_size=4),
        points=st.lists(coords, min_size=30, max_size=30),
        class_id=st.integers(0, 10**30),
        case_id=text.filter(bool),
        frame_index=st.integers(0, 10**30),
    )
    @settings(max_examples=500, deadline=None)
    def test_matches_reference(self, box, points, class_id, case_id, frame_index):
        det = FrameDetection(
            class_id=class_id,
            bbox=BoundingBox(*box),
            keypoints=KeypointSet(np.reshape(points, (15, 2))),
        )
        assert dumps_frame(case_id, det, frame_index) == reference_frame(
            case_id, det, frame_index
        )

    @pytest.mark.parametrize("value", EDGE_COORDS, ids=repr)
    def test_edge_values(self, value):
        det = detection([value] * 4, np.full((15, 2), value))
        assert dumps_frame("c", det, 0) == reference_frame("c", det, 0)

    def test_random_detections(self):
        rng = np.random.default_rng(7)
        for scale in (1.0, 1e-3, 1e-5):
            for _ in range(200):
                points = rng.uniform(0.0, 1.0, (15, 2)) * scale
                det = detection(rng.uniform(0.0, 1.0, 4).tolist(), points)
                assert dumps_frame("r", det, 3) == reference_frame("r", det, 3)

    @pytest.mark.parametrize(
        "box",
        [(0, 1, 1, 0), (True, False, 1, 0), (np.float64(0.25), np.float64(1e-5), 0.5, 2)],
        ids=["ints", "bools", "float64"],
    )
    def test_directly_built_box(self, box):
        det = detection(box, np.full((15, 2), 0.5))
        assert dumps_frame("c", det, 0) == reference_frame("c", det, 0)

    @pytest.mark.parametrize("value", [np.float32(0.5), "0.5"], ids=repr)
    def test_unsupported_coordinate_type_raises(self, value):
        det = detection([value, 0.5, 0.5, 0.5], np.full((15, 2), 0.5))
        with pytest.raises(TypeError):
            reference_frame("c", det, 0)
        with pytest.raises(TypeError):
            dumps_frame("c", det, 0)

    def test_non_ascii_case_id_and_huge_frame_index(self):
        det = detection([0.5, 0.5, 0.25, 0.125], np.full((15, 2), 0.3))
        line = dumps_frame("caño\U0001f600", det, 10**30)
        assert line == reference_frame("caño\U0001f600", det, 10**30)
        assert line.isascii()

    def test_every_frame_of_jittered_sweeps(self):
        for i in range(16):
            spec = HingeModelSpec(hinge_angle_deg=5.0 + 11.0 * i, seed=i)
            frames = sweep(
                spec,
                steps=80,
                jitter_sd=0.003 * (i % 2),
                pitch_deg=2.0 * (i % 5),
                image_width=640 + 97 * i,
            )
            for f in frames:
                det, index = f.detection, f.detection.frame_index
                assert dumps_frame("s", det, index) == reference_frame("s", det, index)
