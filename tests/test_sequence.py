"""Per-case aggregation: max rule, invalid-frame handling, streaming."""

import dataclasses
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    detection_batches,
    detection_from_middle,
    detection_with_angle,
    measure_sequence,
    normalize_unit,
)
from kpcurve import sequence
from kpcurve.annotation import KeypointSet, emit_yolo_line
from kpcurve.cli import main
from kpcurve.report import dumps_frame, iter_frame_stream
from kpcurve.sequence import AllFramesInvalidError, EmptySequenceError, measure_stream


def degenerate_detection():
    det = detection_with_angle(20.0)
    pts = det.keypoints.points.copy()
    pts[7] = pts[6]  # middle-line points 1 and 2 coincide
    return dataclasses.replace(det, keypoints=KeypointSet(pts))


class TestMeasureSequence:
    def test_takes_maximum(self):
        frames = [detection_with_angle(a) for a in (10.0, 35.0, 20.0)]
        case = measure_sequence("c", frames)
        assert case.curvature_deg == pytest.approx(35.0, abs=1e-6)
        assert case.argmax_frame == 1
        assert case.frames_total == 3
        assert case.frames_valid == 3

    def test_single_frame_value_passthrough(self):
        case = measure_sequence("c", [detection_with_angle(67.51)])
        assert case.curvature_deg == pytest.approx(67.51, abs=1e-6)
        assert case.argmax_frame == 0

    def test_ties_resolve_to_earliest_frame(self):
        det = detection_with_angle(25.0)
        case = measure_sequence("c", [det, det, det])
        assert case.argmax_frame == 0

    def test_tie_resolves_to_lowest_frame_index_not_stream_order(self):
        det = detection_with_angle(25.0)
        frames = [dataclasses.replace(det, frame_index=i) for i in (5, 2, 2)]
        assert measure_sequence("c", frames).argmax_frame == 2

    def test_invalid_frames_skipped_not_fatal(self):
        frames = [
            detection_with_angle(10.0),
            degenerate_detection(),
            detection_with_angle(30.0),
        ]
        case = measure_sequence("c", frames)
        assert case.frames_total == 3
        assert case.frames_valid == 2
        assert case.curvature_deg == pytest.approx(30.0, abs=1e-6)
        assert case.argmax_frame == 2
        invalid = case.per_frame[1]
        assert not invalid.valid
        assert invalid.angles is None
        assert "segment 1" in invalid.error_note

    def test_all_frames_invalid(self):
        with pytest.raises(AllFramesInvalidError):
            measure_sequence("c", [degenerate_detection(), degenerate_detection()])

    def test_empty_stream(self):
        with pytest.raises(EmptySequenceError):
            measure_sequence("c", [])

    def test_explicit_frame_indices_respected(self):
        frames = [
            dataclasses.replace(detection_with_angle(10.0), frame_index=7),
            dataclasses.replace(detection_with_angle(40.0), frame_index=3),
        ]
        case = measure_sequence("c", frames)
        assert case.argmax_frame == 3
        assert [fm.frame_index for fm in case.per_frame] == [7, 3]

    def test_keep_frames_false_drops_details_only(self):
        frames = [detection_with_angle(a) for a in (12.0, 48.0)]
        full = measure_sequence("c", frames)
        slim = measure_sequence("c", frames, keep_frames=False)
        assert slim.per_frame == ()
        assert slim.curvature_deg == full.curvature_deg
        assert slim.argmax_frame == full.argmax_frame
        assert slim.frames_valid == full.frames_valid

    def test_aspect_forwarded_to_geometry(self):
        det = detection_with_angle(30.0)
        square = measure_sequence("c", [det], aspect=1.0)
        wide = measure_sequence("c", [det], aspect=2.0)
        assert square.curvature_deg != pytest.approx(wide.curvature_deg, abs=1e-3)

    def test_invalid_aspect_rejected(self):
        with pytest.raises(ValueError):
            measure_sequence("c", [detection_with_angle(5.0)], aspect=0.0)

    def test_spans_kernel_chunk_boundary(self):
        frames = [detection_with_angle(10.0)] * 5000
        frames.append(detection_with_angle(50.0))
        case = measure_sequence("c", frames, keep_frames=False)
        assert case.frames_total == 5001
        assert case.curvature_deg == pytest.approx(50.0, abs=1e-6)
        assert case.argmax_frame == 5000


class TestMeasureSingle:
    """``measure`` scores a still image as a stream of one frame."""

    @staticmethod
    def measure(det) -> dict:
        out = io.StringIO()
        assert main(["measure", "-"], stdin=io.StringIO(emit_yolo_line(det)), stdout=out) == 0
        return json.loads(out.getvalue())["cases"][0]

    def test_equivalent_to_one_frame_sequence(self):
        det = detection_with_angle(42.0)
        report, stream = io.StringIO(), io.StringIO(dumps_frame("stdin", det, 0) + "\n")
        main(["analyze", "-"], stdin=stream, stdout=report)
        assert self.measure(det) == json.loads(report.getvalue())["cases"][0]

    def test_straight_line_zero(self):
        line = np.column_stack([np.linspace(0.1, 0.9, 5), np.full(5, 0.5)])
        case = self.measure(detection_from_middle(line))
        assert case["curvature_deg"] == 0.0

    def test_hinge_sixty_within_tolerance(self):
        case = self.measure(detection_with_angle(60.0))
        assert case["curvature_deg"] == pytest.approx(60.0, abs=0.5)


class TestAggregationProperties:
    @given(
        angles=st.lists(st.floats(1.0, 179.0), min_size=1, max_size=12),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_permutation_leaves_curvature_unchanged(self, angles, seed):
        frames = [detection_with_angle(a) for a in angles]
        base = measure_sequence("c", frames).curvature_deg
        rng = np.random.default_rng(seed)
        shuffled = [frames[i] for i in rng.permutation(len(frames))]
        assert measure_sequence("c", shuffled).curvature_deg == base

    @given(
        frames=st.lists(
            st.tuples(st.sampled_from([15.0, 40.0, 75.0]), st.integers(0, 20)),
            min_size=1,
            max_size=12,
        ),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_permutation_leaves_argmax_frame_unchanged(self, frames, seed):
        # few distinct angles and indices, so ties on the maximum are common
        dets = [
            dataclasses.replace(detection_with_angle(a), frame_index=i)
            for a, i in frames
        ]
        base = measure_sequence("c", dets)
        rng = np.random.default_rng(seed)
        shuffled = measure_sequence("c", [dets[i] for i in rng.permutation(len(dets))])
        assert shuffled.argmax_frame == base.argmax_frame
        assert shuffled.curvature_deg == base.curvature_deg

    @given(
        angles=st.lists(st.floats(1.0, 179.0), min_size=1, max_size=10),
        extra=st.floats(1.0, 179.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_append_never_decreases(self, angles, extra):
        frames = [detection_with_angle(a) for a in angles]
        before = measure_sequence("c", frames).curvature_deg
        after = measure_sequence("c", frames + [detection_with_angle(extra)])
        assert after.curvature_deg >= before

    @given(
        angles=st.lists(st.floats(1.0, 179.0), min_size=1, max_size=10),
        index=st.integers(0, 9),
    )
    @settings(max_examples=60, deadline=None)
    def test_duplication_idempotent(self, angles, index):
        frames = [detection_with_angle(a) for a in angles]
        dup = frames[index % len(frames)]
        base = measure_sequence("c", frames).curvature_deg
        assert measure_sequence("c", frames + [dup]).curvature_deg == base


class TestMeasureStream:
    def test_groups_interleaved_cases(self):
        records = [
            ("a", dataclasses.replace(detection_with_angle(10.0), frame_index=0)),
            ("b", dataclasses.replace(detection_with_angle(70.0), frame_index=0)),
            ("a", dataclasses.replace(detection_with_angle(55.0), frame_index=1)),
            ("b", dataclasses.replace(detection_with_angle(20.0), frame_index=1)),
        ]
        cases, failures = measure_stream(detection_batches(records))
        assert failures == []
        assert [c.case_id for c in cases] == ["a", "b"]
        by_id = {c.case_id: c for c in cases}
        assert by_id["a"].curvature_deg == pytest.approx(55.0, abs=1e-6)
        assert by_id["a"].argmax_frame == 1
        assert by_id["b"].curvature_deg == pytest.approx(70.0, abs=1e-6)
        assert by_id["b"].argmax_frame == 0

    def test_per_case_position_numbering(self):
        records = [
            ("a", detection_with_angle(10.0)),
            ("b", detection_with_angle(20.0)),
            ("a", detection_with_angle(30.0)),
        ]
        cases, _ = measure_stream(detection_batches(records))
        by_id = {c.case_id: c for c in cases}
        assert [fm.frame_index for fm in by_id["a"].per_frame] == [0, 1]
        assert [fm.frame_index for fm in by_id["b"].per_frame] == [0]

    def test_failed_case_reported_not_fatal(self):
        records = [
            ("ok", detection_with_angle(40.0)),
            ("bad", degenerate_detection()),
        ]
        cases, failures = measure_stream(detection_batches(records))
        assert [c.case_id for c in cases] == ["ok"]
        assert len(failures) == 1
        assert failures[0][0] == "bad"
        assert "degenerate" in failures[0][1]

    def test_empty_stream_raises(self):
        with pytest.raises(EmptySequenceError):
            measure_stream(iter([]))

    def test_chunk_sizes_agree_exactly(self, monkeypatch):
        rng = np.random.default_rng(9)
        records = []
        for i in range(3000):
            case = f"case{i % 3}"
            angle = float(rng.uniform(1.0, 179.0))
            records.append(
                (case, dataclasses.replace(detection_with_angle(angle), frame_index=i))
            )
        lines = [dumps_frame(case, det, det.frame_index) for case, det in records]
        results = {}
        for chunk in (1, 7, sequence.CHUNK_FRAMES):
            monkeypatch.setattr(sequence, "CHUNK_FRAMES", chunk)
            for name, batches in (
                ("records", list(detection_batches(records))),
                ("jsonl", list(iter_frame_stream(lines))),
            ):
                # the patched constant is the one both producers read
                assert [len(ids) for ids, _, _ in batches[:-1]] == [chunk] * (
                    len(batches) - 1
                )
                results[name, chunk] = measure_stream(iter(batches))
        assert results["records", 1][0][0].frames_total == 1000
        for (name, chunk), result in results.items():
            assert result == results[name, 1], (name, chunk)
