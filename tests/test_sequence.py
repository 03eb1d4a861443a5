"""Per-case aggregation: max rule, invalid-frame handling, streaming."""

import io
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    detection_batches,
    detection_from_middle,
    detection_with_angle,
    frame_line,
    measure_sequence,
    normalize_unit,
    per_frame_rows,
)
from kpcurve import report
from kpcurve.annotation import emit_yolo_line
from kpcurve.cli import main
from kpcurve.report import RunConfig, iter_frame_stream
from kpcurve.sequence import DegenerateProjectionError, measure_stream


def degenerate_detection():
    box, pts = detection_with_angle(20.0)
    pts[7] = pts[6]  # middle-line points 1 and 2 coincide
    return box, pts


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
        assert measure_sequence("c", [det] * 3, frame_indices=[5, 2, 2]).argmax_frame == 2

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
        assert case.per_frame.first_bad.tolist() == [-1, 1, -1]
        assert np.isnan(case.per_frame.angles[1]).all()
        assert not np.isnan(case.per_frame.angles[[0, 2]]).any()
        rows = per_frame_rows(case)
        assert [row["valid"] for row in rows] == [True, False, True]
        assert "frame_angle_deg" not in rows[1]
        assert "segment 1" in rows[1]["error_note"]

    def test_all_frames_invalid(self):
        with pytest.raises(DegenerateProjectionError):
            measure_sequence("c", [degenerate_detection(), degenerate_detection()])

    def test_explicit_frame_indices_respected(self):
        frames = [detection_with_angle(10.0), detection_with_angle(40.0)]
        case = measure_sequence("c", frames, frame_indices=[7, 3])
        assert case.argmax_frame == 3
        assert case.per_frame.frame_indices == [7, 3]
        assert [row["frame_index"] for row in per_frame_rows(case)] == [7, 3]

    def test_keep_frames_false_drops_details_only(self):
        frames = [detection_with_angle(a) for a in (12.0, 48.0)]
        full = measure_sequence("c", frames)
        slim = measure_sequence("c", frames, RunConfig(retain_per_frame=False))
        assert slim.per_frame.frame_indices == []
        assert slim.per_frame.angles.shape == (0, 4)
        assert slim.per_frame.first_bad.shape == (0,)
        assert len(full.per_frame.frame_indices) == 2
        assert slim.curvature_deg == full.curvature_deg
        assert slim.argmax_frame == full.argmax_frame
        assert slim.frames_valid == full.frames_valid

    def test_aspect_forwarded_to_geometry(self):
        det = detection_with_angle(30.0)
        square = measure_sequence("c", [det], RunConfig(aspect_ratio=1.0))
        wide = measure_sequence("c", [det], RunConfig(aspect_ratio=2.0))
        assert square.curvature_deg != pytest.approx(wide.curvature_deg, abs=1e-3)

    def test_invalid_aspect_rejected(self):
        # the ratio is checked where it enters, before any frame is measured
        stream = io.StringIO(frame_line("c", detection_with_angle(5.0), 0) + "\n")
        out, err = io.StringIO(), io.StringIO()
        assert main(["analyze", "--aspect", "0", "-"], stdin=stream, stdout=out, stderr=err) == 2
        assert out.getvalue() == ""
        assert err.getvalue() == "kpcurve analyze: aspect ratio 0.0 must be positive and finite\n"

    def test_spans_kernel_chunk_boundary(self):
        frames = [detection_with_angle(10.0)] * 5000
        frames.append(detection_with_angle(50.0))
        case = measure_sequence("c", frames, RunConfig(retain_per_frame=False))
        assert case.frames_total == 5001
        assert case.curvature_deg == pytest.approx(50.0, abs=1e-6)
        assert case.argmax_frame == 5000


class TestMeasureSingle:
    """``measure`` scores a still image as a stream of one frame."""

    @staticmethod
    def measure(det) -> dict:
        out = io.StringIO()
        assert main(["measure", "-"], stdin=io.StringIO(emit_yolo_line(0, *det)), stdout=out) == 0
        return json.loads(out.getvalue())["cases"][0]

    def test_equivalent_to_one_frame_sequence(self):
        det = detection_with_angle(42.0)
        report, stream = io.StringIO(), io.StringIO(frame_line("stdin", det, 0) + "\n")
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
        dets = [detection_with_angle(a) for a, _ in frames]
        indices = [i for _, i in frames]
        base = measure_sequence("c", dets, frame_indices=indices)
        order = np.random.default_rng(seed).permutation(len(dets))
        shuffled = measure_sequence(
            "c", [dets[i] for i in order], frame_indices=[indices[i] for i in order]
        )
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
            ("a", 0, detection_with_angle(10.0)[1]),
            ("b", 0, detection_with_angle(70.0)[1]),
            ("a", 1, detection_with_angle(55.0)[1]),
            ("b", 1, detection_with_angle(20.0)[1]),
        ]
        cases, failures = measure_stream(detection_batches(records), RunConfig())
        assert failures == []
        assert [c.case_id for c in cases] == ["a", "b"]
        by_id = {c.case_id: c for c in cases}
        assert by_id["a"].curvature_deg == pytest.approx(55.0, abs=1e-6)
        assert by_id["a"].argmax_frame == 1
        assert by_id["b"].curvature_deg == pytest.approx(70.0, abs=1e-6)
        assert by_id["b"].argmax_frame == 0

    def test_per_case_position_numbering(self):
        records = [
            ("a", None, detection_with_angle(10.0)[1]),
            ("b", None, detection_with_angle(20.0)[1]),
            ("a", None, detection_with_angle(30.0)[1]),
        ]
        cases, _ = measure_stream(detection_batches(records), RunConfig())
        by_id = {c.case_id: c for c in cases}
        assert by_id["a"].per_frame.frame_indices == [0, 1]
        assert by_id["b"].per_frame.frame_indices == [0]

    def test_failed_case_reported_not_fatal(self):
        records = [
            ("ok", None, detection_with_angle(40.0)[1]),
            ("bad", None, degenerate_detection()[1]),
        ]
        cases, failures = measure_stream(detection_batches(records), RunConfig())
        assert [c.case_id for c in cases] == ["ok"]
        assert len(failures) == 1
        assert failures[0][0] == "bad"
        assert "degenerate" in failures[0][1]

    def test_empty_stream_measures_nothing(self):
        # the reader rejects a stream with no frame line; measurement has nothing to say
        assert measure_stream([], RunConfig()) == ([], [])

    @staticmethod
    def peak_bytes(batch_count: int, keep_frames: bool) -> int:
        """Peak traced allocation of ``measure_stream`` over ``batch_count``
        batches of 256 frames of two interleaved cases, made one at a time."""
        grids = np.tile(detection_with_angle(30.0)[1], (256, 1, 1))

        def batches():
            for start in range(0, 256 * batch_count, 256):
                yield ["a", "b"] * 128, list(range(start, start + 256)), grids.copy()

        tracemalloc.start()
        try:
            measure_stream(batches(), RunConfig(retain_per_frame=keep_frames))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_memory_bounded_without_frames(self):
        # analyze --no-per-frame promises bounded memory on long streams
        assert self.peak_bytes(64, keep_frames=False) < 1.5 * self.peak_bytes(8, False)
        # the measurement sees the growth of kept frames
        assert self.peak_bytes(64, keep_frames=True) > 3 * self.peak_bytes(8, True)

    def test_chunk_sizes_agree_exactly(self, monkeypatch):
        rng = np.random.default_rng(9)
        records, lines = [], []
        for i in range(3000):
            case = f"case{i % 3}"
            det = detection_with_angle(float(rng.uniform(1.0, 179.0)))
            records.append((case, i, det[1]))
            lines.append(frame_line(case, det, i))
        results = {}
        for chunk in (1, 7, report.CHUNK_FRAMES):
            monkeypatch.setattr(report, "CHUNK_FRAMES", chunk)
            for name, batches in (
                ("records", list(detection_batches(records))),
                ("jsonl", list(iter_frame_stream(lines))),
            ):
                # the patched constant is the one both producers read
                assert [len(ids) for ids, _, _ in batches[:-1]] == [chunk] * (
                    len(batches) - 1
                )
                results[name, chunk] = measure_stream(iter(batches), RunConfig())
        assert results["records", 1][0][0].frames_total == 1000
        for (name, chunk), result in results.items():
            assert result == results[name, 1], (name, chunk)
