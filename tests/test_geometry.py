"""Angle math: oracle agreement, invariances, middle-line semantics.

Angles are measured through ``measure_stream``, the one measuring path,
a middle line at a time (``conftest.line_angles``).
"""

import io
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    LineAngles,
    detection_from_middle,
    frame_line,
    hinge_polyline,
    line_angles,
    measure_sequence,
    normalize_unit,
    per_frame_rows,
    vector_angle,
)
from kpcurve.cli import main
from kpcurve.report import RunConfig
from kpcurve.sequence import (
    DegenerateProjectionError,
    angle_set_from_row,
    frame_rules,
    measure_stream,
    middle_line,
)

finite = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
point = st.tuples(finite, finite)


def atan2_oracle(a, b, c, d) -> float:
    """Independent unsigned-angle computation via the cross product."""
    v1 = (b[0] - a[0], b[1] - a[1])
    v2 = (d[0] - c[0], d[1] - c[1])
    cross = v1[0] * v2[1] - v1[1] * v2[0]
    dot = v1[0] * v2[0] + v1[1] * v2[1]
    return abs(math.degrees(math.atan2(cross, dot)))


def brute_force_angles(pts) -> list[float]:
    """All four angles recomputed directly from the definition."""
    return [
        atan2_oracle(pts[0], pts[1], pts[3], pts[4]),
        atan2_oracle(pts[0], pts[1], pts[1], pts[2]),
        atan2_oracle(pts[1], pts[2], pts[2], pts[3]),
        atan2_oracle(pts[2], pts[3], pts[3], pts[4]),
    ]


class TestVectorAngle:
    def test_parallel(self):
        assert vector_angle((0, 0), (1, 0), (0, 0), (2, 0)) == 0.0

    def test_orthogonal(self):
        assert vector_angle((0, 0), (1, 0), (0, 0), (0, 1)) == pytest.approx(90.0)

    def test_antiparallel(self):
        assert vector_angle((0, 0), (1, 0), (0, 0), (-1, 0)) == pytest.approx(180.0)

    def test_forty_five(self):
        assert vector_angle((0, 0), (1, 1), (0, 0), (1, 0)) == pytest.approx(
            45.0, abs=1e-12
        )

    def test_degenerate_first_vector(self):
        with pytest.raises(ValueError, match="^segment 0 shorter"):
            vector_angle((1, 1), (1, 1), (0, 0), (1, 0))

    def test_degenerate_second_vector(self):
        with pytest.raises(ValueError, match="^segment 1 shorter"):
            vector_angle((0, 0), (1, 0), (2, 2), (2, 2))

    @given(a=point, b=point, c=point, d=point)
    @settings(max_examples=300)
    def test_atan2_oracle_agreement(self, a, b, c, d):
        assume(math.hypot(b[0] - a[0], b[1] - a[1]) > 1e-3)
        assume(math.hypot(d[0] - c[0], d[1] - c[1]) > 1e-3)
        expected = atan2_oracle(a, b, c, d)
        assert vector_angle(a, b, c, d) == pytest.approx(expected, abs=1e-9)

    @given(a=point, b=point, c=point, d=point)
    @settings(max_examples=200)
    def test_symmetry_exact(self, a, b, c, d):
        assume(math.hypot(b[0] - a[0], b[1] - a[1]) > 1e-6)
        assume(math.hypot(d[0] - c[0], d[1] - c[1]) > 1e-6)
        assert vector_angle(a, b, c, d) == vector_angle(c, d, a, b)

    @given(a=point, b=point, c=point, d=point)
    @settings(max_examples=200)
    def test_range(self, a, b, c, d):
        assume(math.hypot(b[0] - a[0], b[1] - a[1]) > 1e-6)
        assume(math.hypot(d[0] - c[0], d[1] - c[1]) > 1e-6)
        assert 0.0 <= vector_angle(a, b, c, d) <= 180.0

    def test_clamping_guards_arccos(self):
        # (anti)parallel vectors sit at the range ends, where a cosine
        # formulation would need a clamp; the angle must stay in range
        for v in [(1e8, 1e8), (0.1, 0.3), (3.0, 4.0), (1e-3, 1e8)]:
            for flip in (2.0, -2.0):
                angle = vector_angle((0, 0), v, (0, 0), (flip * v[0], flip * v[1]))
                assert math.isfinite(angle)
                assert 0.0 <= angle <= 180.0
        # exact integer-norm case hits the boundary cosine exactly
        assert vector_angle((0, 0), (3, 4), (0, 0), (6, 8)) == 0.0
        assert vector_angle((0, 0), (3, 4), (0, 0), (-3, -4)) == 180.0

    @given(a=point, b=point, c=point, d=point, angle=st.floats(0.0, 6.28))
    @settings(max_examples=150)
    def test_mirror_invariance_exact(self, a, b, c, d, angle):
        assume(math.hypot(b[0] - a[0], b[1] - a[1]) > 1e-3)
        assume(math.hypot(d[0] - c[0], d[1] - c[1]) > 1e-3)
        flip = lambda p: (-p[0], p[1])
        assert vector_angle(a, b, c, d) == vector_angle(
            flip(a), flip(b), flip(c), flip(d)
        )


class TestMiddleLine:
    def test_extracts_row_one(self):
        pts = [(0.0, 0.0)] * 5 + [
            (0.1, 0.5),
            (0.3, 0.5),
            (0.5, 0.5),
            (0.7, 0.5),
            (0.9, 0.5),
        ] + [(1.0, 1.0)] * 5
        line = middle_line(np.array(pts))
        assert line.tolist() == [
            [0.1, 0.5],
            [0.3, 0.5],
            [0.5, 0.5],
            [0.7, 0.5],
            [0.9, 0.5],
        ]

    def test_independent_of_lateral_rows(self):
        # lateral rows swapped top for bottom, or every lateral point
        # collapsed onto one point, change no measurement and no report byte
        grids = np.random.default_rng(0).uniform(0, 1, (6, 15, 2))
        swapped = np.concatenate([grids[:, 10:15], grids[:, 5:10], grids[:, 0:5]], axis=1)
        collapsed = grids.copy()
        collapsed[:, :5] = collapsed[:, 10:] = grids[0, 0]
        variants = [grids, swapped, collapsed]
        for variant in variants:
            assert np.array_equal(middle_line(variant), middle_line(grids))

        batch, box = (["c", "d"] * 3, [0, 0, 1, 1, 2, 2]), np.full(4, 0.5)
        streams = [
            "".join(
                frame_line(case_id, (box, points), index) + "\n"
                for case_id, index, points in zip(*batch, variant)
            )
            for variant in variants
        ]
        for aspect in (1.0, 16 / 9):
            config = RunConfig(aspect_ratio=aspect)
            measured = [measure_stream([(*batch, grid)], config) for grid in variants]
            assert len(measured[0][0]) == 2 and measured[0][1] == []
            assert measured[1] == measured[0] and measured[2] == measured[0]
            reports = set()
            for stream in streams:
                out, argv = io.StringIO(), ["analyze", "--aspect", repr(aspect), "-"]
                assert main(argv, stdin=io.StringIO(stream), stdout=out, stderr=io.StringIO()) == 0
                reports.add(out.getvalue())
            assert len(reports) == 1

    def test_stack_gives_a_view_per_detection(self):
        stack = np.random.default_rng(1).uniform(0, 1, (2, 3, 15, 2))
        lines = middle_line(stack)
        assert lines.shape == (2, 3, 5, 2)
        assert np.shares_memory(lines, stack)
        for index in np.ndindex(2, 3):
            assert np.array_equal(lines[index], middle_line(stack[index]))


class TestComputeAngles:
    def test_collinear_all_zero(self):
        line = np.column_stack([np.linspace(0.1, 0.9, 5), np.full(5, 0.4)])
        result = line_angles(line)
        assert result == LineAngles(
            deviation_deg=0.0,
            segment_deg=(0.0, 0.0, 0.0),
            frame_angle_deg=0.0,
            curvature_col=1,
        )

    def test_single_hinge_forty_degrees(self):
        result = line_angles(hinge_polyline(40.0, vertex=2))
        assert result.segment_deg[1] == pytest.approx(40.0, abs=1e-9)
        assert result.segment_deg[0] == pytest.approx(0.0, abs=1e-9)
        assert result.segment_deg[2] == pytest.approx(0.0, abs=1e-9)
        assert result.deviation_deg == pytest.approx(40.0, abs=1e-9)
        assert result.frame_angle_deg == pytest.approx(40.0, abs=1e-9)
        assert result.curvature_col == 2

    @pytest.mark.parametrize("vertex,col", [(1, 1), (2, 2), (3, 3)])
    def test_hinge_vertex_localized(self, vertex, col):
        result = line_angles(hinge_polyline(25.0, vertex=vertex))
        assert result.curvature_col == col
        assert result.frame_angle_deg == pytest.approx(25.0, abs=1e-9)

    def test_frame_angle_semantics_fixed_values(self):
        # a frame measuring X reports frame_angle_deg == X
        for target in (67.51, 3.75):
            result = line_angles(hinge_polyline(target))
            assert result.frame_angle_deg == pytest.approx(target, abs=1e-9)

    @given(data=st.data())
    @settings(max_examples=200)
    def test_brute_force_recomputation(self, data):
        base = data.draw(
            st.lists(
                st.tuples(
                    st.floats(-10, 10, allow_nan=False),
                    st.floats(-10, 10, allow_nan=False),
                ),
                min_size=5,
                max_size=5,
            )
        )
        pts = np.array(base)
        seg = np.diff(pts, axis=0)
        assume((np.hypot(seg[:, 0], seg[:, 1]) > 1e-3).all())
        expected = brute_force_angles(pts)
        assume(all(1e-3 < e < 180 - 1e-3 for e in expected))
        result = line_angles(pts)
        assert result.deviation_deg == pytest.approx(expected[0], abs=1e-9)
        for got, want in zip(result.segment_deg, expected[1:]):
            assert got == pytest.approx(want, abs=1e-9)
        assert result.frame_angle_deg == max(
            [result.deviation_deg, *result.segment_deg]
        )
        segments = list(result.segment_deg)
        assert result.curvature_col == 1 + segments.index(max(segments))

    def test_curvature_col_tie_resolves_low(self):
        # zigzag of three 45-degree turns; every segment vector is (1, 0)
        # or (1, 1), so the three bend angles are bitwise equal
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 1.0], [3.0, 1.0], [4.0, 2.0]])
        result = line_angles(pts)
        assert result.segment_deg[0] == result.segment_deg[1] == result.segment_deg[2]
        assert result.segment_deg[0] == pytest.approx(45.0, abs=1e-12)
        assert result.curvature_col == 1

    @given(
        rows=st.lists(
            st.lists(st.sampled_from([0.0, 12.5, 45.0, 90.0, 179.0]), min_size=4, max_size=4),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_angle_set_from_row_matches_argmax_rule(self, rows):
        # a five-value alphabet makes ties common; the first maximum wins
        block = np.array(rows)
        frame_angle, curvature_col = frame_rules(block)
        for row, top, col in zip(rows, frame_angle.tolist(), curvature_col.tolist()):
            assert top == max(row)
            assert col == 1 + row[1:].index(max(row[1:]))
        arr = block[0]
        deviation, segments, frame_angle_deg, col = angle_set_from_row(arr)
        assert col == 1 + int(np.argmax(arr[1:]))
        assert frame_angle_deg == max(float(v) for v in arr)
        assert deviation == rows[0][0]
        assert segments == tuple(rows[0][1:])
        assert all(type(v) is float for v in (deviation, *segments, frame_angle_deg))
        assert type(col) is int

    def test_degenerate_segment_identified(self):
        pts = hinge_polyline(30.0)
        pts[2] = pts[1]
        with pytest.raises(DegenerateProjectionError, match="all 1 frames had degenerate geometry"):
            line_angles(pts)
        # beside a valid frame, the degenerate one is kept with its first bad segment
        grids = [np.tile(line, (3, 1)) for line in (hinge_polyline(30.0), pts)]
        batch = (["c", "c"], [0, 1], np.array(grids))
        cases, failures = measure_stream([batch], RunConfig())
        assert failures == []
        assert cases[0].per_frame.first_bad.tolist() == [-1, 1]
        assert per_frame_rows(cases[0])[1] == {
            "frame_index": 1,
            "valid": False,
            "error_note": "degenerate middle-line segment 1",
        }

    def test_full_keypoint_entry_point(self):
        det = detection_from_middle(normalize_unit(hinge_polyline(33.0)))
        row = measure_sequence("c", [det]).per_frame.angles[0]
        assert frame_rules(row[None])[0][0] == pytest.approx(33.0, abs=1e-6)


class TestAspectCorrection:
    def test_matches_manual_prescaling(self):
        pts = normalize_unit(hinge_polyline(28.0))
        aspect = 16.0 / 9.0
        direct = line_angles(pts, RunConfig(aspect_ratio=aspect))
        manual = line_angles(pts * np.array([aspect, 1.0]))
        assert direct == manual

    def test_nonsquare_distorts_normalized_angles(self):
        pts = normalize_unit(hinge_polyline(30.0))
        assert line_angles(pts, RunConfig(aspect_ratio=2.0)).frame_angle_deg != pytest.approx(
            30.0, abs=1e-3
        )

    def test_aspect_one_is_identity(self):
        pts = normalize_unit(hinge_polyline(30.0))
        assert line_angles(pts, RunConfig(aspect_ratio=1.0)) == line_angles(pts)

    @pytest.mark.parametrize(
        "aspect, reason",
        [
            *(
                pytest.param(aspect, "must be positive and finite", id=str(aspect))
                for aspect in (0.0, -1.5, math.nan, math.inf, -math.inf)
            ),
            pytest.param(1e300, "is too large: its square overflows a float", id="1e+300"),
        ],
    )
    def test_invalid_aspect_rejected(self, aspect, reason):
        # the run config checks the ratio that measure_stream reads from it
        with pytest.raises(ValueError) as exc:
            RunConfig(aspect_ratio=aspect)
        assert str(exc.value) == f"aspect ratio {aspect} {reason}"


class TestInvariances:
    @given(
        angle=st.floats(0.0, 6.283),
        tx=st.floats(-50, 50),
        ty=st.floats(-50, 50),
        data=st.data(),
    )
    @settings(max_examples=150)
    def test_rigid_motion(self, angle, tx, ty, data):
        bend = data.draw(st.floats(1.0, 179.0))
        pts = hinge_polyline(bend)
        rot = np.array(
            [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]]
        )
        moved = pts @ rot.T + np.array([tx, ty])
        a = line_angles(pts)
        b = line_angles(moved)
        assert b.frame_angle_deg == pytest.approx(a.frame_angle_deg, abs=1e-9)
        assert b.deviation_deg == pytest.approx(a.deviation_deg, abs=1e-9)

    @given(scale=st.floats(1e-3, 1e3), bend=st.floats(1.0, 179.0))
    @settings(max_examples=150)
    def test_uniform_scale(self, scale, bend):
        pts = hinge_polyline(bend)
        a = line_angles(pts)
        b = line_angles(pts * scale)
        assert b.frame_angle_deg == pytest.approx(a.frame_angle_deg, abs=1e-9)

    @given(bend=st.floats(1.0, 179.0))
    @settings(max_examples=150)
    def test_mirror(self, bend):
        pts = hinge_polyline(bend)
        a = line_angles(pts)
        b = line_angles(pts * np.array([1.0, -1.0]))
        assert b.frame_angle_deg == a.frame_angle_deg
        assert b.segment_deg == a.segment_deg


class TestHingeIdentity:
    @pytest.mark.parametrize("vertex", [1, 2, 3])
    def test_exact_across_grid(self, vertex):
        for beta in range(5, 180, 5):
            result = line_angles(hinge_polyline(float(beta), vertex=vertex))
            assert result.frame_angle_deg == pytest.approx(float(beta), abs=1e-9)
