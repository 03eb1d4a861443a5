"""Phantom generator: construction, projection oracle, sweeps, jitter."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import line_angles, measure_sequence, vector_angle
from kpcurve.annotation import BoundingBox, FrameDetection, KeypointSet
from kpcurve.report import dumps_report, sweep_sidecar
from kpcurve.synth import (
    BadSpecError,
    DegenerateProjectionError,
    HingeModelSpec,
    PhantomSpec,
    _project_all,
    build_model,
    sweep,
)


def closed_form_yaw_apparent(beta_deg: float, yaw_deg: float) -> float:
    """Independent derivation of the projected bend under yaw.

    Rotate the unit pre-bend direction (0,1,0) and post-bend direction
    (sin b, cos b, 0) about the vertical axis, drop depth, and take the
    planar angle between what remains.
    """
    b = math.radians(beta_deg)
    y = math.radians(yaw_deg)
    # pre-bend direction is on the rotation axis: projects to (0, 1)
    px, py = math.sin(b) * math.cos(y), math.cos(b)
    return abs(math.degrees(math.atan2(px, py)))


def project(spec, yaw_deg=0.0, pitch_deg=0.0, **image):
    """One pose of the phantom: a one-step sweep at that yaw and pitch."""
    return sweep(spec, yaw_start_deg=yaw_deg, steps=1, pitch_deg=pitch_deg, **image)


def measured_deg(result, aspect=1.0) -> float:
    """The frame angle ``measure_stream`` gives row 0 of a sweep."""
    return line_angles(result.points[0].reshape(3, 5, 2)[1], aspect=aspect).frame_angle_deg


class TestSpecValidation:
    @pytest.mark.parametrize("angle", [-1.0, 180.0, 200.0])
    def test_angle_range(self, angle):
        with pytest.raises(BadSpecError):
            HingeModelSpec(hinge_angle_deg=angle)

    @pytest.mark.parametrize(
        "field,value",
        [("length_cm", 0.0), ("length_cm", -2.0), ("width_cm", 0.0)],
    )
    def test_positive_dimensions(self, field, value):
        with pytest.raises(BadSpecError):
            HingeModelSpec(hinge_angle_deg=40.0, **{field: value})

    @pytest.mark.parametrize("position", [0.0, 1.0, -0.5, 1.5])
    def test_interior_hinge_position(self, position):
        with pytest.raises(BadSpecError):
            HingeModelSpec(hinge_angle_deg=40.0, hinge_position=position)

    @pytest.mark.parametrize(
        "position,snapped",
        [(0.5, 0.5), (0.3, 0.25), (0.6, 0.5), (0.375, 0.25), (0.74, 0.75), (0.99, 0.75)],
    )
    def test_snapping_to_interior_keypoints(self, position, snapped):
        spec = HingeModelSpec(hinge_angle_deg=40.0, hinge_position=position)
        assert spec.snapped_position == snapped

    @pytest.mark.parametrize("yaw,pitch", [(90.0, 0.0), (-90.0, 0.0), (0.0, 95.0)])
    def test_pose_limits(self, yaw, pitch):
        bad = f"yaw {yaw}" if abs(yaw) >= 90.0 else f"pitch {pitch}"
        message = re.escape(f"{bad} outside (-90, 90); model self-occludes")
        with pytest.raises(BadSpecError, match=f"^{message}$"):
            project(HingeModelSpec(hinge_angle_deg=40.0), yaw, pitch)


class TestBuildModel:
    def test_straight_model_three_parallel_lines(self):
        model = build_model(HingeModelSpec(hinge_angle_deg=0.0))
        assert model.shape == (3, 5, 3)
        for line in model:
            seg = np.diff(line, axis=0)
            assert np.allclose(seg, seg[0], atol=1e-12)  # straight
        # laterals are pure z-offsets of the center
        assert np.allclose(model[0] - model[1], [0.0, 0.0, 0.75], atol=1e-12)
        assert np.allclose(model[2] - model[1], [0.0, 0.0, -0.75], atol=1e-12)

    def test_bend_vertex_and_deflection(self):
        model = build_model(HingeModelSpec(hinge_angle_deg=40.0, hinge_position=0.5))
        center = model[1]
        # vertex at the middle keypoint; directions before/after differ by 40
        deflection = vector_angle(center[0], center[2], center[2], center[4])
        assert deflection == pytest.approx(40.0, abs=1e-9)
        # interior angle of the polyline at the vertex is 180 - 40
        inner = vector_angle(center[2], center[0], center[2], center[4])
        assert inner == pytest.approx(140.0, abs=1e-9)

    @pytest.mark.parametrize("position", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("beta", [0.0, 15.0, 90.0, 135.0, 179.0])
    def test_arc_length_preserved(self, position, beta):
        spec = HingeModelSpec(
            hinge_angle_deg=beta, hinge_position=position, length_cm=5.5
        )
        center = build_model(spec)[1]
        arc = np.linalg.norm(np.diff(center, axis=0), axis=1).sum()
        assert arc == pytest.approx(5.5, abs=1e-9)

    def test_keypoints_at_quarter_fractions(self):
        spec = HingeModelSpec(hinge_angle_deg=30.0, hinge_position=0.25)
        center = build_model(spec)[1]
        cum = np.concatenate(
            [[0.0], np.cumsum(np.linalg.norm(np.diff(center, axis=0), axis=1))]
        )
        assert np.allclose(cum / spec.length_cm, [0, 0.25, 0.5, 0.75, 1.0], atol=1e-12)


class TestProject:
    """One pose at a time: row 0 of a one-step sweep."""

    def test_frontal_oracle_exact(self):
        result = project(HingeModelSpec(hinge_angle_deg=40.0))
        assert result.true_apparent_deg[0] == pytest.approx(40.0, abs=1e-9)

    def test_frontal_measured_within_quantization(self):
        for beta in (5.0, 40.0, 90.0, 150.0):
            result = project(HingeModelSpec(hinge_angle_deg=beta))
            assert measured_deg(result) == pytest.approx(beta, abs=0.5)

    def test_yaw_foreshortens_and_matches_closed_form(self):
        apparent = project(HingeModelSpec(hinge_angle_deg=40.0), 60.0).true_apparent_deg[0]
        assert apparent < 40.0
        assert apparent == pytest.approx(closed_form_yaw_apparent(40.0, 60.0), abs=1e-9)

    def test_straight_model_any_pose_zero(self):
        spec = HingeModelSpec(hinge_angle_deg=0.0)
        for yaw, pitch in ((0, 0), (45, 0), (-30, 20)):
            assert project(spec, yaw, pitch).true_apparent_deg[0] == pytest.approx(
                0.0, abs=1e-9
            )

    def test_laterals_coincide_with_center_at_frontal(self):
        pts = project(HingeModelSpec(hinge_angle_deg=35.0)).points[0]
        rows = pts.reshape(3, 5, 2)
        assert np.allclose(rows[0], rows[1], atol=1e-6)
        assert np.allclose(rows[2], rows[1], atol=1e-6)

    def test_laterals_separate_under_yaw(self):
        pts = project(HingeModelSpec(hinge_angle_deg=35.0), 40.0).points[0]
        rows = pts.reshape(3, 5, 2)
        assert not np.allclose(rows[0], rows[1], atol=1e-3)

    def test_frame_fits_margin_and_bbox_tight(self):
        result = project(HingeModelSpec(hinge_angle_deg=70.0), 25.0, 10.0)
        pts = result.points[0]
        cx, _, w, h = result.boxes[0]
        assert (pts >= 0.1 - 1e-6).all() and (pts <= 0.9 + 1e-6).all()
        xs, ys = pts[:, 0], pts[:, 1]
        assert cx == pytest.approx((xs.min() + xs.max()) / 2, abs=1e-6)
        assert w == pytest.approx(xs.max() - xs.min(), abs=1e-6)
        assert h == pytest.approx(ys.max() - ys.min(), abs=1e-6)

    def test_quantized_to_six_decimals(self):
        result = project(HingeModelSpec(hinge_angle_deg=33.3), 17.0, 3.0)
        for x, y in result.points[0].tolist():
            assert x == round(x, 6)
            assert y == round(y, 6)

    def test_nonsquare_image_roundtrips_with_aspect(self):
        spec = HingeModelSpec(hinge_angle_deg=50.0)
        result = project(spec, image_width=1280, image_height=720)
        assert measured_deg(result, aspect=1280 / 720) == pytest.approx(50.0, abs=0.5)

    # a hand-built model no spec can give goes straight to the projection
    def test_point_model_degenerate(self):
        with pytest.raises(DegenerateProjectionError):
            _project_all(np.zeros((3, 5, 3)), [0.0], 0.0, 640, 640)

    def test_collapsed_direction_degenerate(self):
        model = build_model(HingeModelSpec(hinge_angle_deg=20.0))
        collapsed = model.copy()
        collapsed[1, 1] = collapsed[1, 0]  # pre-bend direction vanishes
        with pytest.raises(DegenerateProjectionError, match="bend direction collapsed"):
            _project_all(collapsed, [0.0], 0.0, 640, 640)

    def test_bad_image_dimensions(self):
        with pytest.raises(BadSpecError):
            project(HingeModelSpec(hinge_angle_deg=20.0), image_width=0)


class TestOracleAgreement:
    @pytest.mark.parametrize("beta", [10.0, 40.0, 75.0])
    @pytest.mark.parametrize("yaw", [-60.0, -25.0, 0.0, 30.0, 55.0])
    def test_measured_tracks_oracle(self, beta, yaw):
        result = project(HingeModelSpec(hinge_angle_deg=beta), yaw)
        assert measured_deg(result) == pytest.approx(result.true_apparent_deg[0], abs=0.5)

    @given(
        beta=st.floats(1.0, 90.0),
        yaw=st.floats(-89.0, 89.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_yaw_underestimates_up_to_ninety(self, beta, yaw):
        # rotation about the base axis only foreshortens bends up to 90
        spec = HingeModelSpec(hinge_angle_deg=beta)
        frontal = project(spec).true_apparent_deg[0]
        rotated = project(spec, yaw).true_apparent_deg[0]
        assert rotated <= frontal + 1e-9


def columns(result) -> tuple:
    """Every column of a sweep, comparable with ``==`` bit for bit."""
    return (
        result.points.tobytes(),
        result.boxes.tobytes(),
        result.yaw_deg,
        result.pitch_deg,
        result.true_apparent_deg,
    )


def sidecar_frames(result) -> list[dict]:
    """The ``frames`` rows of the sidecar written for a sweep."""
    phantom = PhantomSpec("c", HingeModelSpec(0.0), {}, {})
    return json.loads(dumps_report(sweep_sidecar(phantom, result)))["frames"]


def detections(result) -> list[FrameDetection]:
    return [
        FrameDetection(class_id=0, bbox=BoundingBox(*box), keypoints=KeypointSet(points))
        for box, points in zip(result.boxes.tolist(), result.points)
    ]


class TestSweep:
    def test_single_step_uses_start_yaw(self):
        spec = HingeModelSpec(hinge_angle_deg=40.0)
        result = sweep(spec, yaw_start_deg=-15.0, yaw_end_deg=60.0, steps=1)
        assert result.points.shape == (1, 15, 2)
        assert result.boxes.shape == (1, 4)
        assert result.yaw_deg == [-15.0]
        assert len(result.true_apparent_deg) == 1
        assert sidecar_frames(result)[0]["frame_index"] == 0

    def test_frame_indices_sequential(self):
        result = sweep(HingeModelSpec(hinge_angle_deg=20.0), steps=7)
        frames = sidecar_frames(result)
        assert [f["frame_index"] for f in frames] == list(range(7))
        assert len(result.points) == len(result.boxes) == len(result.yaw_deg) == 7
        assert len(result.true_apparent_deg) == 7

    def test_recovers_angle_at_frontal(self):
        spec = HingeModelSpec(hinge_angle_deg=40.0)
        apparent = sweep(spec, -60.0, 60.0, steps=25).true_apparent_deg
        assert max(apparent) == apparent[12]  # yaw 0 at the center
        assert apparent[12] == pytest.approx(40.0, abs=1e-9)

    def test_deterministic_without_and_with_jitter(self):
        spec = HingeModelSpec(hinge_angle_deg=35.0, seed=7)
        a = sweep(spec, steps=10, jitter_sd=0.003)
        b = sweep(spec, steps=10, jitter_sd=0.003)
        assert columns(a) == columns(b)

    def test_seed_changes_jittered_frames(self):
        a = sweep(HingeModelSpec(hinge_angle_deg=35.0, seed=1), steps=5, jitter_sd=0.003)
        b = sweep(HingeModelSpec(hinge_angle_deg=35.0, seed=2), steps=5, jitter_sd=0.003)
        assert columns(a) != columns(b)
        # jitter-free output ignores the seed entirely
        c = sweep(HingeModelSpec(hinge_angle_deg=35.0, seed=1), steps=5)
        d = sweep(HingeModelSpec(hinge_angle_deg=35.0, seed=2), steps=5)
        assert columns(c) == columns(d)

    def test_jitter_keeps_coordinates_in_unit_range(self):
        result = sweep(HingeModelSpec(hinge_angle_deg=45.0, seed=3), steps=8, jitter_sd=0.2)
        assert (result.points >= 0.0).all() and (result.points <= 1.0).all()

    def test_jitter_perturbs_measurement_but_not_oracle(self):
        spec = HingeModelSpec(hinge_angle_deg=40.0, seed=5)
        clean = sweep(spec, steps=3)
        noisy = sweep(spec, steps=3, jitter_sd=0.01)
        assert noisy.true_apparent_deg == clean.true_apparent_deg
        for c, n in zip(clean.points, noisy.points):
            assert not np.array_equal(n, c)

    @pytest.mark.parametrize(
        "kwargs", [{"steps": 0}, {"jitter_sd": -0.1}, {"image_width": 0}, {"image_height": -1}]
    )
    def test_sweep_parameter_validation(self, kwargs):
        with pytest.raises(BadSpecError):
            sweep(HingeModelSpec(hinge_angle_deg=10.0), **kwargs)

    @given(
        beta=st.floats(0.0, 179.0),
        length=st.floats(0.5, 10.0),
        width=st.floats(0.1, 3.0),
        position=st.floats(0.01, 0.99),
        yaws=st.tuples(st.floats(-85.0, 85.0), st.floats(-85.0, 85.0)),
        pitch=st.floats(-80.0, 80.0),
        steps=st.integers(1, 40),
        size=st.tuples(st.integers(16, 2000), st.integers(16, 2000)),
    )
    @settings(max_examples=100, deadline=None)
    def test_batch_equals_one_pose_projection(
        self, beta, length, width, position, yaws, pitch, steps, size
    ):
        # the batch a frame is projected in never changes a byte of it
        spec = HingeModelSpec(
            hinge_angle_deg=beta, length_cm=length, width_cm=width, hinge_position=position
        )
        result = sweep(
            spec, *yaws, steps=steps, pitch_deg=pitch, image_width=size[0], image_height=size[1]
        )
        assert result.yaw_deg == np.linspace(*yaws, steps).tolist()
        assert result.pitch_deg == pitch
        image = {"image_width": size[0], "image_height": size[1]}
        for index, yaw in enumerate(result.yaw_deg):
            alone = project(spec, yaw, pitch, **image)
            assert result.boxes[index].tobytes() == alone.boxes[0].tobytes()
            assert result.points[index].tobytes() == alone.points[0].tobytes()
            assert result.true_apparent_deg[index].hex() == alone.true_apparent_deg[0].hex()

    @pytest.mark.parametrize("beta", [15.0, 30.0, 45.0, 60.0, 90.0])
    def test_phantom_grid_recovery(self, beta):
        result = sweep(HingeModelSpec(hinge_angle_deg=beta), -60.0, 60.0, 25)
        case = measure_sequence("p", detections(result))
        assert case.curvature_deg == pytest.approx(beta, abs=1.0)
