"""Phantom generator: construction, projection oracle, sweeps, jitter."""

import hashlib
import io
import json
import math
import random
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import frame_line, line_angles, measure_sequence, report_text, vector_angle
from kpcurve import sequence
from kpcurve.cli import EXIT_GEOMETRY, EXIT_OK, main
from kpcurve.report import RunConfig, dumps_frame, sweep_sidecar
from kpcurve.sequence import DegenerateProjectionError
from kpcurve.synth import (
    BadSpecError,
    HingeModelSpec,
    PhantomSpec,
    _boxes,
    _project_all,
    build_model,
    read_spec,
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


def measured_deg(result, config=RunConfig()) -> float:
    """The frame angle ``measure_stream`` gives row 0 of a sweep under ``config``."""
    return line_angles(result.points[0].reshape(3, 5, 2)[1], config).frame_angle_deg


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

    @pytest.mark.parametrize(
        "start, end, pitch, bad",
        [
            (0.0, 100.0, 95.0, "pitch 95.0"),  # the pitch before a later frame's yaw
            (95.0, 0.0, 95.0, "yaw 95.0"),  # frame 0's yaw before the pitch
            (0.0, 100.0, 10.0, "yaw 100.0"),
            (-100.0, 100.0, 95.0, "yaw -100.0"),
            (0.0, math.inf, 10.0, "yaw inf"),  # frame 0 is the start yaw
            (0.0, 100.0, math.nan, "pitch nan"),
        ],
    )
    def test_pose_order_on_multi_frame_sweeps(self, start, end, pitch, bad):
        # the first bad pose of a frame-by-frame check: frame 0's yaw and the
        # pitch, then frame 1's yaw, the pitch again and so on
        message = re.escape(f"{bad} outside (-90, 90); model self-occludes")
        with pytest.raises(BadSpecError, match=f"^{message}$"):
            sweep(HingeModelSpec(hinge_angle_deg=40.0), start, end, steps=3, pitch_deg=pitch)


def reference_model(spec: HingeModelSpec) -> np.ndarray:
    """The phantom's three polylines as numpy vector sums, point by point:
    the form that ``build_model``'s Python floats restate."""
    beta = math.radians(spec.hinge_angle_deg)
    snap = spec.snapped_position
    length = spec.length_cm
    hinge = np.array([0.0, length * snap, 0.0])
    pre_dir = np.array([0.0, 1.0, 0.0])
    post_dir = np.array([math.sin(beta), math.cos(beta), 0.0])
    center = np.empty((5, 3), dtype=np.float64)
    for i, frac in enumerate((0.0, 0.25, 0.5, 0.75, 1.0)):
        if frac <= snap:
            center[i] = pre_dir * (length * frac)
        else:
            center[i] = hinge + post_dir * (length * (frac - snap))
    offset = np.array([0.0, 0.0, spec.width_cm / 2.0])
    return np.stack([center + offset, center, center - offset])


positive = st.floats(0.0, math.inf, exclude_min=True, exclude_max=True)


class TestBuildModel:
    @given(
        beta=st.one_of(
            st.floats(0.0, 180.0, exclude_max=True),
            st.sampled_from([0.0, 5e-324, 90.0, math.nextafter(180.0, 0.0)]),
        ),
        length=st.one_of(positive, st.sampled_from([5e-324, 5.5, sys.float_info.max])),
        width=st.one_of(positive, st.sampled_from([5e-324, 1.5, sys.float_info.max])),
        position=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_the_vector_form_bitwise(self, beta, length, width, position):
        # tobytes, so that a zero's sign counts
        spec = HingeModelSpec(beta, length_cm=length, width_cm=width, hinge_position=position)
        model = build_model(spec)
        assert model.shape == (3, 5, 3) and model.dtype == np.float64
        assert model.tobytes() == reference_model(spec).tobytes()

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
        wide = RunConfig(aspect_ratio=1280 / 720)
        assert measured_deg(result, wide) == pytest.approx(50.0, abs=0.5)

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

    def test_first_failing_frame_raises_its_first_fault(self):
        # segment 0 lies along the view at yaw 0, so the pre-bend direction
        # collapses there; segment 1 lies along it at yaw 30, so that frame
        # has a short segment alone
        half = math.sin(math.radians(30.0)), math.cos(math.radians(30.0))
        center = np.cumsum([(0, 0, 0), (0, 0, 1), (-half[0], 0, half[1]), (1, 0, 0), (0, 1, 0)], 0)
        model = np.stack([center] * 3).astype(np.float64)
        short = "a projected middle-line segment collapsed below the degeneracy threshold"
        collapsed = "projected bend direction collapsed below the degeneracy threshold"
        for yaws, message in (([30.0, 0.0], short), ([0.0, 30.0], collapsed)):
            with pytest.raises(DegenerateProjectionError) as info:
                _project_all(model, yaws, 0.0, 640, 640)
            assert str(info.value) == message
        # a point model is also a single point; a model within 1e-9 on both
        # image axes, whose bend directions are not, is that alone
        with pytest.raises(DegenerateProjectionError, match=f"^{collapsed}$"):
            _project_all(np.zeros((3, 5, 3)), [0.0, 30.0], 0.0, 640, 640)
        tiny = np.zeros((3, 5, 3))
        tiny[:, [1, 4], :2] = 0.8e-9
        for yaws in ([0.0], [0.0, 30.0], [30.0, 0.0]):
            with pytest.raises(DegenerateProjectionError, match="^model projects to a single point$"):
                _project_all(tiny, yaws, 0.0, 640, 640)

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
    return json.loads(report_text(sweep_sidecar(phantom, result)))["frames"]


def detections(result) -> list[tuple[np.ndarray, np.ndarray]]:
    return list(zip(result.boxes, result.points))


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


class TestJitter:
    """Jitter is one draw from one generator per sweep: row i of
    ``default_rng(seed).normal(0.0, jitter_sd, (steps, 15, 2))`` is frame i's."""

    @pytest.mark.parametrize("seed", [0, 1, 2**31 - 1, 2**32 - 1, 2**32, 2**64])
    @pytest.mark.parametrize("steps", [1, 40])
    def test_one_draw_per_sweep(self, seed, steps):
        spec = {"hinge_angle_deg": 30.0, "seed": seed, "steps": steps, "jitter_sd": 0.01}
        phantom = read_spec(spec)
        result = sweep(phantom.model, **phantom.sweep_args)
        clean = sweep(HingeModelSpec(30.0), steps=steps).points
        noise = np.random.default_rng(seed).normal(0.0, 0.01, (steps, 15, 2))
        expected = np.round(np.clip(clean + noise, 0.0, 1.0), 6)
        assert result.points.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("seed", [2**32, 2**64])
    def test_a_seed_past_one_word_keeps_its_high_bits(self, seed):
        # the whole seed reaches the generator: no fold into one uint32 word
        def jittered(value):
            phantom = read_spec({"hinge_angle_deg": 30.0, "seed": value, "steps": 4, "jitter_sd": 0.01})
            return sweep(phantom.model, **phantom.sweep_args).points

        assert jittered(seed).tobytes() != jittered(seed % 2**32).tobytes()

    def test_a_frame_keeps_its_jitter_whatever_the_step_count(self):
        # yaw -60..0 in 3 steps meets the first three poses of -60..60 in 5
        spec = HingeModelSpec(40.0, seed=7)
        short = sweep(spec, -60.0, 0.0, steps=3, jitter_sd=0.003)
        long = sweep(spec, -60.0, 60.0, steps=5, jitter_sd=0.003)
        assert short.yaw_deg == long.yaw_deg[:3]
        assert short.points.tobytes() == long.points[:3].tobytes()
        assert short.boxes.tobytes() == long.boxes[:3].tobytes()


def random_phantom_spec(rng: random.Random, index: int) -> dict:
    """A synth spec with every field drawn, some at the gates of the writers
    (poses near 0) and of the degeneracy checks (poses near 90)."""
    return {
        "case_id": f"p{index}",
        "hinge_angle_deg": rng.choice([rng.uniform(0.0, 179.9), 0.0, 90.0, 179.0]),
        "length_cm": rng.uniform(0.5, 20.0),
        "width_cm": rng.uniform(0.1, 5.0),
        "hinge_position": rng.uniform(0.05, 0.95),
        "seed": rng.randrange(2**32) if rng.random() < 0.9 else rng.randrange(2**32, 2**40),
        "steps": rng.randint(1, 120),
        "jitter_sd": rng.choice([0.0, 0.002, 0.05]),
        "pitch_deg": rng.choice([rng.uniform(-60.0, 60.0), 0.0, 5e-5, 89.999]),
        "yaw_start_deg": rng.choice([rng.uniform(-89.999, 0.0), -60.0, -89.9999, -1e-5]),
        "yaw_end_deg": rng.choice([rng.uniform(0.0, 89.999), 60.0, 89.9999, 1e-5]),
        "image_width": rng.randint(1, 2000),
        "image_height": rng.randint(1, 2000),
    }


def test_random_specs_keep_their_bytes():
    # the frame streams, sidecars and errors of 400 random specs; the
    # unjittered ones keep the bytes recorded before sweeps were projected and
    # written in one array pass, up to the sidecars' schema digit
    rng, digest, errors = random.Random(20241019), hashlib.sha256(), 0
    for index in range(400):
        try:
            phantom = read_spec(random_phantom_spec(rng, index))
            result = sweep(phantom.model, **phantom.sweep_args)
        except DegenerateProjectionError as exc:
            digest.update(f"{type(exc).__name__}: {exc}\n".encode())
            errors += 1
            continue
        frames = range(len(result.points))
        digest.update(dumps_frame(phantom.case_id, result.boxes, result.points, frames).encode())
        digest.update(report_text(sweep_sidecar(phantom, result)).encode())
    assert errors == 19
    assert digest.hexdigest() == "11204654bec9e03263d21ac3e1b5a96d2d6757f838070cae63fb461555b42932"


def reference_boxes(points) -> np.ndarray:
    """Boxes as one Python ``round`` per centre and size of each frame."""
    lo, hi = points.min(axis=1).tolist(), points.max(axis=1).tolist()
    boxes = [
        (
            round((xtl + xbr) / 2.0, 6),
            round((ytl + ybr) / 2.0, 6),
            round(xbr - xtl, 6),
            round(ybr - ytl, 6),
        )
        for (xtl, ytl), (xbr, ybr) in zip(lo, hi)
    ]
    return np.array(boxes, dtype=np.float64).reshape(len(boxes), 4)


@st.composite
def grid_keypoints(draw):
    """(n, 15, 2) keypoints on the 6-decimal grid in [0, 1]; each frame's x and
    y are drawn freely, or span an odd number of grid steps, which puts the
    box centre at a decimal tie, or are all equal."""
    n = draw(st.integers(1, 6))
    ticks = np.array(draw(st.lists(st.integers(0, 10**6), min_size=30 * n, max_size=30 * n)))
    ticks = ticks.reshape(n, 15, 2)
    for frame in range(n):
        for axis in range(2):
            kind = draw(st.sampled_from(["free", "tie", "flat"]))
            lo = draw(st.integers(0, 10**6 - 1))
            if kind == "tie":
                hi = lo + 2 * draw(st.integers(0, (10**6 - 1 - lo) // 2)) + 1
                ticks[frame, :, axis] = ([lo, hi] * 8)[:15]
            elif kind == "flat":
                ticks[frame, :, axis] = lo
    return ticks / 10**6


class TestBoxes:
    @given(grid_keypoints())
    @settings(max_examples=300, deadline=None)
    def test_equals_python_round_on_the_grid(self, points):
        assert _boxes(points).tobytes() == reference_boxes(points).tobytes()

    @given(st.lists(st.floats(-1e12, 1e12), min_size=30, max_size=30))
    @settings(max_examples=300, deadline=None)
    def test_equals_python_round_off_the_grid(self, values):
        # past 2**52 / 1e6 every value takes round, as does each near-tie
        points = np.array(values).reshape(1, 15, 2)
        assert _boxes(points).tobytes() == reference_boxes(points).tobytes()

    def test_phantom_centres_sit_at_ties(self):
        # the fallback is no corner case: a jittered centre is the midpoint of
        # two grid values, at a tie whenever their sum is odd in the 6th decimal
        points = sweep(HingeModelSpec(30.0, seed=3), steps=80, jitter_sd=0.01).points
        centres = (points.min(axis=1) + points.max(axis=1)) / 2.0 * 1e6
        assert (abs(centres - np.floor(centres) - 0.5) < 1e-6).mean() > 0.1
        assert _boxes(points).tobytes() == reference_boxes(points).tobytes()


class TestOneDegeneracyRule:
    """synth and analyze share the kernel's rule for a degenerate frame."""

    @staticmethod
    def analyze(stream: str):
        """Exit code, report ``errors`` and stderr of ``analyze`` on a stream."""
        out, err = io.StringIO(), io.StringIO()
        rc = main(["analyze", "-"], stdin=io.StringIO(stream), stdout=out, stderr=err)
        return rc, json.loads(out.getvalue())["errors"], err.getvalue()

    def test_a_raised_threshold_reaches_synth_and_analyze(self, monkeypatch):
        spec = HingeModelSpec(hinge_angle_deg=40.0)
        result = project(spec)
        stream = frame_line("p", (result.boxes[0], result.points[0]), 0) + "\n"
        assert self.analyze(stream) == (EXIT_OK, [], "")

        # every projected segment is shorter than half the unit image
        monkeypatch.setattr(sequence, "EPSILON", 0.5)
        with pytest.raises(DegenerateProjectionError) as info:
            project(spec)
        assert str(info.value) == (
            "a projected middle-line segment collapsed below the degeneracy threshold"
        )
        assert self.analyze(stream) == (
            EXIT_GEOMETRY,
            [{"case_id": "p", "error": "all 1 frames had degenerate geometry"}],
            "kpcurve analyze: no case yielded a valid measurement\n",
        )
