"""Acceptance gate: eight headline guarantees, one test per criterion.

Each test prints exactly one [PASS]/[FAIL] line (run with ``pytest -s``
to see them stream). Tolerances are pinned in the assertions and every
randomized check uses a fixed seed, so a green run here is a stable,
reproducible statement about the package.
"""

import io
import json
import math
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from conftest import (
    CVAT_DOCUMENT,
    detection_with_angle,
    frame_line,
    hinge_polyline,
    line_angles,
    measure_sequence,
    normalize_unit,
    vector_angle,
)
from kpcurve import _kernels, report, sequence
from kpcurve.annotation import (
    emit_yolo_line,
    parse_cvat_xml,
    parse_yolo_line,
)
from kpcurve.cli import main
from kpcurve.evaluation import Diagnosis, classify, metrics, round_half_up

ORACLE_TOL_DEG = 1e-9
ROUND_TRIP_TOL = 5e-7
QUANTIZED_TOL_DEG = 0.5
SWEEP_TOL_DEG = 1.0
SWEEP_BETAS = (15.0, 30.0, 45.0, 60.0, 90.0)
FRONTAL_FRAME = 12  # yaw 0 sits at the center of the 25-step sweep


@contextmanager
def criterion(number, title):
    info = {}
    try:
        yield info
    except BaseException:
        print(f"[FAIL] criterion {number}: {title}")
        raise
    detail = f" ({info['detail']})" if "detail" in info else ""
    print(f"[PASS] criterion {number}: {title}{detail}")


def run_cli(argv, stdin_text=""):
    out, err = io.StringIO(), io.StringIO()
    rc = main(argv, stdin=io.StringIO(stdin_text), stdout=out, stderr=err)
    return rc, out.getvalue(), err.getvalue()


def oracle_deg(ax, ay, bx, by, cx, cy, dx, dy):
    ux, uy = bx - ax, by - ay
    vx, vy = dx - cx, dy - cy
    return abs(math.degrees(math.atan2(ux * vy - uy * vx, ux * vx + uy * vy)))


def dataset_csv(tp, fp, fn, tn):
    """A dataset CSV whose cases score as the given confusion counts."""
    rows = ["case_id,actual,measured_deg"]
    for prefix, actual, angle, count in (
        ("tp", "pd", 45.0, tp),
        ("fp", "normal", 61.0, fp),
        ("fn", "pd", 12.0, fn),
        ("tn", "normal", 8.0, tn),
    ):
        rows += [f"{prefix}{i},{actual},{angle}" for i in range(count)]
    return "\n".join(rows) + "\n"


def test_criterion_1_metric_table_reproduction():
    tables = [
        ((29, 0, 1, 30), {"accuracy": 0.98, "sensitivity": 0.97, "specificity": 1.0}),
        ((21, 5, 9, 25), {"accuracy": 0.77, "sensitivity": 0.7, "specificity": 0.83}),
    ]

    def rounded(cells):
        return {name: round_half_up(value) for name, value in metrics(*cells).items()}

    rounded((1, 1, 1, 1))  # warm the code path
    with criterion(1, "confusion-matrix metrics reproduce the reference tables") as info:
        start = perf_counter()
        for cells, expected in tables:
            assert rounded(cells) == expected
        elapsed = perf_counter() - start
        assert elapsed < 1e-3
        for cells, expected in tables:
            rc, out, err = run_cli(["evaluate", "-"], dataset_csv(*cells))
            assert (rc, err) == (0, "")
            document = json.loads(out)
            assert document["confusion"] == dict(zip(("tp", "fp", "fn", "tn"), cells))
            assert document["metrics_rounded"] == expected
        info["detail"] = f"both tables exact in {elapsed * 1e6:.0f} us, and through evaluate"


def test_criterion_2_threshold_semantics():
    with criterion(2, "30-degree threshold is strict and classifies the reference angles") as info:
        assert classify(67.51) is Diagnosis.PD
        assert classify(3.75) is Diagnosis.NORMAL
        assert classify(30.0) is Diagnosis.NORMAL
        assert classify(30.0 + 1e-9) is Diagnosis.PD
        info["detail"] = "67.51 pd, 3.75 normal, 30.0 exactly normal"


def test_criterion_3_kernel_oracle_equivalence():
    rng = np.random.default_rng(1)
    quads = rng.uniform(-10.0, 10.0, size=(100_000, 8))
    subset = 20_000
    with criterion(3, "angle kernel matches an independent reference formulation") as info:
        worst = 0.0
        base = np.empty(subset)
        for i, q in enumerate(quads):
            ax, ay, bx, by, cx, cy, dx, dy = q
            angle = vector_angle((ax, ay), (bx, by), (cx, cy), (dx, dy))
            assert 0.0 <= angle <= 180.0
            worst = max(worst, abs(angle - oracle_deg(ax, ay, bx, by, cx, cy, dx, dy)))
            if i < subset:
                base[i] = angle
        assert worst <= ORACLE_TOL_DEG

        pts = quads[:subset].reshape(subset, 4, 2)
        theta = 0.7713
        rot = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        variants = {
            "swap": pts[:, [2, 3, 0, 1]],
            "rigid": pts @ rot.T + np.array([3.25, -7.5]),
            "scale": pts * 713.25,
            "mirror": pts * np.array([-1.0, 1.0]),
        }
        for name, moved in variants.items():
            for i in range(subset):
                angle = vector_angle(moved[i, 0], moved[i, 1], moved[i, 2], moved[i, 3])
                assert abs(angle - base[i]) <= ORACLE_TOL_DEG, name

        # the batch kernel that analyze runs: pack each quadruple as a
        # polyline a, b, (b+c)/2, c, d whose deviation angle is the
        # angle between b-a and d-c
        a, b, c, d = (quads[:, k : k + 2] for k in (0, 2, 4, 6))
        polylines = np.stack([a, b, (b + c) / 2.0, c, d], axis=1)
        angles, bad = _kernels.polyline_angles(polylines)
        assert (bad < 0).all()
        expected = np.array([oracle_deg(*q) for q in quads])
        kernel_worst = float(np.max(np.abs(angles[:, 0] - expected)))
        assert kernel_worst <= ORACLE_TOL_DEG
        info["detail"] = (
            f"worst oracle gap {worst:.2e} deg scalar, {kernel_worst:.2e} deg "
            f"batch kernel, over {len(quads)} quadruples"
        )


def test_criterion_4_hinge_identity():
    with criterion(4, "a planted hinge angle is read back exactly and survives quantization") as info:
        worst_exact = worst_quantized = 0.0
        for beta in range(5, 180, 5):
            for vertex in (1, 2, 3):
                polyline = hinge_polyline(float(beta), vertex)
                exact = line_angles(polyline).frame_angle_deg
                worst_exact = max(worst_exact, abs(exact - beta))
                quantized = line_angles(normalize_unit(polyline, decimals=6))
                worst_quantized = max(
                    worst_quantized, abs(quantized.frame_angle_deg - beta)
                )
                assert quantized.curvature_col == vertex
        assert worst_exact <= ORACLE_TOL_DEG
        assert worst_quantized <= QUANTIZED_TOL_DEG
        info["detail"] = (
            f"worst exact gap {worst_exact:.2e} deg, "
            f"worst quantized gap {worst_quantized:.2e} deg"
        )


def test_criterion_5_phantom_sweep_recovery(tmp_path):
    # one throwaway run warms the analyze path so the timed section
    # reflects steady-state throughput
    run_cli(["analyze", "-"], frame_line("warm", detection_with_angle(10.0), 0) + "\n")
    with criterion(5, "synthetic sweeps recover the planted bend end to end") as info:
        start = perf_counter()
        streams = {}
        for beta in SWEEP_BETAS:
            case_id = f"b{int(beta)}"
            sidecar = tmp_path / f"{case_id}.oracle.json"
            spec = json.dumps(
                {"case_id": case_id, "hinge_angle_deg": beta, "steps": 25}
            )
            rc, stream, _ = run_cli(["synth", "-", "--sidecar", str(sidecar)], spec)
            assert rc == 0
            streams[beta] = stream

            rc, report_text, _ = run_cli(["analyze", "-"], stream)
            assert rc == 0
            report = json.loads(report_text)
            assert report["errors"] == []
            case = report["cases"][0]
            assert abs(case["curvature_deg"] - beta) <= SWEEP_TOL_DEG

            oracle = [
                f["true_apparent_deg"]
                for f in json.loads(sidecar.read_text())["frames"]
            ]
            frontal = oracle[FRONTAL_FRAME]
            assert max(oracle) <= frontal + ORACLE_TOL_DEG
            if beta < 90.0:
                # off-axis views strictly foreshorten the bend
                off_axis = [v for i, v in enumerate(oracle) if i != FRONTAL_FRAME]
                assert all(v < frontal for v in off_axis)
                assert case["argmax_frame"] == FRONTAL_FRAME
            else:
                # a right-angle bend projects to 90 at every yaw
                assert all(abs(v - 90.0) <= ORACLE_TOL_DEG for v in oracle)

        combined = "".join(streams[b] for b in (15.0, 45.0, 60.0, 90.0))
        rc, report_text, _ = run_cli(["analyze", "-"], combined)
        assert rc == 0
        labels = tmp_path / "labels.csv"
        labels.write_text("case_id,actual\nb15,normal\nb45,pd\nb60,pd\nb90,pd\n")
        rc, metrics_text, _ = run_cli(["evaluate", "--labels", str(labels), "-"], report_text)
        assert rc == 0
        doc = json.loads(metrics_text)
        assert doc["confusion"] == {"tp": 3, "fp": 0, "fn": 0, "tn": 1}
        assert doc["metrics"] == {
            "accuracy": 1.0,
            "sensitivity": 1.0,
            "specificity": 1.0,
        }
        elapsed = perf_counter() - start
        assert elapsed < 5.0
        info["detail"] = f"five sweeps recovered and classified in {elapsed:.2f} s"


def test_criterion_6_round_trip_parsing():
    rng = np.random.default_rng(6)
    count = 10_000
    boxes = np.column_stack(
        [
            rng.uniform(0.0, 1.0, count),
            rng.uniform(0.0, 1.0, count),
            rng.uniform(1e-3, 1.0, count),
            rng.uniform(1e-3, 1.0, count),
        ]
    )
    points = rng.uniform(0.0, 1.0, size=(count, 15, 2))
    class_ids = rng.integers(0, 5, count)
    with criterion(6, "label lines survive an emit/parse round trip") as info:
        worst = 0.0
        for i in range(count):
            line = emit_yolo_line(int(class_ids[i]), boxes[i], points[i])
            parsed_box, parsed_points = parse_yolo_line(line)
            assert int(line.split(maxsplit=1)[0]) == class_ids[i]
            recovered = np.concatenate([parsed_box, parsed_points.ravel()])
            original = np.concatenate([boxes[i], points[i].ravel()])
            worst = max(worst, float(np.abs(recovered - original).max()))
        assert worst <= ROUND_TRIP_TOL

        # the first image of the fixture, as its literal pixels
        width, height = 1280, 720
        xtl, ytl, xbr, ybr = 100.5, 50.25, 900.75, 600.5
        pixels = [
            (120, 80), (300, 90), (500, 100), (700, 110), (880, 120),
            (130, 300), (310, 310), (510, 320), (710, 330), (890, 340),
            (140, 520), (320, 530), (520, 540), (720, 550), (895, 560),
        ]
        assert f'width="{width}" height="{height}"' in CVAT_DOCUMENT
        assert f'xtl="{xtl}" ytl="{ytl}" xbr="{xbr}" ybr="{ybr}"' in CVAT_DOCUMENT
        assert 'points="' + ";".join(f"{x},{y}" for x, y in pixels) + '"' in CVAT_DOCUMENT
        name, box, keypoints = parse_cvat_xml(CVAT_DOCUMENT)[0]
        assert name == "case_a_0001.png"
        expected_box = (
            (xtl + xbr) / 2 / width,
            (ytl + ybr) / 2 / height,
            (xbr - xtl) / width,
            (ybr - ytl) / height,
        )
        assert max(abs(g - e) for g, e in zip(box, expected_box)) <= ORACLE_TOL_DEG
        assert len(keypoints) == len(pixels)
        for point, (px, py) in zip(keypoints, pixels):
            assert abs(point[0] - px / width) <= 1e-9
            assert abs(point[1] - py / height) <= 1e-9
        info["detail"] = f"worst coordinate drift {worst:.2e} over {count} lines"


def test_criterion_7_aggregation_properties():
    rng = np.random.default_rng(7)
    trials = 1_000

    def measure(frames):
        """The case of ``(frame_index, detection)`` pairs, streamed in order."""
        indices = [index for index, _ in frames]
        return measure_sequence("t", [det for _, det in frames], frame_indices=indices)

    with criterion(7, "case aggregation is order-free, monotone, and duplicate-proof") as info:
        for _ in range(trials):
            bends = rng.uniform(1.0, 120.0, rng.integers(3, 9))
            indices = rng.choice(1000, size=len(bends), replace=False)
            dets = [
                (int(i), detection_with_angle(float(b), vertex=int(rng.integers(1, 4))))
                for b, i in zip(bends, indices)
            ]
            base = measure(dets)
            baseline = base.curvature_deg

            shuffled = list(dets)
            rng.shuffle(shuffled)
            result = measure(shuffled)
            assert result.curvature_deg == baseline
            assert result.argmax_frame == base.argmax_frame

            # an extra frame numbered by its position, as a stream without indices would
            extra = dets + [(len(dets), detection_with_angle(float(rng.uniform(1.0, 120.0))))]
            assert measure(extra).curvature_deg >= baseline

            # the same frames again under later indices, streamed first: the
            # tie on the maximum must still go to the lowest frame index
            later = [(index + 1000, det) for index, det in dets]
            for doubled in (dets + dets, shuffled + dets, later + shuffled):
                result = measure(doubled)
                assert result.curvature_deg == baseline
                assert result.argmax_frame == base.argmax_frame
        info["detail"] = f"{trials} randomized streams, exact equality"


def test_criterion_8_determinism():
    spec = json.dumps(
        {"case_id": "det", "hinge_angle_deg": 40.0, "steps": 50, "jitter_sd": 0.004}
    )
    with criterion(8, "generation and analysis are byte-deterministic") as info:
        _, first, _ = run_cli(["synth", "-"], spec)
        _, second, _ = run_cli(["synth", "-"], spec)
        assert first == second

        case_streams = []
        for seed in (1, 2, 3):
            doc = json.dumps(
                {
                    "case_id": f"case{seed}",
                    "hinge_angle_deg": 25.0 + seed,
                    "steps": 50,
                    "jitter_sd": 0.003,
                    "seed": seed,
                }
            )
            _, stream, _ = run_cli(["synth", "-"], doc)
            case_streams.append(stream.strip().split("\n"))
        interleaved = "".join(
            line + "\n" for group in zip(*case_streams) for line in group
        )
        rc, out_default, _ = run_cli(["analyze", "-"], interleaved)
        assert rc == 0
        default_chunk = report.CHUNK_FRAMES
        kernel = sequence.polyline_angles
        calls = []

        def counted(points):
            calls.append(len(points))
            return kernel(points)

        try:
            sequence.polyline_angles = counted
            for chunk in (1, 7):
                # the constant that analyze's batches read
                report.CHUNK_FRAMES = chunk
                calls.clear()
                rc, out_chunked, _ = run_cli(["analyze", "-"], interleaved)
                assert rc == 0
                assert out_chunked == out_default, chunk
                assert max(calls) == chunk and sum(calls) == len(case_streams) * 50
        finally:
            report.CHUNK_FRAMES = default_chunk
            sequence.polyline_angles = kernel
        info["detail"] = (
            f"repeated generation and analysis at chunk sizes {default_chunk}, "
            "7 and 1 byte-identical"
        )
