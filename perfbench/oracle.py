"""Checks of the program's outputs against the benchmark's own references.

Every function returns ``(attempted, failed, notes)``: the number of
items checked, how many of them are missing or disagree, and a short
note per failure. ``failed / attempted`` is the run's ``failed_ratio``.
"""

import json
import math

import numpy as np

from workloads import KEY_ORDER, Inputs, reference_angles

ANGLE_TOL_DEG = 1e-6
# a sidecar angle comes from the same closed form as the reference,
# evaluated through a rotation matrix
ORACLE_TOL_DEG = 1e-9
# measured frontal bend of an unjittered sweep vs. its oracle, after
# 6-decimal quantization
QUANTIZED_TOL_DEG = 0.5


def _load(path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def _problem(check, *args) -> str | None:
    """Run one check; output of the wrong shape is a problem, not a crash."""
    try:
        return check(*args)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return f"malformed output ({type(exc).__name__}: {exc})"


def _case_problem(truth, entry, per_frame: bool) -> str | None:
    if entry is None:
        return "missing from the analyze report"
    if abs(entry.get("curvature_deg", math.inf) - truth.curvature) > ANGLE_TOL_DEG:
        return f"curvature {entry.get('curvature_deg')} vs reference {truth.curvature}"
    expected = {
        "argmax_frame": truth.argmax_frame,
        "frames_total": len(truth.valid),
        "frames_valid": int(truth.valid.sum()),
        "diagnosis": truth.diagnosis,
    }
    for key, value in expected.items():
        if entry.get(key) != value:
            return f"{key} {entry.get(key)!r} vs reference {value!r}"
    if not per_frame:
        return None if "per_frame" not in entry else "per-frame rows with --no-per-frame"
    rows = entry.get("per_frame") or []
    if [r.get("frame_index") for r in rows] != list(range(len(truth.valid))):
        return "per-frame rows do not list every frame in order"
    if [r.get("valid") for r in rows] != truth.valid.tolist():
        return "per-frame validity differs from the reference"
    got = np.array([r["frame_angle_deg"] if r["valid"] else -1.0 for r in rows])
    if np.abs(got - truth.frame_max).max() > ANGLE_TOL_DEG:
        return "per-frame angle differs from the reference"
    return None


def check_analysis(inputs: Inputs):
    """Check the analyze report case by case and the evaluate report.

    A case fails when its analyze entry or its evaluate row is missing or
    disagrees with the reference. The run as a whole is one more checked
    item: cases in order of first appearance, no errors listed, and the
    evaluate confusion counts equal to the benchmark's own tally.
    """
    report = _load(inputs.report) or {}
    scored = _load(inputs.metrics) or {}
    entries = {e.get("case_id"): e for e in report.get("cases", []) if isinstance(e, dict)}
    rows = {r.get("case_id"): r for r in scored.get("cases", []) if isinstance(r, dict)}
    notes = []
    failed = 0
    tally = {"tp": 0, "fp": 0, "fn": 0, "tn": 0}
    for truth in inputs.cases:
        problem = _problem(_case_problem, truth, entries.get(truth.case_id), inputs.per_frame)
        row = rows.get(truth.case_id)
        if problem is None and (
            row is None
            or row.get("actual") != truth.actual
            or row.get("predicted") != truth.diagnosis
            or row.get("measured_deg") != entries[truth.case_id]["curvature_deg"]
        ):
            problem = f"evaluate row {row} disagrees"
        if problem is not None:
            failed += 1
            notes.append(f"{truth.case_id}: {problem}")
        cell = ("t" if truth.actual == truth.diagnosis else "f") + (
            "p" if truth.diagnosis == "pd" else "n"
        )
        tally[cell] += 1
    run_notes = []
    if [e.get("case_id") for e in report.get("cases", [])] != [t.case_id for t in inputs.cases]:
        run_notes.append("analyze cases are not in order of first appearance")
    if report.get("errors") != []:
        run_notes.append(f"analyze errors: {report.get('errors')}")
    if scored.get("confusion") != tally:
        run_notes.append(f"confusion {scored.get('confusion')} vs tally {tally}")
    failed += bool(run_notes)
    return len(inputs.cases) + 1, failed, notes + run_notes


def apparent_deg(spec: dict, yaw_deg: float) -> float:
    """Closed-form projected bend of a yawed and pitched planar hinge."""
    beta = math.radians(spec["hinge_angle_deg"])
    yaw, pitch = math.radians(yaw_deg), math.radians(spec["pitch_deg"])
    cross = math.cos(yaw) * math.sin(beta)
    dot = math.cos(pitch) * math.cos(beta) + math.sin(pitch) * math.sin(yaw) * math.sin(beta)
    return abs(math.degrees(math.atan2(cross, dot)))


def _stream_problem(spec: dict, text: str) -> str | None:
    lines = text.splitlines()
    if len(lines) != spec["steps"]:
        return f"{len(lines)} lines for {spec['steps']} steps"
    for index, line in enumerate(lines):
        record = json.loads(line)
        if tuple(record) != KEY_ORDER:
            return f"line {index + 1}: key order {tuple(record)}"
        if record["case_id"] != spec["case_id"] or record["frame_index"] != index:
            return f"line {index + 1}: case or frame index"
        coords = np.array(record["bbox"] + sum(record["keypoints"], []), dtype=float)
        if coords.shape != (34,) or not ((coords >= 0.0) & (coords <= 1.0)).all():
            return f"line {index + 1}: coordinates missing or outside [0, 1]"
    return None


def _sidecar_problem(spec: dict, sidecar, stream_text: str) -> str | None:
    if sidecar is None:
        return "sidecar missing"
    frames = sidecar.get("frames", [])
    if len(frames) != spec["steps"]:
        return f"sidecar has {len(frames)} frames for {spec['steps']} steps"
    yaws = np.linspace(spec["yaw_start_deg"], spec["yaw_end_deg"], spec["steps"])
    for frame, yaw in zip(frames, yaws):
        if abs(frame["yaw_deg"] - yaw) > 1e-9:
            return f"frame {frame['frame_index']}: yaw {frame['yaw_deg']} vs {yaw}"
        expected = apparent_deg(spec, yaw)
        if abs(frame["true_apparent_deg"] - expected) > ORACLE_TOL_DEG:
            return f"frame {frame['frame_index']}: oracle {frame['true_apparent_deg']} vs {expected}"
    if spec["jitter_sd"] == 0.0:
        # the frame nearest the frontal pose must show the planted bend
        nearest = int(np.argmin(np.abs(yaws)))
        record = json.loads(stream_text.splitlines()[nearest])
        middle = np.array(record["keypoints"][5:10], dtype=float)[None]
        angles, _ = reference_angles(middle, 1.0)
        measured = float(np.nanmax(angles))
        if abs(measured - apparent_deg(spec, yaws[nearest])) > QUANTIZED_TOL_DEG:
            return f"frontal frame measures {measured}, oracle {apparent_deg(spec, yaws[nearest])}"
    return None


def check_phantom(inputs: Inputs):
    """Check each synth stream and its oracle sidecar; one item per spec."""
    failed, notes = 0, []
    for spec, stream, sidecar in zip(inputs.specs, inputs.outputs[0::2], inputs.outputs[1::2]):
        try:
            text = stream.read_text()
        except OSError:
            text = None
        problem = "stream missing" if text is None else _problem(_stream_problem, spec, text)
        if problem is None:
            problem = _problem(_sidecar_problem, spec, _load(sidecar), text)
        if problem is not None:
            failed += 1
            notes.append(f"{spec['case_id']}: {problem}")
    return len(inputs.specs), failed, notes


def check(inputs: Inputs):
    """Check the outputs of the workload's last pass of its commands."""
    if inputs.workload == "phantom":
        return check_phantom(inputs)
    return check_analysis(inputs)
