"""Self-tests of the benchmark: checker, tracing and the result contract.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json

import pytest

import oracle
import reference
import run
from spans import CALL_SITES, Tracer, wrapped_call_sites
from workloads import WORKLOADS, write_inputs

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def modules():
    return run._import_program()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_traced_run_passes_the_checker(workload):
    result = run.run(workload, seed=5, seconds=0.01, trace=True, tiny=True)
    assert result["correct"], result["details"]["notes"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert result["metrics"]["trace.absent_call_sites"]["value"] == 0
    coverage = result["metrics"]["trace.coverage_ratio"]["value"]
    assert 0.9 < coverage <= 1.0


def test_tiny_untraced_run_reports_end_to_end_metrics():
    result = run.run("cohort", seed=6, seconds=0.01, trace=False, tiny=True)
    assert result["correct"], result["details"]["notes"]
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    for metric in BENCHMARK["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0


@pytest.mark.parametrize("host_speed", [1.0, 0.5])
def test_pass_time_scales_by_the_reference_chunk(host_speed, modules, tmp_path, monkeypatch):
    inputs = write_inputs("phantom", 9, tmp_path, tiny=True)
    main = modules["cli"].main
    run.run_pass(main, inputs.commands)
    expect = run.digest(inputs.outputs)
    monkeypatch.setattr(run.reference, "chunk_seconds", lambda: reference.NOMINAL_S / host_speed)
    wall, scaled = run.timed_pass(main, inputs, expect)
    assert scaled == pytest.approx(wall * host_speed)


def test_same_seed_same_inputs_other_seed_other_inputs(tmp_path):
    texts = []
    for seed, name in ((1, "a"), (1, "b"), (2, "c")):
        (tmp_path / name).mkdir()
        write_inputs("cohort", seed, tmp_path / name, tiny=True)
        texts.append((tmp_path / name / "frames.jsonl").read_text())
    assert texts[0] == texts[1] != texts[2]


@pytest.mark.parametrize("workload", ["cohort", "audit"])
def test_curvature_off_by_a_millidegree_fails_its_case(workload, modules, tmp_path):
    inputs = write_inputs(workload, 7, tmp_path, tiny=True)
    run.run_pass(modules["cli"].main, inputs.commands)
    assert oracle.check(inputs)[1] == 0

    document = json.loads(inputs.report.read_text())
    document["cases"][0]["curvature_deg"] += 1e-3
    inputs.report.write_text(json.dumps(document))
    attempted, failed, notes = oracle.check(inputs)
    assert failed == 1, notes
    assert notes[0].startswith(document["cases"][0]["case_id"])


def test_phantom_sidecar_with_a_wrong_oracle_fails_its_spec(modules, tmp_path):
    inputs = write_inputs("phantom", 8, tmp_path, tiny=True)
    run.run_pass(modules["cli"].main, inputs.commands)
    sidecar = inputs.outputs[1]
    document = json.loads(sidecar.read_text())
    document["frames"][-1]["true_apparent_deg"] += 1e-6
    sidecar.write_text(json.dumps(document))
    attempted, failed, notes = oracle.check(inputs)
    assert (attempted, failed) == (len(inputs.specs), 1), notes


def test_untraced_run_sees_the_unwrapped_functions(modules):
    originals = {site: getattr(modules[site[0]], site[1]) for site in CALL_SITES}
    tracer = Tracer()
    with tracer.installed(modules):
        assert len(wrapped_call_sites(modules)) == len(CALL_SITES)
    assert wrapped_call_sites(modules) == []
    for (mod, name), func in originals.items():
        assert getattr(modules[mod], name) is func

    # a wrapper left behind makes the untraced run refuse to measure
    sequence = modules["sequence"]
    sequence.middle_line = tracer.wrap("geometry.middle_line", originals[("sequence", "middle_line")])
    try:
        with pytest.raises(run.BenchError, match="wrapped"):
            run.run("cohort", seed=5, seconds=0.01, trace=False, tiny=True)
    finally:
        sequence.middle_line = originals[("sequence", "middle_line")]


def test_missing_call_site_reports_absent(modules, monkeypatch):
    monkeypatch.delattr(modules["cli"], "sweep")
    result = run.run("cohort", seed=5, seconds=0.01, trace=True, tiny=True)
    assert result["correct"]
    assert result["details"]["absent"] == ["cli.sweep"]
    assert result["metrics"]["trace.absent_call_sites"]["value"] == 1


def test_self_times_subtract_child_spans():
    tracer = Tracer()
    tracer.names = ["outer", "inner", "leaf", "inner"]
    tracer.starts.extend([0.0, 1.0, 2.0, 5.0])
    tracer.ends.extend([10.0, 4.0, 3.0, 6.0])
    tracer.parents.extend([-1, 0, 1, 0])
    assert tracer.self_times() == {"outer": 6.0, "inner": 3.0, "leaf": 1.0}


def test_benchmark_file_names_every_metric_with_its_unit():
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert run.UNITS[metric["name"]] == metric["unit"]
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(WORKLOADS)
