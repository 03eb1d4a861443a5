"""Pipeline benchmark for kpcurve: analyze, evaluate and synth end to end.

Each workload writes seeded input files into a scratch directory and
drives the real CLI entry point ``kpcurve.cli.main`` in-process on them,
the way a user runs ``kpcurve analyze frames.jsonl -o report.json`` and
then ``kpcurve evaluate report.json --labels truth.csv`` (or a series of
``kpcurve synth`` specs), with the default single worker.

    python3 perfbench/run.py --workload cohort --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 4
    python3 -m pytest perfbench

Workloads (see ``workloads.py`` for sizes):

- ``cohort``: many short block-interleaved cases at aspect 16/9 through
  ``analyze --no-per-frame`` and ``evaluate``; parse, geometry and
  per-case bookkeeping do the work, report writing almost none.
- ``audit``: a few long case-contiguous sweeps at aspect 1.0 through
  ``analyze`` with per-frame rows and ``evaluate`` on that large report;
  report writing and retained per-frame objects take a large share.
- ``phantom``: many ``synth`` specs, half of them jittered, each with
  its oracle sidecar; writes the JSONL format and never parses it.

With ``--trace 0`` a run reports the end-to-end metrics: ``frames_per_s``
(frames per pass of the workload's commands over the median pass time),
``peak_rss_mb`` (median peak RSS of fresh child interpreters running the
same commands) and ``setup_s`` (median over fresh interpreters of
importing ``kpcurve.cli``, building the parser and measuring one frame).
Both times are scaled to a nominal host speed: a fixed reference chunk
(``reference.py``) runs next to every command and set-up launch, and
each time is multiplied by the chunk's nominal seconds over its measured
ones, which takes out the slow and fast spells of a shared host. The
wall-clock figures go to the run record and the summary. With ``--trace 1`` it
times untraced passes, then traced passes with every layer call site
wrapped (``spans.py``), and reports per-layer self times and counts plus
the tracing overhead. The outputs of the first pass are checked against
the benchmark's own reference (``oracle.py``) and every later pass must
reproduce their sha256. The last line of standard output is the JSON
result; a summary goes to standard error, and the run record (provenance,
hashes, pass times) and the latest span dump per workload go to
``.perfbench_out/`` in the repository root.
"""

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy

import oracle
import reference
from spans import ROOT as ROOT_SPAN
from spans import Tracer, wrapped_call_sites
from workloads import WORKLOADS, write_inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

RSS_LAUNCHES = 3
MIN_PASSES = 3
CHILD_TIMEOUT_S = 60

UNITS = {
    "frames_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "report.parse_us_per_frame": "us/frame",
    "report.lines_parsed": "count",
    "geometry.middle_line_us_per_frame": "us/frame",
    "geometry.angle_set_us_per_frame": "us/frame",
    "kernels.polyline_angles_us_per_frame": "us/frame",
    "kernels.calls": "count",
    "sequence.self_us_per_frame": "us/frame",
    "sequence.frames_valid_ratio": "ratio",
    "sequence.cases": "count",
    "report.report_write_us_per_frame": "us/frame",
    "report.report_bytes": "bytes",
    "cli.self_us_per_frame": "us/frame",
    "evaluation.evaluate_us_per_case": "us/case",
    "evaluation.read_labels_us_per_case": "us/case",
    "synth.sweep_us_per_frame": "us/frame",
    "report.dumps_frame_us_per_frame": "us/frame",
    "report.sidecar_us_per_frame": "us/frame",
    "check.failed_ratio": "ratio",
    "trace.overhead_us_per_frame": "us/frame",
    "trace.coverage_ratio": "ratio",
    "trace.absent_call_sites": "count",
}

# Runs the given commands in a fresh interpreter. It forks first, while
# it is still a bare interpreter: a process started by exec carries over
# the peak RSS of the process it replaced, and a forked one starts clean,
# so the worker's peak RSS is its own. The worker times set-up plus the
# commands from before the kpcurve import; the first process writes
# "<seconds> <peak RSS in KiB>" to argv[3].
_CHILD = """
import os, sys
pid = os.fork()
if pid == 0:
    import io, json, time
    start = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    import kpcurve.cli as cli
    cli.build_parser()
    for argv in json.loads(sys.argv[2]):
        if cli.main(argv, stdout=io.StringIO()) != 0:
            os._exit(1)
    with open(sys.argv[3], "w") as out:
        out.write(repr(time.perf_counter() - start))
    os._exit(0)
_, status, usage = os.wait4(pid, 0)
code = os.waitstatus_to_exitcode(status)
if code == 0:
    with open(sys.argv[3], "a") as out:
        out.write(" %d" % usage.ru_maxrss)
sys.exit(code)
"""


class BenchError(RuntimeError):
    """The program failed a command or did not reproduce its outputs."""


def _import_program():
    """Import kpcurve from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "kpcurve" / "cli.py").is_file():
        raise BenchError(f"no kpcurve sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import kpcurve.cli
    import kpcurve.sequence

    if Path(kpcurve.cli.__file__).resolve().parent != SRC / "kpcurve":
        raise BenchError(f"kpcurve imported from {kpcurve.cli.__file__}, not {SRC}")
    return {"cli": kpcurve.cli, "sequence": kpcurve.sequence}


def run_pass(main, commands) -> None:
    sink = io.StringIO()
    for argv in commands:
        code = main(argv, stdout=sink, stderr=sink)
        if code != 0:
            raise BenchError(f"kpcurve {argv[0]} exited {code}: {sink.getvalue().strip()}")


def digest(paths) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths if p.exists()}


def _clear(paths) -> None:
    for path in paths:
        path.unlink(missing_ok=True)


def timed_pass(main, inputs, expect: dict) -> tuple[float, float]:
    """One pass of the commands, which must reproduce ``expect``: its wall
    seconds, and the same seconds scaled to the nominal host speed.

    Reference chunks run before the first command and after each one,
    for at least ``reference.SHARE`` of that command's time; a command's
    time is scaled by the mean chunk times on either side of it.
    """
    _clear(inputs.outputs)
    gc.collect()
    sink = io.StringIO()
    wall = scaled = 0.0
    before = reference.sample(0.0)
    for argv in inputs.commands:
        start = perf_counter()
        code = main(argv, stdout=sink, stderr=sink)
        elapsed = perf_counter() - start
        after = reference.sample(elapsed * reference.SHARE)
        if code != 0:
            raise BenchError(f"kpcurve {argv[0]} exited {code}: {sink.getvalue().strip()}")
        wall += elapsed
        scaled += elapsed * 2 * reference.NOMINAL_S / (before + after)
        before = after
    if digest(inputs.outputs) != expect:
        raise BenchError("a pass did not reproduce the first pass's outputs")
    return wall, scaled


def run_child(commands, workdir: Path) -> tuple[float, float]:
    """Run ``commands`` in a fresh interpreter: (its seconds, its peak RSS in MB)."""
    result = workdir / "child.txt"
    result.unlink(missing_ok=True)
    argv = [sys.executable, "-c", _CHILD, str(SRC), json.dumps(commands), str(result)]
    proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, start_new_session=True)
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError(f"child interpreter ran over {CHILD_TIMEOUT_S} s") from None
    if code != 0:
        raise BenchError(f"child interpreter exited {code}")
    seconds, peak_kib = result.read_text().split()
    return float(seconds), int(peak_kib) / 1024.0


def setup_seconds(commands, workdir: Path) -> tuple[float, float]:
    """Set-up launch: its wall seconds, and the same scaled to the nominal
    host speed by reference chunks run just before and after it."""
    before = reference.sample(0.0)
    seconds = run_child(commands, workdir)[0]
    after = reference.sample(seconds * reference.SHARE)
    return seconds, seconds * 2 * reference.NOMINAL_S / (before + after)


def _report_stats(inputs) -> dict:
    if inputs.report is None:
        return {"cases": 0, "valid_ratio": 0.0, "bytes": 0}
    document = json.loads(inputs.report.read_text())
    total = sum(c["frames_total"] for c in document["cases"])
    valid = sum(c["frames_valid"] for c in document["cases"])
    return {
        "cases": len(document["cases"]),
        "valid_ratio": valid / total if total else 0.0,
        "bytes": inputs.report.stat().st_size,
    }


def layer_metrics(inputs, tracer, traced: list, plain: list, stats: dict, failed_ratio: float):
    """Per-layer metrics from the traced passes; ``traced`` and ``plain``
    hold ``timed_pass`` results. The overhead compares scaled pass times,
    which a slow spell of the host moves less than wall times."""
    passes = len(traced)
    per_frame = 1e6 / (inputs.frames * passes)
    per_case = 1e6 / (max(len(inputs.cases), 1) * passes)
    self_s = tracer.self_times()

    def busy(*names):
        return sum(self_s.get(name, 0.0) for name in names)

    counts = tracer.counts
    return {
        "report.parse_us_per_frame": busy("report.parse") * per_frame,
        "report.lines_parsed": counts["report.lines_parsed"] / passes,
        "geometry.middle_line_us_per_frame": busy("geometry.middle_line") * per_frame,
        "geometry.angle_set_us_per_frame": busy("geometry.angle_set_from_row") * per_frame,
        "kernels.polyline_angles_us_per_frame": busy("_kernels.polyline_angles") * per_frame,
        "kernels.calls": counts["_kernels.polyline_angles"] / passes,
        "sequence.self_us_per_frame": busy("sequence.measure_stream") * per_frame,
        "sequence.frames_valid_ratio": stats["valid_ratio"],
        "sequence.cases": stats["cases"],
        "report.report_write_us_per_frame": busy(
            "report.measurement_report", "report.dumps_report"
        ) * per_frame,
        "report.report_bytes": stats["bytes"],
        "cli.self_us_per_frame": busy(ROOT_SPAN) * per_frame,
        "evaluation.evaluate_us_per_case": busy("evaluation.evaluate_dataset") * per_case,
        "evaluation.read_labels_us_per_case": busy("evaluation.read_labels_csv") * per_case,
        "synth.sweep_us_per_frame": busy("synth.sweep") * per_frame,
        "report.dumps_frame_us_per_frame": busy("report.dumps_frame") * per_frame,
        "report.sidecar_us_per_frame": busy("report.sweep_sidecar") * per_frame,
        "check.failed_ratio": failed_ratio,
        "trace.overhead_us_per_frame": (
            statistics.median(s for _, s in traced) - statistics.median(s for _, s in plain)
        )
        * 1e6 / inputs.frames,
        "trace.coverage_ratio": sum(self_s.values()) / sum(w for w, _ in traced),
        "trace.absent_call_sites": len(tracer.absent),
    }


def _git_commit() -> str | None:
    """HEAD of the repository at ROOT, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance() -> dict:
    kernels = sys.modules.get("kpcurve._kernels")
    compiled = getattr(kernels, "polyline_angles_numba", None) is not None
    sources = hashlib.sha256()
    for path in sorted((SRC / "kpcurve").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_imported": "numba" in sys.modules,
        "kernel": "numba" if compiled else "numpy",
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "source_sha256": sources.hexdigest(),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """One benchmark run; returns the result object plus a ``details`` entry."""
    modules = _import_program()
    main = modules["cli"].main
    load_start = os.getloadavg()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    try:
        inputs = write_inputs(workload, seed, workdir, tiny=tiny)
        run_pass(main, inputs.commands)
        attempted, failed, notes = oracle.check(inputs)
        expect = digest(inputs.outputs)
        stats = _report_stats(inputs)
        details = {"notes": notes, "sha256": expect}
        if not trace:
            run_child(inputs.setup_commands, workdir)  # fills bytecode caches
        plain, traced, setup = [], [], []
        tracer = Tracer()
        traced_main = tracer.wrap(ROOT_SPAN, main)
        started = perf_counter()
        while len(plain) < MIN_PASSES or perf_counter() - started < seconds:
            if wrapped_call_sites(modules):
                raise BenchError(f"untraced pass sees wrapped {wrapped_call_sites(modules)}")
            plain.append(timed_pass(main, inputs, expect))
            if trace:
                with tracer.installed(modules):
                    traced.append(timed_pass(traced_main, inputs, expect))
            else:
                setup.append(setup_seconds(inputs.setup_commands, workdir))
        wall_s, scaled_s = zip(*plain)
        details.update(passes_s=wall_s, scaled_passes_s=scaled_s,
                       wall_frames_per_s=inputs.frames / statistics.median(wall_s))
        if trace:
            metrics = layer_metrics(inputs, tracer, traced, plain, stats, failed / attempted)
            details.update(traced_passes_s=traced, absent=tracer.absent)
            tracer.dump(OUT / f"trace-{workload}.json")
        else:
            rss = []
            for _ in range(RSS_LAUNCHES):
                _clear(inputs.outputs)
                rss.append(run_child(inputs.commands, workdir)[1])
                if digest(inputs.outputs) != expect:
                    raise BenchError("a fresh interpreter did not reproduce the outputs")
            metrics = {
                "frames_per_s": inputs.frames / statistics.median(scaled_s),
                "peak_rss_mb": statistics.median(rss),
                "setup_s": statistics.median(s for _, s in setup),
            }
            details.update(rss_mb=rss, setup_s=setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    details["provenance"] = provenance() | {
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
    }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
        "details": details,
    }


def _summary(workload, seed, trace, result) -> str:
    lines = [f"perfbench {workload} seed={seed} trace={int(trace)}: "
             f"correct={result['correct']} failed={result['failed']}/{result['attempted']} "
             f"(failed_ratio {result['failed'] / result['attempted']:.4f})"]
    for name, metric in result["metrics"].items():
        lines.append(f"  {name:<40} {metric['value']:>14.4f} {metric['unit']}")
    wall = result["details"]["wall_frames_per_s"]
    lines.append(f"  {'(wall clock, unscaled) frames_per_s':<40} {wall:>14.4f} 1/s")
    lines.append(f"  provenance {json.dumps(result['details']['provenance'])}")
    lines += [f"  ! {note}" for note in result["details"]["notes"][:10]]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if args.workload == "all":
        runs = [(w, t) for w in WORKLOADS for t in (False, True)]
    else:
        runs = [(args.workload, bool(args.trace))]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for workload, trace in runs:
            result = run(workload, args.seed, args.seconds, trace)
            record = OUT / f"{workload}-seed{args.seed}-trace{int(trace)}.json"
            record.write_text(json.dumps(result, indent=1) + "\n")
            print(_summary(workload, args.seed, trace, result), file=sys.stderr)
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            prefix = f"{workload}." if args.workload == "all" else ""
            for name, metric in result["metrics"].items():
                combined["metrics"][prefix + name] = metric
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
