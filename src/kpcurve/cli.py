"""Command-line front end composing the library modules.

Subcommands: convert (CVAT XML to per-image YOLO label files), measure
(one label file to a measurement report), analyze (JSONL frame stream
to a per-case report), evaluate (measurements plus ground truth to
classifier metrics), synth (phantom spec to a frame stream plus oracle
sidecar), render (label file to an SVG overlay).

Exit codes are stable across subcommands: a command returns 0 or raises,
and ``main`` alone writes the fault's one stderr line and returns 3 for
geometry the kernel cannot measure (``DegenerateProjectionError``), 2 for
any other fault (every kpcurve error is a ValueError).

This module holds no file format and no report policy: it reads argv,
opens inputs (``_source``), writes outputs (``_write``) and warnings,
and maps faults to exit codes. Each format is read and written by the
module that defines it: the synth spec by ``synth``, frame streams and
reports (and what they diagnose and leave out) by ``report``, label
lines, CVAT XML and CSV datasets by ``annotation`` and ``evaluation``.
Each command imports only what it runs: ``measure``, ``analyze`` and
``evaluate`` load no phantom (``synth``), SVG (``overlay``) or XML code.
"""

import argparse
import functools
import gc
import os
import stat
import sys
from contextlib import contextmanager, nullcontext, suppress
from itertools import takewhile
from operator import methodcaller
from pathlib import Path

from . import __version__
from .annotation import (
    AnnotationError,
    emit_yolo_line,
    parse_cvat_xml,
    parse_yolo_line,
)
from .evaluation import (
    DEFAULT_THRESHOLD_DEG,
    DatasetFormatError,
    evaluate_dataset,
    read_dataset_csv,
    read_labels_csv,
)
from .report import (
    RunConfig,
    dumps_frame,
    dumps_report,
    evaluation_report,
    is_case_id,
    iter_frame_stream,
    loads_json,
    measurement_report,
    report_results,
    sweep_sidecar,
)
from .sequence import DegenerateProjectionError, measure_stream

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_GEOMETRY = 3

DEFAULT_CANVAS_PX = 640


def _where(path: str) -> str:
    """How a message names the input at ``path``."""
    return "<stdin>" if path == "-" else path


def _source(path: str, stdin):
    """A context manager giving ``stdin`` for "-", else the file at ``path`` as UTF-8,
    a byte that is not UTF-8 read as a lone surrogate for the reader to reject."""
    if path == "-":
        return nullcontext(stdin)
    return open(path, encoding="utf-8", errors="surrogateescape")


def _read_text(path: str, stdin) -> str:
    """The text of ``_source(path, stdin)``; a byte that is not UTF-8 is named with its line."""
    with _source(path, stdin) as source:
        text = source.read()
    try:
        text.isascii() or text.encode("utf-8")  # ASCII text holds no lone surrogate
    except UnicodeEncodeError as exc:  # the byte was read as a lone surrogate
        lineno = text.count("\n", 0, exc.start) + 1
        raise ValueError(f"{_where(path)}: line {lineno}: not valid UTF-8") from None
    return text


def _write(outputs, stdout) -> None:
    """Call ``write(stream)`` for each ``(path, write)`` in turn, ``stream`` being the
    file at ``path``, opened only then, or ``stdout`` for None or "-". If one fails,
    every regular file this call opened is removed, so a command leaves all of its
    files or none; a symlink, device or FIFO is never removed."""
    opened = []
    try:
        for path, write in outputs:
            if path is None or path == "-":
                write(stdout)
                continue
            with open(path, "w", encoding="utf-8") as out:
                if stat.S_ISREG(os.lstat(path).st_mode):
                    opened.append(path)
                write(out)
    except BaseException:
        for path in opened:
            Path(path).unlink(missing_ok=True)
        raise


@contextmanager
def _collector_paused():
    """Run the body with the cycle collector off, then leave it as it was found.

    A read phase decodes thousands of small dicts and lists a batch; they hold no
    cycle and refcounting frees them, so a collector pass over them is pure cost.
    Writing stays outside: ``json.dumps(indent=2)`` builds a cycle on every call.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _named(path: str, reader, *args, **kwargs):
    """``reader(*args, **kwargs)`` on what was read from ``path``, whose errors
    name that path, or <stdin> for "-"."""
    try:
        return reader(*args, **kwargs)
    except UnicodeError:  # a strict stream's decode error, whose class takes more than a message
        raise
    except ValueError as exc:  # every kpcurve error takes its message alone
        raise type(exc)(f"{_where(path)}: {exc}") from None


def _add_threshold(parser):
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD_DEG,
        metavar="DEG",
        help=f"diagnostic angle threshold in degrees (default {DEFAULT_THRESHOLD_DEG:g})",
    )


def _add_aspect(parser):
    parser.add_argument(
        "--aspect",
        type=float,
        default=1.0,
        metavar="W/H",
        help="image width/height ratio for angle correction (default 1.0)",
    )


def _add_output(parser, what):
    parser.add_argument(
        "--output",
        "-o",
        metavar="PATH",
        help=f"write {what} here instead of stdout",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every call."""
    parser = argparse.ArgumentParser(
        prog="kpcurve",
        description="Keypoint-based shaft curvature measurement toolkit.",
    )
    parser.add_argument(
        "--version", action="version", version=f"kpcurve {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "convert", help="convert CVAT XML annotations to YOLO label files"
    )
    p.add_argument("xml", help="CVAT XML path, or - for stdin")
    p.add_argument(
        "--output-dir", "-o", required=True, metavar="DIR", help="label output directory"
    )
    p.add_argument(
        "--class-id",
        type=int,
        default=0,
        metavar="N",
        help="class id written to every label (default 0)",
    )

    p = sub.add_parser("measure", help="measure one label file (still image)")
    p.add_argument("label", help="YOLO label path, or - for stdin")
    _add_aspect(p)
    _add_threshold(p)
    p.add_argument(
        "--no-per-frame",
        action="store_true",
        help="omit per-frame details from the report",
    )
    _add_output(p, "the report JSON")

    p = sub.add_parser("analyze", help="measure a JSONL frame stream per case")
    p.add_argument("input", help="JSONL path, or - for stdin")
    _add_aspect(p)
    _add_threshold(p)
    p.add_argument(
        "--no-per-frame",
        action="store_true",
        help="omit per-frame details (bounded memory on long streams)",
    )
    _add_output(p, "the report JSON")

    p = sub.add_parser("evaluate", help="score measurements against ground truth")
    p.add_argument(
        "input",
        help="dataset CSV (case_id,actual,measured_deg) or an analyze/measure "
        "report JSON, - for stdin",
    )
    _add_threshold(p)
    p.add_argument(
        "--labels",
        metavar="CSV",
        help="case_id,actual ground-truth CSV, - for stdin when the input is a "
        "file (required for report JSON input)",
    )
    _add_output(p, "the metrics report JSON")

    p = sub.add_parser("synth", help="generate a synthetic phantom sweep")
    p.add_argument("spec", help="sweep spec JSON path, or - for stdin")
    p.add_argument(
        "--seed", type=int, metavar="N", help="override the spec's jitter seed"
    )
    p.add_argument(
        "--sidecar",
        metavar="PATH",
        help="oracle sidecar JSON path (defaults to <output>.oracle.json "
        "when --output is a file)",
    )
    _add_output(p, "the JSONL frame stream")

    p = sub.add_parser("render", help="render a label file as an SVG overlay")
    p.add_argument("label", help="YOLO label path, or - for stdin")
    _add_aspect(p)
    for side in ("width", "height"):
        p.add_argument(
            f"--{side}",
            type=int,
            default=DEFAULT_CANVAS_PX,
            metavar="PX",
            help=f"canvas {side} (default {DEFAULT_CANVAS_PX})",
        )
    _add_output(p, "the SVG document")
    return parser


def _cmd_convert(args, stdin, stdout, stderr) -> int:
    document = _read_text(args.xml, stdin)
    # every line is built before any is written: every image fault comes
    # first, then a bad class id, which a document with no image never checks
    outputs = {}
    for image_name, box, points in _named(args.xml, parse_cvat_xml, document):
        line = emit_yolo_line(args.class_id, box, points) + "\n"
        filename = Path(image_name).stem + ".txt"
        if filename in outputs:
            raise AnnotationError(
                f"two images map to the same label file {filename!r}"
            )
        outputs[filename] = methodcaller("write", line)

    out_dir = Path(args.output_dir)
    # the directories mkdir makes, deepest first, go again when a write fails
    made = list(takewhile(lambda path: not path.exists(), [out_dir, *out_dir.parents]))
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        _write([(out_dir / filename, write) for filename, write in outputs.items()], stdout)
    except BaseException:
        for directory in made:
            with suppress(OSError):  # the write's error is the one reported
                directory.rmdir()
        raise
    stdout.write(f"converted {len(outputs)} images to {out_dir}\n")
    return EXIT_OK


def _first_label(text: str, stderr):
    """The box and keypoints of the first non-blank line, whose errors name its line."""
    lines = [(n, line) for n, line in enumerate(text.splitlines(), 1) if line.strip()]
    if not lines:
        raise AnnotationError("label input is empty")
    if len(lines) > 1:
        stderr.write(
            f"kpcurve: warning: {len(lines)} label lines found, measuring the first\n"
        )
    lineno, line = lines[0]
    try:
        return parse_yolo_line(line)
    except AnnotationError as exc:
        raise AnnotationError(f"line {lineno}: {exc}") from None


def _measure_still(args, config, stdin, stderr):
    """The first label line's box and keypoints, and its case measured with its one frame kept.

    A still image is a stream of one batch of one frame, so ``measure``
    and ``render`` share the measurement and its error messages.
    """
    box, points = _named(args.label, _first_label, _read_text(args.label, stdin), stderr)
    case_id = "stdin" if args.label == "-" else Path(args.label).stem
    if not is_case_id(case_id):
        raise AnnotationError(
            f"case id {case_id!r} from the label file's name is empty or has outer whitespace"
        )
    batch = ([case_id], [0], points[None])
    cases, failures = measure_stream([batch], aspect=config.aspect_ratio)
    if failures:
        raise DegenerateProjectionError(f"case {case_id!r}: {failures[0][1]}")
    return box, points, cases[0]


def _cmd_measure(args, stdin, stdout, stderr) -> int:
    config = RunConfig(args.threshold, args.aspect, retain_per_frame=not args.no_per_frame)
    *_, case = _measure_still(args, config, stdin, stderr)
    document = measurement_report([case], config)
    _write([(args.output, functools.partial(dumps_report, document))], stdout)
    return EXIT_OK


def _cmd_analyze(args, stdin, stdout, stderr) -> int:
    config = RunConfig(args.threshold, args.aspect, retain_per_frame=not args.no_per_frame)
    with _source(args.input, stdin) as lines, _collector_paused():
        cases, failures = _named(
            args.input,
            measure_stream,
            iter_frame_stream(lines),
            aspect=config.aspect_ratio,
            keep_frames=config.retain_per_frame,
        )
    document = measurement_report(cases, config, errors=failures)
    _write([(args.output, functools.partial(dumps_report, document))], stdout)
    if not cases:  # raised once the report, every case under its errors, is written
        raise DegenerateProjectionError("no case yielded a valid measurement")
    return EXIT_OK


def _cmd_evaluate(args, stdin, stdout, stderr) -> int:
    config = RunConfig(threshold_deg=args.threshold)
    with _collector_paused():
        text = _read_text(args.input, stdin)
        # one byte-order mark is dropped, as the CSV readers drop it
        body = text.removeprefix("\ufeff")
        if body.lstrip().startswith("{"):
            # json, not orjson: orjson 3.8 has no nesting limit and overflows the C stack
            # on deep input, and a report is far longer than the lines it is trusted with
            document = _named(args.input, loads_json, body, DatasetFormatError)
            if args.labels is None:
                raise DatasetFormatError(
                    "report JSON input needs --labels with ground-truth diagnoses"
                )
            if args.labels == "-" and args.input == "-":
                raise DatasetFormatError("the report JSON and --labels cannot both be stdin")
            labels = _named(args.labels, read_labels_csv, _read_text(args.labels, stdin))
            triples, left_out = _named(args.input, report_results, document, labels)
            for case_id, reason in left_out:
                stderr.write(
                    f"kpcurve: warning: case {case_id!r} left out of the metrics: {reason}\n"
                )
        else:
            if args.labels is not None:
                stderr.write("kpcurve: warning: --labels ignored for dataset CSV input\n")
            triples = _named(args.input, read_dataset_csv, text)

        if not triples:
            stderr.write("kpcurve: warning: no cases in input; metrics undefined\n")
        rows, counts, scores = evaluate_dataset(triples, config.threshold_deg)
    document = evaluation_report(rows, counts, scores, config)
    _write([(args.output, functools.partial(dumps_report, document))], stdout)
    return EXIT_OK


def sweep(*args, **kwargs):
    """``synth.sweep``, imported on the first call so that only the synth command
    loads ``synth``; a module-level name so that perfbench can trace its call site."""
    from .synth import sweep as synth_sweep

    return synth_sweep(*args, **kwargs)


def _cmd_synth(args, stdin, stdout, stderr) -> int:
    sidecar_path, to_file = args.sidecar, args.output not in (None, "-")
    if sidecar_path == "-":
        raise ValueError("--sidecar must name a file, not -")
    if sidecar_path is None:
        sidecar_path = args.output + ".oracle.json" if to_file else None
    elif to_file and os.path.realpath(sidecar_path) == os.path.realpath(args.output):
        raise ValueError(f"--sidecar and --output name the same file {args.output!r}")

    from .synth import BadSpecError, read_spec

    raw = _named(args.spec, loads_json, _read_text(args.spec, stdin), BadSpecError)
    phantom = _named(args.spec, read_spec, raw, args.seed)
    # every fault of the spec's values, found by either, names the spec
    result = _named(args.spec, sweep, phantom.model, **phantom.sweep_args)
    stream = dumps_frame(phantom.case_id, result.boxes, result.points, range(len(result.points)))

    # the sidecar goes first, so a failed run writes no stream, not even to stdout
    outputs = [(args.output, methodcaller("write", stream))]
    if sidecar_path is not None:
        write_sidecar = functools.partial(dumps_report, sweep_sidecar(phantom, result))
        outputs.insert(0, (sidecar_path, write_sidecar))
    _write(outputs, stdout)
    return EXIT_OK


def _cmd_render(args, stdin, stdout, stderr) -> int:
    from .overlay import render_svg

    box, points, case = _measure_still(args, RunConfig(aspect_ratio=args.aspect), stdin, stderr)
    svg = render_svg(box, points, case.per_frame.angles[0], args.width, args.height)
    _write([(args.output, methodcaller("write", svg))], stdout)
    return EXIT_OK


_COMMANDS = {
    "convert": _cmd_convert,
    "measure": _cmd_measure,
    "analyze": _cmd_analyze,
    "evaluate": _cmd_evaluate,
    "synth": _cmd_synth,
    "render": _cmd_render,
}


def main(argv=None, stdin=None, stdout=None, stderr=None) -> int:
    """Run the CLI; streams are injectable for embedding and tests."""
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    command = _COMMANDS[args.command]
    try:
        return command(args, stdin, stdout, stderr)
    except (OSError, ValueError) as exc:
        stderr.write(f"kpcurve {args.command}: {exc}\n")
        return EXIT_GEOMETRY if isinstance(exc, DegenerateProjectionError) else EXIT_INPUT


def entry() -> None:
    """Console-script and ``python -m kpcurve`` entry point. Stdin and stdout
    are UTF-8 whatever the locale, as files are; a byte that is not UTF-8
    goes through as a lone surrogate, which the readers reject with its line."""
    for stream in (sys.stdin, sys.stdout):
        if stream is not None:
            stream.reconfigure(encoding="utf-8", errors="surrogateescape")
    sys.exit(main())
