"""Command-line front end composing the library modules.

Subcommands: convert (CVAT XML to per-image YOLO label files), measure
(one label file to a measurement report), analyze (JSONL frame stream
to a per-case report), evaluate (measurements plus ground truth to
classifier metrics), synth (phantom spec to a frame stream plus oracle
sidecar), render (label file to an SVG overlay).

Exit codes are stable across subcommands: 0 success, 2 input or parse
error, 3 geometry error.
"""

import argparse
import functools
import json
import sys
from pathlib import Path

from . import __version__
from .annotation import (
    AnnotationError,
    convert_cvat_to_yolo,
    emit_yolo_line,
    parse_cvat_xml,
    parse_yolo_line,
)
from .evaluation import (
    DatasetFormatError,
    Diagnosis,
    DuplicateCaseIdError,
    classify,
    evaluate_dataset,
    read_dataset_csv,
    read_labels_csv,
)
from .geometry import DegenerateVectorError, compute_angles
from .overlay import render_svg
from .report import (
    JsonlFormatError,
    RunConfig,
    dumps_frame,
    dumps_report,
    evaluation_report,
    iter_frame_stream,
    measurement_report,
    sweep_sidecar,
)
from .sequence import (
    AllFramesInvalidError,
    EmptySequenceError,
    measure_single,
    measure_stream,
)
from .synth import (
    BadPoseError,
    BadSpecError,
    DegenerateProjectionError,
    HingeModelSpec,
    sweep,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_GEOMETRY = 3

_INPUT_ERRORS = (
    AnnotationError,
    JsonlFormatError,
    DatasetFormatError,
    DuplicateCaseIdError,
    BadSpecError,
    BadPoseError,
    EmptySequenceError,
    OSError,
    ValueError,
)
_GEOMETRY_ERRORS = (
    DegenerateVectorError,
    DegenerateProjectionError,
    AllFramesInvalidError,
)

_SYNTH_SPEC_FIELDS = {
    "case_id": str,
    "hinge_angle_deg": (int, float),
    "length_cm": (int, float),
    "width_cm": (int, float),
    "hinge_position": (int, float),
    "seed": int,
    "yaw_start_deg": (int, float),
    "yaw_end_deg": (int, float),
    "steps": int,
    "jitter_sd": (int, float),
    "pitch_deg": (int, float),
    "image_width": int,
    "image_height": int,
}


def _read_text(path: str, stdin) -> str:
    if path == "-":
        return stdin.read()
    return Path(path).read_text(encoding="utf-8")


def _write_text(path: str | None, text: str, stdout) -> None:
    if path is None or path == "-":
        stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _add_threshold(parser):
    parser.add_argument(
        "--threshold",
        type=float,
        default=30.0,
        metavar="DEG",
        help="diagnostic angle threshold in degrees (default 30)",
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
        help="case_id,actual ground-truth CSV (required for report JSON input)",
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
    p.add_argument(
        "--width", type=int, default=640, metavar="PX", help="canvas width (default 640)"
    )
    p.add_argument(
        "--height",
        type=int,
        default=640,
        metavar="PX",
        help="canvas height (default 640)",
    )
    _add_output(p, "the SVG document")
    return parser


def _cmd_convert(args, stdin, stdout, stderr) -> int:
    document = _read_text(args.xml, stdin)
    annotations = parse_cvat_xml(document)
    outputs = []
    seen = set()
    for ann in annotations:
        det = convert_cvat_to_yolo(ann, class_id=args.class_id)
        filename = Path(ann.image_name).stem + ".txt"
        if filename in seen:
            raise AnnotationError(
                f"two images map to the same label file {filename!r}"
            )
        seen.add(filename)
        outputs.append((filename, emit_yolo_line(det) + "\n"))

    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    try:
        for filename, text in outputs:
            target = out_dir / filename
            target.write_text(text, encoding="utf-8")
            written.append(target)
    except OSError:
        for target in written:
            target.unlink(missing_ok=True)
        raise
    stdout.write(f"converted {len(outputs)} images to {out_dir}\n")
    return EXIT_OK


def _first_label_line(text: str, stderr) -> str:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise AnnotationError("label input is empty")
    if len(lines) > 1:
        stderr.write(
            f"kpcurve: warning: {len(lines)} label lines found, measuring the first\n"
        )
    return lines[0]


def _cmd_measure(args, stdin, stdout, stderr) -> int:
    config = RunConfig(
        threshold_deg=args.threshold,
        aspect_ratio=args.aspect,
        retain_per_frame=not args.no_per_frame,
    )
    line = _first_label_line(_read_text(args.label, stdin), stderr)
    det = parse_yolo_line(line)
    case_id = "stdin" if args.label == "-" else Path(args.label).stem
    case = measure_single(case_id, det, aspect=config.aspect_ratio)
    diagnosis = classify(case.curvature_deg, config.threshold_deg)
    document = measurement_report([(case, diagnosis)], config, __version__)
    _write_text(args.output, dumps_report(document), stdout)
    return EXIT_OK


def _cmd_analyze(args, stdin, stdout, stderr) -> int:
    config = RunConfig(
        threshold_deg=args.threshold,
        aspect_ratio=args.aspect,
        retain_per_frame=not args.no_per_frame,
    )

    def run(lines):
        return measure_stream(
            iter_frame_stream(lines),
            aspect=config.aspect_ratio,
            keep_frames=config.retain_per_frame,
        )

    if args.input == "-":
        cases, failures = run(stdin)
    else:
        with open(args.input, encoding="utf-8") as handle:
            cases, failures = run(handle)

    entries = [
        (case, classify(case.curvature_deg, config.threshold_deg)) for case in cases
    ]
    errors = [
        {"case_id": case_id, "error": message} for case_id, message in failures
    ]
    document = measurement_report(entries, config, __version__, errors=errors)
    _write_text(args.output, dumps_report(document), stdout)
    if not cases:
        stderr.write("kpcurve analyze: no case yielded a valid measurement\n")
        return EXIT_GEOMETRY
    return EXIT_OK


def _cases_from_report(document: dict) -> list[tuple[str, float]]:
    cases = document.get("cases")
    if not isinstance(cases, list):
        raise DatasetFormatError("report JSON has no 'cases' list")
    extracted = []
    for entry in cases:
        if (
            not isinstance(entry, dict)
            or not isinstance(entry.get("case_id"), str)
            or not isinstance(entry.get("curvature_deg"), (int, float))
        ):
            raise DatasetFormatError(
                "report cases need 'case_id' and 'curvature_deg' fields"
            )
        extracted.append((entry["case_id"], float(entry["curvature_deg"])))
    return extracted


def _warn_unmeasured(document: dict, labels: dict, measured: set, stderr) -> None:
    """Name on stderr each case that the metrics leave out, with the reason.

    Metrics count measured cases only: a case that ``analyze`` listed
    under ``errors``, and a labelled case absent from the report, are
    reported here and left out.
    """
    errors = document.get("errors", [])
    if not isinstance(errors, list) or not all(
        isinstance(entry, dict)
        and isinstance(entry.get("case_id"), str)
        and isinstance(entry.get("error"), str)
        for entry in errors
    ):
        raise DatasetFormatError("report errors need 'case_id' and 'error' fields")
    failed = set()
    for entry in errors:
        failed.add(entry["case_id"])
        stderr.write(
            f"kpcurve: warning: case {entry['case_id']!r} left out of the metrics: "
            f"not measured ({entry['error']})\n"
        )
    for case_id in labels:
        if case_id not in measured and case_id not in failed:
            stderr.write(
                f"kpcurve: warning: case {case_id!r} left out of the metrics: "
                "labelled but not in the report\n"
            )


def _cmd_evaluate(args, stdin, stdout, stderr) -> int:
    config = RunConfig(threshold_deg=args.threshold)
    text = _read_text(args.input, stdin)
    if text.lstrip().startswith("{"):
        try:
            document = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DatasetFormatError(f"input is not valid JSON: {exc.msg}") from None
        if args.labels is None:
            raise DatasetFormatError(
                "report JSON input needs --labels with ground-truth diagnoses"
            )
        labels = read_labels_csv(Path(args.labels).read_text(encoding="utf-8"))
        triples = []
        for case_id, measured in _cases_from_report(document):
            actual = labels.get(case_id)
            if actual is None:
                raise DatasetFormatError(
                    f"case {case_id!r} missing from labels file"
                )
            triples.append((case_id, actual, measured))
        measured = {case_id for case_id, _, _ in triples}
        _warn_unmeasured(document, labels, measured, stderr)
    else:
        if args.labels is not None:
            stderr.write(
                "kpcurve: warning: --labels ignored for dataset CSV input\n"
            )
        triples = read_dataset_csv(text)

    if not triples:
        stderr.write("kpcurve evaluate: no cases in input; metrics undefined\n")
    records, cm, report = evaluate_dataset(triples, config.threshold_deg)
    document = evaluation_report(records, cm, report, config, __version__)
    _write_text(args.output, dumps_report(document), stdout)
    return EXIT_OK


def _parse_synth_spec(text: str) -> dict:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise BadSpecError(f"spec is not valid JSON: {exc.msg}") from None
    if not isinstance(raw, dict):
        raise BadSpecError("spec must be a JSON object")
    for key, value in raw.items():
        expected = _SYNTH_SPEC_FIELDS.get(key)
        if expected is None:
            raise BadSpecError(f"unknown spec field {key!r}")
        if not isinstance(value, expected) or isinstance(value, bool):
            raise BadSpecError(f"spec field {key!r} has the wrong type")
    if "hinge_angle_deg" not in raw:
        raise BadSpecError("spec is missing 'hinge_angle_deg'")
    return raw


def _cmd_synth(args, stdin, stdout, stderr) -> int:
    raw = _parse_synth_spec(_read_text(args.spec, stdin))
    if args.seed is not None:
        raw["seed"] = args.seed
    case_id = raw.get("case_id", "synth")
    spec = HingeModelSpec(
        hinge_angle_deg=float(raw["hinge_angle_deg"]),
        length_cm=float(raw.get("length_cm", HingeModelSpec.length_cm)),
        width_cm=float(raw.get("width_cm", HingeModelSpec.width_cm)),
        hinge_position=float(raw.get("hinge_position", HingeModelSpec.hinge_position)),
        seed=int(raw.get("seed", HingeModelSpec.seed)),
    )
    frames = sweep(
        spec,
        yaw_start_deg=float(raw.get("yaw_start_deg", -60.0)),
        yaw_end_deg=float(raw.get("yaw_end_deg", 60.0)),
        steps=int(raw.get("steps", 25)),
        jitter_sd=float(raw.get("jitter_sd", 0.0)),
        pitch_deg=float(raw.get("pitch_deg", 0.0)),
        image_width=int(raw.get("image_width", 640)),
        image_height=int(raw.get("image_height", 640)),
    )
    stream = "".join(
        dumps_frame(case_id, f.detection, f.detection.frame_index) + "\n"
        for f in frames
    )
    _write_text(args.output, stream, stdout)

    sidecar_path = args.sidecar
    if sidecar_path is None and args.output not in (None, "-"):
        sidecar_path = args.output + ".oracle.json"
    if sidecar_path is not None:
        spec_fields = dict(raw)
        spec_fields["snapped_hinge_position"] = spec.snapped_position
        sidecar = sweep_sidecar(case_id, spec_fields, frames)
        Path(sidecar_path).write_text(
            json.dumps(sidecar, indent=2) + "\n", encoding="utf-8"
        )
    return EXIT_OK


def _cmd_render(args, stdin, stdout, stderr) -> int:
    line = _first_label_line(_read_text(args.label, stdin), stderr)
    det = parse_yolo_line(line)
    angles = compute_angles(det.keypoints, aspect=args.aspect)
    svg = render_svg(det, angles, args.width, args.height)
    _write_text(args.output, svg, stdout)
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
    except _GEOMETRY_ERRORS as exc:
        stderr.write(f"kpcurve {args.command}: {exc}\n")
        return EXIT_GEOMETRY
    except _INPUT_ERRORS as exc:
        stderr.write(f"kpcurve {args.command}: {exc}\n")
        return EXIT_INPUT


def entry() -> None:
    """Console-script entry point."""
    sys.exit(main())
