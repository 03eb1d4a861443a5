"""Threshold classification and classifier performance metrics.

A case measurement becomes a binary diagnosis by comparison against an
angle threshold: strictly greater is positive (PD), anything else,
including the threshold exactly, is normal. :func:`evaluate_dataset`
reads that threshold from the run's :class:`kpcurve.report.RunConfig`
and returns the evaluation report's bodies as plain dicts in its key order:
one row per case, the ``tp``/``fp``/``fn``/``tn`` counts, and the
metrics of :func:`metrics`, the one place each metric is named and
defined. A metric whose denominator is zero is reported as undefined
(None) rather than silently coerced to a number.

Display rounding is half-up to two decimals and applies only to
rendered reports, never to stored values.
"""

import csv
import enum
import io
from collections import Counter
from decimal import ROUND_HALF_UP, Decimal

from .annotation import ascii_number

DEFAULT_THRESHOLD_DEG = 30.0
DISPLAY_DECIMALS = 2

DATASET_CSV_HEADER = ("case_id", "actual", "measured_deg")
LABELS_CSV_HEADER = ("case_id", "actual")
# an evaluation report's case row: the dataset CSV's fields, then the prediction
_ROW_FIELDS = (*DATASET_CSV_HEADER, "predicted")
# (actually PD, predicted PD) -> the report's name for that cell, in its key order
_CELLS = {(True, True): "tp", (False, True): "fp", (True, False): "fn", (False, False): "tn"}


class DatasetFormatError(ValueError):
    """A dataset, labels or report input that cannot be scored."""


class Diagnosis(enum.Enum):
    PD = "pd"
    NORMAL = "normal"


def round_half_up(value: float | None) -> float | None:
    """Round half away from zero to DISPLAY_DECIMALS, as printed tables do."""
    if value is None:
        return None
    quantum = Decimal(1).scaleb(-DISPLAY_DECIMALS)
    return float(Decimal(repr(value)).quantize(quantum, rounding=ROUND_HALF_UP))


def classify(measured_deg: float, threshold_deg: float = DEFAULT_THRESHOLD_DEG) -> Diagnosis:
    """Diagnose one measurement: PD iff strictly above the threshold."""
    if not 0.0 <= measured_deg <= 180.0:
        raise ValueError(f"measured angle {measured_deg} outside [0, 180]")
    if not 0.0 < threshold_deg < 180.0:
        raise ValueError(f"threshold {threshold_deg} outside (0, 180)")
    return Diagnosis.PD if measured_deg > threshold_deg else Diagnosis.NORMAL


def _ratio(numerator: int, denominator: int) -> float | None:
    return numerator / denominator if denominator else None


def metrics(tp: int, fp: int, fn: int, tn: int) -> dict[str, float | None]:
    """Accuracy, sensitivity and specificity of confusion counts, by name."""
    return {
        "accuracy": _ratio(tp + tn, tp + fp + fn + tn),
        "sensitivity": _ratio(tp, tp + fn),
        "specificity": _ratio(tn, tn + fp),
    }


def evaluate_dataset(cases, config):
    """Classify (case_id, actual, measured_deg) triples at the run's
    ``RunConfig.threshold_deg`` and score them.

    Returns the evaluation report's ``cases`` rows, its ``confusion``
    counts and its ``metrics``. An angle outside [0, 180] raises, naming
    the case; the readers of the triples have rejected a repeated case id.
    """
    threshold_deg = config.threshold_deg
    rows = []
    tally = Counter()
    for case_id, actual, measured_deg in cases:
        measured = float(measured_deg)
        if not 0.0 <= measured <= 180.0:
            raise DatasetFormatError(
                f"case {case_id!r}: measured angle {measured} outside [0, 180]"
            )
        predicted = classify(measured, threshold_deg)
        tally[actual is Diagnosis.PD, predicted is Diagnosis.PD] += 1
        values = (case_id, actual.value, measured, predicted.value)
        rows.append(dict(zip(_ROW_FIELDS, values)))
    counts = {cell: tally[outcome] for outcome, cell in _CELLS.items()}
    return rows, counts, metrics(**counts)


def _csv_rows(text: str, header: tuple[str, ...], what: str):
    """Yield (line number, stripped case id, diagnosis, other fields) per non-blank row.

    The header, matched case-insensitively, opens with ``case_id,actual``;
    labels are case-insensitive too. One leading byte-order mark, as
    spreadsheets write "CSV UTF-8", is dropped. Raises DatasetFormatError
    on an empty document, another header, a wrong width, an empty or
    repeated case id or an unknown label; a row's error names its line.
    """
    reader = csv.reader(io.StringIO(text.removeprefix("\ufeff")))
    try:
        first = next(reader)
    except StopIteration:
        raise DatasetFormatError(f"empty {what} CSV") from None
    if [h.strip().lower() for h in first] != list(header):
        raise DatasetFormatError(
            f"expected header {','.join(header)!r}, got {','.join(first)!r}"
        )
    seen = set()
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != len(header):
            raise DatasetFormatError(
                f"line {lineno}: expected {len(header)} fields, got {len(row)}"
            )
        case_id, actual, *rest = row
        case_id = case_id.strip()
        if not case_id:
            raise DatasetFormatError(f"line {lineno}: empty case_id")
        if case_id in seen:
            raise DatasetFormatError(f"line {lineno}: case id {case_id!r} appears more than once")
        seen.add(case_id)
        try:
            diagnosis = Diagnosis(actual.strip().lower())
        except ValueError:
            raise DatasetFormatError(
                f"line {lineno}: unknown diagnosis label {actual!r}; expected 'pd' or 'normal'"
            ) from None
        yield lineno, case_id, diagnosis, rest


def read_dataset_csv(text: str) -> list[tuple[str, Diagnosis, float]]:
    """Parse dataset CSV: header case_id,actual,measured_deg.

    Raises DatasetFormatError on a bad row (see :func:`_csv_rows`) or a
    non-numeric angle.
    """
    rows = []
    for lineno, case_id, diagnosis, (measured,) in _csv_rows(text, DATASET_CSV_HEADER, "dataset"):
        try:
            rows.append((case_id, diagnosis, ascii_number(measured)))
        except ValueError:
            raise DatasetFormatError(
                f"line {lineno}: measured_deg {measured!r} is not a number"
            ) from None
    return rows


def read_labels_csv(text: str) -> dict[str, Diagnosis]:
    """Parse labels CSV: header case_id,actual; returns a lookup map.

    Raises DatasetFormatError on a bad row (see :func:`_csv_rows`).
    """
    rows = _csv_rows(text, LABELS_CSV_HEADER, "labels")
    return {case_id: diagnosis for _, case_id, diagnosis, _ in rows}
