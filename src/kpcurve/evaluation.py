"""Threshold classification and classifier performance metrics.

A case measurement becomes a binary diagnosis by comparison against an
angle threshold: strictly greater is positive (PD), anything else,
including the threshold exactly, is normal. :func:`evaluate_dataset`
returns the evaluation report's bodies as plain dicts in its key order:
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

    @classmethod
    def parse(cls, text: str) -> "Diagnosis":
        label = text.strip().lower()
        for member in cls:
            if member.value == label:
                return member
        raise DatasetFormatError(
            f"unknown diagnosis label {text!r}; expected 'pd' or 'normal'"
        )


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


def evaluate_dataset(cases, threshold_deg: float = DEFAULT_THRESHOLD_DEG):
    """Classify (case_id, actual, measured_deg) triples and score them.

    Returns the evaluation report's ``cases`` rows, its ``confusion``
    counts and its ``metrics``. A repeated case id or an angle outside
    [0, 180] raises, naming the case.
    """
    rows = []
    seen = set()
    tally = Counter()
    for case_id, actual, measured_deg in cases:
        if case_id in seen:
            raise DatasetFormatError(f"case id {case_id!r} appears more than once")
        seen.add(case_id)
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
    """Yield (line number, fields) per non-blank row under a case-insensitive header.

    Raises DatasetFormatError on an empty document, another header or a wrong width.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        first = next(reader)
    except StopIteration:
        raise DatasetFormatError(f"empty {what} CSV") from None
    if [h.strip().lower() for h in first] != list(header):
        raise DatasetFormatError(
            f"expected header {','.join(header)!r}, got {','.join(first)!r}"
        )
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != len(header):
            raise DatasetFormatError(
                f"line {lineno}: expected {len(header)} fields, got {len(row)}"
            )
        yield lineno, row


def read_dataset_csv(text: str) -> list[tuple[str, Diagnosis, float]]:
    """Parse dataset CSV: header case_id,actual,measured_deg.

    Diagnosis labels are case-insensitive. Raises DatasetFormatError on
    a bad header, bad label, or non-numeric angle.
    """
    rows = []
    for lineno, row in _csv_rows(text, DATASET_CSV_HEADER, "dataset"):
        case_id, actual, measured = row
        diagnosis = Diagnosis.parse(actual)
        try:
            rows.append((case_id.strip(), diagnosis, float(measured)))
        except ValueError:
            raise DatasetFormatError(
                f"line {lineno}: measured_deg {measured!r} is not a number"
            ) from None
    return rows


def read_labels_csv(text: str) -> dict[str, Diagnosis]:
    """Parse labels CSV: header case_id,actual; returns a lookup map."""
    labels: dict[str, Diagnosis] = {}
    for _, (case_id, actual) in _csv_rows(text, LABELS_CSV_HEADER, "labels"):
        case_id = case_id.strip()
        if case_id in labels:
            raise DatasetFormatError(f"case id {case_id!r} appears more than once")
        labels[case_id] = Diagnosis.parse(actual)
    return labels
