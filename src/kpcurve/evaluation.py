"""Threshold classification and classifier performance metrics.

A case measurement becomes a binary diagnosis by comparison against an
angle threshold: strictly greater is positive (PD), anything else,
including the threshold exactly, is normal. Metrics follow the usual
confusion-matrix definitions; a metric whose denominator is zero is
reported as undefined (None) rather than silently coerced to a number.

Display rounding is half-up to two decimals and applies only to
rendered reports, never to stored values.
"""

import csv
import enum
import io
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal

DEFAULT_THRESHOLD_DEG = 30.0
DISPLAY_DECIMALS = 2

DATASET_CSV_HEADER = ("case_id", "actual", "measured_deg")
LABELS_CSV_HEADER = ("case_id", "actual")


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


@dataclass(frozen=True)
class CaseRecord:
    """One evaluated case: ground truth, measurement, and prediction."""

    case_id: str
    actual: Diagnosis
    measured_deg: float
    predicted: Diagnosis


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


@dataclass(frozen=True)
class MetricsReport:
    """Accuracy, sensitivity, and specificity as exact fractions.

    A value of None marks a metric whose denominator was zero for this
    matrix (for example sensitivity with no positive cases).
    """

    accuracy: float | None
    sensitivity: float | None
    specificity: float | None

    def rounded(self, places: int = DISPLAY_DECIMALS) -> dict[str, float | None]:
        """Half-up rounded copies of the metrics for display."""
        return {
            "accuracy": round_half_up(self.accuracy, places),
            "sensitivity": round_half_up(self.sensitivity, places),
            "specificity": round_half_up(self.specificity, places),
        }


def round_half_up(value: float | None, places: int = DISPLAY_DECIMALS) -> float | None:
    """Round half away from zero, as printed tables conventionally do."""
    if value is None:
        return None
    quantum = Decimal(1).scaleb(-places)
    return float(Decimal(repr(value)).quantize(quantum, rounding=ROUND_HALF_UP))


def classify(measured_deg: float, threshold_deg: float = DEFAULT_THRESHOLD_DEG) -> Diagnosis:
    """Diagnose one measurement: PD iff strictly above the threshold."""
    if not 0.0 <= measured_deg <= 180.0:
        raise ValueError(f"measured angle {measured_deg} outside [0, 180]")
    if not 0.0 < threshold_deg < 180.0:
        raise ValueError(f"threshold {threshold_deg} outside (0, 180)")
    return Diagnosis.PD if measured_deg > threshold_deg else Diagnosis.NORMAL


def confusion(outcomes) -> ConfusionMatrix:
    """Tally (actual, predicted) pairs into a confusion matrix."""
    tp = fp = fn = tn = 0
    for actual, predicted in outcomes:
        if actual is Diagnosis.PD:
            if predicted is Diagnosis.PD:
                tp += 1
            else:
                fn += 1
        else:
            if predicted is Diagnosis.PD:
                fp += 1
            else:
                tn += 1
    return ConfusionMatrix(tp=tp, fp=fp, fn=fn, tn=tn)


def _ratio(numerator: int, denominator: int) -> float | None:
    return numerator / denominator if denominator else None


def metrics(cm: ConfusionMatrix) -> MetricsReport:
    """Compute accuracy, sensitivity, and specificity from a matrix."""
    return MetricsReport(
        accuracy=_ratio(cm.tp + cm.tn, cm.total),
        sensitivity=_ratio(cm.tp, cm.tp + cm.fn),
        specificity=_ratio(cm.tn, cm.tn + cm.fp),
    )


def evaluate_dataset(
    cases, threshold_deg: float = DEFAULT_THRESHOLD_DEG
) -> tuple[list[CaseRecord], ConfusionMatrix, MetricsReport]:
    """Classify (case_id, actual, measured_deg) triples and score them.

    A repeated case id or an angle outside [0, 180] raises, naming the case.
    """
    records = []
    seen = set()
    for case_id, actual, measured_deg in cases:
        if case_id in seen:
            raise DatasetFormatError(f"case id {case_id!r} appears more than once")
        seen.add(case_id)
        measured = float(measured_deg)
        if not 0.0 <= measured <= 180.0:
            raise DatasetFormatError(
                f"case {case_id!r}: measured angle {measured} outside [0, 180]"
            )
        records.append(
            CaseRecord(
                case_id=case_id,
                actual=actual,
                measured_deg=measured,
                predicted=classify(measured, threshold_deg),
            )
        )
    cm = confusion((r.actual, r.predicted) for r in records)
    return records, cm, metrics(cm)


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
