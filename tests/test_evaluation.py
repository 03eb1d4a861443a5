"""Classification, confusion counting, metrics, and dataset scoring."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kpcurve.evaluation import (
    ConfusionMatrix,
    DatasetFormatError,
    Diagnosis,
    classify,
    confusion,
    evaluate_dataset,
    metrics,
    read_dataset_csv,
    read_labels_csv,
    round_half_up,
)

# the two published confusion matrices used as golden fixtures
MATRIX_FINAL = ConfusionMatrix(tp=29, fp=0, fn=1, tn=30)
MATRIX_BASELINE = ConfusionMatrix(tp=21, fp=5, fn=9, tn=25)

diag = st.sampled_from(list(Diagnosis))


class TestClassify:
    def test_reference_positive(self):
        assert classify(67.51) is Diagnosis.PD

    def test_reference_negative(self):
        assert classify(3.75) is Diagnosis.NORMAL

    def test_threshold_is_strict(self):
        assert classify(30.0) is Diagnosis.NORMAL
        assert classify(30.0 + 1e-9) is Diagnosis.PD

    def test_custom_threshold(self):
        assert classify(25.0, threshold_deg=20.0) is Diagnosis.PD
        assert classify(25.0, threshold_deg=25.0) is Diagnosis.NORMAL

    @pytest.mark.parametrize("bad", [-0.1, 180.1])
    def test_measured_range_enforced(self, bad):
        with pytest.raises(ValueError):
            classify(bad)

    @pytest.mark.parametrize("bad", [0.0, 180.0, -5.0])
    def test_threshold_range_enforced(self, bad):
        with pytest.raises(ValueError):
            classify(40.0, threshold_deg=bad)

    @given(
        measured=st.floats(0.0, 180.0),
        low=st.floats(1.0, 178.0),
        bump=st.floats(0.1, 10.0),
    )
    @settings(max_examples=200)
    def test_raising_threshold_never_creates_positive(self, measured, low, bump):
        high = min(low + bump, 179.9)
        if classify(measured, low) is Diagnosis.NORMAL:
            assert classify(measured, high) is Diagnosis.NORMAL


class TestConfusion:
    def test_final_matrix_cells(self):
        pairs = (
            [(Diagnosis.PD, Diagnosis.PD)] * 29
            + [(Diagnosis.PD, Diagnosis.NORMAL)] * 1
            + [(Diagnosis.NORMAL, Diagnosis.NORMAL)] * 30
        )
        assert confusion(pairs) == MATRIX_FINAL

    def test_baseline_matrix_cells(self):
        pairs = (
            [(Diagnosis.PD, Diagnosis.PD)] * 21
            + [(Diagnosis.PD, Diagnosis.NORMAL)] * 9
            + [(Diagnosis.NORMAL, Diagnosis.PD)] * 5
            + [(Diagnosis.NORMAL, Diagnosis.NORMAL)] * 25
        )
        assert confusion(pairs) == MATRIX_BASELINE

    def test_empty_is_all_zero(self):
        assert confusion([]) == ConfusionMatrix(0, 0, 0, 0)

    @given(pairs=st.lists(st.tuples(diag, diag), max_size=200))
    @settings(max_examples=150)
    def test_counting_conservation(self, pairs):
        cm = confusion(pairs)
        assert cm.total == len(pairs)
        assert min(cm.tp, cm.fp, cm.fn, cm.tn) >= 0


class TestMetrics:
    def test_final_dataset_values(self):
        report = metrics(MATRIX_FINAL)
        assert report.accuracy == pytest.approx(59 / 60)
        assert report.sensitivity == pytest.approx(29 / 30)
        assert report.specificity == 1.0
        assert report.rounded() == {
            "accuracy": 0.98,
            "sensitivity": 0.97,
            "specificity": 1.0,
        }

    def test_baseline_dataset_values(self):
        report = metrics(MATRIX_BASELINE)
        assert report.accuracy == pytest.approx(46 / 60)
        assert report.sensitivity == pytest.approx(0.70)
        assert report.specificity == pytest.approx(25 / 30)
        assert report.rounded() == {
            "accuracy": 0.77,
            "sensitivity": 0.7,
            "specificity": 0.83,
        }

    def test_zero_matrix_all_undefined(self):
        report = metrics(ConfusionMatrix(0, 0, 0, 0))
        assert report.accuracy is None
        assert report.sensitivity is None
        assert report.specificity is None

    def test_partial_undefined(self):
        report = metrics(ConfusionMatrix(tp=0, fp=0, fn=0, tn=5))
        assert report.sensitivity is None
        assert report.specificity == 1.0
        assert report.accuracy == 1.0

    @given(
        tp=st.integers(0, 500),
        fp=st.integers(0, 500),
        fn=st.integers(0, 500),
        tn=st.integers(0, 500),
    )
    @settings(max_examples=200)
    def test_brute_force_recomputation(self, tp, fp, fn, tn):
        report = metrics(ConfusionMatrix(tp, fp, fn, tn))
        total = tp + fp + fn + tn
        if total:
            assert abs(report.accuracy - (tp + tn) / total) < 1e-12
            assert 0.0 <= report.accuracy <= 1.0
        else:
            assert report.accuracy is None
        if tp + fn:
            assert abs(report.sensitivity - tp / (tp + fn)) < 1e-12
        else:
            assert report.sensitivity is None
        if tn + fp:
            assert abs(report.specificity - tn / (tn + fp)) < 1e-12
        else:
            assert report.specificity is None


class TestRounding:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (59 / 60, 0.98),
            (29 / 30, 0.97),
            (46 / 60, 0.77),
            (25 / 30, 0.83),
            (0.775, 0.78),  # half rounds up, not to even
            (0.125, 0.13),
            (0.5, 0.5),
            (None, None),
        ],
    )
    def test_half_up_display(self, value, expected):
        assert round_half_up(value) == expected

    def test_places_parameter(self):
        assert round_half_up(0.96667, 3) == 0.967
        assert round_half_up(0.96667, 0) == 1.0


class TestEvaluateDataset:
    def _dataset(self, cm: ConfusionMatrix):
        cases = []
        for i in range(cm.tp):
            cases.append((f"tp{i}", Diagnosis.PD, 45.0))
        for i in range(cm.fn):
            cases.append((f"fn{i}", Diagnosis.PD, 12.0))
        for i in range(cm.fp):
            cases.append((f"fp{i}", Diagnosis.NORMAL, 61.0))
        for i in range(cm.tn):
            cases.append((f"tn{i}", Diagnosis.NORMAL, 8.0))
        return cases

    def test_reproduces_final_dataset(self):
        records, cm, report = evaluate_dataset(self._dataset(MATRIX_FINAL))
        assert len(records) == 60
        assert cm == MATRIX_FINAL
        assert report.rounded() == {
            "accuracy": 0.98,
            "sensitivity": 0.97,
            "specificity": 1.0,
        }

    def test_all_normal_zero_angle(self):
        cases = [(f"n{i}", Diagnosis.NORMAL, 0.0) for i in range(10)]
        _, cm, report = evaluate_dataset(cases)
        assert cm == ConfusionMatrix(tp=0, fp=0, fn=0, tn=10)
        assert report.specificity == 1.0
        assert report.sensitivity is None

    def test_duplicate_case_id_rejected(self):
        cases = [("x", Diagnosis.PD, 50.0), ("x", Diagnosis.NORMAL, 10.0)]
        with pytest.raises(DatasetFormatError, match="^case id 'x' appears more than once$"):
            evaluate_dataset(cases)

    def test_threshold_sweep_monotonicity(self):
        # brute-force sweep: sensitivity never rises, specificity never
        # falls as the threshold grows
        import numpy as np

        rng = np.random.default_rng(4)
        cases = [
            (
                f"c{i}",
                Diagnosis.PD if rng.uniform() < 0.5 else Diagnosis.NORMAL,
                float(rng.uniform(0.0, 90.0)),
            )
            for i in range(120)
        ]
        prev_sens, prev_spec = None, None
        for threshold in np.linspace(1.0, 89.0, 45):
            _, _, report = evaluate_dataset(cases, float(threshold))
            if prev_sens is not None and report.sensitivity is not None:
                assert report.sensitivity <= prev_sens + 1e-12
            if prev_spec is not None and report.specificity is not None:
                assert report.specificity >= prev_spec - 1e-12
            prev_sens = report.sensitivity if report.sensitivity is not None else prev_sens
            prev_spec = report.specificity if report.specificity is not None else prev_spec

    def test_record_contents(self):
        records, _, _ = evaluate_dataset([("k", Diagnosis.NORMAL, 31.5)])
        record = records[0]
        assert record.case_id == "k"
        assert record.measured_deg == 31.5
        assert record.predicted is Diagnosis.PD  # above default threshold


class TestDatasetCsv:
    def test_happy_path_case_insensitive(self):
        rows = read_dataset_csv(
            "case_id,actual,measured_deg\nc1,PD,67.51\nc2,Normal,3.75\nc3,pd,30.0\n"
        )
        assert rows == [
            ("c1", Diagnosis.PD, 67.51),
            ("c2", Diagnosis.NORMAL, 3.75),
            ("c3", Diagnosis.PD, 30.0),
        ]

    def test_blank_lines_skipped(self):
        rows = read_dataset_csv("case_id,actual,measured_deg\n\nc1,pd,50\n\n")
        assert len(rows) == 1

    def test_bad_header(self):
        with pytest.raises(DatasetFormatError):
            read_dataset_csv("id,truth,angle\nc1,pd,50\n")

    def test_bad_label(self):
        with pytest.raises(DatasetFormatError):
            read_dataset_csv("case_id,actual,measured_deg\nc1,sick,50\n")

    def test_bad_number(self):
        with pytest.raises(DatasetFormatError):
            read_dataset_csv("case_id,actual,measured_deg\nc1,pd,many\n")

    def test_wrong_field_count(self):
        with pytest.raises(DatasetFormatError):
            read_dataset_csv("case_id,actual,measured_deg\nc1,pd\n")

    def test_empty_document(self):
        with pytest.raises(DatasetFormatError):
            read_dataset_csv("")

    def test_header_only_yields_no_rows(self):
        assert read_dataset_csv("case_id,actual,measured_deg\n") == []


class TestLabelsCsv:
    def test_happy_path(self):
        labels = read_labels_csv("case_id,actual\na,pd\nb,NORMAL\n")
        assert labels == {"a": Diagnosis.PD, "b": Diagnosis.NORMAL}

    def test_duplicate_rejected(self):
        with pytest.raises(DatasetFormatError, match="^case id 'a' appears more than once$"):
            read_labels_csv("case_id,actual\na,pd\na,normal\n")

    def test_bad_header(self):
        with pytest.raises(DatasetFormatError):
            read_labels_csv("case,truth\na,pd\n")


def _dataset_rows(text):
    # duplicate ids in a dataset CSV are caught when the rows are scored
    return evaluate_dataset(read_dataset_csv(text))


class TestCsvMessages:
    """Exact messages of both CSV readers, line numbers counting blank rows."""

    CASES = [
        pytest.param(
            _dataset_rows, "", DatasetFormatError, "empty dataset CSV", id="dataset-empty"
        ),
        pytest.param(
            read_labels_csv, "", DatasetFormatError, "empty labels CSV", id="labels-empty"
        ),
        pytest.param(
            _dataset_rows,
            "id,truth,angle\nc1,pd,50\n",
            DatasetFormatError,
            "expected header 'case_id,actual,measured_deg', got 'id,truth,angle'",
            id="dataset-header",
        ),
        pytest.param(
            read_labels_csv,
            "case,truth\na,pd\n",
            DatasetFormatError,
            "expected header 'case_id,actual', got 'case,truth'",
            id="labels-header",
        ),
        pytest.param(
            _dataset_rows,
            "\n",
            DatasetFormatError,
            "expected header 'case_id,actual,measured_deg', got ''",
            id="dataset-blank-header",
        ),
        pytest.param(
            read_labels_csv,
            "\n\n",
            DatasetFormatError,
            "expected header 'case_id,actual', got ''",
            id="labels-blank-header",
        ),
        pytest.param(
            _dataset_rows,
            "case_id,actual,measured_deg\nc0,pd,1\n\nc1,pd\n",
            DatasetFormatError,
            "line 4: expected 3 fields, got 2",
            id="dataset-field-count",
        ),
        pytest.param(
            read_labels_csv,
            "case_id,actual\na,pd\n\nb\n",
            DatasetFormatError,
            "line 4: expected 2 fields, got 1",
            id="labels-too-few",
        ),
        pytest.param(
            read_labels_csv,
            "case_id,actual\na,pd,3\n",
            DatasetFormatError,
            "line 2: expected 2 fields, got 3",
            id="labels-too-many",
        ),
        pytest.param(
            _dataset_rows,
            "case_id,actual,measured_deg\nc1,sick,50\n",
            DatasetFormatError,
            "unknown diagnosis label 'sick'; expected 'pd' or 'normal'",
            id="dataset-label",
        ),
        pytest.param(
            read_labels_csv,
            "case_id,actual\na,sick\n",
            DatasetFormatError,
            "unknown diagnosis label 'sick'; expected 'pd' or 'normal'",
            id="labels-label",
        ),
        pytest.param(
            _dataset_rows,
            "case_id,actual,measured_deg\n\nc1,pd,many\n",
            DatasetFormatError,
            "line 3: measured_deg 'many' is not a number",
            id="dataset-number",
        ),
        pytest.param(
            _dataset_rows,
            "case_id,actual,measured_deg\nc1,pd,50\nc1,normal,3\n",
            DatasetFormatError,
            "case id 'c1' appears more than once",
            id="dataset-duplicate",
        ),
        pytest.param(
            read_labels_csv,
            "case_id,actual\na,pd\na,normal\n",
            DatasetFormatError,
            "case id 'a' appears more than once",
            id="labels-duplicate",
        ),
    ]

    @pytest.mark.parametrize("reader, text, error, message", CASES)
    def test_exact_message(self, reader, text, error, message):
        with pytest.raises(error) as info:
            reader(text)
        assert type(info.value) is error
        assert str(info.value) == message
