"""Classification, confusion counting, metrics, and dataset scoring."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kpcurve.evaluation import (
    DatasetFormatError,
    Diagnosis,
    classify,
    evaluate_dataset,
    metrics,
    read_dataset_csv,
    read_labels_csv,
    round_half_up,
)

# the two published confusion matrices used as golden fixtures
MATRIX_FINAL = {"tp": 29, "fp": 0, "fn": 1, "tn": 30}
MATRIX_BASELINE = {"tp": 21, "fp": 5, "fn": 9, "tn": 25}
ZERO_COUNTS = {"tp": 0, "fp": 0, "fn": 0, "tn": 0}

diag = st.sampled_from(list(Diagnosis))
# an angle on each side of the default 30-degree threshold
ANGLE = {Diagnosis.PD: 45.0, Diagnosis.NORMAL: 12.0}


def counts_of(pairs):
    """evaluate_dataset's confusion counts of (actual, predicted) pairs."""
    cases = [(f"c{i}", actual, ANGLE[guess]) for i, (actual, guess) in enumerate(pairs)]
    return evaluate_dataset(cases)[1]


def rounded(scores):
    return {name: round_half_up(value) for name, value in scores.items()}


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
        assert counts_of(pairs) == MATRIX_FINAL

    def test_baseline_matrix_cells(self):
        pairs = (
            [(Diagnosis.PD, Diagnosis.PD)] * 21
            + [(Diagnosis.PD, Diagnosis.NORMAL)] * 9
            + [(Diagnosis.NORMAL, Diagnosis.PD)] * 5
            + [(Diagnosis.NORMAL, Diagnosis.NORMAL)] * 25
        )
        assert counts_of(pairs) == MATRIX_BASELINE

    def test_empty_is_all_zero(self):
        rows, counts, _ = evaluate_dataset([])
        assert rows == []
        assert list(counts.items()) == list(ZERO_COUNTS.items())  # the report's key order

    @given(pairs=st.lists(st.tuples(diag, diag), max_size=200))
    @settings(max_examples=150)
    def test_counting_conservation(self, pairs):
        counts = counts_of(pairs)
        assert list(counts) == ["tp", "fp", "fn", "tn"]
        assert sum(counts.values()) == len(pairs)
        assert min(counts.values()) >= 0


class TestMetrics:
    def test_final_dataset_values(self):
        scores = metrics(**MATRIX_FINAL)
        assert scores["accuracy"] == pytest.approx(59 / 60)
        assert scores["sensitivity"] == pytest.approx(29 / 30)
        assert scores["specificity"] == 1.0
        assert rounded(scores) == {
            "accuracy": 0.98,
            "sensitivity": 0.97,
            "specificity": 1.0,
        }

    def test_baseline_dataset_values(self):
        scores = metrics(**MATRIX_BASELINE)
        assert scores["accuracy"] == pytest.approx(46 / 60)
        assert scores["sensitivity"] == pytest.approx(0.70)
        assert scores["specificity"] == pytest.approx(25 / 30)
        assert rounded(scores) == {
            "accuracy": 0.77,
            "sensitivity": 0.7,
            "specificity": 0.83,
        }

    def test_zero_matrix_all_undefined(self):
        assert metrics(**ZERO_COUNTS) == {
            "accuracy": None,
            "sensitivity": None,
            "specificity": None,
        }

    def test_partial_undefined(self):
        scores = metrics(tp=0, fp=0, fn=0, tn=5)
        assert scores["sensitivity"] is None
        assert scores["specificity"] == 1.0
        assert scores["accuracy"] == 1.0

    @given(
        tp=st.integers(0, 500),
        fp=st.integers(0, 500),
        fn=st.integers(0, 500),
        tn=st.integers(0, 500),
    )
    @settings(max_examples=200)
    def test_brute_force_recomputation(self, tp, fp, fn, tn):
        scores = metrics(tp, fp, fn, tn)
        total = tp + fp + fn + tn
        if total:
            assert abs(scores["accuracy"] - (tp + tn) / total) < 1e-12
            assert 0.0 <= scores["accuracy"] <= 1.0
        else:
            assert scores["accuracy"] is None
        if tp + fn:
            assert abs(scores["sensitivity"] - tp / (tp + fn)) < 1e-12
        else:
            assert scores["sensitivity"] is None
        if tn + fp:
            assert abs(scores["specificity"] - tn / (tn + fp)) < 1e-12
        else:
            assert scores["specificity"] is None


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


class TestEvaluateDataset:
    def _dataset(self, counts: dict):
        cases = []
        for i in range(counts["tp"]):
            cases.append((f"tp{i}", Diagnosis.PD, 45.0))
        for i in range(counts["fn"]):
            cases.append((f"fn{i}", Diagnosis.PD, 12.0))
        for i in range(counts["fp"]):
            cases.append((f"fp{i}", Diagnosis.NORMAL, 61.0))
        for i in range(counts["tn"]):
            cases.append((f"tn{i}", Diagnosis.NORMAL, 8.0))
        return cases

    def test_reproduces_final_dataset(self):
        rows, counts, scores = evaluate_dataset(self._dataset(MATRIX_FINAL))
        assert len(rows) == 60
        assert counts == MATRIX_FINAL
        assert scores == metrics(**MATRIX_FINAL)
        assert rounded(scores) == {
            "accuracy": 0.98,
            "sensitivity": 0.97,
            "specificity": 1.0,
        }

    def test_all_normal_zero_angle(self):
        cases = [(f"n{i}", Diagnosis.NORMAL, 0.0) for i in range(10)]
        _, counts, scores = evaluate_dataset(cases)
        assert counts == {"tp": 0, "fp": 0, "fn": 0, "tn": 10}
        assert scores["specificity"] == 1.0
        assert scores["sensitivity"] is None

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
            _, _, scores = evaluate_dataset(cases, float(threshold))
            sens, spec = scores["sensitivity"], scores["specificity"]
            if prev_sens is not None and sens is not None:
                assert sens <= prev_sens + 1e-12
            if prev_spec is not None and spec is not None:
                assert spec >= prev_spec - 1e-12
            prev_sens = sens if sens is not None else prev_sens
            prev_spec = spec if spec is not None else prev_spec

    def test_record_contents(self):
        rows, _, _ = evaluate_dataset([("k", Diagnosis.NORMAL, 31.5)])
        # the report's row, in its key order; 31.5 is above the default threshold
        assert list(rows[0].items()) == [
            ("case_id", "k"),
            ("actual", "normal"),
            ("measured_deg", 31.5),
            ("predicted", "pd"),
        ]


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
