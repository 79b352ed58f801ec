"""Calibration tests: metric oracles, temperature baseline, head retuning."""

import importlib
import math
import tracemalloc

import numpy as np
import pytest

from geodin.bench import ShiftSpec, corrupt, make_task
from geodin.calibrate import (
    CalibConfig,
    calibrate,
    ece,
    reliability_bins,
    split_metrics,
    temperature_scale,
)
from geodin.config import load_run_config
from geodin.errors import (
    ConfigError,
    DataError,
    DomainError,
    NumericError,
    ShapeError,
    StateError,
    UnsupportedVariantError,
)
from geodin.head import HeadParams, HeadVariant, multiplier_forward
from geodin.scores import score_batch
from geodin.train import (
    TrainConfig,
    accuracy,
    extract_features,
    init_model,
    predict,
    shuffles,
    train,
)
from oracles import (
    golden_section_temperature,
    model_logits,
    reference_gap_nll,
    reference_tune_head,
    softmax_probs,
)
from test_fingerprint import SMALL_CONFIG
from test_head import thread_probe

calibrate_module = importlib.import_module("geodin.calibrate")  # the package's `calibrate` is the function


def naive_ece(conf, correct, n_bins):
    """Independent binning oracle: explicit per-bin loops."""
    conf = np.asarray(conf, dtype=float)
    correct = np.asarray(correct, dtype=bool)
    total = 0.0
    n = len(conf)
    for b in range(n_bins):
        members = [i for i in range(n) if min(int(conf[i] * n_bins), n_bins - 1) == b]
        if not members:
            continue
        acc = sum(1.0 for i in members if correct[i]) / len(members)
        avg = sum(conf[i] for i in members) / len(members)
        total += (len(members) / n) * abs(acc - avg)
    return total


class TestEce:
    def test_perfect_confident(self):
        assert ece(np.ones(10), np.ones(10, dtype=bool)) == 0.0

    def test_two_wrong_at_08(self):
        value = ece(np.array([0.8, 0.8]), np.array([False, False]))
        assert value == pytest.approx(0.8, abs=1e-12)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(1, 400))
            conf = rng.random(n)
            correct = rng.random(n) < conf
            assert abs(ece(conf, correct) - naive_ece(conf, correct, 15)) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            ece(np.array([]), np.array([], dtype=bool))

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            ece(np.array([1.2]), np.array([True]))

    @pytest.mark.parametrize("metric", [ece, reliability_bins])
    def test_mismatched_shapes_rejected(self, metric):
        with pytest.raises(DomainError, match=r"mismatched shapes \(2,\) vs \(1,\)"):
            metric([0.5, 0.5], [True])

    @pytest.mark.parametrize("metric", [ece, reliability_bins])
    def test_zero_bins_rejected(self, metric):
        with pytest.raises(DomainError, match="n_bins must be >= 1, got 0"):
            metric([0.5], [True], n_bins=0)

    @pytest.mark.parametrize("conf", [[np.nan], [0.5, np.nan]], ids=["nan", "ok-nan"])
    @pytest.mark.parametrize("metric", [ece, reliability_bins])
    def test_nan_confidence_rejected(self, metric, conf):
        with pytest.raises(DomainError, match=r"confidences must lie in \[0, 1\]"):
            metric(conf, [True] * len(conf))


class TestReliabilityBins:
    def test_single_sample_bin(self):
        bins = reliability_bins(np.array([0.33]), np.array([True]), 15)
        idx = int(0.33 * 15)
        assert bins.counts[idx] == 1
        assert bins.counts.sum() == 1

    def test_boundary_one_in_last_bin(self):
        bins = reliability_bins(np.array([1.0]), np.array([True]), 15)
        assert bins.counts[14] == 1

    def test_reconstructs_ece_exactly(self):
        rng = np.random.default_rng(1)
        conf = rng.random(500)
        correct = rng.random(500) < conf
        bins = reliability_bins(conf, correct, 15)
        total = np.sum(bins.counts / 500 * np.abs(bins.accuracy - bins.mean_confidence))
        assert total == ece(conf, correct, 15)


def calibrated_logits(n=20000, m=5, seed=3):
    """n rows of N(0, 2^2) logits and labels drawn from their own softmax, so T = 1 fits them."""
    rng = np.random.default_rng(seed)
    logits = rng.normal(0.0, 2.0, (n, m))
    probs = softmax_probs(logits)
    labels = np.array([rng.choice(m, p=probs[i]) for i in range(n)])
    return logits, labels


class TestNll:
    """The report's NLL: the mean of log(esum) - d_y over the logits' class gaps, uncapped."""

    def test_perfect_one_hot(self):
        assert split_metrics(np.eye(4) * 1000.0, np.arange(4)).nll == 0.0

    def test_uniform(self):
        for k in (2, 10, 32):
            assert split_metrics(np.full((8, k), 2.5), np.arange(8) % k).nll == math.log(k)

    def test_matches_summation_oracle(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(0.0, 3.0, (40, 5))
        y = rng.integers(0, 5, 40)
        oracle = 0.0
        for row, label in zip(logits.tolist(), y):
            top = max(row)
            oracle += top + math.log(sum(math.exp(v - top) for v in row)) - row[label]
        assert abs(split_metrics(logits, y).nll - oracle / 40) < 1e-12

    def test_label_out_of_range(self):
        for bad in (3, -1):
            with pytest.raises(IndexError):
                split_metrics(np.zeros((2, 3)), np.array([0, bad]))

    def test_underflowing_probability_is_uncapped(self):
        # The label's probability underflows to 0; its NLL is still its finite gap to the max.
        assert split_metrics([[0.0, -1000.0]], [1]).nll == 1000.0
        assert split_metrics([[0.0, -1e300]], [1]).nll == 1e300

    def test_near_tie_is_the_logits_argmax(self):
        # Both logits round to the probability 0.5, whose argmax is class 0; the logits' is class 1,
        # as ``predict`` takes it.
        logits = np.array([[0.0, 1e-17]])
        assert softmax_probs(logits)[0, 0] == softmax_probs(logits)[0, 1]
        assert np.argmax(logits, axis=1).tolist() == [1]
        assert split_metrics(logits, [1]).accuracy == 1.0

    def test_confidence_is_the_largest_probability(self):
        logits, y = calibrated_logits(500, seed=7)
        p = softmax_probs(logits)
        correct = logits.argmax(axis=1) == y
        assert split_metrics(logits, y).ece == ece(p.max(axis=1), correct)


BAD_BATCHES = {
    "nan-logit": ([[0.0, np.nan]], [0], NumericError, "non-finite logits"),
    "inf-logit": ([[np.inf, 0.0]], [0], NumericError, "non-finite logits"),
    "more-labels": ([[0.0, 1.0]], [0, 1], DomainError, r"\(1, 2\).*\(2,\)"),
    "fewer-labels": ([[0.0, 1.0], [1.0, 0.0]], [0], DomainError, r"\(2, 2\).*\(1,\)"),
    "empty": (np.zeros((0, 3)), np.zeros(0, dtype=int), DomainError, r"\(0, 3\).*\(0,\)"),
    "one-d": ([0.0, 1.0], [0, 1], DomainError, r"\(2,\).*\(2,\)"),
    "label-k": ([[0.0, 1.0, 2.0]] * 2, [0, 3], IndexError, "label out of range"),
    "label-minus-1": ([[0.0, 1.0, 2.0]] * 2, [0, -1], IndexError, "label out of range"),
}


@pytest.mark.parametrize("case", sorted(BAD_BATCHES))
@pytest.mark.parametrize("fn", [split_metrics, temperature_scale])
def test_bad_logits_or_labels_raise_the_same_error(fn, case):
    logits, labels, error, message = BAD_BATCHES[case]
    with pytest.raises(error, match=message):  # RuntimeWarnings fail tier-1, so none precedes the error
        fn(logits, labels)


@pytest.mark.parametrize("fn", [split_metrics, temperature_scale])
def test_a_label_that_is_not_an_integer_is_rejected(fn):
    # A cast to int64 alone would read these as [0, 1, 2]: accuracy 1.0, and the T of those labels.
    with pytest.raises(DataError, match="labels label 0 is not an integer"):
        fn(np.eye(3), [0.9, 1.5, 2.99])


@pytest.mark.parametrize("fn", [split_metrics, temperature_scale])
def test_whole_valued_float_labels_give_the_results_of_their_integers(fn):
    assert fn(np.eye(3), [0.0, 1.0, 2.0]) == fn(np.eye(3), [0, 1, 2])
    logits, labels = calibrated_logits(500, seed=8)
    assert fn(logits, labels.astype(np.float64)) == fn(logits, labels)


class TestTemperatureScale:
    def test_calibrated_gives_unit_temperature(self):
        logits, labels = calibrated_logits()
        assert abs(temperature_scale(logits, labels) - 1.0) <= 0.05

    def test_scaled_logits_recover_scale(self):
        logits, labels = calibrated_logits(seed=4)
        t = temperature_scale(10.0 * logits, labels)
        assert abs(t - 10.0) / 10.0 <= 0.05

    def test_predictions_unchanged(self):
        logits, labels = calibrated_logits(500, seed=5)
        t = temperature_scale(logits, labels)
        np.testing.assert_array_equal((logits / t).argmax(axis=1), logits.argmax(axis=1))

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            temperature_scale(np.zeros((0, 3)), np.zeros(0, dtype=int))

    @pytest.mark.parametrize("scale", [0.03, 0.3, 1.0, 3.0, 30.0])
    def test_matches_the_golden_section_search(self, scale):
        # The labels are drawn from softmax(logits), so T = scale fits scale * logits; at 0.03 and 30
        # that lies past the bracket [e^-3, e^3] = [0.0498, 20.1], and both searches end at its edge.
        logits, labels = calibrated_logits(5000, seed=int(scale * 100))
        t = temperature_scale(scale * logits, labels)
        assert t == pytest.approx(golden_section_temperature(scale * logits, labels), rel=1e-7)

    @pytest.mark.parametrize("scale,edge", [(1e-3, -3.0), (1e3, 3.0)], ids=["low", "high"])
    def test_bracket_edges(self, scale, edge):
        logits, labels = calibrated_logits(2000, seed=9)
        t = temperature_scale(scale * logits, labels)
        assert t == pytest.approx(math.exp(edge), rel=1e-7)
        assert t == pytest.approx(golden_section_temperature(scale * logits, labels), rel=1e-7)

    def test_flat_nll_gives_the_upper_edge(self):
        # Uniform logits: every T gives NLL log k, and both searches end at T = e^3.
        logits, labels = np.zeros((6, 3)), np.arange(6) % 3
        assert temperature_scale(logits, labels) == pytest.approx(math.exp(3.0), rel=1e-7)
        assert golden_section_temperature(logits, labels) == pytest.approx(math.exp(3.0), rel=1e-7)


@pytest.fixture(scope="module")
def trained_task_model():
    task = make_task(6, 12, 120, 0.15, seed=21)
    model = train(TrainConfig(epochs=25, seed=21, hidden=(32, 32), feature_dim=12), task.train, n_classes=6)
    return task, model


class TestCalibrate:
    def test_vanilla_unsupported(self, trained_task_model):
        task, _ = trained_task_model
        vanilla = train(
            TrainConfig(epochs=2, seed=1, variant=HeadVariant.VANILLA, hidden=(8,), feature_dim=4),
            task.train,
            n_classes=6,
        )
        with pytest.raises(UnsupportedVariantError, match="temperature"):
            calibrate(vanilla, task.val, CalibConfig(folds=0))

    def test_empty_validation_rejected(self, trained_task_model):
        _, model = trained_task_model
        with pytest.raises(DomainError):
            calibrate(model, (np.zeros((0, 12)), np.zeros(0, dtype=int)), CalibConfig(folds=0))

    @pytest.mark.filterwarnings("error")
    def test_empty_eval_split_rejected_before_tuning(self, trained_task_model, monkeypatch):
        task, model = trained_task_model
        tuned = []
        monkeypatch.setattr(calibrate_module, "_tune_head", lambda *args: tuned.append(args))
        empty = {"test": task.test, "shifted": (task.test[0][:0], task.test[1][:0])}
        with pytest.raises(DomainError, match="split 'shifted' is empty"):
            calibrate(model, task.val, CalibConfig(folds=0, epochs=2), eval_sets=empty)
        assert tuned == []

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "labels,error,message",
        [
            (lambda y: y[:-1], DomainError, r"split 'test' has labels of shape \(143,\) for its 144 rows"),
            (lambda y: np.where(np.arange(len(y)) == 5, 7, y), IndexError, r"split 'test': label out of range \[0, 6\)"),
        ],
        ids=["short", "label-7-of-6"],
    )
    def test_bad_eval_labels_rejected_before_tuning(self, trained_task_model, monkeypatch, labels, error, message):
        task, model = trained_task_model
        tuned = []
        monkeypatch.setattr(calibrate_module, "_tune_head", lambda *args: tuned.append(args))
        X, y = task.test
        with pytest.raises(error, match=message):
            calibrate(model, task.val, CalibConfig(folds=0, epochs=2), eval_sets={"test": (X, labels(y))})
        assert tuned == []

    def test_an_eval_split_named_val_is_rejected(self, trained_task_model, monkeypatch):
        # It would replace the tuning split: with equal sizes, tuning would pair its labels with test features.
        task, model = trained_task_model
        calls = _spied(monkeypatch)
        with pytest.raises(DomainError, match="split name 'val' is reserved for the tuning split"):
            calibrate(model, task.val, CalibConfig(folds=0, epochs=2), eval_sets={"val": task.test})
        assert calls == []

    @pytest.mark.parametrize(
        "split,row,value,error,message",
        [
            ("val", 3, math.nan, DataError, "split 'val' row 3 is not finite"),
            ("test", 5, math.inf, DataError, "split 'test' row 5 is not finite"),
            ("test", None, None, ShapeError, r"split 'test': input row shape \(11,\) does not match model d_in 12"),
        ],
        ids=["nan-val-row", "inf-test-row", "narrow-test-rows"],
    )
    def test_bad_rows_rejected_before_extraction_or_tuning(
        self, trained_task_model, monkeypatch, split, row, value, error, message
    ):
        task, model = trained_task_model
        sets = {"val": [task.val[0].copy(), task.val[1]], "test": [task.test[0].copy(), task.test[1]]}
        if row is None:
            sets[split][0] = sets[split][0][:, :-1]
        else:
            sets[split][0][row, 4] = value
        calls = _spied(monkeypatch)
        with pytest.raises(error, match=message):
            calibrate(model, sets["val"], CalibConfig(folds=0, epochs=2), eval_sets={"test": sets["test"]})
        assert calls == []

    def test_an_untrained_model_is_rejected_before_extraction(self, trained_task_model, monkeypatch):
        # Its result would be saved as calibrated but untrained, a checkpoint that detect and calibrate refuse.
        task, model = trained_task_model
        fresh = init_model(TrainConfig(), model.extractor.d_in, model.head.n_classes)
        calls = _spied(monkeypatch)
        with pytest.raises(StateError, match="model has not been trained"):
            calibrate(fresh, task.val, CalibConfig(epochs=1))
        assert calls == []

    @pytest.mark.parametrize("split", ["val", "test"])
    def test_a_label_that_is_not_an_integer_is_rejected_before_extraction(self, trained_task_model, monkeypatch, split):
        # A cast to int64 alone would truncate 1.7 to 1 and tune or score on that label.
        task, model = trained_task_model
        sets = {"val": task.val, "test": task.test}
        y = sets[split][1].astype(np.float64)
        y[6] += 0.7
        sets[split] = (sets[split][0], y)
        calls = _spied(monkeypatch)
        with pytest.raises(DataError, match=f"split '{split}' label 6 is not an integer"):
            calibrate(model, sets["val"], CalibConfig(folds=0, epochs=2), eval_sets={"test": sets["test"]})
        assert calls == []

    def test_whole_valued_float_labels_calibrate_as_their_integers(self, trained_task_model):
        task, model = trained_task_model
        config = CalibConfig(folds=0, epochs=2)
        new_model, report = calibrate(model, (task.val[0], task.val[1].astype(np.float64)), config)
        expected_model, expected_report = calibrate(model, task.val, config)
        assert new_model.flat.tobytes() == expected_model.flat.tobytes() and report == expected_report

    def test_each_split_is_extracted_once_and_each_eval_split_after_tuning(self, trained_task_model, monkeypatch):
        task, model = trained_task_model
        config = CalibConfig(seed=21, epochs=2, folds=3)
        X, y = task.test
        sets = {"a": (X[:70], y[:70]), "b": (X[70:], y[70:])}
        alone = {name: calibrate(model, task.val, config, eval_sets={name: s})[1] for name, s in sets.items()}
        calls = _spied(monkeypatch, run=True)
        _, report = calibrate(model, task.val, config, eval_sets=sets)
        assert [call for call, _ in calls] == ["extract_features", "_tune_head", "extract_features", "extract_features"]
        for (_, rows), expected in zip(calls[::2], (task.val[0], sets["a"][0], sets["b"][0])):
            assert rows.tobytes() == expected.tobytes()
        assert list(report.splits) == ["val", "a", "b"]
        for name, one in alone.items():
            assert report.splits["val"] == one.splits["val"] and report.splits[name] == one.splits[name]
            for key in ("nll_before", "nll_after", "best_epoch", "folds", "cv_mean", "cv_std"):
                assert getattr(report, key) == getattr(one, key)

    def test_overconfident_model_improves(self, trained_task_model):
        task, model = trained_task_model
        over = _inflated(model)
        val = corrupt(task.val, ShiftSpec("gaussian_noise", 3), seed=task.seed)
        before = split_metrics(model_logits(over, val[0]), val[1])
        cal, report = calibrate(over, val, CalibConfig(seed=21, folds=0))
        after = report.splits["val"]["after"]
        assert after.ece < before.ece
        assert report.nll_after < report.nll_before

    def test_single_sample_eval_set(self, trained_task_model):
        task, model = trained_task_model
        X, y = task.test
        config = CalibConfig(seed=21, folds=0, epochs=2)
        _, row = calibrate(model, task.val, config, eval_sets={"one": (X[0], y[:1])})
        _, batch = calibrate(model, task.val, config, eval_sets={"one": (X[:1], y[:1])})
        assert row.splits["one"] == batch.splits["one"]

    def test_single_sample_tuning_split(self, trained_task_model):
        task, model = trained_task_model
        X, y = task.test
        config = CalibConfig(seed=21, folds=0, epochs=2)
        _, row = calibrate(model, (X[0], y[:1]), config)
        _, batch = calibrate(model, (X[:1], y[:1]), config)
        assert row.to_dict() == batch.to_dict()

    def test_argmax_and_scores_immutable(self, trained_task_model):
        task, model = trained_task_model
        cal, _ = calibrate(model, task.val, CalibConfig(seed=21, folds=0))
        X = task.test[0]
        np.testing.assert_array_equal(predict(cal, X), predict(model, X))
        f0 = extract_features(model, X)
        f1 = extract_features(cal, X)
        s0 = score_batch(f0, model.head.W)
        s1 = score_batch(f1, cal.head.W)
        for name in ("g", "h", "u"):
            assert s0[name].tobytes() == s1[name].tobytes()

    def test_only_head_scalars_move(self, trained_task_model):
        task, model = trained_task_model
        cal, _ = calibrate(model, task.val, CalibConfig(seed=21, folds=0))
        for (Wa, ba), (Wb, bb) in zip(model.extractor.layers, cal.extractor.layers):
            assert Wa.tobytes() == Wb.tobytes() and ba.tobytes() == bb.tobytes()
        assert model.head.W.tobytes() == cal.head.W.tobytes()
        moved = (
            model.head.alpha_w.tobytes() != cal.head.alpha_w.tobytes()
            or model.head.alpha_b != cal.head.alpha_b
            or model.head.beta_w.tobytes() != cal.head.beta_w.tobytes()
            or model.head.beta_b != cal.head.beta_b
        )
        assert moved

    def test_tuning_nll_never_increases(self, trained_task_model):
        task, model = trained_task_model
        _, report = calibrate(model, task.val, CalibConfig(seed=21, folds=0))
        assert report.nll_after <= report.nll_before

    def test_fixed_point(self, trained_task_model):
        # Settle to the NLL optimum with full-batch descent; a second
        # calibration then finds nothing to improve and barely moves.
        task, model = trained_task_model
        n_val = task.val[0].shape[0]
        settled, _ = calibrate(
            model, task.val, CalibConfig(epochs=5000, batch_size=n_val, lr0=2.0, seed=21, folds=0)
        )
        recal, report = calibrate(settled, task.val, CalibConfig(epochs=20, seed=22, folds=0))
        assert abs(report.nll_after - report.nll_before) <= 1e-6
        assert np.max(np.abs(recal.head.alpha_w - settled.head.alpha_w)) < 0.05
        assert np.max(np.abs(recal.head.beta_w - settled.head.beta_w)) < 0.05

    def test_cross_validation_summary(self, trained_task_model):
        task, model = trained_task_model
        _, report = calibrate(model, task.val, CalibConfig(seed=21, folds=5))
        assert len(report.folds) == 5
        assert set(report.cv_mean) == {"accuracy", "ece", "nll"}
        doc = report.to_dict()
        assert "folds" in doc and len(doc["folds"]) == 5

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("fault", ["inf_parameter", "overflowing_logits", "inf_tuned_head"])
    def test_non_finite_is_a_numeric_error(self, trained_task_model, monkeypatch, fault):
        task, model = trained_task_model
        broken = _inflated(model)
        if fault == "inf_parameter":
            broken.head.beta_b[...] = math.inf
        elif fault == "overflowing_logits":
            broken.head.alpha_b[...] = -800.0  # alpha underflows to 0, so m = 1/alpha is inf
            steps = []
            monkeypatch.setattr(calibrate_module, "momentum_step", lambda *args: steps.append(args))
        else:
            tune = calibrate_module._tune_head

            def inf_tuned_head(*args):
                head, *rest = tune(*args)
                head.alpha_b[...] = math.inf
                return (head, *rest)

            monkeypatch.setattr(calibrate_module, "_tune_head", inf_tuned_head)
        with pytest.raises(NumericError):
            calibrate(broken, task.val, CalibConfig(seed=21, folds=0, epochs=2))
        if fault == "overflowing_logits":
            assert steps == []  # raised on the NLL before tuning, before any optimizer step

    def test_negative_label_rejected(self, trained_task_model, monkeypatch):
        # The tuning steps do not check labels: the NLL before tuning must, before any step.
        task, model = trained_task_model
        X, y = task.val
        y = y.copy()
        y[7] = -1
        steps = []
        monkeypatch.setattr(calibrate_module, "momentum_step", lambda *args, **kwargs: steps.append(args))
        with pytest.raises(IndexError, match="label out of range"):
            calibrate(model, (X, y), CalibConfig(folds=0, epochs=2))
        assert steps == []

    def test_folds_exceeding_samples_rejected(self, trained_task_model):
        _, model = trained_task_model
        X = np.abs(np.random.default_rng(0).normal(size=(3, 12)))
        with pytest.raises(ConfigError):
            calibrate(model, (X, np.array([0, 1, 2])), CalibConfig(folds=5))


def _fold_oracle(model, val_set, config):
    """The tuning split's (F, d, ||f||, d_y), the folds' held-out and rest rows,
    and each fold's head tuned on its own, as a stack of one."""
    X, y = val_set
    val = calibrate_module._gap_split(extract_features(model, X), np.asarray(y, dtype=np.int64), model.head)
    pieces = np.array_split(next(shuffles(len(y), config.seed, 3)), config.folds)
    rests = [np.concatenate(pieces[:k] + pieces[k + 1 :]) for k in range(config.folds)]
    return val, pieces, rests, [calibrate_module._tune_head(model.head, val, rest[None], config) for rest in rests]


@pytest.fixture(scope="module")
def fingerprint_model(tmp_path_factory):
    """The golden-digest config's model, its 48-row tuning split and calibration config."""
    path = tmp_path_factory.mktemp("fingerprint_calibrate") / "small.cfg"
    path.write_text(SMALL_CONFIG, encoding="utf-8")
    cfg = load_run_config(path)
    t = cfg.task
    task = make_task(t.k, t.d_in, t.n_per_class, t.noise, t.seed, val_frac=t.val_frac, test_frac=t.test_frac)
    model = train(cfg.train.config(t.seed), task.train, n_classes=t.k)
    return model, task.val, cfg.calibrate.config(t.seed)


@pytest.fixture(scope="module", params=["alpha_only", "beta_only", "alpha_beta"])
def variant_model(request, trained_task_model):
    """The 6-class task and a net of each tunable head variant trained on it."""
    task, model = trained_task_model
    if request.param == "alpha_beta":
        return task, model
    config = TrainConfig(epochs=10, seed=21, hidden=(32, 32), feature_dim=12, variant=HeadVariant(request.param))
    return task, train(config, task.train, n_classes=6)


class TestReportOnGaps:
    """The report reads every metric from the logits m * d of each split's class gaps d."""

    def test_tuning_split_nll_is_the_tuning_nll(self, fingerprint_model, variant_model):
        task, net = variant_model
        for model, val_set, config in [fingerprint_model, (net, task.val, CalibConfig(seed=21, epochs=4, folds=3))]:
            _, report = calibrate(model, val_set, config)
            assert report.splits["val"]["before"].nll == report.nll_before
            assert report.splits["val"]["after"].nll == report.nll_after

    def test_tuning_changes_no_accuracy(self, variant_model):
        task, model = variant_model
        _, report = calibrate(model, task.val, CalibConfig(seed=21, epochs=4, folds=5), eval_sets={"test": task.test})
        assert len(report.folds) == 5
        for metrics in [*report.splits.values(), *report.folds]:
            assert metrics["before"].accuracy == metrics["after"].accuracy

    def test_each_split_runs_the_plain_part_once(self, trained_task_model, monkeypatch):
        task, model = trained_task_model
        calls = []

        def spied(name):
            run = getattr(calibrate_module, name)
            return lambda *args: calls.append(name) or run(*args)

        for name in ("extract_features", "plain_forward", "head_forward_batch"):
            monkeypatch.setattr(calibrate_module, name, spied(name))
        calibrate(model, task.val, CalibConfig(seed=21, epochs=2, folds=3), eval_sets={"test": task.test})
        assert calls == ["extract_features", "plain_forward"] * 2  # the tuning split, then the test split


class TestStackedFolds:
    """The main run and the k folds are tuned as one stack; each fold's head is
    the one a stack of one on its own rows gives, bit for bit."""

    @pytest.mark.parametrize("case", ["even", "ragged"])
    def test_stacked_folds_match_one_at_a_time(self, case, fingerprint_model, trained_task_model):
        if case == "even":
            model, val_set, config = fingerprint_model
            assert (len(val_set[1]), config.folds) == (48, 2)
        else:
            task, model = trained_task_model
            val_set, config = task.val, CalibConfig(seed=21, epochs=4, folds=5)
        val, pieces, rests, oracle = _fold_oracle(model, val_set, config)
        sizes = sorted({len(rest) for rest in rests})
        assert sizes == ([24] if case == "even" else [115, 116])
        for size in sizes:
            group = [k for k, rest in enumerate(rests) if len(rest) == size]
            heads, best_epoch, nll_before, nll_after = calibrate_module._tune_head(
                model.head, val, np.stack([rests[k] for k in group]), config
            )
            for g, k in enumerate(group):
                one_head, one_epoch, one_before, one_after = oracle[k]
                assert heads.flat[g].tobytes() == one_head.flat[0].tobytes()
                assert (best_epoch[g], nll_before[g], nll_after[g]) == (one_epoch[0], one_before[0], one_after[0])

        _, report = calibrate(model, val_set, config)
        (F, d, fn, _), y = val, val_set[1]
        for k, held in enumerate(pieces):
            head = oracle[k][0]
            logits = multiplier_forward(F[held], d[held], fn[held], head.like(head.flat[0])).logits
            assert report.folds[k]["after"] == split_metrics(logits, y[held])

    def test_twelve_folds_take_one_tune_head_call(self, trained_task_model, monkeypatch):
        task, model = trained_task_model
        config = CalibConfig(seed=21, epochs=2, folds=12)
        _, _, rests, oracle = _fold_oracle(model, task.val, config)
        calls = []
        tune = calibrate_module._tune_head

        def recorded(head, val, rows, config):
            calls.append((rows, tune(head, val, rows, config)))
            return calls[-1][1]

        monkeypatch.setattr(calibrate_module, "_tune_head", recorded)
        calibrate(model, task.val, config)
        [(rows, (heads, best_epoch, nll_before, nll_after))] = calls
        assert [len(r) for r in rows] == [144] + [132] * 12  # the main run, then the 12 folds
        for k, rest in enumerate(rests):
            [g] = [g for g, r in enumerate(rows) if np.array_equal(r, rest)]
            one_head, one_epoch, one_before, one_after = oracle[k]
            assert heads.flat[g].tobytes() == one_head.flat[0].tobytes()
            assert (best_epoch[g], nll_before[g], nll_after[g]) == (one_epoch[0], one_before[0], one_after[0])

    def test_tune_head_peak_memory_is_bounded_by_the_nll_block(self):
        # The wide split, 2560 rows at D=64, k=32, tuned for the main run and five folds of 2048 rows.
        # Copies of the folds' rows of (F, d, ||f||, d_y) alone would take 7.9 MB.
        head, val = _synthetic_split(2560, d=64, k=32)
        pieces = np.array_split(np.random.default_rng(1).permutation(2560), 5)
        rows = [np.arange(2560)] + [np.concatenate(pieces[:k] + pieces[k + 1 :]) for k in range(5)]
        tracemalloc.start()
        try:
            calibrate_module._tune_head(head, val, rows, CalibConfig(epochs=2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 << 20

    def test_lock_step_heads_of_differing_sizes_match_one_at_a_time(self, trained_task_model):
        # The whole 144-row split (read in place), a 116-row and a 115-row fold, and 24 rows, below
        # batch_size.  At 32 rows a batch the first three share full batches past step 0, where their
        # rates differ, and end each epoch on batches of 16, 20 and 19.
        task, model = trained_task_model
        config = CalibConfig(seed=21, epochs=3, batch_size=32, folds=5)
        val, _, rests, oracle = _fold_oracle(model, task.val, config)
        fold_116, fold_115 = (next(k for k, rest in enumerate(rests) if len(rest) == n) for n in (116, 115))
        rows = [np.arange(144), rests[fold_116], rests[fold_115], np.random.default_rng(5).permutation(144)[:24]]
        heads, best_epoch, nll_before, nll_after = calibrate_module._tune_head(model.head, val, rows, config)
        alone = [oracle[fold_116], oracle[fold_115]]
        alone[:0] = [calibrate_module._tune_head(model.head, val, rows[0][None], config)]
        alone += [calibrate_module._tune_head(model.head, val, rows[3][None], config)]
        for g, (one_head, one_epoch, one_before, one_after) in enumerate(alone):
            assert heads.flat[g].tobytes() == one_head.flat[0].tobytes()
            assert (best_epoch[g], nll_before[g], nll_after[g]) == (one_epoch[0], one_before[0], one_after[0])
        assert np.all(nll_after < nll_before)  # every head moved
        # The loop that tunes one head at a time on a copy of its rows gives every head's bits too.
        ref_head, ref_epoch, ref_before, ref_after = reference_tune_head(model.head, val, rows, config)
        assert heads.flat.tobytes() == ref_head.flat.tobytes()
        assert (best_epoch.tolist(), nll_before.tobytes(), nll_after.tobytes()) == (
            ref_epoch.tolist(), ref_before.tobytes(), ref_after.tobytes()
        )

    def test_row_sets_in_any_order_give_each_run_its_longest_first_bits(self):
        head, val = _synthetic_split(150)
        rng = np.random.default_rng(3)
        rows = [rng.permutation(150)[:40], np.arange(150), rng.permutation(150)[:120], rng.permutation(150)[:120]]
        config = CalibConfig(epochs=2)
        heads, *results = calibrate_module._tune_head(head, val, rows, config)
        longest_first = [1, 2, 3, 0]
        ref_heads, *ref_results = calibrate_module._tune_head(head, val, [rows[j] for j in longest_first], config)
        for g, j in enumerate(longest_first):
            assert heads.flat[j].tobytes() == ref_heads.flat[g].tobytes()
            assert [r[j].tobytes() for r in results] == [r[g].tobytes() for r in ref_results]
        assert len({h.tobytes() for h in heads.flat}) == 4  # four distinct runs

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad_slice", [0, 2])
    def test_non_finite_nll_in_one_slice_raises_before_any_step(self, trained_task_model, monkeypatch, bad_slice):
        task, model = trained_task_model
        F, d, fn, dy = calibrate_module._gap_split(extract_features(model, task.val[0]), task.val[1], model.head)
        rows = np.random.default_rng(0).permutation(len(F))[:120].reshape(3, 40)  # three disjoint row sets
        bad = rows[bad_slice, 0]
        d[bad, task.val[1][bad]] = dy[bad] = -math.inf  # as if s_max - s_y overflowed: that row's NLL is inf
        val = (F, d, fn, dy)
        steps = []
        monkeypatch.setattr(calibrate_module, "momentum_step", lambda *args: steps.append(args))
        with pytest.raises(NumericError, match="non-finite tuning NLL"):
            calibrate_module._tune_head(model.head, val, rows, CalibConfig(seed=21, epochs=2))
        assert steps == []


def _synthetic_split(rows: int, d: int = 12, k: int = 6, seed: int = 0, variant=HeadVariant.ALPHA_BETA):
    """A random head and a tuning split (F, d, ||f||, d_y) of ``rows`` rows for it."""
    rng = np.random.default_rng(seed)
    head = HeadParams(np.zeros(HeadParams.size(k, d)), k, d, variant)
    head.W[:] = rng.uniform(-1.0 / np.sqrt(d), 1.0 / np.sqrt(d), size=head.W.shape)
    head.alpha_w[:] = rng.normal(0.0, 0.3, d)
    head.beta_w[:] = rng.normal(0.0, 0.3, d)
    F = np.abs(rng.normal(0.0, 1.0, (rows, d)))
    F[0] = 0.0  # a degenerate row: ||f|| = 0 and s = 0
    return head, calibrate_module._gap_split(F, rng.integers(0, k, rows), head)


def _nll_block(G: int, k: int) -> int:
    """Rows per block of the tuning NLL for a stack of G heads over k classes."""
    return max(64, calibrate_module.NLL_LOGITS // (G * k) // 64 * 64)


def _one_shot_nll(heads, val, rows):
    """The mean gap NLL of each head over its gathered rows, in one shot."""
    nll = [reference_gap_nll(heads.like(heads.flat[g]), *(a[r] for a in val)) for g, r in enumerate(rows)]
    return np.array([x.sum() / len(x) for x in nll])


class TestBlockedTuningNll:
    """The per-epoch tuning NLL runs every head over the whole split in order, block by block; each
    head's is the one-shot gap NLL over its gathered rows, the formulation of
    ``oracles.reference_tune_head``, bit for bit."""

    @pytest.mark.parametrize("n", [365, 366, 1501])
    @pytest.mark.parametrize("G", [1, 5])
    def test_matches_the_one_shot_nll(self, G, n):
        # The 1501-row split fits one block here; the test below spans three.
        head, val = _synthetic_split(1501)
        rng = np.random.default_rng(n)
        rows = np.stack([rng.permutation(len(val[0]))[:n] for _ in range(G)])
        tuned, _, before, after = calibrate_module._tune_head(head, val, rows, CalibConfig(epochs=2, batch_size=256))
        assert before.tobytes() == _one_shot_nll(head.like(np.tile(head.flat, (G, 1))), val, rows).tobytes()
        assert after.tobytes() == _one_shot_nll(tuned, val, rows).tobytes()
        assert np.all(after <= before)

    @pytest.mark.parametrize("tail", [-1, 1], ids=["tail-1", "tail+1"])
    @pytest.mark.parametrize("G", [1, 5])
    def test_three_blocks_match_the_one_shot_nll(self, G, tail, monkeypatch):
        block = _nll_block(G, 32)
        n = 2 * block + 3 * 64 + tail  # two full blocks and a ragged third of 64*3 +- 1 rows
        head, val = _synthetic_split(n, k=32)
        rng = np.random.default_rng(n)
        rows = [np.arange(n)] + [rng.permutation(n)[: n - 100] for _ in range(G - 1)]
        blocks, gap_cross_entropy = [], calibrate_module.gap_cross_entropy

        def counted(logits, *args, grad_m=False, **kwargs):
            if not grad_m:
                blocks.append(logits.shape)
            return gap_cross_entropy(logits, *args, grad_m=grad_m, **kwargs)

        monkeypatch.setattr(calibrate_module, "gap_cross_entropy", counted)
        tuned, _, before, after = calibrate_module._tune_head(head, val, rows, CalibConfig(epochs=2, batch_size=256))
        # The NLL before tuning and after each epoch: every head over all n rows, in order.
        assert blocks == [(G, block, 32), (G, block, 32), (G, 3 * 64 + tail, 32)] * 3
        assert before.tobytes() == _one_shot_nll(head.like(np.tile(head.flat, (G, 1))), val, rows).tobytes()
        assert after.tobytes() == _one_shot_nll(tuned, val, rows).tobytes()
        assert np.all(after <= before)

    def test_two_classes_take_blocks_past_one_multiplier_block(self):
        # At k=2 and G=2 an NLL block holds 16384 rows, past _matvec's 4096-row block at D=64.
        assert _nll_block(2, 2) == 16384
        head, val = _synthetic_split(16500, d=64, k=2)
        rows = [np.arange(16500), np.random.default_rng(3).permutation(16500)[:16000]]
        tuned, _, before, after = calibrate_module._tune_head(head, val, rows, CalibConfig(epochs=1, batch_size=4096))
        assert before.tobytes() == _one_shot_nll(head.like(np.tile(head.flat, (2, 1))), val, rows).tobytes()
        assert after.tobytes() == _one_shot_nll(tuned, val, rows).tobytes()

    def test_heads_on_the_whole_split_in_order_match_one_at_a_time(self):
        head, val = _synthetic_split(150)
        rows = np.stack([np.arange(150), np.arange(150), np.random.default_rng(2).permutation(150)])
        config = CalibConfig(epochs=2)
        tuned, *results = calibrate_module._tune_head(head, val, rows, config)
        ref_tuned, *ref_results = reference_tune_head(head, val, rows, config)
        assert tuned.flat.tobytes() == ref_tuned.flat.tobytes()
        assert [r.tobytes() for r in results] == [r.tobytes() for r in ref_results]

    @pytest.mark.parametrize("bad", [6, -1])
    def test_out_of_range_label_rejected_when_the_gaps_are_taken(self, bad):
        # A negative label would silently pick its row's last gap.
        head, (F, *_) = _synthetic_split(150)
        y = np.random.default_rng(4).integers(0, 6, 150)
        y[-1] = bad
        with pytest.raises(IndexError, match="label out of range"):
            calibrate_module._gap_split(F, y, head)

    def test_tuned_heads_hold_at_one_and_two_blas_threads(self):
        assert thread_probe(1, TUNE_PROBE) == thread_probe(2, TUNE_PROBE)


# Run in a child process at a given OpenBLAS thread count: the digest of three heads tuned on a
# split whose alpha/beta products (9001 or 8001 rows at D=64) exceed the size at which OpenBLAS
# splits a gemv across threads, and of every per-row NLL the tuning takes.  A product split across
# threads changes a few rows' last bits, which the mean NLL and so the tuned heads mostly absorb;
# the per-row NLLs show it (on these two draws, with _matvec's row blocks taken out).  The plain
# part s is drawn, not computed, so no product outside the tuning enters the digest.
TUNE_PROBE = """
import hashlib, importlib, json
import numpy as np
from geodin.head import HeadParams, HeadVariant
calibrate = importlib.import_module("geodin.calibrate")
digest, gap_cross_entropy = hashlib.sha256(), calibrate.gap_cross_entropy

def recorded(*args, **kwargs):
    out = gap_cross_entropy(*args, **kwargs)
    digest.update(out.tobytes())
    return out

calibrate.gap_cross_entropy = recorded
for seed in (1, 4):
    rng = np.random.default_rng(seed)
    head = HeadParams(np.zeros(HeadParams.size(4, 64)), 4, 64, HeadVariant.ALPHA_BETA)
    head.W[:] = rng.uniform(-1.0 / 8.0, 1.0 / 8.0, size=head.W.shape)
    head.alpha_w[:] = rng.normal(0.0, 0.1, 64)
    head.beta_w[:] = rng.normal(0.0, 0.1, 64)
    F = rng.uniform(0.0, 1.0, (9001, 64))
    s = rng.normal(0.0, 1.0, (9001, 4))
    y = rng.integers(0, 4, 9001)
    s -= s.max(axis=-1)[:, None]
    val = (F, s, np.sqrt(np.add.reduce(F * F, axis=1)), s[np.arange(9001), y])
    rows = [np.arange(9001)] + [rng.permutation(9001)[:8001] for _ in range(2)]
    tuned = calibrate._tune_head(head, val, rows, calibrate.CalibConfig(epochs=2, batch_size=512))
    for a in (tuned[0].flat, *tuned[1:]):
        digest.update(np.asarray(a).tobytes())
print(json.dumps(digest.hexdigest()))
"""


class TestGapTuning:
    """Tuning steps on class gaps and takes no row max; the heads are those of the loop that
    tunes one head at a time on a copy of its rows (``oracles.reference_tune_head``), bit for bit."""

    @pytest.mark.parametrize("variant", [HeadVariant.ALPHA_ONLY, HeadVariant.BETA_ONLY, HeadVariant.ALPHA_BETA])
    @pytest.mark.parametrize("G", [1, 5])
    def test_matches_one_head_at_a_time(self, G, variant):
        head, val = _synthetic_split(150, variant=variant)  # row 0 is degenerate
        rows = np.stack([np.random.default_rng(g).permutation(150) for g in range(G)])
        config = CalibConfig(epochs=3, batch_size=64)  # batches of 64, 64 and a ragged 22
        tuned, best_epoch, before, after = calibrate_module._tune_head(head, val, rows, config)
        ref_tuned, ref_epoch, ref_before, ref_after = reference_tune_head(head, val, rows, config)
        assert tuned.flat.tobytes() == ref_tuned.flat.tobytes()
        assert best_epoch.tolist() == ref_epoch.tolist()
        assert (before.tobytes(), after.tobytes()) == (ref_before.tobytes(), ref_after.tobytes())
        assert np.all(after < before)  # the heads moved

    def test_an_epoch_that_ties_is_not_the_best(self, monkeypatch):
        # With every step skipped, each epoch's NLL ties the NLL before tuning, bit for bit.
        head, val = _synthetic_split(150)
        monkeypatch.setattr(calibrate_module, "momentum_step", lambda *args, **kwargs: None)
        rows = [np.arange(150), np.arange(120), np.arange(40)]
        heads, best_epoch, before, after = calibrate_module._tune_head(head, val, rows, CalibConfig(epochs=3))
        assert best_epoch.tolist() == [-1, -1, -1]
        assert after.tobytes() == before.tobytes()
        assert heads.flat.tobytes() == np.tile(head.flat, (3, 1)).tobytes()

    def test_all_zero_features_tie_every_epoch_and_keep_the_initial_head(self):
        # Every row is degenerate with gaps d = 0, so dL/dm is 0, no step moves a head and every epoch's NLL is ln 4.
        head, _ = _synthetic_split(1, k=4)
        F = np.zeros((100, 12))
        val = calibrate_module._gap_split(F, np.arange(100) % 4, head)
        heads, best_epoch, before, after = calibrate_module._tune_head(head, val, [np.arange(100)], CalibConfig(epochs=3))
        assert best_epoch.tolist() == [-1]
        assert before[0] == pytest.approx(math.log(4.0)) and after.tobytes() == before.tobytes()
        assert heads.flat.tobytes() == head.flat.tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_underflowing_alpha_raises_the_same_numeric_error(self):
        head, val = _synthetic_split(150)
        head.alpha_b[...] = -800.0  # alpha underflows to 0, so m = 1/alpha is inf and inf * 0 is NaN
        rows, config = np.arange(150)[None], CalibConfig(epochs=2)
        with pytest.raises(NumericError, match="non-finite tuning NLL nan") as tuned:
            calibrate_module._tune_head(head, val, rows, config)
        with pytest.raises(NumericError) as reference:
            reference_tune_head(head, val, rows, config)
        assert str(tuned.value) == str(reference.value)


def _spied(monkeypatch, run=False) -> list:
    """Every ``extract_features`` (with its rows) and ``_tune_head`` call that ``calibrate`` makes from now on, in
    order; the calls run only when ``run``.  A tuning call is recorded once it returns."""
    calls, extract, tune = [], calibrate_module.extract_features, calibrate_module._tune_head

    def extracting(model, X):
        calls.append(("extract_features", np.array(X)))
        return extract(model, X) if run else None

    def tuning(*args):
        out = tune(*args) if run else None
        calls.append(("_tune_head", None))
        return out

    monkeypatch.setattr(calibrate_module, "extract_features", extracting)
    monkeypatch.setattr(calibrate_module, "_tune_head", tuning)
    return calls


def _inflated(model):
    over = model.like(model.flat.copy())
    over.head.beta_b += 4.0
    return over


def test_calibrate_on_a_wide_net_holds_one_split_and_its_gaps_at_a_time():
    # The wide benchmark net on 2560-row val and test splits: their features take 1.25 MiB each, their
    # gaps d another 0.62 MiB and each (n, k) softmax temporary 0.62 MiB.  Only one split's features
    # and gaps are alive at a time, so the peak is near 4.3 MiB; holding both splits' would make it 5.3.
    model = init_model(TrainConfig(hidden=(256, 256), feature_dim=64, seed=2), d_in=16, n_classes=32)
    model.meta["trained"] = True
    task = make_task(32, 16, 400, 0.15, seed=2)
    config = CalibConfig(epochs=2)
    calibrate(model, task.val, config, eval_sets={"test": task.test})
    tracemalloc.start()
    try:
        calibrate(model, task.val, config, eval_sets={"test": task.test})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.7 * 2**20, peak


class TestAccuracyHelpers:
    def test_split_metrics_fields(self, trained_task_model):
        task, model = trained_task_model
        m = split_metrics(model_logits(model, task.test[0]), task.test[1])
        assert 0.0 <= m.accuracy <= 1.0
        assert m.accuracy == accuracy(model, *task.test)
        assert m.ece >= 0.0 and m.nll >= 0.0
