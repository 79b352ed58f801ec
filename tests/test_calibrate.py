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
    nll,
    reliability_bins,
    softmax_probs,
    split_metrics,
    temperature_scale,
)
from geodin.config import load_run_config
from geodin.errors import ConfigError, DomainError, NumericError, UnsupportedVariantError
from geodin.head import HeadParams, HeadVariant, cross_entropy, head_forward_batch, multiplier_forward, plain_forward
from geodin.scores import score_batch
from geodin.train import (
    TrainConfig,
    accuracy,
    extract_features,
    model_logits,
    predict,
    shuffles,
    train,
)
from oracles import reference_tune_head
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


class TestNll:
    def test_perfect_one_hot(self):
        p = np.eye(4)
        assert nll(p, np.arange(4)) == 0.0

    def test_uniform(self):
        p = np.full((6, 10), 0.1)
        assert nll(p, np.zeros(6, dtype=int)) == pytest.approx(math.log(10.0), abs=1e-12)

    def test_matches_summation_oracle(self):
        rng = np.random.default_rng(2)
        p = rng.dirichlet(np.ones(5), size=40)
        y = rng.integers(0, 5, 40)
        oracle = sum(-math.log(p[i, y[i]]) for i in range(40)) / 40
        assert abs(nll(p, y) - oracle) < 1e-12

    def test_label_out_of_range(self):
        for bad in (3, -1):
            with pytest.raises(IndexError):
                nll(np.full((2, 3), 1 / 3), np.array([0, bad]))

    def test_clamps_zero_probability(self):
        p = np.array([[1.0, 0.0]])
        assert np.isfinite(nll(p, np.array([1])))


class TestTemperatureScale:
    def make_calibrated_logits(self, n=20000, m=5, seed=3):
        rng = np.random.default_rng(seed)
        logits = rng.normal(0.0, 2.0, (n, m))
        probs = softmax_probs(logits)
        labels = np.array([rng.choice(m, p=probs[i]) for i in range(n)])
        return logits, labels

    def test_calibrated_gives_unit_temperature(self):
        logits, labels = self.make_calibrated_logits()
        assert abs(temperature_scale(logits, labels) - 1.0) <= 0.05

    def test_scaled_logits_recover_scale(self):
        logits, labels = self.make_calibrated_logits(seed=4)
        t = temperature_scale(10.0 * logits, labels)
        assert abs(t - 10.0) / 10.0 <= 0.05

    def test_predictions_unchanged(self):
        logits, labels = self.make_calibrated_logits(n=500, seed=5)
        t = temperature_scale(logits, labels)
        np.testing.assert_array_equal((logits / t).argmax(axis=1), logits.argmax(axis=1))

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            temperature_scale(np.zeros((0, 3)), np.zeros(0, dtype=int))


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
            broken.head.beta_b = math.inf
        elif fault == "overflowing_logits":
            broken.head.alpha_b = -800.0  # alpha underflows to 0, so m = 1/alpha is inf
            steps = []
            monkeypatch.setattr(calibrate_module, "momentum_step", lambda *args: steps.append(args))
        else:
            tune = calibrate_module._tune_head

            def inf_tuned_head(*args):
                head, *rest = tune(*args)
                head.alpha_b = math.inf
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
    """The tuning split's (F, s, ||f||, max_j s_j, labels), the folds' held-out and rest rows,
    and each fold's head tuned on its own, as a stack of one."""
    X, y = val_set
    F = extract_features(model, X)
    s, fn = plain_forward(F, model.head)
    val = (F, s, fn, s.max(axis=-1), np.asarray(y, dtype=np.int64))
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
        F, *_, y = val
        for k, held in enumerate(pieces):
            head = oracle[k][0]
            logits = head_forward_batch(F[held], head.like(head.flat[0])).logits
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
        # Copies of the folds' rows of (F, s, ||f||, max_j s_j, labels) alone would take 8.1 MB.
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
        # The main head reads the split in place; the loop that copies its rows gives its bits too.
        ref_head, ref_epoch, ref_before, ref_after = reference_tune_head(
            model.head, (*val[:3], val[4]), rows[0][None], config
        )
        assert heads.flat[0].tobytes() == ref_head.flat[0].tobytes()
        assert (best_epoch[0], nll_before[0], nll_after[0]) == (ref_epoch[0], ref_before[0], ref_after[0])

    def test_row_sets_must_come_longest_first(self):
        head, val = _synthetic_split(150)
        with pytest.raises(ValueError, match="longest first"):
            calibrate_module._tune_head(head, val, [np.arange(40), np.arange(150)], CalibConfig(epochs=1))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad_slice", [0, 2])
    def test_non_finite_nll_in_one_slice_raises_before_any_step(self, trained_task_model, monkeypatch, bad_slice):
        task, model = trained_task_model
        F = extract_features(model, task.val[0])
        s, fn = plain_forward(F, model.head)
        rows = np.random.default_rng(0).permutation(len(F))[:120].reshape(3, 40)  # three disjoint row sets
        s[rows[bad_slice, 0]] = 1e308  # that row's logits m * s overflow
        val = (F, s, fn, s.max(axis=-1), task.val[1])
        steps = []
        monkeypatch.setattr(calibrate_module, "momentum_step", lambda *args: steps.append(args))
        with pytest.raises(NumericError, match="non-finite tuning NLL"):
            calibrate_module._tune_head(model.head, val, rows, CalibConfig(seed=21, epochs=2))
        assert steps == []


def _synthetic_split(rows: int, d: int = 12, k: int = 6, seed: int = 0, variant=HeadVariant.ALPHA_BETA):
    """A random head and a tuning split (F, s, ||f||, max_j s_j, labels) of ``rows`` rows for it."""
    rng = np.random.default_rng(seed)
    head = HeadParams.initial(d, k, variant, rng)
    head.alpha_w[:] = rng.normal(0.0, 0.3, d)
    head.beta_w[:] = rng.normal(0.0, 0.3, d)
    F = np.abs(rng.normal(0.0, 1.0, (rows, d)))
    F[0] = 0.0  # a degenerate row: ||f|| = 0 and s = 0
    s, fn = plain_forward(F, head)
    return head, (F, s, fn, s.max(axis=-1), rng.integers(0, k, rows))


def _nll_block(G: int, k: int) -> int:
    """Rows per block of the tuning NLL for a run of G heads over k classes."""
    return max(64, calibrate_module.NLL_LOGITS // (G * k) // 64 * 64)


def _one_shot_nll(heads, val, rows):
    """The mean cross-entropy of each head over its gathered rows, in one shot."""
    F, s, fn, _, y = (a[rows] for a in val)
    return cross_entropy(multiplier_forward(F, s, fn, heads).logits, y)


class TestBlockedTuningNll:
    """The per-epoch tuning NLL gathers its rows from the split block by block; it is the one-shot
    cross-entropy over the gathered rows, the formulation of ``oracles.reference_tune_head``, bit for bit."""

    @pytest.mark.parametrize("n", [365, 366, 1501])
    @pytest.mark.parametrize("G", [1, 5])
    def test_matches_the_one_shot_cross_entropy(self, G, n):
        # Each run fits one block here; the test below spans three.
        head, val = _synthetic_split(1501)
        rng = np.random.default_rng(n)
        rows = np.stack([rng.permutation(len(val[0]))[:n] for _ in range(G)])
        tuned, _, before, after = calibrate_module._tune_head(head, val, rows, CalibConfig(epochs=2, batch_size=256))
        assert before.tobytes() == _one_shot_nll(head.like(np.tile(head.flat, (G, 1))), val, rows).tobytes()
        assert after.tobytes() == _one_shot_nll(tuned, val, rows).tobytes()
        assert np.all(after <= before)

    @pytest.mark.parametrize("tail", [-1, 1], ids=["tail-1", "tail+1"])
    @pytest.mark.parametrize("G,in_place", [(1, False), (5, False), (1, True)], ids=["G1", "G5", "G1-in-place"])
    def test_three_blocks_match_the_one_shot_cross_entropy(self, G, in_place, tail, monkeypatch):
        block = _nll_block(G, 32)
        n = 2 * block + 3 * 64 + tail  # two full blocks and a ragged third of 64*3 +- 1 rows
        head, val = _synthetic_split(n if in_place else n + 100, k=32)
        rng = np.random.default_rng(n)
        rows = np.arange(n)[None] if in_place else np.stack([rng.permutation(n + 100)[:n] for _ in range(G)])
        blocks, row_nll = [], calibrate_module.row_nll

        def counted(logits, *args, **kwargs):
            blocks.append(logits.shape[-2])
            return row_nll(logits, *args, **kwargs)

        monkeypatch.setattr(calibrate_module, "row_nll", counted)
        tuned, _, before, after = calibrate_module._tune_head(head, val, rows, CalibConfig(epochs=2, batch_size=256))
        assert blocks == [block, block, 3 * 64 + tail] * 3  # the NLL before tuning and after each epoch
        assert before.tobytes() == _one_shot_nll(head.like(np.tile(head.flat, (G, 1))), val, rows).tobytes()
        assert after.tobytes() == _one_shot_nll(tuned, val, rows).tobytes()
        assert np.all(after <= before)

    def test_copies_on_the_whole_split_in_order_match_the_copying_loop(self):
        head, val = _synthetic_split(150)
        rows = np.stack([np.arange(150), np.arange(150), np.random.default_rng(2).permutation(150)])
        config = CalibConfig(epochs=2)
        tuned, *results = calibrate_module._tune_head(head, val, rows, config)
        ref_tuned, *ref_results = reference_tune_head(head, (*val[:3], val[4]), rows, config)
        assert tuned.flat.tobytes() == ref_tuned.flat.tobytes()
        assert [r.tobytes() for r in results] == [r.tobytes() for r in ref_results]

    def test_out_of_range_label_in_the_last_block_raises_before_any_step(self, monkeypatch):
        head, val = _synthetic_split(2 * _nll_block(1, 32) + 3 * 64 + 1, k=32)
        y = val[-1]
        rows = np.arange(len(y))[None]
        y[-1] = head.n_classes
        steps = []
        monkeypatch.setattr(calibrate_module, "momentum_step", lambda *args, **kwargs: steps.append(args))
        with pytest.raises(IndexError, match="label out of range"):
            calibrate_module._tune_head(head, val, rows, CalibConfig(epochs=2))
        assert steps == []

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
digest, row_nll = hashlib.sha256(), calibrate.row_nll

def recorded(*args, **kwargs):
    nll = row_nll(*args, **kwargs)
    digest.update(nll.tobytes())
    return nll

calibrate.row_nll = recorded
for seed in (1, 4):
    rng = np.random.default_rng(seed)
    head = HeadParams.initial(64, 4, HeadVariant.ALPHA_BETA, rng)
    head.alpha_w[:] = rng.normal(0.0, 0.1, 64)
    head.beta_w[:] = rng.normal(0.0, 0.1, 64)
    F = rng.uniform(0.0, 1.0, (9001, 64))
    s = rng.normal(0.0, 1.0, (9001, 4))
    val = (F, s, np.sqrt(np.add.reduce(F * F, axis=1)), s.max(axis=-1), rng.integers(0, 4, 9001))
    rows = [np.arange(9001)] + [rng.permutation(9001)[:8001] for _ in range(2)]
    tuned = calibrate._tune_head(head, val, rows, calibrate.CalibConfig(epochs=2, batch_size=512))
    for a in (tuned[0].flat, *tuned[1:]):
        digest.update(np.asarray(a).tobytes())
print(json.dumps(digest.hexdigest()))
"""


class TestHoistedRowMax:
    """Every tuning softmax takes its row max as m * max_j s_j; the heads are those of the
    loop whose softmaxes take it from the logits (``oracles.reference_tune_head``), bit for bit."""

    @staticmethod
    def without_max(val):
        return (*val[:3], val[4])

    @pytest.mark.parametrize("variant", [HeadVariant.ALPHA_ONLY, HeadVariant.BETA_ONLY, HeadVariant.ALPHA_BETA])
    @pytest.mark.parametrize("G", [1, 5])
    def test_matches_the_per_step_max(self, G, variant):
        head, val = _synthetic_split(150, variant=variant)  # row 0 is degenerate
        rows = np.stack([np.random.default_rng(g).permutation(150) for g in range(G)])
        config = CalibConfig(epochs=3, batch_size=64)  # batches of 64, 64 and a ragged 22
        tuned, best_epoch, before, after = calibrate_module._tune_head(head, val, rows, config)
        ref_tuned, ref_epoch, ref_before, ref_after = reference_tune_head(head, self.without_max(val), rows, config)
        assert tuned.flat.tobytes() == ref_tuned.flat.tobytes()
        assert best_epoch.tolist() == ref_epoch.tolist()
        assert (before.tobytes(), after.tobytes()) == (ref_before.tobytes(), ref_after.tobytes())
        assert np.all(after < before)  # the heads moved

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_underflowing_alpha_raises_the_same_numeric_error(self):
        head, val = _synthetic_split(150)
        head.alpha_b = -800.0  # alpha underflows to 0, so m = 1/alpha is inf
        rows, config = np.arange(150)[None], CalibConfig(epochs=2)
        with pytest.raises(NumericError, match="non-finite tuning NLL") as hoisted:
            calibrate_module._tune_head(head, val, rows, config)
        with pytest.raises(NumericError) as reference:
            reference_tune_head(head, self.without_max(val), rows, config)
        assert str(hoisted.value) == str(reference.value)


def _inflated(model):
    from geodin.train import Model

    over = Model(model.extractor.copy(), model.head.copy(), dict(model.meta), list(model.history))
    over.head.beta_b += 4.0
    return over


class TestAccuracyHelpers:
    def test_split_metrics_fields(self, trained_task_model):
        task, model = trained_task_model
        m = split_metrics(model_logits(model, task.test[0]), task.test[1])
        assert 0.0 <= m.accuracy <= 1.0
        assert m.accuracy == accuracy(model, *task.test)
        assert m.ece >= 0.0 and m.nll >= 0.0
