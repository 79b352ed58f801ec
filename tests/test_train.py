"""Trainer tests: schedule, determinism, feature extraction, gradient checks."""

import importlib
import math
import tracemalloc

import numpy as np
import pytest

from geodin.errors import ConfigError, DataError, DomainError, NumericError, ShapeError
from geodin.head import HeadParams, HeadVariant, head_forward_batch
from geodin.scores import plain_forward
from geodin.train import (
    ExtractorParams,
    Model,
    TrainConfig,
    accuracy,
    cosine_lr,
    extract_features,
    extractor_activations,
    extractor_backward,
    init_model,
    minibatches,
    momentum_step,
    predict,
    row_blocks,
    train,
    unit_rows,
    whole_bits_rows,
)
from oracles import full_gradient_check, model_logits, reference_forward, reference_init, reference_train
from test_head import thread_probe

train_module = importlib.import_module("geodin.train")  # the package's `train` is the function


def blobs(rng, n=100, gap=2.0, noise=0.4):
    X = np.vstack(
        [rng.normal([gap, 0.0], noise, (n, 2)), rng.normal([-gap, 0.0], noise, (n, 2))]
    )
    y = np.array([0] * n + [1] * n)
    return X, y


def perceptron_separable(X, y, max_iters=2000):
    """Independent linear-capacity oracle: perceptron convergence check."""
    Xb = np.hstack([X, np.ones((X.shape[0], 1))])
    t = np.where(y == 0, -1.0, 1.0)
    w = np.zeros(Xb.shape[1])
    for _ in range(max_iters):
        wrong = np.sign(Xb @ w) != t
        if not wrong.any():
            return True
        i = int(np.argmax(wrong))
        w += t[i] * Xb[i]
    return False


class TestFlatParameters:
    def test_extractor_layers_are_views_of_flat(self):
        model = init_model(TrainConfig(hidden=(5, 3), feature_dim=2, seed=0), d_in=4, n_classes=2)
        ext = model.extractor
        assert ext.dims == [4, 5, 3, 2]
        np.testing.assert_array_equal(ext.flat, np.concatenate([a.ravel() for W, b in ext.layers for a in (W, b)]))
        assert ext.flat.size == 5 * 4 + 5 + 3 * 5 + 3 + 2 * 3 + 2
        for W, b in ext.layers:
            assert np.shares_memory(W, ext.flat) and np.shares_memory(b, ext.flat)
        clone = model.like(model.flat.copy()).extractor
        clone.flat[:] = 0.0
        assert np.any(ext.flat != 0.0) and not np.any(clone.layers[0][0])

    @pytest.mark.parametrize("extra", [-1, 1], ids=["one_short", "one_long"])
    def test_a_model_vector_of_another_length_is_rejected(self, extra):
        dims, k = [4, 5, 2], 3
        size = ExtractorParams.size(dims) + HeadParams.size(k, dims[-1])
        with pytest.raises(ShapeError):
            Model(np.zeros(size + extra), dims, k, HeadVariant.ALPHA_BETA, {})

    def test_extractor_and_head_tile_the_model_vector_extractor_first(self):
        model = init_model(TrainConfig(hidden=(5, 3), feature_dim=2, seed=0), d_in=4, n_classes=3)
        n_ext = ExtractorParams.size([4, 5, 3, 2])
        assert model.flat.size == n_ext + HeadParams.size(3, 2)
        model.flat[:] = np.arange(model.flat.size)
        for part in (model.extractor.flat, model.head.flat):
            assert np.shares_memory(part, model.flat)
        np.testing.assert_array_equal(model.extractor.flat, np.arange(n_ext))
        np.testing.assert_array_equal(model.head.flat, np.arange(n_ext, model.flat.size))

    def test_like_wraps_its_vector_with_copies_of_meta_and_history(self):
        model = init_model(TrainConfig(hidden=(5,), feature_dim=2, seed=0), d_in=4, n_classes=3)
        model.history.append({"epoch": 0})
        flat = np.zeros_like(model.flat)
        other = model.like(flat)
        assert other.flat is flat
        assert np.shares_memory(other.extractor.flat, flat) and np.shares_memory(other.head.W, flat)
        assert other.extractor.dims == [4, 5, 2] and other.head.n_classes == 3
        assert other.head.variant is model.head.variant
        other.meta["calibrated"] = True
        other.history.append({"epoch": 1})
        assert model.meta == {"seed": 0, "trained": False} and model.history == [{"epoch": 0}]

    @pytest.mark.parametrize("extra", [-1, 1], ids=["one_short", "one_long"])
    def test_a_buffer_of_another_length_is_rejected(self, extra):
        dims = [4, 5, 2]
        with pytest.raises(ShapeError):
            ExtractorParams(np.zeros(ExtractorParams.size(dims) + extra), dims)

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("hidden", [(5,), (6, 4, 3)], ids=["1-hidden", "3-hidden"])
    def test_init_model_draws_as_the_reference(self, hidden, seed):
        config = TrainConfig(hidden=hidden, feature_dim=4, seed=seed)
        model = init_model(config, d_in=3, n_classes=5)
        flat = np.concatenate([model.extractor.flat, model.head.flat])
        assert flat.tobytes() == reference_init(config, 3, 5).tobytes()

    def test_momentum_step_decays_only_the_prefix(self):
        p = np.array([1.0, 2.0, 3.0, 4.0])
        g = np.array([0.5, 0.5, 0.5, 0.5])
        v = np.array([1.0, 0.0, 1.0, 0.0])
        momentum_step(p, g, v, lr=0.1, momentum=0.9, weight_decay=0.01, n_decay=2)
        np.testing.assert_array_equal(g, [0.5, 0.5, 0.5, 0.5])  # the gradient is not modified
        np.testing.assert_array_equal(v, [0.9 + (0.5 + 0.01), 0.5 + 0.02, 0.9 + 0.5, 0.5])
        np.testing.assert_array_equal(p, [1.0 - 0.1 * v[0], 2.0 - 0.1 * v[1], 3.0 - 0.1 * v[2], 4.0 - 0.1 * v[3]])

    @pytest.mark.parametrize("weight_decay", [5e-4, 0.0])
    def test_momentum_step_matches_the_expression_with_temporaries(self, weight_decay):
        rng = np.random.default_rng(9)
        p, g, v = (rng.normal(0.0, 1.0, 1000) for _ in range(3))
        g_before = g.copy()
        lr, momentum = 0.0371, 0.9
        # Reference: the update with a temporary per operation.
        decayed = g + weight_decay * p if weight_decay else g
        v_ref = v * momentum + decayed
        p_ref = p - lr * v_ref
        momentum_step(p, g, v, lr, momentum, weight_decay)
        assert g.tobytes() == g_before.tobytes()
        assert v.tobytes() == v_ref.tobytes()
        assert p.tobytes() == p_ref.tobytes()

    @pytest.mark.parametrize("weight_decay", [5e-4, 0.0])
    def test_momentum_step_with_a_rate_column_is_the_per_slice_scalar_step(self, weight_decay):
        rng = np.random.default_rng(4)
        p, g, v = (rng.normal(0.0, 1.0, (3, 50)) for _ in range(3))
        lr = np.array([0.0371, 0.1, 1e-3])
        p_ref, v_ref = p.copy(), v.copy()
        for i in range(3):
            momentum_step(p_ref[i], g[i], v_ref[i], float(lr[i]), 0.9, weight_decay, n_decay=30)
        momentum_step(p, g, v, lr[:, None], 0.9, weight_decay, n_decay=30, scratch=np.empty_like(p))
        assert (p.tobytes(), v.tobytes()) == (p_ref.tobytes(), v_ref.tobytes())

    @pytest.mark.parametrize("weight_decay", [5e-4, 0.1])
    @pytest.mark.parametrize("decay_heads", [True, False])
    def test_one_step_over_extractor_and_head_is_the_two_separate_steps(self, weight_decay, decay_heads):
        # train() steps extractor.flat and head.flat as one vector; with decay_heads off, n_decay
        # covers the extractor and the head's class weights W.
        model = init_model(TrainConfig(hidden=(7, 5), feature_dim=4, seed=2), d_in=6, n_classes=3)
        ext, head = model.extractor.flat, model.head.flat
        rng = np.random.default_rng(8)
        ext_g, ext_v, head_g, head_v = (rng.normal(0.0, 1.0, a.size) for a in (ext, ext, head, head))
        theta, grad, velocity = (np.concatenate(pair) for pair in ((ext, head), (ext_g, head_g), (ext_v, head_v)))
        lr, momentum = 0.0371, 0.9
        head_decay = None if decay_heads else model.head.W.size
        momentum_step(ext, ext_g, ext_v, lr, momentum, weight_decay, scratch=np.empty_like(ext))
        momentum_step(head, head_g, head_v, lr, momentum, weight_decay, head_decay, scratch=np.empty_like(head))
        n_decay = None if decay_heads else ext.size + model.head.W.size
        momentum_step(theta, grad, velocity, lr, momentum, weight_decay, n_decay, scratch=np.empty_like(theta))
        assert theta.tobytes() == np.concatenate([ext, head]).tobytes()
        assert velocity.tobytes() == np.concatenate([ext_v, head_v]).tobytes()

    def test_pinned_heads_stay_exactly_zero(self):
        rng = np.random.default_rng(3)
        X, y = blobs(rng, n=40)
        for variant, dead in ((HeadVariant.VANILLA, ("alpha", "beta")), (HeadVariant.BETA_ONLY, ("alpha",))):
            model = train(TrainConfig(epochs=3, seed=1, hidden=(6,), feature_dim=4, variant=variant), (X, y))
            for name in dead:
                assert not np.any(getattr(model.head, f"{name}_w")) and getattr(model.head, f"{name}_b") == 0.0


class TestCosineLr:
    def test_endpoints_and_midpoint(self):
        assert cosine_lr(0, 100, 0.1) == pytest.approx(0.1)
        assert cosine_lr(100, 100, 0.1) == pytest.approx(0.0, abs=1e-18)
        assert cosine_lr(50, 100, 0.1) == pytest.approx(0.05)

    def test_zero_total_steps(self):
        with pytest.raises(ConfigError):
            cosine_lr(0, 0, 0.1)

    def test_step_out_of_range(self):
        with pytest.raises(ConfigError):
            cosine_lr(11, 10, 0.1)


class TestMinibatches:
    def test_ragged_schedule(self):
        n, tag, lr0 = 10, 2, 0.05
        cfg = TrainConfig(epochs=3, batch_size=4, lr0=lr0, seed=7)

        def listed():
            return [(order.tolist(), rates) for order, rates in minibatches(n, cfg, tag)]

        schedule = listed()
        assert len(schedule) == 3
        rng = np.random.default_rng(np.random.SeedSequence([7, tag]))
        rates = []
        for order, epoch_rates in schedule:
            assert order == rng.permutation(n).tolist()  # the stream's next draw, each epoch
            assert len(epoch_rates) == 3  # batches of 4, 4 and 2 rows
            rates += epoch_rates
        total = 3 * 3  # epochs x batches per epoch
        assert rates == [cosine_lr(s, total, lr0) for s in range(total)]
        assert rates[-1] > 0
        assert listed() == schedule


class TestTrainConfig:
    def test_zero_epochs_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigError):
            train(TrainConfig(epochs=0), blobs(rng))

    def test_bad_lr_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(lr0=0.0).validate()

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(seed=-1).validate()

    def test_negative_label_rejected(self):
        rng = np.random.default_rng(0)
        X, y = blobs(rng, n=20)
        y[3] = -1
        for n_classes in (None, 2):
            with pytest.raises(IndexError, match=r"train set: label out of range \[0, "):
                train(TrainConfig(epochs=1, hidden=(4,), feature_dim=2), (X, y), n_classes=n_classes)

    def test_a_single_class_rejected(self):
        X, y = blobs(np.random.default_rng(0), n=20)
        with pytest.raises(ConfigError, match="need at least 2 classes, got 1"):
            train(TrainConfig(epochs=1, hidden=(4,), feature_dim=2), (X[:20], y[:20]))

    def test_inputs_without_features_rejected(self):
        # init_model used to divide by d_in and raise a bare ZeroDivisionError.
        with pytest.raises(ConfigError, match="d_in=0"):
            train(TrainConfig(), (np.zeros((4, 0)), np.array([0, 1, 0, 1])))
        with pytest.raises(ConfigError, match="d_in=-1"):
            init_model(TrainConfig(), d_in=-1, n_classes=2)

    def test_unknown_variant_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigError, match="bogus"):
            train(TrainConfig(variant="bogus"), blobs(rng))


class TestTraining:
    def test_separable_blobs_high_accuracy(self):
        rng = np.random.default_rng(1)
        X, y = blobs(rng)
        assert perceptron_separable(X, y)  # oracle: the task is linearly separable
        model = train(TrainConfig(epochs=30, batch_size=32, seed=2, hidden=(16,), feature_dim=8), (X, y))
        assert accuracy(model, X, y) >= 0.99

    def test_accuracy_rejects_mis_shaped_labels(self):
        rng = np.random.default_rng(4)
        X, y = blobs(rng, n=20)
        model = train(TrainConfig(epochs=1, seed=0, hidden=(6,), feature_dim=4), (X, y))
        for labels in (y[:1], y[:, None]):
            with pytest.raises(DomainError):
                accuracy(model, X, labels)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "rows,labels,error,message",
        [
            (slice(None), lambda y: y + 0.5, DataError, "accuracy split label 0 is not an integer"),
            (slice(None), lambda y: np.where(np.arange(len(y)) == 4, 3, y), IndexError,
             r"accuracy split: label out of range \[0, 3\)"),
            (slice(0), lambda y: y, DomainError, "accuracy split is empty"),
        ],
        ids=["half_labels", "label_k", "empty"],
    )
    def test_accuracy_rejects_bad_labels_and_an_empty_split(self, rows, labels, error, message):
        # Compared with the predictions as given, y + 0.5 would read as all misses, k as a miss and no rows as nan.
        from geodin.bench import make_task

        X, y = make_task(3, 4, 30, 0.1, seed=0).train
        model = train(TrainConfig(epochs=2), (X, y))
        with pytest.raises(error, match=message):
            accuracy(model, X[rows], labels(y[rows]))

    def test_determinism_bit_identical(self):
        rng = np.random.default_rng(2)
        X, y = blobs(rng, n=60)
        cfg = TrainConfig(epochs=5, batch_size=16, seed=9, hidden=(8,), feature_dim=4)
        a = train(cfg, (X, y))
        b = train(cfg, (X, y))
        for (Wa, ba), (Wb, bb) in zip(a.extractor.layers, b.extractor.layers):
            assert Wa.tobytes() == Wb.tobytes()
            assert ba.tobytes() == bb.tobytes()
        assert a.head.W.tobytes() == b.head.W.tobytes()
        assert a.head.alpha_w.tobytes() == b.head.alpha_w.tobytes()
        assert a.head.alpha_b == b.head.alpha_b
        assert a.head.beta_w.tobytes() == b.head.beta_w.tobytes()
        assert a.head.beta_b == b.head.beta_b

    def test_seed_changes_model(self):
        rng = np.random.default_rng(3)
        X, y = blobs(rng, n=60)
        a = train(TrainConfig(epochs=3, seed=1, hidden=(8,), feature_dim=4), (X, y))
        b = train(TrainConfig(epochs=3, seed=2, hidden=(8,), feature_dim=4), (X, y))
        assert a.head.W.tobytes() != b.head.W.tobytes()

    def test_loss_history_recorded(self):
        rng = np.random.default_rng(4)
        X, y = blobs(rng, n=60)
        model = train(TrainConfig(epochs=8, seed=5, hidden=(8,), feature_dim=4), (X, y))
        assert len(model.history) == 8
        # monotone on average: recorded, not gated; just check it went down overall
        assert model.history[-1]["mean_loss"] < model.history[0]["mean_loss"]

    @pytest.mark.filterwarnings("error")
    def test_nan_abort_diagnostic(self, monkeypatch):
        # A non-finite input row is rejected before the model is built, so no step runs and warns.
        rng = np.random.default_rng(5)
        X, y = blobs(rng, n=60)
        X[17, 0], X[40, 1] = np.inf, np.nan
        calls = []
        for name in ("init_model", "loss_and_grads"):
            monkeypatch.setattr(train_module, name, lambda *args, name=name, **kwargs: calls.append(name))
        with pytest.raises(DataError, match="train set row 17 is not finite"):
            train(TrainConfig(epochs=2, seed=1, hidden=(8,), feature_dim=4), (X, y))
        assert calls == []

    @pytest.mark.parametrize("bad", [0.9, -0.5, math.nan, math.inf], ids=["fraction", "negative", "nan", "inf"])
    def test_a_label_that_is_not_an_integer_is_rejected_before_the_model_is_built(self, monkeypatch, bad):
        # A cast to int64 alone would truncate 0.9 and -0.5 to a valid class 0 and train on it.
        X, y = blobs(np.random.default_rng(5), n=60)
        y = y.astype(np.float64)
        y[23] = bad
        calls = []
        monkeypatch.setattr(train_module, "init_model", lambda *args, **kwargs: calls.append("init_model"))
        with pytest.raises(DataError, match="train set label 23 is not an integer"):
            train(TrainConfig(epochs=2, seed=1, hidden=(8,), feature_dim=4), (X, y), n_classes=2)
        assert calls == []

    def test_whole_valued_float_labels_train_as_their_integers(self):
        X, y = blobs(np.random.default_rng(5), n=30)
        config = TrainConfig(epochs=2, seed=1, hidden=(8,), feature_dim=4)
        assert train(config, (X, y.astype(np.float64))).flat.tobytes() == train(config, (X, y)).flat.tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_loss_names_its_step(self):
        # Finite inputs, but the first of two steps overflows the parameters, so the second step's loss is NaN.
        X, y = blobs(np.random.default_rng(5), n=60)
        cfg = TrainConfig(epochs=1, batch_size=60, lr0=1e300, seed=1, hidden=(8,), feature_dim=4)
        with pytest.raises(NumericError, match=r"non-finite loss nan at epoch 0 batch 1 \(lr=5e\+299\)"):
            train(cfg, (X, y))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_result_is_a_numeric_error(self):
        # One full-batch step: its loss is finite, the update overflows the
        # parameters, and no later loss is computed to notice.
        rng = np.random.default_rng(7)
        X, y = blobs(rng, n=60)
        cfg = TrainConfig(epochs=1, batch_size=len(X), lr0=1e300, weight_decay=1e10, hidden=(8,), feature_dim=4)
        with pytest.raises(NumericError, match="non-finite parameters"):
            train(cfg, (X, y))

    def test_accuracy_parity_alpha_beta_vs_vanilla(self):
        from geodin.bench import make_task

        task = make_task(8, 16, 200, 0.15, seed=3)
        cfg = dict(epochs=30, seed=3)
        ab = train(TrainConfig(variant=HeadVariant.ALPHA_BETA, **cfg), task.train, n_classes=8)
        vn = train(TrainConfig(variant=HeadVariant.VANILLA, **cfg), task.train, n_classes=8)
        gap = abs(accuracy(ab, *task.test) - accuracy(vn, *task.test))
        assert gap <= 0.02

    def test_decay_heads_flag_changes_result(self):
        rng = np.random.default_rng(6)
        X, y = blobs(rng, n=60)
        base = dict(epochs=5, seed=4, hidden=(8,), feature_dim=4, weight_decay=1e-2)
        a = train(TrainConfig(decay_heads=True, **base), (X, y))
        b = train(TrainConfig(decay_heads=False, **base), (X, y))
        assert a.head.beta_b != b.head.beta_b


class TestPerRunBuffers:
    """train() projects once, gathers each epoch's rows once and steps in per-run workspaces; the bytes must not
    change."""

    @staticmethod
    def data(n, zero_row=True):
        rng = np.random.default_rng(21)
        X = rng.normal(0.0, 1.0, (n, 12))
        if zero_row:
            X[5] = 0.0  # a zero row, which unit_rows passes through; its features are 0 until the biases move
        return X, rng.integers(0, 3, n)

    @pytest.mark.parametrize("variant", list(HeadVariant))
    @pytest.mark.parametrize(
        "decay_heads, weight_decay, n, batch_size, zero_row",
        [
            pytest.param(True, 5e-4, 65, 16, True, id="True-0.0005-65"),
            pytest.param(False, 1e-2, 65, 16, True, id="False-0.01-65"),
            pytest.param(True, 0.0, 75, 16, True, id="True-0.0-75"),
            pytest.param(True, 5e-4, 20, 1, True, id="batch_of_1"),
            pytest.param(False, 1e-2, 20, 20, True, id="batch_of_n"),
            pytest.param(True, 5e-4, 30, 64, True, id="batch_above_n"),
            pytest.param(True, 5e-4, 65, 16, False, id="no_degenerate_features"),
        ],
    )
    def test_train_matches_the_fresh_array_loop(self, variant, decay_heads, weight_decay, n, batch_size, zero_row):
        # n = 65 and 75 at batch 16 leave a ragged last batch of 1 and 11 rows.
        cfg = TrainConfig(
            epochs=3, batch_size=batch_size, seed=3, hidden=(9, 7), feature_dim=5,
            variant=variant, decay_heads=decay_heads, weight_decay=weight_decay,
        )
        X, y = self.data(n, zero_row)
        got, want = train(cfg, (X, y), n_classes=3), reference_train(cfg, (X, y), 3)
        assert got.extractor.flat.tobytes() == want.extractor.flat.tobytes()
        assert got.head.flat.tobytes() == want.head.flat.tobytes()
        assert got.history == want.history

    def test_trained_parameters_are_one_vector_in_checkpoint_order(self):
        model = train(TrainConfig(epochs=1, batch_size=16, hidden=(6,), feature_dim=4), self.data(40))
        ext, head = model.extractor.flat, model.head.flat
        assert ext.base is not None and ext.base is head.base
        assert ext.base.tobytes() == ext.tobytes() + head.tobytes()

    def test_each_step_calls_loss_and_grads_once(self, monkeypatch):
        # The benchmark counts SGD steps as calls of this module global.
        calls = []
        original = train_module.loss_and_grads

        def counted(*args, **kwargs):
            calls.append(len(args[1]))
            return original(*args, **kwargs)

        monkeypatch.setattr(train_module, "loss_and_grads", counted)
        cfg = TrainConfig(epochs=3, batch_size=16, hidden=(6,), feature_dim=4)
        train(cfg, self.data(65))
        assert len(calls) == cfg.epochs * math.ceil(65 / cfg.batch_size)
        assert sum(calls) == cfg.epochs * 65


class TestExtractFeatures:
    def test_zero_input_zero_extractor(self):
        model = init_model(TrainConfig(hidden=(8,), feature_dim=4, seed=0), d_in=3, n_classes=2)
        for W, b in model.extractor.layers:
            W[:] = 0.0
            b[:] = 0.0
        f = extract_features(model, np.zeros(3))
        assert np.all(f == 0.0)

    def test_features_nonnegative_finite(self):
        rng = np.random.default_rng(7)
        X, y = blobs(rng, n=60)
        model = train(TrainConfig(epochs=3, seed=7, hidden=(8,), feature_dim=4), (X, y))
        F = extract_features(model, X)
        assert np.all(F >= 0.0) and np.all(np.isfinite(F))

    def test_batch_matches_single_sample_path(self):
        rng = np.random.default_rng(8)
        X, y = blobs(rng, n=40)
        model = train(TrainConfig(epochs=2, seed=8, hidden=(8,), feature_dim=4), (X, y))
        F = extract_features(model, X)
        for i in range(10):
            np.testing.assert_allclose(F[i], extract_features(model, X[i]), rtol=1e-12, atol=1e-15)

    def test_matches_straight_line_oracle(self):
        rng = np.random.default_rng(9)
        model = init_model(TrainConfig(hidden=(5, 7), feature_dim=4, seed=11), d_in=6, n_classes=3)
        x = rng.normal(0.0, 1.0, 6)
        # oracle: explicit normalization then layer-by-layer loops
        a = x / np.linalg.norm(x)
        for W, b in model.extractor.layers:
            z = np.array([float(np.dot(W[r], a)) + float(b[r]) for r in range(W.shape[0])])
            a = np.maximum(z, 0.0)
        np.testing.assert_allclose(extract_features(model, x), a, rtol=1e-12, atol=1e-15)

    def test_shape_mismatch(self):
        model = init_model(TrainConfig(hidden=(8,), feature_dim=4, seed=0), d_in=3, n_classes=2)
        with pytest.raises(ShapeError):
            extract_features(model, np.zeros((4, 5)))
        # predict checks block by block, so the message names the row shape, not a block's row count
        for infer in (extract_features, predict):
            with pytest.raises(ShapeError, match=r"input row shape \(5,\) does not match model d_in 3"):
                infer(model, np.zeros((5000, 5)))

    def test_unit_rows_zero_row_passthrough(self):
        X = np.array([[0.0, 0.0], [3.0, 4.0]])
        U = unit_rows(X)
        np.testing.assert_array_equal(U[0], [0.0, 0.0])
        np.testing.assert_allclose(np.linalg.norm(U[1]), 1.0)

    @pytest.mark.filterwarnings("error")
    def test_unit_rows_rescales_a_finite_row_whose_squared_norm_overflows(self):
        assert unit_rows(np.array([[3e200, 4e200]])).tolist() == [[0.6, 0.8]]
        huge = unit_rows(np.array([[1e308, -1e308, 0.0], [-1.7e308, 1e-300, 0.0]]))
        np.testing.assert_allclose(huge, [[0.5**0.5, -(0.5**0.5), 0.0], [-1.0, 0.0, 0.0]], rtol=1e-15)

    def test_unit_rows_keeps_the_bits_of_ordinary_rows(self):
        rng = np.random.default_rng(17)
        X = np.vstack([[3.0, 4.0, 0.0], rng.normal(0.0, 1e3, (40, 3)), [3e200, 4e200, 0.0], [0.0, 0.0, 0.0]])
        plain = X[:-2] / np.sqrt(np.add.reduce(X[:-2] * X[:-2], axis=1, keepdims=True))  # the projection's formula
        assert unit_rows(X)[:-2].tobytes() == plain.tobytes()
        assert unit_rows(np.array([[3.0, 4.0]])).tobytes() == np.array([[3.0 / 5.0, 4.0 / 5.0]]).tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_row_with_an_infinite_entry_is_still_rejected(self):
        X = np.array([[np.inf, 1.0], [3e200, 4e200]])
        assert not np.isfinite(unit_rows(X)[0]).all()
        model = init_model(TrainConfig(hidden=(4,), feature_dim=3, seed=0), d_in=2, n_classes=2)
        with pytest.raises(NumericError, match="non-finite features"):
            extract_features(model, X)


class TestActivationCache:
    def test_backward_matches_pre_activation_mask(self):
        rng = np.random.default_rng(12)
        model = init_model(TrainConfig(hidden=(6, 5), feature_dim=4, seed=12), d_in=3, n_classes=2)
        layers = model.extractor.layers
        for W, b in layers:
            b[:] = rng.normal(0.0, 0.5, b.shape)
        layers[0][1][0] = 0.0  # so unit 0 of layer 1 has pre-activation exactly 0 on the zero row
        X = rng.normal(0.0, 1.0, (7, 3))
        X[2] = 0.0
        U = unit_rows(X)
        acts = extractor_activations(model.extractor, U)
        assert len(acts) == len(layers) + 1
        assert acts[0] is U
        assert acts[-1].tobytes() == extract_features(model, X).tobytes()

        # Reference: the mask z > 0 on explicitly recomputed pre-activations.
        grad_F = rng.normal(0.0, 1.0, acts[-1].shape)
        parts, g = [], grad_F
        for i in range(len(layers) - 1, -1, -1):
            W, b = layers[i]
            z = acts[i] @ W.T + b
            dz = g * (z > 0)
            parts += [dz.sum(axis=0), (dz.T @ acts[i]).ravel()]
            if i > 0:
                g = dz @ W
        assert z[2, 0] == 0.0 and np.all(acts[0][2] == 0.0)
        reference = np.concatenate(parts[::-1])
        passed = grad_F.copy()
        assert extractor_backward(model.extractor, acts, grad_F).tobytes() == reference.tobytes()
        assert grad_F.tobytes() == passed.tobytes()  # the masks go into the call's own temporaries


def block_of(width):
    """Rows per inference block for products at least ``width`` wide: r * width >= 1536, 64-aligned, >= 512."""
    return max(512, 64 * math.ceil(1536 / (64 * width)))


def ragged_rows(B):
    return (B - 1, B, B + 1, 2 * B - 1, 2 * B + 1, 5 * B + 3)


class TestBlockedInference:
    """Inference runs in row blocks; each block's rows get the bytes the whole batch would."""

    def test_row_blocks_start_at_multiples_and_the_last_absorbs_the_rest(self):
        for width in (2, 3, 4, 64, 256):
            B = block_of(width)
            assert B == {2: 768}.get(width, 512)
            assert row_blocks(0, width) == [slice(0, 0)]
            assert row_blocks(B - 1, width) == [slice(0, B - 1)]
            assert row_blocks(2 * B - 1, width) == [slice(0, 2 * B - 1)]
            assert row_blocks(2 * B, width) == [slice(0, B), slice(B, 2 * B)]
            assert row_blocks(5 * B + 3, width) == [slice(i * B, (i + 1) * B) for i in range(4)] + [slice(4 * B, 5 * B + 3)]

    def test_a_one_wide_product_runs_as_one_block(self):
        for n in (0, 1, 5000, 100_000):
            assert row_blocks(n, 1) == [slice(0, n)]

    # Zero, one, two and three hidden layers, so zero to three reused layer buffers.
    @pytest.mark.parametrize("hidden", [(), (48,), (64, 32), (256, 256), (32, 16, 24)])
    @pytest.mark.parametrize("width", [1, 2, 3, 4, 6, 16, 64, 256])
    def test_extract_features_matches_the_one_shot_forward(self, width, hidden):
        B = block_of(min((*hidden, width)))
        model = init_model(TrainConfig(hidden=hidden, feature_dim=width, seed=width), d_in=16, n_classes=3)
        rng = np.random.default_rng(width)
        x = rng.normal(0.0, 1.0, 16)
        assert extract_features(model, x).tobytes() == reference_forward(model.extractor, x[None])[0].tobytes()
        for rows in (0, *ragged_rows(B)):
            X = rng.normal(0.0, 1.0, (rows, 16))
            F = extract_features(model, X)
            assert F.shape == (rows, width)
            assert F.tobytes() == reference_forward(model.extractor, X).tobytes(), rows

    @pytest.mark.parametrize("variant", [HeadVariant.VANILLA, HeadVariant.ALPHA_BETA])
    @pytest.mark.parametrize("k", [2, 32])
    def test_predict_matches_the_one_shot_argmax(self, k, variant, monkeypatch):
        # D = 64, so with k = 2 the head's plain product is the narrowest and sets 768-row blocks.
        # An argmax rarely shows a logit's last bit, so the blocks' plain logits are compared too.
        block_logits = []

        def recording_plain(F, W):
            s, fn = plain_forward(F, W)
            block_logits.append(s)
            return s, fn

        monkeypatch.setattr(train_module, "plain_forward", recording_plain)
        model = init_model(TrainConfig(hidden=(64,), feature_dim=64, variant=variant, seed=k), d_in=16, n_classes=k)
        rng = np.random.default_rng(k)
        model.head.flat[:] = rng.normal(0.0, 0.5, model.head.flat.shape)
        x = rng.normal(0.0, 1.0, 16)
        assert predict(model, x).tolist() == [int(np.argmax(model_logits(model, x)))]
        B = block_of(k)
        assert len(row_blocks(2 * B - 1, min(*model.extractor.dims[1:], k))) == 1
        for rows in (0, *ragged_rows(B)):
            X = rng.normal(0.0, 1.0, (rows, 16))
            F = reference_forward(model.extractor, X)
            s = plain_forward(F, model.head.W)[0]
            block_logits.clear()
            pred = predict(model, X)
            assert pred.tobytes() == np.argmax(s, axis=1).tobytes(), rows
            assert pred.tobytes() == np.argmax(head_forward_batch(F, model.head).logits, axis=1).tobytes(), rows
            assert np.concatenate(block_logits).tobytes() == s.tobytes(), rows

    def test_predict_is_the_argmax_of_the_plain_logits_where_the_multiplier_ties_them(self):
        # Features [1, 0] through an identity layer give s = W[:, 0] exactly: class 1's s is one ulp
        # above class 0's, and m = 2 + 2 ln 2 (alpha = 1/2, beta = ln 2) rounds m * s to a tie, whose
        # argmax is class 0.
        model = init_model(TrainConfig(hidden=(), feature_dim=2, seed=0), d_in=2, n_classes=2)
        (W, _), head = model.extractor.layers[0], model.head
        W[:] = np.eye(2)
        head.W[:, 0] = [1.625, np.nextafter(1.625, 2.0)]  # found by a search over multiples of 1/64 in [1, 2)
        head.W[:, 1] = 0.0
        x = np.array([1.0, 0.0])
        trace = head_forward_batch(extract_features(model, x[None]), head)
        assert trace.vanilla_logits[0, 1] > trace.vanilla_logits[0, 0]
        assert trace.logits[0, 1] == trace.logits[0, 0]
        assert predict(model, x).tolist() == [1]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_feature_in_the_last_block_raises(self):
        B = block_of(4)
        model = init_model(TrainConfig(hidden=(8,), feature_dim=4, seed=0), d_in=3, n_classes=2)
        X = np.random.default_rng(0).normal(0.0, 1.0, (2 * B + 1, 3))
        extract_features(model, X)
        X[-1, 0] = np.nan
        for infer in (extract_features, predict):
            with pytest.raises(NumericError, match="non-finite features"):
                infer(model, X)
        model.extractor.layers[-1][1][2] = np.inf  # every row's feature 2 is +inf
        with pytest.raises(NumericError, match="non-finite features"):
            extract_features(model, X[:5])

    def test_the_kernel_switch_the_block_rule_clears(self):
        """The OpenBLAS property ``row_blocks`` relies on: r rows of an N-wide product from K inputs
        get the whole product's bits when r * N >= 1536, and other bits when r * N <= 1200 and K >= 32."""
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        if blas.get("name") != "scipy-openblas" or not str(blas.get("version")).startswith("0.3.31"):
            pytest.skip(f"the kernel switch was measured on scipy-openblas 0.3.31, not {blas.get('name')} {blas.get('version')}")
        rng = np.random.default_rng(5)

        def block_is_whole(K, N, r):
            A, W = rng.uniform(-1.0, 1.0, (4096, K)), rng.uniform(-1.0, 1.0, (N, K))
            whole = A @ W.T
            return [(A[i : i + r] @ W.T).tobytes() == whole[i : i + r].tobytes() for i in (0, 512)]

        for K, N in [(32, 2), (32, 3), (64, 32), (256, 64), (256, 256)]:
            assert block_is_whole(K, N, whole_bits_rows(N)) == [True, True], (K, N)
            assert block_is_whole(K, N, 1200 // N) == [False, False], (K, N)


# Run in a child process at a given OpenBLAS thread count: the bytes of blocked features and of
# predict on ragged batches of a 2-class and a 32-class net.
INFERENCE_PROBE = """
import hashlib, json
import numpy as np
from geodin.train import TrainConfig, extract_features, init_model, predict
rng = np.random.default_rng(11)
digests = []
for hidden, width, k in [((256, 256), 64, 32), ((64, 32), 2, 2), ((32,), 16, 2)]:
    model = init_model(TrainConfig(hidden=hidden, feature_dim=width, seed=k), d_in=16, n_classes=k)
    model.head.flat[:] = rng.normal(0.0, 0.5, model.head.flat.shape)
    for rows in (767, 1537, 5003):
        X = rng.normal(0.0, 1.0, (rows, 16))
        blob = extract_features(model, X).tobytes() + predict(model, X).tobytes()
        digests.append(hashlib.sha256(blob).hexdigest())
print(json.dumps(digests))
"""


class TestStreamingInference:
    def test_blocked_inference_holds_at_one_and_two_blas_threads(self):
        assert thread_probe(1, INFERENCE_PROBE) == thread_probe(2, INFERENCE_PROBE)

    def test_extract_features_memory_does_not_grow_with_rows(self):
        width = 256
        model = init_model(TrainConfig(hidden=(width, width), feature_dim=width, seed=3), d_in=width, n_classes=2)
        rng = np.random.default_rng(3)

        def peak_beyond_output(rows):
            X = rng.normal(0.0, 1.0, (rows, width))
            tracemalloc.start()
            try:
                F = extract_features(model, X)
                return tracemalloc.get_traced_memory()[1] - F.nbytes
            finally:
                tracemalloc.stop()

        # 3 and 14 blocks of 512 rows, the last one 976 rows in both
        small, large = peak_beyond_output(3 * 512 + 464), peak_beyond_output(13 * 512 + 976)
        assert abs(large - small) < 4096, (small, large)  # a few Python objects, not 6000 rows of anything

    def test_extract_features_holds_two_layer_outputs(self):
        rows, width = 2000, 256
        model = init_model(TrainConfig(hidden=(width, width), feature_dim=width, seed=3), d_in=width, n_classes=2)
        X = np.random.default_rng(3).normal(0.0, 1.0, (rows, width))
        layer_bytes = rows * width * 8

        def peak_bytes(fn):
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak_bytes(lambda: extract_features(model, X)) < 3 * layer_bytes
        assert peak_bytes(lambda: extractor_activations(model.extractor, unit_rows(X))) >= 4 * layer_bytes

    def test_accuracy_of_a_wide_net_holds_no_whole_batch_features_or_logits(self):
        # The wide benchmark net over a 7680-row split: whole-batch F, F * F, s and m * s alone
        # take 3.9 + 3.9 + 2.0 + 2.0 MiB; block by block the pass peaks near 2.5 MiB.
        model = init_model(TrainConfig(hidden=(256, 256), feature_dim=64, seed=2), d_in=16, n_classes=32)
        rng = np.random.default_rng(2)
        X, y = rng.normal(0.0, 1.0, (7680, 16)), rng.integers(0, 32, 7680)
        accuracy(model, X, y)
        tracemalloc.start()
        try:
            accuracy(model, X, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, peak


class TestFullGradientCheck:
    @pytest.mark.parametrize("variant", list(HeadVariant))
    def test_random_models_pass(self, variant):
        rng = np.random.default_rng(10)
        for trial in range(5):
            cfg = TrainConfig(hidden=(6,), feature_dim=5, variant=variant, seed=100 + trial)
            model = init_model(cfg, d_in=4, n_classes=3)
            for W, b in model.extractor.layers:
                W += rng.normal(0.0, 0.3, W.shape)
                b += rng.normal(0.0, 0.2, b.shape)
            model.head.W += rng.normal(0.0, 0.3, model.head.W.shape)
            model.head.alpha_w += rng.normal(0.0, 0.3, 5)
            model.head.alpha_b[...] = float(rng.normal(0.0, 0.4))
            model.head.beta_w += rng.normal(0.0, 0.3, 5)
            model.head.beta_b[...] = float(rng.normal(0.0, 0.4))
            x = rng.normal(0.0, 1.0, 4)
            assert full_gradient_check(model, (x, 1), eps=1e-5) < 1e-5

    def test_near_zero_gradient_point_reported(self):
        # A confidently correct prediction: gradients are ~0 and the check
        # degrades gracefully (reported, not gated at the usual bound).
        cfg = TrainConfig(hidden=(4,), feature_dim=3, variant=HeadVariant.VANILLA, seed=0)
        model = init_model(cfg, d_in=2, n_classes=2)
        model.head.W[0] = [50.0, 0.0, 0.0]
        model.head.W[1] = [-50.0, 0.0, 0.0]
        model.extractor.layers[0][0][:] = np.abs(model.extractor.layers[0][0])
        err = full_gradient_check(model, (np.array([1.0, 0.5]), 0), eps=1e-5)
        assert np.isfinite(err)

    def test_bad_eps(self):
        model = init_model(TrainConfig(hidden=(4,), feature_dim=3, seed=0), d_in=2, n_classes=2)
        with pytest.raises(ConfigError):
            full_gradient_check(model, (np.zeros(2), 0), eps=0.0)
