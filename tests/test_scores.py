"""Score-function tests: frozen examples, independent oracles, invariants.

``score_batch`` is the one implementation of the scores; the oracles in
``tests/oracles.py`` compute the README's norm x cosine definitions with
explicit scalar sums.
"""

import math

import numpy as np
import pytest

import oracles
from geodin.bench import make_task
from geodin.errors import DomainError, ShapeError
from geodin.head import HeadParams, HeadVariant, multiplier_forward
from geodin.scores import EPS_NORM, plain_forward, row_norms, score_batch
from geodin.train import TrainConfig, extract_features, train
from oracles import energy_score, kl_from_uniform, msp_score, score_set, softmax_probs


def random_pair(rng, d=8, m=5):
    """Random nonnegative feature and weight matrix."""
    return rng.uniform(0.0, 2.0, d), rng.normal(0.0, 1.0, (m, d))


class TestGeometryView:
    """The norm/angle view of the logits, through the oracle and score_set."""

    def test_pythagorean(self):
        W = [[1.0, 0.0], [0.0, 1.0]]
        fn, wn, cos, logits = oracles.geometry([3.0, 4.0], W)
        assert (fn, wn, cos, logits) == (5.0, [1.0, 1.0], [0.6, 0.8], [3.0, 4.0])
        s = score_set([3.0, 4.0], W)
        assert s.g == 5.0
        assert s.u == 0.5
        assert s.h == pytest.approx(0.1, abs=1e-15)

    def test_zero_feature_convention(self):
        s = score_set([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]])
        assert (s.g, s.h, s.u) == (0.0, 0.0, 0.0)
        assert s.msp == 0.5
        assert s.energy == pytest.approx(math.log(2.0), abs=1e-15)

    def test_zero_weight_row_convention(self):
        # a zero weight row has cosine 0 and logit 0, so both paths agree
        f, W = [1.0, 2.0], [[0.0, 0.0], [1.0, 1.0]]
        s = score_set(f, W)
        assert s.u == 1.5
        np.testing.assert_allclose(s.h, oracles.concept(f, W), rtol=1e-12)

    def test_logits_match_brute_force_inner_products(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            f, W = random_pair(rng, d=8, m=5)
            s = score_set(f, W)
            logits = oracles.geometry(f, W)[3]
            assert abs(s.u - (max(logits) - sum(logits) / 5)) < 1e-12
            assert abs(s.energy - oracles.energy(logits)) < 1e-12

    def test_decomposition_reconstructs_logits(self):
        rng = np.random.default_rng(12)
        f, W = random_pair(rng)
        fn, wn, cos, _ = oracles.geometry(f, W)
        assert all(abs(c) <= 1.0 + 1e-12 for c in cos)
        rebuilt = [fn * n * c for n, c in zip(wn, cos)]
        u = max(rebuilt) - sum(rebuilt) / len(rebuilt)
        np.testing.assert_allclose(score_set(f, W).u, u, rtol=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            score_set([1.0, 2.0, 3.0], [[1.0, 0.0], [0.0, 1.0]])

    def test_single_class_rejected(self):
        with pytest.raises(ShapeError):
            score_set([1.0], [[1.0]])

    def test_negative_feature_rejected(self):
        with pytest.raises(DomainError):
            score_set([-1.0, 2.0], [[1.0, 0.0], [0.0, 1.0]])


class TestCovariateScore:
    W = [[1.0, 0.0], [0.0, 1.0]]

    def test_zero(self):
        assert score_set([0.0, 0.0], self.W).g == 0.0

    def test_three_four_five(self):
        assert score_set([3.0, 4.0], self.W).g == 5.0

    def test_matches_summation_oracle(self):
        rng = np.random.default_rng(13)
        f = rng.uniform(0.0, 3.0, 32)
        g = score_set(f, np.eye(32)[:2]).g
        assert abs(g - oracles.covariate(f)) < 1e-12


class TestConceptScore:
    def test_identical_classes(self):
        assert score_set([1.0, 2.0], [[0.3, 0.4], [0.3, 0.4]]).h == 0.0

    def test_uniform_logits(self):
        assert score_set([1.0, 1.0], [[1.0, 0.0], [0.0, 1.0]]).h == 0.0

    def test_matches_logit_path(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            f, W = random_pair(rng, d=6, m=10)
            np.testing.assert_allclose(score_set(f, W).h, oracles.concept(f, W), rtol=1e-9)


class TestCombinedScore:
    def test_uniform_logits(self):
        assert score_set([1.0, 1.0], [[1.0, 0.0], [0.0, 1.0]]).u == 0.0

    def test_hand_arithmetic(self):
        # logits (2, 0, 0, 0) -> 2 - 0.5 = 1.5
        assert score_set([2.0], np.array([[1.0], [0.0], [0.0], [0.0]])).u == 1.5

    def test_two_path_equality(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            f, W = random_pair(rng)
            logit_path = score_set(f, W).u
            gh_path = oracles.covariate(f) * oracles.concept(f, W)
            np.testing.assert_allclose(gh_path, logit_path, rtol=1e-9, atol=1e-12)


class TestMspScore:
    def test_uniform(self):
        assert msp_score([7.0, 7.0, 7.0, 7.0]) == 0.25

    def test_overflow_stability(self):
        assert msp_score([1000.0, 0.0]) == pytest.approx(1.0)

    def test_matches_extended_precision_oracle(self):
        from mpmath import exp as mp_exp, mp

        mp.dps = 50
        rng = np.random.default_rng(16)
        for _ in range(20):
            logits = rng.normal(0.0, 5.0, 6)
            exps = [mp_exp(x) for x in logits]
            oracle = float(max(exps) / sum(exps))
            assert abs(msp_score(logits) - oracle) < 1e-12


class TestEnergyScore:
    def test_constant_logits(self):
        assert energy_score([2.0] * 3) == pytest.approx(2.0 + math.log(3), abs=1e-12)

    def test_dominance(self):
        assert energy_score([50.0, -50.0]) == pytest.approx(50.0, abs=1e-12)

    def test_lse_bounds(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            m = int(rng.integers(2, 21))
            logits = rng.normal(0.0, 3.0, m)
            lse = energy_score(logits)
            assert logits.max() - 1e-9 <= lse <= logits.max() + math.log(m) + 1e-9


class TestGivenRowMax:
    """``score_batch``'s one max per row serves u, msp and energy."""

    @pytest.mark.parametrize("case", ["random", "all_equal", "wide_gap"])
    def test_score_batch_msp_energy_match_the_per_score_max(self, case):
        rng = np.random.default_rng(31)
        if case == "random":
            F, W = rng.uniform(0.0, 2.0, (64, 9)), rng.normal(0.0, 3.0, (6, 9))
        elif case == "all_equal":  # small integers: every logit of a row is the same exact sum
            F, W = rng.integers(0, 5, (16, 9)).astype(float), np.tile(rng.integers(-3, 4, 9), (5, 1)).astype(float)
            F[0] = 0.0
        else:
            F, W = np.array([[1000.0]]), np.array([[1.0], [-1.0]])  # logits [1000, -1000]
        logits = F @ W.T
        if case == "all_equal":
            assert np.all(logits == logits[:, :1])
        scores = score_batch(F, W)
        msp, energy = oracles.msp_energy(logits)
        assert scores["msp"].tobytes() == msp.tobytes()
        assert scores["energy"].tobytes() == energy.tobytes()


class TestKlFromUniform:
    def test_uniform_is_zero(self):
        assert kl_from_uniform([0.25] * 4) == 0.0

    def test_direct_sum_oracle(self):
        p = [0.7, 0.1, 0.1, 0.1]
        oracle = -sum((1.0 / 4.0) * math.log(4.0 * pi) for pi in p)
        value = kl_from_uniform(p)
        assert abs(value - oracle) < 1e-12
        assert value == pytest.approx(0.42981319461032674, abs=1e-14)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            kl_from_uniform([0.5, 0.5, 0.0])

    def test_rejects_unnormalized(self):
        with pytest.raises(DomainError):
            kl_from_uniform([0.5, 0.6])

    def test_bounded_by_combined_score(self):
        rng = np.random.default_rng(18)
        for _ in range(300):
            m = int(rng.integers(2, 21))
            logits = rng.normal(0.0, 3.0, m)
            e = np.exp(logits - logits.max())
            probs = e / e.sum()
            u = logits.max() - logits.mean()
            kl = kl_from_uniform(probs)
            assert u - math.log(m) - 1e-9 <= kl <= u + 1e-9


    def test_bound_holds_on_trained_logits(self):
        # The paper's u - ln M <= KL(U||P) <= u on a trained model's test
        # split, where P = softmax(W f) comes from real features, not random logits.
        task = make_task(6, 10, 100, 0.15, seed=41)
        model = train(TrainConfig(epochs=20, seed=41, hidden=(24,), feature_dim=8), task.train, n_classes=6)
        F = extract_features(model, task.test[0])
        W = model.head.W
        u = score_batch(F, W)["u"]
        probs = softmax_probs(F @ W.T)
        m = W.shape[0]
        for ui, p in zip(u, probs):
            kl = kl_from_uniform(p)
            assert ui - math.log(m) - 1e-9 <= kl <= ui + 1e-9
        assert np.any(u > math.log(m))  # the lower bound is not vacuous on this split


class TestRowNorms:
    def test_bit_for_bit_numpy_norm(self):
        # score_batch's g, the head's ||f|| and unit_rows all take their norms here.
        rng = np.random.default_rng(30)
        for n, d in [(1, 1), (7, 3), (64, 16), (513, 64), (300, 257)]:
            F = np.abs(rng.normal(0.0, rng.choice([1e-3, 1.0, 1e3]), (n, d)))
            F[rng.random((n, d)) < 0.3] = 0.0  # rectified features are often exactly 0
            assert row_norms(F).tobytes() == np.linalg.norm(F, axis=1).tobytes()


class TestScoreSetAndBatch:
    def test_factorization_invariant(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            f, W = random_pair(rng)
            s = score_set(f, W)
            if s.g > EPS_NORM:
                np.testing.assert_allclose(s.u, s.g * s.h, rtol=1e-9, atol=1e-12)

    def test_msp_range(self):
        rng = np.random.default_rng(20)
        for _ in range(100):
            f, W = random_pair(rng, d=5, m=7)
            s = score_set(f, W)
            assert 1.0 / 7.0 - 1e-12 <= s.msp <= 1.0

    def test_nonnegativity(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            f, W = random_pair(rng)
            s = score_set(f, W)
            assert s.h >= 0.0
            assert s.u >= 0.0

    def test_scale_covariance(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            f, W = random_pair(rng)
            c = float(rng.uniform(0.1, 10.0))
            s1 = score_set(f, W)
            s2 = score_set(c * f, W)
            np.testing.assert_allclose(s2.g, c * s1.g, rtol=1e-9)
            np.testing.assert_allclose(s2.u, c * s1.u, rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(s2.h, s1.h, rtol=1e-9, atol=1e-12)

    def test_purity_bit_identical(self):
        rng = np.random.default_rng(23)
        f, W = random_pair(rng)
        a = score_set(f, W)
        b = score_set(f.copy(), W.copy())
        assert (a.g, a.h, a.u, a.msp, a.energy) == (b.g, b.h, b.u, b.msp, b.energy)

    def test_batch_matches_per_sample(self):
        rng = np.random.default_rng(24)
        W = rng.normal(0.0, 1.0, (6, 9))
        F = rng.uniform(0.0, 2.0, (64, 9))
        F[0] = 0.0  # degenerate row
        batch = score_batch(F, W)
        for i in range(F.shape[0]):
            logits = oracles.geometry(F[i], W)[3]
            expected = {
                "g": oracles.covariate(F[i]),
                "h": oracles.concept(F[i], W),
                "u": oracles.combined(F[i], W),
                "msp": oracles.msp(logits),
                "energy": oracles.energy(logits),
            }
            for name, value in expected.items():
                np.testing.assert_allclose(batch[name][i], value, rtol=1e-12, atol=1e-13)

    def test_batch_shape_mismatch(self):
        with pytest.raises(ShapeError):
            score_batch(np.ones((4, 3)), np.ones((5, 2)))

    @pytest.mark.parametrize(
        "F,error",
        [
            ([1.0, 2.0], ShapeError),
            ([[[1.0, 2.0]]], ShapeError),
            ([[np.nan, 1.0], [1.0, 2.0]], DomainError),
            ([[1.0, np.inf], [1.0, 2.0]], DomainError),
            ([[1.0, 1.0], [-1.0, 2.0]], DomainError),
        ],
        ids=["1d", "3d", "nan", "inf", "negative"],
    )
    def test_batch_rejects_bad_features(self, F, error):
        with pytest.raises(error):
            score_batch(F, np.eye(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_batch_rejects_non_finite_weights(self, bad):
        W = np.eye(2)
        W[1, 0] = bad
        with pytest.raises(DomainError, match="weight matrix contains non-finite entries"):
            score_batch(np.ones((3, 2)), W)


class TestBoundaryRows:
    def test_u_of_equal_logits_is_clamped_at_zero(self):
        # Three logits of 0.1 have a mean that rounds above 0.1, so lmax - mean is -1.39e-17 unclamped.
        scores = score_batch([[1.0, 0.0]], [[0.1, 0.0]] * 3)
        assert scores["u"][0] == 0.0 and scores["h"][0] == 0.0

    def test_a_row_whose_norm_is_exactly_eps_norm_is_not_degenerate(self):
        F = np.array([[1e-12, 0.0]])
        assert row_norms(F)[0] == EPS_NORM
        assert score_batch(F, np.eye(2))["h"][0] == 0.5  # u = 5e-13 over ||f|| = 1e-12
        head = HeadParams(np.zeros(HeadParams.size(2, 2)), 2, 2, HeadVariant.ALPHA_BETA)
        head.W[...] = np.eye(2)
        trace = multiplier_forward(F, *plain_forward(F, head.W), head)
        assert not trace.degenerate[0]
        assert trace.m[0] > 1.0 / trace.alpha[0]  # the beta term counts: m is 1 / alpha only on a degenerate row
