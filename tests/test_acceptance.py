"""Acceptance gate: one test per release criterion, each with a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines.  Every tolerance here is fixed; the trend criteria use fixed
seeds, so the whole gate is deterministic.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from geodin.bench import (
    ShiftSpec,
    auroc,
    concept_split,
    corrupt,
    make_concept_groups,
    make_task,
    sweep,
    tnr_at_tpr95,
)
from geodin.calibrate import CalibConfig, calibrate, ece, split_metrics
from geodin.head import HeadParams, HeadVariant, head_forward_batch
from geodin.persist import parse_embeddings
from geodin.scores import score_batch
from geodin.train import (
    TrainConfig,
    accuracy,
    extract_features,
    init_model,
    predict,
    train,
)

from oracles import energy_score, full_gradient_check, kl_from_uniform, model_logits, msp_score, score_set
from trends import adjacent_drops

TREND_SEEDS = (0, 1, 2, 3, 4)


def _report(name: str, detail: str = ""):
    print(f"\n[acceptance] {name}: PASS {detail}".rstrip())


def test_c1_kl_bound_suite():
    """LSE and KL-from-uniform bounds hold for 1e4 random logit vectors."""
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    total = 0
    worst_slack = 0.0
    for m in range(2, 21):
        count = 10_000 // 19 + 1
        logits = rng.normal(0.0, 3.0, (count, m))
        for row in logits:
            lse = energy_score(row)
            top = row.max()
            assert top <= lse + 1e-9
            assert lse <= top + math.log(m) + 1e-9
            e = np.exp(row - top)
            probs = e / e.sum()
            kl = kl_from_uniform(probs)
            u = top - row.mean()
            assert u - math.log(m) - 1e-9 <= kl <= u + 1e-9
            worst_slack = max(worst_slack, kl - u, (u - math.log(m)) - kl)
        total += count
    elapsed = time.perf_counter() - start
    assert total >= 10_000
    assert elapsed < 1.0, f"KL bound suite took {elapsed:.2f}s"
    _report("C1 KL bound suite", f"({total} vectors, {elapsed:.2f}s)")


def test_c2_factorization_suite():
    """u = g*h to 1e-9 relative over 1e4 random (feature, weights) pairs."""
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    checked = 0
    for _ in range(100):
        W = rng.normal(0.0, 1.0, (5, 8))
        F = rng.uniform(0.0, 2.0, (100, 8))
        F[np.linalg.norm(F, axis=1) < 1e-6] += 0.5
        s = score_batch(F, W)
        np.testing.assert_allclose(s["u"], s["g"] * s["h"], rtol=1e-9, atol=1e-12)
        checked += F.shape[0]
    # the per-sample path obeys the same identity
    for _ in range(300):
        f = rng.uniform(0.05, 2.0, 8)
        W = rng.normal(0.0, 1.0, (5, 8))
        s = score_set(f, W)
        np.testing.assert_allclose(s.u, s.g * s.h, rtol=1e-9, atol=1e-12)
    elapsed = time.perf_counter() - start
    assert checked >= 10_000
    assert elapsed < 1.0, f"factorization suite took {elapsed:.2f}s"
    _report("C2 factorization suite", f"({checked}+300 pairs, {elapsed:.2f}s)")


def test_c3_gradient_suite():
    """Analytic end-to-end gradients match central differences per variant."""
    start = time.perf_counter()
    rng = np.random.default_rng(103)
    worst = 0.0
    for variant in HeadVariant:
        for trial in range(100):
            cfg = TrainConfig(hidden=(6,), feature_dim=5, variant=variant, seed=trial)
            model = init_model(cfg, d_in=4, n_classes=3)
            for W, b in model.extractor.layers:
                W += rng.normal(0.0, 0.3, W.shape)
                b += rng.normal(0.0, 0.2, b.shape)
            model.head.W += rng.normal(0.0, 0.3, model.head.W.shape)
            model.head.alpha_w += rng.normal(0.0, 0.3, 5)
            model.head.alpha_b[...] = float(rng.normal(0.0, 0.4))
            model.head.beta_w += rng.normal(0.0, 0.3, 5)
            model.head.beta_b[...] = float(rng.normal(0.0, 0.4))
            sample = (rng.normal(0.0, 1.0, 4), int(rng.integers(3)))
            err = full_gradient_check(model, sample, eps=1e-5)
            worst = max(worst, err)
            assert err < 1e-5, f"{variant.value} trial {trial}: rel err {err:.3e}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"gradient suite took {elapsed:.2f}s"
    _report("C3 gradient suite", f"(400 configs, worst rel err {worst:.2e}, {elapsed:.1f}s)")


def test_c4_order_preserving_suite():
    """Decomposed logits keep the vanilla ranking; calibration changes nothing."""
    start = time.perf_counter()
    rng = np.random.default_rng(104)

    # 1e4 random samples across fresh random head parameter draws
    checked = 0
    for _ in range(20):
        d, m = 8, 6
        params = HeadParams(np.zeros(HeadParams.size(m, d)), m, d, HeadVariant.ALPHA_BETA)
        params.W[:] = rng.normal(0.0, 0.7, (m, d))
        params.alpha_w[:] = rng.normal(0.0, 0.5, d)
        params.alpha_b[...] = float(rng.normal(0.0, 0.5))
        params.beta_w[:] = rng.normal(0.0, 0.5, d)
        params.beta_b[...] = float(rng.normal(0.0, 0.5))
        F = rng.uniform(1e-6, 2.0, (500, d))
        trace = head_forward_batch(F, params)
        vanilla = F @ params.W.T
        assert np.array_equal(np.argsort(trace.logits, axis=1), np.argsort(vanilla, axis=1))
        checked += F.shape[0]
    assert checked >= 10_000

    # calibration: predictions and feature-space scores are untouched
    task = make_task(8, 16, 400, 0.15, seed=0)
    model = train(TrainConfig(seed=0), task.train, n_classes=8)
    eval_rng = np.random.default_rng(105)
    X_eval = np.vstack(
        [task.test[0], eval_rng.normal(0.0, 1.0, (10_000 - task.test[0].shape[0], 16))]
    )
    pred_before = predict(model, X_eval)
    F_before = extract_features(model, X_eval)
    scores_before = score_batch(F_before, model.head.W)
    calibrated, _ = calibrate(model, task.val, CalibConfig(seed=0, folds=0))
    pred_after = predict(calibrated, X_eval)
    assert np.array_equal(pred_before, pred_after)
    F_after = extract_features(calibrated, X_eval)
    scores_after = score_batch(F_after, calibrated.head.W)
    for name in ("g", "h", "u"):
        assert scores_before[name].tobytes() == scores_after[name].tobytes()
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"order-preserving suite took {elapsed:.2f}s"
    _report("C4 order-preserving suite", f"({checked} rankings + calibration, {elapsed:.1f}s)")


def test_c5_metric_oracle_suite():
    """AUROC rank count == pairwise statistic; ECE == naive binning; TNR base rate."""
    rng = np.random.default_rng(106)
    for _ in range(50):
        n1 = int(rng.integers(5, 1001))
        n2 = int(rng.integers(5, 1001))
        tie_pool = rng.random() < 0.3
        if tie_pool:
            id_s = rng.integers(0, 30, n1).astype(float)
            ood_s = rng.integers(0, 30, n2).astype(float)
        else:
            id_s = rng.normal(0.7, 1.0, n1)
            ood_s = rng.normal(0.0, 1.0, n2)
        pairwise = np.mean(
            (id_s[:, None] > ood_s[None, :]) + 0.5 * (id_s[:, None] == ood_s[None, :])
        )
        assert abs(auroc(id_s, ood_s) - pairwise) < 1e-9

    for _ in range(20):
        n = int(rng.integers(1, 500))
        conf = rng.random(n)
        correct = rng.random(n) < conf
        naive = 0.0
        for b in range(15):
            members = np.minimum((conf * 15).astype(int), 14) == b
            if members.any():
                naive += members.mean() * abs(correct[members].mean() - conf[members].mean())
        assert abs(ece(conf, correct) - naive) < 1e-12

    id_s = rng.normal(0.0, 1.0, 100_000)
    ood_s = rng.normal(0.0, 1.0, 100_000)
    rate = tnr_at_tpr95(id_s, ood_s)
    assert abs(rate - 0.05) <= 0.01
    _report("C5 metric oracle suite", f"(TNR base rate {rate:.4f})")


def test_c6_covariate_trend():
    """AUROC of g rises with gaussian severity for the alpha-beta model."""
    start = time.perf_counter()
    curves = []
    for seed in TREND_SEEDS:
        task = make_task(8, 16, 400, 0.15, seed=seed)
        model = train(TrainConfig(seed=seed), task.train, n_classes=8)
        specs = [ShiftSpec("gaussian_noise", s) for s in range(1, 6)]
        report = sweep(model, task, ["g"], specs)
        curves.append([r.auroc for r in report.rows])
    mean_curve = np.mean(curves, axis=0)
    drops = adjacent_drops(mean_curve)
    n_inversions = int(np.sum(drops > 1e-12))
    assert n_inversions <= 1
    assert drops.max(initial=0.0) <= 0.01
    assert mean_curve[-1] >= 0.85
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _report(
        "C6 covariate trend",
        f"(g AUROC {' '.join(f'{v:.3f}' for v in mean_curve)}, {elapsed:.0f}s)",
    )


def test_c7_concept_trend():
    """AUROC of h rises with concept dissimilarity and beats g on average."""
    start = time.perf_counter()
    ladder = (0.65, 0.72, 0.79, 0.86, 0.92)
    h_curves, g_curves = [], []
    for seed in TREND_SEEDS:
        task = make_task(12, 16, 400, 0.15, seed=seed)
        model = train(TrainConfig(seed=seed), task.train, n_classes=12)
        groups = make_concept_groups(task, 2, 200, ladder)
        specs = [ShiftSpec("concept_split", gi) for gi in range(5)]
        report = sweep(model, task, ["g", "h"], specs, groups)
        h_curves.append([r.auroc for r in report.rows if r.score == "h"])
        g_curves.append([r.auroc for r in report.rows if r.score == "g"])
    h_mean = np.mean(h_curves, axis=0)
    g_mean = np.mean(g_curves, axis=0)
    # dissimilarity order: most similar group (highest index) first
    by_dissimilarity = h_mean[::-1]
    drops = adjacent_drops(by_dissimilarity)
    assert int(np.sum(drops > 1e-12)) <= 1
    assert drops.max(initial=0.0) <= 0.01
    assert h_mean.mean() > g_mean.mean()
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _report(
        "C7 concept trend",
        f"(h {' '.join(f'{v:.3f}' for v in h_mean)} vs g mean {g_mean.mean():.3f}, {elapsed:.0f}s)",
    )


def test_c8_calibration_effect():
    """Calibrating an overconfident model halves shifted-data ECE, keeps accuracy."""
    task = make_task(8, 16, 400, 0.15, seed=0)
    model = train(TrainConfig(seed=0), task.train, n_classes=8)
    over = model.like(model.flat.copy())
    over.head.beta_b += 4.0

    shifted_val = corrupt(task.val, ShiftSpec("gaussian_noise", 3), seed=task.seed)
    clean_acc_before = accuracy(over, *task.test)
    before = split_metrics(model_logits(over, shifted_val[0]), shifted_val[1])

    calibrated, report = calibrate(over, shifted_val, CalibConfig(seed=0, folds=0))
    after = report.splits["val"]["after"]

    assert after.ece <= 0.5 * before.ece, f"ECE {before.ece:.4f} -> {after.ece:.4f}"
    assert report.nll_after < report.nll_before
    clean_acc_after = accuracy(calibrated, *task.test)
    assert clean_acc_after == clean_acc_before
    _report(
        "C8 calibration effect",
        f"(ECE {before.ece:.3f} -> {after.ece:.3f}, NLL {report.nll_before:.3f} -> {report.nll_after:.3f})",
    )


def test_c9_scale_disclosure_documented():
    """The README states that full-scale reference results are out of reach here."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8").lower()
    assert "not reproducible" in text
    assert "wide-resnet" in text
    _report("C9 scale disclosure", "(README carries the desk-scale disclaimer)")


@pytest.mark.skipif(
    "GEODIN_GLOVE_PATH" not in os.environ,
    reason="optional: set GEODIN_GLOVE_PATH to a 300-d GloVe text file",
)
def test_c9_optional_embedding_split_reproduction():
    """Optional, non-gating: published-embedding split means for CIFAR names."""
    id_names = [
        "airplane", "automobile", "bird", "cat", "deer",
        "dog", "frog", "horse", "ship", "truck",
    ]
    ood_names = [
        "cattle", "shrew", "motorcycle", "squirrel", "snake", "trout", "sea",
        "tractor", "bus", "pickup truck", "bear", "elephant", "leopard",
        "camel", "lizard", "rabbit", "beaver", "spider", "raccoon", "orchid",
        "lion", "mountain", "crab", "bicycle", "turtle", "beetle", "train",
        "mouse", "snail", "otter", "possum", "shark", "forest", "pine",
        "dinosaur", "boy", "porcupine", "wolf", "road", "butterfly", "girl",
        "rocket", "man", "tiger", "bee", "tank", "whale", "baby", "kangaroo",
        "dolphin", "willow", "worm", "chimpanzee", "skunk", "cup", "mushroom",
        "oak", "cockroach", "crocodile", "hamster", "castle", "can", "bridge",
        "lobster", "house", "bed", "fox", "maple", "pear", "woman", "palm",
        "streetcar", "pepper", "keyboard", "bottle", "seal", "rose", "couch",
        "caterpillar", "goldfish", "flatfish", "apple", "orange", "plate",
        "table", "tulip", "bowl", "television", "skyscraper", "ray",
        "wardrobe", "lamp", "plain", "lawnmower", "chair", "poppy", "clock",
        "cloud", "sunflower", "telephone",
    ]
    embeddings = parse_embeddings(os.environ["GEODIN_GLOVE_PATH"])
    groups = concept_split(id_names, ood_names, embeddings, 10)
    assert abs(groups[9].mean - 24.96) <= 0.5
    assert abs(groups[0].mean - 7.5) <= 0.5
    _report("C9 optional embedding split", f"(group means {groups[0].mean:.2f}..{groups[9].mean:.2f})")
