"""Post-hoc confidence calibration and its metrics.

Calibration freezes the extractor and the class weights and retunes only the
alpha/beta head parameters by minimizing NLL on a validation split.  Because
the head rescales all logits by one positive factor, retuning can never
change a prediction, and every score derived from the feature and the class
weights is untouched.  A temperature-scaling baseline and ECE / NLL /
reliability-bin metrics live here as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError, UnsupportedVariantError
from .head import (
    HeadVariant,
    cross_entropy,
    head_backward_batch,
    head_forward_batch,
    softmax_cross_entropy_batch,
)
from .scores import shifted_exp
from .train import Model, cosine_lr, extract_features, model_logits, momentum_step


@dataclass(frozen=True)
class CalibConfig:
    epochs: int = 20
    lr0: float = 0.1
    momentum: float = 0.9
    batch_size: int = 64
    folds: int = 5  # 0 or 1 disables cross-validation
    seed: int = 0

    def validate(self) -> None:
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.lr0 <= 0:
            raise ConfigError(f"lr0 must be > 0, got {self.lr0}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.folds < 0:
            raise ConfigError(f"folds must be >= 0, got {self.folds}")
        if self.seed < 0:
            raise ConfigError(f"seed must be a nonnegative integer, got {self.seed}")


@dataclass(frozen=True)
class SplitMetrics:
    accuracy: float
    ece: float
    nll: float

    def to_dict(self) -> dict:
        return {"accuracy": self.accuracy, "ece": self.ece, "nll": self.nll}


@dataclass(frozen=True)
class BinStats:
    """Equal-width reliability bins; empty bins carry zeros."""

    counts: np.ndarray
    mean_confidence: np.ndarray
    accuracy: np.ndarray


@dataclass
class CalibrationReport:
    splits: dict  # split name -> {"before": SplitMetrics, "after": SplitMetrics}
    nll_before: float
    nll_after: float
    best_epoch: int
    folds: list = field(default_factory=list)  # (fold, before, after) on held-out folds
    cv_mean: dict | None = None
    cv_std: dict | None = None

    def to_dict(self) -> dict:
        out = {
            "splits": {
                name: {phase: m.to_dict() for phase, m in phases.items()}
                for name, phases in self.splits.items()
            },
            "nll_before": self.nll_before,
            "nll_after": self.nll_after,
            "best_epoch": self.best_epoch,
        }
        if self.folds:
            out["folds"] = [
                {"fold": i, "before": b.to_dict(), "after": a.to_dict()} for i, b, a in self.folds
            ]
            out["cv_mean"] = self.cv_mean
            out["cv_std"] = self.cv_std
        return out


def _validate_conf(confidences, correct):
    conf = np.asarray(confidences, dtype=np.float64)
    corr = np.asarray(correct, dtype=bool)
    if conf.size == 0:
        raise DomainError("empty input")
    if conf.shape != corr.shape or conf.ndim != 1:
        raise DomainError(f"mismatched shapes {conf.shape} vs {corr.shape}")
    if np.any(conf < 0) or np.any(conf > 1):
        raise DomainError("confidences must lie in [0, 1]")
    return conf, corr


def _bin_index(conf: np.ndarray, n_bins: int) -> np.ndarray:
    # Confidence c lands in bin floor(c * n_bins), with 1.0 folded into the last bin.
    return np.minimum((conf * n_bins).astype(np.int64), n_bins - 1)


def reliability_bins(confidences, correct, n_bins: int = 15) -> BinStats:
    """Per-bin sample count, mean confidence and accuracy."""
    if n_bins < 1:
        raise DomainError(f"n_bins must be >= 1, got {n_bins}")
    conf, corr = _validate_conf(confidences, correct)
    idx = _bin_index(conf, n_bins)
    counts = np.bincount(idx, minlength=n_bins).astype(np.int64)
    conf_sum = np.bincount(idx, weights=conf, minlength=n_bins)
    hit_sum = np.bincount(idx, weights=corr.astype(np.float64), minlength=n_bins)
    live = counts > 0
    mean_conf = np.zeros(n_bins)
    acc = np.zeros(n_bins)
    np.divide(conf_sum, counts, out=mean_conf, where=live)
    np.divide(hit_sum, counts, out=acc, where=live)
    return BinStats(counts=counts, mean_confidence=mean_conf, accuracy=acc)


def ece(confidences, correct, n_bins: int = 15) -> float:
    """Expected calibration error over equal-width confidence bins."""
    bins = reliability_bins(confidences, correct, n_bins)
    n = bins.counts.sum()
    return float(np.sum(bins.counts / n * np.abs(bins.accuracy - bins.mean_confidence)))


def nll(probs, labels) -> float:
    """Mean negative log likelihood of the labels; probabilities floored at 1e-300."""
    p = np.asarray(probs, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if p.ndim != 2 or y.shape != (p.shape[0],) or p.shape[0] == 0:
        raise DomainError(f"bad shapes: probs {p.shape}, labels {y.shape}")
    if np.any(y < 0) or np.any(y >= p.shape[1]):
        raise IndexError("label out of range")
    picked = p[np.arange(p.shape[0]), y]
    return float(np.mean(-np.log(np.maximum(picked, 1e-300))))


def temperature_scale(logits, labels) -> float:
    """Temperature T > 0 minimizing NLL of softmax(l / T).

    Golden-section search on ln T over [-3, 3]; predictions are unchanged by
    construction since T is a positive scalar.
    """
    l = np.asarray(logits, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if l.ndim != 2 or l.shape[0] == 0:
        raise DomainError("logit batch must be nonempty")

    def objective(a: float) -> float:
        return cross_entropy(l / math.exp(a), y)

    lo, hi = -3.0, 3.0
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc, fd = objective(c), objective(d)
    while hi - lo > 1e-8:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - invphi * (hi - lo)
            fc = objective(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + invphi * (hi - lo)
            fd = objective(d)
    return math.exp(0.5 * (lo + hi))


def softmax_probs(logits: np.ndarray) -> np.ndarray:
    _, e, esum = shifted_exp(logits)
    return e / esum[..., None]


def model_probs(model: Model, X) -> np.ndarray:
    return softmax_probs(model_logits(model, X))


def split_metrics(model: Model, X, y, n_bins: int = 15) -> SplitMetrics:
    """Accuracy, ECE and NLL of a model on one labelled split."""
    y = np.asarray(y, dtype=np.int64)
    p = model_probs(model, X)
    pred = p.argmax(axis=1)
    conf = p.max(axis=1)
    return SplitMetrics(
        accuracy=float(np.mean(pred == y)),
        ece=ece(conf, pred == y, n_bins),
        nll=nll(p, y),
    )


def _tune_head(head, F: np.ndarray, y: np.ndarray, config: CalibConfig):
    """NLL-minimize the alpha/beta parameters on fixed features.

    Returns (tuned head, best epoch, nll before, nll after); the best state
    across epochs -1..epochs is kept, so the tuning NLL never increases.
    """
    head = head.copy()
    n = F.shape[0]
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 2]))
    steps_per_epoch = (n + config.batch_size - 1) // config.batch_size
    total_steps = config.epochs * steps_per_epoch

    def full_nll() -> float:
        return cross_entropy(head_forward_batch(F, head).logits, y)

    nll_before = full_nll()
    best = (nll_before, -1, head.copy())
    tail = head.W.size  # the alpha/beta parameters follow W in head.flat
    velocity = np.zeros_like(head.flat[tail:])
    step = 0
    for epoch in range(config.epochs):
        perm = rng.permutation(n)
        for bi in range(steps_per_epoch):
            idx = perm[bi * config.batch_size : (bi + 1) * config.batch_size]
            lr = cosine_lr(step, total_steps, config.lr0)
            trace = head_forward_batch(F[idx], head)
            _, grad_logits = softmax_cross_entropy_batch(trace.logits, y[idx])
            hg = head_backward_batch(trace, F[idx], head, grad_logits)
            momentum_step(head.flat[tail:], hg.flat[tail:], velocity, lr, config.momentum)
            step += 1
        epoch_nll = full_nll()
        if epoch_nll < best[0]:
            best = (epoch_nll, epoch, head.copy())
    nll_after, best_epoch, best_head = best
    return best_head, best_epoch, nll_before, nll_after


def calibrate(model: Model, val_set, config: CalibConfig, eval_sets: dict | None = None):
    """Retune the alpha/beta head on a validation split by NLL minimization.

    Returns a new model (extractor and class weights copied unchanged) and a
    report with before/after accuracy, ECE, NLL on the tuning split and any
    extra named eval splits, plus k-fold cross-validation metrics when
    config.folds >= 2.
    """
    config.validate()
    if model.head.variant is HeadVariant.VANILLA:
        raise UnsupportedVariantError(
            "vanilla heads have no alpha/beta parameters to tune; use temperature_scale"
        )
    Xv, yv = val_set
    Xv = np.asarray(Xv, dtype=np.float64)
    yv = np.asarray(yv, dtype=np.int64)
    if Xv.shape[0] == 0:
        raise DomainError("validation set is empty")

    F = extract_features(model, Xv)
    eval_sets = dict(eval_sets or {})

    before = {"val": split_metrics(model, Xv, yv)}
    for name, (Xe, ye) in eval_sets.items():
        before[name] = split_metrics(model, Xe, ye)

    tuned_head, best_epoch, nll_before, nll_after = _tune_head(model.head, F, yv, config)
    new_model = Model(
        extractor=model.extractor.copy(),
        head=tuned_head,
        meta=dict(model.meta),
        history=list(model.history),
    )
    new_model.meta["calibrated"] = True

    report = CalibrationReport(
        splits={
            name: {"before": before[name], "after": split_metrics(new_model, *xy)}
            for name, xy in {"val": (Xv, yv), **eval_sets}.items()
        },
        nll_before=nll_before,
        nll_after=nll_after,
        best_epoch=best_epoch,
    )

    if config.folds >= 2:
        if config.folds > Xv.shape[0]:
            raise ConfigError(f"folds={config.folds} exceeds validation size {Xv.shape[0]}")
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, 3]))
        perm = rng.permutation(Xv.shape[0])
        pieces = np.array_split(perm, config.folds)
        for k, held in enumerate(pieces):
            rest = np.concatenate([p for j, p in enumerate(pieces) if j != k])
            fold_head, _, _, _ = _tune_head(model.head, F[rest], yv[rest], config)
            fold_model = Model(model.extractor, fold_head, dict(model.meta))
            report.folds.append(
                (
                    k,
                    split_metrics(model, Xv[held], yv[held]),
                    split_metrics(fold_model, Xv[held], yv[held]),
                )
            )
        after = [a for _, _, a in report.folds]
        report.cv_mean = {
            "accuracy": float(np.mean([m.accuracy for m in after])),
            "ece": float(np.mean([m.ece for m in after])),
            "nll": float(np.mean([m.nll for m in after])),
        }
        report.cv_std = {
            "accuracy": float(np.std([m.accuracy for m in after])),
            "ece": float(np.std([m.ece for m in after])),
            "nll": float(np.std([m.nll for m in after])),
        }

    return new_model, report
