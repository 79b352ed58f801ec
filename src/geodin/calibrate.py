"""Post-hoc confidence calibration and its metrics.

Calibration freezes the extractor and the class weights and retunes only the
alpha/beta head parameters by minimizing NLL on a validation split.  Because
the head rescales all logits by one positive factor, retuning can never
change a prediction, and every score derived from the feature and the class
weights is untouched.  The extractor therefore runs once per split: tuning,
the before/after metrics and every cross-validation fold reuse those
features.  Tuning also computes the head's plain part s = F W^T and ||f||
once (folds take row subsets) and steps only the multiplier, on the
training schedule ``train.minibatches`` over the alpha/beta slice of the
head, without weight decay.  ECE / NLL /
reliability-bin metrics and a temperature-scaling baseline live here too.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConfigError, DomainError, NumericError, UnsupportedVariantError
from .head import (
    HeadVariant,
    cross_entropy,
    head_backward_batch,
    head_forward_batch,
    multiplier_forward,
    plain_forward,
    softmax_cross_entropy_batch,
)
from .scores import shifted_exp
from .train import Model, check_sgd, extract_features, minibatches, momentum_step, shuffles


@dataclass(frozen=True)
class CalibConfig:
    epochs: int = 20
    lr0: float = 0.1
    momentum: float = 0.9
    batch_size: int = 64
    folds: int = 5  # 0 or 1 disables cross-validation
    seed: int = 0

    def validate(self) -> None:
        check_sgd(self)
        if self.folds < 0:
            raise ConfigError(f"folds must be >= 0, got {self.folds}")


@dataclass(frozen=True)
class SplitMetrics:
    """Accuracy, ECE and NLL of one split; ``asdict`` gives its report entry."""

    accuracy: float
    ece: float
    nll: float


@dataclass(frozen=True)
class BinStats:
    """Equal-width reliability bins; empty bins carry zeros."""

    counts: np.ndarray
    mean_confidence: np.ndarray
    accuracy: np.ndarray


@dataclass
class CalibrationReport:
    """Calibration before and after tuning; ``to_dict`` is the report JSON, in field order.

    ``folds`` and the cross-validation mean and std of the "after" metrics
    are left out of the JSON when cross-validation is off.
    """

    splits: dict  # split name -> {"before": SplitMetrics, "after": SplitMetrics}
    nll_before: float
    nll_after: float
    best_epoch: int
    folds: list = field(default_factory=list)  # {"fold": k, "before": SplitMetrics, "after": SplitMetrics}
    cv_mean: dict | None = None
    cv_std: dict | None = None

    def to_dict(self) -> dict:
        out = asdict(self)
        if not self.folds:
            del out["folds"], out["cv_mean"], out["cv_std"]
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


def split_metrics(logits, y, n_bins: int = 15) -> SplitMetrics:
    """Accuracy, ECE and NLL of a batch of logits against its labels."""
    if not np.all(np.isfinite(logits)):
        raise NumericError("non-finite logits: the head overflows on this split")
    y = np.asarray(y, dtype=np.int64)
    p = softmax_probs(logits)
    pred = p.argmax(axis=1)
    conf = p.max(axis=1)
    return SplitMetrics(
        accuracy=float(np.mean(pred == y)),
        ece=ece(conf, pred == y, n_bins),
        nll=nll(p, y),
    )


def _tune_head(head, F: np.ndarray, s: np.ndarray, fn: np.ndarray, y: np.ndarray, config: CalibConfig):
    """NLL-minimize the alpha/beta parameters on fixed features F with plain part (s, fn).

    Returns (tuned head, best epoch, nll before, nll after); the best state
    across epochs -1..epochs is kept, so the tuning NLL never increases.
    Raises NumericError when the NLL before tuning is not finite.
    """
    head = head.copy()

    def full_nll() -> float:
        return cross_entropy(multiplier_forward(F, s, fn, head).logits, y)

    nll_before = full_nll()
    if not math.isfinite(nll_before):
        raise NumericError(f"non-finite tuning NLL {nll_before}: the head overflows on this split")
    best = (nll_before, -1, head.copy())
    tail = head.W.size  # the alpha/beta parameters follow W in head.flat
    velocity = np.zeros_like(head.flat[tail:])
    for epoch, steps in enumerate(minibatches(F.shape[0], config, 2)):
        for idx, lr in steps:
            trace = multiplier_forward(F[idx], s[idx], fn[idx], head)
            _, grad_logits = softmax_cross_entropy_batch(trace.logits, y[idx])
            hg, _ = head_backward_batch(trace, F[idx], head, grad_logits, frozen_plain=True)
            momentum_step(head.flat[tail:], hg.flat[tail:], velocity, lr, config.momentum)
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
    config.folds >= 2.  Raises NumericError for non-finite parameters,
    tuned parameters or logits.
    """
    config.validate()
    if not model.finite():
        raise NumericError("model has non-finite parameters")
    if model.head.variant is HeadVariant.VANILLA:
        raise UnsupportedVariantError(
            "vanilla heads have no alpha/beta parameters to tune; use temperature_scale"
        )
    Xv, yv = val_set
    Xv = np.asarray(Xv, dtype=np.float64)
    yv = np.asarray(yv, dtype=np.int64)
    if Xv.shape[0] == 0:
        raise DomainError("validation set is empty")

    splits = {"val": (Xv, yv), **(eval_sets or {})}
    F = {name: extract_features(model, np.atleast_2d(X)) for name, (X, _) in splits.items()}

    def metrics(name, head, rows=slice(None)):
        return split_metrics(head_forward_batch(F[name][rows], head).logits, splits[name][1][rows])

    val = (F["val"], *plain_forward(F["val"], model.head), yv)  # features, s, ||f||, labels
    tuned_head, best_epoch, nll_before, nll_after = _tune_head(model.head, *val, config)
    if not np.all(np.isfinite(tuned_head.flat)):
        raise NumericError("calibration produced non-finite head parameters")
    new_model = Model(
        extractor=model.extractor.copy(),
        head=tuned_head,
        meta=dict(model.meta),
        history=list(model.history),
    )
    new_model.meta["calibrated"] = True

    report = CalibrationReport(
        splits={
            name: {"before": metrics(name, model.head), "after": metrics(name, tuned_head)} for name in F
        },
        nll_before=nll_before,
        nll_after=nll_after,
        best_epoch=best_epoch,
    )

    if config.folds >= 2:
        if config.folds > Xv.shape[0]:
            raise ConfigError(f"folds={config.folds} exceeds validation size {Xv.shape[0]}")
        pieces = np.array_split(next(shuffles(Xv.shape[0], config.seed, 3)), config.folds)
        for k, held in enumerate(pieces):
            rest = np.concatenate([p for j, p in enumerate(pieces) if j != k])
            fold_head, _, _, _ = _tune_head(model.head, *(a[rest] for a in val), config)
            report.folds.append(
                {"fold": k, "before": metrics("val", model.head, held), "after": metrics("val", fold_head, held)}
            )
        report.cv_mean, report.cv_std = {}, {}
        for key in ("accuracy", "ece", "nll"):
            values = [getattr(fold["after"], key) for fold in report.folds]
            report.cv_mean[key] = float(np.mean(values))
            report.cv_std[key] = float(np.std(values))

    return new_model, report
