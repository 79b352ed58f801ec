"""Post-hoc confidence calibration and its metrics.

Calibration freezes the extractor and the class weights and retunes only the
alpha/beta head parameters by minimizing NLL on a validation split.  Because
the head rescales all logits by one positive factor, retuning can never
change a prediction, and every score derived from the feature and the class
weights is untouched.  The extractor therefore runs once per split: tuning,
the before/after metrics and every cross-validation fold reuse those
features.  Tuning also computes the head's plain part s = F W^T, ||f|| and
max_j s_j once and steps only the multiplier, on the training schedule
``train.minibatches`` over the alpha/beta slice of the head, without weight
decay.  Row sets of one size share that schedule, so ``_tune_head`` tunes
a stack of heads (see ``head``) on equal-size row sets in one call per
step: the main run is a stack of one, and the k folds, whose sizes
``np.array_split`` makes differ by at most one, are stacked by size, at
most ``STACK_BYTES`` of row copies per stack.  Each fold's head is bit for
bit the one a run of its own would give.  The tuning logits are m * s with
m >= 1, so their class max is m * max_j s_j exactly (``scores.shifted_exp``):
no step or NLL takes that max again.  The per-epoch tuning NLL runs in
the row blocks of ``train.row_blocks``, as inference does, so its
temporaries are bounded by the block, not the split.
ECE / NLL / reliability-bin metrics and a temperature-scaling baseline live
here too.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import ConfigError, DomainError, NumericError, UnsupportedVariantError
from .head import (
    HeadVariant,
    cross_entropy,
    head_backward_batch,
    head_forward_batch,
    multiplier,
    multiplier_forward,
    plain_forward,
    row_nll,
    softmax_cross_entropy_batch,
)
from .scores import shifted_exp
from .train import Model, check_sgd, extract_features, minibatches, momentum_step, row_blocks, shuffles

# Bytes of the stacked row copies one _tune_head call may hold.  Five wide folds
# (2048 rows of D=64, k=32) take 8 MB; more folds go to further stacks rather
# than grow the copies with the fold count.
STACK_BYTES = 16 << 20


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


def _tune_head(head, val, rows: np.ndarray, config: CalibConfig):
    """NLL-minimize the alpha/beta parameters of G copies of ``head``, copy g on the val rows ``rows[g]``.

    ``val`` is (features F, plain part s, ||f||, max_j s_j, labels) of the tuning split
    and ``rows`` a (G, n) row index into it.  Returns (tuned heads as one
    stacked HeadParams, best epochs, NLLs before, NLLs after), each along the
    leading axis of length G; each copy keeps its best state across epochs
    -1..epochs, so no tuning NLL increases.  Raises NumericError when any
    NLL before tuning is not finite, and IndexError (from that NLL's
    ``row_nll``) when a label is out of range: the steps do not check them.
    The NLL's logits are taken in the blocks of ``train.row_blocks``, and
    its per-row NLLs go into a (G, n) buffer; that buffer, the head gradient
    and the momentum scratch are allocated once per call and overwritten by
    each epoch or step.  Every softmax gets its row max as m * max_j s_j
    (exact, as m >= 1) instead of taking it from the logits.
    """
    F, s, fn, smax, y = (a[rows] for a in val)  # each step gathers its batch from these stacked copies
    heads = head.like(np.tile(head.flat, (rows.shape[0], 1)))
    blocks, nll = row_blocks(rows.shape[1]), np.empty(rows.shape)

    def full_nll() -> np.ndarray:
        # m over all rows at once: its matrix-vector products are then the ones the whole
        # split's logits take, at any BLAS thread count; only the (G, n, k) logits go by block.
        m = multiplier(F, fn, heads)[2]
        for blk in blocks:
            row_nll(m[:, blk, None] * s[:, blk], y[:, blk], out=nll[:, blk], lmax=m[:, blk] * smax[:, blk])
        return nll.sum(axis=-1) / nll.shape[-1]  # cross_entropy's mean

    nll_before = full_nll()
    if not np.all(np.isfinite(nll_before)):
        bad = nll_before[~np.isfinite(nll_before)][0]
        raise NumericError(f"non-finite tuning NLL {bad}: the head overflows on this split")
    best_nll, best_epoch, best_flat = nll_before, np.full(rows.shape[0], -1), heads.flat.copy()
    tail = head.W.size  # the alpha/beta parameters follow W in head.flat
    hg = heads.like(np.zeros_like(heads.flat))  # its W part stays zero: the steps are frozen_plain
    live, live_grad = heads.flat[:, tail:], hg.flat[:, tail:]
    velocity, scratch = np.zeros_like(live), np.empty_like(live)
    for epoch, steps in enumerate(minibatches(rows.shape[1], config, 2)):
        for idx, lr in steps:
            Fb = F[:, idx]
            trace = multiplier_forward(Fb, s[:, idx], fn[:, idx], heads)
            # The loss is discarded, not skipped: one softmax cross-entropy serves train and calibrate.
            _, grad_logits = softmax_cross_entropy_batch(trace.logits, y[:, idx], lmax=trace.m * smax[:, idx])
            head_backward_batch(trace, Fb, heads, grad_logits, frozen_plain=True, out=hg)
            momentum_step(live, live_grad, velocity, lr, config.momentum, scratch=scratch)
        epoch_nll = full_nll()
        better = epoch_nll < best_nll
        best_nll = np.where(better, epoch_nll, best_nll)
        best_epoch[better] = epoch
        best_flat[better] = heads.flat[better]
    return head.like(best_flat), best_epoch, nll_before, best_nll


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
    if config.folds > Xv.shape[0]:
        raise ConfigError(f"folds={config.folds} exceeds validation size {Xv.shape[0]}")

    splits = {"val": (Xv, yv), **(eval_sets or {})}
    F = {name: extract_features(model, np.atleast_2d(X)) for name, (X, _) in splits.items()}

    def metrics(name, head, rows=slice(None)):
        return split_metrics(head_forward_batch(F[name][rows], head).logits, splits[name][1][rows])

    s, fn = plain_forward(F["val"], model.head)
    val = (F["val"], s, fn, s.max(axis=-1), yv)  # features, s, ||f||, max_j s_j, labels
    tuned, best_epoch, nll_before, nll_after = _tune_head(model.head, val, np.arange(Xv.shape[0])[None], config)
    tuned_head = tuned.like(tuned.flat[0])
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
        nll_before=float(nll_before[0]),
        nll_after=float(nll_after[0]),
        best_epoch=int(best_epoch[0]),
    )

    if config.folds >= 2:
        pieces = np.array_split(next(shuffles(Xv.shape[0], config.seed, 3)), config.folds)
        rests = [np.concatenate(pieces[:k] + pieces[k + 1 :]) for k in range(config.folds)]
        fold_heads, row_bytes = {}, sum(a[0].nbytes for a in val)
        for size in {len(rest) for rest in rests}:  # at most two sizes
            group = [k for k, rest in enumerate(rests) if len(rest) == size]
            per_stack = max(1, STACK_BYTES // (size * row_bytes))
            for stack in (group[i : i + per_stack] for i in range(0, len(group), per_stack)):
                tuned, *_ = _tune_head(model.head, val, np.stack([rests[k] for k in stack]), config)
                fold_heads.update((k, tuned.like(tuned.flat[g])) for g, k in enumerate(stack))
        for k, held in enumerate(pieces):
            report.folds.append(
                {"fold": k, "before": metrics("val", model.head, held), "after": metrics("val", fold_heads[k], held)}
            )
        report.cv_mean, report.cv_std = {}, {}
        for key in (f.name for f in fields(SplitMetrics)):
            values = [getattr(fold["after"], key) for fold in report.folds]
            report.cv_mean[key] = float(np.mean(values))
            report.cv_std[key] = float(np.std(values))

    return new_model, report
