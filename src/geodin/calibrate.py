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
decay.  ``_tune_head`` tunes the main run's head and the k folds' heads as
one stack (see ``head``), in lock-step: each head keeps the schedule of its
own row count, and at each step the heads whose batches are equally long
take it in one call.  Each head is bit for bit the one a run of its own
would give.  The tuning logits are m * s with m >= 1, so their class max is
m * max_j s_j exactly (``scores.shifted_exp``): no step or NLL takes that
max again.  The per-epoch tuning NLL gathers its rows from the split one
block of at most ``NLL_LOGITS`` logits at a time, so it copies no head's
row set and its temporaries are bounded by the block, not by the split or
the number of folds.
ECE / NLL / reliability-bin metrics and a temperature-scaling baseline live
here too.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from itertools import groupby

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
from .train import Model, check_sgd, extract_features, minibatches, momentum_step, shuffles

# Logits (heads x rows x k) per block of the per-epoch tuning NLL.  A five-fold calibrate at D=64,
# k=32 took 1.07x as long at 2^14 and 1.36x at 2^18, and the same at 2^15-2^17 (CPU time, 20
# alternating in-process pairs per budget; one x86_64 core, one OpenBLAS thread).
NLL_LOGITS = 1 << 16


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


def _tune_head(head, val, rows, config: CalibConfig):
    """NLL-minimize the alpha/beta parameters of G copies of ``head``, copy g on the val rows ``rows[g]``.

    ``val`` is (features F, plain part s, ||f||, max_j s_j, labels) of the tuning split
    and ``rows`` G row indices into it, longest first.  Returns (tuned heads as
    one stacked HeadParams, best epochs, NLLs before, NLLs after), each along
    the leading axis of length G; each copy keeps its best state across epochs
    -1..epochs, so no tuning NLL increases.  Raises NumericError when any NLL
    before tuning is not finite, and IndexError (from that NLL's ``row_nll``)
    when a label is out of range: the steps do not check them.

    Copy g keeps the schedule ``minibatches(len(rows[g]), config, 2)``.  Step
    i of an epoch runs on the copies that have a batch i, a prefix of the
    stack, in one call per run of equal batch lengths, on views of the stack
    and with a column of the copies' rates; each copy so gets the bits of a
    stack of one.  The per-epoch NLL takes each run of equal-size copies in
    blocks of rows that start at multiples of 64 and hold at most
    ``NLL_LOGITS`` logits, gathering a block's rows from ``val``; a copy on
    the whole split, in order, runs alone and reads it through views.
    64-aligned blocks give the multiplier the whole product's bits
    (``head._matvec``).  Its per-row NLLs, the head gradient and the momentum
    scratch are allocated once per call.  Every softmax gets its row max as
    m * max_j s_j (exact, as m >= 1) instead of taking it from the logits.
    """
    sizes = [len(r) for r in rows]
    if sizes != sorted(sizes, reverse=True):
        raise ValueError(f"row sets must come longest first, got sizes {sizes}")
    G, bs, whole = len(sizes), config.batch_size, np.arange(len(val[0]))
    heads = head.like(np.tile(head.flat, (G, 1)))
    tail = head.W.size  # the alpha/beta parameters follow W in head.flat
    hg = heads.like(np.zeros_like(heads.flat))  # its W part stays zero: the steps are frozen_plain
    live, live_grad = heads.flat[:, tail:], hg.flat[:, tail:]
    velocity, scratch = np.zeros_like(live), np.empty_like(live)

    def runs(keys):
        """(a, b) of each run of equal keys along the stack."""
        a = 0
        for _, members in groupby(keys):
            b = a + len(list(members))
            yield a, b
            a = b

    in_place = [g if np.array_equal(r, whole) else -1 for g, r in enumerate(rows)]  # each its own run
    stacks = []  # the NLL's (heads, row index or None in place, rows per block, per-row NLLs) per run
    for a, b in runs(zip(sizes, in_place)):
        block = max(64, NLL_LOGITS // ((b - a) * head.n_classes) // 64 * 64)
        index = None if in_place[a] >= 0 else np.stack(rows[a:b])
        stacks.append((heads.like(heads.flat[a:b]), index, block, np.empty((b - a, sizes[a]))))

    def full_nll() -> np.ndarray:
        out = []
        for heads_ab, index, block, nll in stacks:
            for i in range(0, nll.shape[-1], block):
                blk = slice(i, i + block)
                F, s, fn, smax, y = (x[None, blk] if index is None else x[index[:, blk]] for x in val)
                m = multiplier(F, fn, heads_ab)[2]
                row_nll(m[..., None] * s, y, out=nll[:, blk], lmax=m * smax)
            out.append(nll.sum(axis=-1) / nll.shape[-1])  # cross_entropy's mean
        return np.concatenate(out)

    nll_before = full_nll()
    if not np.all(np.isfinite(nll_before)):
        bad = nll_before[~np.isfinite(nll_before)][0]
        raise NumericError(f"non-finite tuning NLL {bad}: the head overflows on this split")
    best_nll, best_epoch, best_flat = nll_before, np.full(G, -1), heads.flat.copy()

    plan = []  # per step index i: the runs of copies with a batch i of equal length, and their batch columns
    for i in range(-(-sizes[0] // bs)):
        lengths = [min(bs, n - i * bs) for n in sizes if n > i * bs]
        plan.append([
            (a, b, heads.like(heads.flat[a:b]), hg.like(hg.flat[a:b]), slice(i * bs, i * bs + lengths[a]))
            for a, b in runs(lengths)
        ])
    schedules = {n: minibatches(n, config, 2) for n in set(sizes)}
    order = np.empty((G, sizes[0]), dtype=np.intp)  # row g: copy g's val rows in this epoch's batch order
    lrs = np.empty((len(plan), G))  # row i: each copy's learning rate at step i
    for epoch in range(config.epochs):
        steps = {n: next(schedule) for n, schedule in schedules.items()}
        for g, r in enumerate(rows):
            own = steps[len(r)]
            order[g, : len(r)] = r[np.concatenate([idx for idx, _ in own])]
            lrs[: len(own), g] = [lr for _, lr in own]
        for step, lr in zip(plan, lrs):
            for a, b, heads_ab, hg_ab, cols in step:
                idx = order[a:b, cols]
                Fb, sb, fnb, smaxb, yb = (x[idx] for x in val)
                trace = multiplier_forward(Fb, sb, fnb, heads_ab)
                # The loss is discarded, not skipped: one softmax cross-entropy serves train and calibrate.
                _, grad_logits = softmax_cross_entropy_batch(trace.logits, yb, lmax=trace.m * smaxb)
                head_backward_batch(trace, Fb, heads_ab, grad_logits, frozen_plain=True, out=hg_ab)
                momentum_step(
                    live[a:b], live_grad[a:b], velocity[a:b], lr[a:b, None], config.momentum, scratch=scratch[a:b]
                )
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
    pieces = np.array_split(next(shuffles(Xv.shape[0], config.seed, 3)), config.folds) if config.folds >= 2 else []
    row_sets = [np.arange(Xv.shape[0])] + [np.concatenate(pieces[:k] + pieces[k + 1 :]) for k in range(len(pieces))]
    # Row set 0 is the main run's and the rest are the folds' training rows; one stack tunes them all.
    order = sorted(range(len(row_sets)), key=lambda j: -len(row_sets[j]))  # longest first; the main run leads
    tuned, *results = _tune_head(model.head, val, [row_sets[j] for j in order], config)
    tuned_runs = {j: (tuned.like(tuned.flat[g]), *(r[g] for r in results)) for g, j in enumerate(order)}
    tuned_head, best_epoch, nll_before, nll_after = tuned_runs[0]
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
        nll_before=float(nll_before),
        nll_after=float(nll_after),
        best_epoch=int(best_epoch),
    )

    if pieces:
        for k, held in enumerate(pieces):
            report.folds.append(
                {"fold": k, "before": metrics("val", model.head, held), "after": metrics("val", tuned_runs[k + 1][0], held)}
            )
        report.cv_mean, report.cv_std = {}, {}
        for key in (f.name for f in fields(SplitMetrics)):
            values = [getattr(fold["after"], key) for fold in report.folds]
            report.cv_mean[key] = float(np.mean(values))
            report.cv_std[key] = float(np.std(values))

    return new_model, report
