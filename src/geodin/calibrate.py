"""Post-hoc confidence calibration and its metrics.

Calibration freezes the extractor and the class weights and retunes only the
alpha/beta head parameters by minimizing NLL on a validation split.  Because
the head rescales all logits by one positive factor, retuning can never
change a prediction, and every score derived from the feature and the class
weights is untouched.  The extractor and the head's plain part therefore run
once per split (``_gap_split``): F, ||f|| and the class gaps d = s - max_j s_j
of s = F W^T.  Only one split is alive at a time: the tuning split serves
tuning, its before/after metrics and every cross-validation fold, and is
released before the first eval split is extracted; each eval split serves
only its own before/after metrics.  Tuning steps only the multiplier m, on
the training schedule ``train.minibatches`` over the alpha/beta slice of the
head, without weight decay.  As m > 0, the logits m * d have row max exactly
0: no tuning softmax takes a max or a shift, and a step needs only dL/dm
(``head.gap_cross_entropy``).  Every metric reads a split's gaps and each
head's m: the logits m * d are their own class gaps, m * d_y the labels',
and as m >= 1 keeps d's zeros and signs, every head predicts d's argmax,
taken once per split.  So the report's tuning-split NLL is the tuning NLL,
bit for bit, and before and after accuracy are equal.
``_tune_head`` tunes the main run's head and the k folds' heads as one stack
(see ``head``), in lock-step: each head keeps the schedule of its own row
count, and at each step the heads whose batches are equally long take it in
one call, bit for bit as a run of its own.  The per-epoch tuning NLL takes
every head's m over the whole split in one multiplier pass, then the logits
m * d in order, one block of at most ``NLL_LOGITS`` logits at a time, so it
gathers no head's features or gaps and its temporaries are (heads, rows)
vectors and one block, not the split's (heads, rows, classes) logits.
ECE / NLL / reliability-bin metrics and a temperature-scaling baseline live
here too.  Every NLL here is log(esum) - d_y over class gaps d = l - max_j l_j,
so none is capped, and a temperature is fitted by bisection on dL/dm.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from itertools import groupby

import numpy as np

from .errors import ConfigError, DomainError, NumericError, StateError, UnsupportedVariantError
from .head import (
    HeadVariant,
    gap_cross_entropy,
    head_backward_batch,
    # Neither this nor softmax_cross_entropy_batch is called here, as tuning and metrics run on class gaps;
    # both are bound because perfbench's tracer wraps every name in ``spans.PATCHES`` around each traced op.
    head_forward_batch,
    multiplier_forward,
    softmax_cross_entropy_batch,
)
from .scores import plain_forward
from .train import Model, check_sgd, check_split, extract_features, minibatches, momentum_step, shuffles, whole_labels

# Logits (heads x rows x k) per block of the per-epoch tuning NLL.  Tuning six heads on 2560 rows at
# D=64, k=32 took 1.02-1.12x as long at 2^14-2^15, 1.18x at 2^18 and the same at 2^17 (median CPU
# time of 12-20 alternating in-process runs per budget; one x86_64 core, one OpenBLAS thread).
NLL_LOGITS = 1 << 16

ECE_BINS = 15  # equal-width confidence bins of the ECE and the reliability diagram, by default


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
    if not np.all((conf >= 0) & (conf <= 1)):  # so written that NaN fails it
        raise DomainError("confidences must lie in [0, 1]")
    return conf, corr


def _bin_index(conf: np.ndarray, n_bins: int) -> np.ndarray:
    # Confidence c lands in bin floor(c * n_bins), with 1.0 folded into the last bin.
    return np.minimum((conf * n_bins).astype(np.int64), n_bins - 1)


def reliability_bins(confidences, correct, n_bins: int = ECE_BINS) -> BinStats:
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


def ece(confidences, correct, n_bins: int = ECE_BINS) -> float:
    """Expected calibration error over equal-width confidence bins."""
    bins = reliability_bins(confidences, correct, n_bins)
    n = bins.counts.sum()
    return float(np.sum(bins.counts / n * np.abs(bins.accuracy - bins.mean_confidence)))


def _gaps(logits, labels, out: np.ndarray | None = None):
    """The class gaps d = l - max_j l_j of a logit batch (n, k), into ``out`` when given, and the labels' gaps d_y.

    DomainError unless l is a nonempty (n, k) and the labels (n,), then NumericError for a non-finite
    logit, then what ``train.whole_labels`` raises for the "labels": DataError for a non-integer label
    and IndexError for one outside [0, k), which picking d_y would wrap (-1: the last class).
    """
    l, y = np.asarray(logits, dtype=np.float64), np.asarray(labels)
    if l.ndim != 2 or l.shape[0] == 0 or y.shape != l.shape[:1]:
        raise DomainError(f"logits {l.shape} and labels {y.shape} are not a nonempty (n, k) batch and its n labels")
    if not np.all(np.isfinite(l)):
        raise NumericError("non-finite logits: the head overflows on this split")
    y = whole_labels(y, "labels", l.shape[0], l.shape[1])
    d = np.subtract(l, l.max(axis=1)[:, None], out=out)
    return d, d[np.arange(len(y)), y]


def temperature_scale(logits, labels) -> float:
    """Temperature T > 0 minimizing NLL of softmax(l / T); raises as ``_gaps`` does.

    Bisection on ln m, m = 1/T, over [-3, 3] for the zero of the gap NLL's dL/dm, which increases
    with m as the NLL is convex in m; T is e^3 where dL/dm >= 0 throughout and e^-3 where it stays
    negative.  Predictions are unchanged since T is a positive scalar.
    """
    d, dy = _gaps(logits, labels)
    lo, hi = -3.0, 3.0
    while hi - lo > 1e-8:
        mid = 0.5 * (lo + hi)
        m = math.exp(mid)
        if gap_cross_entropy(m * d, d, m, dy, grad_m=True).sum() >= 0.0:
            hi = mid
        else:
            lo = mid
    return math.exp(-0.5 * (lo + hi))


def _gap_metrics(lg: np.ndarray, ly: np.ndarray, hits: np.ndarray, n_bins: int = ECE_BINS) -> SplitMetrics:
    """Accuracy, ECE and NLL from a batch's logit gaps ``lg`` (n, k), exponentiated in place, its labels' gaps ``ly``
    and argmax ``hits``; the confidence is 1 / esum, the softmax at the argmax, as in ``score_batch``."""
    esum = np.exp(lg, out=lg).sum(axis=1)
    return SplitMetrics(
        accuracy=float(np.mean(hits)),
        ece=ece(1.0 / esum, hits, n_bins),
        nll=float(np.mean(np.log(esum) - ly)),
    )


def split_metrics(logits, y, n_bins: int = ECE_BINS) -> SplitMetrics:
    """Accuracy, ECE and NLL of a batch of logits against its labels; raises as ``_gaps`` does.

    The prediction is the logits' argmax, as in ``train.predict``; the metrics are ``_gap_metrics``.
    """
    l = np.asarray(logits, dtype=np.float64)
    d, dy = _gaps(l, y)
    return _gap_metrics(d, dy, l.argmax(axis=1) == np.asarray(y), n_bins)


def _head_metrics(F, d, fn, dy, hits, head) -> SplitMetrics:
    """``split_metrics`` of the logits m * d of ``head`` on gap split rows (F, d, ||f||, d_y) with argmax hits ``hits``.

    As m >= 1, m * d has row max exactly 0, so it is its own class gaps, m * d_y its labels' gaps, and its
    argmax is d's: the hits of the plain logits.  NumericError for a non-finite logit, as ``_gaps`` raises.
    """
    t = multiplier_forward(F, d, fn, head)
    if not np.all(np.isfinite(t.logits)):
        raise NumericError("non-finite logits: the head overflows on this split")
    return _gap_metrics(t.logits, t.m * dy, hits)


def _gap_split(F: np.ndarray, y, head):
    """A split as (F, class gaps d = s - max_j s_j, ||f||, the labels' gaps d_y); d overwrites s = F W^T."""
    s, fn = plain_forward(F, head.W)
    d, dy = _gaps(s, y, out=s)
    return F, d, fn, dy


def _tune_head(head, val, rows, config: CalibConfig):
    """NLL-minimize the alpha/beta parameters of G copies of ``head``, copy g on the val rows ``rows[g]``.

    ``val`` is the tuning split from ``_gap_split`` and ``rows`` G row
    indices into it, which the stack holds longest first (a stable sort).
    Returns (tuned heads as one stacked HeadParams, best epochs, NLLs
    before, NLLs after), each along the leading axis of length G in the
    order of ``rows``; each copy keeps its best state across epochs
    -1..epochs, so no tuning NLL increases.  Raises NumericError, naming
    the epoch, when any copy's NLL before tuning (epoch -1) or after an
    epoch is not finite.

    Copy g keeps the schedule ``minibatches(len(rows[g]), config, 2)``.  Step
    i of an epoch runs on the copies that have a batch i, a prefix of the
    stack, in one call per run of equal batch lengths, on views of the stack
    and with a column of the copies' rates; each copy so gets the bits of a
    stack of one.  A step takes dL/dm from the gaps (``gap_cross_entropy``)
    and backpropagates only that.  The per-epoch NLL takes all G copies' m
    over the whole split in one multiplier pass, which forms no logits; a
    64-aligned product gives each row the whole product's bits
    (``head._matvec``), so each m has the bits it would have gathered.  Only
    the logits m * d go in blocks of rows that start at multiples of 64 and
    hold at most ``NLL_LOGITS`` logits, into one (G, n) buffer; copy g's NLL
    is the mean of its own rows' entries, in its row order.  The per-row
    NLLs, the head gradient, the momentum scratch and each run's views of
    the stack, its rates and its batch rows are made once per call; a step
    gathers its rows with ``ndarray.take``.
    """
    rank = sorted(range(len(rows)), key=lambda g: -len(rows[g]))  # stack position -> index into ``rows``
    rows, back = [rows[g] for g in rank], np.argsort(rank)
    sizes = [len(r) for r in rows]
    G, bs, n = len(sizes), config.batch_size, len(val[0])
    heads = head.like(np.tile(head.flat, (G, 1)))
    tail = head.W.size  # the alpha/beta parameters follow W in head.flat
    hg = heads.like(np.zeros_like(heads.flat))  # its W part stays zero: the steps pass only grad_m
    live, live_grad = heads.flat[:, tail:], hg.flat[:, tail:]
    velocity, scratch = np.zeros_like(live), np.empty_like(live)
    block, nll = max(64, NLL_LOGITS // (G * head.n_classes) // 64 * 64), np.empty((G, n))

    def full_nll(epoch: int) -> np.ndarray:
        F, d, fn, dy = val
        m = multiplier_forward(F, d[:, :0], fn, heads).m  # (G, n), without logits
        for i in range(0, n, block):
            mb, db = m[:, i : i + block], d[i : i + block]
            gap_cross_entropy(mb[..., None] * db, db, mb, dy[i : i + block], out=nll[:, i : i + block])
        out = np.array([nll[g, r].sum() / len(r) for g, r in enumerate(rows)])  # sum / n, as in training's loss
        if not np.all(np.isfinite(out)):
            bad = out[~np.isfinite(out)][0]
            raise NumericError(f"non-finite tuning NLL {bad} at epoch {epoch}: the head overflows on this split")
        return out

    nll_before = full_nll(-1)
    best_nll, best_epoch, best_flat = nll_before, np.full(G, -1), heads.flat.copy()

    order = np.empty((G, sizes[0]), dtype=np.intp)  # row g: copy g's val rows in this epoch's batch order
    lrs = np.empty((-(-sizes[0] // bs), G))  # row i: each copy's learning rate at step i
    plan = []  # per run of copies a:b with a batch i of equal length: its views of the stack and the batch rows
    for i in range(len(lrs)):
        a = 0
        for length, members in groupby(min(bs, size - i * bs) for size in sizes if size > i * bs):
            b = a + len(list(members))
            run = (heads.like(heads.flat[a:b]), hg.like(hg.flat[a:b]), order[a:b, i * bs : i * bs + length])
            plan.append((*run, live[a:b], live_grad[a:b], velocity[a:b], lrs[i, a:b, None], scratch[a:b]))
            a = b
    schedules = {size: minibatches(size, config, 2) for size in set(sizes)}
    for epoch in range(config.epochs):
        steps = {size: next(schedule) for size, schedule in schedules.items()}
        for g, r in enumerate(rows):
            perm, rates = steps[len(r)]
            order[g, : len(r)], lrs[: len(rates), g] = r[perm], rates
        for heads_ab, hg_ab, batch, p, p_grad, v, lr, p_scratch in plan:
            Fb, db, fnb, dyb = (x.take(batch, axis=0) for x in val)
            trace = multiplier_forward(Fb, db, fnb, heads_ab)
            grad_m = gap_cross_entropy(trace.logits, db, trace.m, dyb, grad_m=True)
            head_backward_batch(trace, Fb, heads_ab, out=hg_ab, grad_m=grad_m)
            momentum_step(p, p_grad, v, lr, config.momentum, scratch=p_scratch)
        epoch_nll = full_nll(epoch)
        better = epoch_nll < best_nll
        best_nll = np.where(better, epoch_nll, best_nll)
        best_epoch[better] = epoch
        best_flat[better] = heads.flat[better]
    return head.like(best_flat[back]), best_epoch[back], nll_before[back], best_nll[back]


def calibrate(model: Model, val_set, config: CalibConfig, eval_sets: dict | None = None):
    """Retune the alpha/beta head on a validation split by NLL minimization.

    Returns a new model (extractor and class weights copied unchanged) and a
    report with before/after accuracy, ECE, NLL on the tuning split and any
    extra named eval splits, plus k-fold cross-validation metrics when
    config.folds >= 2.  Raises, before any split is extracted or any head
    tuned, StateError for an untrained model, DomainError for an eval split
    named "val", then what ``train.check_split`` raises for each split
    (named "split 'val'", "split 'test'", ...) with the model's k and d_in.
    NumericError for non-finite parameters, tuned ones or logits.
    """
    config.validate()
    if not model.meta.get("trained"):
        raise StateError("model has not been trained")
    if not model.finite():
        raise NumericError("model has non-finite parameters")
    if model.head.variant is HeadVariant.VANILLA:
        raise UnsupportedVariantError(
            "vanilla heads have no alpha/beta parameters to tune; use temperature_scale"
        )
    eval_sets = eval_sets or {}
    if "val" in eval_sets:
        raise DomainError("split name 'val' is reserved for the tuning split")
    splits = {
        name: check_split(X, y, f"split {name!r}", model.head.n_classes, model.extractor.d_in)
        for name, (X, y) in {"val": val_set, **eval_sets}.items()
    }
    Xv, yv = splits["val"]
    if config.folds > Xv.shape[0]:
        raise ConfigError(f"folds={config.folds} exceeds validation size {Xv.shape[0]}")

    def gap_split(X, y):
        """A split as ``_gap_split`` gives it, and its argmax hits: each head's predictions are d's."""
        split = _gap_split(extract_features(model, X), y, model.head)
        return split, split[1].argmax(axis=1) == y

    def before_after(split, hits, tuned_head, rows=slice(None)):
        """The metrics of rows ``rows`` of a gap split with argmax hits ``hits``, before and after tuning."""
        F, d, fn, dy = (x[rows] for x in split)
        heads = {"before": model.head, "after": tuned_head}
        return {when: _head_metrics(F, d, fn, dy, hits[rows], head) for when, head in heads.items()}

    pieces = np.array_split(next(shuffles(Xv.shape[0], config.seed, 3)), config.folds) if config.folds >= 2 else []
    row_sets = [np.arange(Xv.shape[0])] + [np.concatenate(pieces[:k] + pieces[k + 1 :]) for k in range(len(pieces))]
    # Row set 0 is the main run's and the rest are the folds' training rows; one stack tunes them all.
    val, hits = gap_split(Xv, yv)
    tuned, best_epoch, nll_before, nll_after = _tune_head(model.head, val, row_sets, config)
    tuned_head, *fold_heads = (tuned.like(flat) for flat in tuned.flat)
    if not np.all(np.isfinite(tuned_head.flat)):
        raise NumericError("calibration produced non-finite head parameters")
    new_model = model.like(model.flat.copy())
    new_model.head.flat[...] = tuned_head.flat
    new_model.meta["calibrated"] = True

    report = CalibrationReport(
        splits={"val": before_after(val, hits, tuned_head)},
        nll_before=float(nll_before[0]),
        nll_after=float(nll_after[0]),
        best_epoch=int(best_epoch[0]),
        folds=[{"fold": k, **before_after(val, hits, fold_heads[k], held)} for k, held in enumerate(pieces)],
    )
    del val, hits  # the tuning split ends here; each eval split lives only for its own metrics
    for name in eval_sets:
        report.splits[name] = before_after(*gap_split(*splits[name]), tuned_head)

    if pieces:
        report.cv_mean, report.cv_std = {}, {}
        for key in (f.name for f in fields(SplitMetrics)):
            values = [getattr(fold["after"], key) for fold in report.folds]
            report.cv_mean[key] = float(np.mean(values))
            report.cv_std[key] = float(np.std(values))

    return new_model, report
