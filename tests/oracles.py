"""Independent reference definitions the engine is tested against, and
test-only helpers over the engine.

The score references follow the README's definitions literally, with
explicit scalar inner products and norms instead of numpy reductions, so
that a test comparing ``score_batch`` with them does not compare the code
with itself.  The checksum reference is the byte-at-a-time FNV-1a loop.  The
gradient oracle differentiates its own batched forward pass numerically.
The init oracle draws every weight matrix from one seeded generator in
checkpoint order.  The training oracle is the SGD loop that projects and
allocates afresh on every step, through the step oracle: the forward pass,
the softmax with its tuple pick and the whole head backward, each on fresh
arrays.  The sigmoid reference is the two-division form.  The tuning oracle
is the calibration loop run one head at a time on a copy of its own rows,
with the gap softmax written out, and the inference oracle the forward pass
that takes the whole batch at once, as do the whole-batch logits and the
sweep oracle, which scores each split in one ``score_batch`` call.  The
head-backward oracle is the backward pass that masks the degenerate rows
with ``np.where`` on fresh temporaries and recomputes the safe norm.  The
softmax references (probabilities, each row's NLL and its mean) take plain
logits with their own max shift, and the temperature reference is the
golden-section search on ln T over their NLL.
"""

import math
from dataclasses import dataclass

import numpy as np

from geodin.bench import CONCEPT_KIND, DetectionReport, ReportRow, auroc, corrupt, tnr_at_tpr95
from geodin.errors import ConfigError, DomainError, NumericError
from geodin.head import head_backward_batch, head_forward_batch, multiplier_forward
from geodin.scores import score_batch
from geodin.train import (
    extract_features,
    extractor_activations,
    extractor_backward,
    init_model,
    loss_and_grads,
    minibatches,
    momentum_step,
    unit_rows,
)

EPS_NORM = 1e-12


def inner(a, b) -> float:
    return sum(float(x) * float(y) for x, y in zip(a, b))


def norm(a) -> float:
    return math.sqrt(inner(a, a))


def geometry(f, W):
    """(||f||, [||w_i||], [cos phi_i], [l_i]); a cosine is 0 where f or w_i has norm < EPS_NORM."""
    fn = norm(f)
    weight_norms, cosines, logits = [], [], []
    for w in W:
        wn = norm(w)
        dot = inner(w, f)
        weight_norms.append(wn)
        cosines.append(dot / (fn * wn) if fn >= EPS_NORM and wn >= EPS_NORM else 0.0)
        logits.append(dot)
    return fn, weight_norms, cosines, logits


def covariate(f) -> float:
    """g = ||f||_2."""
    return norm(f)


def concept(f, W) -> float:
    """h = max_j ||w_j|| cos(phi_j) - mean_i ||w_i|| cos(phi_i), clamped at 0."""
    _, weight_norms, cosines, _ = geometry(f, W)
    t = [wn * c for wn, c in zip(weight_norms, cosines)]
    return max(0.0, max(t) - sum(t) / len(t))


def combined(f, W) -> float:
    """u = max_j l_j - mean_i l_i, clamped at 0."""
    logits = geometry(f, W)[3]
    return max(0.0, max(logits) - sum(logits) / len(logits))


def energy(logits) -> float:
    """log sum_i exp(l_i), shifted by the maximum."""
    top = max(logits)
    return top + math.log(sum(math.exp(x - top) for x in logits))


def msp(logits) -> float:
    """max_i softmax(l)_i."""
    top = max(logits)
    return 1.0 / sum(math.exp(x - top) for x in logits)


def fnv1a64_reference(data: bytes) -> int:
    """64-bit FNV-1a, one byte at a time: h = (h ^ byte) * prime mod 2**64."""
    h = 0xCBF29CE484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def kl_from_uniform(probs) -> float:
    """KL(U || P) = -sum_i (1/M) ln(M * P_i) for a discrete distribution P."""
    p = np.asarray(probs, dtype=np.float64)
    if np.any(p <= 0):
        raise DomainError("probabilities must be strictly positive")
    if abs(p.sum() - 1.0) > 1e-9:
        raise DomainError(f"probabilities sum to {p.sum():.12f}, not 1")
    m = p.size
    return max(0.0, float(-np.mean(np.log(m * p))))


# Test-only views of the engine: one sample's scores, and MSP and energy from its shifted exponentials.


@dataclass(frozen=True)
class ScoreSet:
    """All five shift scores for one sample. Larger = more in-distribution."""

    g: float
    h: float
    u: float
    msp: float
    energy: float


def score_set(f, W) -> ScoreSet:
    """All five scores for one feature vector: the single row of score_batch([f], W)."""
    scores = score_batch([f], W)
    return ScoreSet(**{name: float(values[0]) for name, values in scores.items()})


def shifted_exp(logits) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Max-shifted logits, their exponentials and the exponentials' sum, over the last axis."""
    l = np.asarray(logits, dtype=np.float64)
    shifted = l - l.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return shifted, e, e.sum(axis=-1)


def msp_energy(logits) -> tuple[np.ndarray, np.ndarray]:
    """(MSP, energy) over the last axis of the logits, from ``shifted_exp``.

    Each takes its own max: MSP is ``e.max / esum`` and energy ``l.max + log(esum)``.
    """
    l = np.asarray(logits, dtype=np.float64)
    _, e, esum = shifted_exp(l)
    return e.max(axis=-1) / esum, l.max(axis=-1) + np.log(esum)


def msp_score(logits):
    """Maximum softmax probability over the last axis of the logits."""
    return msp_energy(logits)[0]


def energy_score(logits):
    """Log-sum-exp over the last axis of the logits."""
    return msp_energy(logits)[1]


# Softmax references over plain logits: the probabilities, each row's NLL and its mean, and the
# golden-section temperature search that bisection on dL/dm replaced in ``temperature_scale``.


def softmax_probs(logits) -> np.ndarray:
    """Softmax over the last axis: e / esum from ``shifted_exp``."""
    _, e, esum = shifted_exp(logits)
    return e / esum[..., None]


def row_nll(logits, labels) -> np.ndarray:
    """Softmax cross-entropy of each row of a logit batch (..., n, k) against integer labels (..., n).

    log(esum) - shifted[label] per row; IndexError unless every label lies in [0, k).
    """
    shifted, _, esum = shifted_exp(logits)
    y = np.asarray(labels)
    if (y < 0).any() or (y >= shifted.shape[-1]).any():
        raise IndexError("label out of range")
    return np.subtract(np.log(esum), shifted[(*np.indices(y.shape, sparse=True), y)])


def cross_entropy(logits, labels):
    """The mean of ``row_nll`` over its rows, as sum / n: a float for one batch, an array for a stack."""
    nll = row_nll(logits, labels)
    return nll.sum(axis=-1) / nll.shape[-1]


def golden_section_temperature(logits, labels) -> float:
    """The temperature T minimizing ``cross_entropy(l / T, labels)``: golden-section search on ln T over [-3, 3]."""
    l = np.asarray(logits, dtype=np.float64)

    def objective(a: float) -> float:
        return cross_entropy(l / math.exp(a), labels)

    lo, hi = -3.0, 3.0
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = hi - invphi * (hi - lo), lo + invphi * (hi - lo)
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


def batched_loss(model, thetas: np.ndarray, x: np.ndarray, label: int) -> np.ndarray:
    """Cross-entropy of one sample (x, label) under every row of thetas.

    A row is extractor.flat followed by head.flat.  The forward pass is
    written out with einsum over the rows, sharing no code with the engine's:
    x goes to the unit sphere (unless ~0), through the rectified layers, and
    the logits are m * (W f) with m = 1/alpha + beta/(alpha ||f||), or
    1/alpha when ||f|| < EPS_NORM.  A variant without alpha pins it to 1 and
    one without beta pins beta to 0, so the vanilla head gets m = 1.
    """
    xn = norm(x)
    a = np.broadcast_to(x / xn if xn >= 1e-12 else x, (len(thetas), len(x)))
    pos = 0

    def take(*shape):
        nonlocal pos
        size = math.prod(shape)
        block = thetas[:, pos : pos + size].reshape(len(thetas), *shape)
        pos += size
        return block

    dims = model.extractor.dims
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        W, b = take(fan_out, fan_in), take(fan_out)
        a = np.maximum(np.einsum("roi,ri->ro", W, a) + b, 0.0)
    head = model.head
    W, alpha_w, alpha_b, beta_w, beta_b = (
        take(head.n_classes, head.d_feature), take(head.d_feature), take(), take(head.d_feature), take()
    )
    variant = head.variant
    alpha = 1.0 / (1.0 + np.exp(-(np.einsum("rd,rd->r", alpha_w, a) + alpha_b))) if variant.has_alpha else 1.0
    beta = np.logaddexp(0.0, np.einsum("rd,rd->r", beta_w, a) + beta_b) if variant.has_beta else 0.0
    fn = np.sqrt(np.einsum("rd,rd->r", a, a))
    m = np.where(fn >= EPS_NORM, 1.0 / alpha + beta / (alpha * np.maximum(fn, EPS_NORM)), 1.0 / alpha)
    logits = m[:, None] * np.einsum("rkd,rd->rk", W, a)
    top = logits.max(axis=1)
    return top + np.log(np.exp(logits - top[:, None]).sum(axis=1)) - logits[:, label]


def full_gradient_check(model, sample, eps: float = 1e-5) -> float:
    """Max relative error of the analytic gradients (``loss_and_grads`` on
    the projected sample) vs central differences of ``batched_loss``, which
    projects x itself.

    The 2P perturbed parameter vectors (each parameter +eps, then each -eps)
    go through one batched forward.  Relative error uses denominator
    max(|analytic|, |numeric|, 1e-3): the finite-difference quotient carries
    ~1e-11*|loss| of float noise at eps=1e-5, so near-zero entries are
    compared absolutely.
    """
    if eps <= 0:
        raise ConfigError("eps must be > 0")
    x, label = sample
    x = np.asarray(x, dtype=np.float64)
    _, grads = loss_and_grads(model, unit_rows(x[None, :]), np.array([label]))
    analytic = np.concatenate(grads)
    theta = np.concatenate([model.extractor.flat, model.head.flat])
    step = eps * np.eye(theta.size)
    up, down = np.split(batched_loss(model, np.vstack([theta + step, theta - step]), x, label), 2)
    numeric = (up - down) / (2 * eps)
    rel = np.abs(analytic - numeric) / np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-3)
    return float(rel.max())


def reference_sigmoid(x):
    """The logistic function as two divisions picked by ``np.where``: 1 / (1 + e) where x >= 0, else e / (1 + e)."""
    ex = np.exp(-np.abs(x))
    denom = 1.0 + ex
    return np.where(x >= 0, 1.0 / denom, ex / denom)


def reference_softmax_cross_entropy(logits, labels):
    """Mean softmax cross-entropy of a logit batch (n, k) and its gradient, on fresh arrays with a tuple pick."""
    n = len(logits)
    shifted = logits - logits.max(axis=1)[:, None]
    e = np.exp(shifted)
    esum = e.sum(axis=1)
    pick = (np.arange(n), labels)
    nll = np.log(esum) - shifted[pick]
    grad = e / esum[:, None]
    grad[pick] -= 1.0
    return nll.sum() / n, grad / n


def reference_step(model, U, y):
    """``loss_and_grads`` on fresh arrays: (loss, (extractor gradient, head gradient), feature gradient).

    The activations, ``head_forward_batch``, ``reference_softmax_cross_entropy``,
    the whole head backward (``reference_head_backward`` on the logit gradient)
    and ``extractor_backward`` without buffers.
    """
    acts = extractor_activations(model.extractor, U)
    trace = head_forward_batch(acts[-1], model.head)
    loss, grad_logits = reference_softmax_cross_entropy(trace.logits, y)
    hg, grad_F = reference_head_backward(trace, acts[-1], model.head, grad_logits)
    return loss, (extractor_backward(model.extractor, acts, grad_F), hg.flat), grad_F


def reference_train(config, train_set, n_classes: int):
    """``train`` without its per-run buffers, to compare bytes against.

    Every step projects its own raw batch with ``unit_rows``, runs
    ``reference_step`` and both ``momentum_step`` updates without buffers,
    so each gradient and scratch array is new.  Same init, schedule, decay
    split and per-epoch history as ``train``; no input checks.
    """
    X, y = np.asarray(train_set[0], dtype=np.float64), np.asarray(train_set[1], dtype=np.int64)
    model = init_model(config, X.shape[1], n_classes)
    ext, head = model.extractor.flat, model.head.flat
    ext_v, head_v = np.zeros_like(ext), np.zeros_like(head)
    head_decay = None if config.decay_heads else model.head.W.size
    for epoch, steps in enumerate(minibatches(X.shape[0], config, 1)):
        epoch_loss = 0.0
        for idx, lr in steps:
            loss, (ext_g, head_g), _ = reference_step(model, unit_rows(X[idx]), y[idx])
            momentum_step(ext, ext_g, ext_v, lr, config.momentum, config.weight_decay)
            momentum_step(head, head_g, head_v, lr, config.momentum, config.weight_decay, head_decay)
            epoch_loss += loss
        model.history.append({"epoch": epoch, "mean_loss": epoch_loss / len(steps), "lr": lr})
    return model


def reference_forward(params, X):
    """``extractor_forward`` in one shot: the whole batch projected, then each layer over all of it."""
    a = unit_rows(np.asarray(X, dtype=np.float64))
    for W, b in params.layers:
        z = a @ W.T
        z += b
        a = np.maximum(z, 0.0, out=z)
    return a


def reference_init(config, d_in: int, n_classes: int) -> np.ndarray:
    """An untrained model's parameters as one vector in checkpoint order: extractor, then head.

    One ``default_rng(config.seed)`` draws each extractor layer's W, first
    layer first, then the head's W, each from U(-1/sqrt(fan_in),
    1/sqrt(fan_in)) and row-major; every other parameter is 0.
    """
    rng = np.random.default_rng(config.seed)
    dims, D = [d_in, *config.hidden, config.feature_dim], config.feature_dim
    parts = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        parts += [rng.uniform(-1 / math.sqrt(fan_in), 1 / math.sqrt(fan_in), fan_out * fan_in), np.zeros(fan_out)]
    parts += [rng.uniform(-1 / math.sqrt(D), 1 / math.sqrt(D), n_classes * D), np.zeros(2 * D + 2)]
    return np.concatenate(parts)


def model_logits(model, X) -> np.ndarray:
    """The logits of a whole input batch (or one sample, as a one-row batch) in one head forward pass."""
    F = extract_features(model, np.atleast_2d(np.asarray(X, dtype=np.float64)))
    return head_forward_batch(F, model.head).logits


def copy_head(head):
    """A head (or stack) like ``head`` over a copy of its parameters."""
    return head.like(head.flat.copy())


def two_search_auroc(id_scores, ood_scores) -> float:
    """``bench.auroc`` as a left- and a right-side search of every sorted OOD score in the sorted ID scores."""
    id_s, ood_s = np.sort(np.ravel(id_scores)), np.sort(np.ravel(ood_scores))
    below = np.searchsorted(id_s, ood_s, side="left")
    at_or_below = np.searchsorted(id_s, ood_s, side="right")
    twice_u = int(2 * id_s.size * ood_s.size - at_or_below.sum() - below.sum())
    return twice_u / (2 * id_s.size * ood_s.size)


def reference_sweep(model, task, score_names, specs, concept_groups=None) -> DetectionReport:
    """``bench.sweep`` with each split scored in one shot, ``score_batch(extract_features(model, X), W)``.

    The clean test split's halves are the control; every other spec scores
    its concept group or its corrupted copy of the test split.  No checks.
    """
    W = model.head.W
    id_all = score_batch(extract_features(model, task.test[0]), W)
    report = DetectionReport()
    for spec in specs:
        if spec.kind == "none":
            id_sc = {k: v[0::2] for k, v in id_all.items()}
            ood_sc = {k: v[1::2] for k, v in id_all.items()}
        else:
            X = concept_groups[spec.severity].X if spec.kind == CONCEPT_KIND else corrupt(task.test, spec, task.seed)[0]
            id_sc, ood_sc = id_all, score_batch(extract_features(model, X), W)
        for name in score_names:
            a, b = id_sc[name], ood_sc[name]
            report.rows.append(
                ReportRow(name, spec.kind, spec.severity, auroc(a, b), tnr_at_tpr95(a, b), a.size, b.size, task.seed)
            )
    return report


def reference_gap_nll(head, F, d, fn, dy):
    """Each row's softmax cross-entropy of the logits m * d, as log(sum_j exp(m d_j)) - m d_y, in one shot."""
    m = multiplier_forward(F, d, fn, head).m
    return np.subtract(np.log(np.exp(m[..., None] * d).sum(axis=-1)), m * dy)


def reference_tune_head(head, val, rows, config):
    """``calibrate._tune_head`` one head at a time, each on a copy of its own rows.

    ``val`` is the gap split (F, d, ||f||, d_y), d = s - max_j s_j.  The gap
    softmax is written out here: e = exp(m d) with no shift, the row NLL
    log(sum_j e_j) - m d_y, and per step dL/dm = (sum_j e_j d_j / sum_j e_j
    - d_y) / b.  Each head's NLL takes its gathered rows in one shot.  Same
    schedule, best-state rule, finiteness check and return values (stacked) as ``_tune_head``.
    """
    tail, results = head.W.size, []
    for r in rows:
        F, d, fn, dy = (a[r] for a in val)
        one = copy_head(head)
        hg = one.like(np.zeros_like(one.flat))
        velocity = np.zeros_like(one.flat[tail:])

        def full_nll(epoch):
            nll = reference_gap_nll(one, F, d, fn, dy).sum() / len(r)
            if not np.isfinite(nll):
                raise NumericError(f"non-finite tuning NLL {nll} at epoch {epoch}: the head overflows on this split")
            return nll

        nll_before = full_nll(-1)
        best_nll, best_epoch, best_flat = nll_before, -1, one.flat.copy()
        for epoch, steps in enumerate(minibatches(len(r), config, 2)):
            for idx, lr in steps:
                trace = multiplier_forward(F[idx], d[idx], fn[idx], one)
                e = np.exp(trace.logits)
                grad_m = (np.einsum("...ij,...ij->...i", e, d[idx]) / e.sum(axis=-1) - dy[idx]) / len(idx)
                head_backward_batch(trace, F[idx], one, grad_m=grad_m, out=hg)
                momentum_step(one.flat[tail:], hg.flat[tail:], velocity, lr, config.momentum)
            epoch_nll = full_nll(epoch)
            if epoch_nll < best_nll:
                best_nll, best_epoch, best_flat = epoch_nll, epoch, one.flat.copy()
        results.append((best_flat, best_epoch, nll_before, best_nll))
    flats, *rest = zip(*results)
    return head.like(np.stack(flats)), *(np.array(x) for x in rest)


def reference_head_backward(trace, F, params, grad_logits=None, grad_m=None):
    """The head's backward pass in its ``np.where`` form, to compare bytes against.

    Given ``grad_m``, dL/dm per row, it is the multiplier part that
    ``head_backward_batch`` runs, and returns (gradients, None); given the
    logit gradient ``grad_logits`` instead, it also runs the plain part that
    the training step owns, and returns (gradients, feature gradients), the
    whole backward of sum(grad_logits * logits).  The safe norm where(d, 1,
    ||f||) and alpha times it are recomputed from F's row norms and the
    trace's alpha and degenerate rows; each per-row term is masked with ``np.where(d, 0,
    x)`` on a new array, ``gn`` included; the weight gradients are products
    copied into a new zeroed HeadParams.
    """
    variant = params.variant
    m, alpha, beta, d = trace.m, trace.alpha, trace.beta, trace.degenerate
    grad = params.like(np.zeros_like(params.flat))
    Ft = np.swapaxes(F, -1, -2)
    if grad_m is None:
        grad_m = np.einsum("...ij,...ij->...i", np.asarray(grad_logits, dtype=np.float64), trace.vanilla_logits)
    us = np.where(d, 0.0, grad_m)
    safe_fn = np.where(d, 1.0, np.linalg.norm(F, axis=-1))
    if variant.has_alpha:
        ga = us * (-m / alpha) * alpha * (1.0 - alpha)
        grad.alpha_w[:] = (Ft @ ga[..., None])[..., 0]
        grad.alpha_b[...] = np.add.reduce(ga, axis=-1)
    if variant.has_beta:
        gb = us * -np.expm1(-beta) / (alpha * safe_fn)
        gb = np.where(d, 0.0, gb)
        grad.beta_w[:] = (Ft @ gb[..., None])[..., 0]
        grad.beta_b[...] = np.add.reduce(gb, axis=-1)
    if grad_logits is None:
        return grad, None
    mU = m[..., None] * grad_logits
    grad.W[:] = np.swapaxes(mU, -1, -2) @ F
    grad_F = mU @ params.W
    if variant.has_alpha:
        grad_F += ga[..., None] * params.alpha_w[..., None, :]
    if variant.has_beta:
        grad_F += gb[..., None] * params.beta_w[..., None, :]
        gn = np.where(d, 0.0, us * (-beta / (alpha * safe_fn**2)) / safe_fn)
        grad_F += gn[..., None] * F
    grad_F[d] = 0.0
    return grad, grad_F
