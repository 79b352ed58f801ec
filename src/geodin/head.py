"""Final classification layer with the norm/angle-decomposed multiplier.

The plain layer produces s_i = f . w_i.  The decomposed layer rescales every
logit by the same strictly positive, input-dependent factor

    m(f) = 1/alpha(f) + beta(f) / (alpha(f) * ||f||),

with alpha = sigmoid(a . f + a0) in (0, 1) and beta = softplus(b . f + b0) > 0,
so that l_i = m * s_i = (||f||/alpha + beta/alpha) * ||w_i|| cos(phi_i).
Because m is shared across classes and positive, the ranking of the logits is
always that of the plain inner products.

Variants: ``vanilla`` (l = s), ``alpha_only`` (beta pinned to 0),
``beta_only`` (alpha pinned to 1), ``alpha_beta`` (both heads live).

A plain part (s = F W^T, ||f||) and a multiplier part (m and its backward
pass) make up the layer; calibration freezes F and W, so it computes the plain
part once per split, as class gaps.  The backward pass is split the same way.
``head_backward_batch`` is the multiplier part for both callers: the alpha/beta
gradients from dL/dm, and the alpha/beta pre-activation gradients it hands
back.  The training step (``train.loss_and_grads``) owns the plain part: W's
gradient, the feature gradient and the multiplier's feature terms.  Every pass
works on a feature batch (one sample is a one-row batch); the tests check the
backward pass by finite differences.  Training's softmax cross-entropy takes
one (n, k) logit batch (``softmax_cross_entropy_batch``), calibration's the
class gaps and one m per row or one per batch, a temperature
(``gap_cross_entropy``).

A HeadParams may stack heads along a leading axis of its flat vector, as
calibration does for its folds.  Only the multiplier part
(``multiplier_forward``, ``head_backward_batch``) and ``gap_cross_entropy``
take such batches, pairing slice g with head g; a slice runs an unstacked
call's BLAS calls and reductions, and gives its bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import ShapeError
from .scores import EPS_NORM, row_norms


class HeadVariant(str, Enum):
    VANILLA = "vanilla"
    ALPHA_ONLY = "alpha_only"
    BETA_ONLY = "beta_only"
    ALPHA_BETA = "alpha_beta"

    @cached_property  # each training step asks both twice
    def has_alpha(self) -> bool:
        return self in (HeadVariant.ALPHA_ONLY, HeadVariant.ALPHA_BETA)

    @cached_property
    def has_beta(self) -> bool:
        return self in (HeadVariant.BETA_ONLY, HeadVariant.ALPHA_BETA)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function of an array."""
    ex = np.exp(np.copysign(x, -1.0))  # exp(-x) where x >= 0, exp(x) elsewhere: never overflows
    return np.where(x >= 0, 1.0, ex) / (1.0 + ex)


def softplus(x: np.ndarray) -> np.ndarray:
    """log(1 + exp(x)) of an array, without overflow."""
    return np.logaddexp(0.0, x)


class HeadParams:
    """Class weights plus the alpha/beta head parameters in one float64 vector.

    ``HeadParams(flat, n_classes, d_feature, variant)`` wraps ``flat``, of
    shape ``(..., HeadParams.size(n_classes, d_feature))``, without copying;
    leading axes stack heads of one shape and variant.  The last axis holds
    W (k x D, row-major), alpha_w, alpha_b, beta_w, beta_b in that order,
    which is also the checkpoint's order; ShapeError for any other length.
    All five parts are views into it that keep the leading axes (alpha_b and
    beta_b are 0-d for one head), so writes go through ``part[...] =``.  W
    has no bias row: the geometric factorization of the logits assumes pure
    inner products.  Gradients come in the same layout.
    """

    def __init__(self, flat: np.ndarray, n_classes: int, d_feature: int, variant):
        k, d = n_classes, d_feature
        if flat.shape[-1:] != (HeadParams.size(k, d),):
            raise ShapeError(f"head buffer of shape {flat.shape} for {HeadParams.size(k, d)} parameters")
        self.flat = flat
        self.n_classes, self.d_feature = k, d
        self.variant = HeadVariant(variant)
        self.W = flat[..., : k * d].reshape(*flat.shape[:-1], k, d)
        self.alpha_w = flat[..., k * d : (k + 1) * d]
        self.alpha_b = flat[..., (k + 1) * d : (k + 1) * d + 1].squeeze(-1)
        self.beta_w = flat[..., (k + 1) * d + 1 : (k + 2) * d + 1]
        self.beta_b = flat[..., -1:].squeeze(-1)

    @staticmethod
    def size(n_classes: int, d_feature: int) -> int:
        return (n_classes + 2) * d_feature + 2

    def like(self, flat: np.ndarray) -> "HeadParams":
        """A head (or stack) of this one's class count, feature size and variant, wrapping ``flat``."""
        return HeadParams(flat, self.n_classes, self.d_feature, self.variant)


@dataclass
class BatchHeadTrace:
    """A forward pass over a feature batch, kept for the backward pass.

    ``safe_norm`` is ||f|| with the degenerate rows set to 1 and
    ``alpha_norm`` is alpha * safe_norm: the forward computes both for m,
    and the backward reuses them.
    """

    alpha: np.ndarray
    beta: np.ndarray
    m: np.ndarray
    logits: np.ndarray
    vanilla_logits: np.ndarray
    feature_norm: np.ndarray
    degenerate: np.ndarray
    safe_norm: np.ndarray
    alpha_norm: np.ndarray


def plain_forward(F: np.ndarray, params: HeadParams) -> tuple[np.ndarray, np.ndarray]:
    """The plain part of a feature batch F of shape (n, D): s = F W^T and ||f|| per row."""
    if F.ndim != 2 or F.shape[1] != params.d_feature:
        raise ShapeError(f"feature batch shape {F.shape} does not match head dim {params.d_feature}")
    return F @ params.W.T, row_norms(F)


def _matvec(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """A @ v over any leading axes, (..., n, D) @ (..., D) -> (..., n): BLAS gemv per slice and row block.

    The rows go in blocks that start at multiples of 64 and hold at most
    2^18 elements, but for a last lone row, which joins the block before it:
    numpy takes a one-row product as a dot, whose bits differ from gemv's.
    A multi-threaded OpenBLAS splits a larger gemv across threads by rows,
    and rows near a split take another kernel path, so the bits would depend
    on the thread count.  On OpenBLAS 0.3.31 a block this small runs on one
    thread, and blocks aligned to 64 rows give the whole product's one-thread
    bits; another BLAS build may split or group rows otherwise, and
    ``TestThreadCountIndependence`` checks the installed one.
    """
    n, D = A.shape[-2:]
    B = max(64, 2**18 // D // 64 * 64)
    if n <= B:
        # One block is this same product.  Sending it through the loop's allocation and copy made
        # a default `train` 3-4% slower (CPU time; two probes of 80 alternating in-process pairs,
        # loop slower in 53 and 54; one x86_64 core, one OpenBLAS thread).  One vector v is the
        # same gemv without the column view and its squeeze.
        return A @ v if v.ndim == 1 else (A @ v[..., None])[..., 0]
    out = np.empty((*np.broadcast_shapes(A.shape[:-2], v.shape[:-1]), n))
    edges = [*range(0, n - 1, B), n]
    for i, j in zip(edges, edges[1:]):
        out[..., i:j] = (A[..., i:j, :] @ v[..., None])[..., 0]
    return out


def multiplier_forward(F: np.ndarray, s: np.ndarray, fn: np.ndarray, params: HeadParams) -> BatchHeadTrace:
    """The multiplier m and the logits m * s for a feature batch F whose plain part is (s, fn).

    F is (..., n, D), s (..., n, k) and fn (..., n); leading axes match those of ``params.flat``.
    """
    variant = params.variant
    alpha = sigmoid(_matvec(F, params.alpha_w) + params.alpha_b[..., None]) if variant.has_alpha else np.ones_like(fn)
    beta = softplus(_matvec(F, params.beta_w) + params.beta_b[..., None]) if variant.has_beta else np.zeros_like(fn)
    degenerate = fn < EPS_NORM
    some_degenerate = np.count_nonzero(degenerate)  # half the time of degenerate.any() on a training batch
    safe_norm = np.where(degenerate, 1.0, fn) if some_degenerate else fn
    alpha_norm = alpha * safe_norm
    inv_alpha = 1.0 / alpha
    m = inv_alpha + beta / alpha_norm
    if some_degenerate:
        np.copyto(m, inv_alpha, where=degenerate)
    return BatchHeadTrace(alpha, beta, m, m[..., None] * s, s, fn, degenerate, safe_norm, alpha_norm)


def head_forward_batch(F: np.ndarray, params: HeadParams) -> BatchHeadTrace:
    """Forward pass for a feature batch F of shape (n, D)."""
    F = np.asarray(F, dtype=np.float64)
    return multiplier_forward(F, *plain_forward(F, params), params)


def head_backward_batch(
    trace: BatchHeadTrace, F: np.ndarray, params: HeadParams, grad_m: np.ndarray, out: HeadParams | None = None
) -> tuple[HeadParams, np.ndarray | None, np.ndarray | None]:
    """The multiplier part of the backward pass: the alpha/beta gradients of sum(grad_m * m) for a batch.

    ``grad_m`` holds the loss's derivative in each row's m and is not
    written to.  Returns (parameter gradients, ga, gb).  The first is summed
    over the batch, a HeadParams in the layout of ``params``; a stack of
    heads sums each slice apart.  ga and gb are the per-row gradients of
    the alpha and beta pre-activations (None for a head the variant pins),
    taken with the degenerate rows' grad_m zeroed and gb zeroed there too,
    for a caller whose F is live to add the feature terms ga * alpha_w and
    gb * beta_w.  The gradients go into ``out`` when given, else into a new
    zeroed HeadParams.  A call writes only the live alpha/beta parts, so one
    buffer zeroed once serves a whole run; each step's gradient in it is
    valid until the next call.
    """
    variant = params.variant
    m, alpha, beta, d = trace.m, trace.alpha, trace.beta, trace.degenerate
    grad = params.like(np.zeros_like(params.flat)) if out is None else out
    Ft = F.swapaxes(-1, -2)
    some_degenerate = np.count_nonzero(d)
    us = np.where(d, 0.0, grad_m) if some_degenerate else grad_m
    ga = gb = None
    if variant.has_alpha:
        # dm/dalpha = -m/alpha, dalpha/dz = alpha(1-alpha)
        ga = us * (-m / alpha) * alpha * (1.0 - alpha)
        np.matmul(Ft, ga[..., None], out=grad.alpha_w[..., None])
        grad.alpha_b[...] = np.add.reduce(ga, axis=-1)
    if variant.has_beta:
        # dm/dbeta = 1/(alpha*||f||), dbeta/dz = sigmoid(z) = 1 - exp(-beta)
        dbeta_dz = -np.expm1(-beta)
        gb = us * dbeta_dz
        gb /= trace.alpha_norm
        if some_degenerate:
            gb[d] = 0.0
        np.matmul(Ft, gb[..., None], out=grad.beta_w[..., None])
        grad.beta_b[...] = np.add.reduce(gb, axis=-1)
    return grad, ga, gb


def softmax_cross_entropy_batch(logits: np.ndarray, labels, out: np.ndarray | None = None):
    """Mean softmax cross-entropy of a logit batch (n, k) against its labels, and its gradient wrt every logit.

    The gradient is computed in ``out`` when given (an (n, k) array; a
    training step passes one per run), else in a new array.  The labels
    must lie in [0, k): this per-step call does not check them, but each
    row picks its own label, so a label >= k raises IndexError and a
    negative one silently picks from the end of its row.  ``train`` checks
    its labels once per run.
    """
    n = len(logits)
    shifted = np.subtract(logits, logits.max(axis=1)[:, None], out=out)
    pick = (np.arange(n), labels)
    picked = shifted[pick]
    e = np.exp(shifted, out=shifted)
    esum = e.sum(axis=1)
    nll = np.log(esum) - picked
    e /= esum[:, None]
    e[pick] -= 1.0
    e /= n
    return nll.sum() / n, e


def gap_cross_entropy(
    logits: np.ndarray, d: np.ndarray, m, dy: np.ndarray, out: np.ndarray | None = None, grad_m: bool = False
):
    """Softmax cross-entropy over class gaps: each row's NLL, or with ``grad_m`` the mean's dL/dm.

    d = s - max_j s_j are the gaps (<= 0, exactly 0 at the argmax), ``logits`` the caller's m * d and
    ``dy`` the labels' gaps; m is one multiplier per row or one for the whole batch (a temperature
    1/m).  As m > 0, the logits have row max exactly 0: exp needs no shift and esum lies in [1, k].
    A row's NLL is log(esum) - m * d_y (into ``out`` when given).  The n rows' mean NLL has
    dL/dm_i = (sum_j e_ij d_ij / esum_i - d_yi) / n, the full gradient's sum_j U_ij s_ij, as the
    softmax weights sum to 1; a shared m's derivative is their sum.  An infinite m gives NaN (inf * 0
    at the argmax).
    """
    e = np.exp(logits)
    esum = e.sum(axis=-1)
    if grad_m:
        return (np.einsum("...ij,...ij->...i", e, d) / esum - dy) / dy.shape[-1]
    return np.subtract(np.log(esum), m * dy, out=out)
