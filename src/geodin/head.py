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
part once per split.  Every pass works on a feature batch (one sample is a
one-row batch); the tests check the backward pass by finite differences.

A HeadParams may stack heads along a leading axis of its flat vector; the
multiplier part and the softmax cross-entropy then take batches with the
same leading axis and pair slice g with head g.  Each slice runs the BLAS
calls and reductions of an unstacked call, so the results are the per-head
ones bit for bit; calibration tunes its cross-validation folds this way.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, ShapeError
from .scores import EPS_NORM, shifted_exp


class HeadVariant(str, Enum):
    VANILLA = "vanilla"
    ALPHA_ONLY = "alpha_only"
    BETA_ONLY = "beta_only"
    ALPHA_BETA = "alpha_beta"

    @property
    def has_alpha(self) -> bool:
        return self in (HeadVariant.ALPHA_ONLY, HeadVariant.ALPHA_BETA)

    @property
    def has_beta(self) -> bool:
        return self in (HeadVariant.BETA_ONLY, HeadVariant.ALPHA_BETA)


def sigmoid(x):
    """Numerically stable logistic function."""
    x = np.asarray(x, dtype=np.float64)
    ex = np.exp(-np.abs(x))  # exp(-x) where x >= 0, exp(x) elsewhere: never overflows
    denom = 1.0 + ex
    out = np.where(x >= 0, 1.0 / denom, ex / denom)
    return out if out.ndim else float(out)


def softplus(x):
    """log(1 + exp(x)) without overflow."""
    out = np.logaddexp(0.0, np.asarray(x, dtype=np.float64))
    return out if out.ndim else float(out)


class HeadParams:
    """Class weights plus the alpha/beta head parameters in one float64 vector.

    ``HeadParams(flat, n_classes, d_feature, variant)`` wraps ``flat``, of
    shape ``(..., HeadParams.size(n_classes, d_feature))``, without copying;
    leading axes stack heads of one shape and variant.  The last axis holds
    W (k x D, row-major), alpha_w, alpha_b, beta_w, beta_b in that order,
    which is also the checkpoint's order.  W, alpha_w and beta_w are views
    into it that keep the leading axes; alpha_b and beta_b read and write
    ``flat[..., i]`` (a scalar for one head).  W has no bias row: the
    geometric factorization of the logits assumes pure inner products.
    Gradients come in the same layout.
    """

    def __init__(self, flat: np.ndarray, n_classes: int, d_feature: int, variant):
        k, d = n_classes, d_feature
        self.flat = flat
        self.variant = HeadVariant(variant)
        self.W = flat[..., : k * d].reshape(*flat.shape[:-1], k, d)
        self.alpha_w = flat[..., k * d : (k + 1) * d]
        self.beta_w = flat[..., (k + 1) * d + 1 : (k + 2) * d + 1]

    @staticmethod
    def size(n_classes: int, d_feature: int) -> int:
        return (n_classes + 2) * d_feature + 2

    @classmethod
    def initial(cls, d_feature: int, n_classes: int, variant: HeadVariant, rng: np.random.Generator) -> "HeadParams":
        """W ~ U(-1/sqrt(D), 1/sqrt(D)); zeroed heads so alpha=0.5, beta=softplus(0)."""
        head = cls(np.zeros(cls.size(n_classes, d_feature)), n_classes, d_feature, variant)
        bound = 1.0 / np.sqrt(d_feature)
        head.W[:] = rng.uniform(-bound, bound, size=head.W.shape)
        return head

    @property
    def alpha_b(self):
        return self.flat[..., (self.n_classes + 1) * self.d_feature][()]  # [()] makes one head's a scalar

    @alpha_b.setter
    def alpha_b(self, value) -> None:
        self.flat[..., (self.n_classes + 1) * self.d_feature] = value

    @property
    def beta_b(self):
        return self.flat[..., -1][()]

    @beta_b.setter
    def beta_b(self, value) -> None:
        self.flat[..., -1] = value

    @property
    def n_classes(self) -> int:
        return self.W.shape[-2]

    @property
    def d_feature(self) -> int:
        return self.W.shape[-1]

    def like(self, flat: np.ndarray) -> "HeadParams":
        """A head (or stack) of this one's class count, feature size and variant, wrapping ``flat``."""
        return HeadParams(flat, self.n_classes, self.d_feature, self.variant)

    def copy(self) -> "HeadParams":
        return self.like(self.flat.copy())


@dataclass
class BatchHeadTrace:
    """A forward pass over a feature batch, kept for the backward pass."""

    alpha: np.ndarray
    beta: np.ndarray
    m: np.ndarray
    logits: np.ndarray
    vanilla_logits: np.ndarray
    feature_norm: np.ndarray
    degenerate: np.ndarray


def plain_forward(F: np.ndarray, params: HeadParams) -> tuple[np.ndarray, np.ndarray]:
    """The plain part of a feature batch F of shape (n, D): s = F W^T and ||f|| per row."""
    if F.ndim != 2 or F.shape[1] != params.d_feature:
        raise ShapeError(f"feature batch shape {F.shape} does not match head dim {params.d_feature}")
    return F @ params.W.T, np.sqrt(np.add.reduce(F * F, axis=1))  # np.linalg.norm's sum for real F


def _matvec(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """A @ v over any leading axes, (..., n, D) @ (..., D) -> (..., n): one BLAS gemv per slice."""
    return (A @ v[..., None])[..., 0]


def multiplier_forward(F: np.ndarray, s: np.ndarray, fn: np.ndarray, params: HeadParams) -> BatchHeadTrace:
    """alpha, beta, m and the logits m * s for a feature batch F whose plain part is (s, fn).

    F is (..., n, D), s (..., n, k) and fn (..., n); leading axes match those of ``params.flat``.
    """
    variant = params.variant
    alpha = sigmoid(_matvec(F, params.alpha_w) + params.alpha_b[..., None]) if variant.has_alpha else np.ones_like(fn)
    beta = softplus(_matvec(F, params.beta_w) + params.beta_b[..., None]) if variant.has_beta else np.zeros_like(fn)
    degenerate = fn < EPS_NORM
    m = np.where(degenerate, 1.0 / alpha, 1.0 / alpha + beta / (alpha * np.where(degenerate, 1.0, fn)))
    return BatchHeadTrace(alpha, beta, m, m[..., None] * s, s, fn, degenerate)


def head_forward_batch(F: np.ndarray, params: HeadParams) -> BatchHeadTrace:
    """Forward pass for a feature batch F of shape (n, D)."""
    F = np.asarray(F, dtype=np.float64)
    return multiplier_forward(F, *plain_forward(F, params), params)


def head_backward_batch(
    trace: BatchHeadTrace, F: np.ndarray, params: HeadParams, grad_logits: np.ndarray, frozen_plain: bool = False,
    out: HeadParams | None = None,
) -> tuple[HeadParams, np.ndarray | None]:
    """Analytic gradients of sum(grad_logits * logits) for a batch.

    Returns the pair (parameter gradients, feature gradients).  The first is
    summed over the batch, a HeadParams in the layout of ``params`` (zero for
    the heads a variant pins); the second holds one row per sample, zeroed
    for degenerate samples; a stack of heads sums each slice apart.  With
    ``frozen_plain`` (F and W fixed, as in calibration) only the multiplier
    part runs: W's gradient stays zero and the feature gradients are None.

    The parameter gradients go into ``out`` when given, else into a new
    zeroed HeadParams.  A call writes only the live parts (not the pinned
    heads, nor W when ``frozen_plain``), so one buffer zeroed once serves a
    whole run; each step's gradient in it is valid until the next call.
    """
    U = np.asarray(grad_logits, dtype=np.float64)
    if U.shape != trace.logits.shape:
        raise ShapeError(f"grad_logits shape {U.shape} does not match logits {trace.logits.shape}")
    variant = params.variant
    m, alpha, beta, d = trace.m, trace.alpha, trace.beta, trace.degenerate
    grad = params.like(np.zeros_like(params.flat)) if out is None else out
    Ft = np.swapaxes(F, -1, -2)

    # The multiplier part: the alpha/beta gradients through us = d(loss)/dm per sample.
    us = np.where(d, 0.0, np.einsum("...ij,...ij->...i", U, trace.vanilla_logits))
    safe_fn = np.where(d, 1.0, trace.feature_norm)
    if variant.has_alpha:
        # dm/dalpha = -m/alpha, dalpha/dz = alpha(1-alpha)
        ga = us * (-m / alpha) * alpha * (1.0 - alpha)
        grad.alpha_w[:] = _matvec(Ft, ga)
        grad.alpha_b = np.add.reduce(ga, axis=-1)
    if variant.has_beta:
        # dm/dbeta = 1/(alpha*||f||), dbeta/dz = sigmoid(z) = 1 - exp(-beta)
        dbeta_dz = -np.expm1(-beta)
        gb = us * dbeta_dz / (alpha * safe_fn)
        gb = np.where(d, 0.0, gb)
        grad.beta_w[:] = _matvec(Ft, gb)
        grad.beta_b = np.add.reduce(gb, axis=-1)
    if frozen_plain:
        return grad, None

    # The plain part: the class-weight and feature gradients, then the multiplier's feature terms.
    mU = m[..., None] * U
    np.matmul(np.swapaxes(mU, -1, -2), F, out=grad.W)
    grad_F = mU @ params.W
    if variant.has_alpha:
        grad_F += ga[..., None] * params.alpha_w[..., None, :]
    if variant.has_beta:
        grad_F += gb[..., None] * params.beta_w[..., None, :]
        # dm/d||f|| = -beta/(alpha ||f||^2), d||f||/df = f/||f||
        gn = np.where(d, 0.0, us * (-beta / (alpha * safe_fn**2)) / safe_fn)
        grad_F += gn[..., None] * F
    grad_F[d] = 0.0
    return grad, grad_F


def _mean_nll(shifted: np.ndarray, esum: np.ndarray, y: np.ndarray):
    """Mean of log(esum) - shifted[label] over the rows of each batch, and the index of the picked logits."""
    pick = (*np.indices(y.shape, sparse=True), y)
    nll = np.log(esum) - shifted[pick]
    return nll.sum(axis=-1) / nll.shape[-1], pick  # np.mean's sum and division, without its per-call wrapper


def cross_entropy(logits: np.ndarray, labels):
    """Mean softmax cross-entropy of a logit batch (..., n, k) against integer labels (..., n).

    A float for one batch, an array over the leading axes for a stack;
    IndexError unless every label lies in [0, k).
    """
    shifted, _, esum = shifted_exp(logits)
    y = np.asarray(labels)
    if (y < 0).any() or (y >= shifted.shape[-1]).any():
        raise IndexError("label out of range")
    return _mean_nll(shifted, esum, y)[0]


def softmax_cross_entropy_batch(logits: np.ndarray, labels):
    """Mean cross-entropy over a batch (as in ``cross_entropy``) and its gradient wrt every logit.

    The labels must lie in [0, k): this per-step call does not check them,
    and a negative one silently picks from the end of its row.  ``train``
    checks its labels once per run; calibration's tuning checks its split's
    in the ``cross_entropy`` of its NLL before the first step.
    """
    shifted, e, esum = shifted_exp(logits)
    loss, pick = _mean_nll(shifted, esum, np.asarray(labels))
    grad = e / esum[..., None]
    grad[pick] -= 1.0
    return loss, grad / shifted.shape[-2]
