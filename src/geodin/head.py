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
    out = np.where(x >= 0, 1.0 / (1.0 + ex), ex / (1.0 + ex))
    return out if out.ndim else float(out)


def softplus(x):
    """log(1 + exp(x)) without overflow."""
    out = np.logaddexp(0.0, np.asarray(x, dtype=np.float64))
    return out if out.ndim else float(out)


class HeadParams:
    """Class weights plus the alpha/beta head parameters in one float64 vector.

    ``flat`` holds W (k x D, row-major), alpha_w, alpha_b, beta_w, beta_b in
    that order, which is also the checkpoint's order.  W, alpha_w and beta_w
    are views into it; alpha_b and beta_b read and write one element.  W has
    no bias row: the geometric factorization of the logits assumes pure inner
    products.
    """

    def __init__(self, W, alpha_w, alpha_b, beta_w, beta_b, variant):
        W = np.asarray(W, dtype=np.float64)
        flat = np.concatenate([W.ravel(), alpha_w, [alpha_b], beta_w, [beta_b]], dtype=np.float64)
        self._bind(flat, *W.shape, variant)

    @classmethod
    def from_flat(cls, flat: np.ndarray, n_classes: int, d_feature: int, variant) -> "HeadParams":
        """Wrap an existing buffer of size (n_classes + 2) * d_feature + 2 without copying."""
        self = cls.__new__(cls)
        self._bind(flat, n_classes, d_feature, variant)
        return self

    def _bind(self, flat: np.ndarray, n_classes: int, d_feature: int, variant) -> None:
        k, d = n_classes, d_feature
        self.flat = flat
        self.variant = HeadVariant(variant)
        self.W = flat[: k * d].reshape(k, d)
        self.alpha_w = flat[k * d : (k + 1) * d]
        self.beta_w = flat[(k + 1) * d + 1 : (k + 2) * d + 1]

    @classmethod
    def initial(cls, d_feature: int, n_classes: int, variant: HeadVariant, rng: np.random.Generator) -> "HeadParams":
        """W ~ U(-1/sqrt(D), 1/sqrt(D)); zeroed heads so alpha=0.5, beta=softplus(0)."""
        bound = 1.0 / np.sqrt(d_feature)
        W = rng.uniform(-bound, bound, size=(n_classes, d_feature))
        return cls(W, np.zeros(d_feature), 0.0, np.zeros(d_feature), 0.0, variant)

    @property
    def alpha_b(self) -> float:
        return float(self.flat[self.W.size + self.d_feature])

    @alpha_b.setter
    def alpha_b(self, value: float) -> None:
        self.flat[self.W.size + self.d_feature] = value

    @property
    def beta_b(self) -> float:
        return float(self.flat[-1])

    @beta_b.setter
    def beta_b(self, value: float) -> None:
        self.flat[-1] = value

    @property
    def n_classes(self) -> int:
        return self.W.shape[0]

    @property
    def d_feature(self) -> int:
        return self.W.shape[1]

    def copy(self) -> "HeadParams":
        return HeadParams.from_flat(self.flat.copy(), self.n_classes, self.d_feature, self.variant)


class HeadGradients(HeadParams):
    """Parameter gradients in the layout of HeadParams.flat, plus per-sample feature gradients ``f``."""

    f: np.ndarray | None = None


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
    return F @ params.W.T, np.linalg.norm(F, axis=1)


def multiplier_forward(F: np.ndarray, s: np.ndarray, fn: np.ndarray, params: HeadParams) -> BatchHeadTrace:
    """alpha, beta, m and the logits m * s for a feature batch F whose plain part is (s, fn)."""
    n = F.shape[0]
    variant = params.variant
    if variant is HeadVariant.VANILLA:
        ones = np.ones(n)
        return BatchHeadTrace(ones, np.zeros(n), ones, s, s, fn, np.zeros(n, dtype=bool))
    alpha = sigmoid(F @ params.alpha_w + params.alpha_b) if variant.has_alpha else np.ones(n)
    beta = softplus(F @ params.beta_w + params.beta_b) if variant.has_beta else np.zeros(n)
    degenerate = fn < EPS_NORM
    m = np.where(degenerate, 1.0 / alpha, 1.0 / alpha + beta / (alpha * np.where(degenerate, 1.0, fn)))
    return BatchHeadTrace(alpha, beta, m, m[:, None] * s, s, fn, degenerate)


def head_forward_batch(F: np.ndarray, params: HeadParams) -> BatchHeadTrace:
    """Forward pass for a feature batch F of shape (n, D)."""
    F = np.asarray(F, dtype=np.float64)
    return multiplier_forward(F, *plain_forward(F, params), params)


def head_backward_batch(
    trace: BatchHeadTrace, F: np.ndarray, params: HeadParams, grad_logits: np.ndarray, frozen_plain: bool = False
) -> HeadGradients:
    """Analytic gradients of sum(grad_logits * logits) for a batch.

    Returns parameter gradients summed over the batch, one vector in the
    layout of ``params.flat`` (zero for the heads a variant pins), and
    per-sample feature gradients (rows zeroed for degenerate samples).
    With ``frozen_plain`` (F and W fixed, as in calibration) only the
    multiplier part runs: W's gradient stays zero and ``f`` None.
    """
    U = np.asarray(grad_logits, dtype=np.float64)
    if U.shape != trace.logits.shape:
        raise ShapeError(f"grad_logits shape {U.shape} does not match logits {trace.logits.shape}")
    variant = params.variant
    m, alpha, beta, d = trace.m, trace.alpha, trace.beta, trace.degenerate
    grad = HeadGradients.from_flat(np.zeros_like(params.flat), *params.W.shape, variant)

    # The multiplier part: the alpha/beta gradients through us = d(loss)/dm per sample.
    us = np.where(d, 0.0, np.einsum("ij,ij->i", U, trace.vanilla_logits))
    safe_fn = np.where(d, 1.0, trace.feature_norm)
    if variant.has_alpha:
        # dm/dalpha = -m/alpha, dalpha/dz = alpha(1-alpha)
        ga = us * (-m / alpha) * alpha * (1.0 - alpha)
        grad.alpha_w[:] = F.T @ ga
        grad.alpha_b = ga.sum()
    if variant.has_beta:
        # dm/dbeta = 1/(alpha*||f||), dbeta/dz = sigmoid(z) = 1 - exp(-beta)
        dbeta_dz = -np.expm1(-beta)
        gb = us * dbeta_dz / (alpha * safe_fn)
        gb = np.where(d, 0.0, gb)
        grad.beta_w[:] = F.T @ gb
        grad.beta_b = gb.sum()
    if frozen_plain:
        return grad

    # The plain part: the class-weight and feature gradients, then the multiplier's feature terms.
    mU = m[:, None] * U
    grad.W[:] = mU.T @ F
    grad.f = grad_F = mU @ params.W
    if variant.has_alpha:
        grad_F += ga[:, None] * params.alpha_w[None, :]
    if variant.has_beta:
        grad_F += gb[:, None] * params.beta_w[None, :]
        # dm/d||f|| = -beta/(alpha ||f||^2), d||f||/df = f/||f||
        gn = np.where(d, 0.0, us * (-beta / (alpha * safe_fn**2)) / safe_fn)
        grad_F += gn[:, None] * F
    grad_F[d] = 0.0
    return grad


def _mean_nll(shifted: np.ndarray, esum: np.ndarray, labels):
    """Mean of log(esum) - shifted[label] over the rows, and the (rows, labels) index used."""
    y = np.asarray(labels)
    if np.any(y < 0) or np.any(y >= shifted.shape[1]):
        raise IndexError("label out of range")
    pick = (np.arange(shifted.shape[0]), y)
    return float(np.mean(np.log(esum) - shifted[pick])), pick


def cross_entropy(logits: np.ndarray, labels) -> float:
    """Mean softmax cross-entropy of a logit batch against integer labels."""
    shifted, _, esum = shifted_exp(logits)
    return _mean_nll(shifted, esum, labels)[0]


def softmax_cross_entropy_batch(logits: np.ndarray, labels) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over a batch and its gradient wrt every logit."""
    shifted, e, esum = shifted_exp(logits)
    loss, pick = _mean_nll(shifted, esum, labels)
    grad = e / esum[:, None]
    grad[pick] -= 1.0
    return loss, grad / shifted.shape[0]
