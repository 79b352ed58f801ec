"""Distribution-shift score functions from the geometric logit decomposition.

A softmax-linear classifier produces logits l_i = f . w_i, which factor as
``||f|| * ||w_i|| * cos(phi_i)``.  The gap between the winning logit and the
class-average logit,

    u = max_j l_j - mean_i l_i,

sandwiches the KL divergence from the uniform distribution to the predicted
distribution (u - ln M <= KL(U||P) <= u) and splits multiplicatively into a
covariate part g = ||f||_2 and a concept part
h = max_j ||w_j|| cos(phi_j) - mean_i ||w_i|| cos(phi_i) = u / g.

All scores are oriented so that larger means more in-distribution.  MSP and
energy (log-sum-exp) baselines are included; they are computed from the
plain inner-product logits ``W @ f`` so that every score is a pure function
of the feature and the class weights, unaffected by any downstream
recalibration of the head.

Everything here is pure and operates on float64.  :func:`plain_forward` is the
one implementation of s = F W^T and ||f||, and :func:`score_batch` of the five
scores.  It takes each row's logit max once, for u, the shift and the energy;
the shifted max is exactly 0, so the MSP is ``1 / sum_i exp(l_i - max_j l_j)``.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, ShapeError

# Below this feature norm a direction is undefined: h is 0 by convention.
EPS_NORM = 1e-12

SCORE_NAMES = ("g", "h", "u", "msp", "energy")


def _as_weights(W) -> np.ndarray:
    W = np.asarray(W, dtype=np.float64)
    if W.ndim != 2 or W.shape[0] < 2:
        raise ShapeError(f"weight matrix must be 2-D with at least 2 rows, got shape {W.shape}")
    if not np.all(np.isfinite(W)):
        raise DomainError("weight matrix contains non-finite entries")
    return W


def row_norms(F: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each row of a real 2-D batch: ``np.linalg.norm(F, axis=1)``'s sum, bit for bit."""
    return np.sqrt(np.add.reduce(F * F, axis=1))


def plain_forward(F: np.ndarray, W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The plain part of a feature batch F (n, D) against class weights W (k, D): s = F W^T and ||f|| per row."""
    if F.ndim != 2 or F.shape[1] != W.shape[-1]:
        raise ShapeError(f"feature batch shape {F.shape} does not match weights {W.shape}")
    return F @ W.T, row_norms(F)


def score_batch(F, W) -> dict[str, np.ndarray]:
    """Scores for a feature batch F (n, D) against class weights W (M, D).

    Returns arrays keyed by SCORE_NAMES.  Features are post-rectification, so
    F must be finite and nonnegative (checked before ``plain_forward``'s shapes).
    """
    F = np.asarray(F, dtype=np.float64)
    W = _as_weights(W)
    if not np.all(np.isfinite(F)):
        raise DomainError("feature batch contains non-finite entries")
    if np.any(F < 0):
        raise DomainError("feature batch contains negative entries (features are post-rectification)")
    logits, fn = plain_forward(F, W)
    lmax = logits.max(axis=1)
    u = np.maximum(0.0, lmax - logits.mean(axis=1))
    h = np.divide(u, fn, out=np.zeros_like(u), where=fn >= EPS_NORM)
    esum = np.exp(logits - lmax[:, None]).sum(axis=1)  # one shifted exp serves msp and energy
    return {"g": fn, "h": h, "u": u, "msp": 1.0 / esum, "energy": lmax + np.log(esum)}
