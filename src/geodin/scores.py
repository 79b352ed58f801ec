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

Everything here is pure and operates on float64.  :func:`score_batch` is the
one implementation of the five scores; :func:`score_set` is its first row
for a single feature vector.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class ScoreSet:
    """All five shift scores for one sample. Larger = more in-distribution."""

    g: float
    h: float
    u: float
    msp: float
    energy: float


def shifted_exp(logits) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Max-shifted logits, their exponentials and the exponentials' sum, over the last axis.

    The one overflow-safe core of softmax (``e / esum``), log-sum-exp
    (``max + log(esum)``) and cross-entropy (``log(esum) - shifted[label]``).
    """
    l = np.asarray(logits, dtype=np.float64)
    shifted = l - l.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return shifted, e, e.sum(axis=-1)


def _msp_energy(logits) -> tuple[np.ndarray, np.ndarray]:
    l = np.asarray(logits, dtype=np.float64)
    _, e, esum = shifted_exp(l)
    return e.max(axis=-1) / esum, l.max(axis=-1) + np.log(esum)


def msp_score(logits):
    """Maximum softmax probability over the last axis of the logits."""
    return _msp_energy(logits)[0]


def energy_score(logits):
    """Log-sum-exp over the last axis of the logits (the negative free energy)."""
    return _msp_energy(logits)[1]


def kl_from_uniform(probs) -> float:
    """KL(U || P) = -sum_i (1/M) ln(M * P_i) for a discrete distribution P."""
    p = np.asarray(probs, dtype=np.float64)
    if np.any(p <= 0):
        raise DomainError("probabilities must be strictly positive")
    if abs(p.sum() - 1.0) > 1e-9:
        raise DomainError(f"probabilities sum to {p.sum():.12f}, not 1")
    m = p.size
    return max(0.0, float(-np.mean(np.log(m * p))))


def score_set(f, W) -> ScoreSet:
    """All five scores for one feature vector: the single row of score_batch([f], W)."""
    scores = score_batch([f], W)
    return ScoreSet(**{name: float(values[0]) for name, values in scores.items()})


def score_batch(F, W) -> dict[str, np.ndarray]:
    """Scores for a feature batch F (n, D) against class weights W (M, D).

    Returns arrays keyed by SCORE_NAMES.  Features are post-rectification, so
    F must be finite and nonnegative.
    """
    F = np.asarray(F, dtype=np.float64)
    W = _as_weights(W)
    if F.ndim != 2 or F.shape[1] != W.shape[1]:
        raise ShapeError(f"feature batch shape {F.shape} does not match weights {W.shape}")
    if not np.all(np.isfinite(F)):
        raise DomainError("feature batch contains non-finite entries")
    if np.any(F < 0):
        raise DomainError("feature batch contains negative entries (features are post-rectification)")
    logits = F @ W.T
    fn = np.linalg.norm(F, axis=1)
    u = np.maximum(0.0, logits.max(axis=1) - logits.mean(axis=1))
    h = np.divide(u, fn, out=np.zeros_like(u), where=fn >= EPS_NORM)
    msp, energy = _msp_energy(logits)  # one shifted exp serves both
    return {"g": fn, "h": h, "u": u, "msp": msp, "energy": energy}
