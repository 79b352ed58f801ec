"""Desk-scale supervised training of extractor + decomposed head.

The feature extractor first projects inputs onto the unit sphere (zero
inputs pass through unchanged) and then applies a small fully connected net
whose every layer, including the output, is rectified, so features are
nonnegative by construction.  The normalization makes the extractor respond
to input direction rather than magnitude: activations, and with them the
feature norm, fall off as an input rotates away from the training manifold,
which is what the norm-based covariate score measures.

Optimization is plain SGD with momentum, weight decay and per-step cosine
learning-rate annealing.  All randomness (init order, then one shuffle
permutation per epoch) flows from a single seeded generator, and batch
gradients are accumulated by numpy's fixed pairwise reductions, so a
(config, dataset) pair reproduces the model bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConfigError, NumericError, ShapeError
from .head import (
    HeadParams,
    HeadVariant,
    head_backward_batch,
    head_forward_batch,
    softmax_cross_entropy_batch,
)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    batch_size: int = 64
    lr0: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 5e-4
    seed: int = 0
    variant: HeadVariant = HeadVariant.ALPHA_BETA
    decay_heads: bool = True  # weight decay on alpha/beta head parameters
    hidden: tuple[int, ...] = (64, 64)
    feature_dim: int = 16

    def validate(self) -> None:
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not self.lr0 > 0:
            raise ConfigError(f"lr0 must be > 0, got {self.lr0}")
        if not 0 <= self.momentum < 1:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if not self.weight_decay >= 0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.seed < 0:
            raise ConfigError(f"seed must be a nonnegative integer, got {self.seed}")
        if self.feature_dim < 1 or any(h < 1 for h in self.hidden):
            raise ConfigError("layer widths must be >= 1")
        known = [v.value for v in HeadVariant]
        if self.variant not in known:
            raise ConfigError(f"unknown head variant {self.variant!r}; known: {', '.join(known)}")


class ExtractorParams:
    """Fully connected rectified layers; the last one emits the feature.

    ``flat`` is one float64 vector holding each layer's W (out x in,
    row-major) and then its b, first layer first; ``layers`` lists (W, b)
    views into it.  A checkpoint's array section is this vector followed by
    HeadParams.flat.
    """

    def __init__(self, layers: list[tuple[np.ndarray, np.ndarray]]):
        dims = [layers[0][0].shape[1], *(W.shape[0] for W, _ in layers)]
        flat = np.concatenate([a.ravel() for W, b in layers for a in (W, b)], dtype=np.float64)
        self._bind(flat, dims)

    @classmethod
    def from_flat(cls, flat: np.ndarray, dims: Sequence[int]) -> "ExtractorParams":
        """Wrap an existing buffer for widths dims = [d_in, *hidden, d_feature] without copying."""
        self = cls.__new__(cls)
        self._bind(flat, dims)
        return self

    def _bind(self, flat: np.ndarray, dims: Sequence[int]) -> None:
        self.flat = flat
        self.layers = []
        pos = 0
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            W = flat[pos : pos + fan_out * fan_in].reshape(fan_out, fan_in)
            b = flat[pos + W.size : pos + W.size + fan_out]
            self.layers.append((W, b))
            pos += W.size + fan_out

    @classmethod
    def initial(
        cls, d_in: int, hidden: Sequence[int], d_feature: int, rng: np.random.Generator
    ) -> "ExtractorParams":
        dims = [d_in, *hidden, d_feature]
        layers = []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            bound = 1.0 / math.sqrt(fan_in)
            layers.append((rng.uniform(-bound, bound, size=(fan_out, fan_in)), np.zeros(fan_out)))
        return cls(layers)

    @property
    def dims(self) -> list[int]:
        """Layer widths [d_in, *hidden, d_feature]."""
        return [self.d_in, *(W.shape[0] for W, _ in self.layers)]

    @property
    def d_in(self) -> int:
        return self.layers[0][0].shape[1]

    @property
    def d_feature(self) -> int:
        return self.layers[-1][0].shape[0]

    def copy(self) -> "ExtractorParams":
        return ExtractorParams.from_flat(self.flat.copy(), self.dims)


@dataclass
class Model:
    extractor: ExtractorParams
    head: HeadParams
    meta: dict
    history: list = field(default_factory=list)  # per-epoch log, not serialized

    def finite(self) -> bool:
        return bool(np.isfinite(self.extractor.flat).all() and np.isfinite(self.head.flat).all())


def cosine_lr(step: int, total_steps: int, lr0: float) -> float:
    """Half-cosine decay from lr0 at step 0 to 0 at total_steps."""
    if total_steps < 1:
        raise ConfigError("total_steps must be >= 1")
    if not 0 <= step <= total_steps:
        raise ConfigError(f"step {step} outside [0, {total_steps}]")
    return 0.5 * lr0 * (1.0 + math.cos(math.pi * step / total_steps))


def unit_rows(X: np.ndarray) -> np.ndarray:
    """Project rows onto the unit sphere; rows with ~zero norm pass through."""
    norms = np.linalg.norm(X, axis=1, keepdims=True)
    return np.divide(X, norms, out=X.astype(np.float64).copy(), where=norms >= 1e-12)


def extractor_forward(params: ExtractorParams, X: np.ndarray):
    """Rectified forward pass; returns the feature batch and the layer cache."""
    a = unit_rows(X)
    cache = []  # (input, pre-activation) per layer
    for W, b in params.layers:
        z = a @ W.T + b
        cache.append((a, z))
        a = np.maximum(z, 0.0)
    return a, cache


def extractor_backward(params: ExtractorParams, cache, grad_F: np.ndarray) -> np.ndarray:
    """Backprop grad wrt features through the rectified layers.

    Returns one vector in the layout of ``params.flat``.
    """
    parts = []  # last layer first, b before W: the reverse of the flat order
    g = grad_F
    for i in range(len(params.layers) - 1, -1, -1):
        a_in, z = cache[i]
        dz = g * (z > 0)
        parts += [dz.sum(axis=0), (dz.T @ a_in).ravel()]
        if i > 0:
            g = dz @ params.layers[i][0]
    return np.concatenate(parts[::-1])


def init_model(config: TrainConfig, d_in: int, n_classes: int) -> Model:
    """Untrained model with the documented parameter draw order."""
    config.validate()
    if n_classes < 2:
        raise ConfigError(f"need at least 2 classes, got {n_classes}")
    rng = np.random.default_rng(config.seed)
    extractor = ExtractorParams.initial(d_in, config.hidden, config.feature_dim, rng)
    head = HeadParams.initial(config.feature_dim, n_classes, config.variant, rng)
    return Model(extractor, head, {"seed": int(config.seed), "trained": False})


def _check_inputs(model: Model, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.extractor.d_in:
        raise ShapeError(f"input batch shape {X.shape} does not match model d_in {model.extractor.d_in}")
    return X


def extract_features(model: Model, inputs) -> np.ndarray:
    """Feature batch for a 2-D input batch (or one 1-D sample)."""
    X = np.asarray(inputs, dtype=np.float64)
    single = X.ndim == 1
    if single:
        X = X[None, :]
    F, _ = extractor_forward(model.extractor, _check_inputs(model, X))
    if not np.all(np.isfinite(F)):
        raise NumericError("extractor produced non-finite features")
    return F[0] if single else F


def model_logits(model: Model, X) -> np.ndarray:
    F = extract_features(model, np.atleast_2d(np.asarray(X, dtype=np.float64)))
    return head_forward_batch(F, model.head).logits


def predict(model: Model, X) -> np.ndarray:
    return np.argmax(model_logits(model, X), axis=1)


def accuracy(model: Model, X, y) -> float:
    return float(np.mean(predict(model, X) == np.asarray(y)))


def loss_and_grads(model: Model, X: np.ndarray, y: np.ndarray):
    """Mean cross-entropy over the batch and its gradients.

    Returns (loss, (extractor gradient, head gradient)), each gradient in the
    layout of the matching parameter object's ``flat``.
    """
    X = _check_inputs(model, X)
    F, cache = extractor_forward(model.extractor, X)
    trace = head_forward_batch(F, model.head)
    loss, grad_logits = softmax_cross_entropy_batch(trace.logits, y)
    hg = head_backward_batch(trace, F, model.head, grad_logits)
    eg = extractor_backward(model.extractor, cache, hg.f)
    return loss, (eg, hg.flat)


def momentum_step(
    p: np.ndarray, g: np.ndarray, v: np.ndarray, lr: float, momentum: float,
    weight_decay: float = 0.0, n_decay: int | None = None,
) -> None:
    """One SGD-with-momentum update of the flat vector p (and its velocity v), in place.

    Weight decay applies to p[:n_decay] only (all of p by default).
    """
    if weight_decay:
        g = g.copy()
        g[:n_decay] += weight_decay * p[:n_decay]
    v *= momentum
    v += g
    p -= lr * v


def train(config: TrainConfig, train_set, n_classes: int | None = None) -> Model:
    """Train a fresh model on (X, y), deterministically; NumericError on a non-finite loss or result."""
    config.validate()
    X, y = train_set
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ConfigError(f"train set must be a nonempty 2-D batch, got shape {X.shape}")
    if y.shape != (X.shape[0],):
        raise ShapeError(f"labels shape {y.shape} does not match inputs {X.shape}")
    if n_classes is None:
        n_classes = int(y.max()) + 1
    if np.any(y < 0) or np.any(y >= n_classes):
        raise ConfigError("labels out of range")

    model = init_model(config, X.shape[1], n_classes)
    # Shuffle stream is separate from the init stream (seed, then seed+tag).
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 1]))
    n = X.shape[0]
    steps_per_epoch = (n + config.batch_size - 1) // config.batch_size
    total_steps = config.epochs * steps_per_epoch

    ext, head = model.extractor.flat, model.head.flat
    ext_v, head_v = np.zeros_like(ext), np.zeros_like(head)
    # With decay_heads off only the head's prefix, the class weights W, decays.
    head_decay = None if config.decay_heads else model.head.W.size
    step = 0
    for epoch in range(config.epochs):
        perm = rng.permutation(n)
        epoch_loss = 0.0
        for bi in range(steps_per_epoch):
            idx = perm[bi * config.batch_size : (bi + 1) * config.batch_size]
            lr = cosine_lr(step, total_steps, config.lr0)
            loss, (ext_g, head_g) = loss_and_grads(model, X[idx], y[idx])
            if not math.isfinite(loss):
                raise NumericError(
                    f"non-finite loss {loss} at epoch {epoch} batch {bi} (lr={lr:.6g})"
                )
            momentum_step(ext, ext_g, ext_v, lr, config.momentum, config.weight_decay)
            momentum_step(head, head_g, head_v, lr, config.momentum, config.weight_decay, head_decay)
            epoch_loss += loss
            step += 1
        model.history.append(
            {"epoch": epoch, "mean_loss": epoch_loss / steps_per_epoch, "lr": lr}
        )
    if not model.finite():
        raise NumericError("training produced non-finite parameters")
    model.meta["trained"] = True
    model.meta["epochs"] = config.epochs
    return model
