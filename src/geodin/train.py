"""Desk-scale supervised training of extractor + decomposed head.

The feature extractor first projects inputs onto the unit sphere (zero
inputs pass through unchanged) and then applies a small fully connected net
whose every layer, including the output, is rectified, so features are
nonnegative by construction.  The normalization makes the extractor respond
to input direction rather than magnitude: activations, and with them the
feature norm, fall off as an input rotates away from the training manifold,
which is what the norm-based covariate score measures.  Inference
(``extractor_forward``) runs a batch through the layers in blocks of rows
(``row_blocks``) sized by the narrowest layer, so its memory beyond the
returned features is bounded by the block, not the batch, and ``predict``
streams each block through features, logits and argmax.  Training
(``extractor_activations``) keeps every layer's output for backprop.  Both
run the same per-layer step.

Optimization is plain SGD with momentum, weight decay and per-step cosine
learning-rate annealing on the ``minibatches`` schedule, which calibration
runs too, on the head's alpha/beta slice and without weight decay.  The init
draw and each shuffle stream are seeded, and batch gradients are accumulated
by numpy's fixed pairwise reductions, so a (config, dataset) pair reproduces
the model bit for bit.

A step does only that step's arithmetic.  ``train`` checks its inputs and
labels and projects every row onto the unit sphere once per run (the
projection works row by row, so a batch of projected rows is the projection
of the batch).  It steps one float64 vector that holds ``extractor.flat``
and then ``head.flat``, the checkpoint's order: both parameter objects are
views of it, and both gradients views of one gradient vector, so each step
makes one ``momentum_step`` call.  It allocates once per run the buffers
each step overwrites: that gradient vector (``out=`` of ``loss_and_grads``,
``extractor_backward`` and ``head_backward_batch``) and the
``momentum_step`` scratch.  A gradient returned in such a buffer is valid
until the next step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError, NumericError, ShapeError
from .head import (
    HeadParams,
    HeadVariant,
    head_backward_batch,
    head_forward_batch,
    softmax_cross_entropy_batch,
)
from .scores import EPS_NORM, row_norms


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
        check_sgd(self)
        if not 0 <= self.weight_decay < math.inf:
            raise ConfigError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if self.feature_dim < 1 or any(h < 1 for h in self.hidden):
            raise ConfigError("layer widths must be >= 1")
        known = [v.value for v in HeadVariant]
        if self.variant not in known:
            raise ConfigError(f"unknown head variant {self.variant!r}; known: {', '.join(known)}")


def check_sgd(config) -> None:
    """The checks TrainConfig and CalibConfig share: epochs, batch_size, lr0, momentum, seed."""
    if config.epochs < 1:
        raise ConfigError(f"epochs must be >= 1, got {config.epochs}")
    if config.batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {config.batch_size}")
    if not 0 < config.lr0 < math.inf:
        raise ConfigError(f"lr0 must be finite and > 0, got {config.lr0}")
    if not 0 <= config.momentum < 1:
        raise ConfigError(f"momentum must be in [0, 1), got {config.momentum}")
    if not 0 <= config.seed < 2**64:  # a checkpoint's header holds the seed as a u64
        raise ConfigError(f"seed must be an integer in [0, 2**64), got {config.seed}")


class ExtractorParams:
    """Fully connected rectified layers; the last one emits the feature.

    ``ExtractorParams(flat, dims)`` wraps ``flat``, of
    ``ExtractorParams.size(dims)`` elements for widths dims = [d_in,
    *hidden, d_feature], without copying.  It holds each layer's W (out x
    in, row-major) and then its b, first layer first; ``layers`` lists (W, b)
    views into it.  A checkpoint's array section is this vector followed by
    HeadParams.flat.  Gradients come in the same layout.
    """

    def __init__(self, flat: np.ndarray, dims: Sequence[int]):
        self.flat = flat
        self.layers = []
        pos = 0
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            W = flat[pos : pos + fan_out * fan_in].reshape(fan_out, fan_in)
            b = flat[pos + W.size : pos + W.size + fan_out]
            self.layers.append((W, b))
            pos += W.size + fan_out

    @staticmethod
    def size(dims: Sequence[int]) -> int:
        return sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(dims[:-1], dims[1:]))

    @classmethod
    def initial(
        cls, d_in: int, hidden: Sequence[int], d_feature: int, rng: np.random.Generator
    ) -> "ExtractorParams":
        """Each W ~ U(-1/sqrt(fan_in), 1/sqrt(fan_in)), first layer first; zero biases."""
        dims = [d_in, *hidden, d_feature]
        params = cls(np.zeros(cls.size(dims)), dims)
        for W, _ in params.layers:
            bound = 1.0 / math.sqrt(W.shape[1])
            W[:] = rng.uniform(-bound, bound, size=W.shape)
        return params

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
        return ExtractorParams(self.flat.copy(), self.dims)


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


def shuffles(n: int, seed: int, tag: int):
    """Permutations of range(n), drawn in turn from the stream SeedSequence([seed, tag])."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, tag]))
    while True:
        yield rng.permutation(n)


def minibatches(n: int, config, tag: int):
    """The SGD schedule over n rows: yields each epoch's list of (row indices, rate) steps.

    Each epoch cuts the next of ``shuffles(n, config.seed, tag)`` into
    batches in order, the last one short when n is ragged; the rate is
    cosine_lr of the step's index over all epochs.
    """
    bs = config.batch_size
    per_epoch = (n + bs - 1) // bs
    total = config.epochs * per_epoch
    for epoch, perm in zip(range(config.epochs), shuffles(n, config.seed, tag)):
        yield [
            (perm[i * bs : (i + 1) * bs], cosine_lr(epoch * per_epoch + i, total, config.lr0))
            for i in range(per_epoch)
        ]


def unit_rows(X: np.ndarray) -> np.ndarray:
    """Project the rows of a float64 batch onto the unit sphere, in a new C-ordered array.

    Rows with ~zero norm pass through.  A finite row whose squared norm
    overflows is divided by its largest magnitude first; a row with an
    infinite entry is not finite after projection.  Each row's result
    depends on that row alone, so ``unit_rows(X)[idx]`` is
    ``unit_rows(X[idx])`` bit for bit.
    """
    with np.errstate(over="ignore"):
        norms = row_norms(X)[:, None]
    out = np.divide(X, norms, out=X.astype(np.float64, order="C"), where=norms >= EPS_NORM)
    if np.isinf(norms).any():
        big = np.flatnonzero(np.isinf(norms[:, 0]) & np.isfinite(X).all(axis=1))
        scaled = X[big] / np.abs(X[big]).max(axis=1, keepdims=True)
        out[big] = scaled / row_norms(scaled)[:, None]
    return out


# On OpenBLAS 0.3.31 a product of r rows into an N-wide layer from K inputs takes another
# kernel, whose last bits differ, exactly when r*N <= 1200, K >= 32 and r*N*K <= 10^6 (a
# 32 -> 2 layer differs at 600 rows and matches at 601; a 256 -> 64 one at 18 and 19).
def whole_bits_rows(width: int) -> int | None:
    """The fewest rows whose products at least ``width`` wide give each row the bits of any larger batch.

    That is ceil(1536 / width): r * width >= 1536 keeps a 28% margin from
    the kernel switch, so a row's product with a weight matrix is the one
    the whole batch gets, bit for bit, whichever rows join it.  None for
    width 1: a matrix-vector product, which a multi-threaded OpenBLAS splits
    by the batch's rows, could differ from the batch's in any subset's last
    bits, so a net with a 1-wide product runs each batch whole.
    """
    return -(-1536 // width) if width > 1 else None


def row_blocks(n: int, width: int) -> list[slice]:
    """The blocks of rows that inference takes a batch of n rows in, for products at least ``width`` wide.

    Blocks start at multiples of B = max(512, the 64-multiple at or above
    ``whole_bits_rows(width)``) rows (768 for width 2, 512 from width 3 on)
    and the last one absorbs the remainder, so a batch below two blocks is
    one block and the last block is the largest.  So each block's products
    have the whole batch's bits, and starts at multiples of 64 give
    ``head._matvec`` the whole product's bits.  Below 512 rows the wide
    forward slowed (1.8% at 256, 7.6% at 128).  With width 1 the batch is
    one block.
    """
    fewest = whole_bits_rows(width)
    if fewest is None:
        return [slice(0, n)]
    B = max(512, -(-fewest // 64) * 64)
    count = max(1, n // B)
    return [slice(i * B, n if i == count - 1 else (i + 1) * B) for i in range(count)]


def _layer(a: np.ndarray, W: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """One rectified layer, max(a Wᵀ + b, 0), computed in the one array it returns (``out`` when given)."""
    z = np.matmul(a, W.T, out=out)
    z += b
    return np.maximum(z, 0.0, out=z)


def extractor_forward(params: ExtractorParams, X: np.ndarray) -> np.ndarray:
    """Features of the batch X, computed block by block of ``row_blocks`` for the narrowest layer.

    Each block is projected with ``unit_rows`` and runs through two layer
    buffers allocated once per call, sized for the largest block; the last
    layer writes into the block's rows of the returned (n, d_feature) array.
    A net with a 1-wide layer runs as one block.
    """
    blocks = row_blocks(X.shape[0], min(params.dims[1:]))
    F = np.empty((X.shape[0], params.d_feature))
    rows = blocks[-1].stop - blocks[-1].start
    buffers = np.empty((2, rows * max(params.dims[1:-1], default=0)))
    *hidden, (W_last, b_last) = params.layers
    for blk in blocks:
        a = unit_rows(X[blk])
        for i, (W, b) in enumerate(hidden):
            a = _layer(a, W, b, buffers[i % 2, : a.shape[0] * W.shape[0]].reshape(a.shape[0], W.shape[0]))
        _layer(a, W_last, b_last, F[blk])
    return F


def extractor_activations(params: ExtractorParams, U: np.ndarray) -> list[np.ndarray]:
    """The forward pass backprop needs, for a batch U of rows already projected by ``unit_rows``.

    Returns the activations [U, a_1, ..., a_L = features].
    """
    acts = [U]
    for W, b in params.layers:
        acts.append(_layer(acts[-1], W, b))
    return acts


def extractor_backward(
    params: ExtractorParams, acts, grad_F: np.ndarray, out: ExtractorParams | None = None
) -> np.ndarray:
    """Backprop grad wrt features through the rectified layers.

    Each layer's mask is its activation > 0, which holds exactly where its
    pre-activation is > 0.  Each layer's gradients are written into their
    views of one vector in the layout of ``params.flat``, which is returned:
    ``out.flat`` when given (every element is overwritten, so ``train``
    passes one buffer for the run; the gradient is valid until the next
    step), else a new vector.
    """
    grads = ExtractorParams(np.empty_like(params.flat), params.dims) if out is None else out
    dz = grad_F * (acts[-1] > 0)  # grad_F is the caller's; later masks go in place into this call's own dz
    for i in range(len(params.layers) - 1, -1, -1):
        gW, gb = grads.layers[i]
        np.add.reduce(dz, axis=0, out=gb)
        np.matmul(dz.T, acts[i], out=gW)
        if i > 0:
            dz = dz @ params.layers[i][0]
            dz *= acts[i] > 0
    return grads.flat


def init_model(config: TrainConfig, d_in: int, n_classes: int) -> Model:
    """Untrained model with the documented parameter draw order."""
    config.validate()
    if n_classes < 2:
        raise ConfigError(f"need at least 2 classes, got {n_classes}")
    rng = np.random.default_rng(config.seed)
    extractor = ExtractorParams.initial(d_in, config.hidden, config.feature_dim, rng)
    head = HeadParams.initial(config.feature_dim, n_classes, config.variant, rng)
    return Model(extractor, head, {"seed": int(config.seed), "trained": False})


def extract_features(model: Model, inputs) -> np.ndarray:
    """Feature batch for a 2-D input batch (or one 1-D sample)."""
    X = np.asarray(inputs, dtype=np.float64)
    single = X.ndim == 1
    if single:
        X = X[None, :]
    if X.ndim != 2 or X.shape[1] != model.extractor.d_in:
        raise ShapeError(f"input row shape {X.shape[1:]} does not match model d_in {model.extractor.d_in}")
    F = extractor_forward(model.extractor, X)
    # Rectified features lie in [0, inf] or are NaN, so the max is finite only when all are.
    if F.size and not math.isfinite(F.max()):
        raise NumericError("extractor produced non-finite features")
    return F[0] if single else F


def predict(model: Model, X) -> np.ndarray:
    """The argmax of the whole batch's logits per row, bit for bit, one block of ``row_blocks`` at a time.

    Each block's features, logits and argmax come before the next block's, so
    no whole-batch features or logits are held.  The blocks are sized for the
    narrowest extractor layer or the k classes: s = F W^T is (rows, D) @ (D, k).
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    pred = np.empty(X.shape[0], dtype=np.intp)
    for blk in row_blocks(X.shape[0], min(*model.extractor.dims[1:], model.head.n_classes)):
        pred[blk] = np.argmax(head_forward_batch(extract_features(model, X[blk]), model.head).logits, axis=1)
    return pred


def accuracy(model: Model, X, y) -> float:
    """Fraction of rows of X predicted as their label in y; ShapeError unless y holds one label per row."""
    predicted = predict(model, X)
    y = np.asarray(y)
    if y.shape != predicted.shape:
        raise ShapeError(f"labels shape {y.shape} does not match {len(predicted)} input rows")
    return float(np.mean(predicted == y))


def loss_and_grads(model: Model, X: np.ndarray, y: np.ndarray, out=None):
    """Mean cross-entropy over one SGD batch and its gradients.

    X holds the batch's rows already projected by ``unit_rows`` and y their
    labels in [0, k); ``train`` checks and projects its inputs once per run,
    so neither is checked here.  Returns (loss, (extractor gradient, head
    gradient)), each in the layout of its parameter object's ``flat``.
    ``out``, an (ExtractorParams, zeroed HeadParams) pair of buffers for the
    run, goes to ``extractor_backward`` and ``head_backward_batch``; ``train``
    makes both views of one gradient vector in the order extractor, head.
    The gradients returned in it are valid until the next step.
    """
    ext_out, head_out = (None, None) if out is None else out
    acts = extractor_activations(model.extractor, X)
    trace = head_forward_batch(acts[-1], model.head)
    loss, grad_logits = softmax_cross_entropy_batch(trace.logits, y)
    hg, grad_F = head_backward_batch(trace, acts[-1], model.head, grad_logits, out=head_out)
    return loss, (extractor_backward(model.extractor, acts, grad_F, out=ext_out), hg.flat)


def momentum_step(
    p: np.ndarray, g: np.ndarray, v: np.ndarray, lr: float | np.ndarray, momentum: float,
    weight_decay: float = 0.0, n_decay: int | None = None, scratch: np.ndarray | None = None,
) -> None:
    """One SGD-with-momentum update of the flat vector p (and its velocity v), in place.

    p, g and v may carry leading axes, one vector per slice of a stack; lr
    is a scalar or, for a stack, a column of per-slice rates (shape (G, 1)),
    which scales each slice by the same multiply as a scalar rate.
    Weight decay applies to p[..., :n_decay] only (all of p by default):
    ``train`` steps extractor and head as one vector, so with ``decay_heads``
    off it passes the extractor's size plus the head's W size.  g is not
    modified; the update uses one scratch array of p's shape, first
    for the decayed gradient g + weight_decay * p, then for lr * v.  That is
    ``scratch`` when given (``train`` and calibration pass one for the run),
    else a new array.
    """
    if scratch is None:
        scratch = np.empty_like(p)
    v *= momentum
    if weight_decay:
        decayed = np.multiply(p[..., :n_decay], weight_decay, out=scratch[..., :n_decay])
        decayed += g[..., :n_decay]
        n = decayed.shape[-1]
        v[..., :n] += decayed
        v[..., n:] += g[..., n:]
    else:
        v += g
    p -= np.multiply(v, lr, out=scratch)


def train(config: TrainConfig, train_set, n_classes: int | None = None) -> Model:
    """Train a fresh model on (X, y), deterministically.

    DataError for a non-finite input row, before any step; NumericError on a non-finite loss or result.
    """
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
    finite = np.isfinite(X).all(axis=1)
    if not finite.all():
        raise DataError(f"train set row {int(np.argmin(finite))} is not finite")

    model = init_model(config, X.shape[1], n_classes)
    U = unit_rows(X)  # each step gathers its batch from these projected rows
    # One vector holds extractor.flat and then head.flat, the checkpoint's order; the parameter
    # objects and the gradient buffers are views of one vector each, so one momentum_step serves both.
    dims, n_ext = model.extractor.dims, model.extractor.flat.size
    theta = np.concatenate([model.extractor.flat, model.head.flat])
    model.extractor, model.head = ExtractorParams(theta[:n_ext], dims), model.head.like(theta[n_ext:])
    grad = np.zeros_like(theta)  # the head's pinned parts are never written, so they stay zero
    grads = (ExtractorParams(grad[:n_ext], dims), model.head.like(grad[n_ext:]))
    velocity, scratch = np.zeros_like(theta), np.empty_like(theta)
    # With decay_heads off only the extractor and the head's prefix, the class weights W, decay.
    n_decay = None if config.decay_heads else n_ext + model.head.W.size
    # The shuffle stream (seed, 1) is separate from the init stream (seed).
    for epoch, steps in enumerate(minibatches(X.shape[0], config, 1)):
        epoch_loss = 0.0
        for bi, (idx, lr) in enumerate(steps):
            loss, _ = loss_and_grads(model, U[idx], y[idx], out=grads)
            if not math.isfinite(loss):
                raise NumericError(
                    f"non-finite loss {loss} at epoch {epoch} batch {bi} (lr={lr:.6g})"
                )
            momentum_step(theta, grad, velocity, lr, config.momentum, config.weight_decay, n_decay, scratch=scratch)
            epoch_loss += loss
        model.history.append({"epoch": epoch, "mean_loss": epoch_loss / len(steps), "lr": lr})
    if not model.finite():
        raise NumericError("training produced non-finite parameters")
    model.meta["trained"] = True
    return model
