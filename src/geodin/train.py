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
of the batch).  Each epoch gathers the projected rows and labels once, in
the epoch's shuffled order, and each step takes the next contiguous slice.
``train`` steps ``model.flat``, the one vector that the model's extractor
and head are views of, so each step makes one ``momentum_step`` call.  It
allocates once per run what each step overwrites: the ``momentum_step``
scratch and a ``Workspace`` per batch size (a ragged last batch gets a
second one, which shares the first one's gradient).  A workspace holds the
gradient, a Model of the same shape, and the arrays ``loss_and_grads``
writes: each layer's activations and dz, the softmax gradient and the
head's backward terms.  The step owns the head's plain part of the backward
pass (W's gradient and the feature gradient) and calls
``head_backward_batch`` for the multiplier part.  A gradient returned in a
workspace is valid until the next step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError, DomainError, NumericError, ShapeError
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
    views into it.  ShapeError for a vector of any other length.  Gradients
    come in the same layout.
    """

    def __init__(self, flat: np.ndarray, dims: Sequence[int]):
        if flat.shape != (ExtractorParams.size(dims),):
            raise ShapeError(f"extractor buffer of shape {flat.shape} for {ExtractorParams.size(dims)} parameters")
        self.flat = flat
        self.dims, self.d_in, self.d_feature = list(dims), dims[0], dims[-1]
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


class Model:
    """Extractor and head parameters in one float64 vector, with meta and a per-epoch log (not saved).

    ``Model(flat, dims, n_classes, variant, meta, history=None)`` wraps
    ``flat`` without copying; ``extractor`` (widths ``dims``) and ``head``
    (``n_classes``, ``dims[-1]``, ``variant``) are views of it, in the order
    extractor, then head, the checkpoint's array section.  ShapeError for a
    vector of any other length.  A gradient is a Model of the same shape.
    """

    def __init__(self, flat: np.ndarray, dims: Sequence[int], n_classes: int, variant, meta: dict, history=None):
        n = ExtractorParams.size(dims)
        self.flat = flat
        self.extractor = ExtractorParams(flat[:n], dims)
        self.head = HeadParams(flat[n:], n_classes, dims[-1], variant)
        self.meta = meta
        self.history = [] if history is None else history

    def like(self, flat: np.ndarray) -> "Model":
        """A model of this one's shape and variant wrapping ``flat``, with copies of its meta and history."""
        head = self.head
        return Model(flat, self.extractor.dims, head.n_classes, head.variant, dict(self.meta), list(self.history))

    def finite(self) -> bool:
        return bool(np.isfinite(self.flat).all())


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
    A net with a 1-wide layer runs as one block.  The buffers are reused
    because fresh per-layer arrays (``extractor_activations`` per block)
    measured slower: a 512-row extract of the 256-wide net took 2.72 ms
    against 1.77 ms, with 544 page faults per call (one CPU, one BLAS thread).
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


def extractor_activations(
    params: ExtractorParams, U: np.ndarray, out: list[np.ndarray] | None = None
) -> list[np.ndarray]:
    """The forward pass backprop needs, for a batch U of rows already projected by ``unit_rows``.

    Returns the activations [U, a_1, ..., a_L = features]; a_i is computed
    in ``out[i - 1]`` when ``out`` is given, else in a new array.
    """
    acts = [U]
    for (W, b), a in zip(params.layers, out or [None] * len(params.layers)):
        acts.append(_layer(acts[-1], W, b, a))
    return acts


def extractor_backward(
    params: ExtractorParams, acts, grad_F: np.ndarray, out: ExtractorParams | None = None,
    dz_out: list[np.ndarray] | None = None,
) -> np.ndarray:
    """Backprop grad wrt features through the rectified layers.

    Each layer's mask is its activation > 0, which holds exactly where its
    pre-activation is > 0.  Each layer's gradients are written into their
    views of one vector in the layout of ``params.flat``, which is returned:
    ``out.flat`` when given (every element is overwritten, so ``train``
    passes one buffer for the run; the gradient is valid until the next
    step), else a new vector.  The gradient wrt layer i's pre-activation is
    computed in ``dz_out[i]`` when ``dz_out`` is given, else in a new array;
    grad_F is not written to.
    """
    grads = ExtractorParams(np.empty_like(params.flat), params.dims) if out is None else out
    dz_out = dz_out or [None] * len(params.layers)
    dz = np.multiply(grad_F, acts[-1] > 0, out=dz_out[-1])  # later masks go in place into dz
    for i in range(len(params.layers) - 1, -1, -1):
        gW, gb = grads.layers[i]
        np.add.reduce(dz, axis=0, out=gb)
        np.matmul(dz.T, acts[i], out=gW)
        if i > 0:
            dz = np.matmul(dz, params.layers[i][0], out=dz_out[i - 1])
            dz *= acts[i] > 0
    return grads.flat


def init_model(config: TrainConfig, d_in: int, n_classes: int) -> Model:
    """Untrained model: every W ~ U(-1/sqrt(fan_in), 1/sqrt(fan_in)), every other parameter 0.

    One ``default_rng(config.seed)`` draws the extractor's W first layer
    first, then the head's W (fan_in D); the zeroed alpha/beta heads start
    at alpha = 0.5 and beta = softplus(0).
    """
    config.validate()
    if n_classes < 2:
        raise ConfigError(f"need at least 2 classes, got {n_classes}")
    if d_in < 1:
        raise ConfigError(f"need at least 1 input feature, got d_in={d_in}")
    dims = [d_in, *config.hidden, config.feature_dim]
    flat = np.zeros(ExtractorParams.size(dims) + HeadParams.size(n_classes, config.feature_dim))
    model = Model(flat, dims, n_classes, config.variant, {"seed": int(config.seed), "trained": False})
    rng = np.random.default_rng(config.seed)
    for W in [*(w for w, _ in model.extractor.layers), model.head.W]:
        bound = 1.0 / math.sqrt(W.shape[1])
        W[:] = rng.uniform(-bound, bound, size=W.shape)
    return model


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
    """Fraction of rows of X predicted as their label in y; first raises as ``check_split`` does ("accuracy split")."""
    X, y = check_split(X, y, "accuracy split", model.head.n_classes, model.extractor.d_in)
    return float(np.mean(predict(model, X) == y))


class Workspace:
    """The arrays an SGD step of ``rows`` rows writes, allocated once and overwritten by each step.

    ``grad`` is the gradient, a Model of ``model``'s shape whose head is
    zeroed, as its pinned parts are never written (a new one unless given,
    so that workspaces of two batch sizes share one).  ``acts`` and ``dz``
    hold each extractor layer's output and the gradient wrt its
    pre-activation; ``grad_logits`` and ``mU`` are (rows, k); ``grad_F`` and
    ``term``, a feature term of the head's backward, are (rows, D); and
    ``grad_m`` holds dL/dm per row.
    """

    def __init__(self, model: Model, rows: int, grad: Model | None = None):
        self.grad = model.like(np.zeros_like(model.flat)) if grad is None else grad
        widths = model.extractor.dims[1:]
        self.acts = [np.empty((rows, w)) for w in widths]
        self.dz = [np.empty((rows, w)) for w in widths]
        self.grad_logits, self.mU = np.empty((2, rows, model.head.n_classes))
        self.grad_F, self.term = np.empty((2, rows, model.head.d_feature))
        self.grad_m = np.empty(rows)


def loss_and_grads(model: Model, X: np.ndarray, y: np.ndarray, out: Workspace | None = None):
    """Mean cross-entropy over one SGD batch and its gradients.

    X holds the batch's rows already projected by ``unit_rows`` and y their
    labels in [0, k); ``train`` checks and projects its inputs once per run,
    so neither is checked here.  Returns (loss, (extractor gradient, head
    gradient)), each in the layout of its parameter object's ``flat`` and
    both views of ``out.grad.flat``, valid until the next step.  ``out`` is
    a Workspace of len(X) rows (a new one when None).

    The step owns the head's plain part of the backward pass, the class
    weights' gradient mU^T F with mU = m * dL/dlogits and the feature gradient;
    ``head_backward_batch`` runs the multiplier part on dL/dm = sum_j
    dL/dl_j s_j and hands back the alpha/beta pre-activation gradients,
    whose feature terms this adds.  A degenerate row's feature gradient is 0.
    """
    ws = Workspace(model, len(X)) if out is None else out
    head, grad = model.head, ws.grad.head
    acts = extractor_activations(model.extractor, X, out=ws.acts)
    F = acts[-1]
    trace = head_forward_batch(F, head)
    loss, grad_logits = softmax_cross_entropy_batch(trace.logits, y, out=ws.grad_logits)
    grad_m = np.einsum("ij,ij->i", grad_logits, trace.vanilla_logits, out=ws.grad_m)
    _, ga, gb = head_backward_batch(trace, F, head, grad_m, out=grad)
    mU = np.multiply(trace.m[:, None], grad_logits, out=ws.mU)
    np.matmul(mU.T, F, out=grad.W)
    grad_F = np.matmul(mU, head.W, out=ws.grad_F)
    if ga is not None:
        grad_F += np.multiply(ga[:, None], head.alpha_w, out=ws.term)
    if gb is not None:
        grad_F += np.multiply(gb[:, None], head.beta_w, out=ws.term)
        # dm/d||f|| = -beta/(alpha ||f||^2), d||f||/df = f/||f||; the degenerate rows are zeroed below.
        safe_fn = trace.safe_norm
        gn = grad_m * (-trace.beta / (trace.alpha * safe_fn**2)) / safe_fn
        grad_F += np.multiply(gn[:, None], F, out=ws.term)
    if np.count_nonzero(trace.degenerate):
        grad_F[trace.degenerate] = 0.0
    extractor_backward(model.extractor, acts, grad_F, out=ws.grad.extractor, dz_out=ws.dz)
    return loss, (ws.grad.extractor.flat, grad.flat)


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
        if n < v.shape[-1]:
            v[..., n:] += g[..., n:]
    else:
        v += g
    p -= np.multiply(v, lr, out=scratch)


def whole_labels(y, split: str, n_rows: int, n_classes: int | None) -> np.ndarray:
    """The labels y of a split of ``n_rows`` rows as int64, or an error that names ``split``.

    DataError for labels of a dtype other than bool, integer or real floating (an object or complex array), or for a
    label that the cast changes (2.0 is 2; 2.5, NaN and inf are not), then DomainError unless there is one label per
    row, then IndexError for a label outside [0, n_classes) (below 0 when n_classes is None).
    """
    raw = np.asarray(y)
    if raw.dtype.kind not in "biuf":
        raise DataError(f"{split} labels are of dtype {raw.dtype}, not bool, integer or real floating")
    with np.errstate(invalid="ignore"):  # NaN and inf cast to some integer, which differs from them
        labels = raw.astype(np.int64)
    if (labels != raw).any():
        raise DataError(f"{split} label {int(np.argmax(labels != raw))} is not an integer")
    if labels.shape != (n_rows,):
        raise DomainError(f"{split} has labels of shape {labels.shape} for its {n_rows} rows")
    top = math.inf if n_classes is None else n_classes
    if (labels < 0).any() or (labels >= top).any():
        raise IndexError(f"{split}: label out of range [0, {top})")
    return labels


def check_split(X, y, split: str, n_classes: int | None, d_in: int | None) -> tuple[np.ndarray, np.ndarray]:
    """A labelled split as a float64 (n, d) batch (a 1-D row is one row) and int64 labels; errors name ``split``.

    DomainError for no rows, then ShapeError for rows that are not a 2-D batch or not ``d_in`` wide (any width when
    d_in is None), then what ``whole_labels`` raises, then DataError for a row with a non-finite entry.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if len(X) == 0:
        raise DomainError(f"{split} is empty")
    if X.ndim != 2 or d_in not in (None, X.shape[1]):
        wanted = "a batch of 1-D rows" if d_in is None else f"model d_in {d_in}"
        raise ShapeError(f"{split}: input row shape {X.shape[1:]} does not match {wanted}")
    y = whole_labels(y, split, len(X), n_classes)
    finite = np.isfinite(X).all(axis=1)
    if not finite.all():
        raise DataError(f"{split} row {int(np.argmin(finite))} is not finite")
    return X, y


def train(config: TrainConfig, train_set, n_classes: int | None = None) -> Model:
    """Train a fresh model on (X, y), deterministically.

    Before any step, raises as ``check_split`` does for the "train set" (rows of any width, labels in [0, n_classes),
    which defaults to the largest label + 1) and as ``init_model`` does; NumericError on a non-finite loss or result.
    """
    X, y = train_set
    X, y = check_split(X, y, "train set", n_classes, None)
    if n_classes is None:
        n_classes = int(y.max()) + 1

    model = init_model(config, X.shape[1], n_classes)
    U = unit_rows(X)  # each epoch gathers its order of these projected rows
    rows = min(config.batch_size, len(X))
    workspaces = {rows: Workspace(model, rows)}  # batch rows -> Workspace; a ragged last batch's shares the gradient
    grad = workspaces[rows].grad
    velocity, scratch = np.zeros_like(model.flat), np.empty_like(model.flat)
    # With decay_heads off only the extractor and the head's prefix, the class weights W, decay.
    n_decay = None if config.decay_heads else model.extractor.flat.size + model.head.W.size
    # The shuffle stream (seed, 1) is separate from the init stream (seed).
    for epoch, steps in enumerate(minibatches(X.shape[0], config, 1)):
        order = np.concatenate([idx for idx, _ in steps])
        U_epoch, y_epoch = U[order], y[order]  # each step takes the next slice of these
        epoch_loss, start = 0.0, 0
        for bi, (idx, lr) in enumerate(steps):
            batch = slice(start, start + len(idx))
            if len(idx) not in workspaces:
                workspaces[len(idx)] = Workspace(model, len(idx), grad)
            loss, _ = loss_and_grads(model, U_epoch[batch], y_epoch[batch], out=workspaces[len(idx)])
            start = batch.stop
            if not math.isfinite(loss):
                raise NumericError(f"non-finite loss {loss} at epoch {epoch} batch {bi} (lr={lr:.6g})")
            momentum_step(model.flat, grad.flat, velocity, lr, config.momentum, config.weight_decay, n_decay, scratch)
            epoch_loss += loss
        model.history.append({"epoch": epoch, "mean_loss": epoch_loss / len(steps), "lr": lr})
    if not model.finite():
        raise NumericError("training produced non-finite parameters")
    model.meta["trained"] = True
    return model
