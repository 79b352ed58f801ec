"""Decomposed-head tests: forward oracles, analytic gradients, order preservation.

A single sample is a one-row batch: ``forward`` and ``backward`` below run the
batch functions on one row and return that row.  The whole backward on a logit
gradient is checked by finite differences in the oracle that the training step
equals bit for bit (``reference_head_backward``); the engine's multiplier part
and the step are compared with that oracle's bytes.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import geodin
from geodin.errors import ShapeError
from geodin.head import (
    BatchHeadTrace,
    HeadParams,
    HeadVariant,
    gap_cross_entropy,
    head_backward_batch,
    head_forward_batch,
    multiplier_forward,
    plain_forward,
    sigmoid,
    softmax_cross_entropy_batch,
    softplus,
)
from geodin.train import TrainConfig, Workspace, init_model, loss_and_grads, momentum_step, unit_rows
from oracles import (
    copy_head,
    cross_entropy,
    reference_head_backward,
    reference_sigmoid,
    reference_softmax_cross_entropy,
    reference_step,
    row_nll,
)


def random_params(rng, d=6, m=4, variant=HeadVariant.ALPHA_BETA):
    p = HeadParams(np.zeros(HeadParams.size(m, d)), m, d, variant)
    p.W[:] = rng.normal(0.0, 0.6, (m, d))
    p.alpha_w[:] = rng.normal(0.0, 0.4, d)
    p.alpha_b[...] = float(rng.normal(0.0, 0.5))
    p.beta_w[:] = rng.normal(0.0, 0.4, d)
    p.beta_b[...] = float(rng.normal(0.0, 0.5))
    return p


def random_feature(rng, d=6):
    return rng.uniform(0.0, 2.0, d)


def forward(f, params):
    """head_forward_batch on the one-row batch [f]; every field is that row's."""
    t = head_forward_batch(np.asarray(f, dtype=np.float64)[None, :], params)
    return BatchHeadTrace(*(getattr(t, field.name)[0] for field in dataclasses.fields(t)))


def backward(f, params, grad_logits):
    """The whole head backward (``reference_head_backward``) for the one-row batch [f]: (parameter gradients, that
    row's feature gradient)."""
    F = np.asarray(f, dtype=np.float64)[None, :]
    g, grad_F = reference_head_backward(head_forward_batch(F, params), F, params, np.asarray(grad_logits)[None, :])
    return g, grad_F[0]


def dl_dm(trace, U):
    """The loss's derivative in each row's m for the logit gradient U: sum_j U_ij s_ij, as the backward takes it."""
    return np.einsum("...ij,...ij->...i", U, trace.vanilla_logits)


def assert_pre_activation_gradients(variant, ga, gb):
    """``head_backward_batch`` hands back ga and gb exactly for the heads the variant keeps live."""
    assert (ga is None) != variant.has_alpha and (gb is None) != variant.has_beta


def softmax_cross_entropy(logits, label):
    """softmax_cross_entropy_batch on a one-row batch: (loss, gradient row)."""
    loss, grad = softmax_cross_entropy_batch(np.asarray(logits, dtype=np.float64)[None, :], [label])
    return loss, grad[0]


class TestHeadParamsLayout:
    def test_named_parameters_are_views_of_flat(self):
        rng = np.random.default_rng(40)
        p = random_params(rng)
        d, k = p.d_feature, p.n_classes
        np.testing.assert_array_equal(
            p.flat, np.concatenate([p.W.ravel(), p.alpha_w, [p.alpha_b], p.beta_w, [p.beta_b]])
        )
        assert p.flat.size == (k + 2) * d + 2
        for view in (p.W, p.alpha_w, p.beta_w):
            assert np.shares_memory(view, p.flat)
        p.W[1, 2] = 7.0
        p.alpha_b[...] = 8.0
        p.beta_w[0] = 9.0
        p.beta_b[...] = 10.0
        assert p.flat[d + 2] == 7.0
        assert p.flat[k * d + d] == 8.0
        assert p.flat[k * d + d + 1] == 9.0
        assert p.flat[-1] == 10.0

    @pytest.mark.parametrize("lead", [(), (3,)], ids=["one_head", "stack"])
    def test_the_biases_are_views_of_flat(self, lead):
        p = HeadParams(np.zeros((*lead, HeadParams.size(3, 4))), 3, 4, HeadVariant.ALPHA_BETA)
        for name, at in (("alpha_b", (3 + 1) * 4), ("beta_b", -1)):
            view = getattr(p, name)
            assert view.shape == lead and np.shares_memory(view, p.flat)
            view[...] = 2.5
            assert np.all(p.flat[..., at] == 2.5)
            p.flat[..., at] = -1.0
            assert np.all(getattr(p, name) == -1.0)

    @pytest.mark.parametrize("extra", [-1, 1], ids=["one_short", "one_long"])
    @pytest.mark.parametrize("lead", [(), (2,)], ids=["one_head", "stack"])
    def test_a_buffer_of_another_length_is_rejected(self, lead, extra):
        with pytest.raises(ShapeError):
            HeadParams(np.zeros((*lead, HeadParams.size(3, 4) + extra)), 3, 4, HeadVariant.ALPHA_BETA)

    def test_constructor_and_copy_do_not_alias(self):
        rng = np.random.default_rng(41)
        p = HeadParams(np.zeros(HeadParams.size(3, 4)), 3, 4, HeadVariant.ALPHA_BETA)
        p.W[:] = rng.normal(0.0, 1.0, (3, 4))
        q = copy_head(p)
        q.W[0, 0] = 5.0
        q.alpha_b[...] = 1.0
        assert p.W[0, 0] != 5.0 and p.alpha_b == 0.0
        assert not np.shares_memory(p.flat, q.flat)
        assert q.variant is p.variant and q.W.shape == (3, 4)

    def test_gradient_has_parameter_layout(self):
        rng = np.random.default_rng(42)
        p = random_params(rng)
        f = random_feature(rng)
        U = rng.normal(0.0, 1.0, 4)
        g, gf = backward(f, p, U)
        trace = head_forward_batch(f[None, :], p)
        multiplier, _, _ = head_backward_batch(trace, f[None, :], p, dl_dm(trace, U[None, :]))
        for grad in (g, multiplier):
            assert isinstance(grad, HeadParams) and grad.flat.shape == p.flat.shape
            np.testing.assert_array_equal(
                grad.flat, np.concatenate([grad.W.ravel(), grad.alpha_w, [grad.alpha_b], grad.beta_w, [grad.beta_b]])
            )
        assert gf.shape == f.shape


class TestActivations:
    def test_sigmoid_range_and_midpoint(self):
        assert sigmoid(np.array([0.0])).tolist() == [0.5]
        x = np.linspace(-40, 40, 201)
        s = sigmoid(x)
        assert np.all(s >= 0.0) and np.all(s <= 1.0)
        assert np.all(np.diff(s) >= 0.0)

    def test_sigmoid_has_the_bytes_of_the_two_division_form(self):
        payload_nans = np.array([0x7FF8000000000001, 0xFFF8000000000001], dtype=np.uint64).view(np.float64)
        special = [0.0, -0.0, 1e-300, -1e-300, 1.0, -1.0, 709.0, -709.0, 745.0, -745.0, np.inf, -np.inf, np.nan, -np.nan]
        x = np.concatenate([special, payload_nans, np.random.default_rng(43).normal(0.0, 30.0, 2000)])
        assert sigmoid(x).tobytes() == reference_sigmoid(x).tobytes()

    def test_softplus_positive_and_stable(self):
        low, mid, high = softplus(np.array([-800.0, 0.0, 800.0]))
        assert mid == pytest.approx(np.log(2.0))
        assert low == 0.0  # underflow clamps at exactly zero
        assert high == 800.0
        assert np.all(softplus(np.linspace(-30, 30, 101)) >= 0.0)


class TestHeadForward:
    def test_identity_configuration_equals_vanilla(self):
        # alpha saturated to 1, beta underflowed to 0 -> plain inner products.
        rng = np.random.default_rng(0)
        f = random_feature(rng)
        p = random_params(rng)
        p.alpha_w[:] = 0.0
        p.alpha_b[...] = 600.0
        p.beta_w[:] = 0.0
        p.beta_b[...] = -800.0
        trace = forward(f, p)
        np.testing.assert_array_equal(trace.logits, p.W @ f)

    def test_vanilla_variant_exact(self):
        rng = np.random.default_rng(1)
        f = random_feature(rng)
        p = random_params(rng, variant=HeadVariant.VANILLA)
        trace = forward(f, p)
        np.testing.assert_array_equal(trace.logits, p.W @ f)
        assert trace.m == 1.0

    def test_argmax_preserved(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            f = random_feature(rng)
            p = random_params(rng)
            trace = forward(f, p)
            assert np.argmax(trace.logits) == np.argmax(p.W @ f)

    def test_full_ranking_preserved(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            f = random_feature(rng)
            p = random_params(rng, m=6)
            trace = forward(f, p)
            np.testing.assert_array_equal(np.argsort(trace.logits), np.argsort(p.W @ f))

    def test_two_path_geometric_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            f = random_feature(rng)
            p = random_params(rng)
            trace = forward(f, p)
            fn = np.linalg.norm(f)
            wn = np.linalg.norm(p.W, axis=1)
            cos = (p.W @ f) / (fn * wn)
            oracle = (fn / trace.alpha + trace.beta / trace.alpha) * wn * cos
            np.testing.assert_allclose(trace.logits, oracle, rtol=1e-10, atol=1e-12)

    def test_constraints(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            f = random_feature(rng)
            p = random_params(rng)
            trace = forward(f, p)
            assert 0.0 < trace.alpha < 1.0
            assert trace.beta > 0.0
            assert trace.m > 1.0

    def test_degenerate_zero_feature(self):
        rng = np.random.default_rng(6)
        p = random_params(rng)
        trace = forward(np.zeros(6), p)
        assert trace.degenerate
        assert np.all(trace.logits == 0.0)
        assert trace.m == pytest.approx(1.0 / trace.alpha)

    def test_beta_only_multiplier(self):
        rng = np.random.default_rng(7)
        f = random_feature(rng)
        p = random_params(rng, variant=HeadVariant.BETA_ONLY)
        trace = forward(f, p)
        assert trace.alpha == 1.0
        expected_m = 1.0 + trace.beta / np.linalg.norm(f)
        assert trace.m == pytest.approx(expected_m, rel=1e-12)

    def test_variant_collapse(self):
        # alpha_beta with the beta head pushed to softplus(-30) matches alpha_only.
        rng = np.random.default_rng(8)
        f = random_feature(rng)
        ab = random_params(rng, variant=HeadVariant.ALPHA_BETA)
        ab.beta_w[:] = 0.0
        ab.beta_b[...] = -30.0
        alpha_only = HeadParams(ab.flat.copy(), ab.n_classes, ab.d_feature, HeadVariant.ALPHA_ONLY)
        alpha_only.beta_w[:] = 0.0
        alpha_only.beta_b[...] = 0.0
        np.testing.assert_allclose(
            forward(f, ab).logits, forward(f, alpha_only).logits, atol=1e-8
        )


def fd_gradients(f, params, grad_logits, eps=1e-5):
    """Central finite differences of sum(grad_logits * logits)."""

    def value(ff, pp):
        return float(np.dot(grad_logits, forward(ff, pp).logits))

    out = {}
    for name in ("W", "alpha_w", "alpha_b", "beta_w", "beta_b"):
        base = getattr(params, name)
        g = np.zeros_like(base)
        flat = base.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = value(f, params)
            flat[i] = orig - eps
            down = value(f, params)
            flat[i] = orig
            gflat[i] = (up - down) / (2 * eps)
        out[name] = g
    g = np.zeros_like(f)
    for i in range(f.size):
        fp, fm = f.copy(), f.copy()
        fp[i] += eps
        fm[i] -= eps
        g[i] = (value(fp, params) - value(fm, params)) / (2 * eps)
    out["f"] = g
    return out


def rel_err(a, n):
    a = np.atleast_1d(np.asarray(a, dtype=float))
    n = np.atleast_1d(np.asarray(n, dtype=float))
    return float(np.max(np.abs(a - n) / np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-3)))


def assert_matches_fd(analytic, analytic_f, numeric, variant):
    """An analytic gradient pair against fd_gradients; a pinned head's gradient is exactly zero."""
    assert rel_err(analytic.W, numeric["W"]) < 1e-6
    assert rel_err(analytic_f, numeric["f"]) < 1e-6
    if variant.has_alpha:
        assert rel_err(analytic.alpha_w, numeric["alpha_w"]) < 1e-6
        assert rel_err(analytic.alpha_b, numeric["alpha_b"]) < 1e-6
    else:
        assert np.all(analytic.alpha_w == 0.0) and analytic.alpha_b == 0.0
    if variant.has_beta:
        assert rel_err(analytic.beta_w, numeric["beta_w"]) < 1e-6
        assert rel_err(analytic.beta_b, numeric["beta_b"]) < 1e-6
    else:
        assert np.all(analytic.beta_w == 0.0) and analytic.beta_b == 0.0


class TestHeadBackward:
    def test_zero_upstream_gives_zero(self):
        rng = np.random.default_rng(9)
        f = random_feature(rng)
        p = random_params(rng)
        g, gf = backward(f, p, np.zeros(4))
        assert np.all(g.W == 0.0) and np.all(gf == 0.0)
        assert np.all(g.alpha_w == 0.0) and g.alpha_b == 0.0
        assert np.all(g.beta_w == 0.0) and g.beta_b == 0.0

    def test_vanilla_linear_gradient(self):
        rng = np.random.default_rng(10)
        f = random_feature(rng)
        p = random_params(rng, variant=HeadVariant.VANILLA)
        u = rng.normal(0.0, 1.0, 4)
        g, gf = backward(f, p, u)
        np.testing.assert_allclose(g.W, np.outer(u, f), rtol=1e-12)
        np.testing.assert_allclose(gf, p.W.T @ u, rtol=1e-12)

    @pytest.mark.parametrize("variant", list(HeadVariant))
    def test_matches_finite_differences(self, variant):
        rng = np.random.default_rng(11)
        for _ in range(25):
            f = random_feature(rng)
            p = random_params(rng, variant=variant)
            u = rng.normal(0.0, 1.0, 4)
            analytic, analytic_f = backward(f, p, u)
            assert_matches_fd(analytic, analytic_f, fd_gradients(f, p, u), variant)

    def test_degenerate_f_gradient_zero(self):
        rng = np.random.default_rng(12)
        p = random_params(rng)
        _, gf = backward(np.zeros(6), p, rng.normal(0.0, 1.0, 4))
        assert np.all(gf == 0.0)



class TestSharedMultiplierGradient:
    """Calibration steps only the multiplier, on row subsets of a plain part
    computed once; its gradient is the whole backward's, bit for bit."""

    @pytest.mark.parametrize("variant", [HeadVariant.ALPHA_ONLY, HeadVariant.BETA_ONLY, HeadVariant.ALPHA_BETA])
    def test_grad_m_matches_full_backward_on_row_subsets(self, variant):
        rng = np.random.default_rng(17)
        p = random_params(rng, variant=variant)
        F = rng.uniform(0.0, 2.0, (48, 6))
        F[[5, 30]] = 0.0  # degenerate rows
        s, fn = plain_forward(F, p)
        tail = p.W.size
        for _ in range(5):
            idx = np.concatenate(([5], rng.choice(np.delete(np.arange(48), 5), 15, replace=False)))
            U = rng.normal(0.0, 1.0, (16, 4))
            trace = multiplier_forward(F[idx], s[idx], fn[idx], p)
            full = head_forward_batch(F[idx], p)
            assert trace.logits.tobytes() == full.logits.tobytes()
            grad_m = dl_dm(trace, U)
            kept = grad_m.copy()
            got, ga, gb = head_backward_batch(trace, F[idx], p, grad_m=grad_m)
            want, _ = reference_head_backward(full, F[idx], p, U)
            assert grad_m.tobytes() == kept.tobytes()  # row 5 is degenerate, and its dL/dm stays
            assert got.flat[tail:].tobytes() == want.flat[tail:].tobytes()
            assert np.any(got.flat[tail:] != 0.0)
            assert np.all(got.W == 0.0)
            assert_pre_activation_gradients(variant, ga, gb)


def stacked(heads):
    """One HeadParams whose flat stacks the given heads' flats along a leading axis."""
    return heads[0].like(np.stack([h.flat for h in heads]))


def stacked_plain(F, stack):
    """The plain part (s, ||f||) of feature batches F (G, n, D), batch g against head g of a stack."""
    return F @ np.swapaxes(stack.W, -1, -2), np.linalg.norm(F, axis=-1)


class TestDegenerateRowArithmetic:
    """The backward zeroes degenerate rows in place and reuses the forward's safe norm;
    its bytes are those of the ``np.where`` form, NaNs of an underflowed alpha included."""

    @staticmethod
    def batch(rng, heads, n=12, degenerate=True):
        """Features (G, n, 6) for the stacked heads: rows 2 and 7 are zero when ``degenerate``, and in
        row 4 each head's alpha product reaches ~ -10^4, so that alpha underflows to 0."""
        F = rng.uniform(0.0, 2.0, (len(heads), n, 6))
        if degenerate:
            F[:, [2, 7]] = 0.0
        for g, head in enumerate(heads):
            F[g, 4] = 1e5 * np.maximum(-head.alpha_w, 0.0)
        return F

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the underflowed alpha's inf and NaN
    @pytest.mark.parametrize("variant", list(HeadVariant))
    @pytest.mark.parametrize("degenerate", [True, False], ids=["degenerate_rows", "no_degenerate_row"])
    def test_backward_matches_the_where_form(self, variant, degenerate):
        rng = np.random.default_rng(23)
        heads = [random_params(rng, variant=variant) for _ in range(3)]
        F = self.batch(rng, heads, degenerate=degenerate)
        U = rng.normal(0.0, 1.0, (3, 12, 4))
        stack = stacked(heads)
        cases = [(stack, F, U)] + [(head, F[g], U[g]) for g, head in enumerate(heads)]
        zero_rows = [2, 7] if degenerate else []
        for params, Fx, Ux in cases:
            trace = multiplier_forward(Fx, *stacked_plain(Fx, params), params)
            assert np.all(trace.degenerate[..., zero_rows]) and np.all(trace.degenerate.sum(axis=-1) == len(zero_rows))
            if variant.has_alpha:
                assert np.all(trace.alpha[..., 4] == 0.0)
            # m as the one np.where over fresh temporaries that recomputes the safe norm.
            fn, d = trace.feature_norm, trace.degenerate
            want_m = np.where(d, 1.0 / trace.alpha, 1.0 / trace.alpha + trace.beta / (trace.alpha * np.where(d, 1.0, fn)))
            assert trace.m.tobytes() == want_m.tobytes()
            grad_m = dl_dm(trace, Ux)
            got, ga, gb = head_backward_batch(trace, Fx, params, grad_m)
            want, want_F = reference_head_backward(trace, Fx, params, grad_m=grad_m)
            assert got.flat.tobytes() == want.flat.tobytes()
            assert want_F is None
            assert_pre_activation_gradients(variant, ga, gb)
            if gb is not None:
                assert np.all(gb[..., zero_rows] == 0.0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the underflowed alpha's inf and NaN
    @pytest.mark.parametrize("variant", list(HeadVariant))
    @pytest.mark.parametrize("degenerate", [True, False], ids=["degenerate_rows", "no_degenerate_row"])
    def test_step_matches_the_where_form(self, variant, degenerate):
        # The training step owns the plain part of the backward.  On a one-layer net whose features are its
        # nonnegative inputs' projections, its loss, gradients and feature gradient are the oracle step's bytes.
        rng = np.random.default_rng(25)
        model = init_model(TrainConfig(hidden=(), feature_dim=6, variant=variant), d_in=6, n_classes=4)
        model.extractor.layers[0][0][:] = np.eye(6)  # its bias is 0
        model.head.flat[:] = random_params(rng, variant=variant).flat
        model.head.alpha_w[5] = -1e4
        X = rng.uniform(0.0, 2.0, (12, 6))
        X[:, 5] = 0.0
        zero_rows = [2, 7] if degenerate else []
        if degenerate:
            X[zero_rows] = 0.0
            X[4] = np.eye(6)[5]  # its alpha product is -10^4, so alpha underflows to 0
        U, y = unit_rows(X), rng.integers(0, 4, 12)
        ws = Workspace(model, 12)
        loss, (ext_g, head_g) = loss_and_grads(model, U, y, out=ws)
        want_loss, (want_ext, want_head), want_F = reference_step(model, U, y)
        trace = head_forward_batch(ws.acts[-1], model.head)
        assert np.all(trace.degenerate[zero_rows]) and trace.degenerate.sum() == len(zero_rows)
        if variant.has_alpha:
            assert (trace.alpha[4] == 0.0) == degenerate
        assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
        assert head_g.tobytes() == want_head.tobytes()
        assert ws.grad_F.tobytes() == want_F.tobytes()
        assert ext_g.tobytes() == want_ext.tobytes()
        assert np.all(ws.grad_F[zero_rows] == 0.0)


# Run in a child process at a given OpenBLAS thread count: the multiplier's bytes on batches
# whose alpha/beta products exceed the size at which OpenBLAS splits a gemv across threads
# (n*D > ~0.5M, n not a multiple of 8), and whether _matvec's row blocks give the one-shot bits.
THREAD_PROBE = """
import hashlib, json
import numpy as np
from geodin.head import HeadParams, HeadVariant, _matvec, multiplier_forward
rng = np.random.default_rng(7)
digests, blocked_is_whole = [], []
for shape in [(4001, 256), (2, 3001, 256)]:
    F = rng.uniform(0.0, 1.0, shape)
    head = HeadParams(rng.normal(0.0, 0.1, (*shape[:-2], HeadParams.size(3, shape[-1]))), 3, shape[-1], "alpha_beta")
    fn = np.sqrt(np.add.reduce(F * F, axis=-1))
    t = multiplier_forward(F, fn[..., None], fn, head)
    digests.append(hashlib.sha256(b"".join(a.tobytes() for a in (t.alpha, t.beta, t.m))).hexdigest())
for n, D in [(100001, 3), (9001, 64), (4001, 256), (1999, 1000), (1001, 5000)]:
    A, v = rng.uniform(-1.0, 1.0, (n, D)), rng.uniform(-1.0, 1.0, D)
    blocked_is_whole.append(_matvec(A, v).tobytes() == (A @ v[:, None])[:, 0].tobytes())
print(json.dumps({"digests": digests, "blocked_is_whole": blocked_is_whole}))
"""


def thread_probe(threads: int, script: str = THREAD_PROBE):
    """The JSON that ``script`` prints in a child process at ``threads`` OpenBLAS threads."""
    src = str(Path(geodin.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads), "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout)


# Run in a child process at one OpenBLAS thread: whether _matvec gives the one-shot product's bytes
# and shape when A's or v's leading axis is a broadcast 1, or A has none, for n = B-1, B, B+1 and
# 3B+5 rows of its B-row blocks (B = 1024 at D = 256).
BROADCAST_PROBE = """
import json
import numpy as np
from geodin.head import _matvec
rng, D = np.random.default_rng(8), 256
B = 2**18 // D // 64 * 64
same = []
for n in (B - 1, B, B + 1, 3 * B + 5):
    for a_lead, v_lead in [((1,), (3,)), ((3,), (1,)), ((), (3,))]:
        A, v = rng.uniform(-1.0, 1.0, (*a_lead, n, D)), rng.uniform(-1.0, 1.0, (*v_lead, D))
        got, want = _matvec(A, v), (A @ v[..., None])[..., 0]
        same.append(got.shape == want.shape == (3, n) and got.tobytes() == want.tobytes())
print(json.dumps(same))
"""


class TestThreadCountIndependence:
    def test_multiplier_bytes_hold_at_one_and_two_blas_threads(self):
        assert thread_probe(1)["digests"] == thread_probe(2)["digests"]

    def test_row_blocks_give_the_one_thread_whole_product(self):
        assert thread_probe(1)["blocked_is_whole"] == [True] * 5

    def test_row_blocks_over_broadcast_leading_axes_give_the_whole_product(self):
        assert thread_probe(1, BROADCAST_PROBE) == [True] * 12


class TestStackedHeads:
    """A stack of G heads along a leading axis: each pass over the stack equals
    the per-head calls on its slices bit for bit."""

    @pytest.mark.parametrize("variant", list(HeadVariant))
    def test_stack_matches_per_slice_calls(self, variant):
        rng = np.random.default_rng(19)
        heads = [random_params(rng, variant=variant) for _ in range(3)]
        stack = stacked(heads)
        assert stack.W.shape == (3, 4, 6) and stack.alpha_b.shape == (3,)
        F = rng.uniform(0.0, 2.0, (3, 16, 6))
        F[1, 3] = 0.0  # a degenerate row
        s, fn = stacked_plain(F, stack)
        U = rng.normal(0.0, 1.0, (3, 16, 4))
        trace = multiplier_forward(F, s, fn, stack)
        for g, head in enumerate(heads):
            assert s[g].tobytes() == plain_forward(F[g], head)[0].tobytes()
            one = multiplier_forward(F[g], s[g], fn[g], head)
            for field in dataclasses.fields(one):
                assert getattr(trace, field.name)[g].tobytes() == getattr(one, field.name).tobytes(), field.name
        got, ga, gb = head_backward_batch(trace, F, stack, dl_dm(trace, U))
        whole, whole_F = reference_head_backward(trace, F, stack, U)  # the step's whole backward, on fresh arrays
        for g, head in enumerate(heads):
            one = multiplier_forward(F[g], s[g], fn[g], head)
            want, want_ga, want_gb = head_backward_batch(one, F[g], head, dl_dm(one, U[g]))
            assert got.flat[g].tobytes() == want.flat.tobytes()
            for x, want_x in ((ga, want_ga), (gb, want_gb)):
                assert (x is None) == (want_x is None) and (x is None or x[g].tobytes() == want_x.tobytes())
            want, want_F = reference_head_backward(one, F[g], head, U[g])
            assert whole.flat[g].tobytes() == want.flat.tobytes()
            assert whole_F[g].tobytes() == want_F.tobytes()

    def test_cross_entropy_and_momentum_step_per_slice(self):
        rng = np.random.default_rng(20)
        logits = rng.normal(0.0, 3.0, (3, 40, 5))
        labels = rng.integers(0, 5, (3, 40))
        p, g, v = rng.normal(size=(3, 3, 9))
        p_one, v_one = p.copy(), v.copy()
        momentum_step(p[:, 2:], g[:, 2:], v[:, 2:], 0.1, 0.9, 5e-4, 4)
        for i in range(3):
            assert softmax_cross_entropy_batch(logits[i], labels[i])[0] == cross_entropy(logits[i], labels[i])
            momentum_step(p_one[i, 2:], g[i, 2:], v_one[i, 2:], 0.1, 0.9, 5e-4, 4)
        assert p.tobytes() == p_one.tobytes() and v.tobytes() == v_one.tobytes()

    def test_stacked_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        heads = [random_params(rng) for _ in range(3)]
        stack = stacked(heads)
        F = rng.uniform(0.0, 2.0, (3, 1, 6))  # one sample per head
        U = rng.normal(0.0, 1.0, (3, 1, 4))
        trace = multiplier_forward(F, *stacked_plain(F, stack), stack)
        analytic, analytic_F = reference_head_backward(trace, F, stack, U)
        for g, head in enumerate(heads):
            numeric = fd_gradients(F[g, 0], head, U[g, 0])
            assert_matches_fd(analytic.like(analytic.flat[g]), analytic_F[g, 0], numeric, head.variant)


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        for label in range(4):
            loss, _ = softmax_cross_entropy([2.0] * 4, label)
            assert loss == pytest.approx(np.log(4.0), abs=1e-12)

    def test_dominant_correct_logit(self):
        loss, _ = softmax_cross_entropy([50.0, 0.0, 0.0], 0)
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(IndexError):
            softmax_cross_entropy([1.0, 2.0], 2)

    @pytest.mark.parametrize("into", [False, True], ids=["new", "out"])
    def test_a_label_of_k_in_a_middle_row_raises(self, into):
        # Each row picks its own label, so label k does not read the next row's first logit.
        logits = np.random.default_rng(17).normal(0.0, 2.0, (5, 4))
        with pytest.raises(IndexError):
            softmax_cross_entropy_batch(logits, np.array([0, 3, 4, 1, 2]), out=np.empty((5, 4)) if into else None)

    def test_out_receives_the_gradient_of_the_fresh_array_form(self):
        rng = np.random.default_rng(18)
        logits, labels = rng.normal(0.0, 3.0, (40, 5)), rng.integers(0, 5, 40)
        kept, out = logits.copy(), np.empty((40, 5))
        loss, grad = softmax_cross_entropy_batch(logits, labels, out=out)
        want_loss, want_grad = reference_softmax_cross_entropy(logits, labels)
        assert grad is out and loss == want_loss and grad.tobytes() == want_grad.tobytes()
        assert logits.tobytes() == kept.tobytes()

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            logits = rng.normal(0.0, 2.0, 5)
            label = int(rng.integers(5))
            _, grad = softmax_cross_entropy(logits, label)
            eps = 1e-6
            for i in range(5):
                lp, lm = logits.copy(), logits.copy()
                lp[i] += eps
                lm[i] -= eps
                num = (softmax_cross_entropy(lp, label)[0] - softmax_cross_entropy(lm, label)[0]) / (2 * eps)
                assert abs(grad[i] - num) < 1e-7

    def test_gradient_sums_to_zero(self):
        rng = np.random.default_rng(14)
        logits = rng.normal(0.0, 2.0, 6)
        _, grad = softmax_cross_entropy(logits, 3)
        assert abs(grad.sum()) < 1e-12

    def test_loss_only_matches_batch_loss(self):
        rng = np.random.default_rng(16)
        logits = rng.normal(0.0, 3.0, (40, 5))
        labels = rng.integers(0, 5, 40)
        assert cross_entropy(logits, labels) == softmax_cross_entropy_batch(logits, labels)[0]
        for bad in (5, -1):
            with pytest.raises(IndexError):
                cross_entropy(logits, np.full(40, bad))


class TestGapCrossEntropy:
    """Calibration's gap softmax against the softmax cross-entropy of the logits m * s, to rounding."""

    @staticmethod
    def traces(variant, n=60, k=5):
        """Traces over a plain part s and over its class gaps d, with the labels and their gaps.

        Rows 0 and 9 are degenerate (s = 0: every class ties); rows 1-4 tie classes 1 and 3 at the
        max, and their label is 1.
        """
        rng = np.random.default_rng(24)
        p = random_params(rng, m=k, variant=variant)
        F = rng.uniform(0.0, 2.0, (n, 6))
        F[[0, 9]] = 0.0
        s, fn = plain_forward(F, p)
        s[1:5, 1] = s[1:5, 3] = s[1:5].max(axis=-1)
        y = rng.integers(0, k, n)
        y[1:5] = 1
        d = s - s.max(axis=-1)[:, None]
        return multiplier_forward(F, s, fn, p), multiplier_forward(F, d, fn, p), y, d[np.arange(n), y]

    @staticmethod
    def gap_ce(gaps, dy, m=None, **kwargs):
        """``gap_cross_entropy`` on a gap trace's arrays, or on its gaps at the multipliers ``m``."""
        m = gaps.m if m is None else m
        return gap_cross_entropy(m[..., None] * gaps.vanilla_logits, gaps.vanilla_logits, m, dy, **kwargs)

    @pytest.mark.parametrize("variant", [HeadVariant.ALPHA_ONLY, HeadVariant.BETA_ONLY, HeadVariant.ALPHA_BETA])
    def test_nll_matches_the_softmax_cross_entropy(self, variant):
        plain, gaps, y, dy = self.traces(variant)
        nll = gap_cross_entropy(gaps.logits, gaps.vanilla_logits, gaps.m, dy)
        np.testing.assert_allclose(nll, row_nll(plain.logits, y), rtol=1e-13, atol=1e-13)
        assert nll[0] == nll[9] == np.log(5.0)
        out = np.empty(len(y))
        assert gap_cross_entropy(gaps.logits, gaps.vanilla_logits, gaps.m, dy, out=out) is out
        assert out.tobytes() == nll.tobytes()

    @pytest.mark.parametrize("variant", [HeadVariant.ALPHA_ONLY, HeadVariant.BETA_ONLY, HeadVariant.ALPHA_BETA])
    def test_grad_m_matches_the_softmax_cross_entropy_gradient(self, variant):
        plain, gaps, y, dy = self.traces(variant)
        grad_m = gap_cross_entropy(gaps.logits, gaps.vanilla_logits, gaps.m, dy, grad_m=True)
        np.testing.assert_allclose(grad_m, dl_dm(plain, softmax_cross_entropy_batch(plain.logits, y)[1]), atol=1e-15)
        assert grad_m[0] == grad_m[9] == 0.0
        assert np.all(grad_m[1:5] < 0.0)  # a label at a tied max still gains from a larger m

    def test_grad_m_matches_finite_differences(self):
        _, gaps, y, dy = self.traces(HeadVariant.ALPHA_BETA)
        eps = 1e-6
        # Row i's NLL depends on m_i alone, so one pair of shifts gives every row's derivative of the mean.
        numeric = (self.gap_ce(gaps, dy, gaps.m + eps) - self.gap_ce(gaps, dy, gaps.m - eps)) / (2 * eps * len(y))
        np.testing.assert_allclose(self.gap_ce(gaps, dy, grad_m=True), numeric, rtol=1e-6, atol=1e-10)

    @pytest.mark.parametrize("grad_m", [False, True], ids=["nll", "grad_m"])
    def test_one_shared_m_gives_the_bits_of_a_column_of_it(self, grad_m):
        # Temperature scaling passes one float m for the batch; tuning passes one m per row.
        _, gaps, _, dy = self.traces(HeadVariant.ALPHA_BETA)
        d, m = gaps.vanilla_logits, 0.37
        shared = gap_cross_entropy(m * d, d, m, dy, grad_m=grad_m)
        assert shared.tobytes() == self.gap_ce(gaps, dy, np.full(len(dy), m), grad_m=grad_m).tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_infinite_m_gives_nan(self):
        _, gaps, y, dy = self.traces(HeadVariant.ALPHA_BETA)
        assert np.all(np.isnan(self.gap_ce(gaps, dy, np.full_like(gaps.m, np.inf))))


class TestBatchForward:
    def test_plain_forward_rejects_features_of_another_width(self):
        p = random_params(np.random.default_rng(16))
        with pytest.raises(ShapeError, match=r"feature batch shape \(2, 5\) does not match head dim 6"):
            plain_forward(np.ones((2, 5)), p)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(15)
        p = random_params(rng)
        F = rng.uniform(0.0, 2.0, (32, 6))
        batch = head_forward_batch(F, p)
        for i in range(32):
            single = forward(F[i], p)
            np.testing.assert_allclose(batch.logits[i], single.logits, rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(batch.alpha[i], single.alpha, rtol=1e-14)
            np.testing.assert_allclose(batch.beta[i], single.beta, rtol=1e-14)
