"""Autodiff tests. Central finite differences are the oracle throughout;
everything here runs in double precision unless a test builds float32
tensors itself."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from midibert import autodiff as ad
from midibert.autodiff import Tensor, backward, gradcheck

from .support import gelu_formula, mean, mul, tanh, unfused_attention


def tensor(data, requires_grad: bool = False) -> Tensor:
    """A float64 leaf: the checks here run in double precision."""
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=requires_grad)


def params(rng, *shapes):
    return [tensor(rng.standard_normal(s), requires_grad=True) for s in shapes]


def loss_of(t: Tensor) -> Tensor:
    # deterministic scalar readout with non-uniform weights
    flat = ad.reshape(t, (t.data.size,))
    w = tensor(np.linspace(0.5, 1.5, t.data.size))
    return mean(mul(flat, w))


class TestBasicOps:
    def test_linear_layer_tight_tolerance(self):
        # the canonical example: dense layer at eps 1e-5 checks to 1e-6
        rng = np.random.default_rng(0)
        x, w, b = params(rng, (7, 5), (5, 4), (4,))
        f = lambda: loss_of(ad.add(ad.matmul(x, w), b))
        assert gradcheck(f, [x, w, b], eps=1e-5, sample=300) <= 1e-6

    def test_broadcast_add(self):
        rng = np.random.default_rng(1)
        x, b = params(rng, (3, 6, 5), (5,))
        assert gradcheck(lambda: loss_of(ad.add(x, b)), [x, b]) <= 1e-6

    def test_mul_and_scale(self):
        rng = np.random.default_rng(2)
        a, b = params(rng, (4, 5), (4, 5))
        assert gradcheck(lambda: loss_of(ad.scale(mul(a, b), 3.5)), [a, b]) <= 1e-6

    def test_batched_matmul(self):
        rng = np.random.default_rng(3)
        a, b = params(rng, (2, 3, 4, 5), (2, 3, 5, 6))
        assert gradcheck(lambda: loss_of(ad.matmul(a, b)), [a, b]) <= 1e-6

    def test_reshape_transpose_concat(self):
        rng = np.random.default_rng(4)
        a, b = params(rng, (2, 3, 4), (2, 3, 2))

        def f():
            joined = ad.concat([a, b], axis=-1)
            return loss_of(ad.transpose(ad.reshape(joined, (6, 6)), (1, 0)))

        assert gradcheck(f, [a, b]) <= 1e-6

    def test_parameter_reuse_accumulates(self):
        rng = np.random.default_rng(5)
        (x,) = params(rng, (4, 4))
        f = lambda: loss_of(ad.add(ad.matmul(x, x), x))
        assert gradcheck(f, [x]) <= 1e-6


class TestNonlinearities:
    def test_relu(self):
        rng = np.random.default_rng(6)
        data = rng.uniform(0.2, 1.0, (5, 5)) * rng.choice([-1, 1], (5, 5))
        x = tensor(data, requires_grad=True)  # stay away from the kink
        assert gradcheck(lambda: loss_of(ad.relu(x)), [x]) <= 1e-6

    def test_gelu_positive_branch(self):
        rng = np.random.default_rng(16)
        x = tensor(rng.uniform(0.2, 2.0, (5, 6)), requires_grad=True)
        assert gradcheck(lambda: loss_of(ad.gelu(x)), [x]) <= 1e-6

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gelu_rounds_like_the_formula(self, dtype):
        # the in-place buffers keep the expression's rounding order exactly
        rng = np.random.default_rng(18)
        data = (rng.standard_normal((4, 64, 96)) * 3).astype(dtype)
        data.flat[:6] = [0.0, -0.0, 1e-40, -1e-30, 40.0, -40.0]
        g = rng.standard_normal(data.shape).astype(dtype)
        results = []
        for op in (ad.gelu, gelu_formula):
            x = Tensor(data.copy(), requires_grad=True)
            out = op(x)
            out._backward(g.copy())
            results.append((out.data, x.grad))
        (out, grad), (want_out, want_grad) = results
        assert out.dtype == grad.dtype == dtype
        assert np.array_equal(out, want_out) and np.array_equal(grad, want_grad)

    def test_tanh(self):
        rng = np.random.default_rng(17)
        x = tensor(rng.uniform(-2.0, 2.0, (5, 6)), requires_grad=True)
        assert gradcheck(lambda: loss_of(tanh(x)), [x]) <= 1e-6

    def test_gelu_tanh_softmax(self):
        rng = np.random.default_rng(7)
        (x,) = params(rng, (6, 9))

        def f():
            return loss_of(ad.softmax(tanh(ad.gelu(x))))

        # softmax rows have mean-zero gradients, so some coordinate is always
        # ~1e-8; finite-difference noise (~1e-12 absolute) caps the relative
        # metric near 1e-4 there. A wrong rule would read as O(1).
        assert gradcheck(f, [x], sample=250) <= 1e-4

    def test_softmax_rows_sum_to_one_and_survive_huge_logits(self):
        x = tensor(np.array([[1e4, 1e4 - 5.0, 0.0], [-1e4, 0.0, 1e4]]))
        y = ad.softmax(x).data
        assert np.isfinite(y).all()
        assert np.allclose(y.sum(axis=-1), 1.0)

    def test_layer_norm(self):
        rng = np.random.default_rng(8)
        x, gamma, beta = params(rng, (4, 3, 8), (8,), (8,))
        f = lambda: loss_of(ad.layer_norm(x, gamma, beta))
        assert gradcheck(f, [x, gamma, beta], sample=250) <= 1e-5

    def test_layer_norm_output_statistics(self):
        rng = np.random.default_rng(9)
        x = tensor(rng.standard_normal((10, 16)) * 7 + 3)
        ones, zeros = tensor(np.ones(16)), tensor(np.zeros(16))
        y = ad.layer_norm(x, ones, zeros).data
        assert np.allclose(y.mean(axis=-1), 0.0, atol=1e-9)
        assert np.allclose(y.var(axis=-1), 1.0, atol=1e-6)


class TestDropout:
    def test_eval_mode_is_identity(self):
        x = tensor(np.ones((3, 3)), requires_grad=True)
        assert ad.dropout(x, 0.5, seed=1, training=False) is x
        assert ad.dropout(x, 0.0, seed=1, training=True) is x

    def test_seed_determinism(self):
        x = tensor(np.ones((64, 64)))
        a = ad.dropout(x, 0.3, seed=9, training=True).data
        b = ad.dropout(x, 0.3, seed=9, training=True).data
        c = ad.dropout(x, 0.3, seed=10, training=True).data
        assert (a == b).all() and (a != c).any()

    def test_inverted_scaling_preserves_mean(self):
        x = tensor(np.ones((400, 400)))
        y = ad.dropout(x, 0.25, seed=3, training=True).data
        assert set(np.unique(y)) <= {0.0, 1.0 / 0.75}
        assert abs(y.mean() - 1.0) < 0.01

    def test_gradient_uses_the_same_mask(self):
        rng = np.random.default_rng(10)
        (x,) = params(rng, (6, 6))
        f = lambda: loss_of(ad.dropout(x, 0.4, seed=2, training=True))
        assert gradcheck(f, [x]) <= 1e-6

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            ad.dropout(tensor(np.ones(3)), 1.0, seed=0, training=True)

    def test_mask_is_one_draw_of_the_whole_shape(self):
        # larger than one slice of uniforms, in float32 and float64
        for dtype in (np.float32, np.float64):
            x = Tensor(np.ones((3, 301, 307), dtype))
            uniforms = np.random.default_rng([5]).random(x.data.shape)
            want = (uniforms >= 0.1).astype(dtype) / (1.0 - 0.1)
            got = ad.dropout(x, 0.1, seed=5, training=True).data
            assert got.dtype == dtype
            assert np.array_equal(got, want)


class TestEmbedAndLosses:
    def test_embed_scatter_accumulates_duplicates(self):
        table = tensor(np.zeros((5, 3)), requires_grad=True)
        ids = np.array([[1, 1, 4], [4, 1, 0]])
        out = ad.embed(table, ids)
        backward(mean(out))
        # row 1 used three times, row 4 twice, row 0 once, rows 2,3 never
        per_use = 1.0 / out.data.size
        assert np.allclose(table.grad[1], 3 * per_use)
        assert np.allclose(table.grad[4], 2 * per_use)
        assert np.allclose(table.grad[2], 0.0)

    def test_embed_gradcheck(self):
        rng = np.random.default_rng(11)
        (table,) = params(rng, (7, 4))
        ids = rng.integers(0, 7, (3, 5))
        assert gradcheck(lambda: loss_of(ad.embed(table, ids)), [table]) <= 1e-6

    def test_cross_entropy_uniform_logits_is_log_c(self):
        for c in (13, 169):
            logits = tensor(np.zeros((10, c)))
            loss = ad.cross_entropy(
                logits, np.zeros(10, dtype=int), np.ones(10)
            )
            assert abs(float(loss.data) - np.log(c)) < 1e-12

    def test_cross_entropy_weighted_mean(self):
        logits = tensor(np.log(np.array([[0.7, 0.3], [0.2, 0.8]])))
        targets = np.array([0, 1])
        loss = ad.cross_entropy(logits, targets, np.array([3.0, 1.0]))
        expected = (3 * -np.log(0.7) + 1 * -np.log(0.8)) / 4
        assert abs(float(loss.data) - expected) < 1e-12

    def test_cross_entropy_ignores_zero_weight_rows(self):
        logits = tensor(np.zeros((3, 4)), requires_grad=True)
        targets = np.array([1, -1, 2])  # ignore marker in a dead row
        loss = ad.cross_entropy(logits, targets, np.array([1.0, 0.0, 1.0]))
        backward(loss)
        assert abs(float(loss.data) - np.log(4)) < 1e-12
        assert np.allclose(logits.grad[1], 0.0)

    def test_cross_entropy_gradcheck(self):
        rng = np.random.default_rng(12)
        (logits,) = params(rng, (9, 6))
        targets = rng.integers(0, 6, 9)
        weights = rng.uniform(0.0, 2.0, 9)
        weights[0] = 0.0
        f = lambda: ad.cross_entropy(logits, targets, weights)
        assert gradcheck(f, [logits], sample=54) <= 1e-6

    def test_cross_entropy_all_zero_weights_rejected(self):
        with pytest.raises(ValueError, match="positive weight"):
            ad.cross_entropy(tensor(np.zeros((2, 3))), np.zeros(2, int), np.zeros(2))


class TestAttentionScores:
    def test_gradcheck_scores_alone(self):
        rng = np.random.default_rng(18)
        b, h, t, d, clip = 2, 2, 7, 4, 3
        q, k, rel = params(rng, (b, h, t, d), (b, h, t, d), (2 * clip + 1, d))
        bias = np.zeros((1, 1, 1, t))

        def f():
            return loss_of(ad.attention_scores(q, k, rel, bias, 1 / np.sqrt(d)))

        assert gradcheck(f, [q, k, rel], sample=250) <= 1e-6

    def test_gradcheck_with_mask_and_softmax(self):
        rng = np.random.default_rng(13)
        b, h, t, d, clip = 2, 2, 7, 4, 3
        q, k, rel = params(rng, (b, h, t, d), (b, h, t, d), (2 * clip + 1, d))
        bias = np.zeros((1, 1, 1, t))
        bias[..., t - 2 :] = -1e9  # padded keys

        def f():
            scores = ad.attention_scores(q, k, rel, bias, 1 / np.sqrt(d))
            return loss_of(ad.softmax(scores))

        # same near-zero-coordinate caveat as the softmax chain test; here the
        # worst coordinate sits at the 1e-8 denominator floor, so the honest
        # ceiling is noise/floor ~ 5e-4
        assert gradcheck(f, [q, k, rel], sample=250) <= 5e-4

    def test_masked_keys_get_zero_probability(self):
        rng = np.random.default_rng(14)
        q, k, rel = params(rng, (1, 1, 5, 3), (1, 1, 5, 3), (5, 3))
        bias = np.zeros((1, 1, 1, 5))
        bias[..., 3:] = -1e9
        probs = ad.softmax(ad.attention_scores(q, k, rel, bias, 1.0)).data
        assert (probs[..., 3:] == 0.0).all()
        assert np.allclose(probs.sum(axis=-1), 1.0)


def clipped_distance(t, clip):
    return np.clip(np.arange(t)[None, :] - np.arange(t)[:, None], -clip, clip) + clip


def gathered_scores(q, k, rel, index, bias, scaling, g):
    """Reference relative attention: gather rel[index] as (T, T, D) and
    scatter its gradient back row by row with np.add.at."""
    gathered = rel[index]
    out = (q @ k.swapaxes(-1, -2) + np.einsum("bhid,ijd->bhij", q, gathered)) * scaling + bias
    gs = g * scaling
    gq = gs @ k + np.einsum("bhij,ijd->bhid", gs, gathered)
    gk = gs.swapaxes(-1, -2) @ q
    g_rel = np.zeros_like(rel)
    per_pair = np.einsum("bhij,bhid->ijd", gs, q)
    np.add.at(g_rel, index.reshape(-1), per_pair.reshape(-1, rel.shape[1]))
    return out, gq, gk, g_rel


class TestRelativeBand:
    """attention_scores reads the relative term through a skewed band; a
    plain gather-and-scatter is the reference."""

    @pytest.mark.parametrize("t", [1, 3, 4, 5, 9])  # 1, c, c+1, c+2, 3c at c = 3
    def test_matches_gather_reference(self, t):
        rng = np.random.default_rng(40 + t)
        b, h, d, clip = 2, 3, 4, 3
        q, k, rel = params(rng, (b, h, t, d), (b, h, t, d), (2 * clip + 1, d))
        index = clipped_distance(t, clip)
        bias = np.where(rng.random((b, 1, 1, t)) < 0.3, -1e9, 0.0)
        weights = rng.standard_normal((b, h, t, t))
        scaling = 1 / np.sqrt(d)

        out = ad.attention_scores(q, k, rel, bias, scaling)
        backward(mean(mul(out, tensor(weights))))
        want = gathered_scores(
            q.data, k.data, rel.data, index, bias, scaling, weights / weights.size
        )
        for got, ref in zip((out.data, q.grad, k.grad, rel.grad), want):
            assert got.shape == ref.shape
            assert np.allclose(got, ref, rtol=1e-12, atol=1e-12)

    def test_rejects_even_table(self):
        rng = np.random.default_rng(48)
        q, k, rel = params(rng, (1, 1, 6, 2), (1, 1, 6, 2), (6, 2))
        with pytest.raises(ValueError, match="rel_table"):
            ad.attention_scores(q, k, rel, np.zeros((1, 1, 1, 6)), 1.0)

    def test_float32_in_float32_out(self):
        rng = np.random.default_rng(49)
        b, h, t, d, clip = 2, 2, 12, 4, 3
        q, k, rel = (
            Tensor(rng.standard_normal(s).astype(np.float32), requires_grad=True)
            for s in ((b, h, t, d), (b, h, t, d), (2 * clip + 1, d))
        )
        bias = np.zeros((b, 1, 1, t), np.float32)
        # a numpy float64 scaling must not promote the result
        out = ad.attention_scores(q, k, rel, bias, 1 / np.sqrt(d))
        backward(mean(out))
        assert out.data.dtype == np.float32
        assert q.grad.dtype == k.grad.dtype == rel.grad.dtype == np.float32

    def test_memory_stays_below_a_gathered_table(self):
        rng = np.random.default_rng(50)
        t, d, clip = 512, 64, 64
        q, k, rel = (
            Tensor(rng.standard_normal(s).astype(np.float32), requires_grad=True)
            for s in ((1, 1, t, d), (1, 1, t, d), (2 * clip + 1, d))
        )
        bias = np.zeros((1, 1, 1, t), np.float32)
        tracemalloc.start()
        try:
            backward(mean(ad.attention_scores(q, k, rel, bias, 0.125)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a float32 (T, T, D) gather alone would be 64 MiB
        assert peak < 16 * 2**20

    def test_band_is_built_one_head_at_a_time(self):
        rng = np.random.default_rng(51)
        b, h, t, d, clip = 4, 2, 256, 8, 16
        q, k, rel = params(rng, (b, h, t, d), (b, h, t, d), (2 * clip + 1, d))
        bias = np.zeros((b, 1, 1, t))
        g = rng.standard_normal((b, h, t, t))
        scores_bytes = g.nbytes  # a full (B, H, T, 2T-1) band is twice this
        tracemalloc.start()
        try:
            out = ad.attention_scores(q, k, rel, bias, 0.25)
            _, forward_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            start, _ = tracemalloc.get_traced_memory()
            out._backward(g)
            _, backward_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert forward_peak < 1.5 * scores_bytes
        assert backward_peak - start < 0.5 * scores_bytes


def attention_inputs(rng, b, h, t, d, clip, dtype):
    q, k, v = (
        Tensor(rng.standard_normal((b, h, t, d)).astype(dtype), requires_grad=True)
        for _ in range(3)
    )
    rel = Tensor(rng.standard_normal((2 * clip + 1, d)).astype(dtype), requires_grad=True)
    bias = np.zeros((b, 1, 1, t), dtype)
    bias[-1, ..., t // 2 + 1 :] = -1e9  # a padded row: its tail keys are masked
    return q, k, v, rel, bias


class TestFusedAttention:
    """ad.attention against the chain attention_scores -> softmax -> dropout
    -> matmul that it replaces."""

    @staticmethod
    def run(op, t, p, dtype=np.float32, b=2, h=3, d=4, clip=3):
        rng = np.random.default_rng([60, t])
        q, k, v, rel, bias = attention_inputs(rng, b, h, t, d, clip, dtype)
        weights = Tensor(rng.standard_normal((b, h, t, d)).astype(dtype))
        out = op(q, k, v, rel, bias, 1 / np.sqrt(d), p, 7, True)
        backward(mean(mul(out, weights)))
        return out.data, q.grad, k.grad, v.grad, rel.grad

    @pytest.mark.parametrize("t", [1, 3, 4, 5, 9])  # 1, c, c+1, c+2, 3c at c = 3
    @pytest.mark.parametrize("p", [0.0, 0.1, 0.15])  # 1/0.85 rounds apart in float32 and 64
    def test_float32_bit_identical_to_the_chain(self, t, p):
        fused = self.run(ad.attention, t, p)
        chain = self.run(unfused_attention, t, p)
        for got, want in zip(fused, chain):
            assert got.dtype == np.float32
            assert np.array_equal(got, want)

    def test_rel_table_gradient_at_model_scale(self):
        # one gQRᵀ·q matmul over every head; a per-head sum rounds differently
        args = dict(b=2, h=4, d=32, clip=64)
        fused = self.run(ad.attention, 200, 0.1, **args)
        chain = self.run(unfused_attention, 200, 0.1, **args)
        for got, want in zip(fused, chain):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("p", [0.0, 0.3])
    def test_float64_gradcheck_and_chain(self, p):
        rng = np.random.default_rng(61)
        q, k, v, rel, bias = attention_inputs(rng, 2, 2, 7, 4, 3, np.float64)
        weights = tensor(rng.standard_normal((2, 2, 7, 4)))

        def f(op):
            out = op(q, k, v, rel, bias, 0.5, p, 3, True)
            return mean(mul(out, weights))

        assert gradcheck(lambda: f(ad.attention), [q, k, v, rel], sample=300) <= 1e-6
        fused = [t.grad for t in (q, k, v, rel)]  # gradcheck's own backward
        for t in (q, k, v, rel):
            t.grad = None
        backward(f(unfused_attention))
        for got, t in zip(fused, (q, k, v, rel)):
            assert got.dtype == np.float64
            assert np.allclose(got, t.grad, rtol=1e-12, atol=1e-15)

    def test_inference_makes_no_score_sized_array(self):
        rng = np.random.default_rng(62)
        b, h, t, d, clip = 8, 4, 512, 32, 64
        q, k, v, rel = (
            Tensor(rng.standard_normal(s).astype(np.float32))
            for s in ((b, h, t, d), (b, h, t, d), (b, h, t, d), (2 * clip + 1, d))
        )
        bias = np.zeros((b, 1, 1, t), np.float32)
        scores_bytes = b * h * t * t * 4  # one float32 (B, H, T, T) array, 32 MiB
        for training in (False, True):
            tracemalloc.start()
            try:
                out = ad.attention(q, k, v, rel, bias, 0.125, 0.1, 4, training)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert out._backward is None and not out.requires_grad
            assert peak < scores_bytes

    def test_graph_keeps_only_probabilities_and_mask(self):
        rng = np.random.default_rng(63)
        b, h, t, d, clip = 2, 2, 256, 8, 16
        q, k, v, rel, bias = attention_inputs(rng, b, h, t, d, clip, np.float32)
        scores_bytes = b * h * t * t * 4
        tracemalloc.start()
        try:
            out = ad.attention(q, k, v, rel, bias, 0.25, 0.1, 5, True)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # float32 probabilities plus a bool mask: 1.25 score arrays, not 4
        assert 1.25 * scores_bytes <= kept < 1.3 * scores_bytes
        assert out.requires_grad

    def test_without_a_graph_matches_the_graph(self):
        rng = np.random.default_rng(64)
        q, k, v, rel, bias = attention_inputs(rng, 2, 2, 9, 4, 3, np.float32)
        with_graph = ad.attention(q, k, v, rel, bias, 0.5, 0.2, 6, True).data
        plain = [Tensor(t.data) for t in (q, k, v, rel)]
        without = ad.attention(*plain, bias, 0.5, 0.2, 6, True).data
        assert np.array_equal(with_graph, without)

    def test_eval_mode_and_bad_rate(self):
        rng = np.random.default_rng(65)
        q, k, v, rel, bias = attention_inputs(rng, 1, 2, 6, 4, 2, np.float64)
        for p in (0.0, 0.5):  # no mask outside training
            got = ad.attention(q, k, v, rel, bias, 0.5, p, 1, False).data
            want = unfused_attention(q, k, v, rel, bias, 0.5, 0.0, 1, False).data
            assert np.array_equal(got, want)
        with pytest.raises(ValueError, match="dropout rate"):
            ad.attention(q, k, v, rel, bias, 0.5, 1.0, 1, True)
        with pytest.raises(ValueError, match="rel_table"):
            ad.attention(q, k, v, tensor(np.zeros((4, 4))), bias, 0.5, 0.0, 1, True)


class TestOwnedGradients:
    def test_no_grad_shares_memory_with_another_or_an_activation(self):
        rng = np.random.default_rng(66)
        a, b, w = params(rng, (3, 4), (3, 4), (4, 4))
        row = tensor(rng.standard_normal(4), requires_grad=True)
        # pass-through rules (add, add_const, reshape, transpose, concat) and
        # an add whose broadcast operand is summed
        x = ad.add(ad.add(a, b), row)
        y = ad.transpose(ad.reshape(ad.add_const(x, 1.0), (4, 3)), (1, 0))
        z = ad.concat([y, ad.matmul(a, w)], axis=0)
        loss = loss_of(ad.gelu(ad.add(z, z)))
        activations = [t.data for t in (x, y, z, loss)]
        backward(loss)
        leaves = [a, b, w, row]
        arrays = [t.grad for t in leaves] + [t.data for t in leaves] + activations
        for i, grad in enumerate(t.grad for t in leaves):
            for j, other in enumerate(arrays):
                if j != i:
                    assert not np.shares_memory(grad, other), (i, j)


class TestBackwardContract:
    def test_non_scalar_loss_rejected(self):
        x = tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            backward(mul(x, x))

    def test_second_backward_rejected(self):
        x = tensor(np.ones(3), requires_grad=True)
        loss = mean(mul(x, x))
        backward(loss)
        with pytest.raises(RuntimeError, match="already ran"):
            backward(loss)

    def test_constant_loss_rejected(self):
        with pytest.raises(ValueError, match="does not depend"):
            backward(mean(tensor(np.ones(3))))

    def test_gradcheck_catches_a_wrong_backward_rule(self):
        x = tensor(np.linspace(0.5, 2.0, 6), requires_grad=True)

        def broken_square():
            out = Tensor(
                x.data**2,
                requires_grad=True,
                _parents=(x,),
                _backward=lambda g: ad._accumulate(x, g * 3.0 * x.data),  # wrong
            )
            return mean(out)

        assert gradcheck(broken_square, [x], sample=6) > 0.1

    def test_min_grad_skips_unresolvable_coordinates(self):
        x = tensor(np.ones(4), requires_grad=True)
        w = tensor(np.array([1.0, 0.5, 2.0, 1e-12]))
        f = lambda: mean(mul(x, w))
        # the 2.5e-13-gradient coordinate moves the loss by less than one ulp,
        # so its central difference is exactly zero and reads as disagreement
        assert gradcheck(f, [x], sample=4) > 1e-6
        assert gradcheck(f, [x], sample=4, min_grad=1e-6) <= 1e-8
        with pytest.raises(ValueError, match="magnitude"):
            gradcheck(f, [x], sample=4, min_grad=10.0)

    def test_zero_gradient_function_checks_clean(self):
        x = tensor(np.ones(3), requires_grad=True)
        zero = tensor(np.zeros(3))
        assert gradcheck(lambda: mean(mul(x, zero)), [x], sample=3) == 0.0

    def test_grad_shapes_match_parameters(self):
        rng = np.random.default_rng(15)
        x, w = params(rng, (3, 4), (4, 2))
        backward(loss_of(ad.matmul(x, w)))
        assert x.grad.shape == x.data.shape and w.grad.shape == w.data.shape

    def test_precision_follows_the_inputs(self):
        assert ad.tensor(np.ones(2)).data.dtype == np.float32
        assert Tensor(np.arange(2)).data.dtype == np.float32
        for dtype in (np.float32, np.float64):
            x = Tensor(np.linspace(-1.0, 1.0, 6, dtype=dtype).reshape(2, 3), requires_grad=True)
            w = Tensor(np.ones((3, 2), dtype), requires_grad=True)
            loss = mean(ad.gelu(ad.matmul(x, w)))
            assert loss.data.dtype == dtype
            backward(loss)
            assert x.grad.dtype == w.grad.dtype == dtype
