"""Reverse-mode automatic differentiation over numpy arrays.

Minimal machinery for a transformer encoder: each op returns a Tensor that
remembers its parents and a backward rule; `backward` walks the recorded
graph once in reverse topological order, accumulates gradients into
`.grad`, and then tears the graph down (so a second backward without a new
forward is an error, and activations are freed as soon as possible).

Precision follows the inputs: `tensor` and non-float data make float32,
and every op computes in the dtype of its operands, so a model whose
parameters are widened to float64 runs in double precision (as
finite-difference verification needs).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_spent")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _parents: tuple["Tensor", ...] = (),
        _backward: Callable[[np.ndarray], None] | None = None,
    ):
        array = np.asarray(data)
        if not np.issubdtype(array.dtype, np.floating):
            array = array.astype(np.float32)
        self.data = array
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents = _parents
        self._backward = _backward
        self._spent = False

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, grad={self.requires_grad})"


def tensor(data, requires_grad: bool = False) -> Tensor:
    return Tensor(np.asarray(data, dtype=np.float32), requires_grad=requires_grad)


def _result(data: np.ndarray, parents: Sequence[Tensor], backward) -> Tensor:
    requires = any(p.requires_grad for p in parents)
    return Tensor(
        data,
        requires_grad=requires,
        _parents=tuple(p for p in parents if p.requires_grad) if requires else (),
        _backward=backward if requires else None,
    )


def _accumulate(t: Tensor, g: np.ndarray, owned: bool = False) -> None:
    """Add g into t.grad. A first gradient is copied, since g may be the
    child's gradient or a view of it, unless the rule made g itself and
    hands it over (`owned`)."""
    if t.grad is None:
        if owned:
            t.grad = g
        else:
            t.grad = g.copy() if isinstance(g, np.ndarray) else np.asarray(g)
    else:
        t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient back down to the shape it was broadcast from."""
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    squeeze = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if squeeze:
        g = g.sum(axis=squeeze, keepdims=True)
    return g


def backward(loss: Tensor) -> None:
    """Populate .grad for every requires_grad tensor reachable from loss."""
    if loss.data.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    if loss._spent:
        raise RuntimeError("backward already ran for this graph; run a new forward")
    if not loss.requires_grad:
        raise ValueError("loss does not depend on any requires_grad tensor")

    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:  # iterative DFS; graphs are deep enough to bother
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            stack.append((parent, False))

    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
        node._spent = True
        if node._backward is not None:
            node._backward = None
            node._parents = ()
            if node is not loss:
                node.grad = None  # free activation gradients eagerly


# --- arithmetic -------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data + b.data

    def rule(g):
        for t in (a, b):
            if t.requires_grad:
                part = _unbroadcast(g, t.data.shape)
                _accumulate(t, part, owned=part is not g)  # a sum is a fresh array

    return _result(out_data, (a, b), rule)


def add_const(a: Tensor, c) -> Tensor:
    def rule(g):
        _accumulate(a, g)

    return _result(a.data + c, (a,), rule)


def scale(a: Tensor, s: float) -> Tensor:
    def rule(g):
        _accumulate(a, g * s, owned=True)

    return _result(a.data * s, (a,), rule)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    out_data = np.matmul(a.data, b.data)

    def rule(g):
        if a.requires_grad:
            ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
            _accumulate(a, _unbroadcast(ga, a.data.shape), owned=True)
        if b.requires_grad:
            gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
            _accumulate(b, _unbroadcast(gb, b.data.shape), owned=True)

    return _result(out_data, (a, b), rule)


def reshape(a: Tensor, shape) -> Tensor:
    old = a.data.shape

    def rule(g):
        _accumulate(a, g.reshape(old))

    return _result(a.data.reshape(shape), (a,), rule)


def transpose(a: Tensor, axes) -> Tensor:
    inverse = np.argsort(axes)

    def rule(g):
        _accumulate(a, g.transpose(inverse))

    return _result(a.data.transpose(axes), (a,), rule)


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def rule(g):
        for t, start, stop in zip(tensors, offsets, offsets[1:]):
            if t.requires_grad:
                index = [slice(None)] * g.ndim
                index[axis] = slice(start, stop)
                _accumulate(t, g[tuple(index)])

    return _result(np.concatenate([t.data for t in tensors], axis=axis), tensors, rule)


# --- nonlinearities ----------------------------------------------------------

def relu(a: Tensor) -> Tensor:
    keep = a.data > 0

    def rule(g):
        _accumulate(a, g * keep, owned=True)

    return _result(a.data * keep, (a,), rule)


_GELU_C = float(np.sqrt(2.0 / np.pi))  # builtin float: numpy 2 scalars upcast float32


def gelu(a: Tensor) -> Tensor:
    # tanh form: 0.5 x (1 + tanh(c (x + 0.044715 x^3))); the inner term and
    # its tanh share one buffer, in the rounding order of that expression
    # (x**3 goes through pow(), far slower)
    x = a.data
    t = x * x
    t *= x
    t *= 0.044715
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    out = x * 0.5
    out *= t + 1.0

    def rule(g):
        # 0.5 (1 + t) + 0.5 x (1 - t^2) c (1 + 3 * 0.044715 x^2), in that order
        local = x * 0.5
        part = t * t
        np.subtract(1.0, part, out=part)
        local *= part
        local *= _GELU_C
        np.multiply(x, 3 * 0.044715, out=part)
        part *= x
        part += 1.0
        local *= part
        np.add(t, 1.0, out=part)
        part *= 0.5
        local += part
        local *= g
        _accumulate(a, local, owned=True)

    return _result(out, (a,), rule)


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis, max-subtracted for stability."""
    # one (..., T) array, exponentiated and normalised in place
    y = a.data - a.data.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)

    def rule(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        _accumulate(a, y * (g - dot), owned=True)

    return _result(y, (a,), rule)


def layer_norm(a: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-12) -> Tensor:
    """Normalize the last axis, then scale and shift."""
    x = a.data
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv

    def rule(g):
        if gamma.requires_grad:
            _accumulate(gamma, (g * xhat).reshape(-1, x.shape[-1]).sum(axis=0), owned=True)
        if beta.requires_grad:
            _accumulate(beta, g.reshape(-1, x.shape[-1]).sum(axis=0), owned=True)
        if a.requires_grad:
            gx = g * gamma.data
            m1 = gx.mean(axis=-1, keepdims=True)
            m2 = (gx * xhat).mean(axis=-1, keepdims=True)
            _accumulate(a, inv * (gx - m1 - xhat * m2), owned=True)

    return _result(gamma.data * xhat + beta.data, (a, gamma, beta), rule)


_DROPOUT_SLICE = 1 << 17  # uniforms drawn per slice of a dropout mask


def dropout(a: Tensor, p: float, seed: int, training: bool) -> Tensor:
    """Inverted dropout; a fixed seed gives a fixed mask."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1): {p}")
    if not training or p == 0.0:
        return a
    rng = np.random.default_rng([seed])
    keep = np.empty(a.data.shape, a.data.dtype)
    flat = keep.reshape(-1)
    # drawn a slice at a time: the same stream as one rng.random(shape),
    # without a float64 array of the full shape on every call
    for start in range(0, flat.size, _DROPOUT_SLICE):
        part = flat[start : start + _DROPOUT_SLICE]
        np.greater_equal(rng.random(part.size), p, out=part)
    keep /= 1.0 - p

    def rule(g):
        _accumulate(a, g * keep, owned=True)

    return _result(a.data * keep, (a,), rule)


# --- lookups -----------------------------------------------------------------

def embed(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row gather; gradients sum back into the table rows as a one-hot
    (rows, N) matrix times the (N, D) output gradient."""
    ids = np.asarray(ids)

    def rule(g):
        flat = ids.reshape(-1)
        one_hot = np.zeros((table.data.shape[0], flat.size), table.data.dtype)
        one_hot[flat, np.arange(flat.size)] = 1.0
        _accumulate(
            table, np.matmul(one_hot, g.reshape(flat.size, table.data.shape[-1])), owned=True
        )

    return _result(table.data[ids], (table,), rule)


# --- losses -------------------------------------------------------------------

def cross_entropy(logits: Tensor, targets: np.ndarray, weights: np.ndarray) -> Tensor:
    """Weighted-mean cross entropy: sum(w_i * ce_i) / sum(w_i).

    Rows with zero weight are ignored entirely (their target may be any
    value, including an ignore marker)."""
    if logits.data.ndim != 2:
        raise ValueError(f"logits must be (N, C), got {logits.data.shape}")
    weights = np.asarray(weights, dtype=logits.data.dtype)
    total = weights.sum()
    if not total > 0:
        raise ValueError("cross_entropy needs at least one positive weight")
    targets = np.asarray(targets)
    safe = np.where(weights > 0, targets, 0).astype(np.int64)

    x = logits.data
    m = x.max(axis=-1, keepdims=True)
    z = x - m
    log_z = np.log(np.exp(z).sum(axis=-1, keepdims=True))
    log_probs = z - log_z
    rows = np.arange(x.shape[0])
    ce = -log_probs[rows, safe]
    value = (weights * ce).sum() / total

    def rule(g):
        probs = np.exp(log_probs)
        probs[rows, safe] -= 1.0
        _accumulate(logits, probs * (float(g) * weights / total)[:, None], owned=True)

    return _result(np.asarray(value), (logits,), rule)


# --- attention -------------------------------------------------------------------

def _skew(band: np.ndarray, steps: int, offset: int) -> np.ndarray:
    """(..., T, T) view of a C-contiguous (..., T, L) band with
    view[..., i, j] = band[..., i, j - i + offset]; writes go through."""
    strides = band.strides[:-2] + (band.strides[-2] - band.strides[-1], band.strides[-1])
    return np.lib.stride_tricks.as_strided(
        band.reshape(-1)[offset:], shape=band.shape[:-1] + (steps,), strides=strides
    )


def _table_width(rel_table: Tensor, head_dim: int) -> int:
    width = rel_table.data.shape[0]
    if width % 2 == 0 or rel_table.data.shape != (width, head_dim):
        raise ValueError(f"rel_table must be (2c+1, {head_dim}), got {rel_table.data.shape}")
    return width


class _Band:
    """The relative term of one (T, T) head, q·r_{j-i} = QR[i, clip(j - i,
    -c, c) + c], read through a skewed view of the head's (T, 2c+1) product
    QR = q·rel_tableᵀ. The rows are padded to the distances a row can see,
    max(2T-1, 2c+1), by repeating their first and last columns, in one
    buffer reused head by head; when T-1 <= c the pad is empty."""

    def __init__(self, steps: int, width: int, dtype):
        clip = (width - 1) // 2
        self.steps = steps
        self.width = width
        self.pad = max(steps - 1 - clip, 0)  # columns each tail repeats
        self.offset = clip + self.pad  # band column of distance 0
        # zeroed: `grad` writes the same cells for every head, the rest stay 0
        self.buffer = np.zeros((steps, width + 2 * self.pad), dtype)
        self.ones = np.ones(self.pad, dtype)

    def add(self, scores: np.ndarray, qr_head: np.ndarray) -> None:
        """scores (T, T) += the relative term of qr_head (T, 2c+1)."""
        band, pad, width = self.buffer, self.pad, self.width
        band[:, :pad] = qr_head[:, :1]
        band[:, pad : pad + width] = qr_head
        band[:, pad + width :] = qr_head[:, -1:]
        scores += _skew(band, self.steps, self.offset)

    def grad(self, g_head: np.ndarray, gqr_head: np.ndarray) -> None:
        """Write the gradient of QR (T, 2c+1) for the score gradient g_head
        (T, T): through the skewed view, with the padded tails folded back
        into columns 0 and 2c."""
        band, pad, width = self.buffer, self.pad, self.width
        _skew(band, self.steps, self.offset)[...] = g_head
        gqr_head[...] = band[:, pad : pad + width]
        # row sums as matrix-vector products: BLAS beats .sum here
        gqr_head[:, 0] += np.matmul(band[:, :pad], self.ones)
        gqr_head[:, -1] += np.matmul(band[:, pad + width :], self.ones)


def attention_scores(
    q: Tensor,
    k: Tensor,
    rel_table: Tensor,
    key_bias: np.ndarray,
    scaling: float,
) -> Tensor:
    """(q·k + q·r_{j-i}) * scaling + key_bias, in one op.

    q, k are (B, H, T, D); rel_table is (2c+1, D), one row per clipped
    distance clip(j - i, -c, c); key_bias broadcasts over (B, H, T, T) and
    takes no gradient.

    The relative term is never gathered into a (T, T, D) tensor. Following
    the skewing trick of Music Transformer (Huang et al. 2018,
    arXiv:1809.04281), QR = q·rel_tableᵀ is computed once as
    (B, H, T, 2c+1) and added head by head through a strided view of a
    padded band (`_Band`). Backward writes the gradient through the same
    view into a zeroed band, folds the padded tails back into columns 0 and
    2c, and gets the table gradient as one matmul gQRᵀ·q. The band is one
    (T, 2T-1) buffer, so the op allocates nothing larger than its
    (B, H, T, T) scores. There is no scatter: the table's share of the
    matmuls is O(B·H·T·(2c+1)·D), and the band is elementwise work of the
    same order as the content scores.
    """
    d_ = q.data.shape[-1]
    t_ = q.data.shape[-2]
    width = _table_width(rel_table, d_)
    scaling = float(scaling)  # a numpy float64 scalar would upcast float32 arrays

    qr = np.matmul(q.data, rel_table.data.T)  # (B, H, T, 2c+1)
    out_data = np.matmul(q.data, np.swapaxes(k.data, -1, -2))
    band = _Band(t_, width, qr.dtype)
    for scores, qr_head in zip(out_data.reshape(-1, t_, t_), qr.reshape(-1, t_, width)):
        band.add(scores, qr_head)
    out_data *= scaling
    out_data += key_bias

    def rule(g):
        # scaling multiplies the (..., T, D) and (2c+1, D) results, not g
        if q.requires_grad or rel_table.requires_grad:
            gqr = np.zeros(g.shape[:-1] + (width,), g.dtype)
            gband = _Band(t_, width, g.dtype)
            for g_head, gqr_head in zip(g.reshape(-1, t_, t_), gqr.reshape(-1, t_, width)):
                gband.grad(g_head, gqr_head)
        if q.requires_grad:
            gq = (np.matmul(g, k.data) + np.matmul(gqr, rel_table.data)) * scaling
            _accumulate(q, gq, owned=True)
        if k.requires_grad:
            _accumulate(k, np.matmul(np.swapaxes(g, -1, -2), q.data) * scaling, owned=True)
        if rel_table.requires_grad:
            g_rel = np.matmul(gqr.reshape(-1, width).T, q.data.reshape(-1, d_))
            _accumulate(rel_table, g_rel * scaling, owned=True)

    return _result(out_data, (q, k, rel_table), rule)


def attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    rel_table: Tensor,
    key_bias: np.ndarray,
    scaling: float,
    p: float,
    seed: int,
    training: bool,
) -> Tensor:
    """Relative self-attention in one op: the (B, H, T, D) result of
    matmul(dropout(softmax(attention_scores(q, k, rel_table, ...)), p, seed,
    training), v), bit-identical to that chain.

    q, k, v are (B, H, T, D) of one dtype; rel_table, key_bias and scaling
    are as in attention_scores; p, seed and training are as in dropout,
    with the same mask: bools drawn from default_rng([seed]) in C order
    over (B, H, T, T).

    The op runs one (b, h) at a time through one (T, T) buffer: content
    scores plus the relative band, scaling, key bias, an in-place softmax,
    the mask, then the value mix, each in the chain's arithmetic order.
    When no input needs a gradient it keeps nothing and makes no
    (B, H, T, T) array. Otherwise it keeps only the probabilities and the
    bool mask, and backward recomputes the dropped probabilities head by
    head, following FlashAttention (Dao et al. 2022, arXiv:2205.14135) and
    gradient checkpointing (Chen et al. 2016, arXiv:1604.06174), untiled.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1): {p}")
    batch, heads, t_, d_ = q.data.shape
    width = _table_width(rel_table, d_)
    scaling = float(scaling)  # a numpy float64 scalar would upcast float32 arrays
    dtype = q.data.dtype
    graph = any(t.requires_grad for t in (q, k, v, rel_table))
    drop = training and p > 0.0

    qr = np.matmul(q.data, rel_table.data.T)  # (B, H, T, 2c+1)
    bias = np.broadcast_to(key_bias, (batch, heads, t_, t_))
    band = _Band(t_, width, qr.dtype)
    out = np.empty((batch, heads, t_, d_), dtype)
    probs = np.empty((batch, heads, t_, t_), dtype) if graph else None
    keep = np.empty((batch, heads, t_, t_), bool) if graph and drop else None
    scratch = np.empty((t_, t_), dtype)
    if drop:
        rng = np.random.default_rng([seed])
        uniforms = np.empty((t_, t_))
        mask = np.empty((t_, t_), bool)
        scale = np.ones((), dtype) / (1.0 - p)  # rounds as dropout's `keep /= 1.0 - p`
    for b, h in np.ndindex(batch, heads):
        y = probs[b, h] if graph else scratch
        np.matmul(q.data[b, h], k.data[b, h].T, out=y)
        band.add(y, qr[b, h])
        y *= scaling
        y += bias[b, h]
        y -= y.max(axis=-1, keepdims=True)
        np.exp(y, out=y)
        y /= y.sum(axis=-1, keepdims=True)
        if drop:
            m = keep[b, h] if graph else mask
            np.greater_equal(rng.random(out=uniforms), p, out=m)
            y = np.multiply(y, m, out=scratch)  # in place without a graph
            y *= scale
        np.matmul(y, v.data[b, h], out=out[b, h])

    def rule(g):
        gq = np.empty(q.data.shape, dtype) if q.requires_grad else None
        gk = np.empty(k.data.shape, dtype) if k.requires_grad else None
        gv = np.empty(v.data.shape, dtype) if v.requires_grad else None
        need_qr = q.requires_grad or rel_table.requires_grad
        gqr = np.zeros((batch, heads, t_, width), dtype) if need_qr else None
        gband = _Band(t_, width, dtype)
        dropped = np.empty((t_, t_), dtype)
        for b, h in np.ndindex(batch, heads):
            y = probs[b, h]
            if gv is not None:
                mixed = y
                if drop:
                    mixed = np.multiply(y, keep[b, h], out=dropped)
                    mixed *= scale
                np.matmul(mixed.T, g[b, h], out=gv[b, h])
            gs = np.matmul(g[b, h], v.data[b, h].T)
            if drop:
                gs *= keep[b, h]
                gs *= scale
            # softmax backward, y * (g - sum(g * y))
            gs -= (gs * y).sum(axis=-1, keepdims=True)
            gs *= y
            if need_qr:
                gband.grad(gs, gqr[b, h])
            if gk is not None:
                np.matmul(gs.T, q.data[b, h], out=gk[b, h])
                gk[b, h] *= scaling
            if gq is not None:
                np.matmul(gs, k.data[b, h], out=gq[b, h])
                gq[b, h] += np.matmul(gqr[b, h], rel_table.data)
                gq[b, h] *= scaling
        for t, grad in ((q, gq), (k, gk), (v, gv)):
            if grad is not None:
                _accumulate(t, grad, owned=True)
        if rel_table.requires_grad:
            # one matmul over all heads: summing head by head rounds differently
            g_rel = np.matmul(gqr.reshape(-1, width).T, q.data.reshape(-1, d_))
            g_rel *= scaling
            _accumulate(rel_table, g_rel, owned=True)

    return _result(out, (q, k, v, rel_table), rule)

