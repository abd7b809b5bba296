"""Reverse-mode automatic differentiation over numpy arrays.

Minimal machinery for a transformer encoder: each op returns a Tensor that
remembers its parents and a backward rule; `backward` walks the recorded
graph once in reverse topological order, accumulates gradients into
`.grad`, and then tears the graph down (so a second backward without a new
forward is an error, and activations are freed as soon as possible).

Precision follows the inputs: `tensor` and non-float data make float32,
and every op computes in the dtype of its operands, so a model whose
parameters are widened to float64 runs in double precision (as
finite-difference verification needs). `gradcheck` compares analytic
gradients against central differences on a random subset of coordinates.
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

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data)


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


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if t.grad is None:
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
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.data.shape))

    return _result(out_data, (a, b), rule)


def add_const(a: Tensor, c) -> Tensor:
    def rule(g):
        _accumulate(a, g)

    return _result(a.data + c, (a,), rule)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data * b.data

    def rule(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _result(out_data, (a, b), rule)


def scale(a: Tensor, s: float) -> Tensor:
    def rule(g):
        _accumulate(a, g * s)

    return _result(a.data * s, (a,), rule)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    out_data = np.matmul(a.data, b.data)

    def rule(g):
        if a.requires_grad:
            ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
            _accumulate(a, _unbroadcast(ga, a.data.shape))
        if b.requires_grad:
            gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
            _accumulate(b, _unbroadcast(gb, b.data.shape))

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


def mean(a: Tensor) -> Tensor:
    n = a.data.size

    def rule(g):
        _accumulate(a, np.full_like(a.data, float(g) / n))

    return _result(np.mean(a.data), (a,), rule)


# --- nonlinearities ----------------------------------------------------------

def relu(a: Tensor) -> Tensor:
    keep = a.data > 0

    def rule(g):
        _accumulate(a, g * keep)

    return _result(a.data * keep, (a,), rule)


_GELU_C = float(np.sqrt(2.0 / np.pi))  # builtin float: numpy 2 scalars upcast float32


def gelu(a: Tensor) -> Tensor:
    # tanh form: 0.5 x (1 + tanh(c (x + 0.044715 x^3)))
    x = a.data
    inner = _GELU_C * (x + 0.044715 * (x * x * x))  # x**3 goes through pow(), far slower
    t = np.tanh(inner)

    def rule(g):
        sech2 = 1.0 - t * t
        local = 0.5 * (1.0 + t) + 0.5 * x * sech2 * _GELU_C * (1.0 + 3 * 0.044715 * x * x)
        _accumulate(a, g * local)

    return _result(0.5 * x * (1.0 + t), (a,), rule)


def tanh(a: Tensor) -> Tensor:
    t = np.tanh(a.data)

    def rule(g):
        _accumulate(a, g * (1.0 - t * t))

    return _result(t, (a,), rule)


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis, max-subtracted for stability."""
    # one (..., T) array, exponentiated and normalised in place
    y = a.data - a.data.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)

    def rule(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        _accumulate(a, y * (g - dot))

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
            _accumulate(gamma, (g * xhat).reshape(-1, x.shape[-1]).sum(axis=0))
        if beta.requires_grad:
            _accumulate(beta, g.reshape(-1, x.shape[-1]).sum(axis=0))
        if a.requires_grad:
            gx = g * gamma.data
            m1 = gx.mean(axis=-1, keepdims=True)
            m2 = (gx * xhat).mean(axis=-1, keepdims=True)
            _accumulate(a, inv * (gx - m1 - xhat * m2))

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
        _accumulate(a, g * keep)

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
        _accumulate(table, np.matmul(one_hot, g.reshape(flat.size, table.data.shape[-1])))

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
        _accumulate(logits, probs * (float(g) * weights / total)[:, None])

    return _result(np.asarray(value), (logits,), rule)


# --- attention helper ----------------------------------------------------------

def _skew(band: np.ndarray, steps: int, offset: int) -> np.ndarray:
    """(..., T, T) view of a C-contiguous (..., T, L) band with
    view[..., i, j] = band[..., i, j - i + offset]; writes go through."""
    strides = band.strides[:-2] + (band.strides[-2] - band.strides[-1], band.strides[-1])
    return np.lib.stride_tricks.as_strided(
        band.reshape(-1)[offset:], shape=band.shape[:-1] + (steps,), strides=strides
    )


def attention_scores(
    q: Tensor,
    k: Tensor,
    rel_table: Tensor,
    rel_index: np.ndarray,
    key_bias: np.ndarray,
    scaling: float,
) -> Tensor:
    """(q·k + q·r_{j-i}) * scaling + key_bias, in one op.

    q, k are (B, H, T, D); rel_table is (2c+1, D), one row per clipped
    distance clip(j - i, -c, c); rel_index (T, T) must be exactly those
    distances plus c (anything else is a ValueError); key_bias broadcasts
    over (B, H, T, T) and takes no gradient.

    The relative term is never gathered into a (T, T, D) tensor. Following
    the skewing trick of Music Transformer (Huang et al. 2018,
    arXiv:1809.04281), QR = q·rel_tableᵀ is computed once as
    (B, H, T, 2c+1), and each row is padded by repeating its first and last
    columns to the 2T-1 distances a row can see (no padding when T-1 <= c),
    so that q·r_{j-i} = band[i, j - i + T-1] is a strided view added in
    place into the content scores. Backward writes the gradient through the
    same view into a zeroed band, folds the padded tails back into columns
    0 and 2c, and gets the table gradient as one matmul gQRᵀ·q. The padded
    band is one (T, 2T-1) buffer filled head by head, so the op allocates
    nothing larger than its (B, H, T, T) scores. There is no
    scatter: the table's share of the matmuls is O(B·H·T·(2c+1)·D), and the
    band is elementwise work of the same order as the content scores.
    """
    d_ = q.data.shape[-1]
    t_ = q.data.shape[-2]
    width = rel_table.data.shape[0]
    clip = (width - 1) // 2
    if rel_table.data.shape != (2 * clip + 1, d_):
        raise ValueError(f"rel_table must be (2c+1, {d_}), got {rel_table.data.shape}")
    distances = np.clip(np.arange(1 - t_, t_), -clip, clip) + clip
    expected = np.lib.stride_tricks.sliding_window_view(distances, t_)[::-1]  # (T, T) view
    if not np.array_equal(rel_index, expected):
        raise ValueError(f"rel_index must be clip(j - i, -{clip}, {clip}) + {clip} over {t_} steps")
    scaling = float(scaling)  # a numpy float64 scalar would upcast float32 arrays
    pad = max(t_ - 1 - clip, 0)  # columns each tail repeats
    offset = clip + pad  # band column of distance 0

    qr = np.matmul(q.data, rel_table.data.T)  # (B, H, T, 2c+1)
    out_data = np.matmul(q.data, np.swapaxes(k.data, -1, -2))
    if pad:
        # one (T, 2T-1) band reused head by head: a full (B, H, T, 2T-1) band
        # would be twice the scores, in fresh pages on every call
        band = np.empty((t_, width + 2 * pad), qr.dtype)
        for scores, qr_head in zip(out_data.reshape(-1, t_, t_), qr.reshape(-1, t_, width)):
            band[:, :pad] = qr_head[:, :1]
            band[:, pad : pad + width] = qr_head
            band[:, pad + width :] = qr_head[:, -1:]
            scores += _skew(band, t_, offset)
    else:
        out_data += _skew(qr, t_, offset)
    out_data *= scaling
    out_data += key_bias

    def rule(g):
        # scaling multiplies the (..., T, D) and (2c+1, D) results, not g
        if q.requires_grad or rel_table.requires_grad:
            if pad:
                # head by head through one zeroed band: the skew writes the
                # same cells for every head, so the rest stays zero
                gband = np.zeros((t_, width + 2 * pad), g.dtype)
                gqr = np.empty(g.shape[:-1] + (width,), g.dtype)
                ones = np.ones(pad, g.dtype)
                for g_head, gqr_head in zip(g.reshape(-1, t_, t_), gqr.reshape(-1, t_, width)):
                    _skew(gband, t_, offset)[...] = g_head
                    gqr_head[...] = gband[:, pad : pad + width]
                    # row sums as matrix-vector products: BLAS beats .sum here
                    gqr_head[:, 0] += np.matmul(gband[:, :pad], ones)
                    gqr_head[:, -1] += np.matmul(gband[:, pad + width :], ones)
            else:
                gqr = np.zeros(g.shape[:-1] + (width,), g.dtype)
                _skew(gqr, t_, offset)[...] = g
        if q.requires_grad:
            _accumulate(q, (np.matmul(g, k.data) + np.matmul(gqr, rel_table.data)) * scaling)
        if k.requires_grad:
            _accumulate(k, np.matmul(np.swapaxes(g, -1, -2), q.data) * scaling)
        if rel_table.requires_grad:
            g_rel = np.matmul(gqr.reshape(-1, width).T, q.data.reshape(-1, d_))
            _accumulate(rel_table, g_rel * scaling)

    return _result(out_data, (q, k, rel_table), rule)


# --- verification ----------------------------------------------------------------

def gradcheck(
    f: Callable[[], Tensor],
    params: Sequence[Tensor],
    *,
    eps: float = 1e-5,
    sample: int = 200,
    seed: int = 0,
    min_grad: float = 0.0,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    f must rebuild its graph on every call from the given parameter tensors.
    Samples at least `sample` coordinates across all parameters; the
    relative error denominator is max(|analytic|, |numeric|, 1e-8).

    min_grad restricts sampling to coordinates whose analytic gradient
    magnitude is at least that large. Large graphs have coordinates whose
    gradients nearly cancel (softmax rows are mean-zero); below roughly
    |loss|·1e-12/eps those are buried in difference-rounding noise and read
    as false disagreements, while a wrong backward rule still shows up as an
    O(1) error on the well-scaled coordinates that remain.
    """
    for p in params:
        if not p.requires_grad:
            raise ValueError("gradcheck parameters must require gradients")
        p.grad = None
    loss = f()
    backward(loss)
    analytic = [np.array(p.grad, copy=True) for p in params]

    rng = np.random.default_rng([seed])
    sizes = np.array([p.data.size for p in params])
    magnitudes = np.concatenate([np.abs(a).ravel() for a in analytic])
    eligible = np.flatnonzero(magnitudes >= min_grad)
    if eligible.size == 0:
        raise ValueError(f"no coordinate has gradient magnitude >= {min_grad}")
    draws = max(sample, 1)
    chosen = (
        eligible if draws >= eligible.size else rng.choice(eligible, size=draws, replace=False)
    )
    bounds = np.cumsum(sizes)

    worst = 0.0
    for flat_index in chosen:
        which = int(np.searchsorted(bounds, flat_index, side="right"))
        local = int(flat_index - (bounds[which] - sizes[which]))
        p = params[which]
        view = p.data.reshape(-1)
        original = view[local]
        view[local] = original + eps
        up = float(f().data)
        view[local] = original - eps
        down = float(f().data)
        view[local] = original
        numeric = (up - down) / (2 * eps)
        exact = float(analytic[which].reshape(-1)[local])
        err = abs(numeric - exact) / max(abs(numeric), abs(exact), 1e-8)
        worst = max(worst, err)
    return worst
