"""A float64 numpy forward of the encoder, written from the model's
description and independent of `midibert.autodiff`: embeddings (one table
for REMI, four field tables and a projection for CP), post-layer-norm blocks
whose attention adds learned relative key-query scores clipped at
+-rel_clip, a tanh-GELU feed-forward, then the note, sequence or masked-LM
head."""

from __future__ import annotations

import numpy as np

CP_FIELDS = ("bar", "sub_beat", "pitch", "duration")
NEG = -1e9  # additive score for padded keys


def _layer_norm(x, gain, bias, eps=1e-12):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gain + bias


def _gelu(x):
    return 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x * x * x)))


def _softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def forward(config: dict, p: dict[str, np.ndarray], ids: np.ndarray):
    """Logits for a batch of id grids: (B, T, C) for a note head, (B, C) for
    a sequence head, (B, T, V) or a list of four for a masked-LM head."""
    if config["position_mode"] != "relative":
        raise ValueError("the reference covers relative positions only")
    if config["representation"] == "remi":
        x = p["embed.tok"][ids]
        real = ids != 0
    else:
        x = np.concatenate([p[f"embed.{f}"][ids[..., k]] for k, f in enumerate(CP_FIELDS)], -1)
        x = x @ p["embed.proj.w"] + p["embed.proj.b"]
        real = (ids != 0).any(axis=-1)
    batch, length, hidden = x.shape
    heads = config["heads"]
    dim = hidden // heads
    clip = config["rel_clip"]
    steps = np.arange(length)
    offset = np.clip(steps[None, :] - steps[:, None], -clip, clip) + clip  # (T, T)
    key_bias = np.where(real, 0.0, NEG)[:, None, None, :]

    def split(t):
        return t.reshape(batch, length, heads, dim).transpose(0, 2, 1, 3)

    for i in range(config["layers"]):
        w = {k[len(f"layers.{i}."):]: v for k, v in p.items() if k.startswith(f"layers.{i}.")}
        q = split(x @ w["attn.wq"] + w["attn.bq"])
        k = split(x @ w["attn.wk"] + w["attn.bk"])
        v = split(x @ w["attn.wv"] + w["attn.bv"])
        by_offset = q @ w["attn.rel"].T  # (B, H, T, 2c+1): q_i . r_o for every offset
        relative = np.take_along_axis(by_offset, np.broadcast_to(offset, by_offset.shape[:2] + offset.shape), -1)
        scores = (q @ k.transpose(0, 1, 3, 2) + relative) / np.sqrt(dim) + key_bias
        context = (_softmax(scores) @ v).transpose(0, 2, 1, 3).reshape(batch, length, hidden)
        x = _layer_norm(x + context @ w["attn.wo"] + w["attn.bo"], w["ln1.g"], w["ln1.b"])
        inner = _gelu(x @ w["ff.w1"] + w["ff.b1"])
        x = _layer_norm(x + inner @ w["ff.w2"] + w["ff.b2"], w["ln2.g"], w["ln2.b"])

    if config["head"] == "note":
        z = np.maximum(x @ p["head.note.w1"] + p["head.note.b1"], 0.0)
        return z @ p["head.note.w2"] + p["head.note.b2"]
    if config["head"] == "seq":
        raw = (x @ p["head.seq.score"])[..., 0] + np.where(real, 0.0, NEG)
        pooled = np.einsum("bt,bth->bh", _softmax(raw), x)
        z = np.maximum(pooled @ p["head.seq.w1"] + p["head.seq.b1"], 0.0)
        return z @ p["head.seq.w2"] + p["head.seq.b2"]
    if config["representation"] == "remi":
        return x @ p["head.mlm.w"] + p["head.mlm.b"]
    return [x @ p[f"head.mlm.{f}.w"] + p[f"head.mlm.{f}.b"] for f in CP_FIELDS]
