"""Bidirectional transformer encoder with exchangeable heads.

The encoder embeds token-id grids (single ids per step, or four-field rows
for the compound representation), runs post-layer-norm self-attention
blocks with learned relative key-query position scores, and feeds one of
three heads: masked-token reconstruction, per-step classification, or
whole-sequence classification.

Checkpoints are a small self-describing container: magic, version, a JSON
header listing the config and tensor layout, then raw little-endian
payloads in header order.
"""

from __future__ import annotations

import copy
import json
import os
import struct
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .masking import MaskedBatch
from .tokens import CHUNK_LEN, CP_FIELDS, MASK, PAD, CpVocab, vocab

CHECKPOINT_MAGIC = b"MBPT"
CHECKPOINT_VERSION = 1

HEAD_KINDS = ("mlm", "note", "seq")
# the one position scheme; the field stays in ModelConfig because every
# checkpoint header spells the config out
POSITION_MODES = ("relative",)
FREEZE_MODES = (None, "backbone", "attention")


class CheckpointError(ValueError):
    pass


@dataclass(frozen=True)
class ModelConfig:
    representation: str = "remi"
    hidden: int = 128
    layers: int = 2
    heads: int = 4
    ff: int = 512
    max_len: int = CHUNK_LEN
    rel_clip: int = 64
    dropout: float = 0.1
    position_mode: str = "relative"
    head: str = "mlm"
    num_classes: int = 0
    init_seed: int = 0

    def __post_init__(self):
        if self.representation not in ("remi", "cp"):
            raise ValueError(f"unknown representation: {self.representation!r}")
        if self.head not in HEAD_KINDS:
            raise ValueError(f"unknown head: {self.head!r}")
        if self.position_mode not in POSITION_MODES:
            raise ValueError(f"unknown position_mode: {self.position_mode!r}")
        if min(self.hidden, self.layers, self.heads, self.ff, self.max_len) < 1:
            raise ValueError("model dimensions must be positive")
        if self.hidden % self.heads:
            raise ValueError(f"hidden {self.hidden} not divisible by {self.heads} heads")
        if self.rel_clip < 1:
            raise ValueError("rel_clip must be at least 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1): {self.dropout}")
        if self.head in ("note", "seq") and self.num_classes < 2:
            raise ValueError(f"{self.head} head needs num_classes >= 2")


def desk_config(representation: str = "remi", **overrides) -> ModelConfig:
    base = dict(representation=representation, hidden=128, layers=2, heads=4, ff=512)
    base.update(overrides)
    return ModelConfig(**base)


def paper_config(representation: str = "remi", **overrides) -> ModelConfig:
    base = dict(representation=representation, hidden=768, layers=12, heads=12, ff=3072)
    base.update(overrides)
    return ModelConfig(**base)


PRESETS = {"desk": desk_config, "paper": paper_config}


def cp_embed_dims(hidden: int, field_sizes) -> tuple[int, ...]:
    """Per-field embedding widths: proportional to log field size, summing
    to roughly `hidden`, rounded to multiples of 8, floor 8."""
    logs = np.log(np.asarray(field_sizes, dtype=np.float64))
    raw = logs * hidden / logs.sum()
    return tuple(max(8, int(r / 8.0 + 0.5) * 8) for r in raw)


def _trunc_normal(rng: np.random.Generator, shape, std: float = 0.02) -> np.ndarray:
    out = rng.normal(0.0, std, shape)
    bad = np.abs(out) > 2 * std
    while bad.any():
        out[bad] = rng.normal(0.0, std, int(bad.sum()))
        bad = np.abs(out) > 2 * std
    return out


def derive_seed(*parts: int) -> int:
    """A reproducible RNG seed for one draw site, e.g. (seed, dropout site)
    or (seed, epoch, batch)."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def _dense(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    return ad.add(ad.matmul(x, w), b)


def _param_layout(config: ModelConfig) -> list[tuple[str, tuple[int, ...], str]]:
    """(name, shape, init) of every parameter, in construction order; init
    is "normal", "zeros" or "ones"."""
    voc = vocab(config.representation)
    layout = []

    def par(name: str, shape, init: str = "normal") -> None:
        layout.append((name, tuple(shape), init))

    hid = config.hidden
    if config.representation == "remi":
        par("embed.tok", (len(voc), hid))
    else:
        dims = cp_embed_dims(hid, voc.field_sizes)
        for field, size, dim in zip(CP_FIELDS, voc.field_sizes, dims):
            par(f"embed.{field}", (size, dim))
        par("embed.proj.w", (sum(dims), hid))
        par("embed.proj.b", (hid,), "zeros")

    head_dim = hid // config.heads
    for i in range(config.layers):
        pre = f"layers.{i}."
        for name in ("wq", "wk", "wv", "wo"):
            par(pre + f"attn.{name}", (hid, hid))
        for name in ("bq", "bk", "bv", "bo"):
            par(pre + f"attn.{name}", (hid,), "zeros")
        par(pre + "attn.rel", (2 * config.rel_clip + 1, head_dim))
        par(pre + "ln1.g", (hid,), "ones")
        par(pre + "ln1.b", (hid,), "zeros")
        par(pre + "ff.w1", (hid, config.ff))
        par(pre + "ff.b1", (config.ff,), "zeros")
        par(pre + "ff.w2", (config.ff, hid))
        par(pre + "ff.b2", (hid,), "zeros")
        par(pre + "ln2.g", (hid,), "ones")
        par(pre + "ln2.b", (hid,), "zeros")

    if config.head == "mlm":
        if config.representation == "remi":
            par("head.mlm.w", (hid, len(voc)))
            par("head.mlm.b", (len(voc),), "zeros")
        else:
            for field, size in zip(CP_FIELDS, voc.field_sizes):
                par(f"head.mlm.{field}.w", (hid, size))
                par(f"head.mlm.{field}.b", (size,), "zeros")
    elif config.head == "note":
        par("head.note.w1", (hid, hid))
        par("head.note.b1", (hid,), "zeros")
        par("head.note.w2", (hid, config.num_classes))
        par("head.note.b2", (config.num_classes,), "zeros")
    else:
        par("head.seq.score", (hid, 1))
        par("head.seq.w1", (hid, hid))
        par("head.seq.b1", (hid,), "zeros")
        par("head.seq.w2", (hid, config.num_classes))
        par("head.seq.b2", (config.num_classes,), "zeros")
    return layout


class EncoderModel:
    def __init__(self, config: ModelConfig, params: dict[str, Tensor] | None = None):
        """A fresh model drawn from `config.init_seed`, or, when `params` is
        given, one holding those tensors as they are (no draw is made)."""
        self.config = config
        self.vocab = vocab(config.representation)
        if params is None:
            rng = np.random.default_rng([config.init_seed])
            params = {}
            for name, shape, init in _param_layout(config):
                if init == "normal":
                    data = _trunc_normal(rng, shape)
                elif init == "zeros":
                    data = np.zeros(shape)
                else:
                    data = np.ones(shape)
                params[name] = ad.tensor(data, requires_grad=True)
        self.params = params

    def detached(self) -> "EncoderModel":
        """The same model over `Tensor(t.data)` per parameter: no op on it
        records a graph, so a forward keeps no activations for backward."""
        view = copy.copy(self)
        view.params = {name: Tensor(t.data) for name, t in self.params.items()}
        return view

    def trainable(self, freeze: str | None = None) -> dict[str, Tensor]:
        if freeze not in FREEZE_MODES:
            raise ValueError(f"unknown freeze mode: {freeze!r}")
        if freeze == "backbone":
            return {n: t for n, t in self.params.items() if n.startswith("head.")}
        if freeze == "attention":
            return {n: t for n, t in self.params.items() if ".attn." not in n}
        return dict(self.params)

    def step_mask(self, ids: np.ndarray) -> np.ndarray:
        """True where the step is real content (not padding)."""
        ids = np.asarray(ids)
        if self.config.representation == "remi":
            return ids != self.vocab.pad_id
        return (ids != 0).any(axis=-1)

    def _check_ids(self, ids: np.ndarray) -> np.ndarray:
        ids = np.asarray(ids)
        want_ndim = 2 if self.config.representation == "remi" else 3
        if ids.ndim != want_ndim or (want_ndim == 3 and ids.shape[-1] != 4):
            raise ValueError(f"bad id batch shape {ids.shape} for {self.config.representation}")
        if ids.shape[1] > self.config.max_len:
            raise ValueError(f"sequence length {ids.shape[1]} exceeds max_len {self.config.max_len}")
        if not np.issubdtype(ids.dtype, np.integer):
            raise ValueError(f"ids must be integers, got {ids.dtype}")
        return ids

    def hidden_states(self, ids: np.ndarray, *, training: bool = False, seed: int = 0) -> Tensor:
        ids = self._check_ids(ids)
        cfg = self.config
        p = self.params
        batch, length = ids.shape[0], ids.shape[1]
        drop = cfg.dropout

        if cfg.representation == "remi":
            x = ad.embed(p["embed.tok"], ids)
        else:
            parts = [ad.embed(p[f"embed.{f}"], ids[..., k]) for k, f in enumerate(CP_FIELDS)]
            x = _dense(ad.concat(parts, axis=-1), p["embed.proj.w"], p["embed.proj.b"])

        mask = self.step_mask(ids)
        key_bias = np.where(mask, 0.0, -1e9).astype(x.data.dtype)[:, None, None, :]
        head_dim = cfg.hidden // cfg.heads
        scaling = 1.0 / float(np.sqrt(head_dim))

        site = 0
        x = ad.dropout(x, drop, derive_seed(seed, site), training)
        site += 1
        for i in range(cfg.layers):
            pre = f"layers.{i}."

            def heads_of(t: Tensor) -> Tensor:
                t = ad.reshape(t, (batch, length, cfg.heads, head_dim))
                return ad.transpose(t, (0, 2, 1, 3))

            q = heads_of(_dense(x, p[pre + "attn.wq"], p[pre + "attn.bq"]))
            k = heads_of(_dense(x, p[pre + "attn.wk"], p[pre + "attn.bk"]))
            v = heads_of(_dense(x, p[pre + "attn.wv"], p[pre + "attn.bv"]))
            ctx = ad.attention(
                q, k, v, p[pre + "attn.rel"], key_bias, scaling,
                drop, derive_seed(seed, site), training,
            )
            site += 1
            ctx = ad.transpose(ctx, (0, 2, 1, 3))
            ctx = ad.reshape(ctx, (batch, length, cfg.hidden))
            attn_out = _dense(ctx, p[pre + "attn.wo"], p[pre + "attn.bo"])
            attn_out = ad.dropout(attn_out, drop, derive_seed(seed, site), training)
            site += 1
            x = ad.layer_norm(ad.add(x, attn_out), p[pre + "ln1.g"], p[pre + "ln1.b"])

            inner = ad.gelu(_dense(x, p[pre + "ff.w1"], p[pre + "ff.b1"]))
            ff_out = _dense(inner, p[pre + "ff.w2"], p[pre + "ff.b2"])
            ff_out = ad.dropout(ff_out, drop, derive_seed(seed, site), training)
            site += 1
            x = ad.layer_norm(ad.add(x, ff_out), p[pre + "ln2.g"], p[pre + "ln2.b"])
        return x

    def logits(self, ids: np.ndarray, *, training: bool = False, seed: int = 0):
        """Head outputs: (B, T, V) for mlm (a 4-list for cp), (B, T, C) for
        note, (B, C) for seq."""
        cfg = self.config
        p = self.params
        h = self.hidden_states(ids, training=training, seed=seed)
        if cfg.head == "mlm":
            if cfg.representation == "remi":
                return _dense(h, p["head.mlm.w"], p["head.mlm.b"])
            return [
                _dense(h, p[f"head.mlm.{f}.w"], p[f"head.mlm.{f}.b"]) for f in CP_FIELDS
            ]
        if cfg.head == "note":
            z = ad.relu(_dense(h, p["head.note.w1"], p["head.note.b1"]))
            z = ad.dropout(z, cfg.dropout, derive_seed(seed, 10_000), training)
            return _dense(z, p["head.note.w2"], p["head.note.b2"])

        mask = self.step_mask(np.asarray(ids))
        batch, length = mask.shape
        raw = ad.reshape(ad.matmul(h, p["head.seq.score"]), (batch, length))
        raw = ad.add_const(raw, np.where(mask, 0.0, -1e9).astype(h.data.dtype))
        weights = ad.reshape(ad.softmax(raw), (batch, 1, length))
        pooled = ad.reshape(ad.matmul(weights, h), (batch, cfg.hidden))
        z = ad.relu(_dense(pooled, p["head.seq.w1"], p["head.seq.b1"]))
        z = ad.dropout(z, cfg.dropout, derive_seed(seed, 10_000), training)
        return _dense(z, p["head.seq.w2"], p["head.seq.b2"])


# --- masked-reconstruction objective ------------------------------------------

def _remi_target_weights(voc) -> np.ndarray:
    """Per-id loss weight: the target's type size over the vocab size."""
    sizes = voc.type_sizes()  # the id blocks, in id order
    shares = [0.0 if kind in (PAD, MASK) else size / len(voc) for kind, size in sizes.items()]
    return np.repeat(shares, list(sizes.values()))


def mlm_loss(model: EncoderModel, batch: MaskedBatch, *, training: bool = True, seed: int = 0):
    """Weighted reconstruction loss over the selected steps.

    Returns (loss, logits). Single-stream: per-step weight is the target
    type's vocab share, normalized over selected steps (uniform logits give
    ln(vocab)). Compound: field losses are combined with weights
    |field|/total, which sum to one."""
    if model.config.head != "mlm":
        raise ValueError(f"mlm_loss needs an mlm head, got {model.config.head!r}")
    if not batch.loss_mask.any():
        raise ValueError("masked batch has no selected steps")
    logits = model.logits(batch.input_ids, training=training, seed=seed)
    flat_mask = batch.loss_mask.reshape(-1)

    if model.config.representation == "remi":
        n, t = batch.target_ids.shape
        targets = batch.target_ids.reshape(-1)
        weights = _remi_target_weights(model.vocab)[targets] * flat_mask
        loss = ad.cross_entropy(ad.reshape(logits, (n * t, len(model.vocab))), targets, weights)
        return loss, logits

    voc: CpVocab = model.vocab
    total = sum(voc.field_sizes)
    weights = flat_mask.astype(np.float64)
    loss = None
    for k, size in enumerate(voc.field_sizes):
        flat = ad.reshape(logits[k], (weights.size, size))
        part = ad.cross_entropy(flat, batch.target_ids[..., k].reshape(-1), weights)
        part = ad.scale(part, size / total)
        loss = part if loss is None else ad.add(loss, part)
    return loss, logits


def cloze_accuracy(logits, batch: MaskedBatch) -> float:
    """Fraction of selected steps reconstructed exactly (every field, for
    the compound representation)."""
    if not batch.loss_mask.any():
        raise ValueError("masked batch has no selected steps")
    if isinstance(logits, list):
        ok = np.ones(batch.loss_mask.shape, dtype=bool)
        for k in range(len(logits)):
            pred = np.argmax(logits[k].data, axis=-1)
            ok &= pred == batch.target_ids[..., k]
    else:
        ok = np.argmax(logits.data, axis=-1) == batch.target_ids
    return float(ok[batch.loss_mask].mean())


# --- checkpoints ----------------------------------------------------------------

def _little_endian(arr: np.ndarray) -> np.ndarray:
    dtype = arr.dtype.newbyteorder("<")
    return np.ascontiguousarray(arr, dtype=dtype)


def save_checkpoint(path, model: EncoderModel) -> None:
    header = {
        "config": asdict(model.config),
        "tensors": [
            {"name": name, "shape": list(t.data.shape), "dtype": t.data.dtype.name}
            for name, t in model.params.items()
        ],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    # written beside the target and renamed over it, so a failed write
    # leaves the previous checkpoint whole
    path = os.fspath(path)
    partial = path + ".partial"
    try:
        with open(partial, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<I", CHECKPOINT_VERSION))
            fh.write(struct.pack("<I", len(blob)))
            fh.write(blob)
            for t in model.params.values():
                fh.write(_little_endian(t.data).tobytes())
        os.replace(partial, path)
    except BaseException:
        if os.path.exists(partial):
            os.remove(partial)
        raise


def _read_header(fh, path):
    magic = fh.read(4)
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a model checkpoint (bad magic {magic!r})")
    version_raw = fh.read(4)
    header_len_raw = fh.read(4)
    if len(version_raw) < 4 or len(header_len_raw) < 4:
        raise CheckpointError(f"{path}: truncated checkpoint header")
    version = struct.unpack("<I", version_raw)[0]
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    blob = fh.read(struct.unpack("<I", header_len_raw)[0])
    try:
        header = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: corrupt checkpoint header: {exc}") from exc
    return header


def _read_tensors(fh, header, path):
    out: dict[str, np.ndarray] = {}
    for entry in header["tensors"]:
        dtype = np.dtype(entry["dtype"]).newbyteorder("<")
        shape = tuple(entry["shape"])
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        raw = fh.read(count * dtype.itemsize)
        if len(raw) < count * dtype.itemsize:
            raise CheckpointError(f"{path}: truncated payload at tensor {entry['name']!r}")
        # native byte order: an explicit "<" dtype survives arithmetic and
        # sends numpy's inner loops off their fast paths
        native = dtype.newbyteorder("=")
        out[entry["name"]] = np.frombuffer(raw, dtype=dtype).reshape(shape).astype(native)
    if fh.read(1):
        raise CheckpointError(f"{path}: trailing data after last tensor")
    return out


def load_checkpoint(path) -> EncoderModel:
    with open(path, "rb") as fh:
        header = _read_header(fh, path)
        try:
            config = ModelConfig(**header["config"])
        except (TypeError, ValueError) as exc:
            raise CheckpointError(f"{path}: bad config in checkpoint: {exc}") from exc
        tensors = _read_tensors(fh, header, path)
    shapes = {name: shape for name, shape, _ in _param_layout(config)}
    if set(tensors) != set(shapes):
        raise CheckpointError(f"{path}: checkpoint tensors do not match the config's layout")
    for name, arr in tensors.items():
        if arr.shape != shapes[name]:
            raise CheckpointError(f"{path}: shape mismatch for {name!r}")
    return EncoderModel(config, {name: Tensor(tensors[name], requires_grad=True) for name in shapes})


def load_backbone(model: EncoderModel, path) -> list[str]:
    """Copy every non-head tensor from a checkpoint into `model`.

    The head is whatever `model` was built with; only the shared trunk
    (embeddings and encoder layers) must line up. Returns the loaded names."""
    params = load_checkpoint(path).params
    source = {n: t.data for n, t in params.items() if not n.startswith("head.")}
    target = {n for n in model.params if not n.startswith("head.")}
    if set(source) != target:
        raise CheckpointError(f"{path}: backbone tensors do not match the target model")
    for name, arr in source.items():
        if arr.shape != model.params[name].data.shape:
            raise CheckpointError(
                f"{path}: shape mismatch for {name!r}: "
                f"{arr.shape} vs {model.params[name].data.shape}"
            )
    for name, arr in source.items():
        model.params[name].data = arr.astype(model.params[name].data.dtype, copy=False)
    return sorted(source)
