"""Training: AdamW and one early-stopped epoch loop with two objectives.

Pre-training minimizes the masked-reconstruction loss, redrawing masks
every epoch, and early-stops on validation loss; fine-tuning minimizes
per-step or per-sequence cross entropy and early-stops on validation
accuracy. Both run `_fit`: shuffle, batch, step, validate, keep the best
checkpoint. Every random draw is derived from the run seed, and serialized
logs carry no timing, so identical seeds produce byte-identical log files.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import corpus
from . import evaluate
from . import masking
from . import model as M
from .autodiff import Tensor

BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 12
    lr: float = 2e-5
    weight_decay: float = 0.01
    max_epochs: int = 500
    patience: int = 30
    seed: int = 0
    freeze: str | None = None

    def __post_init__(self):
        if self.batch_size < 1 or self.max_epochs < 1:
            raise ValueError("batch_size and max_epochs must be positive")
        if not 0 < self.lr < math.inf:
            raise ValueError(f"lr must be positive and finite: {self.lr}")
        if not 0 <= self.weight_decay < math.inf:
            raise ValueError(f"weight_decay must be non-negative and finite: {self.weight_decay}")
        if not 1 <= self.patience <= self.max_epochs:
            raise ValueError(f"patience must be in 1..max_epochs: {self.patience}")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.freeze not in M.FREEZE_MODES:
            raise ValueError(f"unknown freeze mode: {self.freeze!r}")


def finetune_config(**overrides) -> TrainConfig:
    base = dict(max_epochs=10, patience=3)
    base.update(overrides)
    return TrainConfig(**base)


@dataclass(frozen=True)
class EpochRow:
    epoch: int
    train_loss: float
    valid_loss: float
    valid_accuracy: float
    seconds: float


@dataclass
class TrainLog:
    monitor: str  # "valid_loss" or "valid_accuracy"
    rows: list[EpochRow] = field(default_factory=list)
    best_epoch: int = 0
    stopped_early: bool = False
    # a fine-tune's test-split predictions and labels, from the best epoch
    test_predictions: np.ndarray | None = None
    test_labels: np.ndarray | None = None

    def best_row(self) -> EpochRow:
        if not self.rows or not 1 <= self.best_epoch <= len(self.rows):
            raise ValueError("log has no best epoch yet")
        return self.rows[self.best_epoch - 1]

    def csv_text(self) -> str:
        # timing deliberately left out: identical seeds must give identical files
        lines = ["epoch,train_loss,valid_loss,valid_accuracy"]
        for r in self.rows:
            lines.append(f"{r.epoch},{r.train_loss!r},{r.valid_loss!r},{r.valid_accuracy!r}")
        return "\n".join(lines) + "\n"

    def summary_text(self, extra: dict | None = None) -> str:
        best = self.best_row()
        lines = [
            f"monitor = {self.monitor}",
            f"epochs_run = {len(self.rows)}",
            f"best_epoch = {self.best_epoch}",
            f"best_valid_loss = {best.valid_loss!r}",
            f"best_valid_accuracy = {best.valid_accuracy!r}",
            f"stopped_early = {str(self.stopped_early).lower()}",
        ]
        for key, value in (extra or {}).items():
            lines.append(f"{key} = {value!r}")
        return "\n".join(lines) + "\n"


class AdamW:
    """Decoupled weight decay, bias-corrected moments, global-norm gradient
    clipping applied before the moment update."""

    def __init__(
        self,
        params: dict[str, Tensor],
        lr: float,
        weight_decay: float,
        grad_clip: float = 1.0,
    ):
        if not params:
            raise ValueError("optimizer needs at least one parameter")
        self._names = list(params)
        self._tensors = [params[n] for n in self._names]
        self._m = [np.zeros_like(t.data) for t in self._tensors]
        self._v = [np.zeros_like(t.data) for t in self._tensors]
        self._t = 0
        self.lr = lr
        self.weight_decay = weight_decay
        self.grad_clip = grad_clip

    def zero_grad(self) -> None:
        for t in self._tensors:
            t.grad = None

    def step(self) -> None:
        grads = []
        for name, t in zip(self._names, self._tensors):
            if t.grad is None:
                raise ValueError(f"no gradient for {name}; run backward first")
            if not np.isfinite(t.grad).all():
                raise FloatingPointError(f"non-finite gradient in {name}")
            grads.append(t.grad)
        total = float(np.sqrt(sum(float((g * g).sum()) for g in grads)))
        if total > self.grad_clip:
            scale = self.grad_clip / total
            grads = [g * scale for g in grads]
        self._t += 1
        c1 = 1.0 - BETA1**self._t
        c2 = 1.0 - BETA2**self._t
        for t, m, v, g in zip(self._tensors, self._m, self._v, grads):
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            update = (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
            t.data = t.data - self.lr * (update + self.weight_decay * t.data)


def apply_freeze(model: M.EncoderModel, freeze: str | None) -> dict[str, Tensor]:
    """Mark non-trainable parameters so backward skips them; returns the
    trainable subset."""
    trainable = model.trainable(freeze)
    for name, t in model.params.items():
        t.requires_grad = name in trainable
    return trainable


def _batches(order: np.ndarray, size: int):
    for start in range(0, len(order), size):
        yield order[start : start + size]


def _real_length(model: M.EncoderModel, ids: np.ndarray) -> int:
    """1 + the last real step over the rows of `ids`, at least 1. Every later
    step is padding in every row; pad keys get zero attention weight and no
    loss, pooling or prediction reads a pad step, so running the encoder on
    `ids[:, :L]` changes rounding, not the model."""
    real = np.flatnonzero(model.step_mask(ids).any(axis=0))
    return int(real[-1]) + 1 if real.size else 1


def _sub_batch(batch: masking.MaskedBatch, idx) -> masking.MaskedBatch:
    return masking.MaskedBatch(
        input_ids=batch.input_ids[idx],
        target_ids=batch.target_ids[idx],
        loss_mask=batch.loss_mask[idx],
        modes=batch.modes[idx],
    )


def evaluate_mlm(
    model: M.EncoderModel, ids: np.ndarray, batch_size: int, mask_seed: int
) -> tuple[float, float]:
    """(loss, cloze accuracy) over a fixed corruption of `ids`, both averaged
    per selected step; scored on a detached view, so no graph is built."""
    model = model.detached()
    # corrupted at full width, so the same steps are selected, then cut once
    # for the whole set: a step's scores do not depend on its batch-mates' lengths
    whole = masking.corrupt(ids, model.vocab, seed=mask_seed)
    whole = _sub_batch(whole, np.s_[:, : _real_length(model, ids)])
    total_loss = 0.0
    total_correct = 0.0
    total_selected = 0
    for start in range(0, len(ids), batch_size):
        sub = _sub_batch(whole, slice(start, start + batch_size))
        if not sub.loss_mask.any():
            continue
        loss, logits = M.mlm_loss(model, sub, training=False)
        selected = int(sub.loss_mask.sum())
        total_loss += float(loss.data) * selected
        total_correct += M.cloze_accuracy(logits, sub) * selected
        total_selected += selected
    if total_selected == 0:
        raise ValueError("validation corruption selected no steps")
    return total_loss / total_selected, total_correct / total_selected


def _fit(model, config, checkpoint_path, rows, batch_loss, validate, monitor) -> TrainLog:
    """The epoch loop behind pre-training and fine-tuning: shuffle `rows`
    per (seed, epoch), step AdamW on `batch_loss(batch_rows, epoch, bi)`
    (None skips a batch), score `validate()` -> (loss, accuracy), save the
    checkpoint when `monitor` improves (lower valid_loss, higher
    valid_accuracy), and stop after `patience` epochs without one. The
    model keeps the last epoch's weights."""
    trainable = apply_freeze(model, config.freeze)
    opt = AdamW(trainable, config.lr, config.weight_decay)
    log = TrainLog(monitor=monitor)
    best = np.inf
    bad = 0
    for epoch in range(1, config.max_epochs + 1):
        started = time.perf_counter()
        order = np.random.default_rng([config.seed, epoch]).permutation(rows)
        batch_losses = []
        for bi, batch_rows in enumerate(_batches(order, config.batch_size)):
            loss = batch_loss(batch_rows, epoch, bi)
            if loss is None:
                continue
            if not np.isfinite(loss.data):
                raise FloatingPointError(f"non-finite training loss at epoch {epoch}, batch {bi}")
            opt.zero_grad()
            ad.backward(loss)
            try:
                opt.step()
            except FloatingPointError as exc:
                raise FloatingPointError(f"{exc} at epoch {epoch}, batch {bi}") from None
            batch_losses.append(float(loss.data))
        if not batch_losses:
            raise ValueError("no usable training batches (nothing was selected for masking)")
        valid_loss, valid_acc = validate()
        log.rows.append(
            EpochRow(
                epoch,
                float(np.mean(batch_losses)),
                valid_loss,
                valid_acc,
                time.perf_counter() - started,
            )
        )
        score = valid_loss if monitor == "valid_loss" else -valid_acc
        if score < best:
            best = score
            log.best_epoch = epoch
            bad = 0
            M.save_checkpoint(checkpoint_path, model)
        else:
            bad += 1
        if bad >= config.patience:
            log.stopped_early = True
            break
    return log


def pretrain(
    model: M.EncoderModel,
    train_ids: np.ndarray,
    valid_ids: np.ndarray,
    config: TrainConfig,
    checkpoint_path,
) -> TrainLog:
    """Masked-token pre-training, early-stopped on the loss over one fixed
    corruption of `valid_ids`."""
    if model.config.head != "mlm":
        raise ValueError(f"pre-training needs an mlm head, got {model.config.head!r}")
    train_ids = np.asarray(train_ids)
    valid_ids = np.asarray(valid_ids)
    if len(train_ids) == 0 or len(valid_ids) == 0:
        raise ValueError("empty pre-training corpus")
    valid_mask_seed = M.derive_seed(config.seed, 1_000_003)  # fixed across epochs

    def batch_loss(rows, epoch, bi):
        ids = train_ids[rows]
        mb = masking.corrupt(ids, model.vocab, seed=M.derive_seed(config.seed, epoch, bi))
        if not mb.loss_mask.any():
            return None
        mb = _sub_batch(mb, np.s_[:, : _real_length(model, ids)])
        return M.mlm_loss(model, mb, training=True, seed=M.derive_seed(config.seed, epoch, bi, 1))[0]

    def validate():
        return evaluate_mlm(model, valid_ids, config.batch_size, valid_mask_seed)

    rows = np.arange(len(train_ids))
    return _fit(model, config, checkpoint_path, rows, batch_loss, validate, "valid_loss")


# --- fine-tuning -----------------------------------------------------------------

def check_task_model(model: M.EncoderModel, data: corpus.TaskData) -> None:
    level = data.task.level
    if level not in ("note", "sequence"):
        raise ValueError(f"task {data.task.name!r} is not a classification task")
    if model.config.head != data.task.head:
        raise ValueError(
            f"task {data.task.name!r} needs a {data.task.head} head, got {model.config.head!r}"
        )
    if model.config.num_classes != data.task.num_classes:
        raise ValueError(
            f"model has {model.config.num_classes} classes, "
            f"task {data.task.name!r} has {data.task.num_classes}"
        )
    if model.config.representation != data.representation:
        raise ValueError("model and corpus representation disagree")
    if task_labels(data) is None:
        raise ValueError(f"{level} task corpus lacks {level} labels")


def _class_loss(model, ids, labels, level, *, training, seed):
    logits = model.logits(ids, training=training, seed=seed)
    if level == "note":
        n, t, c = logits.data.shape
        flat_labels = labels[:, :t].reshape(-1)  # the steps `ids` was cut to
        weights = (flat_labels != corpus.IGNORE_LABEL).astype(np.float64)
        loss = ad.cross_entropy(ad.reshape(logits, (n * t, c)), flat_labels, weights)
    else:
        loss = ad.cross_entropy(logits, labels, np.ones(len(labels)))
    return loss, logits


def task_labels(data: corpus.TaskData) -> np.ndarray:
    """Per-chunk label rows: (N, T) note labels or (N,) sequence labels."""
    return data.note_labels if data.task.level == "note" else data.seq_labels


def evaluate_classifier(
    model: M.EncoderModel, data: corpus.TaskData, indices: np.ndarray, batch_size: int
) -> tuple[float, np.ndarray, np.ndarray]:
    """(loss, predictions, labels) over the given chunk indices: the
    label-weighted mean loss, argmax predictions and the aligned labels;
    scored on a detached view, so no graph is built. The set is cut once to
    its longest real prefix, so a chunk's predictions do not depend on the
    batch size; note predictions past the cut are IGNORE_LABEL, as are the
    labels there."""
    model = model.detached()
    level = data.task.level
    labels = task_labels(data)
    width = _real_length(model, data.ids[indices])
    total_loss = 0.0
    labeled = 0
    preds = []
    for batch_idx in _batches(indices, batch_size):
        truth = labels[batch_idx]
        loss, logits = _class_loss(
            model, data.ids[batch_idx, :width], truth, level, training=False, seed=0
        )
        n = int((truth != corpus.IGNORE_LABEL).sum())
        total_loss += float(loss.data) * n
        labeled += n
        preds.append(np.argmax(logits.data, axis=-1))
    if labeled == 0:
        raise ValueError("no labeled positions to evaluate")
    preds = np.concatenate(preds)
    if level == "note":
        cut = [(0, 0), (0, labels.shape[1] - width)]
        preds = np.pad(preds, cut, constant_values=corpus.IGNORE_LABEL)
    return total_loss / labeled, preds, labels[indices]


def finetune(
    model: M.EncoderModel,
    data: corpus.TaskData,
    config: TrainConfig,
    checkpoint_path,
) -> tuple[TrainLog, float]:
    """Train on the corpus train split, early-stop on valid accuracy, and
    score the test split with the best epoch's parameters, which the model
    is left holding. Returns (log, test accuracy); the log keeps the test
    predictions and labels."""
    check_task_model(model, data)
    level = data.task.level
    splits = {name: data.indices(name) for name in ("train", "valid", "test")}
    for name, idx in splits.items():
        if idx.size == 0:
            raise ValueError(f"empty {name} split")
    labels = task_labels(data)

    def batch_loss(rows, epoch, bi):
        ids = data.ids[rows]
        return _class_loss(
            model, ids[:, : _real_length(model, ids)], labels[rows], level,
            training=True, seed=M.derive_seed(config.seed, epoch, bi),
        )[0]

    def validate():
        loss, preds, truth = evaluate_classifier(model, data, splits["valid"], config.batch_size)
        return loss, evaluate.accuracy(preds, truth)

    log = _fit(
        model, config, checkpoint_path, splits["train"], batch_loss, validate, "valid_accuracy"
    )
    best_model = M.load_checkpoint(checkpoint_path)
    for name, t in best_model.params.items():
        model.params[name].data = t.data
    _, log.test_predictions, log.test_labels = evaluate_classifier(
        model, data, splits["test"], config.batch_size
    )
    return log, evaluate.accuracy(log.test_predictions, log.test_labels)
