"""Evaluation utilities: accuracy, confusion tables, the rule-based
melody baseline (skyline), the majority-class baseline, and report files.

The skyline rule: scanning notes in score order, a note joins the melody
iff its pitch is the maximum among all notes sounding at its onset and it
starts at or after the end of the previously selected melody note, so the
selected line is the monophonic top voice.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import IGNORE_LABEL, TaskSpec
from .smf import Score, onset_sub_beats

SKYLINE = TaskSpec("skyline", "note", ("melody", "non-melody"))  # the rule's binary labels
MELODY = 0
NON_MELODY = 1


def accuracy(preds, labels) -> float:
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    if preds.shape != labels.shape:
        raise ValueError(f"shape mismatch: {preds.shape} vs {labels.shape}")
    keep = labels != IGNORE_LABEL
    preds, labels = preds[keep], labels[keep]
    if labels.size == 0:
        raise ValueError("no labeled positions")
    return float((preds == labels).mean())


@dataclass(frozen=True)
class ConfusionTable:
    counts: np.ndarray  # (K, K) int64, rows = actual, columns = predicted
    class_names: tuple[str, ...]

    def __post_init__(self):
        k = len(self.class_names)
        if self.counts.shape != (k, k):
            raise ValueError(f"counts shape {self.counts.shape} for {k} classes")

    def total(self) -> int:
        return int(self.counts.sum())

    def accuracy(self) -> float:
        return float(np.trace(self.counts)) / self.total()

    def row_percent(self) -> np.ndarray:
        """Rows rescaled to percentages; an unseen actual class stays zero."""
        sums = self.counts.sum(axis=1, keepdims=True)
        return 100.0 * self.counts / np.where(sums == 0, 1, sums)

    def precision_recall(self) -> list[tuple[float, float]]:
        """(precision, recall) per class, 0.0 where the denominator is empty."""
        out = []
        for k in range(len(self.class_names)):
            col = int(self.counts[:, k].sum())
            row = int(self.counts[k, :].sum())
            hit = int(self.counts[k, k])
            out.append((hit / col if col else 0.0, hit / row if row else 0.0))
        return out

    def csv_text(self) -> str:
        lines = ["actual\\predicted," + ",".join(self.class_names)]
        for name, row in zip(self.class_names, self.counts):
            lines.append(name + "," + ",".join(str(int(v)) for v in row))
        return "\n".join(lines) + "\n"

    def render(self) -> str:
        """Row-normalized percentage table, one line per actual class."""
        width = max(len(n) for n in self.class_names)
        cell = max(width, 6)
        header = " " * (width + 2) + " ".join(f"{n:>{cell}}" for n in self.class_names)
        lines = [header]
        for name, row in zip(self.class_names, self.row_percent()):
            body = " ".join(f"{v:>{cell}.1f}" for v in row)
            lines.append(f"{name:<{width}}  {body}")
        return "\n".join(lines) + "\n"


def confusion(preds, labels, class_names) -> ConfusionTable:
    preds = np.asarray(preds).reshape(-1)
    labels = np.asarray(labels).reshape(-1)
    if preds.shape != labels.shape:
        raise ValueError(f"shape mismatch: {preds.shape} vs {labels.shape}")
    keep = labels != IGNORE_LABEL
    preds, labels = preds[keep], labels[keep]
    if labels.size == 0:
        raise ValueError("no labeled positions")
    k = len(class_names)
    if not ((0 <= labels) & (labels < k)).all() or not ((0 <= preds) & (preds < k)).all():
        raise ValueError(f"labels outside 0..{k - 1}")
    counts = np.zeros((k, k), dtype=np.int64)
    np.add.at(counts, (labels, preds), 1)
    return ConfusionTable(counts=counts, class_names=tuple(class_names))


def majority_baseline(train_labels) -> int:
    """The constant predictor's class: most frequent training label, lowest
    index on ties."""
    labels = np.asarray(train_labels).reshape(-1)
    labels = labels[labels != IGNORE_LABEL]
    if labels.size == 0:
        raise ValueError("no labeled positions")
    values, freq = np.unique(labels, return_counts=True)
    return int(values[np.argmax(freq)])  # unique() is sorted, argmax takes the first max


def skyline(score: Score) -> np.ndarray:
    """Binary melody labels aligned to score.notes (0 melody, 1 other).

    Sweep in score order with a max-pitch heap of sounding notes; expired
    entries are dropped lazily from the top, which never hides the true
    maximum."""
    labels = np.full(len(score.notes), NON_MELODY, dtype=np.int64)
    onset_units = 2 * onset_sub_beats(score.notes)
    onsets = onset_units.tolist()  # in duration units (half sub-beats)
    ends = (onset_units + score.notes[:, 3]).tolist()
    pitches = score.notes[:, 2].tolist()
    active: list[tuple[int, int]] = []  # (-pitch, end)
    last_end = 0
    start = 0
    while start < len(onsets):
        stop = start
        onset = onsets[start]
        while stop < len(onsets) and onsets[stop] == onset:
            heapq.heappush(active, (-pitches[stop], ends[stop]))
            stop += 1
        while active and active[0][1] <= onset:
            heapq.heappop(active)
        top = -active[0][0]
        for i in range(start, stop):
            if pitches[i] == top and onset >= last_end:
                labels[i] = MELODY
                last_end = ends[i]
        start = stop
    return labels


def write_report(
    out_dir,
    task_name: str,
    table: ConfusionTable,
    split_sizes: dict[str, int] | None = None,
    extra: dict | None = None,
) -> list[Path]:
    """Write metrics.txt, confusion_counts.csv, confusion_percent.txt;
    returns the paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = [f"task = {task_name}"]
    for name, size in (split_sizes or {}).items():
        lines.append(f"{name}_chunks = {size}")
    lines.append(f"accuracy = {table.accuracy()!r}")
    for name, (precision, recall) in zip(table.class_names, table.precision_recall()):
        lines.append(f"precision_{name} = {precision!r}")
        lines.append(f"recall_{name} = {recall!r}")
    for key, value in (extra or {}).items():
        lines.append(f"{key} = {value!r}")
    paths = [
        out_dir / "metrics.txt",
        out_dir / "confusion_counts.csv",
        out_dir / "confusion_percent.txt",
    ]
    paths[0].write_text("\n".join(lines) + "\n")
    paths[1].write_text(table.csv_text())
    paths[2].write_text(table.render())
    return paths
