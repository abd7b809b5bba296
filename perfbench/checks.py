"""Output checks. Each one compares the program's outputs with a figure the
benchmark computes apart from the program (its own SMF reader, its own
store and CSV readers, a numpy reference forward) or with a property the
method must have. None compares against a stored copy of earlier output.

Every check raises CheckError with a one-line reason when it fails.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import struct
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CHUNK_LEN = 512
PRETRAIN_HOLDOUT = 0.15  # pretrain's documented 85/15 chunk-level holdout
# MIDI velocity bins of the six dynamics classes pp..ff
VELOCITY_BINS = ((0, 31), (32, 47), (48, 63), (64, 79), (80, 95), (96, 127))
VELOCITY_NAMES = ("pp", "p", "mp", "mf", "f", "ff")


class CheckError(Exception):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


# --- an SMF reader of the benchmark's own ------------------------------------

def _vlq(data: bytes, pos: int) -> tuple[int, int]:
    value = 0
    while True:
        byte = data[pos]
        pos += 1
        value = (value << 7) | (byte & 0x7F)
        if not byte & 0x80:
            return value, pos


def read_smf_notes(data: bytes) -> tuple[int, list[tuple[int, int, int, int]]]:
    """(ticks per quarter, [(onset_tick, off_tick, pitch, velocity)])."""
    require(data[:4] == b"MThd", "not an SMF file")
    header_len, _, ntrks, tpq = struct.unpack(">LHHH", data[4:14])
    pos = 8 + header_len
    notes = []
    for _ in range(ntrks):
        tag, length = struct.unpack(">4sL", data[pos : pos + 8])
        pos, end = pos + 8, pos + 8 + length
        if tag != b"MTrk":
            pos = end
            continue
        tick, status, sounding = 0, 0, {}
        while pos < end:
            delta, pos = _vlq(data, pos)
            tick += delta
            if data[pos] == 0xFF:
                meta_type = data[pos + 1]
                length, pos = _vlq(data, pos + 2)
                pos += length
                if meta_type == 0x2F:
                    break
                continue
            if data[pos] in (0xF0, 0xF7):
                length, pos = _vlq(data, pos + 1)
                pos += length
                continue
            if data[pos] & 0x80:  # otherwise running status
                status = data[pos]
                pos += 1
            kind = status & 0xF0
            if kind in (0xC0, 0xD0):
                pos += 1
                continue
            first, second = data[pos], data[pos + 1]
            pos += 2
            key = (status & 0x0F, first)
            if kind == 0x90 and second > 0:
                sounding.setdefault(key, []).append((tick, second))
            elif kind == 0x80 or kind == 0x90:
                if sounding.get(key):
                    onset, velocity = sounding[key].pop(0)
                    notes.append((onset, tick, first, velocity))
        pos = end
    return tpq, notes


def _half_up(numerator: int, denominator: int) -> int:
    return (2 * numerator + denominator) // (2 * denominator)


@dataclass(frozen=True)
class PieceFacts:
    """What the benchmark reads off one synthesized .mid file."""

    piece_id: str
    bars: int
    notes: int
    empty_bars: int
    velocity_labels: tuple[str, ...]  # in score order: onset, pitch, duration, class

    def steps(self, representation: str) -> int:
        # REMI: one Bar event per bar plus Sub-beat, Pitch, Duration per note;
        # CP: one super token per note plus one per empty bar
        if representation == "remi":
            return self.bars + 3 * self.notes
        return self.notes + self.empty_bars

    def chunks(self, representation: str) -> int:
        return -(-self.steps(representation) // CHUNK_LEN)


def piece_facts(path: Path) -> PieceFacts:
    tpq, raw = read_smf_notes(path.read_bytes())
    keyed, occupied = [], set()
    for onset, off, pitch, velocity in raw:
        sub_beat = _half_up(onset * 4, tpq)
        units = min(max(_half_up((off - onset) * 8, tpq), 1), 64)
        cls = next(k for k, (lo, hi) in enumerate(VELOCITY_BINS) if lo <= velocity <= hi)
        keyed.append((sub_beat, pitch, units, cls))
        occupied.add(sub_beat // 16)
    keyed.sort()
    bars = max(occupied) + 1 if occupied else 0
    return PieceFacts(
        piece_id=path.stem,
        bars=bars,
        notes=len(keyed),
        empty_bars=bars - len(occupied),
        velocity_labels=tuple(VELOCITY_NAMES[k[3]] for k in keyed),
    )


def corpus_facts(midi_dir: Path) -> dict[str, PieceFacts]:
    return {p.stem: piece_facts(p) for p in sorted(midi_dir.glob("*.mid"))}


# --- readers for the program's output files --------------------------------------

@dataclass
class StoreView:
    representation: str
    task: str
    chunks: dict[str, list[tuple[int, int]]]  # piece -> [(chunk_index, notes)] in file order
    note_indices: dict[str, list[int]]
    manifest: dict[str, str]


def read_store(store_dir: Path) -> StoreView:
    lines = (store_dir / "chunks.jsonl").read_text(encoding="utf-8").splitlines()
    header = json.loads(lines[0])
    chunks: dict[str, list[tuple[int, int]]] = {}
    note_indices: dict[str, list[int]] = {}
    for line in lines[1:]:
        record = json.loads(line)
        ids = record["ids"]
        require(len(ids) == CHUNK_LEN, f"chunk of {record['piece_id']} has {len(ids)} steps")
        positions = record["note_positions"]
        chunks.setdefault(record["piece_id"], []).append((record["chunk_index"], len(positions)))
        note_indices.setdefault(record["piece_id"], []).extend(p[1] for p in positions)
    manifest = dict(read_csv(store_dir / "manifest.csv", ("piece_id", "split")))
    return StoreView(header["representation"], header["task"], chunks, note_indices, manifest)


def read_csv(path: Path, header: tuple[str, ...]) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    require(tuple(rows[0]) == header, f"{path.name}: header {rows[0]}")
    return rows[1:]


def read_note_label_csv(path: Path) -> dict[str, tuple[str, ...]]:
    out: dict[str, list[str]] = {}
    for piece_id, index, label in read_csv(path, ("piece_id", "note_index", "label")):
        row = out.setdefault(piece_id, [])
        require(int(index) == len(row), f"{path.name}: {piece_id} note {index} out of order")
        row.append(label)
    return {k: tuple(v) for k, v in out.items()}


def read_seq_label_csv(path: Path) -> dict[str, str]:
    return dict(read_csv(path, ("piece_id", "label")))


def read_key_values(path: Path) -> dict[str, str]:
    pairs = (line.split(" = ", 1) for line in path.read_text().splitlines() if " = " in line)
    return {key: value for key, value in pairs}


def read_log(path: Path) -> list[dict[str, float]]:
    rows = read_csv(path, ("epoch", "train_loss", "valid_loss", "valid_accuracy"))
    keys = ("epoch", "train_loss", "valid_loss", "valid_accuracy")
    return [dict(zip(keys, map(float, row))) for row in rows]


def read_confusion(path: Path) -> tuple[tuple[str, ...], np.ndarray]:
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    names = tuple(rows[0][1:])
    require([r[0] for r in rows[1:]] == list(names), f"{path.name}: row names differ from columns")
    return names, np.array([[int(v) for v in r[1:]] for r in rows[1:]], dtype=np.int64)


# --- store, labels, splits --------------------------------------------------------

def check_store(store: StoreView, facts: dict[str, PieceFacts], representation: str) -> None:
    """Each piece's chunk count is ceil(steps / 512) and its note positions
    name each of its notes exactly once."""
    require(store.representation == representation, f"store holds {store.representation}")
    require(set(store.chunks) == set(facts), f"store has {len(store.chunks)} of {len(facts)} pieces")
    require(set(store.manifest) == set(facts), "manifest does not list every piece")
    for piece_id, fact in facts.items():
        got = store.chunks[piece_id]
        want = fact.chunks(representation)
        require(
            [index for index, _ in got] == list(range(want)),
            f"{piece_id}: chunk indices {[i for i, _ in got]}, want {want} chunks",
        )
        require(
            sorted(store.note_indices[piece_id]) == list(range(fact.notes)),
            f"{piece_id}: {len(store.note_indices[piece_id])} note positions for {fact.notes} notes",
        )


def expected_labels(task: str, level: str, midi_dir: Path, facts: dict[str, PieceFacts]):
    """Labels as synthesized: velocity classes come off the note velocities,
    every other task from the label file `synth` wrote."""
    if task == "velocity":
        return {p: f.velocity_labels for p, f in facts.items()}
    if level == "note":
        return read_note_label_csv(midi_dir / "note_labels.csv")
    return read_seq_label_csv(midi_dir / "seq_labels.csv")


def check_labels(store_dir: Path, level: str, expected) -> None:
    if level == "note":
        got = read_note_label_csv(store_dir / "note_labels.csv")
    else:
        got = read_seq_label_csv(store_dir / "seq_labels.csv")
    require(got == expected, f"{store_dir.name}: label file differs from the synthesized labels")


def split_chunks(store: StoreView, split: str) -> int:
    return sum(len(c) for p, c in store.chunks.items() if store.manifest[p] == split)


def pretrain_train_chunks(store: StoreView, mode: str) -> int:
    """Chunks `pretrain --corpus all|train-splits` trains on: the selected
    chunks less the holdout."""
    if mode == "train-splits" and store.task != "pretrain":
        selected = split_chunks(store, "train")
    else:
        selected = sum(len(c) for c in store.chunks.values())
    return selected - max(1, round(PRETRAIN_HOLDOUT * selected))


def label_counts(store: StoreView, labels, level: str, split: str) -> Counter:
    """Scored positions per class: every note of a note-level piece, or one
    per chunk of a sequence-level piece."""
    counts: Counter = Counter()
    for piece_id, chunks in store.chunks.items():
        if store.manifest[piece_id] != split:
            continue
        if level == "note":
            counts.update(labels[piece_id])
        else:
            counts[labels[piece_id]] += len(chunks)
    return counts


# --- reports ------------------------------------------------------------------------

def check_report(report_dir: Path, counts: Counter, train_counts: Counter | None = None) -> float:
    """Confusion totals and per-class rows equal the benchmark's counts,
    accuracy is the table's trace over its total, and the majority baseline
    is the most frequent training label's share. Returns the accuracy."""
    names, table = read_confusion(report_dir / "confusion_counts.csv")
    metrics = read_key_values(report_dir / "metrics.txt")
    total = sum(counts.values())
    require(int(table.sum()) == total, f"confusion total {int(table.sum())}, counted {total}")
    rows = {name: int(row.sum()) for name, row in zip(names, table)}
    require(
        rows == {name: counts.get(name, 0) for name in names},
        f"confusion rows {rows}, counted {dict(counts)}",
    )
    accuracy = float(metrics["accuracy"])
    require(accuracy == int(np.trace(table)) / total, "accuracy is not trace / total")
    if train_counts is not None:
        top = max(train_counts.values())
        majority = next(n for n in names if train_counts.get(n, 0) == top)
        want = counts.get(majority, 0) / total
        got = float(metrics["majority_baseline_accuracy"])
        require(got == want, f"majority baseline {got}, counted {want}")
    return accuracy


def check_skyline(out_dir: Path, melody_labels: dict[str, tuple[str, ...]]) -> None:
    """The synthetic melody sits strictly on top, so the skyline rule must
    recover it note for note."""
    metrics = read_key_values(out_dir / "metrics.txt")
    require(float(metrics["accuracy"]) == 1.0, f"skyline accuracy {metrics['accuracy']}")
    got: dict[str, list[str]] = {}
    for piece_id, _, label in read_csv(out_dir / "predictions.csv", ("piece_id", "note_index", "label")):
        got.setdefault(piece_id, []).append(label)
    want = {
        p: ["melody" if v == "melody" else "non-melody" for v in labels]
        for p, labels in melody_labels.items()
    }
    require(got == want, "skyline predictions differ from the melody labels")


# --- training log -------------------------------------------------------------------

def uniform_loss(header: dict) -> float:
    """Masked-LM loss of uniform logits: ln V for REMI; for CP the field
    losses weighted by field size, sum of |f| ln |f| over the total."""
    sizes = [
        t["shape"][1] for t in header["tensors"]
        if t["name"].startswith("head.mlm.") and t["name"].endswith(".w")
    ]
    require(bool(sizes), "checkpoint has no masked-LM head")
    return sum(s * math.log(s) for s in sizes) / sum(sizes)


def check_pretrain_log(log: list[dict[str, float]], uniform: float) -> None:
    require(bool(log), "empty pretrain log")
    values = [v for row in log for v in (row["train_loss"], row["valid_loss"])]
    require(all(math.isfinite(v) for v in values), "non-finite pretrain loss")
    first = log[0]["train_loss"]
    require(abs(first - uniform) <= 0.15 * uniform, f"first train loss {first} vs uniform {uniform}")
    best = min(row["valid_loss"] for row in log)
    require(best < uniform, f"best valid loss {best} not below uniform {uniform}")


# --- checkpoints and determinism ---------------------------------------------------------

def read_checkpoint(path: Path) -> tuple[dict, dict[str, np.ndarray]]:
    """(header, float64 tensors) from the documented container: magic,
    version, JSON header length and header, then little-endian payloads."""
    data = path.read_bytes()
    require(data[:4] == b"MBPT", f"{path.name}: bad magic")
    version, length = struct.unpack("<II", data[4:12])
    require(version == 1, f"{path.name}: checkpoint version {version}")
    header = json.loads(data[12 : 12 + length])
    pos = 12 + length
    tensors = {}
    for entry in header["tensors"]:
        dtype = np.dtype(entry["dtype"]).newbyteorder("<")
        count = int(np.prod(entry["shape"], dtype=np.int64))
        raw = np.frombuffer(data, dtype=dtype, count=count, offset=pos)
        tensors[entry["name"]] = raw.astype(np.float64).reshape(entry["shape"])
        pos += count * dtype.itemsize
    require(pos == len(data), f"{path.name}: {len(data) - pos} bytes after the last tensor")
    return header, tensors


def digest_tree(root: Path, names: list[str]) -> dict[str, str]:
    """sha256 of every file under the named paths of a round directory,
    except run_config.txt, which records the round's own paths."""
    out = {}
    for name in names:
        base = root / name
        if not base.exists():
            out[name] = "missing"
            continue
        files = sorted(p for p in base.rglob("*") if p.is_file()) if base.is_dir() else [base]
        for path in files:
            if path.name != "run_config.txt":
                out[str(path.relative_to(root))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def check_same_digests(first: dict[str, str], other: dict[str, str], label: str) -> None:
    differing = sorted(k for k in first.keys() | other.keys() if first.get(k) != other.get(k))
    require(not differing, f"{label} differs from round 1 in {', '.join(differing[:4])}")


# --- gradient ---------------------------------------------------------------------------------

def directional_gradient_error(loss_fn, params, backward, seed: int, eps: float = 1e-4) -> float:
    """Relative gap between the analytic directional derivative, from one
    backward pass, and a central difference of the loss along one random
    unit direction. Parameters must be float64."""
    for p in params:
        p.grad = None
    backward(loss_fn())
    rng = np.random.default_rng([seed])
    direction = [rng.standard_normal(p.data.shape) for p in params]
    norm = math.sqrt(sum(float((d * d).sum()) for d in direction))
    direction = [d / norm for d in direction]
    analytic = sum(
        float((p.grad * d).sum()) for p, d in zip(params, direction) if p.grad is not None
    )
    base = [p.data for p in params]
    try:
        for p, b, d in zip(params, base, direction):
            p.data = b + eps * d
        up = float(loss_fn().data)
        for p, b, d in zip(params, base, direction):
            p.data = b - eps * d
        down = float(loss_fn().data)
    finally:
        for p, b in zip(params, base):
            p.data = b
    numeric = (up - down) / (2 * eps)
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-12)
