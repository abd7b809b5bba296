"""Task definitions, labeled pieces, splits, synthetic corpora, and the
on-disk dataset formats (chunk store, label files, split manifests).

Splits are made at the piece level from a seeded shuffle of the sorted ids;
fractional remainders go to train. Synthetic corpora are built so the task
signal is recoverable by construction: the melody corpus keeps its melody
voice strictly on top and gapless (the skyline rule recovers it exactly),
the velocity corpus ties dynamics to the metrical position, and classifier
corpora give each class a distinct pitch-class set and rhythm density.
"""

from __future__ import annotations

import csv
import json
import re
import warnings
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .smf import (
    PITCH_MAX,
    PITCH_MIN,
    SUB_BEATS_PER_BAR,
    QuantNote,
    Score,
    note_sort_key,
)
from .tokens import CHUNK_LEN, ChunkedSequence, chunk, encode_cp, encode_remi, vocab

IGNORE_LABEL = -1
STORE_SCHEMA = "chunks-v1"
NOTE_LABEL_HEADER = ("piece_id", "note_index", "label")
SEQ_LABEL_HEADER = ("piece_id", "label")
MANIFEST_HEADER = ("piece_id", "split")
SPLIT_NAMES = ("train", "valid", "test")


@dataclass(frozen=True)
class TaskSpec:
    name: str
    level: str  # "note" | "sequence" | "none"
    class_names: tuple[str, ...]

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    def label_from(self, text: str) -> int:
        if text in self.class_names:
            return self.class_names.index(text)
        try:
            value = int(text)
        except ValueError:
            raise ValueError(f"unknown {self.name} label {text!r}") from None
        if not 0 <= value < self.num_classes:
            raise ValueError(f"{self.name} label out of range 0..{self.num_classes - 1}: {value}")
        return value


TASKS: dict[str, TaskSpec] = {
    "melody": TaskSpec("melody", "note", ("melody", "bridge", "accompaniment")),
    "velocity": TaskSpec("velocity", "note", ("pp", "p", "mp", "mf", "f", "ff")),
    "composer": TaskSpec("composer", "sequence", ("C", "Y", "H", "E", "J", "S", "M", "W")),
    "emotion": TaskSpec("emotion", "sequence", ("HVHA", "HVLA", "LVHA", "LVLA")),
    "pretrain": TaskSpec("pretrain", "none", ()),
}


def task(name: str) -> TaskSpec:
    if name not in TASKS:
        raise ValueError(f"unknown task {name!r}; expected one of {sorted(TASKS)}")
    return TASKS[name]


@dataclass(frozen=True)
class LabeledPiece:
    score: Score
    task: TaskSpec
    note_labels: tuple[int, ...] | None = None     # aligned to score.notes
    sequence_label: int | None = None

    def __post_init__(self) -> None:
        if self.task.level == "note":
            if self.note_labels is None or len(self.note_labels) != len(self.score.notes):
                have = None if self.note_labels is None else len(self.note_labels)
                raise ValueError(
                    f"piece {self.score.source_id!r}: {len(self.score.notes)} notes "
                    f"but {have} labels"
                )
            bad = [v for v in self.note_labels if not 0 <= v < self.task.num_classes]
            if bad:
                raise ValueError(
                    f"piece {self.score.source_id!r}: label {bad[0]} outside "
                    f"0..{self.task.num_classes - 1}"
                )
        elif self.task.level == "sequence":
            if self.sequence_label is None or not 0 <= self.sequence_label < self.task.num_classes:
                raise ValueError(
                    f"piece {self.score.source_id!r}: bad sequence label "
                    f"{self.sequence_label!r}"
                )

    @property
    def piece_id(self) -> str:
        return self.score.source_id


def derive_velocity_labels(score: Score) -> tuple[int, ...]:
    """Velocity-class labels come straight off the quantized notes."""
    labels = []
    for i, note in enumerate(score.notes):
        if note.velocity_class is None:
            raise ValueError(f"piece {score.source_id!r}: note {i} has no velocity")
        labels.append(note.velocity_class)
    return tuple(labels)


# --- splits -------------------------------------------------------------------

@dataclass(frozen=True)
class SplitManifest:
    train: tuple[str, ...]
    valid: tuple[str, ...]
    test: tuple[str, ...]

    @property
    def sizes(self) -> tuple[int, int, int]:
        return (len(self.train), len(self.valid), len(self.test))


def check_ratios(ratios: tuple[int, ...]) -> tuple[int, ...]:
    """Split ratios as make_splits takes them: 2 or 3 positive parts."""
    if len(ratios) not in (2, 3) or any(r <= 0 for r in ratios):
        raise ValueError(f"ratios must be 2 or 3 positive parts, got {ratios}")
    return ratios


def make_splits(piece_ids: list[str], ratios: tuple[int, ...], seed: int) -> SplitManifest:
    """Deterministic piece-level split; leftover pieces land in train."""
    check_ratios(ratios)
    ids = sorted(piece_ids)
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate piece ids")
    if len(ids) < len(ratios):
        raise ValueError(f"{len(ids)} pieces cannot fill {len(ratios)} splits")

    total = sum(ratios)
    n = len(ids)
    valid_n = n * ratios[1] // total
    test_n = n * ratios[2] // total if len(ratios) == 3 else 0
    train_n = n - valid_n - test_n

    order = np.random.default_rng([seed]).permutation(n)
    shuffled = [ids[i] for i in order]
    return SplitManifest(
        train=tuple(sorted(shuffled[:train_n])),
        valid=tuple(sorted(shuffled[train_n : train_n + valid_n])),
        test=tuple(sorted(shuffled[train_n + valid_n :])),
    )


# --- label propagation ---------------------------------------------------------

def propagate_note_labels(
    labels: tuple[int, ...], chunks: list[ChunkedSequence]
) -> list[np.ndarray]:
    """Spread per-note labels onto chunk steps via note_positions.

    Every note index must appear exactly once across the piece's chunks;
    steps without a note get IGNORE_LABEL.
    """
    piece_id = chunks[0].piece_id if chunks else "?"
    seen = [idx for c in chunks for _, idx in c.note_positions]
    if sorted(seen) != list(range(len(labels))):
        raise ValueError(
            f"piece {piece_id!r}: {len(labels)} labels but chunk positions "
            f"cover {len(seen)} notes"
        )
    out = []
    for c in chunks:
        row = np.full(c.ids.shape[0], IGNORE_LABEL, dtype=np.int64)
        for step, note_index in c.note_positions:
            row[step] = labels[note_index]
        out.append(row)
    return out


# --- synthetic corpora ----------------------------------------------------------

@dataclass(frozen=True)
class SynthSpec:
    task: str
    pieces: int
    bars_per_piece: int = 16
    notes_per_bar: int = 8
    style: str = "default"  # pretrain: "pop" (dense) or "ostinato"

    def __post_init__(self) -> None:
        if self.pieces <= 0 or self.bars_per_piece <= 0 or self.notes_per_bar <= 0:
            raise ValueError("pieces, bars_per_piece, notes_per_bar must be positive")
        task(self.task)
        if self.style != "default" and self.task != "pretrain":
            raise ValueError(f"style {self.style!r} applies only to the pretrain task")


def synth_corpus(spec: SynthSpec, seed: int) -> list[LabeledPiece]:
    rng = np.random.default_rng([seed, spec.pieces, spec.bars_per_piece])
    builders = {
        "melody": _synth_melody,
        "velocity": _synth_velocity,
        "composer": _synth_classified,
        "emotion": _synth_classified,
        "pretrain": _synth_pretrain,
    }
    return [builders[spec.task](spec, i, rng) for i in range(spec.pieces)]


def _sorted_with_labels(
    source_id: str, pairs: list[tuple[QuantNote, int]]
) -> tuple[Score, tuple[int, ...]]:
    pairs = sorted(pairs, key=lambda p: note_sort_key(p[0]))
    notes = tuple(n for n, _ in pairs)
    num_bars = notes[-1].onset_sub_beats // SUB_BEATS_PER_BAR + 1 if notes else 0
    score = Score(source_id=source_id, notes=notes, num_bars=num_bars)
    return score, tuple(l for _, l in pairs)


def _tile_bar_durations(rng: np.random.Generator) -> list[int]:
    # melody durations tile the 32-unit bar exactly, all even so onsets
    # stay on the sub-beat grid
    remaining, out = 32, []
    while remaining:
        choices = [d for d in (4, 8, 16) if d <= remaining]
        d = int(rng.choice(choices))
        out.append(d)
        remaining -= d
    return out


def _synth_melody(spec: SynthSpec, index: int, rng: np.random.Generator) -> LabeledPiece:
    """Two voices. The melody tiles every bar gaplessly in a high register;
    accompaniment sits strictly below it, so the top line is the melody both
    by label and by the skyline rule."""
    melody_task = task("melody")
    melody_label = melody_task.class_names.index("melody")
    accomp_label = melody_task.class_names.index("accompaniment")
    pairs: list[tuple[QuantNote, int]] = []
    pitch = int(rng.integers(76, 92))
    for bar in range(spec.bars_per_piece):
        unit = 0
        durations = _tile_bar_durations(rng)
        for duration in durations:
            pitch = int(np.clip(pitch + rng.integers(-4, 5), 72, 96))
            pairs.append(
                (QuantNote(bar, unit // 2 + 1, pitch, duration), melody_label)
            )
            unit += duration
        taken: set[tuple[int, int]] = set()
        for _ in range(max(1, spec.notes_per_bar - len(durations))):
            sub_beat = int(rng.integers(1, SUB_BEATS_PER_BAR + 1))
            low = int(rng.integers(36, 61))
            if (sub_beat, low) in taken:
                continue
            taken.add((sub_beat, low))
            pairs.append(
                (QuantNote(bar, sub_beat, low, int(rng.choice([2, 4, 6, 8, 12]))), accomp_label)
            )
    score, labels = _sorted_with_labels(f"melody_{index:04d}", pairs)
    return LabeledPiece(score=score, task=melody_task, note_labels=labels)


_VELOCITY_OF_SUB_BEAT = tuple((s * 5) % 6 for s in range(SUB_BEATS_PER_BAR))


def _synth_velocity(spec: SynthSpec, index: int, rng: np.random.Generator) -> LabeledPiece:
    """Dynamics are a fixed function of the metrical position, so the class
    is predictable from the tokens alone."""
    velocity_task = task("velocity")
    pairs: list[tuple[QuantNote, int]] = []
    for bar in range(spec.bars_per_piece):
        taken: set[tuple[int, int]] = set()
        for _ in range(spec.notes_per_bar):
            sub_beat = int(rng.integers(1, SUB_BEATS_PER_BAR + 1))
            pitch = int(rng.integers(40, 90))
            if (sub_beat, pitch) in taken:
                continue
            taken.add((sub_beat, pitch))
            cls = _VELOCITY_OF_SUB_BEAT[sub_beat - 1]
            pairs.append(
                (QuantNote(bar, sub_beat, pitch, int(rng.choice([2, 4, 8])), velocity_class=cls), cls)
            )
    score, labels = _sorted_with_labels(f"velocity_{index:04d}", pairs)
    return LabeledPiece(score=score, task=velocity_task, note_labels=labels)


def _synth_classified(spec: SynthSpec, index: int, rng: np.random.Generator) -> LabeledPiece:
    """Class k draws pitches from a pentatonic set rooted k fifths up, with
    a class-dependent note density; pitch-class statistics separate the
    classes linearly."""
    task_spec = task(spec.task)
    k = index % task_spec.num_classes
    root = (k * 5) % 12
    scale = [(root + offset) % 12 for offset in (0, 2, 4, 7, 9)]
    density = max(2, spec.notes_per_bar + (k % 3) - 1)
    pairs: list[tuple[QuantNote, int]] = []
    for bar in range(spec.bars_per_piece):
        taken: set[tuple[int, int]] = set()
        for _ in range(density):
            sub_beat = int(rng.integers(1, SUB_BEATS_PER_BAR + 1))
            pitch_class = int(rng.choice(scale))
            octave = int(rng.integers(4, 7))  # MIDI 48..83
            pitch = 12 * octave + pitch_class
            if (sub_beat, pitch) in taken:
                continue
            taken.add((sub_beat, pitch))
            pairs.append((QuantNote(bar, sub_beat, pitch, int(rng.choice([2, 4, 8, 16]))), k))
    score, _ = _sorted_with_labels(f"{spec.task}_{index:04d}", pairs)
    return LabeledPiece(score=score, task=task_spec, sequence_label=k)


# four fixed one-bar patterns; a piece repeats pattern (index mod 4) in
# every bar, so any unmasked neighbor reveals the whole bar
_OSTINATO_PATTERNS = tuple(
    tuple(
        (sub_beat, base + interval, duration)
        for sub_beat, interval, duration in ((1, 0, 8), (5, 7, 4), (9, 12, 8), (13, 7, 4))
    )
    for base in (40, 52, 64, 76)
)


def _synth_pretrain(spec: SynthSpec, index: int, rng: np.random.Generator) -> LabeledPiece:
    pretrain_task = task("pretrain")
    notes: list[QuantNote] = []
    if spec.style == "ostinato":
        pattern = _OSTINATO_PATTERNS[index % len(_OSTINATO_PATTERNS)]
        for bar in range(spec.bars_per_piece):
            for sub_beat, pitch, duration in pattern:
                notes.append(QuantNote(bar, sub_beat, pitch, duration))
    elif spec.style in ("pop", "default"):
        taken: set[tuple[int, int]] = set()
        for bar in range(spec.bars_per_piece):
            for _ in range(spec.notes_per_bar):
                sub_beat = int(rng.integers(1, SUB_BEATS_PER_BAR + 1))
                pitch = int(rng.integers(PITCH_MIN + 8, PITCH_MAX - 8))
                if (bar * SUB_BEATS_PER_BAR + sub_beat, pitch) in taken:
                    continue
                taken.add((bar * SUB_BEATS_PER_BAR + sub_beat, pitch))
                notes.append(QuantNote(bar, sub_beat, pitch, int(rng.choice([1, 2, 4, 8]))))
    else:
        raise ValueError(f"unknown pretrain style {spec.style!r}")
    notes.sort(key=note_sort_key)
    score = Score(
        source_id=f"{spec.style}_{index:04d}",
        notes=tuple(notes),
        num_bars=spec.bars_per_piece,
    )
    return LabeledPiece(score=score, task=pretrain_task)


# --- chunk store -----------------------------------------------------------------
#
# chunks.jsonl is a JSON header line, then one line per chunk spelled exactly
# as json.dumps spells {"piece_id", "chunk_index", "ids", "note_positions"}
# with default separators. That layout is the contract: the writer formats
# ids from lookup tables and the reader checks each line against it, so
# neither builds a JSON object tree per chunk. Any other spelling is
# rejected; stores are derived, and `prepare` rebuilds them.

_RECORD = '{"piece_id": %s, "chunk_index": %d, "ids": [%s], "note_positions": [%s]}\n'
# a non-negative integer as json.dumps spells it, short enough for int64
_NUMBER = rb"(?:0|[1-9][0-9]{0,17})"
_RECORD_HEAD = re.compile(
    rb'\{"piece_id": ("(?:[^"\\]|\\.)*"), "chunk_index": (%b), "ids": \[' % _NUMBER
)
_IDS_END = b'], "note_positions": ['
_RECORD_TAIL = re.compile(
    rb'\], "note_positions": \[((?:\[%b, %b\](?:, \[%b, %b\])*)?)\]\}\n' % ((_NUMBER,) * 4)
)
_CP_PACK = np.array([1 << 48, 1 << 32, 1 << 16, 1], dtype=np.int64)


def _id_bounds(representation: str) -> np.ndarray:
    """Exclusive id bounds: the REMI vocabulary size (0-d) or the four CP
    field sizes; broadcasting them over a chunk's ids checks every step."""
    voc = vocab(representation)
    return np.array(voc.field_sizes if representation == "cp" else len(voc), dtype=np.int64)


def _outside(ids: np.ndarray, bounds: np.ndarray) -> bool:
    return bool(((ids < 0) | (ids >= bounds)).any())


class _CpStepText(dict):
    """'[a, b, c, d]' for one CP step, keyed by its four ids packed 16 bits each."""

    def __missing__(self, key: int) -> str:
        text = self[key] = "[%d, %d, %d, %d]" % (
            key >> 48, key >> 32 & 0xFFFF, key >> 16 & 0xFFFF, key & 0xFFFF
        )
        return text


def save_store(
    path: str | Path,
    chunks: list[ChunkedSequence],
    *,
    representation: str,
    task_name: str,
) -> None:
    """Line-delimited records behind a header line that pins the schema."""
    task(task_name)
    bounds = _id_bounds(representation)
    shape = (CHUNK_LEN, *bounds.shape)
    if bounds.ndim:  # CP: one text per distinct step, made on first use
        step_text, pack = _CpStepText().__getitem__, _CP_PACK
    else:
        step_text, pack = [str(i) for i in range(int(bounds))].__getitem__, None
    header = {"schema": STORE_SCHEMA, "representation": representation, "task": task_name}
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(header) + "\n")
        for c in chunks:
            ids = c.ids
            if ids.shape != shape or ids.dtype.kind not in "iu" or _outside(ids, bounds):
                raise ValueError(
                    f"piece {c.piece_id!r} chunk {c.chunk_index}: ids are not "
                    f"{shape} {representation} vocabulary ids"
                )
            steps = (ids if pack is None else ids.astype(np.int64, copy=False) @ pack).tolist()
            handle.write(_RECORD % (
                json.dumps(c.piece_id),
                c.chunk_index,
                ", ".join(map(step_text, steps)),
                ", ".join(["[%d, %d]" % p for p in c.note_positions]),
            ))


@dataclass(frozen=True)
class Store:
    representation: str
    task_name: str
    chunks: tuple[ChunkedSequence, ...]

    def chunks_of(self, piece_id: str) -> list[ChunkedSequence]:
        return [c for c in self.chunks if c.piece_id == piece_id]


def load_store(path: str | Path) -> Store:
    """Read a store in save_store's exact layout. Every chunk's ids are a
    row of one (N, 512) or (N, 512, 4) int64 block, filled line by line,
    so the file is never held whole. A record in any other spelling, or
    with an id outside the vocabulary, is a ValueError naming the file and
    line."""
    with open(path, "rb", buffering=1 << 16) as handle:
        newlines, last = 0, b"\n"
        for part in iter(lambda: handle.read(1 << 16), b""):
            newlines, last = newlines + part.count(b"\n"), part[-1:]
        records = newlines + (last != b"\n") - 1  # a last line without its newline counts
        handle.seek(0)
        try:
            header = json.loads(handle.readline())
        except ValueError as exc:
            raise ValueError(f"{path}: not a chunk store") from exc
        if not isinstance(header, dict):
            raise ValueError(f"{path}: not a chunk store")
        if header.get("schema") != STORE_SCHEMA:
            raise ValueError(f"{path}: schema {header.get('schema')!r} != {STORE_SCHEMA!r}")
        representation = header.get("representation")
        if representation not in ("remi", "cp"):
            raise ValueError(f"{path}: unknown representation {representation!r}")
        bounds = _id_bounds(representation)
        step = b"[" + b", " * (bounds.size - 1) + b"]" if bounds.ndim else b""
        digits = np.array([len(str(i)) for i in range(bounds.max())])
        skeleton = b", ".join([step] * CHUNK_LEN)
        block = np.empty((records, CHUNK_LEN, *bounds.shape), dtype=np.int64)
        chunks = []
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)  # a partial np.fromstring parse
            for row, line in enumerate(handle):
                try:
                    piece_id, chunk_index, positions = _read_record(
                        line, block[row], skeleton, bounds, digits
                    )
                except (ValueError, DeprecationWarning) as exc:
                    raise ValueError(f"{path}: line {row + 2}: {exc}") from exc
                chunks.append(ChunkedSequence(piece_id, chunk_index, block[row], positions))
    return Store(representation=representation, task_name=header["task"], chunks=tuple(chunks))


def _read_record(
    line: bytes, out: np.ndarray, skeleton: bytes, bounds: np.ndarray, digits: np.ndarray
) -> tuple[str, int, tuple[tuple[int, int], ...]]:
    """Check one record line against save_store's layout, parse its ids into
    `out` and return (piece_id, chunk_index, note_positions)."""
    head = _RECORD_HEAD.match(line)
    end = line.rfind(_IDS_END, head.end()) if head else -1
    tail = _RECORD_TAIL.fullmatch(line, end) if end >= 0 else None
    if tail is None:
        raise ValueError("not a chunk record in the store layout")
    piece_id = json.loads(head[1])
    if json.dumps(piece_id).encode() != head[1]:
        raise ValueError("piece_id is not spelled as the store writes it")
    text = line[head.end() : end]
    flat = text.translate(None, b"[]")
    digit = np.frombuffer(flat, dtype=np.uint8) >= ord("0")
    # the non-digits must be exactly the separators of 512 steps and every
    # id must have a digit; then the ids parse to exactly out.size numbers
    if (
        text.translate(None, b"0123456789") != skeleton
        or np.count_nonzero(digit[1:] > digit[:-1]) + digit[0] != out.size
    ):
        raise ValueError(f"ids are not {CHUNK_LEN} steps of {bounds.size} plain integers")
    out[...] = np.fromstring(flat, dtype=np.int64, sep=",").reshape(out.shape)
    if _outside(out, bounds):
        raise ValueError("id outside the vocabulary")
    if np.count_nonzero(digit) != digits[out].sum():  # a leading zero
        raise ValueError("ids are not spelled as the store writes them")
    numbers = np.fromstring(tail[1].translate(None, b"[]"), dtype=np.int64, sep=",").tolist()
    steps = numbers[::2]
    if steps and max(steps) >= CHUNK_LEN:
        raise ValueError(f"note position outside the {CHUNK_LEN} steps")
    return piece_id, int(head[2]), tuple(zip(steps, numbers[1::2]))


def pieces_to_chunks(pieces: list[LabeledPiece], representation: str) -> list[ChunkedSequence]:
    encode = {"remi": encode_remi, "cp": encode_cp}[representation]
    out: list[ChunkedSequence] = []
    for piece in pieces:
        out.extend(chunk(encode(piece.score), piece.piece_id))
    return out


# --- CSV files --------------------------------------------------------------------

def _read_rows(path: str | Path, header: tuple[str, ...]) -> Iterator[list[str]]:
    """The rows of a CSV file after its header, which must be `header`."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        row = next(reader, None)
        if row is None or tuple(row) != header:
            raise ValueError(f"{path}: expected header {','.join(header)!r}, got {row!r}")
        yield from reader


def write_note_labels(path: str | Path, labels: dict[str, tuple[int, ...]], task_spec: TaskSpec) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(NOTE_LABEL_HEADER)
        for piece_id in sorted(labels):
            for note_index, label in enumerate(labels[piece_id]):
                writer.writerow([piece_id, note_index, task_spec.class_names[label]])


def read_note_labels(path: str | Path, task_spec: TaskSpec) -> dict[str, tuple[int, ...]]:
    rows: dict[str, dict[int, int]] = {}
    for piece_id, note_index, label in _read_rows(path, NOTE_LABEL_HEADER):
        by_index = rows.setdefault(piece_id, {})
        index = int(note_index)
        if index in by_index:
            raise ValueError(f"{path}: piece {piece_id!r} repeats note_index {index}")
        by_index[index] = task_spec.label_from(label)
    out = {}
    for piece_id, by_index in rows.items():
        if sorted(by_index) != list(range(len(by_index))):
            raise ValueError(f"{path}: piece {piece_id!r} has gaps in note_index")
        out[piece_id] = tuple(by_index[i] for i in range(len(by_index)))
    return out


def write_seq_labels(path: str | Path, labels: dict[str, int], task_spec: TaskSpec) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(SEQ_LABEL_HEADER)
        for piece_id in sorted(labels):
            writer.writerow([piece_id, task_spec.class_names[labels[piece_id]]])


def read_seq_labels(path: str | Path, task_spec: TaskSpec) -> dict[str, int]:
    out = {}
    for piece_id, label in _read_rows(path, SEQ_LABEL_HEADER):
        if piece_id in out:
            raise ValueError(f"{path}: piece {piece_id!r} is listed twice")
        out[piece_id] = task_spec.label_from(label)
    return out


def write_manifest(path: str | Path, manifest: SplitManifest) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(MANIFEST_HEADER)
        for split_name, members in zip(SPLIT_NAMES, (manifest.train, manifest.valid, manifest.test)):
            for piece_id in members:
                writer.writerow([piece_id, split_name])


def read_manifest(path: str | Path) -> dict[str, str]:
    out = {}
    for piece_id, split_name in _read_rows(path, MANIFEST_HEADER):
        if split_name not in SPLIT_NAMES:
            raise ValueError(f"{path}: unknown split {split_name!r}")
        if piece_id in out:
            raise ValueError(f"{path}: piece {piece_id!r} is listed twice")
        out[piece_id] = split_name
    return out


# --- assembled task data ------------------------------------------------------------

@dataclass(frozen=True)
class TaskData:
    """Chunk-level arrays ready for training: ids plus aligned labels and a
    train/valid/test split index per chunk (chunks inherit their piece's
    split and, for sequence tasks, its label)."""

    task: TaskSpec
    representation: str
    ids: np.ndarray
    piece_ids: tuple[str, ...]
    split_of: np.ndarray                  # (N,) int8 into SPLIT_NAMES
    note_labels: np.ndarray | None = None  # (N, 512), IGNORE_LABEL off-note
    seq_labels: np.ndarray | None = None   # (N,)

    def indices(self, split_name: str) -> np.ndarray:
        return np.flatnonzero(self.split_of == SPLIT_NAMES.index(split_name))


def load_task_data(store_dir: str | Path) -> TaskData:
    store_dir = Path(store_dir)
    store = load_store(store_dir / "chunks.jsonl")
    task_spec = task(store.task_name)
    if task_spec.level == "none":
        raise ValueError(f"{store_dir}: store is a pretrain corpus, not a task corpus")
    splits = read_manifest(store_dir / "manifest.csv")

    note_label_map = None
    seq_label_map = None
    if task_spec.level == "note":
        note_label_map = read_note_labels(store_dir / "note_labels.csv", task_spec)
    else:
        seq_label_map = read_seq_labels(store_dir / "seq_labels.csv", task_spec)

    ids_rows, piece_row, split_row = [], [], []
    note_rows: list[np.ndarray] = []
    seq_rows: list[int] = []
    by_piece: dict[str, list[ChunkedSequence]] = {}
    for c in store.chunks:  # one pass, pieces in first-seen order
        by_piece.setdefault(c.piece_id, []).append(c)
    for piece_id, piece_chunks in by_piece.items():
        if piece_id not in splits:
            raise ValueError(f"{store_dir}: piece {piece_id!r} missing from manifest")
        if task_spec.level == "note":
            if piece_id not in note_label_map:
                raise ValueError(f"{store_dir}: piece {piece_id!r} missing note labels")
            note_rows.extend(propagate_note_labels(note_label_map[piece_id], piece_chunks))
        else:
            if piece_id not in seq_label_map:
                raise ValueError(f"{store_dir}: piece {piece_id!r} missing sequence label")
            seq_rows.extend([seq_label_map[piece_id]] * len(piece_chunks))
        for c in piece_chunks:
            ids_rows.append(c.ids)
            piece_row.append(piece_id)
            split_row.append(SPLIT_NAMES.index(splits[piece_id]))

    return TaskData(
        task=task_spec,
        representation=store.representation,
        ids=np.stack(ids_rows),
        piece_ids=tuple(piece_row),
        split_of=np.array(split_row, dtype=np.int8),
        note_labels=np.stack(note_rows) if note_rows else None,
        seq_labels=np.array(seq_rows, dtype=np.int64) if seq_rows else None,
    )
