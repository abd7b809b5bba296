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
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .smf import (
    DURATION_UNITS_PER_BAR, NO_VELOCITY, PITCH_MAX, PITCH_MIN, SUB_BEATS_PER_BAR, VELOCITY_NAMES,
    Score, make_score,
)
from .tokens import CHUNK_LEN, chunk, encode_cp, encode_remi, vocab

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

    @property
    def head(self) -> str:
        """The model head that learns this task."""
        return {"note": "note", "sequence": "seq", "none": "mlm"}[self.level]

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
    "velocity": TaskSpec("velocity", "note", VELOCITY_NAMES),
    "composer": TaskSpec("composer", "sequence", ("C", "Y", "H", "E", "J", "S", "M", "W")),
    "emotion": TaskSpec("emotion", "sequence", ("HVHA", "HVLA", "LVHA", "LVLA")),
    "pretrain": TaskSpec("pretrain", "none", ()),
}


def task(name: str) -> TaskSpec:
    if not (isinstance(name, str) and name in TASKS):
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
    classes = score.notes[:, 4]
    missing = np.flatnonzero(classes == NO_VELOCITY)
    if missing.size:
        raise ValueError(f"piece {score.source_id!r}: note {missing[0]} has no velocity")
    return tuple(classes.tolist())


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
        if self.style not in ("default", "pop", "ostinato"):
            raise ValueError(f"unknown pretrain style {self.style!r}")


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


def _draw_notes(
    rng: np.random.Generator,
    bars: Iterable[int],
    count: int,
    draw_pitch: Callable[[], int],
    durations: list[int],
    velocity_of_sub_beat: tuple[int, ...] = (NO_VELOCITY,) * SUB_BEATS_PER_BAR,
) -> list[tuple[int, int, int, int, int]]:
    """Note rows from `count` draws per bar of a sub-beat, then a pitch,
    then, only when that (sub-beat, pitch) is new in the bar, a duration.
    The draw order is what fixes a seed's corpus."""
    notes = []
    for bar in bars:
        taken: set[tuple[int, int]] = set()
        for _ in range(count):
            sub_beat = int(rng.integers(1, SUB_BEATS_PER_BAR + 1))
            pitch = draw_pitch()
            if (sub_beat, pitch) in taken:
                continue
            taken.add((sub_beat, pitch))
            notes.append((
                bar, sub_beat, pitch, durations[rng.integers(len(durations))],
                velocity_of_sub_beat[sub_beat - 1],
            ))
    return notes


def _tile_bar_durations(rng: np.random.Generator) -> list[int]:
    # melody durations tile the bar exactly, all even so onsets stay on the
    # sub-beat grid
    remaining, out = DURATION_UNITS_PER_BAR, []
    while remaining:
        choices = [d for d in (4, 8, 16) if d <= remaining]
        d = choices[rng.integers(len(choices))]
        out.append(d)
        remaining -= d
    return out


def _synth_melody(spec: SynthSpec, index: int, rng: np.random.Generator) -> LabeledPiece:
    """Two voices. The melody tiles every bar gaplessly in a high register;
    accompaniment sits strictly below it, so the top line is the melody both
    by label and by the skyline rule."""
    melody_task = task("melody")
    melody_notes, accompaniment = [], []
    pitch = int(rng.integers(76, 92))
    for bar in range(spec.bars_per_piece):
        unit = 0
        durations = _tile_bar_durations(rng)
        for duration in durations:
            pitch = int(np.clip(pitch + rng.integers(-4, 5), 72, 96))
            melody_notes.append((bar, unit // 2 + 1, pitch, duration, NO_VELOCITY))
            unit += duration
        accompaniment += _draw_notes(
            rng, [bar], max(1, spec.notes_per_bar - len(durations)),
            lambda: int(rng.integers(36, 61)), [2, 4, 6, 8, 12],
        )
    score = make_score(f"melody_{index:04d}", melody_notes + accompaniment)
    melody_label, accomp_label = map(melody_task.class_names.index, ("melody", "accompaniment"))
    # the registers are disjoint: the melody is clipped to 72..96, the
    # accompaniment drawn from 36..60
    labels = tuple(np.where(score.notes[:, 2] >= 72, melody_label, accomp_label).tolist())
    return LabeledPiece(score=score, task=melody_task, note_labels=labels)


_VELOCITY_OF_SUB_BEAT = tuple((s * 5) % 6 for s in range(SUB_BEATS_PER_BAR))


def _synth_velocity(spec: SynthSpec, index: int, rng: np.random.Generator) -> LabeledPiece:
    """Dynamics are a fixed function of the metrical position, so the class
    is predictable from the tokens alone."""
    notes = _draw_notes(
        rng, range(spec.bars_per_piece), spec.notes_per_bar,
        lambda: int(rng.integers(40, 90)), [2, 4, 8], _VELOCITY_OF_SUB_BEAT,
    )
    score = make_score(f"velocity_{index:04d}", notes)
    return LabeledPiece(score=score, task=task("velocity"), note_labels=derive_velocity_labels(score))


def _synth_classified(spec: SynthSpec, index: int, rng: np.random.Generator) -> LabeledPiece:
    """Class k draws pitches from a pentatonic set rooted k fifths up, with
    a class-dependent note density; pitch-class statistics separate the
    classes linearly."""
    task_spec = task(spec.task)
    k = index % task_spec.num_classes
    root = (k * 5) % 12
    scale = [(root + offset) % 12 for offset in (0, 2, 4, 7, 9)]
    density = max(2, spec.notes_per_bar + (k % 3) - 1)
    notes = _draw_notes(
        rng, range(spec.bars_per_piece), density,
        lambda: scale[rng.integers(len(scale))] + 12 * int(rng.integers(4, 7)),  # degree, then octave
        [2, 4, 8, 16],
    )
    score = make_score(f"{spec.task}_{index:04d}", notes)
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
    bars = range(spec.bars_per_piece)
    if spec.style == "ostinato":
        pattern = _OSTINATO_PATTERNS[index % len(_OSTINATO_PATTERNS)]
        notes = [(bar, *note, NO_VELOCITY) for bar in bars for note in pattern]
    else:  # "pop" and "default"
        notes = _draw_notes(
            rng, bars, spec.notes_per_bar,
            lambda: int(rng.integers(PITCH_MIN + 8, PITCH_MAX - 8)), [1, 2, 4, 8],
        )
    score = make_score(f"{spec.style}_{index:04d}", notes, spec.bars_per_piece)
    return LabeledPiece(score=score, task=task("pretrain"))


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
    path: str | Path, store: Store, *, representation: str, task_name: str
) -> None:
    """The store's rows as line-delimited records behind a header line that
    pins the schema. Ids that load_store could not read back are a
    ValueError naming the first such chunk, and nothing is written."""
    task(task_name)
    bounds = _id_bounds(representation)
    shape = (CHUNK_LEN, *bounds.shape)
    ids = store.ids
    if ids.shape[1:] == shape and ids.dtype.kind in "iu":  # from each row's lowest and highest ids
        outside = (ids.min(axis=1) < 0) | (ids.max(axis=1) >= bounds)
        bad = np.flatnonzero(outside.reshape(len(ids), bounds.size).any(axis=1))
    else:
        bad = np.arange(len(ids))
    if bad.size:
        raise ValueError(
            f"piece {store.piece_ids[bad[0]]!r} chunk {store.chunk_index[bad[0]]}: ids are not "
            f"{shape} {representation} vocabulary ids"
        )
    if bounds.ndim:  # CP: one text per distinct step, made on first use
        step_text, pack = _CpStepText().__getitem__, _CP_PACK
    else:
        step_text, pack = [str(i) for i in range(int(bounds))].__getitem__, None
    positions = store.note_positions[:, 1:]
    ends = np.searchsorted(store.note_positions[:, 0], np.arange(1, len(ids) + 1)).tolist()
    header = {"schema": STORE_SCHEMA, "representation": representation, "task": task_name}
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(header) + "\n")
        for piece_id, chunk_index, row, start, end in zip(
            store.piece_ids, store.chunk_index.tolist(), ids, [0, *ends], ends
        ):
            steps = (row if pack is None else row.astype(np.int64, copy=False) @ pack).tolist()
            handle.write(_RECORD % (
                json.dumps(piece_id),
                chunk_index,
                ", ".join(map(step_text, steps)),
                ", ".join(["[%d, %d]" % (s, n) for s, n in positions[start:end].tolist()]),
            ))


@dataclass(frozen=True, eq=False)
class Store:
    """A chunk store as columns: row i of ids, piece_ids and chunk_index is one chunk."""

    representation: str
    task_name: str
    ids: np.ndarray             # (N, 512) or (N, 512, 4) int64
    piece_ids: np.ndarray       # (N,) str, an object array
    chunk_index: np.ndarray     # (N,) int64: the chunk's window in its piece
    note_positions: np.ndarray  # (M, 3) int64 (row, step, note_index), in record order

    def chunks_of(self, piece_id: str) -> np.ndarray:
        """The rows of one piece."""
        return np.flatnonzero(self.piece_ids == piece_id)


def load_store(path: str | Path) -> Store:
    """Read a store in save_store's exact layout. The ids fill one
    (N, 512) or (N, 512, 4) int64 block line by line, so the file is never
    held whole. A record in any other spelling, with an id outside the
    vocabulary, or with a (piece_id, chunk_index) seen before, is a
    ValueError naming the file and line."""
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
        try:
            task_name = task(header.get("task")).name
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        bounds = _id_bounds(representation)
        step = b"[" + b", " * (bounds.size - 1) + b"]" if bounds.ndim else b""
        digits = np.array([len(str(i)) for i in range(bounds.max())])
        skeleton = b", ".join([step] * CHUNK_LEN)
        block = np.empty((records, CHUNK_LEN, *bounds.shape), dtype=np.int64)
        keys: dict[tuple[str, int], None] = {}  # each row's (piece_id, chunk_index), in order
        positions = []
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)  # a partial np.fromstring parse
            for row, line in enumerate(handle):
                try:
                    key, pairs = _read_record(line, block[row], skeleton, bounds, digits)
                    if key in keys:
                        raise ValueError(f"piece {key[0]!r} repeats chunk_index {key[1]}")
                except (ValueError, DeprecationWarning) as exc:
                    raise ValueError(f"{path}: line {row + 2}: {exc}") from exc
                keys[key] = None
                positions.append(pairs)
    piece_ids, chunk_index = zip(*keys) if keys else ((), ())
    note_positions = np.column_stack((
        np.repeat(np.arange(records), [len(p) for p in positions]),
        np.concatenate([np.empty((0, 2), dtype=np.int64), *positions]),
    ))
    return Store(representation, task_name, block, np.array(piece_ids, dtype=object),
                 np.array(chunk_index, dtype=np.int64), note_positions)


def _read_record(
    line: bytes, out: np.ndarray, skeleton: bytes, bounds: np.ndarray, digits: np.ndarray
) -> tuple[tuple[str, int], np.ndarray]:
    """Check one record line against save_store's layout, parse its ids into
    `out` and return ((piece_id, chunk_index), its (step, note_index) rows)."""
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
    pairs = np.fromstring(tail[1].translate(None, b"[]"), dtype=np.int64, sep=",").reshape(-1, 2)
    if pairs.size and pairs[:, 0].max() >= CHUNK_LEN:
        raise ValueError(f"note position outside the {CHUNK_LEN} steps")
    return (piece_id, int(head[2])), pairs


def pieces_to_chunks(pieces: list[LabeledPiece], representation: str) -> Store:
    """The pieces' chunks, piece after piece, as the rows of a store of
    their task; no pieces make an empty pretrain store."""
    encode = {"remi": encode_remi, "cp": encode_cp}[representation]
    ids, piece, window, note_positions = chunk([encode(p.score) for p in pieces], representation)
    piece_ids = np.array([p.piece_id for p in pieces], dtype=object)[piece]
    task_name = pieces[0].task.name if pieces else "pretrain"
    return Store(representation, task_name, ids, piece_ids, window, note_positions)


# --- CSV files --------------------------------------------------------------------

def _read_rows(path: str | Path, header: tuple[str, ...]) -> Iterator[list[str]]:
    """The rows of a CSV file after its header, which must be `header`."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        row = next(reader, None)
        if row is None or tuple(row) != header:
            raise ValueError(f"{path}: expected header {','.join(header)!r}, got {row!r}")
        yield from reader


def _write_rows(path: str | Path, header: tuple[str, ...], rows: Iterable[list]) -> None:
    """A CSV file of `header`, then `rows`: the layout _read_rows reads."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


# the label file of each labeled level, in a task's store and in a synth corpus
_LABEL_FILES = {"note": "note_labels.csv", "sequence": "seq_labels.csv"}


def write_labels(out_dir: str | Path, pieces: list[LabeledPiece], task_spec: TaskSpec) -> None:
    """The pieces' labels in their level's label file; pretrain has none."""
    if task_spec.level == "none":
        return
    path = Path(out_dir) / _LABEL_FILES[task_spec.level]
    if task_spec.level == "note":
        write_note_labels(path, {p.piece_id: p.note_labels for p in pieces}, task_spec)
    else:
        write_seq_labels(path, {p.piece_id: p.sequence_label for p in pieces}, task_spec)


def write_note_labels(path: str | Path, labels: dict[str, tuple[int, ...]], task_spec: TaskSpec) -> None:
    _write_rows(path, NOTE_LABEL_HEADER, (
        [piece_id, note_index, task_spec.class_names[label]]
        for piece_id in sorted(labels)
        for note_index, label in enumerate(labels[piece_id])
    ))


def read_note_labels(path: str | Path, task_spec: TaskSpec) -> dict[str, tuple[int, ...]]:
    rows: dict[str, dict[int, int]] = {}
    for piece_id, note_index, label in _read_rows(path, NOTE_LABEL_HEADER):
        by_index = rows.setdefault(piece_id, {})
        index = int(note_index)
        if index in by_index:
            raise ValueError(f"{path}: piece {piece_id!r} repeats note_index {index}")
        try:
            by_index[index] = task_spec.label_from(label)
        except ValueError as exc:
            raise ValueError(f"{path}: piece {piece_id!r}: {exc}") from None
    out = {}
    for piece_id, by_index in rows.items():
        if sorted(by_index) != list(range(len(by_index))):
            raise ValueError(f"{path}: piece {piece_id!r} has gaps in note_index")
        out[piece_id] = tuple(by_index[i] for i in range(len(by_index)))
    return out


def write_seq_labels(path: str | Path, labels: dict[str, int], task_spec: TaskSpec) -> None:
    _write_rows(path, SEQ_LABEL_HEADER, (
        [piece_id, task_spec.class_names[labels[piece_id]]] for piece_id in sorted(labels)
    ))


def read_seq_labels(path: str | Path, task_spec: TaskSpec) -> dict[str, int]:
    out = {}
    for piece_id, label in _read_rows(path, SEQ_LABEL_HEADER):
        if piece_id in out:
            raise ValueError(f"{path}: piece {piece_id!r} is listed twice")
        out[piece_id] = task_spec.label_from(label)
    return out


def write_manifest(path: str | Path, manifest: SplitManifest) -> None:
    _write_rows(path, MANIFEST_HEADER, (
        [piece_id, split_name]
        for split_name, members in zip(SPLIT_NAMES, (manifest.train, manifest.valid, manifest.test))
        for piece_id in members
    ))


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
    """Row-aligned arrays ready for training: row i of ids is one chunk, with
    its labels and its train/valid/test split (a chunk inherits its piece's
    split and, for sequence tasks, its label)."""

    task: TaskSpec
    representation: str
    ids: np.ndarray                       # (N, 512) or (N, 512, 4)
    split_of: np.ndarray                  # (N,) int8 into SPLIT_NAMES
    note_labels: np.ndarray | None = None  # (N, 512), IGNORE_LABEL off-note
    seq_labels: np.ndarray | None = None   # (N,)

    def indices(self, split_name: str) -> np.ndarray:
        return np.flatnonzero(self.split_of == SPLIT_NAMES.index(split_name))


def load_task_data(store_dir: str | Path) -> TaskData:
    """A task store's rows with their splits and labels, piece by piece in
    first-seen order; a store `prepare` wrote is in that order already."""
    store_dir = Path(store_dir)
    store = load_store(store_dir / "chunks.jsonl")
    task_spec = task(store.task_name)
    if task_spec.level == "none":
        raise ValueError(f"{store_dir}: store is a pretrain corpus, not a task corpus")
    if not len(store.ids):
        raise ValueError(f"{store_dir}: store has no chunks")
    splits = read_manifest(store_dir / "manifest.csv")

    note_level = task_spec.level == "note"
    read_labels = read_note_labels if note_level else read_seq_labels
    label_map = read_labels(store_dir / _LABEL_FILES[task_spec.level], task_spec)

    names, first, piece = np.unique(store.piece_ids, return_index=True, return_inverse=True)
    seen = np.argsort(first)  # the pieces in first-seen order
    pieces, piece = names[seen].tolist(), np.argsort(seen)[piece]
    labels = [label_map.get(piece_id) for piece_id in pieces]
    rows, steps, notes = store.note_positions.T
    owner = piece[rows]  # each note position's piece
    counts = np.bincount(owner, minlength=len(pieces))
    notes_by_piece = np.split(notes[np.argsort(owner, kind="stable")], np.cumsum(counts)[:-1])
    what = "note labels" if note_level else "sequence label"
    for piece_id, label, piece_notes in zip(pieces, labels, notes_by_piece):
        if piece_id not in splits:
            raise ValueError(f"{store_dir}: piece {piece_id!r} missing from manifest")
        if label is None:
            raise ValueError(f"{store_dir}: piece {piece_id!r} missing {what}")
        if note_level and not np.array_equal(np.sort(piece_notes), np.arange(len(label))):
            raise ValueError(
                f"piece {piece_id!r}: {len(label)} labels but chunk positions cover "
                f"{len(piece_notes)} notes"
            )

    order = np.argsort(piece, kind="stable")
    note_labels = seq_labels = None
    if note_level:
        cells = np.sort(rows * CHUNK_LEN + steps)
        twice = cells[1:][np.diff(cells) == 0]
        if twice.size:
            row, step = divmod(int(twice[0]), CHUNK_LEN)
            raise ValueError(
                f"{store_dir}: piece {store.piece_ids[row]!r} chunk {store.chunk_index[row]} "
                f"lists step {step} twice"
            )
        note_labels = np.full(store.ids.shape[:2], IGNORE_LABEL, dtype=np.int64)
        # the pieces' labels joined: piece k's start at counts[:k].sum(), one per position
        note_labels[np.argsort(order)[rows], steps] = np.fromiter(
            chain.from_iterable(labels), dtype=np.int64
        )[(np.cumsum(counts) - counts)[owner] + notes]
    else:
        seq_labels = np.array(labels, dtype=np.int64)[piece[order]]
    ids = store.ids if (np.diff(piece) >= 0).all() else store.ids[order]  # no copy in order
    split_of = np.array([SPLIT_NAMES.index(splits[p]) for p in pieces], dtype=np.int8)
    return TaskData(task_spec, store.representation, ids, split_of[piece[order]],
                    note_labels=note_labels, seq_labels=seq_labels)
