"""Token codecs: REMI event streams and compound-word (CP) super tokens, as ids.

REMI spells each note as Sub-beat / Pitch / Duration events behind explicit
Bar markers; with Pad and Mask that is a single 169-entry vocabulary. CP
folds one note into a single step of four fields (bar, sub_beat, pitch,
duration) with per-field vocabularies of 4 / 18 / 88 / 66 entries; the bar
field says whether the step opens a new bar, and an empty bar is the single
step (New, Pad, Pad, Pad). Ids are dense per-type blocks in ascending value
order, Pad is always id 0, Mask is always the last id. So a token is its
id: the encoders write id arrays, and a vocabulary is arithmetic over the
two block tables below.

Both codecs are exact inverses of encoding for well-formed streams. `chunk`
cuts all pieces' streams at once into one (N, 512) or (N, 512, 4) id block:
a row is one 512-step window of one piece, Pad-filled at the piece's end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .smf import (
    DURATION_UNIT_MAX, NO_VELOCITY, PITCH_MAX, PITCH_MIN, SUB_BEATS_PER_BAR, Score, note_rows,
)

CHUNK_LEN = 512

PAD = "Pad"
MASK = "Mask"

CP_FIELDS = ("bar", "sub_beat", "pitch", "duration")

# the REMI id blocks in id order, as (kind, lowest value, size)
_REMI_BLOCKS = (
    (PAD, 0, 1),
    ("Bar", 0, 1),
    ("Sub-beat", 1, SUB_BEATS_PER_BAR),
    ("Pitch", PITCH_MIN, PITCH_MAX - PITCH_MIN + 1),
    ("Duration", 1, DURATION_UNIT_MAX),
    (MASK, 0, 1),
)
# each CP field's content as (lowest value, count), in CP_FIELDS order: a
# field's ids are Pad 0, its values in ascending order from id 1, then Mask.
# The bar field's two values are its ids, New 1 and Cont 2.
_CP_CONTENT = ((1, 2), (1, SUB_BEATS_PER_BAR), (PITCH_MIN, PITCH_MAX - PITCH_MIN + 1),
               (1, DURATION_UNIT_MAX))
_NEW, _CONT = 1, 2


class DecodeError(ValueError):
    def __init__(self, message: str, step: int):
        super().__init__(f"{message} (step {step})")
        self.step = step


def _remi_block(kind: str) -> tuple[int, int, int]:
    """(first id, lowest value, size) of one REMI block."""
    first = 0
    for name, lowest, size in _REMI_BLOCKS:
        if name == kind:
            return first, lowest, size
        first += size
    raise KeyError(kind)


@dataclass(frozen=True)
class RemiVocab:
    def __len__(self) -> int:
        return sum(size for _, _, size in _REMI_BLOCKS)

    @property
    def pad_id(self) -> int:
        return 0

    @property
    def mask_id(self) -> int:
        return len(self) - 1

    def content_ids(self) -> np.ndarray:
        """Every id that is neither Pad nor Mask."""
        return np.arange(1, len(self) - 1, dtype=np.int64)

    def type_sizes(self) -> dict[str, int]:
        """Each kind's block size, in id order."""
        return {kind: size for kind, _, size in _REMI_BLOCKS}


@dataclass(frozen=True)
class CpVocab:
    @property
    def field_sizes(self) -> tuple[int, int, int, int]:
        return tuple(count + 2 for _, count in _CP_CONTENT)

    def __len__(self) -> int:
        return sum(self.field_sizes)

    def pad_ids(self) -> np.ndarray:
        return np.zeros(len(CP_FIELDS), dtype=np.int64)

    def mask_ids(self) -> np.ndarray:
        return np.array(self.field_sizes, dtype=np.int64) - 1

    def content_ids(self, field_name: str) -> np.ndarray:
        _, count = _CP_CONTENT[CP_FIELDS.index(field_name)]
        return np.arange(1, count + 1, dtype=np.int64)


Vocabulary = RemiVocab | CpVocab


def vocab(representation: str) -> Vocabulary:
    if representation == "remi":
        return RemiVocab()
    if representation == "cp":
        return CpVocab()
    raise ValueError(f"unknown representation: {representation!r}")


# --- encoding ---------------------------------------------------------------

def encode_remi(score: Score) -> np.ndarray:
    """(steps,) ids: a Bar marker per bar (empty bars included), then three
    events per note. A Score's note rows are sorted by onset, so their bars
    ascend."""
    notes = score.notes
    bars = np.arange(score.num_bars)
    out = np.empty(score.num_bars + 3 * len(notes), dtype=np.int64)
    # a bar's marker follows the earlier bars' markers and their notes' events
    out[bars + 3 * np.searchsorted(notes[:, 0], bars)] = _remi_block("Bar")[0]
    first_event = notes[:, 0] + 1 + 3 * np.arange(len(notes))
    for k, kind in enumerate(("Sub-beat", "Pitch", "Duration")):
        first, lowest, _ = _remi_block(kind)
        out[first_event + k] = notes[:, k + 1] + (first - lowest)
    return out


def encode_cp(score: Score) -> np.ndarray:
    """(steps, 4) ids: one super token per note; an empty bar is
    (New, Pad, Pad, Pad)."""
    notes = score.notes
    bars = notes[:, 0]
    steps = notes[:, :4] + [1 - lowest for lowest, _ in _CP_CONTENT]
    # New on the first note of its bar, Cont on the rest
    steps[:, 0] = np.where(np.searchsorted(bars, bars) == np.arange(len(bars)), _NEW, _CONT)
    empty = np.flatnonzero(np.bincount(bars, minlength=score.num_bars) == 0)
    return np.insert(steps, np.searchsorted(bars, empty), [_NEW, 0, 0, 0], axis=0)


# --- decoding ---------------------------------------------------------------

def _remi_event(token_id: int, step: int) -> tuple[str, int]:
    """(kind, value) of one REMI id."""
    offset = token_id
    for kind, lowest, size in _REMI_BLOCKS:
        if 0 <= offset < size:
            return kind, lowest + offset
        offset -= size
    raise DecodeError(f"id {token_id} outside the vocabulary", step)


def decode_remi(ids, *, source_id: str = "decoded") -> Score:
    """Inverse of encode_remi. Pad and Mask steps are skipped; an id outside
    the vocabulary, or anything that breaks the Bar / Sub-beat Pitch
    Duration grammar, raises DecodeError with the offending step index."""
    notes: list[tuple[int, ...]] = []
    bar = -1
    pending: list[tuple[int, int]] = []  # (value, step) of the note's events so far
    for step, token_id in enumerate(np.asarray(ids).tolist()):
        kind, value = _remi_event(token_id, step)
        if kind in (PAD, MASK):
            continue
        if kind == "Bar":
            if pending:
                raise DecodeError("Bar interrupts an unfinished note", step)
            bar += 1
            continue
        if bar < 0:
            raise DecodeError(f"{kind} before any Bar", step)
        expected = ("Sub-beat", "Pitch", "Duration")[len(pending)]
        if kind != expected:
            raise DecodeError(f"expected {expected}, found {kind}", step)
        pending.append((value, step))
        if len(pending) == 3:
            notes.append((bar, *(v for v, _ in pending), NO_VELOCITY))
            pending.clear()
    if pending:
        raise DecodeError("stream ends inside a note", pending[0][1])
    return _decoded(source_id, notes, bar + 1)


def decode_cp(ids, *, source_id: str = "decoded") -> Score:
    """Inverse of encode_cp. All-Pad and all-Mask steps are skipped; an id
    outside its field, mixed Pad/Mask fields or Cont before any New raise
    DecodeError."""
    masks = CpVocab().mask_ids().tolist()
    notes: list[tuple[int, ...]] = []
    bar = -1
    for step, row in enumerate(np.asarray(ids).tolist()):
        for name, value, mask in zip(CP_FIELDS, row, masks):
            if not 0 <= value <= mask:
                raise DecodeError(f"{name} id {value} outside the vocabulary", step)
        if not any(row) or row == masks:
            continue
        if any(v == m for v, m in zip(row, masks)):
            raise DecodeError("Mask in some fields but not all", step)
        if row == [_NEW, 0, 0, 0]:
            bar += 1
            continue
        if 0 in row:
            raise DecodeError("Pad in some fields but not all", step)
        if row[0] == _NEW:
            bar += 1
        elif bar < 0:
            raise DecodeError("Cont before any New", step)
        notes.append((
            bar, *(v - 1 + lowest for v, (lowest, _) in zip(row[1:], _CP_CONTENT[1:])),
            NO_VELOCITY,
        ))
    return _decoded(source_id, notes, bar + 1)


def _decoded(source_id: str, notes: list[tuple[int, ...]], num_bars: int) -> Score:
    """The decoded rows in a stable sort by (onset, pitch)."""
    rows = note_rows(notes)
    return Score(source_id, rows[np.lexsort((rows[:, 2], rows[:, 1], rows[:, 0]))], num_bars)


# --- chunking ---------------------------------------------------------------

def chunk(streams: list[np.ndarray], representation: str) -> tuple[np.ndarray, ...]:
    """Cut every piece's id stream into 512-step windows in one pass.

    Returns the (N, 512) or (N, 512, 4) block whose rows are each piece's
    windows in turn, Pad-filled at its end (an empty stream gets none);
    each row's piece (its index in `streams`) and window; and the (M, 3)
    rows (row, step, note_index) of the note steps, where a note's index
    is its rank among its piece's notes."""
    step_shape = (len(CP_FIELDS),) if representation == "cp" else ()
    lengths = np.array([len(s) for s in streams], dtype=np.int64)
    windows = -(-lengths // CHUNK_LEN)
    piece = np.repeat(np.arange(len(streams)), windows)
    first_row = np.cumsum(windows) - windows
    # note steps are found on the streams laid end to end, not on the block,
    # whose Pad fill can be most of it; a stream position maps into the block
    # through its piece's first row
    starts = np.cumsum(lengths) - lengths
    at = _note_steps(streams, step_shape)
    note_piece = np.searchsorted(starts, at, side="right") - 1
    at += (first_row * CHUNK_LEN - starts)[note_piece]
    first_note = np.searchsorted(at, first_row[note_piece] * CHUNK_LEN)
    note_positions = np.column_stack(
        (at // CHUNK_LEN, at % CHUNK_LEN, np.arange(len(at)) - first_note)
    )
    ids = np.zeros((len(piece), CHUNK_LEN, *step_shape), dtype=np.int64)
    steps = ids.reshape(-1, *step_shape)
    for stream, start in zip(streams, (first_row * CHUNK_LEN).tolist()):
        steps[start : start + len(stream)] = stream
    return ids, piece, np.arange(len(piece)) - first_row[piece], note_positions


def _note_steps(streams: list[np.ndarray], step_shape: tuple[int, ...]) -> np.ndarray:
    """Positions of the steps that carry a note in the streams laid end to
    end: CP steps with no Pad and no Mask field, REMI Pitch events."""
    steps = np.concatenate([np.zeros((0, *step_shape), dtype=np.int64), *streams])
    if step_shape:
        return np.flatnonzero(((steps > 0) & (steps < CpVocab().mask_ids())).all(axis=1))
    first, _, size = _remi_block("Pitch")
    return np.flatnonzero((steps >= first) & (steps < first + size))
