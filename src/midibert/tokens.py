"""Token codecs: REMI event streams and compound-word (CP) super tokens.

REMI spells each note as Sub-beat / Pitch / Duration events behind explicit
Bar markers; with Pad and Mask that is a single 169-entry vocabulary. CP
folds one note into a single step of four fields (bar, sub_beat, pitch,
duration) with per-field vocabularies of 4 / 18 / 88 / 66 entries; the bar
field says whether the step opens a new bar, and an empty bar is the single
step (New, Pad, Pad, Pad). Ids are dense per-type blocks in ascending value
order, Pad is always id 0, Mask is always the last id.

Both codecs are exact inverses of encoding for well-formed streams, and
both chunk into fixed 512-step windows that never span pieces.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .smf import (
    DURATION_UNIT_MAX,
    PITCH_MAX,
    PITCH_MIN,
    SUB_BEATS_PER_BAR,
    QuantNote,
    Score,
)

CHUNK_LEN = 512

PAD = "Pad"
MASK = "Mask"
BAR_NEW = "New"
BAR_CONT = "Cont"

CP_FIELDS = ("bar", "sub_beat", "pitch", "duration")


class DecodeError(ValueError):
    def __init__(self, message: str, step: int):
        super().__init__(f"{message} (step {step})")
        self.step = step


@dataclass(frozen=True, slots=True)
class RemiToken:
    """One REMI event. kind Bar/Pad/Mask carries no value."""

    kind: str  # "Bar" | "Sub-beat" | "Pitch" | "Duration" | "Pad" | "Mask"
    value: int | None = None

    def __str__(self) -> str:
        return self.kind if self.value is None else f"{self.kind}({self.value})"


@dataclass(frozen=True, slots=True)
class SuperToken:
    """One CP step: four field values, ints for content, Pad/Mask strings."""

    bar: str                 # New | Cont | Pad | Mask
    sub_beat: int | str      # 1..16 | Pad | Mask
    pitch: int | str         # 22..107 | Pad | Mask
    duration: int | str      # 1..64 | Pad | Mask

    def astuple(self) -> tuple:
        return (self.bar, self.sub_beat, self.pitch, self.duration)


REMI_PAD = RemiToken(PAD)
REMI_MASK = RemiToken(MASK)
REMI_BAR = RemiToken("Bar")

CP_PAD = SuperToken(PAD, PAD, PAD, PAD)
CP_MASK = SuperToken(MASK, MASK, MASK, MASK)
CP_EMPTY_BAR = SuperToken(BAR_NEW, PAD, PAD, PAD)


def _remi_tokens_in_order() -> list[RemiToken]:
    out = [REMI_PAD, REMI_BAR]
    out += [RemiToken("Sub-beat", v) for v in range(1, SUB_BEATS_PER_BAR + 1)]
    out += [RemiToken("Pitch", v) for v in range(PITCH_MIN, PITCH_MAX + 1)]
    out += [RemiToken("Duration", v) for v in range(1, DURATION_UNIT_MAX + 1)]
    out.append(REMI_MASK)
    return out


def _cp_field_values() -> dict[str, list[int | str]]:
    return {
        "bar": [PAD, BAR_NEW, BAR_CONT, MASK],
        "sub_beat": [PAD, *range(1, SUB_BEATS_PER_BAR + 1), MASK],
        "pitch": [PAD, *range(PITCH_MIN, PITCH_MAX + 1), MASK],
        "duration": [PAD, *range(1, DURATION_UNIT_MAX + 1), MASK],
    }


@dataclass(frozen=True)
class RemiVocab:
    id_to_token: tuple[RemiToken, ...]
    token_to_id: dict[RemiToken, int] = field(repr=False)

    def __len__(self) -> int:
        return len(self.id_to_token)

    @property
    def pad_id(self) -> int:
        return self.token_to_id[REMI_PAD]

    @property
    def mask_id(self) -> int:
        return self.token_to_id[REMI_MASK]

    def content_ids(self) -> np.ndarray:
        """Every id that is neither Pad nor Mask."""
        skip = {self.pad_id, self.mask_id}
        return np.array([i for i in range(len(self)) if i not in skip], dtype=np.int64)

    def type_sizes(self) -> dict[str, int]:
        sizes: dict[str, int] = {}
        for tok in self.id_to_token:
            sizes[tok.kind] = sizes.get(tok.kind, 0) + 1
        return sizes


@dataclass(frozen=True)
class CpVocab:
    id_to_value: dict[str, tuple]                 # field -> values in id order
    value_to_id: dict[str, dict] = field(repr=False)

    @property
    def field_sizes(self) -> tuple[int, int, int, int]:
        return tuple(len(self.id_to_value[f]) for f in CP_FIELDS)

    def __len__(self) -> int:
        return sum(self.field_sizes)

    def pad_ids(self) -> np.ndarray:
        return np.array([self.value_to_id[f][PAD] for f in CP_FIELDS], dtype=np.int64)

    def mask_ids(self) -> np.ndarray:
        return np.array([self.value_to_id[f][MASK] for f in CP_FIELDS], dtype=np.int64)

    def content_ids(self, field_name: str) -> np.ndarray:
        vmap = self.value_to_id[field_name]
        skip = {vmap[PAD], vmap[MASK]}
        return np.array(
            [i for i in range(len(self.id_to_value[field_name])) if i not in skip],
            dtype=np.int64,
        )

    def encode_token(self, token: SuperToken) -> tuple[int, int, int, int]:
        return tuple(
            self.value_to_id[f][v] for f, v in zip(CP_FIELDS, token.astuple())
        )


Vocabulary = RemiVocab | CpVocab


def vocab(representation: str) -> Vocabulary:
    if representation == "remi":
        tokens = tuple(_remi_tokens_in_order())
        return RemiVocab(tokens, {t: i for i, t in enumerate(tokens)})
    if representation == "cp":
        values = _cp_field_values()
        return CpVocab(
            {f: tuple(v) for f, v in values.items()},
            {f: {v: i for i, v in enumerate(vals)} for f, vals in values.items()},
        )
    raise ValueError(f"unknown representation: {representation!r}")


# --- encoding ---------------------------------------------------------------

def encode_remi(score: Score) -> list[RemiToken]:
    """Bar marker per bar (empty bars included), then three events per note."""
    out: list[RemiToken] = []
    by_bar: dict[int, list[QuantNote]] = {}
    for note in score.notes:
        by_bar.setdefault(note.bar_index, []).append(note)
    for bar in range(score.num_bars):
        out.append(REMI_BAR)
        for note in by_bar.get(bar, ()):
            out.append(RemiToken("Sub-beat", note.sub_beat))
            out.append(RemiToken("Pitch", note.pitch))
            out.append(RemiToken("Duration", note.duration_units))
    return out


def encode_cp(score: Score) -> list[SuperToken]:
    """One super token per note; an empty bar is (New, Pad, Pad, Pad)."""
    out: list[SuperToken] = []
    by_bar: dict[int, list[QuantNote]] = {}
    for note in score.notes:
        by_bar.setdefault(note.bar_index, []).append(note)
    for bar in range(score.num_bars):
        notes = by_bar.get(bar, ())
        if not notes:
            out.append(CP_EMPTY_BAR)
            continue
        for position, note in enumerate(notes):
            out.append(
                SuperToken(
                    bar=BAR_NEW if position == 0 else BAR_CONT,
                    sub_beat=note.sub_beat,
                    pitch=note.pitch,
                    duration=note.duration_units,
                )
            )
    return out


# --- decoding ---------------------------------------------------------------

def decode_remi(tokens: list[RemiToken], *, source_id: str = "decoded") -> Score:
    """Inverse of encode_remi. Pad and Mask steps are skipped; anything that
    breaks the Bar / Sub-beat Pitch Duration grammar raises DecodeError with
    the offending step index."""
    notes: list[QuantNote] = []
    bar = -1
    pending: list[tuple[str, int, int]] = []  # (kind, value, step)
    for step, token in enumerate(tokens):
        if token.kind in (PAD, MASK):
            continue
        if token.kind == "Bar":
            if pending:
                raise DecodeError("Bar interrupts an unfinished note", step)
            bar += 1
            continue
        if bar < 0:
            raise DecodeError(f"{token.kind} before any Bar", step)
        expected = ("Sub-beat", "Pitch", "Duration")[len(pending)]
        if token.kind != expected:
            raise DecodeError(f"expected {expected}, found {token.kind}", step)
        pending.append((token.kind, token.value, step))
        if len(pending) == 3:
            notes.append(
                QuantNote(
                    bar_index=bar,
                    sub_beat=pending[0][1],
                    pitch=pending[1][1],
                    duration_units=pending[2][1],
                )
            )
            pending.clear()
    if pending:
        raise DecodeError("stream ends inside a note", pending[0][2])
    return Score(
        source_id=source_id,
        notes=tuple(sorted(notes, key=lambda n: (n.onset_sub_beats, n.pitch))),
        num_bars=bar + 1,
    )


def decode_cp(tokens: list[SuperToken], *, source_id: str = "decoded") -> Score:
    """Inverse of encode_cp. All-Pad and all-Mask steps are skipped; mixed
    Pad/Mask fields or Cont before any New raise DecodeError."""
    notes: list[QuantNote] = []
    bar = -1
    for step, token in enumerate(tokens):
        fields = token.astuple()
        if all(v == PAD for v in fields) or all(v == MASK for v in fields):
            continue
        if any(v == MASK for v in fields):
            raise DecodeError("Mask in some fields but not all", step)
        if token == CP_EMPTY_BAR:
            bar += 1
            continue
        if any(v == PAD for v in fields):
            raise DecodeError("Pad in some fields but not all", step)
        if token.bar == BAR_NEW:
            bar += 1
        elif token.bar == BAR_CONT:
            if bar < 0:
                raise DecodeError("Cont before any New", step)
        else:
            raise DecodeError(f"bad bar field {token.bar!r}", step)
        notes.append(
            QuantNote(
                bar_index=bar,
                sub_beat=token.sub_beat,
                pitch=token.pitch,
                duration_units=token.duration,
            )
        )
    return Score(
        source_id=source_id,
        notes=tuple(sorted(notes, key=lambda n: (n.onset_sub_beats, n.pitch))),
        num_bars=bar + 1,
    )


# --- chunking ---------------------------------------------------------------

@dataclass(frozen=True)
class ChunkedSequence:
    """A fixed 512-step window of one piece.

    ids is (512,) int for REMI or (512, 4) int for CP. note_positions maps
    each note-bearing step in this window to the note's index within the
    piece (REMI: the Pitch step; CP: the super-token step).
    """

    piece_id: str
    chunk_index: int
    ids: np.ndarray
    note_positions: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.ids.shape[0] != CHUNK_LEN:
            raise ValueError(f"chunk must have {CHUNK_LEN} steps, got {self.ids.shape}")


def chunk(tokens: list[RemiToken] | list[SuperToken], piece_id: str) -> list[ChunkedSequence]:
    """Split a token stream into consecutive 512-step chunks, Pad-filled at
    the end. An empty stream yields no chunks."""
    if not tokens:
        return []
    if isinstance(tokens[0], RemiToken):
        voc = vocab("remi")
        flat = np.fromiter(
            (voc.token_to_id[t] for t in tokens), dtype=np.int64, count=len(tokens)
        )
        note_steps = [i for i, t in enumerate(tokens) if t.kind == "Pitch"]
        pad_row = np.int64(voc.pad_id)
        ids = np.full(_padded_len(len(tokens)), pad_row, dtype=np.int64)
        ids[: len(flat)] = flat
    else:
        voc = vocab("cp")
        flat = np.array([voc.encode_token(t) for t in tokens], dtype=np.int64)
        note_steps = [
            i for i, t in enumerate(tokens)
            if all(v not in (PAD, MASK) for v in t.astuple())
        ]
        ids = np.tile(voc.pad_ids(), (_padded_len(len(tokens)), 1))
        ids[: len(flat)] = flat

    positions_by_chunk: dict[int, list[tuple[int, int]]] = {}
    for note_index, step in enumerate(note_steps):
        positions_by_chunk.setdefault(step // CHUNK_LEN, []).append(
            (step % CHUNK_LEN, note_index)
        )

    chunks = []
    for chunk_index in range(ids.shape[0] // CHUNK_LEN):
        window = ids[chunk_index * CHUNK_LEN : (chunk_index + 1) * CHUNK_LEN]
        chunks.append(
            ChunkedSequence(
                piece_id=piece_id,
                chunk_index=chunk_index,
                ids=window,
                note_positions=tuple(positions_by_chunk.get(chunk_index, ())),
            )
        )
    return chunks


def _padded_len(n: int) -> int:
    return ((n + CHUNK_LEN - 1) // CHUNK_LEN) * CHUNK_LEN

