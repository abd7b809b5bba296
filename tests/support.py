"""Shared fixture generators and reference oracles for the test suite, and
the autodiff ops and score helper that only the tests use."""

from __future__ import annotations

import numpy as np

from midibert import autodiff as ad
from midibert import evaluate
from midibert.autodiff import Tensor, _accumulate, _result, _unbroadcast
from midibert.corpus import IGNORE_LABEL
from midibert.smf import (
    NO_VELOCITY,
    PITCH_MAX,
    PITCH_MIN,
    SUB_BEATS_PER_BAR,
    Score,
    make_score,
)
from midibert.tokens import CHUNK_LEN


# --- autodiff ops only the tests use --------------------------------------------

def mul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data * b.data

    def rule(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.data.shape), owned=True)
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.data.shape), owned=True)

    return _result(out_data, (a, b), rule)


def mean(a: Tensor) -> Tensor:
    n = a.data.size

    def rule(g):
        _accumulate(a, np.full_like(a.data, float(g) / n), owned=True)

    return _result(np.mean(a.data), (a,), rule)


def tanh(a: Tensor) -> Tensor:
    t = np.tanh(a.data)

    def rule(g):
        _accumulate(a, g * (1.0 - t * t), owned=True)

    return _result(t, (a,), rule)


def strip_velocity(score: Score) -> Score:
    notes = score.notes.copy()
    notes[:, 4] = NO_VELOCITY
    return Score(source_id=score.source_id, notes=notes, num_bars=score.num_bars)


# --- fixtures and oracles --------------------------------------------------------

def widen(model):
    """Widen a model's parameters to float64 in place, so its forward and
    backward run in double precision (finite-difference checks); returns it."""
    for t in model.params.values():
        t.data = t.data.astype(np.float64)
    return model


def unfused_attention(q, k, v, rel, key_bias, scaling, p, seed, training):
    """The chain autodiff.attention replaces, with its signature:
    attention_scores -> softmax -> dropout -> matmul."""
    scores = ad.attention_scores(q, k, rel, key_bias, scaling)
    return ad.matmul(ad.dropout(ad.softmax(scores), p, seed, training), v)


def row_positions(store) -> list[tuple[tuple[int, int], ...]]:
    """Each row's (step, note_index) pairs of a Store, in record order."""
    rows: list[list[tuple[int, int]]] = [[] for _ in range(len(store.ids))]
    for row, step, note_index in store.note_positions.tolist():
        rows[row].append((step, note_index))
    return [tuple(pairs) for pairs in rows]


def propagate_note_labels(
    labels: tuple[int, ...], positions: list[tuple[tuple[int, int], ...]]
) -> list[np.ndarray]:
    """One piece's label rows, note by note: `positions` holds each of its
    chunks' (step, note_index) pairs. Every note index must appear exactly
    once across the piece's chunks; steps without a note get IGNORE_LABEL."""
    seen = [idx for pairs in positions for _, idx in pairs]
    if sorted(seen) != list(range(len(labels))):
        raise ValueError(f"{len(labels)} labels but chunk positions cover {len(seen)} notes")
    out = []
    for pairs in positions:
        row = np.full(CHUNK_LEN, IGNORE_LABEL, dtype=np.int64)
        for step, note_index in pairs:
            row[step] = labels[note_index]
        out.append(row)
    return out


def skyline_oracle(score) -> np.ndarray:
    """Direct transcription of the rule: a note is melody iff its pitch is
    the maximum among notes sounding at its onset and it starts at or after
    the end of the previously selected melody note."""
    # (onset, end, pitch) per note, in duration units (half sub-beats)
    notes = [
        (2 * (bar * SUB_BEATS_PER_BAR + sub_beat - 1),
         2 * (bar * SUB_BEATS_PER_BAR + sub_beat - 1) + duration, pitch)
        for bar, sub_beat, pitch, duration, _ in score.notes.tolist()
    ]
    labels = []
    last_end = None
    for t, end, pitch in notes:
        sounding = [m for m in notes if m[0] <= t < m[1]]
        is_top = pitch == max(m[2] for m in sounding)
        free = last_end is None or t >= last_end
        if is_top and free:
            labels.append(evaluate.MELODY)
            last_end = end
        else:
            labels.append(evaluate.NON_MELODY)
    return np.array(labels, dtype=np.int64)


def random_grid_score(
    rng: np.random.Generator,
    *,
    source_id: str = "fixture",
    max_bars: int = 8,
    max_notes_per_bar: int = 6,
    with_velocity: bool = True,
    allow_empty_bars: bool = True,
    allow_trailing_empty_bars: bool = False,
) -> Score:
    """A random well-formed Score, velocity classes NO_VELOCITY unless
    with_velocity.

    Unless allow_trailing_empty_bars is set, the last bar holds at least one
    note so the score survives an SMF write/read (num_bars is re-inferred
    from the last onset there).
    """
    num_bars = int(rng.integers(1, max_bars + 1))
    taken: set[tuple[int, int]] = set()  # (onset, pitch) must be unique
    notes: list[tuple[int, int, int, int, int]] = []
    for bar in range(num_bars):
        low = 0 if allow_empty_bars else 1
        if bar == num_bars - 1 and not allow_trailing_empty_bars:
            low = 1
        count = int(rng.integers(low, max_notes_per_bar + 1))
        for _ in range(count):
            sub_beat = int(rng.integers(1, SUB_BEATS_PER_BAR + 1))
            pitch = int(rng.integers(PITCH_MIN, PITCH_MAX + 1))
            onset = bar * SUB_BEATS_PER_BAR + sub_beat - 1
            if (onset, pitch) in taken:
                continue
            taken.add((onset, pitch))
            duration = int(rng.integers(1, 65))
            velocity = int(rng.integers(0, 6)) if with_velocity else NO_VELOCITY
            notes.append((bar, sub_beat, pitch, duration, velocity))
        if bar == num_bars - 1 and not allow_trailing_empty_bars and not any(
            n[0] == bar for n in notes
        ):
            notes.append((bar, 1, 60, 4, 3 if with_velocity else NO_VELOCITY))
    if allow_trailing_empty_bars:
        # (bar, sub_beat, pitch) order is (onset, pitch) order
        return Score(source_id=source_id, notes=sorted(notes, key=lambda n: n[:3]),
                     num_bars=num_bars)
    return make_score(source_id, notes)
