"""Shared fixture generators and reference oracles for the test suite."""

from __future__ import annotations

import numpy as np

from midibert import autodiff as ad
from midibert import evaluate
from midibert.smf import (
    PITCH_MAX,
    PITCH_MIN,
    SUB_BEATS_PER_BAR,
    QuantNote,
    Score,
    make_score,
)


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


def skyline_oracle(score) -> np.ndarray:
    """Direct transcription of the rule: a note is melody iff its pitch is
    the maximum among notes sounding at its onset and it starts at or after
    the end of the previously selected melody note."""
    labels = []
    last_end = None
    for note in score.notes:
        t = note.onset_units
        sounding = [m for m in score.notes if m.onset_units <= t < m.end_units]
        is_top = note.pitch == max(m.pitch for m in sounding)
        free = last_end is None or t >= last_end
        if is_top and free:
            labels.append(evaluate.MELODY)
            last_end = note.end_units
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
    """A random well-formed Score.

    Unless allow_trailing_empty_bars is set, the last bar holds at least one
    note so the score survives an SMF write/read (num_bars is re-inferred
    from the last onset there).
    """
    num_bars = int(rng.integers(1, max_bars + 1))
    taken: set[tuple[int, int]] = set()  # (onset, pitch) must be unique
    notes: list[QuantNote] = []
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
            notes.append(
                QuantNote(
                    bar_index=bar,
                    sub_beat=sub_beat,
                    pitch=pitch,
                    duration_units=int(rng.integers(1, 65)),
                    velocity_class=int(rng.integers(0, 6)) if with_velocity else None,
                )
            )
        if bar == num_bars - 1 and not allow_trailing_empty_bars and not any(
            n.bar_index == bar for n in notes
        ):
            notes.append(
                QuantNote(
                    bar_index=bar,
                    sub_beat=1,
                    pitch=60,
                    duration_units=4,
                    velocity_class=3 if with_velocity else None,
                )
            )
    if allow_trailing_empty_bars:
        return Score(
            source_id=source_id,
            notes=tuple(sorted(notes, key=lambda n: (n.onset_sub_beats, n.pitch))),
            num_bars=num_bars,
        )
    return make_score(source_id, notes)
