"""Shared fixture generators and reference oracles for the test suite, and
the autodiff ops, gradient check and score helper that only the tests use."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from midibert import autodiff as ad
from midibert import evaluate
from midibert.autodiff import Tensor, _accumulate, _result, _unbroadcast, backward
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


def gelu_formula(a: Tensor) -> Tensor:
    """autodiff.gelu as one expression per pass: the rounding order its
    in-place buffers must keep."""
    x = a.data
    t = np.tanh(ad._GELU_C * (x + 0.044715 * (x * x * x)))

    def rule(g):
        sech2 = 1.0 - t * t
        local = 0.5 * (1.0 + t) + 0.5 * x * sech2 * ad._GELU_C * (1.0 + 3 * 0.044715 * x * x)
        _accumulate(a, g * local, owned=True)

    return _result(0.5 * x * (1.0 + t), (a,), rule)


# --- verification ----------------------------------------------------------------

def gradcheck(
    f: Callable[[], Tensor],
    params: Sequence[Tensor],
    *,
    eps: float = 1e-5,
    sample: int = 200,
    seed: int = 0,
    min_grad: float = 0.0,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    f must rebuild its graph on every call from the given parameter tensors.
    Samples at least `sample` coordinates across all parameters; the
    relative error denominator is max(|analytic|, |numeric|, 1e-8).

    min_grad restricts sampling to coordinates whose analytic gradient
    magnitude is at least that large. Large graphs have coordinates whose
    gradients nearly cancel (softmax rows are mean-zero); below roughly
    |loss|·1e-12/eps those are buried in difference-rounding noise and read
    as false disagreements, while a wrong backward rule still shows up as an
    O(1) error on the well-scaled coordinates that remain.
    """
    for p in params:
        if not p.requires_grad:
            raise ValueError("gradcheck parameters must require gradients")
        p.grad = None
    loss = f()
    backward(loss)
    analytic = [np.array(p.grad, copy=True) for p in params]

    rng = np.random.default_rng([seed])
    sizes = np.array([p.data.size for p in params])
    magnitudes = np.concatenate([np.abs(a).ravel() for a in analytic])
    eligible = np.flatnonzero(magnitudes >= min_grad)
    if eligible.size == 0:
        raise ValueError(f"no coordinate has gradient magnitude >= {min_grad}")
    draws = max(sample, 1)
    chosen = (
        eligible if draws >= eligible.size else rng.choice(eligible, size=draws, replace=False)
    )
    bounds = np.cumsum(sizes)

    worst = 0.0
    for flat_index in chosen:
        which = int(np.searchsorted(bounds, flat_index, side="right"))
        local = int(flat_index - (bounds[which] - sizes[which]))
        p = params[which]
        view = p.data.reshape(-1)
        original = view[local]
        view[local] = original + eps
        up = float(f().data)
        view[local] = original - eps
        down = float(f().data)
        view[local] = original
        numeric = (up - down) / (2 * eps)
        exact = float(analytic[which].reshape(-1)[local])
        err = abs(numeric - exact) / max(abs(numeric), abs(exact), 1e-8)
        worst = max(worst, err)
    return worst


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
