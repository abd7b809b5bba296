"""Masked-token corruption for pre-training.

Each content step is selected independently with probability 0.15. A
selected step is replaced by the Mask token 80% of the time, by a random
content token 10%, and kept unchanged 10% — one categorical draw, not two
passes. For CP the whole super token is selected: all four fields are
masked, redrawn (per field, uniform over that field's content values), or
kept together. Pad steps are never selected, and for CP neither are
empty-bar markers (their Pad fields are not note content). Everything is a
pure function of (ids, seed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tokens import CpVocab, RemiVocab, Vocabulary

SELECT_P = 0.15
MASK_P, RANDOM_P = 0.8, 0.1  # remaining 0.1 keeps the original

MODE_UNSELECTED, MODE_MASK, MODE_RANDOM, MODE_KEEP = -1, 0, 1, 2


@dataclass(frozen=True)
class MaskedBatch:
    """Corrupted inputs plus everything needed to score reconstruction.

    input_ids/target_ids are (N, 512) for REMI or (N, 512, 4) for CP;
    target_ids are the uncorrupted originals. loss_mask marks the selected
    steps. modes records the per-step corruption choice (diagnostics; a
    random redraw can coincide with the original, so the choice cannot be
    recovered from the ids).
    """

    input_ids: np.ndarray
    target_ids: np.ndarray
    loss_mask: np.ndarray
    modes: np.ndarray


def content_steps(ids: np.ndarray, voc: Vocabulary) -> np.ndarray:
    """Boolean (N, 512) map of maskable steps."""
    if isinstance(voc, RemiVocab):
        return ids != voc.pad_id
    pad_ids = voc.pad_ids()
    return (ids != pad_ids).all(axis=-1)  # all-Pad and empty-bar steps drop out


def corrupt(ids: np.ndarray, voc: Vocabulary, seed: int) -> MaskedBatch:
    """Corrupt a stacked batch of chunk ids for masked-token prediction."""
    if ids.ndim not in (2, 3) or ids.shape[0] == 0:
        raise ValueError(f"expected a non-empty (N, steps[, fields]) array, got {ids.shape}")
    is_cp = isinstance(voc, CpVocab)
    if is_cp != (ids.ndim == 3):
        raise ValueError("ids shape does not match the vocabulary's representation")

    rng = np.random.default_rng([seed])
    steps_shape = ids.shape[:2]
    content = content_steps(ids, voc)

    # draw for every step so the stream never depends on the data
    select_u = rng.random(steps_shape)
    mode_u = rng.random(steps_shape)
    if is_cp:
        redraw = np.stack(
            [
                voc.content_ids(field_name)[rng.integers(0, len(voc.content_ids(field_name)), steps_shape)]
                for field_name in ("bar", "sub_beat", "pitch", "duration")
            ],
            axis=-1,
        )
        mask_row = voc.mask_ids()
    else:
        pool = voc.content_ids()
        redraw = pool[rng.integers(0, len(pool), steps_shape)]
        mask_row = np.int64(voc.mask_id)

    selected = content & (select_u < SELECT_P)
    modes = np.full(steps_shape, MODE_UNSELECTED, dtype=np.int8)
    modes[selected & (mode_u < MASK_P)] = MODE_MASK
    modes[selected & (mode_u >= MASK_P) & (mode_u < MASK_P + RANDOM_P)] = MODE_RANDOM
    modes[selected & (mode_u >= MASK_P + RANDOM_P)] = MODE_KEEP

    input_ids = ids.copy()
    input_ids[modes == MODE_MASK] = mask_row
    input_ids[modes == MODE_RANDOM] = redraw[modes == MODE_RANDOM]

    return MaskedBatch(
        input_ids=input_ids,
        target_ids=ids.copy(),
        loss_mask=selected,
        modes=modes,
    )
