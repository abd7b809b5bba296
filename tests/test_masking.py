"""Corruption tests: determinism, the 80/10/10 taxonomy, CP field coupling."""

from __future__ import annotations

import numpy as np
import pytest

from midibert.masking import (
    MODE_KEEP,
    MODE_MASK,
    MODE_RANDOM,
    MODE_UNSELECTED,
    MaskedBatch,
    content_steps,
    corrupt,
)
from midibert.tokens import CHUNK_LEN, chunk, encode_cp, encode_remi, vocab

from .support import random_grid_score


def remi_batch(rng: np.random.Generator, pieces: int = 12) -> np.ndarray:
    streams = [
        encode_remi(random_grid_score(rng, max_bars=30, max_notes_per_bar=12,
                                      with_velocity=False, source_id=f"p{i}"))
        for i in range(pieces)
    ]
    return chunk(streams, "remi")[0]


def cp_batch(rng: np.random.Generator, pieces: int = 12) -> np.ndarray:
    streams = [
        encode_cp(random_grid_score(rng, max_bars=30, max_notes_per_bar=12,
                                    with_velocity=False, allow_empty_bars=True,
                                    source_id=f"p{i}"))
        for i in range(pieces)
    ]
    return chunk(streams, "cp")[0]


REMI = vocab("remi")
CP = vocab("cp")


class TestDeterminism:
    def test_same_seed_same_batch(self):
        ids = remi_batch(np.random.default_rng(1))
        a = corrupt(ids, REMI, seed=42)
        b = corrupt(ids, REMI, seed=42)
        assert (a.input_ids == b.input_ids).all()
        assert (a.loss_mask == b.loss_mask).all()
        assert (a.modes == b.modes).all()

    def test_different_seed_different_selection(self):
        ids = remi_batch(np.random.default_rng(1))
        a = corrupt(ids, REMI, seed=1)
        b = corrupt(ids, REMI, seed=2)
        assert (a.loss_mask != b.loss_mask).any()

    def test_inputs_not_mutated(self):
        ids = remi_batch(np.random.default_rng(2))
        copy = ids.copy()
        corrupt(ids, REMI, seed=0)
        assert (ids == copy).all()


class TestSelection:
    def test_pad_steps_never_selected(self):
        ids = remi_batch(np.random.default_rng(3))
        batch = corrupt(ids, REMI, seed=5)
        pad = ids == REMI.pad_id
        assert not (batch.loss_mask & pad).any()
        assert (batch.input_ids[pad] == REMI.pad_id).all()

    def test_cp_pad_and_empty_bar_steps_never_selected(self):
        ids = cp_batch(np.random.default_rng(4))
        batch = corrupt(ids, CP, seed=5)
        maskable = content_steps(ids, CP)
        assert not (batch.loss_mask & ~maskable).any()
        # empty-bar markers exist in this corpus and pass through untouched
        empty_bar = (ids[..., 0] != 0) & (ids[..., 1] == 0)
        assert empty_bar.any()
        assert (batch.input_ids[empty_bar] == ids[empty_bar]).all()

    def test_unselected_steps_unchanged(self):
        ids = remi_batch(np.random.default_rng(6))
        batch = corrupt(ids, REMI, seed=9)
        untouched = ~batch.loss_mask
        assert (batch.input_ids[untouched] == ids[untouched]).all()

    def test_targets_are_originals(self):
        ids = cp_batch(np.random.default_rng(7))
        batch = corrupt(ids, CP, seed=9)
        assert (batch.target_ids == ids).all()
        restored = np.where(batch.loss_mask[..., None], batch.target_ids, batch.input_ids)
        assert (restored == ids).all()

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            corrupt(np.zeros((0, CHUNK_LEN), dtype=np.int64), REMI, seed=0)

    def test_shape_vocab_mismatch_rejected(self):
        ids = remi_batch(np.random.default_rng(8))
        with pytest.raises(ValueError, match="does not match"):
            corrupt(ids, CP, seed=0)


class TestTaxonomy:
    def test_remi_modes(self):
        ids = remi_batch(np.random.default_rng(10))
        batch = corrupt(ids, REMI, seed=11)
        assert ((batch.modes == MODE_UNSELECTED) == ~batch.loss_mask).all()
        assert (batch.input_ids[batch.modes == MODE_MASK] == REMI.mask_id).all()
        keep = batch.modes == MODE_KEEP
        assert (batch.input_ids[keep] == ids[keep]).all()
        redrawn = batch.input_ids[batch.modes == MODE_RANDOM]
        assert not np.isin(redrawn, [REMI.pad_id, REMI.mask_id]).any()

    def test_cp_field_coupling(self):
        ids = cp_batch(np.random.default_rng(11))
        batch = corrupt(ids, CP, seed=13)
        masked = batch.input_ids[batch.modes == MODE_MASK]
        assert masked.size and (masked == CP.mask_ids()).all()
        keep = batch.modes == MODE_KEEP
        assert (batch.input_ids[keep] == ids[keep]).all()
        redrawn = batch.input_ids[batch.modes == MODE_RANDOM]
        assert redrawn.size
        for column, field_name in enumerate(("bar", "sub_beat", "pitch", "duration")):
            assert np.isin(redrawn[:, column], CP.content_ids(field_name)).all()

    def test_monte_carlo_rates(self):
        # ≥1e5 content steps; selection 0.15 ± 0.01, modes 80/10/10 ± 2pp
        rng = np.random.default_rng(12)
        pool = REMI.content_ids()
        ids = pool[rng.integers(0, len(pool), size=(250, CHUNK_LEN))]
        assert ids.size >= 100_000
        batch = corrupt(ids, REMI, seed=99)
        rate = batch.loss_mask.mean()
        assert abs(rate - 0.15) < 0.01
        selected = batch.modes[batch.loss_mask]
        assert abs((selected == MODE_MASK).mean() - 0.80) < 0.02
        assert abs((selected == MODE_RANDOM).mean() - 0.10) < 0.02
        assert abs((selected == MODE_KEEP).mean() - 0.10) < 0.02

    def test_cp_monte_carlo_rates(self):
        rng = np.random.default_rng(14)
        columns = [
            CP.content_ids("bar")[rng.integers(0, 2, size=(250, CHUNK_LEN))],
            CP.content_ids("sub_beat")[rng.integers(0, 16, size=(250, CHUNK_LEN))],
            CP.content_ids("pitch")[rng.integers(0, 86, size=(250, CHUNK_LEN))],
            CP.content_ids("duration")[rng.integers(0, 64, size=(250, CHUNK_LEN))],
        ]
        ids = np.stack(columns, axis=-1)
        batch = corrupt(ids, CP, seed=7)
        assert abs(batch.loss_mask.mean() - 0.15) < 0.01
        selected = batch.modes[batch.loss_mask]
        assert abs((selected == MODE_MASK).mean() - 0.80) < 0.02
