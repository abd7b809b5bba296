"""Codec tests: vocabulary layout, round trips, grammar errors, chunking."""

from __future__ import annotations

import numpy as np
import pytest

from midibert.smf import QuantNote, Score, make_score
from midibert.tokens import (
    CHUNK_LEN,
    CP_EMPTY_BAR,
    CP_FIELDS,
    CP_MASK,
    CP_PAD,
    REMI_BAR,
    REMI_MASK,
    REMI_PAD,
    DecodeError,
    RemiToken,
    SuperToken,
    chunk,
    decode_cp,
    decode_remi,
    encode_cp,
    encode_remi,
    vocab,
)

from .support import random_grid_score, strip_velocity


class TestVocab:
    def test_remi_size_and_composition(self):
        voc = vocab("remi")
        assert len(voc) == 169
        sizes = voc.type_sizes()
        assert sizes == {"Pad": 1, "Bar": 1, "Sub-beat": 16, "Pitch": 86,
                         "Duration": 64, "Mask": 1}

    def test_cp_field_sizes(self):
        voc = vocab("cp")
        assert voc.field_sizes == (4, 18, 88, 66)
        assert len(voc) == 176

    def test_pad_is_zero_mask_is_last(self):
        remi = vocab("remi")
        assert remi.pad_id == 0 and remi.mask_id == len(remi) - 1
        cp = vocab("cp")
        assert list(cp.pad_ids()) == [0, 0, 0, 0]
        assert list(cp.mask_ids()) == [s - 1 for s in cp.field_sizes]

    def test_ids_are_dense_ascending_blocks(self):
        voc = vocab("remi")
        # Sub-beat block directly after Bar, ascending values
        assert [voc.token_to_id[RemiToken("Sub-beat", v)] for v in (1, 16)] == [2, 17]
        assert [voc.token_to_id[RemiToken("Pitch", v)] for v in (22, 107)] == [18, 103]
        assert [voc.token_to_id[RemiToken("Duration", v)] for v in (1, 64)] == [104, 167]

    def test_content_ids_exclude_pad_and_mask(self):
        remi = vocab("remi")
        assert len(remi.content_ids()) == 167
        cp = vocab("cp")
        assert [len(cp.content_ids(f)) for f in CP_FIELDS] == [2, 16, 86, 64]


def two_bar_six_note_score() -> Score:
    notes = [
        QuantNote(0, 1, 60, 8), QuantNote(0, 5, 64, 8), QuantNote(0, 9, 67, 16),
        QuantNote(1, 1, 72, 8), QuantNote(1, 9, 71, 8), QuantNote(1, 13, 69, 4),
    ]
    return make_score("fig", notes)


class TestEncode:
    def test_step_counts_two_bars_six_notes(self):
        # 3 tokens per note + 1 per bar vs 1 super token per note
        score = two_bar_six_note_score()
        assert len(encode_remi(score)) == 20
        assert len(encode_cp(score)) == 6

    def test_step_count_identity_random(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            score = random_grid_score(
                rng, with_velocity=False, allow_trailing_empty_bars=True
            )
            empty_bars = score.num_bars - len({n.bar_index for n in score.notes})
            assert len(encode_remi(score)) == 3 * len(score.notes) + score.num_bars
            assert len(encode_cp(score)) == len(score.notes) + empty_bars

    def test_remi_stream_shape(self):
        score = make_score("s", [QuantNote(0, 3, 60, 8)])
        assert [str(t) for t in encode_remi(score)] == [
            "Bar", "Sub-beat(3)", "Pitch(60)", "Duration(8)",
        ]

    def test_cp_bar_flags(self):
        score = two_bar_six_note_score()
        flags = [t.bar for t in encode_cp(score)]
        assert flags == ["New", "Cont", "Cont", "New", "Cont", "Cont"]

    def test_empty_bar_forms(self):
        score = Score("s", (QuantNote(1, 1, 60, 4),), num_bars=2)
        assert encode_remi(score)[:2] == [REMI_BAR, REMI_BAR]
        assert encode_cp(score)[0] == CP_EMPTY_BAR

    def test_empty_score(self):
        score = Score("s", (), num_bars=0)
        assert encode_remi(score) == [] and encode_cp(score) == []


class TestDecode:
    def test_round_trip_including_trailing_empty_bars(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            score = strip_velocity(
                random_grid_score(rng, allow_trailing_empty_bars=True, source_id="s")
            )
            assert decode_remi(encode_remi(score), source_id="s") == score
            assert decode_cp(encode_cp(score), source_id="s") == score

    def test_pad_and_mask_steps_skipped(self):
        tokens = [REMI_BAR, REMI_MASK, RemiToken("Sub-beat", 1),
                  RemiToken("Pitch", 60), RemiToken("Duration", 4), REMI_PAD]
        score = decode_remi(tokens)
        assert len(score.notes) == 1 and score.num_bars == 1

    def test_cp_pad_and_mask_steps_skipped(self):
        tokens = [SuperToken("New", 1, 60, 4), CP_PAD, CP_MASK]
        score = decode_cp(tokens)
        assert len(score.notes) == 1 and score.num_bars == 1

    @pytest.mark.parametrize(
        "tokens, match",
        [
            ([RemiToken("Sub-beat", 1)], "before any Bar"),
            ([REMI_BAR, RemiToken("Pitch", 60)], "expected Sub-beat"),
            ([REMI_BAR, RemiToken("Sub-beat", 1), RemiToken("Duration", 4)], "expected Pitch"),
            ([REMI_BAR, RemiToken("Sub-beat", 1), RemiToken("Pitch", 60)], "ends inside"),
            ([REMI_BAR, RemiToken("Sub-beat", 1), REMI_BAR], "interrupts"),
        ],
    )
    def test_remi_grammar_errors(self, tokens, match):
        with pytest.raises(DecodeError, match=match):
            decode_remi(tokens)

    def test_remi_error_reports_step(self):
        with pytest.raises(DecodeError, match=r"step 2"):
            decode_remi([REMI_BAR, RemiToken("Sub-beat", 1), RemiToken("Sub-beat", 2)])

    @pytest.mark.parametrize(
        "tokens, match",
        [
            ([SuperToken("Cont", 1, 60, 4)], "Cont before any New"),
            ([SuperToken("New", "Pad", 60, 4)], "Pad in some fields"),
            ([SuperToken("Mask", 1, 60, 4)], "Mask in some fields"),
        ],
    )
    def test_cp_grammar_errors(self, tokens, match):
        with pytest.raises(DecodeError, match=match):
            decode_cp(tokens)


class TestChunk:
    def test_empty_stream_yields_no_chunks(self):
        assert chunk([], "p") == []

    def test_pad_fill_and_window_count(self):
        score = Score("s", (), num_bars=600)  # 600 Bar tokens
        chunks = chunk(encode_remi(score), "p")
        assert [c.chunk_index for c in chunks] == [0, 1]
        voc = vocab("remi")
        bar_id = voc.token_to_id[REMI_BAR]
        assert (chunks[0].ids == bar_id).all()
        assert (chunks[1].ids[: 600 - CHUNK_LEN] == bar_id).all()
        assert (chunks[1].ids[600 - CHUNK_LEN :] == voc.pad_id).all()

    def test_exact_multiple_has_no_pad_chunk(self):
        tokens = [REMI_BAR] * CHUNK_LEN
        assert len(chunk(tokens, "p")) == 1

    def test_note_positions_remi(self):
        rng = np.random.default_rng(23)
        score = random_grid_score(rng, max_bars=40, max_notes_per_bar=16,
                                  with_velocity=False)
        chunks = chunk(encode_remi(score), "p")
        voc = vocab("remi")
        seen = []
        for c in chunks:
            for step, note_index in c.note_positions:
                token = voc.id_to_token[c.ids[step]]
                assert token.kind == "Pitch"
                assert token.value == score.notes[note_index].pitch
                seen.append(note_index)
        assert seen == list(range(len(score.notes)))

    def test_note_positions_cp(self):
        rng = np.random.default_rng(29)
        score = random_grid_score(rng, max_bars=40, max_notes_per_bar=16,
                                  with_velocity=False)
        chunks = chunk(encode_cp(score), "p")
        voc = vocab("cp")
        seen = []
        for c in chunks:
            for step, note_index in c.note_positions:
                token = SuperToken(
                    *(voc.id_to_value[f][i] for f, i in zip(CP_FIELDS, c.ids[step]))
                )
                note = score.notes[note_index]
                assert (token.sub_beat, token.pitch, token.duration) == (
                    note.sub_beat, note.pitch, note.duration_units)
                seen.append(note_index)
        assert seen == list(range(len(score.notes)))

    def test_empty_bar_steps_are_not_note_positions(self):
        score = Score("s", (QuantNote(1, 1, 60, 4),), num_bars=3)
        (c,) = chunk(encode_cp(score), "p")
        assert c.note_positions == ((1, 0),)

    def test_chunks_carry_piece_identity(self):
        score = Score("s", (), num_bars=700)
        chunks = chunk(encode_remi(score), "piece-7")
        assert all(c.piece_id == "piece-7" for c in chunks)

    def test_cp_ids_shape(self):
        score = two_bar_six_note_score()
        (c,) = chunk(encode_cp(score), "p")
        assert c.ids.shape == (CHUNK_LEN, 4)
