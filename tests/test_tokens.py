"""Codec tests: vocabulary layout, round trips, grammar errors, chunking.

A token is its id: REMI streams are (steps,) id arrays and CP streams are
(steps, 4) arrays of per-field ids, so every case here is spelled in ids.
REMI ids: Pad 0, Bar 1, Sub-beat 1..16 at 2..17, Pitch 22..107 at 18..103,
Duration 1..64 at 104..167, Mask 168. CP fields: bar Pad 0 / New 1 / Cont 2
/ Mask 3; sub_beat, pitch and duration hold their values from id 1 up
(pitch 60 is id 39) with Mask last (17, 87, 65)."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from midibert.smf import NO_VELOCITY, PITCH_MIN, Score, make_score
from midibert.tokens import (
    CHUNK_LEN,
    CP_FIELDS,
    DecodeError,
    chunk,
    decode_cp,
    decode_remi,
    encode_cp,
    encode_remi,
    vocab,
)

from .support import random_grid_score, strip_velocity

REMI_PAD, REMI_BAR, REMI_MASK = 0, 1, 168
CP_PAD, CP_MASK, CP_EMPTY_BAR = [0, 0, 0, 0], [3, 17, 87, 65], [1, 0, 0, 0]


def note(bar: int, sub_beat: int, pitch: int, duration: int) -> tuple[int, ...]:
    """A note row without dynamics."""
    return (bar, sub_beat, pitch, duration, NO_VELOCITY)


class TestVocab:
    def test_remi_size_and_composition(self):
        voc = vocab("remi")
        assert len(voc) == 169
        sizes = voc.type_sizes()
        assert list(sizes.items()) == [("Pad", 1), ("Bar", 1), ("Sub-beat", 16),
                                       ("Pitch", 86), ("Duration", 64), ("Mask", 1)]

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
        # each block's lowest and highest value, encoded: Sub-beat directly
        # after Bar, then Pitch, then Duration, each ascending
        score = make_score("s", [note(0, 1, 22, 1), note(0, 16, 107, 64)])
        ids = encode_remi(score).tolist()
        assert [ids[1], ids[4]] == [2, 17]
        assert [ids[2], ids[5]] == [18, 103]
        assert [ids[3], ids[6]] == [104, 167]

    def test_content_ids_exclude_pad_and_mask(self):
        remi = vocab("remi")
        assert len(remi.content_ids()) == 167
        cp = vocab("cp")
        assert [len(cp.content_ids(f)) for f in CP_FIELDS] == [2, 16, 86, 64]


def two_bar_six_note_score() -> Score:
    notes = [
        note(0, 1, 60, 8), note(0, 5, 64, 8), note(0, 9, 67, 16),
        note(1, 1, 72, 8), note(1, 9, 71, 8), note(1, 13, 69, 4),
    ]
    return make_score("fig", notes)


class TestEncode:
    def test_step_counts_two_bars_six_notes(self):
        # 3 tokens per note + 1 per bar vs 1 super token per note
        score = two_bar_six_note_score()
        assert encode_remi(score).shape == (20,)
        assert encode_cp(score).shape == (6, 4)

    def test_step_count_identity_random(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            score = random_grid_score(
                rng, with_velocity=False, allow_trailing_empty_bars=True
            )
            empty_bars = score.num_bars - len(set(score.notes[:, 0].tolist()))
            assert len(encode_remi(score)) == 3 * len(score.notes) + score.num_bars
            assert len(encode_cp(score)) == len(score.notes) + empty_bars

    def test_remi_stream_shape(self):
        # Bar, Sub-beat(3), Pitch(60), Duration(8)
        score = make_score("s", [note(0, 3, 60, 8)])
        assert encode_remi(score).tolist() == [1, 4, 56, 111]

    def test_cp_bar_flags(self):
        score = two_bar_six_note_score()
        flags = encode_cp(score)[:, 0].tolist()
        assert flags == [1, 2, 2, 1, 2, 2]  # New Cont Cont New Cont Cont

    def test_empty_bar_forms(self):
        score = Score("s", [note(1, 1, 60, 4)], num_bars=2)
        assert encode_remi(score)[:2].tolist() == [REMI_BAR, REMI_BAR]
        assert encode_cp(score)[0].tolist() == CP_EMPTY_BAR

    def test_empty_score(self):
        score = Score("s", [], num_bars=0)
        assert encode_remi(score).shape == (0,) and encode_cp(score).shape == (0, 4)


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
        ids = [REMI_BAR, REMI_MASK, 2, 56, 107, REMI_PAD]
        score = decode_remi(ids)
        assert len(score.notes) == 1 and score.num_bars == 1

    def test_cp_pad_and_mask_steps_skipped(self):
        ids = [[1, 1, 39, 4], CP_PAD, CP_MASK]
        score = decode_cp(ids)
        assert len(score.notes) == 1 and score.num_bars == 1

    @pytest.mark.parametrize(
        "tokens, match",
        [
            ([2], "before any Bar"),
            ([REMI_BAR, 56], "expected Sub-beat"),
            ([REMI_BAR, 2, 107], "expected Pitch"),
            ([REMI_BAR, 2, 56], "ends inside"),
            ([REMI_BAR, 2, REMI_BAR], "interrupts"),
        ],
    )
    def test_remi_grammar_errors(self, tokens, match):
        with pytest.raises(DecodeError, match=match):
            decode_remi(tokens)

    def test_remi_error_reports_step(self):
        with pytest.raises(DecodeError, match=r"step 2"):
            decode_remi([REMI_BAR, 2, 3])

    @pytest.mark.parametrize(
        "tokens, match",
        [
            ([[2, 1, 39, 4]], "Cont before any New"),
            ([[1, 0, 39, 4]], "Pad in some fields"),
            ([[3, 1, 39, 4]], "Mask in some fields"),
        ],
    )
    def test_cp_grammar_errors(self, tokens, match):
        with pytest.raises(DecodeError, match=match):
            decode_cp(tokens)

    @pytest.mark.parametrize("ids, match", [
        ([REMI_BAR, 2, 56, 169], r"id 169 outside the vocabulary \(step 3\)"),
        ([-1], r"id -1 outside the vocabulary \(step 0\)"),
    ])
    def test_remi_id_outside_the_vocabulary(self, ids, match):
        with pytest.raises(DecodeError, match=match):
            decode_remi(ids)

    @pytest.mark.parametrize("field", range(4))
    def test_cp_field_past_its_mask(self, field):
        row = [1, 1, 39, 4]
        row[field] = CP_MASK[field] + 1
        with pytest.raises(DecodeError, match=rf"^{CP_FIELDS[field]} id {row[field]} "
                                              r"outside the vocabulary \(step 1\)"):
            decode_cp([[1, 1, 39, 4], row])


class TestChunk:
    def test_empty_stream_yields_no_chunks(self):
        for stream, representation in ((np.zeros(0, dtype=np.int64), "remi"),
                                       (np.zeros((0, 4), dtype=np.int64), "cp")):
            for streams in ([], [stream]):
                ids, piece, window, positions = chunk(streams, representation)
                assert ids.shape == (0, CHUNK_LEN, *stream.shape[1:])
                assert piece.shape == window.shape == (0,) and positions.shape == (0, 3)

    def test_pad_fill_and_window_count(self):
        score = Score("s", [], num_bars=600)  # 600 Bar tokens
        ids, _, window, _ = chunk([encode_remi(score)], "remi")
        assert window.tolist() == [0, 1]
        assert (ids[0] == REMI_BAR).all()
        assert (ids[1, : 600 - CHUNK_LEN] == REMI_BAR).all()
        assert (ids[1, 600 - CHUNK_LEN :] == REMI_PAD).all()

    def test_exact_multiple_has_no_pad_chunk(self):
        ids = np.full(CHUNK_LEN, REMI_BAR, dtype=np.int64)
        assert len(chunk([ids], "remi")[0]) == 1

    def test_note_positions_remi(self):
        rng = np.random.default_rng(23)
        score = random_grid_score(rng, max_bars=40, max_notes_per_bar=16,
                                  with_velocity=False)
        ids, _, _, positions = chunk([encode_remi(score)], "remi")
        seen = []
        for row, step, note_index in positions.tolist():
            # the Pitch step: its id is in the Pitch block, at the note's pitch
            assert 18 <= ids[row, step] <= 103
            assert ids[row, step] - 18 + PITCH_MIN == score.notes[note_index, 2]
            seen.append(note_index)
        assert seen == list(range(len(score.notes)))

    def test_note_positions_cp(self):
        rng = np.random.default_rng(29)
        score = random_grid_score(rng, max_bars=40, max_notes_per_bar=16,
                                  with_velocity=False)
        ids, _, _, positions = chunk([encode_cp(score)], "cp")
        seen = []
        for row, step, note_index in positions.tolist():
            _, sub_beat, pitch, duration, _ = score.notes[note_index].tolist()
            assert ids[row, step, 1:].tolist() == [sub_beat, pitch - PITCH_MIN + 1, duration]
            seen.append(note_index)
        assert seen == list(range(len(score.notes)))

    def test_empty_bar_steps_are_not_note_positions(self):
        score = Score("s", [note(1, 1, 60, 4)], num_bars=3)
        assert chunk([encode_cp(score)], "cp")[3].tolist() == [[0, 1, 0]]

    def test_chunks_carry_piece_identity(self):
        streams = [encode_remi(Score("s", [], num_bars=700)), encode_remi(Score("t", [], 9))]
        _, piece, window, _ = chunk(streams, "remi")
        assert piece.tolist() == [0, 0, 1] and window.tolist() == [0, 1, 0]

    def test_cp_ids_shape(self):
        score = two_bar_six_note_score()
        assert chunk([encode_cp(score)], "cp")[0].shape == (1, CHUNK_LEN, 4)

    def test_short_pieces_cost_one_block(self):
        # 400 four-bar CP pieces fill about 2% of their block; note steps are
        # found on the real steps, so no temporary scales with the Pad fill
        rng = np.random.default_rng(41)
        streams = [
            encode_cp(random_grid_score(rng, max_bars=4, max_notes_per_bar=8,
                                        with_velocity=False))
            for _ in range(400)
        ]
        tracemalloc.start()
        try:
            ids = chunk(streams, "cp")[0]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ids.nbytes == 400 * CHUNK_LEN * 4 * 8
        assert peak < ids.nbytes + 512 * 1024


def loop_remi(score: Score) -> list[int]:
    """encode_remi as a loop over bars and their notes."""
    out = []
    for bar in range(score.num_bars):
        out.append(REMI_BAR)
        for n_bar, sub_beat, pitch, duration, _ in score.notes.tolist():
            if n_bar == bar:
                out += [1 + sub_beat, 18 + pitch - PITCH_MIN, 103 + duration]
    return out


def loop_cp(score: Score) -> list[list[int]]:
    """encode_cp as a loop over bars and their notes."""
    out = []
    for bar in range(score.num_bars):
        notes = [n for n in score.notes.tolist() if n[0] == bar]
        out += [
            [1 if i == 0 else 2, sub_beat, pitch - PITCH_MIN + 1, duration]
            for i, (_, sub_beat, pitch, duration, _) in enumerate(notes)
        ] or [CP_EMPTY_BAR]
    return out


def loop_note_positions(ids: np.ndarray) -> list[list[tuple[int, int]]]:
    """Each window's note positions, step by step."""
    windows = [[] for _ in range(-(-len(ids) // CHUNK_LEN))]
    notes = 0
    for step, token in enumerate(ids.tolist()):
        if (18 <= token <= 103) if ids.ndim == 1 else all(0 < v < m for v, m in zip(token, CP_MASK)):
            windows[step // CHUNK_LEN].append((step % CHUNK_LEN, notes))
            notes += 1
    return windows


class TestAgainstLoops:
    """The array encoders and chunk against step-by-step loops."""

    @staticmethod
    def check_one_pass(streams, representation):
        """chunk over all `streams` at once: each piece's rows, in turn, hold
        its stream, then Pad, and its note positions are the loop's."""
        ids, piece, window, positions = chunk(streams, representation)
        assert ids.dtype == np.int64 and len(ids) == len(piece) == len(window)
        for p, stream in enumerate(streams):
            rows = np.flatnonzero(piece == p)
            assert len(rows) == -(-len(stream) // CHUNK_LEN)
            assert window[rows].tolist() == list(range(len(rows)))
            if len(rows):
                assert rows.tolist() == list(range(rows[0], rows[0] + len(rows)))
            padded = ids[rows].reshape(-1, *stream.shape[1:])
            assert (padded[: len(stream)] == stream).all() and not padded[len(stream) :].any()
            mine = positions[np.isin(positions[:, 0], rows)]
            assert [
                [(s, n) for r, s, n in mine.tolist() if r == row] for row in rows
            ] == loop_note_positions(stream)
        assert (np.diff(piece) >= 0).all()

    def test_encoders_and_note_positions(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            score = random_grid_score(rng, max_bars=60, max_notes_per_bar=10,
                                      with_velocity=False, allow_trailing_empty_bars=True)
            for ids, loop, representation in ((encode_remi(score), loop_remi, "remi"),
                                              (encode_cp(score), loop_cp, "cp")):
                assert ids.dtype == np.int64 and ids.tolist() == loop(score)
                self.check_one_pass([ids], representation)

    def test_one_pass_over_many_pieces(self):
        rng = np.random.default_rng(37)
        scores = [
            random_grid_score(rng, max_bars=bars, max_notes_per_bar=10, with_velocity=False,
                              allow_trailing_empty_bars=True)
            for bars in [2, 400, 5, 60, 1, 120, 30] * 4
        ]
        # REMI Pitch steps / CP note steps at both ends of a full window
        remi_exact = np.full(CHUNK_LEN, REMI_BAR, dtype=np.int64)
        remi_exact[[0, CHUNK_LEN - 1]] = 18 + 60 - PITCH_MIN
        cp_exact = np.tile(np.array(CP_EMPTY_BAR, dtype=np.int64), (CHUNK_LEN, 1))
        cp_exact[[0, CHUNK_LEN - 1]] = [2, 1, 39, 4]
        for encode, exact, representation in ((encode_remi, remi_exact, "remi"),
                                              (encode_cp, cp_exact, "cp")):
            streams = [encode(s) for s in scores]
            empty = exact[:0]
            streams = [empty, *streams[:10], exact, empty, *streams[10:], exact, empty]
            assert any(len(s) > 2 * CHUNK_LEN for s in streams)
            self.check_one_pass(streams, representation)
