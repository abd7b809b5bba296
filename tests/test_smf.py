"""SMF parser/writer and quantization tests.

Byte-level fixtures are built by hand here, independent of the writer, so
parser and writer check each other through the round trip rather than
sharing assumptions.
"""

from __future__ import annotations

import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from midibert import smf
from midibert.smf import (
    NO_VELOCITY,
    NOTE_FIELDS,
    Score,
    SmfParseError,
    UnsupportedMeterError,
    make_score,
    parse_smf,
    quantize,
    velocity_class_of,
    write_smf,
)

from .support import random_grid_score


def build_file(tracks: list[bytes], *, fmt: int = 0, division: int = 480) -> bytes:
    out = struct.pack(">4sLHHH", b"MThd", 6, fmt, len(tracks), division)
    for body in tracks:
        out += struct.pack(">4sL", b"MTrk", len(body)) + body
    return out


EOT = bytes((0x00, 0xFF, 0x2F, 0x00))
TIMESIG_44 = bytes((0x00, 0xFF, 0x58, 0x04, 4, 2, 24, 8))


class TestParse:
    def test_single_note(self):
        # note-on(60, 64) at tick 0, note-off 480 ticks later
        track = TIMESIG_44 + bytes((0x00, 0x90, 0x3C, 0x40, 0x83, 0x60, 0x80, 0x3C, 0x00)) + EOT
        notes, meta = parse_smf(build_file([track]))
        assert notes.dtype == np.int64
        assert notes.tolist() == [[0, 480, 60, 64]]
        assert meta.ticks_per_quarter == 480
        assert meta.time_signatures == ((0, 4, 4),)

    def test_running_status(self):
        track = bytes(
            (0x00, 0x90, 0x3C, 0x50,  # on 60
             0x60, 0x3C, 0x00,        # running-status off 60 after 96 ticks
             0x00, 0x40, 0x50,        # running-status on 64
             0x60, 0x40, 0x00)        # running-status off 64
        ) + EOT
        notes, _ = parse_smf(build_file([track]))
        assert notes.tolist() == [[0, 96, 60, 80], [96, 96, 64, 80]]

    def test_velocity_zero_note_on_is_off(self):
        track = bytes((0x00, 0x90, 0x3C, 0x40, 0x78, 0x90, 0x3C, 0x00)) + EOT
        notes, _ = parse_smf(build_file([track]))
        assert notes.tolist() == [[0, 120, 60, 64]]

    def test_format_1_tracks_merge(self):
        t1 = bytes((0x00, 0x90, 0x3C, 0x40, 0x60, 0x80, 0x3C, 0x00)) + EOT
        t2 = bytes((0x30, 0x91, 0x28, 0x30, 0x60, 0x81, 0x28, 0x00)) + EOT
        notes, _ = parse_smf(build_file([t1, t2], fmt=1))
        assert notes.tolist() == [[0, 96, 60, 64], [48, 96, 40, 48]]

    def test_empty_track(self):
        notes, meta = parse_smf(build_file([EOT]))
        assert notes.shape == (0, 4)
        assert meta.time_signatures == ()

    def test_skips_other_channel_messages(self):
        track = bytes(
            (0x00, 0xC0, 0x05,            # program change
             0x00, 0xB0, 0x40, 0x7F,      # CC
             0x00, 0x90, 0x3C, 0x40,
             0x10, 0xE0, 0x00, 0x40,      # pitch bend
             0x50, 0x80, 0x3C, 0x00)
        ) + EOT
        notes, _ = parse_smf(build_file([track]))
        assert notes.tolist() == [[0, 96, 60, 64]]

    def test_unknown_chunk_type_skipped(self):
        data = build_file([bytes((0x00, 0x90, 0x3C, 0x40, 0x60, 0x80, 0x3C, 0x00)) + EOT])
        alien = struct.pack(">4sL", b"XFIh", 3) + b"abc"
        head, track = data[:14], data[14:]
        notes, _ = parse_smf(head + alien + track)
        assert len(notes) == 1

    def test_overlapping_same_pitch_pairs_first_on_with_first_off(self):
        track = bytes(
            (0x00, 0x90, 0x3C, 0x64,   # on 60, velocity 100, at tick 0
             0x0A, 0x90, 0x3C, 0x32,   # on 60 again, velocity 50, at tick 10
             0x0A, 0x80, 0x3C, 0x00,   # off 60 at tick 20: closes the first
             0x50, 0x80, 0x3C, 0x00)   # off 60 at tick 100: closes the second
        ) + EOT
        notes, _ = parse_smf(build_file([track]))
        assert notes.tolist() == [[0, 20, 60, 100], [10, 90, 60, 50]]

    def test_unpaired_note_on_errors_with_offset(self):
        track = bytes((0x00, 0x90, 0x3C, 0x40)) + EOT
        with pytest.raises(SmfParseError, match=r"unpaired note-on.*byte \d+"):
            parse_smf(build_file([track]))

    def test_stray_note_off_dropped(self):
        track = bytes((0x00, 0x80, 0x3C, 0x00, 0x00, 0x90, 0x3C, 0x40, 0x60, 0x80, 0x3C, 0x00)) + EOT
        notes, _ = parse_smf(build_file([track]))
        assert notes.tolist() == [[0, 96, 60, 64]]

    @pytest.mark.parametrize(
        "data, match",
        [
            (b"RIFF" + bytes(10), "missing MThd"),
            (build_file([], fmt=2), "unsupported SMF format"),
            (struct.pack(">4sLHHH", b"MThd", 6, 0, 1, 0xE250), "SMPTE"),
            (struct.pack(">4sLHHH", b"MThd", 6, 0, 1, 480), "expected 1 track"),
            (struct.pack(">4sLHHH", b"MThd", 6, 0, 1, 480)
             + struct.pack(">4sL", b"MTrk", 99) + EOT, "truncated track"),
        ],
    )
    def test_malformed_inputs(self, data, match):
        with pytest.raises(SmfParseError, match=match):
            parse_smf(data)

    def test_event_past_chunk_end(self):
        # declared track length cuts the note-on in half
        track = bytes((0x00, 0x90, 0x3C))
        data = struct.pack(">4sLHHH", b"MThd", 6, 0, 1, 480)
        data += struct.pack(">4sL", b"MTrk", len(track)) + track
        with pytest.raises(SmfParseError):
            parse_smf(data)

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=400))
    def test_fuzz_never_crashes(self, data):
        try:
            parse_smf(data)
        except SmfParseError:
            pass

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10_000), st.data())
    def test_fuzz_mutated_valid_file(self, seed, data):
        rng = np.random.default_rng(seed)
        base = write_smf(random_grid_score(rng, max_bars=3))
        index = data.draw(st.integers(0, len(base) - 1))
        value = data.draw(st.integers(0, 255))
        mutated = base[:index] + bytes([value]) + base[index + 1 :]
        try:
            parse_smf(mutated)
        except SmfParseError:
            pass


class TestMeter:
    def test_non_4_4_rejected(self):
        track = bytes((0x00, 0xFF, 0x58, 0x04, 3, 2, 24, 8)) + EOT
        _, meta = parse_smf(build_file([track]))
        with pytest.raises(UnsupportedMeterError, match="3/4"):
            smf.check_meter(meta)

    def test_signature_change_rejected(self):
        track = (
            TIMESIG_44
            + bytes((0x81, 0x40, 0xFF, 0x58, 0x04, 6, 3, 24, 8))
            + EOT
        )
        _, meta = parse_smf(build_file([track]))
        assert meta.time_signatures == ((0, 4, 4), (192, 6, 8))
        with pytest.raises(UnsupportedMeterError, match="6/8"):
            smf.check_meter(meta)

    def test_missing_signature_is_4_4(self):
        _, meta = parse_smf(build_file([EOT]))
        smf.check_meter(meta)


class TestQuantize:
    def test_whole_note_at_zero(self):
        score = quantize([(0, 1920, 60, 64)], 480)
        assert score.notes.tolist() == [[0, 1, 60, 32, 3]]
        assert score.num_bars == 1

    def test_onset_tie_rounds_up(self):
        # 60 ticks = half a sub-beat at 480 tpq
        score = quantize([(60, 480, 60, 64)], 480)
        assert score.notes.tolist() == [[0, 2, 60, 8, 3]]

    def test_duration_tie_rounds_up(self):
        # 90 ticks = 1.5 duration units
        score = quantize([(0, 90, 60, 64)], 480)
        assert score.notes.tolist() == [[0, 1, 60, 2, 3]]

    def test_duration_floor_and_ceiling(self):
        score = quantize([(0, 1, 60, 64), (480, 50_000, 61, 64)], 480)
        assert score.notes[:, 3].tolist() == [1, 64]

    def test_pitch_clamps_to_range(self):
        score = quantize([(0, 480, 5, 64), (0, 480, 120, 64)], 480)
        assert score.notes[:, 2].tolist() == [22, 107]

    def test_bar_rollover(self):
        # sub-beat 17 of a 4/4 grid is bar 1, sub-beat 1
        score = quantize([(16 * 120, 480, 60, 64)], 480)
        assert score.notes[0, :2].tolist() == [1, 1]
        assert score.num_bars == 2

    def test_empty_input(self):
        score = quantize([], 480)
        assert score.notes.shape == (0, 5) and score.num_bars == 0

    def test_onset_error_bounded_by_half_sub_beat(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            tpq = int(rng.integers(24, 960))
            onset = int(rng.integers(0, 40 * tpq))
            note = (onset, int(rng.integers(1, 4 * tpq)), 60, 64)
            ((bar, sub_beat, *_),) = quantize([note], tpq).notes.tolist()
            onset_sub_beats = bar * 16 + sub_beat - 1
            assert abs(onset - onset_sub_beats * tpq / 4) <= tpq / 8 + 1e-9

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 960), st.integers(0, 10**7), st.integers(1, 10**7), st.booleans())
    def test_rounding_is_exact_half_up(self, tpq, onset, duration, tie):
        if tie:  # tpq a multiple of 16 and both on an exact tie
            tpq = 16 * (tpq % 60 + 1)
            onset = (2 * (onset % 10**4) + 1) * tpq // 8
            duration = (2 * (duration % 10**4) + 1) * tpq // 16
            assert Fraction(4 * onset, tpq).denominator == 2
            assert Fraction(8 * duration, tpq).denominator == 2
        ((bar, sub_beat, _, units, _),) = quantize([(onset, duration, 60, 64)], tpq).notes.tolist()
        assert bar * 16 + sub_beat - 1 == math.floor(Fraction(4 * onset, tpq) + Fraction(1, 2))
        expected_units = math.floor(Fraction(8 * duration, tpq) + Fraction(1, 2))
        assert units == min(max(expected_units, 1), 64)


class TestVelocity:
    # bin edges: pp 0-31, p 32-47, mp 48-63, mf 64-79, f 80-95, ff 96-127
    @pytest.mark.parametrize(
        "velocity, expected",
        [(0, 0), (31, 0), (32, 1), (47, 1), (48, 2), (63, 2),
         (64, 3), (79, 3), (80, 4), (95, 4), (96, 5), (127, 5)],
    )
    def test_bin_edges(self, velocity, expected):
        assert velocity_class_of(velocity) == expected

    def test_monotone_and_total(self):
        classes = [velocity_class_of(v) for v in range(128)]
        assert classes[0] == 0 and classes[-1] == 5
        assert all(b - a in (0, 1) for a, b in zip(classes, classes[1:]))

    @pytest.mark.parametrize("velocity", [-1, 128])
    def test_out_of_range(self, velocity):
        with pytest.raises(ValueError):
            velocity_class_of(velocity)

    def test_array_maps_elementwise(self):
        velocities = np.arange(128).reshape(2, 64)
        assert velocity_class_of(velocities).tolist() == np.array(
            [velocity_class_of(v) for v in range(128)]
        ).reshape(2, 64).tolist()
        with pytest.raises(ValueError, match="128"):
            velocity_class_of(np.array([5, 128]))

    def test_midpoints_round_trip(self):
        assert smf.VELOCITY_MIDPOINTS == (16, 40, 56, 72, 88, 112)
        for cls, mid in enumerate(smf.VELOCITY_MIDPOINTS):
            assert velocity_class_of(mid) == cls

    def test_written_velocity_byte_is_midpoint(self):
        score = make_score("s", [(0, 1, 60, 4, 5)])
        raw, _ = parse_smf(write_smf(score))
        assert raw[0, 3] == 112


class TestRoundTrip:
    def test_random_scores_survive_write_parse_quantize(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            score = random_grid_score(rng)
            raw, meta = parse_smf(write_smf(score))
            assert quantize(raw, meta.ticks_per_quarter, source_id=score.source_id) == score

    def test_score_without_velocity_uses_default(self):
        score = make_score("s", [(0, 3, 70, 8, NO_VELOCITY)])
        raw, meta = parse_smf(write_smf(score))
        assert raw[0, 3] == 64
        back = quantize(raw, meta.ticks_per_quarter, source_id="s")
        assert back.notes[0, 4] == velocity_class_of(64)

    def test_writer_output_is_constant_4_4(self):
        rng = np.random.default_rng(3)
        _, meta = parse_smf(write_smf(random_grid_score(rng)))
        smf.check_meter(meta)

    def test_same_tick_off_then_on_pairs_correctly(self):
        # two back-to-back same-pitch notes share a boundary tick
        notes = [(0, 1, 60, 8, 2), (0, 5, 60, 8, 2)]
        score = make_score("s", notes)
        raw, meta = parse_smf(write_smf(score))
        assert quantize(raw, meta.ticks_per_quarter, source_id="s") == score


class TestScoreInvariants:
    def test_note_outside_num_bars_rejected(self):
        with pytest.raises(ValueError, match=r"bar 2 outside 0\.\.1"):
            smf.Score("s", [(2, 1, 60, 4, NO_VELOCITY)], num_bars=2)

    @pytest.mark.parametrize("column, value", [
        (0, -1), (1, 0), (1, 17), (2, 21), (2, 108), (3, 0), (3, 65), (4, -2), (4, 6),
    ])
    def test_column_out_of_range_rejected(self, column, value):
        row = [0, 1, 60, 4, 3]
        Score("s", [row], num_bars=1)
        row[column] = value
        with pytest.raises(ValueError, match=rf"note 0: {NOTE_FIELDS[column]} {value} outside"):
            Score("s", [row], num_bars=1)

    @pytest.mark.parametrize("notes", [[(0, 1, 60, 4)], [(0, 1, 60, 4, 3, 0)], [0, 1, 60, 4, 3]])
    def test_wrong_row_width_rejected(self, notes):
        with pytest.raises(ValueError, match="rows of"):
            Score("s", notes, num_bars=1)

    def test_unsorted_notes_rejected(self):
        notes = [(0, 5, 60, 4, NO_VELOCITY), (0, 1, 60, 4, NO_VELOCITY)]
        with pytest.raises(ValueError, match="sorted"):
            smf.Score("s", notes, num_bars=1)

    def test_notes_are_a_read_only_copy(self):
        rows = np.array([[0, 1, 60, 4, 3]])
        score = Score("s", rows, num_bars=1)
        rows[0, 2] = 61
        assert score.notes.dtype == np.int64 and score.notes[0, 2] == 60
        with pytest.raises(ValueError):
            score.notes[0, 2] = 62

    def test_equality_compares_rows(self):
        a = Score("s", [(0, 1, 60, 4, 3)], num_bars=1)
        assert a == Score("s", np.array([[0, 1, 60, 4, 3]]), num_bars=1)
        assert a != Score("s", [(0, 1, 60, 4, 2)], num_bars=1)
        assert a != Score("s", [(0, 1, 60, 4, 3)], num_bars=2)
        assert a != Score("t", [(0, 1, 60, 4, 3)], num_bars=1)

    def test_make_score_sorts_and_infers_bars(self):
        score = make_score("s", [(3, 2, 60, 4, NO_VELOCITY), (0, 1, 80, 4, NO_VELOCITY)])
        assert score.num_bars == 4
        assert score.notes[:, 0].tolist() == [0, 3]

    def test_make_score_breaks_ties_by_duration_then_velocity(self):
        score = make_score("s", [(0, 1, 60, 4, 2), (0, 1, 60, 4, NO_VELOCITY), (0, 1, 60, 2, 5)])
        assert score.notes.tolist() == [[0, 1, 60, 2, 5], [0, 1, 60, 4, -1], [0, 1, 60, 4, 2]]
