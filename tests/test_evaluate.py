"""Metrics, confusion tables, baselines, and the skyline melody rule."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from midibert import corpus, evaluate
from midibert.corpus import IGNORE_LABEL, TASKS, SynthSpec, synth_corpus
from midibert.smf import NO_VELOCITY, make_score

from .support import skyline_oracle


def random_score(rng, n_notes, bars=4):
    notes = [
        (
            int(rng.integers(0, bars)),  # bar
            int(rng.integers(1, 17)),    # sub-beat
            int(rng.integers(22, 108)),  # pitch
            int(rng.integers(1, 65)),    # duration
            NO_VELOCITY,
        )
        for _ in range(n_notes)
    ]
    return make_score("random", notes)


def note(bar: int, sub_beat: int, pitch: int, duration: int) -> tuple[int, ...]:
    """A note row without dynamics."""
    return (bar, sub_beat, pitch, duration, NO_VELOCITY)


class TestAccuracy:
    def test_perfect_and_disjoint(self):
        labels = np.array([0, 1, 2, 1])
        assert evaluate.accuracy(labels, labels) == 1.0
        assert evaluate.accuracy(labels, (labels + 1) % 3) == 0.0

    def test_hand_counted_fraction(self):
        preds = np.array([0, 0, 1, 1, 2, 2, 0, 1, 2, 0])
        labels = np.array([0, 1, 1, 1, 2, 0, 0, 0, 2, 0])
        # hand-computed: positions 0,2,3,4,6,8,9 agree -> 7/10
        assert evaluate.accuracy(preds, labels) == 0.7

    def test_ignore_label_skipped(self):
        preds = np.array([0, 1, 0])
        labels = np.array([0, IGNORE_LABEL, 1])
        assert evaluate.accuracy(preds, labels) == 0.5

    def test_errors(self):
        with pytest.raises(ValueError, match="shape"):
            evaluate.accuracy(np.zeros(3), np.zeros(4))
        with pytest.raises(ValueError, match="labeled"):
            evaluate.accuracy(np.zeros(2), np.full(2, IGNORE_LABEL))


class TestConfusion:
    def test_hand_counted_table(self):
        preds = np.array([0, 0, 1, 1, 2, 2, 0, 1, 2, 0])
        labels = np.array([0, 1, 1, 1, 2, 0, 0, 0, 2, 0])
        table = evaluate.confusion(preds, labels, ("a", "b", "c"))
        # hand-counted: actual 0 -> preds 0,2,0,1,0; actual 1 -> 0,1,1; actual 2 -> 2,2
        expected = np.array([[3, 1, 1], [1, 2, 0], [0, 0, 2]])
        assert np.array_equal(table.counts, expected)
        assert table.accuracy() == evaluate.accuracy(preds, labels)
        assert table.total() == 10

    def test_diagonal_when_perfect(self):
        labels = np.array([0, 1, 1, 2])
        table = evaluate.confusion(labels, labels, ("x", "y", "z"))
        assert np.array_equal(table.counts, np.diag([1, 2, 1]))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 6), st.integers(1, 40), st.integers(0, 10_000))
    def test_trace_equals_accuracy(self, k, n, seed):
        rng = np.random.default_rng(seed)
        preds = rng.integers(0, k, size=n)
        labels = rng.integers(0, k, size=n)
        table = evaluate.confusion(preds, labels, tuple(f"c{i}" for i in range(k)))
        assert table.accuracy() == evaluate.accuracy(preds, labels)

    def test_row_percent_sums(self):
        rng = np.random.default_rng(0)
        preds = rng.integers(0, 3, size=50)
        labels = rng.integers(0, 3, size=50)
        table = evaluate.confusion(preds, labels, ("a", "b", "c"))
        sums = table.row_percent().sum(axis=1)
        assert np.all(np.abs(sums - 100.0) < 0.1)

    def test_unseen_actual_class_row_is_zero(self):
        table = evaluate.confusion([0, 0], [0, 0], ("a", "b"))
        assert np.array_equal(table.row_percent()[1], [0.0, 0.0])

    def test_csv_layout(self):
        table = evaluate.confusion([0, 1, 1], [0, 0, 1], ("a", "b"))
        assert table.csv_text() == "actual\\predicted,a,b\na,1,1\nb,0,1\n"

    def test_render_contains_percentages(self):
        preds = [0, 0, 0, 1]
        labels = [0, 0, 1, 1]  # actual "low" always predicted low; "high" split
        table = evaluate.confusion(preds, labels, ("low", "high"))
        lines = table.render().strip().split("\n")
        assert len(lines) == 3
        assert "100.0" in lines[1]
        assert "50.0" in lines[2]

    def test_label_range_checked(self):
        with pytest.raises(ValueError, match="outside"):
            evaluate.confusion([0, 3], [0, 1], ("a", "b"))
        with pytest.raises(ValueError, match="labeled"):
            evaluate.confusion([], [], ("a", "b"))

    def test_precision_recall_hand_case(self):
        table = evaluate.confusion([0, 0, 1, 0], [0, 1, 1, 1], ("a", "b"))
        (pa, ra), (pb, rb) = table.precision_recall()
        # hand-computed from counts [[1,0],[2,1]]
        assert (pa, ra) == (1 / 3, 1.0)
        assert (pb, rb) == (1.0, 1 / 3)


class TestMajorityBaseline:
    def test_most_frequent_wins(self):
        labels = np.array([5] * 9 + [2])
        assert evaluate.majority_baseline(labels) == 5

    def test_tie_takes_smallest(self):
        assert evaluate.majority_baseline([3, 1, 3, 1]) == 1

    def test_single_class_scores_one(self):
        labels = np.full(8, 4)
        cls = evaluate.majority_baseline(labels)
        assert evaluate.accuracy(np.full(8, cls), labels) == 1.0

    def test_balanced_four_class_floor(self):
        labels = np.repeat([0, 1, 2, 3], 25)
        cls = evaluate.majority_baseline(labels)
        assert evaluate.accuracy(np.full(100, cls), labels) == 0.25

    def test_skewed_floor_matches_distribution(self):
        rng = np.random.default_rng(1)
        labels = rng.choice([0, 1], size=1000, p=[0.9, 0.1])
        cls = evaluate.majority_baseline(labels)
        assert cls == 0
        measured = evaluate.accuracy(np.full(1000, cls), labels)
        assert abs(measured - (labels == 0).mean()) < 1e-12

    def test_ignores_markers_and_rejects_empty(self):
        assert evaluate.majority_baseline([IGNORE_LABEL, IGNORE_LABEL, 2]) == 2
        with pytest.raises(ValueError, match="labeled"):
            evaluate.majority_baseline([IGNORE_LABEL])


class TestSkyline:
    def test_single_note_is_melody(self):
        score = make_score("s", [note(0, 1, 60, 4)])
        assert evaluate.skyline(score).tolist() == [evaluate.MELODY]

    def test_simultaneous_notes_keep_highest(self):
        score = make_score("s", [note(0, 1, 60, 4), note(0, 1, 72, 4)])
        labels = evaluate.skyline(score)
        by_pitch = dict(zip(score.notes[:, 2].tolist(), labels.tolist()))
        assert by_pitch[72] == evaluate.MELODY
        assert by_pitch[60] == evaluate.NON_MELODY

    def test_sustained_high_note_shadows_later_low_note(self):
        # the held top note is still sounding at the later onset
        score = make_score("s", [note(0, 1, 80, 16), note(0, 3, 60, 4)])
        labels = evaluate.skyline(score)
        assert labels.tolist() == [evaluate.MELODY, evaluate.NON_MELODY]

    def test_overlapping_top_note_excluded_by_monophony(self):
        # the second note is the top at its onset but overlaps the first
        # selected note, so the rule skips it
        score = make_score("s", [note(0, 1, 80, 8), note(0, 3, 90, 4)])
        labels = evaluate.skyline(score)
        assert labels.tolist() == [evaluate.MELODY, evaluate.NON_MELODY]

    def test_back_to_back_notes_both_selected(self):
        score = make_score("s", [note(0, 1, 80, 4), note(0, 3, 70, 4)])
        assert evaluate.skyline(score).tolist() == [evaluate.MELODY, evaluate.MELODY]

    def test_matches_declarative_oracle_on_random_scores(self):
        rng = np.random.default_rng(42)
        for trial in range(120):
            score = random_score(rng, int(rng.integers(1, 40)))
            got = evaluate.skyline(score)
            want = skyline_oracle(score)
            assert np.array_equal(got, want), f"trial {trial}"

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 60))
    def test_selected_line_is_monophonic(self, seed, n_notes):
        score = random_score(np.random.default_rng(seed), n_notes)
        labels = evaluate.skyline(score)
        bar, sub_beat, _, duration, _ = score.notes[labels == evaluate.MELODY].T
        onsets = (2 * (16 * bar + sub_beat - 1)).tolist()  # in duration units
        ends = (2 * (16 * bar + sub_beat - 1) + duration).tolist()
        for prev_end, onset in zip(ends, onsets[1:]):
            assert onset >= prev_end
        assert len(onsets) == len(set(onsets))

    def test_perfect_on_layered_synthetic_corpus(self):
        pieces = synth_corpus(SynthSpec(task="melody", pieces=6, bars_per_piece=8), seed=3)
        for piece in pieces:
            melody = np.array(piece.note_labels) == TASKS["melody"].class_names.index("melody")
            truth = np.where(melody, evaluate.MELODY, evaluate.NON_MELODY)
            assert evaluate.accuracy(evaluate.skyline(piece.score), truth) == 1.0


class TestReport:
    def test_melody_report_files(self, tmp_path):
        rng = np.random.default_rng(2)
        preds = rng.integers(0, 3, size=60)
        labels = rng.integers(0, 3, size=60)
        table = evaluate.confusion(preds, labels, TASKS["melody"].class_names)
        paths = evaluate.write_report(
            tmp_path / "melody", "melody", table,
            split_sizes={"test": 60}, extra={"baseline_accuracy": 0.4},
        )
        metrics = paths[0].read_text()
        assert "task = melody" in metrics
        assert "test_chunks = 60" in metrics
        assert f"accuracy = {table.accuracy()!r}" in metrics
        assert "precision_bridge = " in metrics
        assert "recall_accompaniment = " in metrics
        assert "baseline_accuracy = 0.4" in metrics
        percent = paths[2].read_text()
        assert percent.startswith(" ")
        counts = paths[1].read_text()
        assert counts.splitlines()[0] == "actual\\predicted,melody,bridge,accompaniment"

    def test_composer_table_uses_initials(self, tmp_path):
        names = TASKS["composer"].class_names
        assert names == ("C", "Y", "H", "E", "J", "S", "M", "W")
        table = evaluate.confusion(np.arange(8), np.arange(8), names)
        paths = evaluate.write_report(tmp_path / "composer", "composer", table)
        assert "C,1,0,0,0,0,0,0,0" in paths[1].read_text()

    def test_emotion_table_shape(self, tmp_path):
        names = TASKS["emotion"].class_names
        assert names == ("HVHA", "HVLA", "LVHA", "LVLA")
        table = evaluate.confusion(np.zeros(4, int), np.arange(4), names)
        paths = evaluate.write_report(tmp_path / "emotion", "emotion", table)
        rows = paths[1].read_text().strip().splitlines()
        assert len(rows) == 5
