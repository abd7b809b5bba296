"""Corpus tests: splits, label plumbing, synthetic corpora, store formats.

The classifier-corpus check uses a nearest-centroid classifier over
pitch-class histograms written here, independent of any model code, as the
oracle that the class signal exists.
"""

from __future__ import annotations

import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from midibert.corpus import (
    IGNORE_LABEL,
    SPLIT_NAMES,
    LabeledPiece,
    Store,
    SynthSpec,
    attach_note_labels,
    derive_velocity_labels,
    load_store,
    load_task_data,
    make_splits,
    pieces_to_chunks,
    propagate_note_labels,
    read_manifest,
    read_note_labels,
    read_seq_labels,
    save_store,
    synth_corpus,
    task,
    write_manifest,
    write_note_labels,
    write_seq_labels,
)
from midibert.smf import QuantNote, make_score
from midibert.tokens import CHUNK_LEN, ChunkedSequence, chunk, encode_cp, encode_remi, vocab


class TestSplits:
    def test_deterministic(self):
        ids = [f"p{i}" for i in range(50)]
        assert make_splits(ids, (8, 1, 1), seed=4) == make_splits(ids, (8, 1, 1), seed=4)
        assert make_splits(ids, (8, 1, 1), seed=4) != make_splits(ids, (8, 1, 1), seed=5)

    def test_order_of_input_does_not_matter(self):
        ids = [f"p{i}" for i in range(30)]
        assert make_splits(ids, (8, 1, 1), 1) == make_splits(list(reversed(ids)), (8, 1, 1), 1)

    def test_disjoint_and_complete(self):
        ids = [f"p{i}" for i in range(87)]
        m = make_splits(ids, (8, 1, 1), seed=0)
        union = set(m.train) | set(m.valid) | set(m.test)
        assert union == set(ids)
        assert len(m.train) + len(m.valid) + len(m.test) == len(ids)

    def test_865_pieces_sizes(self):
        # 8:1:1 with floor on valid/test and the remainder in train
        m = make_splits([f"p{i:04d}" for i in range(865)], (8, 1, 1), seed=7)
        assert m.sizes == (693, 86, 86)
        # stated example allows ±1 around 692/86/87 with the total fixed
        assert sum(m.sizes) == 865
        assert all(abs(got - want) <= 1 for got, want in zip(m.sizes, (692, 86, 87)))

    def test_ten_pieces_exact(self):
        m = make_splits([f"p{i}" for i in range(10)], (8, 1, 1), seed=3)
        assert m.sizes == (8, 1, 1)

    def test_remainder_goes_to_train(self):
        m = make_splits([f"p{i}" for i in range(11)], (8, 1, 1), seed=3)
        assert m.sizes == (9, 1, 1)

    def test_two_way_split(self):
        m = make_splits([f"p{i}" for i in range(100)], (85, 15), seed=1)
        assert m.sizes == (85, 15, 0)

    @pytest.mark.parametrize(
        "ids, ratios",
        [(["a", "a", "b"], (8, 1, 1)), (["a", "b"], (8, 1, 1)), (["a"], (85, 15)),
         (["a", "b", "c"], (8, 0, 1)), (["a", "b", "c"], (1,))],
    )
    def test_invalid_inputs(self, ids, ratios):
        with pytest.raises(ValueError):
            make_splits(ids, ratios, seed=0)

    def test_split_of(self):
        m = make_splits([f"p{i}" for i in range(10)], (8, 1, 1), seed=3)
        assert m.split_of(m.valid[0]) == "valid"
        with pytest.raises(KeyError):
            m.split_of("nope")


class TestLabeledPiece:
    def test_count_mismatch_names_piece(self):
        score = make_score("pop_042", [QuantNote(0, 1, 60, 4), QuantNote(0, 5, 64, 4)])
        with pytest.raises(ValueError, match="pop_042.*2 notes.*1 labels"):
            attach_note_labels(score, [0], task("melody"))

    def test_label_out_of_range(self):
        score = make_score("s", [QuantNote(0, 1, 60, 4)])
        with pytest.raises(ValueError, match="outside 0..2"):
            attach_note_labels(score, [7], task("melody"))

    def test_sequence_label_required(self):
        score = make_score("s", [QuantNote(0, 1, 60, 4)])
        with pytest.raises(ValueError, match="bad sequence label"):
            LabeledPiece(score=score, task=task("composer"))

    def test_derive_velocity_labels(self):
        score = make_score("s", [QuantNote(0, 1, 60, 4, velocity_class=5),
                                 QuantNote(0, 5, 62, 4, velocity_class=0)])
        assert derive_velocity_labels(score) == (5, 0)

    def test_derive_velocity_requires_dynamics(self):
        score = make_score("s", [QuantNote(0, 1, 60, 4)])
        with pytest.raises(ValueError, match="no velocity"):
            derive_velocity_labels(score)


class TestPropagation:
    def test_labels_land_on_note_steps(self):
        (piece,) = synth_corpus(SynthSpec("melody", 1, bars_per_piece=40), seed=2)
        for encode in (encode_remi, encode_cp):
            chunks = chunk(encode(piece.score), piece.piece_id)
            rows = propagate_note_labels(piece.note_labels, chunks)
            total = 0
            for c, row in zip(chunks, rows):
                for step, note_index in c.note_positions:
                    assert row[step] == piece.note_labels[note_index]
                    total += 1
                off_note = np.ones(len(row), dtype=bool)
                off_note[[s for s, _ in c.note_positions]] = False
                assert (row[off_note] == IGNORE_LABEL).all()
            assert total == len(piece.score.notes)

    def test_wrong_label_count_rejected(self):
        (piece,) = synth_corpus(SynthSpec("melody", 1), seed=2)
        chunks = chunk(encode_cp(piece.score), piece.piece_id)
        with pytest.raises(ValueError, match="labels but chunk positions"):
            propagate_note_labels(piece.note_labels[:-1], chunks)


class TestSynthMelody:
    def test_registers_and_labels(self):
        pieces = synth_corpus(SynthSpec("melody", 4, bars_per_piece=12), seed=9)
        melody_id = task("melody").class_names.index("melody")
        for piece in pieces:
            for note, label in zip(piece.score.notes, piece.note_labels):
                if label == melody_id:
                    assert 72 <= note.pitch <= 96
                else:
                    assert 36 <= note.pitch <= 60

    def test_melody_voice_tiles_each_bar(self):
        (piece,) = synth_corpus(SynthSpec("melody", 1, bars_per_piece=10), seed=5)
        melody_id = task("melody").class_names.index("melody")
        for bar in range(piece.score.num_bars):
            spans = sorted(
                (n.onset_units, n.end_units)
                for n, l in zip(piece.score.notes, piece.note_labels)
                if l == melody_id and n.bar_index == bar
            )
            assert spans[0][0] == bar * 32
            assert spans[-1][1] == (bar + 1) * 32
            assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))

    def test_deterministic_under_seed(self):
        a = synth_corpus(SynthSpec("melody", 3), seed=11)
        b = synth_corpus(SynthSpec("melody", 3), seed=11)
        assert a == b
        assert a != synth_corpus(SynthSpec("melody", 3), seed=12)


class TestSynthVelocity:
    def test_class_is_function_of_sub_beat(self):
        pieces = synth_corpus(SynthSpec("velocity", 3), seed=1)
        for piece in pieces:
            for note, label in zip(piece.score.notes, piece.note_labels):
                assert label == note.velocity_class
                assert label == (note.sub_beat - 1) * 5 % 6

    def test_all_six_classes_present(self):
        pieces = synth_corpus(SynthSpec("velocity", 6, bars_per_piece=20), seed=1)
        seen = {l for p in pieces for l in p.note_labels}
        assert seen == set(range(6))


class TestSynthClassified:
    def test_labels_round_robin(self):
        pieces = synth_corpus(SynthSpec("composer", 16), seed=3)
        assert [p.sequence_label for p in pieces] == [i % 8 for i in range(16)]
        pieces = synth_corpus(SynthSpec("emotion", 8), seed=3)
        assert [p.sequence_label for p in pieces] == [i % 4 for i in range(8)]

    def test_pitch_classes_stay_in_scale(self):
        pieces = synth_corpus(SynthSpec("composer", 8), seed=3)
        for piece in pieces:
            k = piece.sequence_label
            scale = {((k * 5) % 12 + o) % 12 for o in (0, 2, 4, 7, 9)}
            assert {n.pitch % 12 for n in piece.score.notes} <= scale

    def test_histogram_centroid_separates_classes(self):
        # oracle: nearest centroid on pitch-class histograms beats chance by far
        train = synth_corpus(SynthSpec("emotion", 32, bars_per_piece=8), seed=21)
        test = synth_corpus(SynthSpec("emotion", 16, bars_per_piece=8), seed=22)

        def histogram(piece):
            h = np.zeros(12)
            for n in piece.score.notes:
                h[n.pitch % 12] += 1
            return h / h.sum()

        centroids = np.stack([
            np.mean([histogram(p) for p in train if p.sequence_label == k], axis=0)
            for k in range(4)
        ])
        hits = sum(
            int(np.argmin(np.linalg.norm(centroids - histogram(p), axis=1)) == p.sequence_label)
            for p in test
        )
        assert hits / len(test) > 0.5  # chance is 0.25


class TestSynthPretrain:
    def test_ostinato_repeats_pattern(self):
        pieces = synth_corpus(SynthSpec("pretrain", 5, bars_per_piece=6, style="ostinato"), seed=0)
        for piece in pieces:
            assert len(piece.score.notes) == 4 * 6
            first_bar = [(n.sub_beat, n.pitch, n.duration_units)
                         for n in piece.score.notes if n.bar_index == 0]
            for bar in range(1, 6):
                assert [(n.sub_beat, n.pitch, n.duration_units)
                        for n in piece.score.notes if n.bar_index == bar] == first_bar
        # four distinct patterns cycle
        assert pieces[0].score.notes[0].pitch != pieces[1].score.notes[0].pitch
        assert pieces[4].score.notes[0].pitch == pieces[0].score.notes[0].pitch

    def test_pop_style_chunk_bar_coverage_ratio(self):
        # CP packs ≥2.5x more bars into a 512-step chunk at pop density
        pieces = synth_corpus(
            SynthSpec("pretrain", 6, bars_per_piece=60, notes_per_bar=17, style="pop"),
            seed=8,
        )
        remi_chunks = sum(len(chunk(encode_remi(p.score), p.piece_id)) for p in pieces)
        cp_chunks = sum(len(chunk(encode_cp(p.score), p.piece_id)) for p in pieces)
        bars = sum(p.score.num_bars for p in pieces)
        assert (bars / cp_chunks) / (bars / remi_chunks) >= 2.5


class TestStore:
    def test_round_trip(self, tmp_path):
        pieces = synth_corpus(SynthSpec("melody", 3), seed=4)
        chunks = pieces_to_chunks(pieces, "cp")
        path = tmp_path / "chunks.jsonl"
        save_store(path, chunks, representation="cp", task_name="melody")
        store = load_store(path)
        assert store.representation == "cp" and store.task_name == "melody"
        assert len(store.chunks) == len(chunks)
        for a, b in zip(store.chunks, chunks):
            assert a.piece_id == b.piece_id and a.chunk_index == b.chunk_index
            assert (a.ids == b.ids).all()
            assert a.note_positions == b.note_positions

    def test_schema_mismatch_rejected(self, tmp_path):
        path = tmp_path / "chunks.jsonl"
        path.write_text('{"schema": "chunks-v0", "representation": "cp", "task": "melody"}\n')
        with pytest.raises(ValueError, match="schema"):
            load_store(path)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "chunks.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ValueError, match="not a chunk store"):
            load_store(path)


def reference_store_text(chunks, representation, task_name):
    """The store as json.dumps spells it: the layout save_store must keep."""
    header = {"schema": "chunks-v1", "representation": representation, "task": task_name}
    records = [
        {
            "piece_id": c.piece_id,
            "chunk_index": c.chunk_index,
            "ids": c.ids.tolist(),
            "note_positions": [list(p) for p in c.note_positions],
        }
        for c in chunks
    ]
    return "".join(json.dumps(r) + "\n" for r in [header, *records])


def reference_load(path):
    """(representation, task, [(piece_id, chunk_index, ids, positions)]) via json.loads."""
    header, *records = [json.loads(l) for l in path.read_text(encoding="utf-8").splitlines()]
    return header["representation"], header["task"], [
        (r["piece_id"], r["chunk_index"], np.asarray(r["ids"], dtype=np.int64),
         tuple(tuple(p) for p in r["note_positions"]))
        for r in records
    ]


def random_chunk(rng, representation, piece_id="p", chunk_index=0, notes=3):
    """A chunk of random in-vocabulary ids with `notes` note positions."""
    voc = vocab(representation)
    if representation == "cp":
        ids = rng.integers(0, voc.field_sizes, size=(CHUNK_LEN, 4))
    else:
        ids = rng.integers(0, len(voc), size=CHUNK_LEN)
    steps = np.sort(rng.choice(CHUNK_LEN, size=notes, replace=False)).tolist()
    return ChunkedSequence(piece_id, chunk_index, ids, tuple((s, i) for i, s in enumerate(steps)))


class TestStoreCodec:
    """save_store writes json.dumps's exact bytes without building JSON
    objects, and load_store accepts that layout and nothing else."""

    @pytest.mark.parametrize("representation", ["remi", "cp"])
    def test_bytes_match_json_dumps(self, tmp_path, representation):
        rng = np.random.default_rng(1)
        pieces = synth_corpus(SynthSpec("melody", 2, bars_per_piece=70), seed=4)
        chunks = pieces_to_chunks(pieces, representation)
        assert max(c.chunk_index for c in chunks) > 0
        chunks += [
            random_chunk(rng, representation, 'q"uote', 0, notes=0),
            random_chunk(rng, representation, "back\\slash", 3),
            random_chunk(rng, representation, "Dvořák – Humoreske ♪", 12),
            random_chunk(rng, representation, "tab\tnew\nline\u0001", 1),
        ]
        path = tmp_path / "chunks.jsonl"
        save_store(path, chunks, representation=representation, task_name="melody")
        assert path.read_bytes() == reference_store_text(chunks, representation, "melody").encode()
        store = load_store(path)
        assert [(c.piece_id, c.chunk_index, c.note_positions) for c in store.chunks] == [
            (c.piece_id, c.chunk_index, c.note_positions) for c in chunks
        ]
        assert all(np.array_equal(a.ids, b.ids) for a, b in zip(store.chunks, chunks))

    @pytest.mark.parametrize("representation", ["remi", "cp"])
    def test_empty_store(self, tmp_path, representation):
        path = tmp_path / "chunks.jsonl"
        save_store(path, [], representation=representation, task_name="pretrain")
        assert path.read_bytes() == reference_store_text([], representation, "pretrain").encode()
        store = load_store(path)
        assert (store.representation, store.task_name, store.chunks) == (
            representation, "pretrain", ()
        )

    @settings(max_examples=40, deadline=None)
    @given(
        representation=st.sampled_from(["remi", "cp"]),
        records=st.lists(
            st.tuples(
                st.text(max_size=12),
                st.integers(0, 10**6),
                st.integers(0, 2**32 - 1),
                st.lists(
                    st.tuples(st.integers(0, CHUNK_LEN - 1), st.integers(0, 10**9)), max_size=6
                ),
            ),
            max_size=4,
        ),
    )
    def test_round_trip_matches_json_loads(self, tmp_path_factory, representation, records):
        chunks = [
            ChunkedSequence(
                piece_id, chunk_index,
                random_chunk(np.random.default_rng(seed), representation).ids,
                tuple(positions),
            )
            for piece_id, chunk_index, seed, positions in records
        ]
        path = tmp_path_factory.mktemp("store") / "chunks.jsonl"
        save_store(path, chunks, representation=representation, task_name="emotion")
        expected_text = reference_store_text(chunks, representation, "emotion")
        assert path.read_text(encoding="utf-8") == expected_text
        store = load_store(path)
        rep, task_name, expected = reference_load(path)
        assert (store.representation, store.task_name) == (rep, task_name)
        assert len(store.chunks) == len(expected)
        for c, (piece_id, chunk_index, ids, positions) in zip(store.chunks, expected):
            assert (c.piece_id, c.chunk_index) == (piece_id, chunk_index)
            assert c.note_positions == positions
            assert c.ids.dtype == np.int64 and np.array_equal(c.ids, ids)

    @staticmethod
    def edited_store(tmp_path, representation, old, new):
        """A two-chunk store whose second record (line 3) has `old` replaced by `new`."""
        ids = np.zeros((CHUNK_LEN, 4) if representation == "cp" else CHUNK_LEN, dtype=np.int64)
        ids[0], ids[1] = 1, 2 if representation == "cp" else 5
        chunks = [ChunkedSequence("p", i, ids, ((0, 0), (1, 1))) for i in range(2)]
        path = tmp_path / "chunks.jsonl"
        save_store(path, chunks, representation=representation, task_name="melody")
        head, first, second = path.read_text().splitlines(keepends=True)
        assert old in second
        path.write_text(head + first + second.replace(old, new, 1))
        return path

    REJECTED = {
        "truncated line": ("remi", ', "note_positions"', ""),
        "no final newline": ("remi", "]]}\n", "]]}"),
        "missing key": ("remi", '"chunk_index": 1, ', ""),
        "extra key": ("remi", '{"piece_id"', '{"extra": 1, "piece_id"'),
        "reordered keys": (
            "remi", '"piece_id": "p", "chunk_index": 1', '"chunk_index": 1, "piece_id": "p"'
        ),
        "compact separators": ("remi", '"ids": [1, 5, 0', '"ids": [1,5,0'),
        "doubled space": ("remi", "[1, 5, ", "[1,  5, "),
        "crlf": ("remi", "]]}\n", "]]}\r\n"),
        "escaped piece id": ("remi", '"p"', '"\\u0070"'),
        "negative id": ("remi", "[1, 5, ", "[-1, 5, "),
        "plus sign": ("remi", "[1, 5, ", "[+1, 5, "),
        "float id": ("remi", "[1, 5, ", "[1.0, 5, "),
        "leading zero": ("remi", "[1, 5, ", "[01, 5, "),
        "empty id": ("remi", "[1, 5, 0, ", "[1, , 0, "),
        "leading zero beside an empty id": ("remi", "[1, 5, 0, ", "[1, 05, , "),
        "20-digit id": ("remi", "[1, 5, ", "[18446744073709551617, 5, "),
        "id above int64": ("remi", "[1, 5, ", "[99999999999999999999, 5, "),
        "out-of-vocabulary id": ("remi", "[1, 5, ", "[169, 5, "),
        "511 steps": ("remi", ", 0], ", "], "),
        "513 steps": ("remi", ", 0], ", ", 0, 0], "),
        "cp 3-field row": ("cp", "[[1, 1, 1, 1], ", "[[1, 1, 1], "),
        "cp 5-field row": ("cp", "[[1, 1, 1, 1], ", "[[1, 1, 1, 1, 1], "),
        "cp out-of-vocabulary field": ("cp", "[[1, 1, 1, 1], ", "[[4, 1, 1, 1], "),
        "cp flat ids": ("cp", "[[1, 1, 1, 1], [2", "[1, 1, 1, 1, [2"),
        "note step past the chunk": ("remi", "[[0, 0], [1, 1]]", "[[0, 0], [512, 1]]"),
        "note position leading zero": ("remi", "[[0, 0], [1, 1]]", "[[0, 0], [01, 1]]"),
        "note position spacing": ("remi", "[[0, 0], [1, 1]]", "[[0, 0],[1, 1]]"),
        "20-digit note index": ("remi", "[[0, 0], [1, 1]]", "[[0, 0], [1, 18446744073709551617]]"),
    }

    @pytest.mark.parametrize("case", sorted(REJECTED))
    def test_rejects_other_spellings(self, tmp_path, case):
        representation, old, new = self.REJECTED[case]
        path = self.edited_store(tmp_path, representation, old, new)
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: line 3: "):
            load_store(path)

    def test_rejects_bad_headers(self, tmp_path):
        path = tmp_path / "chunks.jsonl"
        path.write_text("[1]\n")
        with pytest.raises(ValueError, match="not a chunk store"):
            load_store(path)
        path.write_text('{"schema": "chunks-v1", "representation": "midi", "task": "melody"}\n')
        with pytest.raises(ValueError, match="unknown representation 'midi'"):
            load_store(path)

    @pytest.mark.parametrize("representation, other", [("remi", "cp"), ("cp", "remi")])
    def test_writer_rejects_ids_it_could_not_read_back(self, tmp_path, representation, other):
        rng = np.random.default_rng(2)
        good = random_chunk(rng, representation)
        path = tmp_path / "chunks.jsonl"
        for ids in (good.ids - 1, good.ids + 200, good.ids.astype(np.float64),
                    random_chunk(rng, other).ids):
            bad = ChunkedSequence("p", 0, ids, ())
            with pytest.raises(ValueError, match="'p' chunk 0"):
                save_store(path, [good, bad], representation=representation, task_name="melody")

    def test_loading_keeps_only_the_ids_block(self, tmp_path):
        rng = np.random.default_rng(3)
        chunks = [random_chunk(rng, "cp", f"piece_{i:03d}", 0, notes=1) for i in range(64)]
        path = tmp_path / "chunks.jsonl"
        save_store(path, chunks, representation="cp", task_name="emotion")
        block = 64 * CHUNK_LEN * 4 * 8
        assert path.stat().st_size > 64 * 7000  # the file never sits in memory whole
        tracemalloc.start()
        try:
            store = load_store(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < block + 256 * 1024, peak
        base = store.chunks[0].ids.base
        assert base is not None and all(c.ids.base is base for c in store.chunks)


class TestCsvFiles:
    def test_note_labels_round_trip(self, tmp_path):
        melody = task("melody")
        labels = {"a": (0, 2, 2), "b": (1, 0)}
        path = tmp_path / "note_labels.csv"
        write_note_labels(path, labels, melody)
        assert read_note_labels(path, melody) == labels
        first = path.read_text().splitlines()
        assert first[0] == "piece_id,note_index,label"
        assert first[1] == "a,0,melody"

    def test_note_label_gap_rejected(self, tmp_path):
        path = tmp_path / "note_labels.csv"
        path.write_text("piece_id,note_index,label\na,0,melody\na,2,melody\n")
        with pytest.raises(ValueError, match="gaps"):
            read_note_labels(path, task("melody"))

    def test_seq_labels_round_trip(self, tmp_path):
        composer = task("composer")
        labels = {"x": 7, "y": 0}
        path = tmp_path / "seq_labels.csv"
        write_seq_labels(path, labels, composer)
        assert read_seq_labels(path, composer) == labels
        assert "x,W" in path.read_text()

    def test_numeric_labels_accepted(self, tmp_path):
        path = tmp_path / "seq_labels.csv"
        path.write_text("piece_id,label\nx,3\n")
        assert read_seq_labels(path, task("emotion")) == {"x": 3}

    def test_unknown_label_rejected(self, tmp_path):
        path = tmp_path / "seq_labels.csv"
        path.write_text("piece_id,label\nx,Q\n")
        with pytest.raises(ValueError, match="unknown emotion label"):
            read_seq_labels(path, task("emotion"))

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "seq_labels.csv"
        path.write_text("pieceid,label\nx,0\n")
        with pytest.raises(ValueError, match="expected header"):
            read_seq_labels(path, task("emotion"))

    def test_manifest_round_trip(self, tmp_path):
        m = make_splits([f"p{i}" for i in range(10)], (8, 1, 1), seed=0)
        path = tmp_path / "manifest.csv"
        write_manifest(path, m)
        loaded = read_manifest(path)
        assert all(loaded[p] == "train" for p in m.train)
        assert all(loaded[p] == "valid" for p in m.valid)
        assert all(loaded[p] == "test" for p in m.test)

    def test_manifest_unknown_split_rejected(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("piece_id,split\np,holdout\n")
        with pytest.raises(ValueError, match="unknown split"):
            read_manifest(path)


class TestTaskData:
    def write_melody_dir(self, tmp_path, pieces=6):
        corpus = synth_corpus(SynthSpec("melody", pieces, bars_per_piece=6), seed=5)
        chunks = pieces_to_chunks(corpus, "cp")
        save_store(tmp_path / "chunks.jsonl", chunks, representation="cp", task_name="melody")
        write_note_labels(
            tmp_path / "note_labels.csv",
            {p.piece_id: p.note_labels for p in corpus},
            task("melody"),
        )
        manifest = make_splits([p.piece_id for p in corpus], (8, 1, 1), seed=5)
        write_manifest(tmp_path / "manifest.csv", manifest)
        return corpus, manifest

    def test_assembles(self, tmp_path):
        corpus, manifest = self.write_melody_dir(tmp_path)
        data = load_task_data(tmp_path)
        assert data.task.name == "melody"
        assert data.ids.shape[0] == len(data.piece_ids) == data.note_labels.shape[0]
        for split_name in ("train", "valid", "test"):
            for i in data.indices(split_name):
                assert manifest.split_of(data.piece_ids[i]) == split_name
        labeled = data.note_labels != IGNORE_LABEL
        assert labeled.sum() == sum(len(p.score.notes) for p in corpus)

    def test_groups_chunks_without_per_piece_scans(self, tmp_path, monkeypatch):
        corpus, manifest = self.write_melody_dir(tmp_path)
        chunks = load_store(tmp_path / "chunks.jsonl").chunks

        def scan(self, piece_id):
            raise AssertionError("load_task_data scanned the store for one piece")

        monkeypatch.setattr(Store, "chunks_of", scan)
        data = load_task_data(tmp_path)
        assert data.piece_ids == tuple(c.piece_id for c in chunks)
        assert np.array_equal(data.ids, np.stack([c.ids for c in chunks]))
        expected_labels = [
            row
            for p in corpus
            for row in propagate_note_labels(
                p.note_labels, [c for c in chunks if c.piece_id == p.piece_id]
            )
        ]
        assert np.array_equal(data.note_labels, np.stack(expected_labels))
        expected_splits = [SPLIT_NAMES.index(manifest.split_of(c.piece_id)) for c in chunks]
        assert data.split_of.tolist() == expected_splits

    def test_missing_manifest_entry_rejected(self, tmp_path):
        corpus, manifest = self.write_melody_dir(tmp_path)
        (tmp_path / "manifest.csv").write_text(
            "piece_id,split\n" + f"{corpus[0].piece_id},train\n"
        )
        with pytest.raises(ValueError, match="missing from manifest"):
            load_task_data(tmp_path)
