"""Corpus tests: splits, label plumbing, synthetic corpora, store formats.

The classifier-corpus check uses a nearest-centroid classifier over
pitch-class histograms written here, independent of any model code, as the
oracle that the class signal exists.
"""

from __future__ import annotations

import hashlib
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
    SplitManifest,
    Store,
    SynthSpec,
    derive_velocity_labels,
    load_store,
    load_task_data,
    make_splits,
    pieces_to_chunks,
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
from midibert.smf import NO_VELOCITY, make_score, write_smf
from midibert.tokens import CHUNK_LEN, chunk, encode_cp, encode_remi, vocab

from .support import propagate_note_labels, row_positions


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


class TestLabeledPiece:
    def test_count_mismatch_names_piece(self):
        score = make_score("pop_042", [(0, 1, 60, 4, NO_VELOCITY), (0, 5, 64, 4, NO_VELOCITY)])
        with pytest.raises(ValueError, match="pop_042.*2 notes.*1 labels"):
            LabeledPiece(score=score, task=task("melody"), note_labels=(0,))

    def test_label_out_of_range(self):
        score = make_score("s", [(0, 1, 60, 4, NO_VELOCITY)])
        with pytest.raises(ValueError, match="outside 0..2"):
            LabeledPiece(score=score, task=task("melody"), note_labels=(7,))

    def test_sequence_label_required(self):
        score = make_score("s", [(0, 1, 60, 4, NO_VELOCITY)])
        with pytest.raises(ValueError, match="bad sequence label"):
            LabeledPiece(score=score, task=task("composer"))

    def test_derive_velocity_labels(self):
        score = make_score("s", [(0, 1, 60, 4, 5), (0, 5, 62, 4, 0)])
        assert derive_velocity_labels(score) == (5, 0)

    def test_derive_velocity_requires_dynamics(self):
        score = make_score("s", [(0, 1, 60, 4, NO_VELOCITY)])
        with pytest.raises(ValueError, match="no velocity"):
            derive_velocity_labels(score)


def write_train_only_store(path, pieces, representation, labels=None):
    """A melody store of `pieces` with their labels (or `labels`), every
    piece in train."""
    path.mkdir(exist_ok=True)
    save_store(path / "chunks.jsonl", pieces_to_chunks(pieces, representation),
               representation=representation, task_name="melody")
    write_note_labels(path / "note_labels.csv",
                      labels or {p.piece_id: p.note_labels for p in pieces}, task("melody"))
    write_manifest(path / "manifest.csv", SplitManifest(tuple(p.piece_id for p in pieces), (), ()))


class TestPropagation:
    def test_labels_land_on_note_steps(self, tmp_path):
        (piece,) = synth_corpus(SynthSpec("melody", 1, bars_per_piece=40), seed=2)
        for representation in ("remi", "cp"):
            write_train_only_store(tmp_path / representation, [piece], representation)
            data = load_task_data(tmp_path / representation)
            positions = row_positions(pieces_to_chunks([piece], representation))
            assert len(data.note_labels) == len(positions)
            total = 0
            for pairs, row in zip(positions, data.note_labels):
                for step, note_index in pairs:
                    assert row[step] == piece.note_labels[note_index]
                    total += 1
                off_note = np.ones(len(row), dtype=bool)
                off_note[[s for s, _ in pairs]] = False
                assert (row[off_note] == IGNORE_LABEL).all()
            assert total == len(piece.score.notes)

    def test_wrong_label_count_rejected(self, tmp_path):
        (piece,) = synth_corpus(SynthSpec("melody", 1), seed=2)
        write_train_only_store(tmp_path, [piece], "cp", {piece.piece_id: piece.note_labels[:-1]})
        with pytest.raises(ValueError, match=rf"^piece '{piece.piece_id}': "
                                             rf"{len(piece.note_labels) - 1} labels but chunk "
                                             rf"positions cover {len(piece.note_labels)} notes$"):
            load_task_data(tmp_path)


class TestSynthMelody:
    def test_registers_and_labels(self):
        pieces = synth_corpus(SynthSpec("melody", 4, bars_per_piece=12), seed=9)
        melody_id = task("melody").class_names.index("melody")
        for piece in pieces:
            for pitch, label in zip(piece.score.notes[:, 2].tolist(), piece.note_labels):
                if label == melody_id:
                    assert 72 <= pitch <= 96
                else:
                    assert 36 <= pitch <= 60

    def test_melody_voice_tiles_each_bar(self):
        (piece,) = synth_corpus(SynthSpec("melody", 1, bars_per_piece=10), seed=5)
        melody_id = task("melody").class_names.index("melody")
        for bar in range(piece.score.num_bars):
            spans = sorted(
                (2 * (16 * n_bar + sub_beat - 1), 2 * (16 * n_bar + sub_beat - 1) + duration)
                for (n_bar, sub_beat, _, duration, _), l
                in zip(piece.score.notes.tolist(), piece.note_labels)
                if l == melody_id and n_bar == bar
            )  # (onset, end) in duration units
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
            for (_, sub_beat, _, _, velocity_class), label in zip(
                piece.score.notes.tolist(), piece.note_labels
            ):
                assert label == velocity_class
                assert label == (sub_beat - 1) * 5 % 6

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
            assert set((piece.score.notes[:, 2] % 12).tolist()) <= scale

    def test_histogram_centroid_separates_classes(self):
        # oracle: nearest centroid on pitch-class histograms beats chance by far
        train = synth_corpus(SynthSpec("emotion", 32, bars_per_piece=8), seed=21)
        test = synth_corpus(SynthSpec("emotion", 16, bars_per_piece=8), seed=22)

        def histogram(piece):
            h = np.zeros(12)
            for pitch in piece.score.notes[:, 2].tolist():
                h[pitch % 12] += 1
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
            notes = piece.score.notes
            first_bar = notes[notes[:, 0] == 0, 1:4].tolist()  # sub-beat, pitch, duration
            for bar in range(1, 6):
                assert notes[notes[:, 0] == bar, 1:4].tolist() == first_bar
        # four distinct patterns cycle
        assert pieces[0].score.notes[0, 2] != pieces[1].score.notes[0, 2]
        assert pieces[4].score.notes[0, 2] == pieces[0].score.notes[0, 2]

    def test_pop_style_chunk_bar_coverage_ratio(self):
        # CP packs ≥2.5x more bars into a 512-step chunk at pop density
        pieces = synth_corpus(
            SynthSpec("pretrain", 6, bars_per_piece=60, notes_per_bar=17, style="pop"),
            seed=8,
        )
        remi_chunks = len(chunk([encode_remi(p.score) for p in pieces], "remi")[0])
        cp_chunks = len(chunk([encode_cp(p.score) for p in pieces], "cp")[0])
        bars = sum(p.score.num_bars for p in pieces)
        assert (bars / cp_chunks) / (bars / remi_chunks) >= 2.5

    def test_unknown_style_rejected_by_the_spec(self):
        with pytest.raises(ValueError, match="unknown pretrain style 'swing'"):
            SynthSpec("pretrain", 1, style="swing")


class TestSynthBytes:
    """A seed's corpus is fixed by the order of the generator draws; these
    digests, of every piece's id, SMF bytes and labels, pin that order."""

    @pytest.mark.parametrize("task_name, style, digest", [
        ("melody", "default", "d5cd3ce085ab2982864b8e55c7290dd3ff3f1350f781b6e2711d7e3b7e963731"),
        ("velocity", "default", "ab78985a7b0a1889431b4899ab531eded6260be239f660120dddff254f4efbda"),
        ("composer", "default", "e4414ccf0a859d57cc9894adea631eef66c0dcc80abe6058ffc73a78994236f4"),
        ("emotion", "default", "9bee2f77831f38f29041f9337f0aeed617f5e12297156bc80654f178c4687f84"),
        ("pretrain", "default", "2d7a49821c0a673c6d83cc3f4f3e6ebb0d4077016589d34086e319fa1502ab4c"),
        ("pretrain", "pop", "7034f28d6e45803d9f25390075dcf53212583e717fa9af2b8ca2850ea36e3dd3"),
        ("pretrain", "ostinato", "8d088f6efd413f7cd68f05cc84843fe5d2824b7166b9dc15ac750c70253f2f0b"),
    ])
    def test_pinned_digests(self, task_name, style, digest):
        pieces = synth_corpus(SynthSpec(task_name, 3, bars_per_piece=3, style=style), seed=0)
        h = hashlib.sha256()
        for p in pieces:
            h.update(p.piece_id.encode() + b"\0")
            h.update(write_smf(p.score))
            h.update(repr((p.note_labels, p.sequence_label)).encode())
        assert h.hexdigest() == digest


class TestStoreBytes:
    """The codec's bytes: the store that encode, chunk and save_store make
    of a seed's corpus. 70 bars put every piece over one 512-step window in
    REMI and most of them in CP."""

    @pytest.mark.parametrize("task_name, style, representation, digest", [
        ("melody", "default", "remi", "02456f9e7f4f63ce5edf25fa82d87d50c718b839ae9493b5418841628e68545e"),
        ("melody", "default", "cp", "23acf2b5727c896f98b09f68fc1ca5e2e22ed397da14dc22ac3ceb3b34d006a0"),
        ("velocity", "default", "remi", "01bd8cf1a2e7a67e19a89f120e7531b98866c1fba0435f5e5fb7628f0f4bc9cd"),
        ("velocity", "default", "cp", "2cd5045c89da59e9d288083b105f05dc774f8c17e639a90e6b79f36ba408349f"),
        ("composer", "default", "remi", "4fd1108386e777c4b441d1a502b263d16fe7fc09cbadc5e0526261133590d29c"),
        ("composer", "default", "cp", "07439e6791e15c26dc8e48d5171227d1bd64f39bd8946d8a535e318ca4acfb6c"),
        ("emotion", "default", "remi", "124cf14277af8f0637c0027d638512041a8e56b02c2da6dfb46648ddba3bd282"),
        ("emotion", "default", "cp", "a0a59b78b342f00ba91c4c51ed1e287cb23c5f7ed4dd164307effbeafec8c976"),
        ("pretrain", "default", "remi", "6677d7319c969613e88b8160ec63de44d3b3909b1cae8994dd6c478aa2e8d89a"),
        ("pretrain", "default", "cp", "33cef022577b53640945eb497b38bf89e41054872f0547e9d34e930c229b72e1"),
        ("pretrain", "pop", "remi", "400e160a0e26dd1287b7c6355f9d46018aa3238ade93e9599640eca1f7c2bd9b"),
        ("pretrain", "pop", "cp", "ecc0aec91d49a862fabdf012f43c8a973d7f5613e4d41067c714309d6cba8729"),
        ("pretrain", "ostinato", "remi", "687a782ad1d81eb519f6f6b1ddc2d6e5e78356cb5ee0d34f468e1d205d767a1c"),
        ("pretrain", "ostinato", "cp", "ab00481b66295f6d62f830bbc146af4d548c2b846af344350e71208444621431"),
    ])
    def test_pinned_digests(self, tmp_path, task_name, style, representation, digest):
        pieces = synth_corpus(SynthSpec(task_name, 3, bars_per_piece=70, style=style), seed=0)
        path = tmp_path / "chunks.jsonl"
        save_store(path, pieces_to_chunks(pieces, representation),
                   representation=representation, task_name=task_name)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


class TestStore:
    def test_round_trip(self, tmp_path):
        pieces = synth_corpus(SynthSpec("melody", 3), seed=4)
        chunks = pieces_to_chunks(pieces, "cp")
        path = tmp_path / "chunks.jsonl"
        save_store(path, chunks, representation="cp", task_name="melody")
        store = load_store(path)
        assert store.representation == "cp" and store.task_name == "melody"
        assert store.ids.shape == chunks.ids.shape and (store.ids == chunks.ids).all()
        assert store.piece_ids.tolist() == chunks.piece_ids.tolist()
        assert store.chunk_index.tolist() == chunks.chunk_index.tolist()
        assert store.note_positions.tolist() == chunks.note_positions.tolist()

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


def rows_of(store):
    """A Store's chunks as (piece_id, chunk_index, ids, note positions) tuples."""
    return list(zip(
        store.piece_ids.tolist(), store.chunk_index.tolist(), store.ids, row_positions(store)
    ))


def store_of(rows, representation, task_name="melody"):
    """A Store of (piece_id, chunk_index, ids, note positions) tuples."""
    step_shape = (4,) if representation == "cp" else ()
    return Store(
        representation=representation,
        task_name=task_name,
        ids=np.stack([r[2] for r in rows]) if rows else np.zeros((0, CHUNK_LEN, *step_shape), int),
        piece_ids=np.array([r[0] for r in rows], dtype=object),
        chunk_index=np.array([r[1] for r in rows], dtype=np.int64),
        note_positions=np.array(
            [(i, *pair) for i, r in enumerate(rows) for pair in r[3]], dtype=np.int64
        ).reshape(-1, 3),
    )


def reference_store_text(rows, representation, task_name):
    """The store as json.dumps spells it: the layout save_store must keep."""
    header = {"schema": "chunks-v1", "representation": representation, "task": task_name}
    records = [
        {
            "piece_id": piece_id,
            "chunk_index": chunk_index,
            "ids": ids.tolist(),
            "note_positions": [list(p) for p in positions],
        }
        for piece_id, chunk_index, ids, positions in rows
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
    """(piece_id, chunk_index, ids, note positions): random in-vocabulary
    ids with `notes` note positions."""
    voc = vocab(representation)
    if representation == "cp":
        ids = rng.integers(0, voc.field_sizes, size=(CHUNK_LEN, 4))
    else:
        ids = rng.integers(0, len(voc), size=CHUNK_LEN)
    steps = np.sort(rng.choice(CHUNK_LEN, size=notes, replace=False)).tolist()
    return piece_id, chunk_index, ids, tuple((s, i) for i, s in enumerate(steps))


def assert_rows_equal(got, want):
    assert [r[:2] + r[3:] for r in got] == [r[:2] + r[3:] for r in want]
    assert all(a[2].dtype == np.int64 and np.array_equal(a[2], b[2]) for a, b in zip(got, want))


class TestStoreCodec:
    """save_store writes json.dumps's exact bytes without building JSON
    objects, and load_store accepts that layout and nothing else."""

    @pytest.mark.parametrize("representation", ["remi", "cp"])
    def test_bytes_match_json_dumps(self, tmp_path, representation):
        rng = np.random.default_rng(1)
        pieces = synth_corpus(SynthSpec("melody", 2, bars_per_piece=70), seed=4)
        rows = rows_of(pieces_to_chunks(pieces, representation))
        assert max(r[1] for r in rows) > 0
        rows += [
            random_chunk(rng, representation, 'q"uote', 0, notes=0),
            random_chunk(rng, representation, "back\\slash", 3),
            random_chunk(rng, representation, "Dvořák – Humoreske ♪", 12),
            random_chunk(rng, representation, "tab\tnew\nline\u0001", 1),
        ]
        path = tmp_path / "chunks.jsonl"
        save_store(path, store_of(rows, representation), representation=representation,
                   task_name="melody")
        assert path.read_bytes() == reference_store_text(rows, representation, "melody").encode()
        assert_rows_equal(rows_of(load_store(path)), rows)

    @pytest.mark.parametrize("representation", ["remi", "cp"])
    def test_empty_store(self, tmp_path, representation):
        path = tmp_path / "chunks.jsonl"
        save_store(path, store_of([], representation), representation=representation,
                   task_name="pretrain")
        assert path.read_bytes() == reference_store_text([], representation, "pretrain").encode()
        store = load_store(path)
        assert (store.representation, store.task_name) == (representation, "pretrain")
        assert store.ids.shape == store_of([], representation).ids.shape
        assert store.piece_ids.shape == store.chunk_index.shape == (0,)
        assert store.note_positions.shape == (0, 3)

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
            unique_by=lambda r: (r[0], r[1]),  # a store lists each chunk once
        ),
    )
    def test_round_trip_matches_json_loads(self, tmp_path_factory, representation, records):
        rows = [
            (piece_id, chunk_index,
             random_chunk(np.random.default_rng(seed), representation)[2], tuple(positions))
            for piece_id, chunk_index, seed, positions in records
        ]
        path = tmp_path_factory.mktemp("store") / "chunks.jsonl"
        save_store(path, store_of(rows, representation), representation=representation,
                   task_name="emotion")
        expected_text = reference_store_text(rows, representation, "emotion")
        assert path.read_text(encoding="utf-8") == expected_text
        store = load_store(path)
        rep, task_name, expected = reference_load(path)
        assert (store.representation, store.task_name) == (rep, task_name)
        assert len(store.ids) == len(expected)
        assert_rows_equal(rows_of(store), expected)

    @staticmethod
    def edited_store(tmp_path, representation, old, new):
        """A two-chunk store whose second record (line 3) has `old` replaced by `new`."""
        ids = np.zeros((CHUNK_LEN, 4) if representation == "cp" else CHUNK_LEN, dtype=np.int64)
        ids[0], ids[1] = 1, 2 if representation == "cp" else 5
        rows = [("p", i, ids, ((0, 0), (1, 1))) for i in range(2)]
        path = tmp_path / "chunks.jsonl"
        save_store(path, store_of(rows, representation), representation=representation,
                   task_name="melody")
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

    def test_rejects_a_repeated_chunk(self, tmp_path):
        path = self.edited_store(tmp_path, "remi", '"chunk_index": 1', '"chunk_index": 0')
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: line 3: "
                                             r"piece 'p' repeats chunk_index 0$"):
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
        good = random_chunk(rng, representation, "g", 3)
        path = tmp_path / "chunks.jsonl"
        ids = good[2]
        for rows in ([good, ("p", 0, ids - 1, ())], [good, ("p", 0, ids + 200, ())],
                     [("p", 0, ids.astype(np.float64), ())],
                     [("p", 0, random_chunk(rng, other)[2], ())]):
            with pytest.raises(ValueError, match="^piece 'p' chunk 0: "):
                save_store(path, store_of(rows, representation), representation=representation,
                           task_name="melody")
            assert not path.exists()  # checked before anything is written

    def test_loading_keeps_only_the_ids_block(self, tmp_path):
        rng = np.random.default_rng(3)
        rows = [random_chunk(rng, "cp", f"piece_{i:03d}", 0, notes=1) for i in range(64)]
        path = tmp_path / "chunks.jsonl"
        save_store(path, store_of(rows, "cp"), representation="cp", task_name="emotion")
        block = 64 * CHUNK_LEN * 4 * 8
        assert path.stat().st_size > 64 * 7000  # the file never sits in memory whole
        tracemalloc.start()
        try:
            store = load_store(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < block + 256 * 1024, peak
        assert store.ids.shape == (64, CHUNK_LEN, 4) and store.ids.flags.owndata


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

    def test_note_label_repeated_note_rejected(self, tmp_path):
        path = tmp_path / "note_labels.csv"
        path.write_text("piece_id,note_index,label\na,0,melody\na,1,bridge\na,0,bridge\n")
        with pytest.raises(ValueError, match=r"note_labels\.csv: piece 'a' repeats note_index 0"):
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

    def test_seq_label_repeated_piece_rejected(self, tmp_path):
        path = tmp_path / "seq_labels.csv"
        path.write_text("piece_id,label\nx,0\ny,1\nx,2\n")
        with pytest.raises(ValueError, match=r"seq_labels\.csv: piece 'x' is listed twice"):
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

    def test_manifest_repeated_piece_rejected(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("piece_id,split\np,train\nq,valid\np,test\n")
        with pytest.raises(ValueError, match=r"manifest\.csv: piece 'p' is listed twice"):
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
        corpus, _ = self.write_melody_dir(tmp_path)
        data = load_task_data(tmp_path)
        piece_ids = load_store(tmp_path / "chunks.jsonl").piece_ids.tolist()
        splits = read_manifest(tmp_path / "manifest.csv")
        assert data.task.name == "melody"
        assert data.ids.shape[0] == len(piece_ids) == data.note_labels.shape[0]
        for split_name in ("train", "valid", "test"):
            for i in data.indices(split_name):
                assert splits[piece_ids[i]] == split_name
        labeled = data.note_labels != IGNORE_LABEL
        assert labeled.sum() == sum(len(p.score.notes) for p in corpus)

    @staticmethod
    def expected_task_data(store_dir, corpus):
        """(ids, note labels, split per row) in load_task_data's order, from
        the store's rows grouped piece by piece and the note-by-note oracle."""
        by_piece = {}
        for row in rows_of(load_store(store_dir / "chunks.jsonl")):
            by_piece.setdefault(row[0], []).append(row)
        labels = {p.piece_id: p.note_labels for p in corpus}
        splits = read_manifest(store_dir / "manifest.csv")
        rows = [row for piece_rows in by_piece.values() for row in piece_rows]
        note_labels = [
            labeled
            for piece_id, piece_rows in by_piece.items()
            for labeled in propagate_note_labels(labels[piece_id], [r[3] for r in piece_rows])
        ]
        return (np.stack([r[2] for r in rows]), np.stack(note_labels),
                [SPLIT_NAMES.index(splits[r[0]]) for r in rows])

    def test_groups_chunks_without_per_piece_scans(self, tmp_path, monkeypatch):
        corpus, _ = self.write_melody_dir(tmp_path)

        def scan(self, piece_id):
            raise AssertionError("load_task_data scanned the store for one piece")

        monkeypatch.setattr(Store, "chunks_of", scan)
        data = load_task_data(tmp_path)
        ids, note_labels, splits = self.expected_task_data(tmp_path, corpus)
        assert np.array_equal(data.ids, ids)
        assert np.array_equal(data.note_labels, note_labels)
        assert data.split_of.tolist() == splits

    @pytest.mark.parametrize("shuffle", ["rotated", "interleaved"])
    def test_store_out_of_piece_order_is_grouped(self, tmp_path, shuffle):
        corpus = synth_corpus(SynthSpec("melody", 4, bars_per_piece=40), seed=5)
        rows = rows_of(pieces_to_chunks(corpus, "remi"))
        assert len(rows) > len(corpus)  # some piece has more than one chunk
        rows = rows[-1:] + rows[:-1] if shuffle == "rotated" else rows[::2] + rows[1::2]
        save_store(tmp_path / "chunks.jsonl", store_of(rows, "remi"), representation="remi",
                   task_name="melody")
        write_note_labels(tmp_path / "note_labels.csv",
                          {p.piece_id: p.note_labels for p in corpus}, task("melody"))
        write_manifest(tmp_path / "manifest.csv",
                       make_splits([p.piece_id for p in corpus], (2, 1, 1), seed=5))
        data = load_task_data(tmp_path)
        ids, note_labels, splits = self.expected_task_data(tmp_path, corpus)
        assert not np.array_equal(ids, load_store(tmp_path / "chunks.jsonl").ids)
        assert np.array_equal(data.ids, ids)
        assert np.array_equal(data.note_labels, note_labels)
        assert data.split_of.tolist() == splits

    def test_step_listed_twice_rejected(self, tmp_path):
        self.write_melody_dir(tmp_path)
        path = tmp_path / "chunks.jsonl"
        head, first, *rest = path.read_text().splitlines(keepends=True)
        record = json.loads(first)
        (step0, _), (step1, _) = record["note_positions"][:2]
        ids, positions = first.split('"note_positions": ')
        edited = ids + '"note_positions": ' + positions.replace(f"[{step1}, 1]", f"[{step0}, 1]", 1)
        path.write_text("".join([head, edited, *rest]))
        with pytest.raises(ValueError, match=rf"^{re.escape(str(tmp_path))}: piece "
                                             rf"'{record['piece_id']}' chunk 0 lists step "
                                             rf"{step0} twice$"):
            load_task_data(tmp_path)

    def test_loading_keeps_only_the_ids_block(self, tmp_path):
        rng = np.random.default_rng(3)
        rows = [random_chunk(rng, "cp", f"piece_{i:03d}", 0, notes=1) for i in range(64)]
        save_store(tmp_path / "chunks.jsonl", store_of(rows, "cp"), representation="cp",
                   task_name="emotion")
        piece_ids = [r[0] for r in rows]
        write_seq_labels(tmp_path / "seq_labels.csv",
                         {p: i % 4 for i, p in enumerate(piece_ids)}, task("emotion"))
        write_manifest(tmp_path / "manifest.csv", make_splits(piece_ids, (8, 1, 1), seed=0))
        block = 64 * CHUNK_LEN * 4 * 8
        tracemalloc.start()
        try:
            data = load_task_data(tmp_path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < block + 256 * 1024, peak
        assert data.ids.shape == (64, CHUNK_LEN, 4)
        assert data.seq_labels.tolist() == [i % 4 for i in range(64)]

    def test_store_without_chunks_rejected(self, tmp_path):
        store = tmp_path / "silent"
        store.mkdir()
        save_store(store / "chunks.jsonl", store_of([], "remi"), representation="remi",
                   task_name="emotion")
        write_seq_labels(store / "seq_labels.csv", {}, task("emotion"))
        write_manifest(store / "manifest.csv", make_splits(["a", "b", "c"], (1, 1, 1), seed=0))
        with pytest.raises(ValueError, match=re.escape(f"{store}: store has no chunks")):
            load_task_data(store)

    def test_missing_manifest_entry_rejected(self, tmp_path):
        corpus, manifest = self.write_melody_dir(tmp_path)
        (tmp_path / "manifest.csv").write_text(
            "piece_id,split\n" + f"{corpus[0].piece_id},train\n"
        )
        with pytest.raises(ValueError, match="missing from manifest"):
            load_task_data(tmp_path)
