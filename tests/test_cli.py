"""CLI behavior: flag validation, exit codes, file layout, determinism.

All invocations run in-process through main() so tests stay fast and can
inspect stderr.
"""

from __future__ import annotations

import csv
import hashlib
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from midibert import cli, corpus, train
from midibert import model as M


def run(*args) -> int:
    return cli.main([str(a) for a in args])


def make_melody_corpus(tmp_path, pieces=5, bars=4):
    midi = tmp_path / "midi"
    code = run("synth", "--task", "melody", "--out", midi,
               "--pieces", pieces, "--bars", bars, "--seed", 7)
    assert code == 0
    return midi


def make_melody_store(tmp_path, midi, name="store", representation="remi"):
    store = tmp_path / name
    code = run(
        "prepare", "--midi", midi, "--task", "melody", "--out", store,
        "--note-labels", midi / "note_labels.csv",
        "--representation", representation, "--ratios", "3,1,1", "--seed", 1,
    )
    assert code == 0
    return store


class TestSynth:
    def test_writes_midi_labels_and_config(self, tmp_path):
        out = tmp_path / "synthval"
        assert run("synth", "--task", "melody", "--out", out, "--pieces", 3) == 0
        mids = sorted(out.glob("*.mid"))
        assert len(mids) == 3
        assert (out / "note_labels.csv").exists()
        config = (out / "run_config.txt").read_text()
        assert "command = synth" in config
        assert "version = " in config

    def test_config_file_digest_recorded(self, tmp_path):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("pieces = 2\n")
        out = tmp_path / "configured"
        assert run("synth", "--task", "emotion", "--out", out, "--config", cfg) == 0
        config = (out / "run_config.txt").read_text().splitlines()
        assert f"sha256_config = {hashlib.sha256(cfg.read_bytes()).hexdigest()}" in config

    def test_sequence_task_gets_seq_labels(self, tmp_path):
        out = tmp_path / "emo"
        assert run("synth", "--task", "emotion", "--out", out, "--pieces", 4) == 0
        text = (out / "seq_labels.csv").read_text()
        assert text.splitlines()[0] == "piece_id,label"
        assert not (out / "note_labels.csv").exists()

    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("synth", "--task", "pretrain", "--out", out,
                       "--pieces", 3, "--seed", 9) == 0
        for mid_a in sorted(a.glob("*.mid")):
            assert mid_a.read_bytes() == (b / mid_a.name).read_bytes()

    def test_unknown_task_is_usage_error(self, tmp_path, capsys):
        assert run("synth", "--task", "tempo", "--out", tmp_path / "x") == 1
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("task", sorted(set(corpus.TASKS) - {"pretrain"}))
    def test_style_outside_pretrain_is_usage_error(self, tmp_path, capsys, task):
        out = tmp_path / "never"
        assert run("synth", "--task", task, "--style", "ostinato", "--out", out) == 1
        cfg = tmp_path / "style.cfg"
        cfg.write_text("style = pop\n")
        assert run("synth", "--task", task, "--config", cfg, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.count("usage error") == 2 and "Traceback" not in err
        assert not out.exists()


class TestPrepare:
    def test_store_layout_and_counts(self, tmp_path):
        midi = make_melody_corpus(tmp_path)
        store = make_melody_store(tmp_path, midi)
        assert (store / "chunks.jsonl").exists()
        assert (store / "manifest.csv").exists()
        assert (store / "note_labels.csv").exists()
        loaded = corpus.load_store(store / "chunks.jsonl")
        assert len({c.piece_id for c in loaded.chunks}) == 5
        manifest = corpus.read_manifest(store / "manifest.csv")
        assert sorted(manifest.values()).count("train") == 3

    def test_deterministic_given_seed(self, tmp_path):
        midi = make_melody_corpus(tmp_path)
        s1 = make_melody_store(tmp_path, midi, "s1")
        s2 = make_melody_store(tmp_path, midi, "s2")
        for name in ("chunks.jsonl", "manifest.csv", "note_labels.csv"):
            assert (s1 / name).read_bytes() == (s2 / name).read_bytes()

    def test_bad_file_skipped_unless_strict(self, tmp_path, capsys):
        midi = make_melody_corpus(tmp_path)
        (midi / "broken.mid").write_bytes(b"not a midi file")
        store = tmp_path / "lenient"
        code = run(
            "prepare", "--midi", midi, "--task", "melody", "--out", store,
            "--note-labels", midi / "note_labels.csv", "--ratios", "3,1,1",
        )
        err = capsys.readouterr().err
        assert code == 0
        assert "skipped broken.mid" in err
        assert len({c.piece_id for c in corpus.load_store(store / "chunks.jsonl").chunks}) == 5
        assert run(
            "prepare", "--midi", midi, "--task", "melody",
            "--out", tmp_path / "strict",
            "--note-labels", midi / "note_labels.csv", "--strict",
        ) == 2
        assert not (tmp_path / "strict" / "chunks.jsonl").exists()

    def test_piece_without_labels_reported_and_skipped(self, tmp_path, capsys):
        midi = make_melody_corpus(tmp_path)
        labels = (midi / "note_labels.csv").read_text().splitlines()
        trimmed = [l for l in labels if not l.startswith("melody_0000,")]
        cut = tmp_path / "cut.csv"
        cut.write_text("\n".join(trimmed) + "\n")
        store = tmp_path / "partial"
        code = run("prepare", "--midi", midi, "--task", "melody", "--out", store,
                   "--note-labels", cut, "--ratios", "3,1,1")
        assert code == 0
        assert "melody_0000" in capsys.readouterr().err
        assert len({c.piece_id for c in corpus.load_store(store / "chunks.jsonl").chunks}) == 4

    def test_repeated_label_row_is_data_error(self, tmp_path, capsys):
        midi = make_melody_corpus(tmp_path)
        labels = midi / "note_labels.csv"
        repeated = tmp_path / "repeated.csv"
        repeated.write_text(labels.read_text() + "melody_0000,0,bridge\n")
        store = tmp_path / "never"
        assert run("prepare", "--midi", midi, "--task", "melody", "--out", store,
                   "--note-labels", repeated, "--ratios", "3,1,1") == 2
        err = capsys.readouterr().err
        assert "repeated.csv: piece 'melody_0000' repeats note_index 0" in err
        assert not store.exists()

    def test_velocity_needs_no_label_file(self, tmp_path):
        midi = tmp_path / "vel"
        assert run("synth", "--task", "velocity", "--out", midi, "--pieces", 5) == 0
        store = tmp_path / "velstore"
        assert run("prepare", "--midi", midi, "--task", "velocity",
                   "--out", store, "--ratios", "3,1,1") == 0
        assert (store / "note_labels.csv").exists()
        assert run("prepare", "--midi", midi, "--task", "velocity",
                   "--out", tmp_path / "x", "--note-labels", store / "note_labels.csv") == 1

    def test_melody_without_labels_flag_is_usage_error(self, tmp_path, capsys):
        midi = make_melody_corpus(tmp_path)
        out = tmp_path / "nolabels"
        assert run("prepare", "--midi", midi, "--task", "melody", "--out", out) == 1
        assert "note-labels" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_dir_is_data_error(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert run("prepare", "--midi", empty, "--task", "pretrain",
                   "--out", tmp_path / "x") == 2


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    """Synth corpora and stores shared by the pretrain/finetune/eval tests."""
    root = tmp_path_factory.mktemp("corpora")
    melody_midi = make_melody_corpus(root, pieces=5, bars=4)
    melody_store = make_melody_store(root, melody_midi, "melody_store")
    pre_midi = root / "pre_midi"
    assert run("synth", "--task", "pretrain", "--out", pre_midi,
               "--pieces", 4, "--bars", 2, "--style", "ostinato", "--seed", 3) == 0
    pre_store = root / "pre_store"
    assert run("prepare", "--midi", pre_midi, "--task", "pretrain",
               "--out", pre_store, "--ratios", "2,1,1", "--seed", 2) == 0
    return {"melody_midi": melody_midi, "melody_store": melody_store,
            "pre_store": pre_store, "root": root}


class TestPretrain:
    def test_corpus_modes_change_counts(self, corpora, tmp_path):
        counts = {}
        for mode in cli.CORPUS_MODES:
            out = tmp_path / mode
            code = run("pretrain", "--data", corpora["pre_store"],
                       "--data", corpora["melody_store"],
                       "--out", out, "--corpus", mode, "--dry-run")
            assert code == 0
            text = (out / "corpus_manifest.txt").read_text()
            total = [l for l in text.splitlines() if l.startswith("total")][0]
            counts[mode] = total
            assert not (out / "model.ckpt").exists()
        assert len(set(counts.values())) == 3  # every mode selects a different corpus
        assert "pieces=4" in counts["pretrain-only"]
        assert "pieces=9" in counts["all"]
        assert "pieces=7" in counts["train-splits"]  # 4 pretrain + 3 train-split pieces

    def test_trains_and_writes_artifacts(self, corpora, tmp_path):
        out = tmp_path / "run"
        code = run("pretrain", "--data", corpora["pre_store"], "--out", out,
                   "--max-epochs", 1, "--patience", 1, "--batch-size", 4, "--seed", 0)
        assert code == 0
        assert (out / "model.ckpt").exists()
        log = (out / "log.csv").read_text()
        assert log.splitlines()[0] == "epoch,train_loss,valid_loss,valid_accuracy"
        assert len(log.splitlines()) == 2
        summary = (out / "summary.txt").read_text()
        assert "monitor = valid_loss" in summary
        loaded = M.load_checkpoint(out / "model.ckpt")
        assert loaded.config.head == "mlm"

    def test_missing_store_is_data_error(self, tmp_path, capsys):
        assert run("pretrain", "--data", tmp_path / "nowhere",
                   "--out", tmp_path / "o") == 4  # open() fails before parsing
        capsys.readouterr()

    def test_nonfinite_gradient_is_numeric_error(self, corpora, tmp_path, capsys, monkeypatch):
        apply_freeze, backward, trainable = train.apply_freeze, train.ad.backward, {}

        def capture(model, freeze):
            trainable.update(apply_freeze(model, freeze))
            return trainable

        def poisoned(loss):
            backward(loss)
            trainable["head.mlm.b"].grad[0] = np.nan

        monkeypatch.setattr(train, "apply_freeze", capture)
        monkeypatch.setattr(train.ad, "backward", poisoned)
        assert run("pretrain", "--data", corpora["pre_store"], "--out", tmp_path / "nan",
                   "--max-epochs", 1, "--patience", 1, "--batch-size", 4) == 3
        err = capsys.readouterr().err
        assert err == "numeric error: non-finite gradient in head.mlm.b at epoch 1, batch 0\n"

    def test_out_of_vocabulary_id_is_data_error(self, corpora, tmp_path, capsys):
        store = tmp_path / "edited"
        store.mkdir()
        head, first, *rest = (corpora["pre_store"] / "chunks.jsonl").read_text().splitlines(True)
        assert '"ids": [1, ' in first
        edited = first.replace('"ids": [1, ', '"ids": [99999, ')
        (store / "chunks.jsonl").write_text("".join([head, edited, *rest]))
        assert run("pretrain", "--data", store, "--out", tmp_path / "never", "--dry-run") == 2
        err = capsys.readouterr().err
        assert "chunks.jsonl: line 2: id outside the vocabulary" in err and "Traceback" not in err
        assert not (tmp_path / "never").exists()

    def test_mixed_representations_rejected(self, corpora, tmp_path):
        cp_store = make_melody_store(
            corpora["root"], corpora["melody_midi"], "cp_store", representation="cp"
        )
        code = run("pretrain", "--data", corpora["pre_store"], "--data", cp_store,
                   "--out", tmp_path / "mix", "--dry-run")
        assert code == 2


@pytest.fixture(scope="module")
def finetuned(corpora, tmp_path_factory):
    out = tmp_path_factory.mktemp("ft") / "run"
    code = run("finetune", "--task", "melody", "--data", corpora["melody_store"],
               "--out", out, "--no-pretrain", "--max-epochs", 1, "--patience", 1,
               "--batch-size", 4, "--lr", "1e-3", "--seed", 0)
    assert code == 0
    return out


class TestFinetune:
    def test_artifacts(self, finetuned):
        assert (finetuned / "model.ckpt").exists()
        summary = (finetuned / "summary.txt").read_text()
        assert "monitor = valid_accuracy" in summary
        assert "test_accuracy = " in summary
        assert "majority_baseline_accuracy = " in summary
        metrics = (finetuned / "report" / "metrics.txt").read_text()
        assert "task = melody" in metrics
        assert (finetuned / "report" / "confusion_counts.csv").exists()
        loaded = M.load_checkpoint(finetuned / "model.ckpt")
        assert loaded.config.head == "note"
        assert loaded.config.num_classes == 3

    def test_scores_test_split_once(self, corpora, tmp_path, monkeypatch):
        data = corpus.load_task_data(corpora["melody_store"])
        n_valid, n_test = data.indices("valid").size, data.indices("test").size
        eval_rows = []
        logits = M.EncoderModel.logits

        def counting(self, ids, *, training=False, seed=0):
            if not training:
                eval_rows.append(len(ids))
            return logits(self, ids, training=training, seed=seed)

        monkeypatch.setattr(M.EncoderModel, "logits", counting)
        out = tmp_path / "once"
        assert run("finetune", "--task", "melody", "--data", corpora["melody_store"],
                   "--out", out, "--no-pretrain", "--max-epochs", 2, "--patience", 2,
                   "--batch-size", 4, "--lr", "1e-3", "--seed", 0) == 0
        assert sum(eval_rows) == 2 * n_valid + n_test  # valid each epoch, test once
        rows = (out / "report" / "confusion_counts.csv").read_text().splitlines()[1:]
        counts = np.array([[int(v) for v in row.split(",")[1:]] for row in rows])
        expected = f"test_accuracy = {int(np.trace(counts)) / int(counts.sum())!r}"
        assert expected in (out / "summary.txt").read_text().splitlines()
        assert expected in (out / "report" / "metrics.txt").read_text().splitlines()

    def test_flag_conflicts_fail_before_writing(self, corpora, tmp_path, capsys):
        out = tmp_path / "never"
        args = ("finetune", "--task", "melody", "--data", corpora["melody_store"],
                "--out", out)
        assert run(*args, "--no-pretrain", "--checkpoint", "x.ckpt") == 1
        assert run(*args) == 1  # neither --checkpoint nor --no-pretrain
        assert run(*args, "--no-pretrain", "--freeze-backbone", "--freeze-attention") == 1
        assert not out.exists()
        capsys.readouterr()

    def test_store_task_must_match(self, corpora, tmp_path, capsys):
        code = run("finetune", "--task", "velocity", "--data", corpora["melody_store"],
                   "--out", tmp_path / "x", "--no-pretrain")
        assert code == 2
        assert "melody" in capsys.readouterr().err

    def test_freeze_backbone_from_checkpoint(self, corpora, tmp_path):
        pre = tmp_path / "pre"
        assert run("pretrain", "--data", corpora["pre_store"], "--out", pre,
                   "--max-epochs", 1, "--patience", 1, "--batch-size", 4) == 0
        out = tmp_path / "frozen"
        code = run("finetune", "--task", "melody", "--data", corpora["melody_store"],
                   "--out", out, "--checkpoint", pre / "model.ckpt",
                   "--freeze-backbone", "--max-epochs", 1, "--patience", 1,
                   "--batch-size", 4)
        assert code == 0
        source = M.load_checkpoint(pre / "model.ckpt")
        tuned = M.load_checkpoint(out / "model.ckpt")
        for name, t in source.params.items():
            if not name.startswith("head."):
                assert np.array_equal(t.data, tuned.params[name].data), name


class TestEval:
    def test_eval_writes_report_and_is_deterministic(self, corpora, finetuned, tmp_path):
        outs = []
        for tag in ("e1", "e2"):
            out = tmp_path / tag
            code = run("eval", "--checkpoint", finetuned / "model.ckpt",
                       "--data", corpora["melody_store"], "--split", "test",
                       "--out", out)
            assert code == 0
            outs.append(out)
        for name in ("metrics.txt", "confusion_counts.csv", "confusion_percent.txt"):
            a = (outs[0] / "report" / name).read_bytes()
            assert a == (outs[1] / "report" / name).read_bytes()
        assert "accuracy = " in (outs[0] / "report" / "metrics.txt").read_text()

    def test_head_task_mismatch_rejected(self, corpora, tmp_path, capsys):
        pre = tmp_path / "pre"
        assert run("pretrain", "--data", corpora["pre_store"], "--out", pre,
                   "--max-epochs", 1, "--patience", 1, "--batch-size", 4) == 0
        code = run("eval", "--checkpoint", pre / "model.ckpt",
                   "--data", corpora["melody_store"], "--out", tmp_path / "x")
        assert code == 2
        capsys.readouterr()

    def test_missing_checkpoint_is_io_error(self, corpora, tmp_path):
        assert run("eval", "--checkpoint", tmp_path / "none.ckpt",
                   "--data", corpora["melody_store"], "--out", tmp_path / "x") == 4


class TestSkyline:
    def test_perfect_on_synthetic_melody(self, corpora, tmp_path):
        out = tmp_path / "sky"
        code = run("skyline", "--midi", corpora["melody_midi"],
                   "--note-labels", corpora["melody_midi"] / "note_labels.csv",
                   "--out", out)
        assert code == 0
        metrics = (out / "metrics.txt").read_text()
        assert "accuracy = 1.0" in metrics
        assert (out / "confusion_percent.txt").exists()

    def test_predictions_only_without_labels(self, corpora, tmp_path):
        out = tmp_path / "sky2"
        assert run("skyline", "--midi", corpora["melody_midi"], "--out", out) == 0
        lines = (out / "predictions.csv").read_text().splitlines()
        assert lines[0] == "piece_id,note_index,label"
        assert set(l.rsplit(",", 1)[1] for l in lines[1:]) <= {"melody", "non-melody"}
        assert not (out / "metrics.txt").exists()

    def test_piece_id_with_comma_is_quoted(self, corpora, tmp_path):
        midi = tmp_path / "midi"
        midi.mkdir()
        source = corpora["melody_midi"] / "melody_0000.mid"
        (midi / "a,b.mid").write_bytes(source.read_bytes())
        out = tmp_path / "sky3"
        assert run("skyline", "--midi", midi, "--out", out) == 0
        with open(out / "predictions.csv", newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["piece_id", "note_index", "label"]
        assert len(rows) > 1 and all(len(row) == 3 and row[0] == "a,b" for row in rows[1:])

    def test_config_file_digest_recorded(self, corpora, tmp_path):
        cfg = tmp_path / "skyline.cfg"
        cfg.write_text("# no settings\n")
        out = tmp_path / "sky4"
        assert run("skyline", "--midi", corpora["melody_midi"], "--out", out,
                   "--config", cfg) == 0
        config = (out / "run_config.txt").read_text().splitlines()
        assert f"sha256_config = {hashlib.sha256(cfg.read_bytes()).hexdigest()}" in config


class TestConfigFile:
    def test_config_supplies_values_flags_win(self, corpora, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("corpus = pretrain-only\nseed = 4  # comment\n\n")
        out = tmp_path / "from_config"
        assert run("pretrain", "--data", corpora["pre_store"],
                   "--data", corpora["melody_store"],
                   "--out", out, "--config", cfg, "--dry-run") == 0
        config_text = (out / "run_config.txt").read_text()
        assert "corpus = pretrain-only" in config_text
        assert "seed = 4" in config_text
        out2 = tmp_path / "flag_wins"
        assert run("pretrain", "--data", corpora["pre_store"],
                   "--data", corpora["melody_store"],
                   "--out", out2, "--config", cfg, "--corpus", "all", "--dry-run") == 0
        assert "corpus = all" in (out2 / "run_config.txt").read_text()

    def test_unknown_key_is_usage_error(self, corpora, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("learning_rate = 1\n")
        assert run("pretrain", "--data", corpora["pre_store"],
                   "--out", tmp_path / "x", "--config", cfg, "--dry-run") == 1
        assert "learning_rate" in capsys.readouterr().err

    def test_malformed_line_rejected(self, corpora, tmp_path):
        cfg = tmp_path / "bad2.cfg"
        cfg.write_text("just some words\n")
        assert run("pretrain", "--data", corpora["pre_store"],
                   "--out", tmp_path / "x", "--config", cfg, "--dry-run") == 1

    @pytest.mark.parametrize("command, entry", [
        ("pretrain", "corpus = bogus"),
        ("pretrain", "preset = huge"),
        ("eval", "split = bogus"),
    ])
    def test_value_outside_choices_is_usage_error(
        self, corpora, finetuned, tmp_path, capsys, command, entry
    ):
        cfg = tmp_path / "choice.cfg"
        cfg.write_text(entry + "\n")
        out = tmp_path / "never"
        if command == "pretrain":
            args = ("pretrain", "--data", corpora["pre_store"], "--dry-run")
        else:
            args = ("eval", "--checkpoint", finetuned / "model.ckpt",
                    "--data", corpora["melody_store"])
        assert run(*args, "--out", out, "--config", cfg) == 1
        assert repr(entry.split(" = ")[0]) in capsys.readouterr().err
        assert not out.exists()

    def test_training_defaults_come_from_train(self, corpora, tmp_path):
        runs = {
            "pretrain": ("pretrain", "--data", corpora["pre_store"], "--dry-run"),
            "finetune": ("finetune", "--task", "melody", "--data", corpora["melody_store"],
                         "--no-pretrain"),
        }
        defaults = {"pretrain": train.TrainConfig(), "finetune": train.finetune_config()}
        for command, args in runs.items():
            out = tmp_path / command
            assert run(*args, "--out", out) == 0
            recorded = (out / "run_config.txt").read_text().splitlines()
            for name in ("batch_size", "lr", "weight_decay", "max_epochs", "patience", "seed"):
                assert f"{name} = {getattr(defaults[command], name)}" in recorded


class TestValuesTheProgramRejects:
    """Values argparse accepts but the program cannot run with are usage
    errors (exit 1), from flags and config files alike, before any output."""

    @pytest.mark.parametrize("ratios", ["a,b,c", "8", "1,0,1", "1,1,1,1", "8,-1,1"])
    def test_bad_ratios(self, corpora, tmp_path, capsys, ratios):
        out = tmp_path / "never"
        args = ("prepare", "--midi", corpora["melody_midi"], "--task", "melody",
                "--note-labels", corpora["melody_midi"] / "note_labels.csv", "--out", out)
        assert run(*args, "--ratios", ratios) == 1
        cfg = tmp_path / "ratios.cfg"
        cfg.write_text(f"ratios = {ratios}\n")
        assert run(*args, "--config", cfg) == 1
        err = capsys.readouterr().err
        assert err.count("usage error") == 2 and "Traceback" not in err
        assert not out.exists()

    def test_ratios_recorded_as_given(self, corpora, tmp_path):
        out = tmp_path / "store"
        assert run("prepare", "--midi", corpora["melody_midi"], "--task", "melody",
                   "--note-labels", corpora["melody_midi"] / "note_labels.csv",
                   "--out", out, "--ratios", "3,1,1") == 0
        assert "ratios = 3,1,1" in (out / "run_config.txt").read_text().splitlines()

    @pytest.mark.parametrize("entry", ["patience = 0", "batch_size = 0", "lr = -1",
                                       "weight_decay = -0.5", "seed = -3",
                                       "max_epochs = 2"])  # patience 30 > max_epochs
    def test_bad_training_settings(self, corpora, tmp_path, capsys, entry):
        key, value = entry.split(" = ")
        runs = {
            "pretrain": ("pretrain", "--data", corpora["pre_store"], "--dry-run"),
            "finetune": ("finetune", "--task", "melody", "--data", corpora["melody_store"],
                         "--no-pretrain"),
        }
        cfg = tmp_path / "train.cfg"
        cfg.write_text(entry + "\n")
        for command, args in runs.items():
            if command == "finetune" and key == "max_epochs":
                value = "1"  # finetune's patience is 3
            out = tmp_path / f"{command}-never"
            flag = "--" + key.replace("_", "-")
            assert run(*args, "--out", out, flag, value) == 1, (command, entry)
            cfg.write_text(f"{key} = {value}\n")
            assert run(*args, "--out", out, "--config", cfg) == 1, (command, entry)
            err = capsys.readouterr().err
            assert err.count("usage error") == 2 and "Traceback" not in err
            assert not out.exists()


# Out-of-domain values for each parser type a flag uses; the training ints
# and floats are bounded by TrainConfig, which option resolution builds.
OUT_OF_DOMAIN = {
    cli._count: ("0", "-1", "x"),
    cli._seed: ("-1", "x"),
    cli._ratios: ("x", "1,0,1", "8"),
    cli._str_list: ("", "a,b"),
    int: ("-1", "1.5", "x"),
    float: ("-1", "nan", "inf", "x"),
}


def typed_flags():
    """(command, flag name, argparse action) for every flag with a type or choices."""
    _, flags = cli.build_parser()
    for command, table in flags.items():
        for name, action in table.items():
            if action.type is not None or action.choices is not None:
                yield command, name, action


def base_args(command, root):
    """A complete command line that reads only missing inputs, so it fails
    with exit 2 or 4 (or, for synth, succeeds) but never with 1."""
    missing = root / "missing"
    return {
        "synth": ("synth", "--task", "melody"),
        "prepare": ("prepare", "--midi", missing, "--task", "pretrain"),
        "pretrain": ("pretrain", "--data", missing, "--dry-run"),
        "finetune": ("finetune", "--task", "melody", "--data", missing, "--no-pretrain"),
        "eval": ("eval", "--checkpoint", missing, "--data", missing),
        "skyline": ("skyline", "--midi", missing),
    }[command]


class TestOutOfDomainSweep:
    """Every typed flag of every command, given an out-of-domain value on the
    command line or in a --config file, is a one-line usage error (exit 1)
    with no traceback and no output directory."""

    def test_every_type_has_out_of_domain_values(self):
        for command, name, action in typed_flags():
            assert action.choices is not None or action.type in OUT_OF_DOMAIN, (command, name)

    @pytest.mark.parametrize("command", sorted(cli.build_parser()[1]))
    def test_base_commands_are_not_usage_errors(self, tmp_path, capsys, command):
        assert run(*base_args(command, tmp_path), "--out", tmp_path / "out") != 1
        capsys.readouterr()

    @pytest.mark.parametrize("command, name, value, required", [
        pytest.param(command, name, value, action.required, id=f"{command}-{name}={value}")
        for command, name, action in typed_flags()
        for value in (("bogus",) if action.choices is not None else OUT_OF_DOMAIN[action.type])
    ])
    def test_rejected_before_any_output(self, tmp_path, capsys, command, name, value, required):
        out = tmp_path / "never"
        args = (*base_args(command, tmp_path), "--out", out)
        flag = "--" + name.replace("_", "-")
        assert run(*args, f"{flag}={value}") == 1
        legs = 1
        if not required:  # the file's entries for required flags are ignored
            cfg = tmp_path / "sweep.cfg"
            cfg.write_text(f"{name.replace('_', '-')} = {value}\n")
            assert run(*args, "--config", cfg) == 1
            legs = 2
        err = capsys.readouterr().err
        assert err.count("\n") == legs and err.count("usage error: ") == legs, err
        assert "Traceback" not in err
        assert not out.exists()


class TestRunConfig:
    def test_digests_and_settings_recorded(self, corpora, tmp_path):
        out = tmp_path / "rc"
        assert run("pretrain", "--data", corpora["pre_store"], "--out", out,
                   "--dry-run") == 0
        text = (out / "run_config.txt").read_text()
        assert "command = pretrain" in text
        assert "version = 0.1.0" in text
        assert "sha256_data_0 = " in text
        assert "corpus = all" in text  # default echoed after resolution
        digest = [l for l in text.splitlines() if l.startswith("sha256_data_0")][0]
        assert len(digest.split(" = ")[1]) == 64


class TestPipeline:
    def test_end_to_end_smoke(self, tmp_path):
        midi = tmp_path / "midi"
        store = tmp_path / "store"
        runs = tmp_path / "runs"
        assert run("synth", "--task", "melody", "--out", midi,
                   "--pieces", 5, "--bars", 3, "--seed", 0) == 0
        assert run("prepare", "--midi", midi, "--task", "melody", "--out", store,
                   "--note-labels", midi / "note_labels.csv", "--ratios", "3,1,1") == 0
        assert run("finetune", "--task", "melody", "--data", store,
                   "--out", runs / "ft", "--no-pretrain", "--max-epochs", 1,
                   "--patience", 1, "--batch-size", 4) == 0
        assert run("eval", "--checkpoint", runs / "ft" / "model.ckpt",
                   "--data", store, "--split", "test", "--out", runs / "ev") == 0
        assert (runs / "ev" / "report" / "metrics.txt").exists()


# Three 16 MiB arrays allocated and freed four times; prints the page faults
# of each round. glibc's default thresholds return the freed blocks to the
# system and fault them in again every round.
_ROUNDS = """
import resource, sys
import numpy as np
from midibert import cli
cli._pin_allocator()
counts = []
for _ in range(4):
    start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    blocks = [np.ones(2 << 20) for _ in range(3)]
    del blocks
    counts.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start)
print(*counts)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc mallopt")
def test_pinned_allocator_reuses_freed_arrays():
    src = str(Path(cli.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", _ROUNDS], capture_output=True, text=True, check=True,
        env={"PYTHONPATH": src},  # no MALLOC_* settings from outside
    ).stdout.split()
    first, *later = map(int, out)
    assert first > 0  # the heap grows once
    assert max(later) < 50, out  # then the same blocks come back without faults
