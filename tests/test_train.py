"""Training-loop tests: optimizer arithmetic, early stopping, determinism,
and small end-to-end runs that actually have to learn something."""

from __future__ import annotations

import math

import numpy as np
import pytest

from midibert import autodiff as ad
from midibert import corpus
from midibert import evaluate
from midibert import masking
from midibert import model as M
from midibert import train
from midibert.autodiff import tensor
from midibert.tokens import CHUNK_LEN

from .support import mean, mul


def tiny_config(**overrides):
    base = dict(
        representation="remi", hidden=32, layers=1, heads=2, ff=64,
        max_len=64, head="mlm", init_seed=0,
    )
    base.update(overrides)
    return M.ModelConfig(**base)


def motif_row():
    """One fixed 64-step bar: 21 notes on a four-position cycle."""
    row = [1]  # bar marker
    subs = [2, 6, 10, 14]           # sub-beat ids for positions 0, 4, 8, 12
    pitches = [56, 60, 63, 68]      # pitch ids (midi 60, 64, 67, 72)
    durs = [107, 111]
    for k in range(21):
        row += [subs[k % 4], pitches[k % 4], durs[k % 2]]
    return row


def ostinato_ids(n):
    return np.array([motif_row()] * n, dtype=np.int64)


def varied_ids(rng, n, lengths=None, width=64):
    """Rows that share the motif grid but draw pitches from a small set; with
    `lengths`, row i repeats its bar to `width` steps and keeps lengths[i]
    real steps, then Pad."""
    base = np.array([motif_row()] * n, dtype=np.int64)
    pitch_cols = np.arange(2, 64, 3)
    for row in base:
        row[pitch_cols] = rng.choice([40, 56, 60, 70], size=len(pitch_cols))
    if lengths is None:
        return base
    base = np.tile(base, (1, width // 64))
    base[np.arange(width) >= np.asarray(lengths)[:, None]] = 0  # REMI Pad
    return base


def as_cp(ids):
    """Four-field rows derived from REMI-style rows; Pad stays all-Pad."""
    cp = np.stack([ids % 2 + 1, ids % 16 + 1, ids % 86 + 1, ids % 64 + 1], -1)
    cp[ids == 0] = 0
    return cp


class TestTrainConfig:
    def test_defaults_match_contract(self):
        cfg = train.TrainConfig()
        assert (cfg.batch_size, cfg.lr, cfg.weight_decay) == (12, 2e-5, 0.01)
        assert (cfg.max_epochs, cfg.patience) == (500, 30)
        ft = train.finetune_config()
        assert (ft.max_epochs, ft.patience) == (10, 3)
        assert train.GRAD_CLIP == 1.0

    def test_overrides(self):
        cfg = train.finetune_config(lr=1e-3, patience=2, freeze="backbone")
        assert cfg.lr == 1e-3 and cfg.patience == 2 and cfg.freeze == "backbone"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"batch_size": 0},
            {"lr": 0.0},
            {"lr": -1e-4},
            {"weight_decay": -0.1},
            {"patience": 0},
            {"patience": 31, "max_epochs": 30},
            {"max_epochs": 0},
            {"seed": -1},
            {"freeze": "heads"},
            {"lr": float("nan")},
            {"lr": float("inf")},
            {"weight_decay": float("nan")},
            {"weight_decay": float("inf")},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            train.TrainConfig(**kwargs)


class TestAdamW:
    def test_zero_gradient_is_pure_decay(self, monkeypatch):
        # update term is exactly 0/(0+eps); only decoupled decay moves weights
        monkeypatch.setattr(train, "GRAD_CLIP", math.inf)
        rng = np.random.default_rng(0)
        p = tensor(rng.normal(size=(4, 3)), requires_grad=True)
        start = p.data.copy()
        opt = train.AdamW({"w": p}, lr=0.1, weight_decay=0.01)
        p.grad = np.zeros_like(start)
        opt.step()
        expected = start - 0.1 * (np.zeros_like(start) + 0.01 * start)
        assert np.array_equal(p.data, expected)

    def test_constant_gradient_steps_by_signed_lr(self, monkeypatch):
        # bias correction makes mhat=c and vhat=c^2 from the first step,
        # so the update is c/(|c|+eps), i.e. sign(c) up to eps
        monkeypatch.setattr(train, "GRAD_CLIP", math.inf)
        data = np.zeros(3)
        p = tensor(data.copy(), requires_grad=True)
        opt = train.AdamW({"w": p}, lr=0.01, weight_decay=0.0)
        grad = np.array([3.0, -0.5, 10.0])
        for step in range(1, 4):
            p.grad = grad.copy()
            opt.step()
            # atol covers float32 rounding (ulp ~2e-9 per step) and the
            # c/(|c|+eps) shortfall; a wrong update rule misses by ~1e-2
            assert np.allclose(p.data, -step * 0.01 * np.sign(grad), rtol=0, atol=1e-7)

    def test_quadratic_bowl_converges(self, monkeypatch):
        monkeypatch.setattr(train, "GRAD_CLIP", math.inf)
        rng = np.random.default_rng(1)
        p = tensor(rng.normal(size=10), requires_grad=True)
        opt = train.AdamW({"w": p}, lr=0.05, weight_decay=0.0)
        first = float((p.data**2).mean())
        for _ in range(100):
            loss = mean(mul(p, p))
            opt.zero_grad()
            ad.backward(loss)
            opt.step()
        final = float((p.data**2).mean())
        assert final < first / 20
        assert final < 0.02  # settles near the minimum at the lr scale

    def test_clip_matches_prescaled_gradients(self, monkeypatch):
        rng = np.random.default_rng(2)
        g1 = rng.normal(size=(5,)) * 3
        g2 = rng.normal(size=(2, 3)) * 3
        total = float(np.sqrt(float((g1 * g1).sum()) + float((g2 * g2).sum())))
        assert total > 1.0
        scale = 1.0 / total

        a1 = tensor(np.ones(5), requires_grad=True)
        a2 = tensor(np.ones((2, 3)), requires_grad=True)
        clipped = train.AdamW({"a": a1, "b": a2}, lr=0.01, weight_decay=0.01)
        a1.grad, a2.grad = g1.copy(), g2.copy()
        clipped.step()

        b1 = tensor(np.ones(5), requires_grad=True)
        b2 = tensor(np.ones((2, 3)), requires_grad=True)
        monkeypatch.setattr(train, "GRAD_CLIP", math.inf)
        plain = train.AdamW({"a": b1, "b": b2}, lr=0.01, weight_decay=0.01)
        b1.grad, b2.grad = g1 * scale, g2 * scale
        plain.step()

        assert np.array_equal(a1.data, b1.data)
        assert np.array_equal(a2.data, b2.data)

    def test_small_gradients_not_scaled(self, monkeypatch):
        g = np.full(4, 0.1)
        a = tensor(np.ones(4), requires_grad=True)
        with_clip = train.AdamW({"w": a}, lr=0.01, weight_decay=0.0)
        a.grad = g.copy()
        with_clip.step()
        b = tensor(np.ones(4), requires_grad=True)
        monkeypatch.setattr(train, "GRAD_CLIP", math.inf)
        without = train.AdamW({"w": b}, lr=0.01, weight_decay=0.0)
        b.grad = g.copy()
        without.step()
        assert np.array_equal(a.data, b.data)

    def test_nonfinite_gradient_names_parameter(self):
        p = tensor(np.ones(3), requires_grad=True)
        opt = train.AdamW({"layers.0.ff.w1": p}, lr=0.01, weight_decay=0.0)
        p.grad = np.array([1.0, np.inf, 0.0])
        with pytest.raises(FloatingPointError, match="layers.0.ff.w1"):
            opt.step()

    def test_missing_gradient_rejected(self):
        p = tensor(np.ones(3), requires_grad=True)
        opt = train.AdamW({"w": p}, lr=0.01, weight_decay=0.0)
        opt.zero_grad()
        with pytest.raises(ValueError, match="no gradient"):
            opt.step()

    def test_empty_params_rejected(self):
        with pytest.raises(ValueError, match="parameter"):
            train.AdamW({}, lr=0.01, weight_decay=0.0)


class TestTrainLog:
    def make_log(self):
        log = train.TrainLog(monitor="valid_loss")
        log.rows.append(train.EpochRow(1, 2.5, 2.25, 0.125, 3.7))
        log.rows.append(train.EpochRow(2, 2.0, 2.5, 0.25, 4.1))
        log.best_epoch = 1
        return log

    def test_csv_has_no_timing(self):
        text = self.make_log().csv_text()
        assert text == (
            "epoch,train_loss,valid_loss,valid_accuracy\n"
            "1,2.5,2.25,0.125\n"
            "2,2.0,2.5,0.25\n"
        )

    def test_summary_reports_best_epoch(self):
        log = self.make_log()
        text = log.summary_text({"test_accuracy": 0.5})
        assert "monitor = valid_loss" in text
        assert "epochs_run = 2" in text
        assert "best_epoch = 1" in text
        assert "best_valid_loss = 2.25" in text
        assert "stopped_early = false" in text
        assert "test_accuracy = 0.5" in text

    def test_best_row_requires_training(self):
        with pytest.raises(ValueError, match="best"):
            train.TrainLog(monitor="valid_loss").best_row()


class TestPretrain:
    def test_requires_mlm_head_and_data(self, tmp_path):
        clf = M.EncoderModel(tiny_config(head="note", num_classes=3))
        ids = ostinato_ids(4)
        cfg = train.TrainConfig(batch_size=2, max_epochs=1, patience=1)
        with pytest.raises(ValueError, match="mlm"):
            train.pretrain(clf, ids, ids, cfg, tmp_path / "c.ckpt")
        mlm = M.EncoderModel(tiny_config())
        with pytest.raises(ValueError, match="empty"):
            train.pretrain(mlm, ids[:0], ids, cfg, tmp_path / "c.ckpt")
        with pytest.raises(ValueError, match="empty"):
            train.pretrain(mlm, ids, ids[:0], cfg, tmp_path / "c.ckpt")

    def test_two_runs_same_seed_identical(self, tmp_path):
        rng = np.random.default_rng(3)
        data = varied_ids(rng, 10)
        cfg = train.TrainConfig(batch_size=4, lr=3e-4, max_epochs=2, patience=2, seed=11)
        logs = []
        for tag in ("a", "b"):
            m = M.EncoderModel(tiny_config())
            logs.append(train.pretrain(m, data[:6], data[6:], cfg, tmp_path / f"{tag}.ckpt"))
        assert logs[0].csv_text() == logs[1].csv_text()
        assert logs[0].best_epoch == logs[1].best_epoch
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_different_seed_differs(self, tmp_path):
        rng = np.random.default_rng(3)
        data = varied_ids(rng, 10)
        texts = []
        for seed in (11, 12):
            cfg = train.TrainConfig(batch_size=4, lr=3e-4, max_epochs=2, patience=2, seed=seed)
            m = M.EncoderModel(tiny_config())
            texts.append(train.pretrain(m, data[:6], data[6:], cfg, tmp_path / "x.ckpt").csv_text())
        assert texts[0] != texts[1]

    def test_learns_fixed_motif(self, tmp_path):
        # every row repeats one motif, so context determines each token;
        # run length chosen from a pilot (full cloze by ~epoch 65 at this lr)
        data = ostinato_ids(16)
        cfg = train.TrainConfig(batch_size=4, lr=5e-3, max_epochs=70, patience=70, seed=5)
        m = M.EncoderModel(tiny_config())
        log = train.pretrain(m, data[:12], data[12:], cfg, tmp_path / "m.ckpt")
        first, best = log.rows[0], log.best_row()
        assert best.valid_loss < first.valid_loss * 0.5
        assert best.valid_loss < np.log(169)  # beats the uniform predictor
        assert best.valid_accuracy >= 0.9

    def test_saved_checkpoint_matches_best_epoch(self, tmp_path):
        rng = np.random.default_rng(4)
        data = varied_ids(rng, 8)
        cfg = train.TrainConfig(batch_size=4, lr=3e-4, max_epochs=3, patience=3, seed=2)
        m = M.EncoderModel(tiny_config())
        log = train.pretrain(m, data[:6], data[6:], cfg, tmp_path / "best.ckpt")
        best = M.load_checkpoint(tmp_path / "best.ckpt")
        assert set(best.params) == set(m.params)
        same = all(
            np.array_equal(best.params[name].data, m.params[name].data) for name in m.params
        )
        # the file holds the best epoch's weights, not necessarily the last
        assert same == (log.best_epoch == len(log.rows))

    def test_early_stop_fires_after_patience(self, tmp_path):
        # lr too small to move float32 forward results: epoch 1 stays the
        # best and every later epoch evaluates to the same validation loss
        data = ostinato_ids(6)
        cfg = train.TrainConfig(batch_size=3, lr=1e-30, max_epochs=10, patience=3, seed=0)
        m = M.EncoderModel(tiny_config())
        log = train.pretrain(m, data[:3], data[3:], cfg, tmp_path / "stop.ckpt")
        assert log.best_epoch == 1
        assert len(log.rows) == 1 + cfg.patience
        assert log.stopped_early
        assert log.rows[1].valid_loss == log.rows[0].valid_loss

    def test_nonfinite_gradient_names_epoch_and_batch(self, tmp_path, monkeypatch):
        data = ostinato_ids(6)
        cfg = train.TrainConfig(batch_size=2, lr=1e-3, max_epochs=2, patience=2, seed=0)
        m = M.EncoderModel(tiny_config())
        backward, steps = ad.backward, []

        def poisoned(loss):  # a NaN lands in one gradient on the second step
            backward(loss)
            steps.append(len(steps))
            if len(steps) == 2:
                m.params["layers.0.ff.w1"].grad[0, 0] = np.nan

        monkeypatch.setattr(ad, "backward", poisoned)
        with pytest.raises(
            FloatingPointError,
            match=r"^non-finite gradient in layers\.0\.ff\.w1 at epoch 1, batch 1$",
        ):
            train.pretrain(m, data[:4], data[4:], cfg, tmp_path / "nan.ckpt")

    def test_runs_to_max_epochs_without_stopping(self, tmp_path):
        rng = np.random.default_rng(5)
        data = varied_ids(rng, 8)
        cfg = train.TrainConfig(batch_size=4, lr=3e-4, max_epochs=2, patience=2, seed=1)
        m = M.EncoderModel(tiny_config())
        log = train.pretrain(m, data[:6], data[6:], cfg, tmp_path / "full.ckpt")
        assert len(log.rows) == 2
        assert not log.stopped_early


def register_label(pitch_id):
    return 0 if pitch_id >= 56 else 1  # midi 60 splits the registers


def note_task_data(rng, n, lengths=None, width=64):
    """Melody-style corpus whose note label is decided by pitch register."""
    ids = varied_ids(rng, n, lengths, width)
    labels = np.full(ids.shape, corpus.IGNORE_LABEL, dtype=np.int64)
    pitch_cols = np.flatnonzero(np.arange(ids.shape[1]) % 64 % 3 == 2)
    for row, lab in zip(ids, labels):
        cols = pitch_cols[row[pitch_cols] != 0]
        lab[cols] = [register_label(p) for p in row[cols]]
    split = np.array([0] * (n - 4) + [1, 1, 2, 2], dtype=np.int8)
    return corpus.TaskData(
        task=corpus.TASKS["melody"],
        representation="remi",
        ids=ids,
        split_of=split,
        note_labels=labels,
    )


def seq_task_data(rng, n, lengths=None, width=64):
    """Emotion-style corpus labeled by the register of the first note."""
    ids = varied_ids(rng, n, lengths, width)
    labels = np.array([register_label(row[2]) for row in ids], dtype=np.int64)
    split = np.array([0] * (n - 4) + [1, 1, 2, 2], dtype=np.int8)
    return corpus.TaskData(
        task=corpus.TASKS["emotion"],
        representation="remi",
        ids=ids,
        split_of=split,
        seq_labels=labels,
    )


class TestFinetune:
    def test_model_and_task_must_agree(self, tmp_path):
        rng = np.random.default_rng(6)
        data = note_task_data(rng, 8)
        cfg = train.finetune_config(batch_size=4, max_epochs=1, patience=1)
        wrong_head = M.EncoderModel(tiny_config(head="seq", num_classes=3))
        with pytest.raises(ValueError, match="note head"):
            train.finetune(wrong_head, data, cfg, tmp_path / "c.ckpt")
        wrong_classes = M.EncoderModel(tiny_config(head="note", num_classes=4))
        with pytest.raises(ValueError, match="classes"):
            train.finetune(wrong_classes, data, cfg, tmp_path / "c.ckpt")
        wrong_rep = M.EncoderModel(tiny_config(representation="cp", head="note", num_classes=3))
        with pytest.raises(ValueError, match="representation"):
            train.finetune(wrong_rep, data, cfg, tmp_path / "c.ckpt")

    def test_rejects_pretrain_task(self, tmp_path):
        rng = np.random.default_rng(6)
        data = note_task_data(rng, 8)
        object.__setattr__(data, "task", corpus.TASKS["pretrain"])
        m = M.EncoderModel(tiny_config(head="note", num_classes=3))
        with pytest.raises(ValueError, match="classification"):
            train.finetune(m, data, train.finetune_config(), tmp_path / "c.ckpt")

    def test_note_task_learns_register_rule(self, tmp_path):
        rng = np.random.default_rng(7)
        data = note_task_data(rng, 12)
        cfg = train.finetune_config(batch_size=4, lr=1e-3, max_epochs=10, patience=10, seed=3)
        m = M.EncoderModel(tiny_config(head="note", num_classes=3))
        log, test_acc = train.finetune(m, data, cfg, tmp_path / "note.ckpt")
        assert log.monitor == "valid_accuracy"
        assert log.best_row().valid_accuracy > 0.9
        assert test_acc > 0.9
        # the returned model must hold the best weights
        _, preds, labels = train.evaluate_classifier(m, data, data.indices("test"), 4)
        assert evaluate.accuracy(preds, labels) == test_acc

    def test_seq_task_learns(self, tmp_path):
        rng = np.random.default_rng(8)
        data = seq_task_data(rng, 12)
        cfg = train.finetune_config(batch_size=4, lr=2e-3, max_epochs=10, patience=10, seed=4)
        m = M.EncoderModel(tiny_config(head="seq", num_classes=4))
        log, test_acc = train.finetune(m, data, cfg, tmp_path / "seq.ckpt")
        assert test_acc >= 0.75
        assert 1 <= log.best_epoch <= len(log.rows)

    def test_determinism(self, tmp_path):
        rng = np.random.default_rng(9)
        data = note_task_data(rng, 8)
        cfg = train.finetune_config(batch_size=4, lr=1e-3, max_epochs=3, patience=3, seed=6)
        outs = []
        for tag in ("a", "b"):
            m = M.EncoderModel(tiny_config(head="note", num_classes=3))
            outs.append(train.finetune(m, data, cfg, tmp_path / f"{tag}.ckpt"))
        assert outs[0][0].csv_text() == outs[1][0].csv_text()
        assert outs[0][1] == outs[1][1]

    def test_freeze_backbone_leaves_backbone_untouched(self, tmp_path):
        rng = np.random.default_rng(10)
        data = note_task_data(rng, 8)
        m = M.EncoderModel(tiny_config(head="note", num_classes=3))
        before = {
            name: t.data.copy() for name, t in m.params.items() if not name.startswith("head.")
        }
        head_before = {
            name: t.data.copy() for name, t in m.params.items() if name.startswith("head.")
        }
        cfg = train.finetune_config(
            batch_size=4, lr=1e-3, max_epochs=2, patience=2, seed=1, freeze="backbone"
        )
        train.finetune(m, data, cfg, tmp_path / "fz.ckpt")
        for name, data_before in before.items():
            assert np.array_equal(m.params[name].data, data_before), name
        assert any(
            not np.array_equal(m.params[name].data, head_before[name]) for name in head_before
        )

    def test_freeze_attention(self, tmp_path):
        rng = np.random.default_rng(11)
        data = note_task_data(rng, 8)
        m = M.EncoderModel(tiny_config(head="note", num_classes=3))
        attn_before = {
            name: t.data.copy() for name, t in m.params.items() if ".attn." in name
        }
        ff_before = {name: t.data.copy() for name, t in m.params.items() if ".ff." in name}
        cfg = train.finetune_config(
            batch_size=4, lr=1e-3, max_epochs=2, patience=2, seed=1, freeze="attention"
        )
        train.finetune(m, data, cfg, tmp_path / "fa.ckpt")
        for name, data_before in attn_before.items():
            assert np.array_equal(m.params[name].data, data_before), name
        assert any(
            not np.array_equal(m.params[name].data, ff_before[name]) for name in ff_before
        )

    def test_empty_split_rejected(self, tmp_path):
        rng = np.random.default_rng(12)
        data = note_task_data(rng, 8)
        data.split_of[data.split_of == 2] = 1  # drop the test split
        m = M.EncoderModel(tiny_config(head="note", num_classes=3))
        with pytest.raises(ValueError, match="test"):
            train.finetune(m, data, train.finetune_config(batch_size=4), tmp_path / "c.ckpt")

    def test_log_keeps_the_test_predictions(self, tmp_path):
        rng = np.random.default_rng(13)
        data = note_task_data(rng, 8)
        cfg = train.finetune_config(batch_size=4, lr=1e-3, max_epochs=2, patience=2, seed=2)
        m = M.EncoderModel(tiny_config(head="note", num_classes=3))
        log, test_acc = train.finetune(m, data, cfg, tmp_path / "c.ckpt")
        _, preds, labels = train.evaluate_classifier(m, data, data.indices("test"), 4)
        assert np.array_equal(log.test_predictions, preds)
        assert np.array_equal(log.test_labels, labels)
        assert evaluate.accuracy(preds, labels) == test_acc


class TestGraphFreeEvaluation:
    """Scoring runs on a detached view of the parameters: the same numbers as
    a forward that records a graph, but no op records one."""

    @staticmethod
    def recording_logits(monkeypatch):
        outputs = []
        logits = M.EncoderModel.logits

        def recording(self, ids, *, training=False, seed=0):
            out = logits(self, ids, training=training, seed=seed)
            outputs.extend(out if isinstance(out, list) else [out])
            return out

        monkeypatch.setattr(M.EncoderModel, "logits", recording)
        return outputs

    @pytest.mark.parametrize("level", ["note", "sequence"])
    def test_evaluate_classifier(self, level, monkeypatch):
        rng = np.random.default_rng(14)
        lengths = [64, 20, 3, 41, 58, 7, 33, 12, 50, 9]
        data = (note_task_data if level == "note" else seq_task_data)(rng, 10, lengths)
        head, classes = ("note", 3) if level == "note" else ("seq", 4)
        m = M.EncoderModel(tiny_config(head=head, num_classes=classes))
        indices = np.arange(1, 10)  # without the full row: the set is cut to 58
        labels = train.task_labels(data)
        width = train._real_length(m, data.ids[indices])
        assert width == 58
        want_loss, want_logits = train._class_loss(
            m, data.ids[indices, :width], labels[indices], level, training=False, seed=0
        )
        assert want_loss._backward is not None  # the live model records a graph
        outputs = self.recording_logits(monkeypatch)
        loss, preds, truth = train.evaluate_classifier(m, data, indices, batch_size=10)
        assert loss == float(want_loss.data)
        want_preds = np.argmax(want_logits.data, axis=-1)
        if level == "note":
            assert (preds[:, width:] == corpus.IGNORE_LABEL).all()
            preds = preds[:, :width]
        assert np.array_equal(preds, want_preds)
        assert np.array_equal(truth, labels[indices])
        assert outputs and all(out._backward is None for out in outputs)
        assert all(t.grad is None and t.requires_grad for t in m.params.values())

    @pytest.mark.parametrize("representation", ["remi", "cp"])
    def test_evaluate_mlm(self, representation, monkeypatch):
        rng = np.random.default_rng(15)
        m = M.EncoderModel(tiny_config(representation=representation))
        ids = varied_ids(rng, 5, [30, 45, 12, 3, 40])
        if representation == "cp":
            ids = as_cp(ids)
        whole = masking.corrupt(ids, m.vocab, seed=4)
        whole = train._sub_batch(whole, np.s_[:, :45])
        want_loss, want_logits = M.mlm_loss(m, whole, training=False)
        outputs = self.recording_logits(monkeypatch)
        loss, accuracy = train.evaluate_mlm(m, ids, batch_size=5, mask_seed=4)
        assert loss == float(want_loss.data)
        assert accuracy == M.cloze_accuracy(want_logits, whole)
        assert outputs and all(out._backward is None for out in outputs)
        assert all(t.grad is None and t.requires_grad for t in m.params.values())


class TestRealPrefix:
    """The encoder runs on each training batch's, and each scored set's,
    longest real prefix: that changes rounding, not the model."""

    LENGTHS = [37, 90, 5, 64, 1, 77, 12, 50, 90, 23, 8, 61]  # longest real prefix 90

    @staticmethod
    def model(**overrides):
        return M.EncoderModel(tiny_config(max_len=CHUNK_LEN, **overrides))

    @pytest.mark.parametrize("representation", ["remi", "cp"])
    @pytest.mark.parametrize("head", ["mlm", "note", "seq"])
    def test_cut_outputs_match_padded(self, head, representation):
        m = self.model(representation=representation, head=head,
                       num_classes=0 if head == "mlm" else 3)
        ids = varied_ids(np.random.default_rng(21), 4, [37, 90, 5, 64], CHUNK_LEN)
        ids[0, 3] = 0  # a Pad step inside a row stays, masked as before
        if representation == "cp":
            ids = as_cp(ids)
        width = train._real_length(m, ids)
        assert width == 90
        padded, cut = m.logits(ids), m.logits(ids[:, :width])
        real = m.step_mask(ids[:, :width])
        pairs = zip(padded, cut) if isinstance(padded, list) else [(padded, cut)]  # CP mlm: 4 fields
        for full, short in pairs:
            if head == "seq":
                gap = np.abs(full.data - short.data).max()
            else:
                assert short.data.shape[1] == width
                gap = np.abs(full.data[:, :width][real] - short.data[real]).max()
            assert gap <= 1e-5

    def test_all_pad_rows_keep_one_step(self):
        m = self.model()
        assert train._real_length(m, np.zeros((2, CHUNK_LEN), dtype=np.int64)) == 1
        assert train._real_length(self.model(representation="cp"),
                                  np.zeros((2, CHUNK_LEN, 4), dtype=np.int64)) == 1

    @pytest.mark.parametrize("level", ["note", "sequence"])
    def test_predictions_do_not_depend_on_batch_size(self, level):
        # `eval` scores at batch 12 and a fine-tune's test split at its own
        # batch size; both must give the same predictions
        data = (note_task_data if level == "note" else seq_task_data)(
            np.random.default_rng(22), 12, self.LENGTHS, CHUNK_LEN
        )
        head = "note" if level == "note" else "seq"
        m = self.model(head=head, num_classes=3)
        indices = np.arange(12)
        loss4, preds4, truth4 = train.evaluate_classifier(m, data, indices, batch_size=4)
        loss12, preds12, truth12 = train.evaluate_classifier(m, data, indices, batch_size=12)
        assert np.array_equal(preds4, preds12) and np.array_equal(truth4, truth12)
        # the per-batch means are summed in another grouping
        assert loss4 == pytest.approx(loss12, rel=1e-6)

    @pytest.mark.parametrize("level", ["note", "sequence"])
    def test_predictions_match_the_padded_forward(self, level):
        data = (note_task_data if level == "note" else seq_task_data)(
            np.random.default_rng(23), 12, self.LENGTHS, CHUNK_LEN
        )
        head = "note" if level == "note" else "seq"
        m = self.model(head=head, num_classes=3, init_seed=5)
        for name, t in m.params.items():
            if name.startswith("head."):
                t.data = t.data * 30  # margins well clear of rounding
        indices = np.arange(12)
        labels = train.task_labels(data)
        _, preds, truth = train.evaluate_classifier(m, data, indices, batch_size=4)
        padded = np.concatenate([
            m.logits(data.ids[rows]).data for rows in np.split(indices, 3)
        ])
        keep = truth != corpus.IGNORE_LABEL
        top2 = np.sort(padded, axis=-1)[..., -2:]
        assert (top2[..., 1] - top2[..., 0])[keep].min() > 1e-4
        want = np.argmax(padded, axis=-1)
        assert np.array_equal(preds[keep], want[keep])
        assert evaluate.accuracy(preds, truth) == evaluate.accuracy(want, labels[indices])

    def test_short_batches_reach_attention_at_their_width(self, tmp_path, monkeypatch):
        widths = []
        attention = ad.attention

        def recording(q, *args):
            widths.append(q.data.shape[2])
            return attention(q, *args)

        monkeypatch.setattr(ad, "attention", recording)
        rng = np.random.default_rng(24)
        lengths = [37, 90, 5, 64, 77, 12, 50, 23]
        data = note_task_data(rng, 8, lengths, CHUNK_LEN)
        cfg = train.TrainConfig(batch_size=1, max_epochs=1, patience=1, seed=2)
        train.finetune(self.model(head="note", num_classes=3), data, cfg, tmp_path / "ft.ckpt")
        # one row per training batch, then the valid (77, 12) and test
        # (50, 23) splits, each cut once to its longest row and scored a row
        # at a time
        assert sorted(widths) == sorted(lengths[:4] + [77, 77, 50, 50])

        widths.clear()
        ids = varied_ids(rng, 4, [30, 64, 9, 41], CHUNK_LEN)
        cfg = train.TrainConfig(batch_size=2, max_epochs=1, patience=1, seed=3)
        train.pretrain(self.model(), ids[:2], ids[2:], cfg, tmp_path / "pre.ckpt")
        assert sorted(widths) == [41, 64]
