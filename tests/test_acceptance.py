"""Acceptance gate: ten end-to-end checks, one per release criterion.

Run with `pytest tests/test_acceptance.py -v -s`; each test prints a single
`criterion N: PASS/FAIL` line with the measured numbers before asserting, so
a red run still shows every criterion's outcome. The whole file takes about
ten minutes, dominated by the two pre-training criteria (5 and 6) and the
doubled smoke pipeline (9).

The training criteria pin small synthetic corpora and hyperparameters that
were piloted to pass with margin on a desktop CPU; they are listed next to
each test.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from midibert import cli, corpus, evaluate, masking
from midibert import model as M
from midibert import tokens, train
from midibert.smf import parse_smf, quantize, write_smf
from midibert.tokens import decode_cp, decode_remi, encode_cp, encode_remi

from .support import gradcheck, random_grid_score, skyline_oracle, strip_velocity, widen


def check(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, f"criterion {n}: {detail}"


def cli_ok(*args) -> None:
    argv = [str(a) for a in args]
    code = cli.main(argv)
    assert code == 0, f"cli {argv[0]} exited {code}"


def content_remi_ids(rng, batch, length, fills):
    ids = np.zeros((batch, length), dtype=np.int64)
    for row, fill in zip(ids, fills):
        row[0] = 1
        row[1:fill] = rng.integers(2, 168, fill - 1)
    return ids


def content_cp_ids(rng, batch, length, fills):
    ids = np.zeros((batch, length, 4), dtype=np.int64)
    for row, fill in zip(ids, fills):
        row[:fill, 0] = rng.integers(1, 3, fill)
        row[:fill, 1] = rng.integers(1, 17, fill)
        row[:fill, 2] = rng.integers(1, 87, fill)
        row[:fill, 3] = rng.integers(1, 65, fill)
    return ids


def test_01_vocabulary_sizes():
    remi = tokens.vocab("remi")
    cp = tokens.vocab("cp")
    ok = len(remi) == 169 and len(cp) == 176 and cp.field_sizes == (4, 18, 88, 66)
    check(1, ok, f"remi={len(remi)} cp={len(cp)} fields={cp.field_sizes}")


def test_02_codec_and_smf_round_trips():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026)
    n = 1000
    failures = 0
    for i in range(n):
        score = random_grid_score(rng, source_id=f"rt_{i}")
        plain = strip_velocity(score)
        codec_ok = (
            decode_remi(encode_remi(plain), source_id=plain.source_id) == plain
            and decode_cp(encode_cp(plain), source_id=plain.source_id) == plain
        )
        raw, meta = parse_smf(write_smf(score))
        smf_ok = quantize(raw, meta.ticks_per_quarter, source_id=score.source_id) == score
        failures += not (codec_ok and smf_ok)
    check(2, failures == 0, f"{n - failures}/{n} scores survive codec and smf round trips, "
                            f"{time.perf_counter() - t0:.1f}s")


def test_03_masking_statistics():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    reports = []
    ok = True
    for rep in ("remi", "cp"):
        voc = tokens.vocab(rep)
        if rep == "remi":
            ids = rng.integers(2, 168, (220, 512))
        else:
            ids = content_cp_ids(rng, 220, 512, [512] * 220)
        content = masking.content_steps(ids, voc)
        assert int(content.sum()) >= 100_000
        mb = masking.corrupt(ids, voc, seed=3)
        frac = mb.loss_mask.sum() / content.sum()
        sel_modes = mb.modes[mb.loss_mask]
        split = [float((sel_modes == m).mean()) for m in
                 (masking.MODE_MASK, masking.MODE_RANDOM, masking.MODE_KEEP)]
        ok &= abs(frac - 0.15) <= 0.01
        ok &= abs(split[0] - 0.8) <= 0.02 and abs(split[1] - 0.1) <= 0.02 and abs(split[2] - 0.1) <= 0.02
        ok &= bool((mb.input_ids[~mb.loss_mask] == mb.target_ids[~mb.loss_mask]).all())
        if rep == "cp":
            sel_in = mb.input_ids[mb.loss_mask]
            masked_fields = sel_in == voc.mask_ids()
            coupled = masked_fields.all(axis=1) | ~masked_fields.any(axis=1)
            ok &= bool(coupled.all())
            # non-mask corruption never leaves a Pad field behind
            ok &= bool((sel_in[~masked_fields.all(axis=1)] != voc.pad_ids()).all())
        reports.append(f"{rep} select={frac:.4f} split={split[0]:.3f}/{split[1]:.3f}/{split[2]:.3f}")
    check(3, ok, "; ".join(reports) + f", {time.perf_counter() - t0:.1f}s")


def test_04_desk_model_gradcheck():
    t0 = time.perf_counter()
    worst = {}
    rng = np.random.default_rng(0)
    ids = content_remi_ids(rng, 2, 32, (32, 20))

    m = widen(M.EncoderModel(M.desk_config("remi")))
    batch = masking.corrupt(ids, tokens.vocab("remi"), seed=4)
    tensors = [m.params[k] for k in sorted(m.params)]
    worst["mlm"] = gradcheck(
        lambda: M.mlm_loss(m, batch, training=False)[0],
        tensors, eps=1e-4, sample=200, min_grad=1e-5)

    m = widen(M.EncoderModel(M.desk_config("remi", head="note", num_classes=3)))
    labels = np.where(ids >= 18, rng.integers(0, 3, ids.shape), corpus.IGNORE_LABEL)
    tensors = [m.params[k] for k in sorted(m.params)]
    worst["note"] = gradcheck(
        lambda: train._class_loss(m, ids, labels, "note", training=False, seed=0)[0],
        tensors, eps=1e-4, sample=200, min_grad=1e-5)

    m = widen(M.EncoderModel(M.desk_config("remi", head="seq", num_classes=4)))
    seq_labels = np.array([1, 3])
    tensors = [m.params[k] for k in sorted(m.params)]
    worst["seq"] = gradcheck(
        lambda: train._class_loss(m, ids, seq_labels, "sequence", training=False, seed=0)[0],
        tensors, eps=1e-4, sample=200, min_grad=1e-5)
    ok = all(err <= 1e-5 for err in worst.values())
    detail = " ".join(f"{head}={err:.2e}" for head, err in worst.items())
    check(4, ok, f"max relative errors {detail}, {time.perf_counter() - t0:.0f}s")


def _pretrain_ostinato(rep, pieces, batch_size, lr, ckpt):
    """30-epoch desk pre-training on a dense repeating corpus.

    96-bar pieces keep the 512-step chunks nearly pad-free, which matters
    most for cp (one super token per note gives ~4x fewer steps per chunk
    than remi's four tokens)."""
    made = corpus.synth_corpus(
        corpus.SynthSpec(task="pretrain", pieces=pieces, bars_per_piece=96,
                         style="ostinato"), seed=0)
    ids = corpus.pieces_to_chunks(made, rep).ids
    order = np.random.default_rng([0, len(ids)]).permutation(len(ids))
    n_valid = max(1, round(0.15 * len(ids)))
    model = M.EncoderModel(M.desk_config(rep))
    cfg = train.TrainConfig(batch_size=batch_size, lr=lr, weight_decay=0.01,
                            max_epochs=30, patience=30, seed=0)
    return train.pretrain(model, ids[order[n_valid:]], ids[order[:n_valid]], cfg, ckpt)


def test_05_mlm_learns_ostinato(tmp_path):
    t0 = time.perf_counter()
    # recipes piloted on a desktop CPU: remi reaches full cloze by ~epoch 19,
    # cp needs the larger corpus for enough optimizer steps and lands by ~25
    runs = {
        "remi": _pretrain_ostinato("remi", pieces=12, batch_size=4, lr=3e-3,
                                   ckpt=tmp_path / "remi.ckpt"),
        "cp": _pretrain_ostinato("cp", pieces=36, batch_size=2, lr=1e-3,
                                 ckpt=tmp_path / "cp.ckpt"),
    }
    bounds = {}
    for rep in runs:
        sizes = tokens.vocab("cp").field_sizes if rep == "cp" else (169,)
        bounds[rep] = sum(s * math.log(s) for s in sizes) / sum(sizes)
    ok = True
    parts = []
    for rep, log in runs.items():
        best_cloze = max(r.valid_accuracy for r in log.rows)
        final_loss = log.rows[-1].valid_loss
        ok &= len(log.rows) == 30 and best_cloze >= 0.90 and final_loss < bounds[rep]
        parts.append(f"{rep} cloze={best_cloze:.3f} loss={final_loss:.4f}<{bounds[rep]:.4f}")
    check(5, ok, "; ".join(parts) + f", {time.perf_counter() - t0:.0f}s")


def test_06_finetune_beats_floors(tmp_path):
    t0 = time.perf_counter()
    pieces = corpus.synth_corpus(
        corpus.SynthSpec(task="melody", pieces=24, bars_per_piece=16), seed=0)
    chunks = corpus.pieces_to_chunks(pieces, "remi")
    corpus.save_store(tmp_path / "chunks.jsonl", chunks,
                      representation="remi", task_name="melody")
    corpus.write_note_labels(tmp_path / "note_labels.csv",
                             {p.piece_id: p.note_labels for p in pieces},
                             corpus.task("melody"))
    corpus.write_manifest(tmp_path / "manifest.csv",
                          corpus.make_splits([p.piece_id for p in pieces], (8, 1, 1), seed=0))
    data = corpus.load_task_data(tmp_path)
    tr_idx, va_idx, te_idx = (data.indices(s) for s in ("train", "valid", "test"))

    mlm = M.EncoderModel(M.desk_config("remi", init_seed=0))
    train.pretrain(mlm, data.ids[tr_idx], data.ids[va_idx],
                   train.TrainConfig(batch_size=4, lr=1e-3, weight_decay=0.01,
                                     max_epochs=20, patience=20, seed=0),
                   tmp_path / "backbone.ckpt")

    majority = evaluate.majority_baseline(
        np.concatenate([data.note_labels[i] for i in tr_idx]).tolist())
    test_labels = np.concatenate([data.note_labels[i] for i in te_idx])
    test_labels = test_labels[test_labels != corpus.IGNORE_LABEL]
    majority_acc = float((test_labels == majority).mean())

    cfg = train.finetune_config(batch_size=4, lr=1e-3, seed=0)
    results = {}
    for name in ("pretrained", "scratch"):
        m = M.EncoderModel(M.desk_config("remi", init_seed=0, head="note", num_classes=3))
        if name == "pretrained":
            M.load_backbone(m, tmp_path / "backbone.ckpt")
        _, results[name] = train.finetune(m, data, cfg, tmp_path / f"{name}.ckpt")

    ok = (results["pretrained"] >= 0.95
          and results["pretrained"] > majority_acc
          and results["pretrained"] >= results["scratch"])
    check(6, ok, f"pretrained={results['pretrained']:.4f} scratch={results['scratch']:.4f} "
                 f"majority={majority_acc:.4f}, {time.perf_counter() - t0:.0f}s")


def test_07_skyline_matches_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(17)
    mismatches = 0
    for i in range(500):
        score = random_grid_score(rng, source_id=f"sky_{i}", max_bars=6,
                                  max_notes_per_bar=10, with_velocity=False)
        if not np.array_equal(evaluate.skyline(score), skyline_oracle(score)):
            mismatches += 1

    melody = corpus.task("melody").class_names.index("melody")
    correct = total = 0
    for piece in corpus.synth_corpus(
            corpus.SynthSpec(task="melody", pieces=30, bars_per_piece=16), seed=1):
        preds = evaluate.skyline(piece.score)
        truth = np.where(np.asarray(piece.note_labels) == melody, evaluate.MELODY, evaluate.NON_MELODY)
        correct += int((preds == truth).sum())
        total += len(truth)
    corpus_acc = correct / total
    ok = mismatches == 0 and corpus_acc == 1.0
    check(7, ok, f"{500 - mismatches}/500 oracle matches, corpus binary accuracy "
                 f"{corpus_acc:.4f}, {time.perf_counter() - t0:.1f}s")


def test_08_pad_tail_invariance():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    n = 40
    drifts = {}
    for rep in ("remi", "cp"):
        maker = content_remi_ids if rep == "remi" else content_cp_ids
        full = maker(rng, 1, 512, (n,))
        m = M.EncoderModel(M.desk_config(rep, head="note", num_classes=3))
        base = m.logits(full[:, :n]).data[0]
        drifts[rep] = max(
            float(np.abs(m.logits(full[:, :length]).data[0, :n] - base).max())
            for length in (n + 7, 200, 512))

    full = content_remi_ids(rng, 1, 512, (n,))
    m = M.EncoderModel(M.desk_config("remi", head="seq", num_classes=4))
    base = m.logits(full[:, :n]).data
    seq_drift = 0.0
    argmax_stable = True
    for length in (n + 7, 200, 512):
        out = m.logits(full[:, :length]).data
        seq_drift = max(seq_drift, float(np.abs(out - base).max()))
        argmax_stable &= int(np.argmax(out)) == int(np.argmax(base))

    ok = all(d <= 1e-5 for d in drifts.values()) and seq_drift <= 1e-5 and argmax_stable
    check(8, ok, f"note drift remi={drifts['remi']:.2e} cp={drifts['cp']:.2e}, "
                 f"seq drift={seq_drift:.2e} argmax stable={argmax_stable}, "
                 f"{time.perf_counter() - t0:.1f}s")


METRIC_FILES = (
    "pre/log.csv", "pre/summary.txt",
    "ft/log.csv", "ft/summary.txt",
    "ft/report/metrics.txt", "ft/report/confusion_counts.csv",
    "ft/report/confusion_percent.txt",
    "ev/report/metrics.txt", "ev/report/confusion_counts.csv",
    "ev/report/confusion_percent.txt",
)


def _smoke_pipeline(root):
    """synth -> prepare -> pretrain -> finetune -> eval, all through the CLI."""
    midi, store = root / "midi", root / "store"
    pmidi, pstore = root / "pmidi", root / "pstore"
    cli_ok("synth", "--task", "melody", "--out", midi,
           "--pieces", 6, "--bars", 4, "--seed", 11)
    cli_ok("prepare", "--midi", midi, "--task", "melody", "--out", store,
           "--note-labels", midi / "note_labels.csv", "--ratios", "4,1,1", "--seed", 3)
    cli_ok("synth", "--task", "pretrain", "--style", "ostinato", "--out", pmidi,
           "--pieces", 4, "--bars", 4, "--seed", 5)
    cli_ok("prepare", "--midi", pmidi, "--task", "pretrain", "--out", pstore, "--seed", 2)
    cli_ok("pretrain", "--data", pstore, "--data", store, "--corpus", "all",
           "--out", root / "pre", "--max-epochs", 2, "--patience", 2,
           "--batch-size", 4, "--lr", "1e-3", "--seed", 1)
    cli_ok("finetune", "--task", "melody", "--data", store, "--out", root / "ft",
           "--checkpoint", root / "pre" / "model.ckpt", "--max-epochs", 2,
           "--patience", 2, "--batch-size", 4, "--lr", "1e-3", "--seed", 2)
    cli_ok("eval", "--checkpoint", root / "ft" / "model.ckpt", "--data", store,
           "--split", "test", "--out", root / "ev")
    return {name: (root / name).read_bytes() for name in METRIC_FILES}


def test_09_pipeline_determinism(tmp_path):
    t0 = time.perf_counter()
    first = _smoke_pipeline(tmp_path / "a")
    second = _smoke_pipeline(tmp_path / "b")
    differing = [name for name in METRIC_FILES if first[name] != second[name]]
    check(9, not differing,
          f"{len(METRIC_FILES) - len(differing)}/{len(METRIC_FILES)} metric files "
          f"identical across reruns{', differs: ' + ', '.join(differing) if differing else ''}, "
          f"{time.perf_counter() - t0:.0f}s")


def test_10_ablation_plumbing(tmp_path):
    t0 = time.perf_counter()
    midi, store = tmp_path / "midi", tmp_path / "store"
    pmidi, pstore = tmp_path / "pmidi", tmp_path / "pstore"
    cli_ok("synth", "--task", "melody", "--out", midi, "--pieces", 5, "--bars", 4, "--seed", 7)
    cli_ok("prepare", "--midi", midi, "--task", "melody", "--out", store,
           "--note-labels", midi / "note_labels.csv", "--ratios", "3,1,1", "--seed", 1)
    cli_ok("synth", "--task", "pretrain", "--style", "ostinato", "--out", pmidi,
           "--pieces", 4, "--bars", 2, "--seed", 3)
    cli_ok("prepare", "--midi", pmidi, "--task", "pretrain", "--out", pstore, "--seed", 2)

    cli_ok("pretrain", "--data", pstore, "--out", tmp_path / "pre",
           "--max-epochs", 1, "--patience", 1, "--batch-size", 4)
    cli_ok("finetune", "--task", "melody", "--data", store, "--out", tmp_path / "frozen",
           "--checkpoint", tmp_path / "pre" / "model.ckpt", "--freeze-backbone",
           "--max-epochs", 1, "--patience", 1, "--batch-size", 4)
    source = M.load_checkpoint(tmp_path / "pre" / "model.ckpt")
    tuned = M.load_checkpoint(tmp_path / "frozen" / "model.ckpt")
    backbone_stable = all(
        np.array_equal(t.data, tuned.params[name].data)
        for name, t in source.params.items() if not name.startswith("head."))

    totals = {}
    for mode in cli.CORPUS_MODES:
        out = tmp_path / f"corpus_{mode}"
        cli_ok("pretrain", "--data", pstore, "--data", store, "--out", out,
               "--corpus", mode, "--dry-run")
        line = [l for l in (out / "corpus_manifest.txt").read_text().splitlines()
                if l.startswith("total")][0]
        totals[mode] = int(line.split("pieces=")[1].split()[0])

    ok = backbone_stable and len(set(totals.values())) == 3
    check(10, ok, f"backbone bitwise stable={backbone_stable}, corpus piece totals "
                  f"{totals}, {time.perf_counter() - t0:.0f}s")
