"""Command-line pipeline: synth, prepare, pretrain, finetune, eval, skyline.

Every run writes a run_config.txt (resolved settings, seeds, toolkit
version, input digests) into its output directory so the run can be
reproduced bit for bit. Exit codes: 0 success, 1 usage, 2 bad data,
3 numeric failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import hashlib
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import corpus, evaluate, smf
from . import model as M
from . import train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

VALID_FRACTION = 0.15  # pretrain corpus share held out for early stopping
EVAL_BATCH_SIZE = 12  # chunks per forward in eval
CORPUS_MODES = ("all", "train-splits", "pretrain-only")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the taxonomy wants 1
        raise UsageError(message)


def _bool(value: str) -> bool:
    low = value.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {value!r}")


def _str_list(value: str) -> list[str]:
    return [part.strip() for part in value.split(",") if part.strip()]


def _ratios(value: str) -> tuple[int, ...]:
    return corpus.check_ratios(tuple(int(part) for part in value.split(",")))


def _int_at_least(value: str, low: int) -> int:
    try:
        number = int(value)
    except ValueError:
        number = None
    if number is None or number < low:
        raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {value!r}")
    return number


def _count(value: str) -> int:
    return _int_at_least(value, 1)


def _seed(value: str) -> int:
    return _int_at_least(value, 0)


_TRAIN_FLAGS = ("batch_size", "lr", "weight_decay", "max_epochs", "patience", "seed")


def build_parser() -> tuple[_Parser, dict[str, dict[str, argparse.Action]]]:
    """The one option table: returns the parser and, per command, its flags'
    argparse actions by name (type, choices and default live there)."""
    parser = _Parser(prog="midibert", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    flags: dict[str, dict[str, argparse.Action]] = {}

    def command(command_name, help):
        p = sub.add_parser(command_name, help=help)
        table = flags[command_name] = {}

        def flag(name, **kw):
            table[name] = p.add_argument("--" + name.replace("_", "-"), **kw)

        return flag

    def train_flags(flag, config: train.TrainConfig):
        for name in _TRAIN_FLAGS:
            value = getattr(config, name)
            flag(name, type=type(value), default=value)

    flag = command("synth", "generate a synthetic labeled SMF corpus")
    flag("task", choices=sorted(corpus.TASKS), required=True)
    flag("out", required=True)
    flag("pieces", type=_count, default=20)
    flag("bars", type=_count, default=16)
    flag("notes_per_bar", type=_count, default=8)
    flag("style", choices=("default", "pop", "ostinato"), default="default")
    flag("seed", type=_seed, default=0)
    flag("config")

    flag = command("prepare", "SMF directory + labels -> chunk store")
    flag("midi", required=True)
    flag("task", choices=sorted(corpus.TASKS), required=True)
    flag("out", required=True)
    flag("representation", choices=("remi", "cp"), default="remi")
    flag("note_labels")
    flag("seq_labels")
    flag("ratios", type=_ratios, default="8,1,1")
    flag("seed", type=_seed, default=0)
    flag("strict", action="store_true")
    flag("config")

    flag = command("pretrain", "masked-token pre-training over chunk stores")
    flag("data", action="append", required=True)
    flag("out", required=True)
    flag("corpus", choices=CORPUS_MODES, default="all")
    flag("preset", choices=sorted(M.PRESETS), default="desk")
    train_flags(flag, train.TrainConfig())
    flag("dry_run", action="store_true")
    flag("config")

    flag = command("finetune", "train a classification head on a task store")
    flag("task", choices=sorted(set(corpus.TASKS) - {"pretrain"}), required=True)
    flag("data", type=_str_list, required=True)
    flag("out", required=True)
    flag("checkpoint")
    flag("no_pretrain", action="store_true")
    flag("freeze_backbone", action="store_true")
    flag("freeze_attention", action="store_true")
    flag("preset", choices=sorted(M.PRESETS), default="desk")
    train_flags(flag, train.finetune_config())
    flag("config")

    flag = command("eval", "evaluate a checkpoint on one split of a task store")
    flag("checkpoint", required=True)
    flag("data", type=_str_list, required=True)
    flag("split", choices=corpus.SPLIT_NAMES, default="test")
    flag("out", required=True)
    flag("config")

    flag = command("skyline", "rule-based melody labels for an SMF directory")
    flag("midi", required=True)
    flag("note_labels")
    flag("out", required=True)
    flag("config")

    return parser, flags


def read_config_file(path: str) -> dict[str, str]:
    text = Path(path).read_text(encoding="utf-8")
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip().replace("-", "_")] = value.strip()
    return out


def resolve_options(argv: list[str] | None) -> dict:
    """CLI flags win over config-file entries, which win over defaults.

    A config entry is checked like its flag (type, then choices) and becomes
    that flag's default before argv is parsed again. Entries for flags the
    command line must give are ignored. The training and synth settings are
    checked as a whole by building their TrainConfig or SynthSpec, so
    nothing is written for a run that could not start."""
    parser, flags = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        table = flags[args.command]
        for key, raw in read_config_file(args.config).items():
            action = table.get(key)
            if action is None or key == "config":
                raise UsageError(f"config key {key!r} is not a {args.command} option")
            if action.required:
                continue
            convert = action.type or (_bool if action.nargs == 0 else str)
            try:
                value = convert(raw)
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise UsageError(f"config key {key!r}: {exc}") from exc
            if action.choices is not None and value not in action.choices:
                raise UsageError(
                    f"config key {key!r}: {raw!r} is not one of {', '.join(action.choices)}"
                )
            action.default = value
        args = parser.parse_args(argv)
    options = vars(args)
    try:
        if args.command in ("pretrain", "finetune"):
            _train_config(options)
        elif args.command == "synth":
            _synth_spec(options)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return options


def _sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digest_path(path: Path) -> str:
    if path.is_dir():
        parts = []
        for child in sorted(path.iterdir()):
            if child.is_file():
                parts.append(f"{child.name}:{_sha256_bytes(child.read_bytes())}")
        return _sha256_bytes("\n".join(parts).encode())
    return _sha256_bytes(path.read_bytes())


def write_run_config(out_dir: Path, options: dict, inputs: dict[str, Path]) -> None:
    """run_config.txt: the resolved options and the inputs' digests, --config's too."""
    if options.get("config"):
        inputs = {**inputs, "config": Path(options["config"])}
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = [f"command = {options['command']}", f"version = {__version__}"]
    for key in sorted(options):
        if key == "command":
            continue
        value = options[key]
        if isinstance(value, tuple):  # ratios: 8,1,1, the form the flag takes
            value = ",".join(map(str, value))
        lines.append(f"{key} = {value}")
    for name, path in sorted(inputs.items()):
        lines.append(f"sha256_{name} = {_digest_path(Path(path))}")
    (out_dir / "run_config.txt").write_text("\n".join(lines) + "\n")


def _progress(message: str) -> None:
    print(message, flush=True)


# --- synth -----------------------------------------------------------------------

def _synth_spec(options: dict) -> corpus.SynthSpec:
    return corpus.SynthSpec(
        task=options["task"],
        pieces=options["pieces"],
        bars_per_piece=options["bars"],
        notes_per_bar=options["notes_per_bar"],
        style=options["style"],
    )


def cmd_synth(options: dict) -> int:
    pieces = corpus.synth_corpus(_synth_spec(options), options["seed"])
    out_dir = Path(options["out"])
    write_run_config(out_dir, options, {})
    for piece in pieces:
        (out_dir / f"{piece.piece_id}.mid").write_bytes(smf.write_smf(piece.score))
    task_spec = corpus.task(options["task"])
    if task_spec.level == "note" and options["task"] != "velocity":
        corpus.write_note_labels(
            out_dir / "note_labels.csv",
            {p.piece_id: p.note_labels for p in pieces},
            task_spec,
        )
    elif task_spec.level == "sequence":
        corpus.write_seq_labels(
            out_dir / "seq_labels.csv",
            {p.piece_id: p.sequence_label for p in pieces},
            task_spec,
        )
    _progress(f"wrote {len(pieces)} pieces to {out_dir}")
    return EXIT_OK


# --- prepare ---------------------------------------------------------------------

def _parse_midi_dir(midi_dir: Path, strict: bool):
    """Parse every .mid in name order; returns (scores, failures)."""
    files = sorted(midi_dir.glob("*.mid"))
    if not files:
        raise ValueError(f"{midi_dir}: no .mid files")
    scores, failures = [], []
    for path in files:
        try:
            scores.append(smf.score_from_bytes(path.read_bytes(), source_id=path.stem))
        except smf.SmfError as exc:
            failures.append((path.name, str(exc)))
    for name, message in failures:
        print(f"skipped {name}: {message}", file=sys.stderr)
    if failures and strict:
        raise ValueError(f"{len(failures)} file(s) failed to parse (strict mode)")
    return scores, failures


def _label_pieces(scores, task_spec, options, strict: bool):
    """Attach labels per task; a piece that cannot be labeled is reported
    and dropped unless strict."""
    note_map = seq_map = None
    if options["task"] == "melody":
        if not options.get("note_labels"):
            raise UsageError("--task melody needs --note-labels")
        note_map = corpus.read_note_labels(options["note_labels"], task_spec)
    elif task_spec.level == "sequence":
        if not options.get("seq_labels"):
            raise UsageError(f"--task {options['task']} needs --seq-labels")
        seq_map = corpus.read_seq_labels(options["seq_labels"], task_spec)

    pieces, failures = [], []
    for score in scores:
        try:
            if options["task"] == "pretrain":
                pieces.append(corpus.LabeledPiece(score=score, task=task_spec))
            elif options["task"] == "velocity":
                pieces.append(
                    corpus.LabeledPiece(
                        score=score, task=task_spec,
                        note_labels=corpus.derive_velocity_labels(score),
                    )
                )
            elif options["task"] == "melody":
                if score.source_id not in note_map:
                    raise ValueError(f"piece {score.source_id!r}: no note labels")
                pieces.append(
                    corpus.LabeledPiece(
                        score=score, task=task_spec, note_labels=note_map[score.source_id],
                    )
                )
            else:
                if score.source_id not in seq_map:
                    raise ValueError(f"piece {score.source_id!r}: no sequence label")
                pieces.append(
                    corpus.LabeledPiece(
                        score=score, task=task_spec,
                        sequence_label=seq_map[score.source_id],
                    )
                )
        except ValueError as exc:
            failures.append((score.source_id, str(exc)))
    for name, message in failures:
        print(f"skipped {name}: {message}", file=sys.stderr)
    if failures and strict:
        raise ValueError(f"{len(failures)} piece(s) could not be labeled (strict mode)")
    return pieces


def cmd_prepare(options: dict) -> int:
    task_spec = corpus.task(options["task"])
    if options["task"] in ("velocity", "pretrain") and (
        options.get("note_labels") or options.get("seq_labels")
    ):
        raise UsageError(f"--task {options['task']} does not take label files")
    scores, _ = _parse_midi_dir(Path(options["midi"]), options["strict"])
    pieces = _label_pieces(scores, task_spec, options, options["strict"])
    if not pieces:
        raise ValueError("no usable pieces")

    chunks = corpus.pieces_to_chunks(pieces, options["representation"])
    manifest = corpus.make_splits([p.piece_id for p in pieces], options["ratios"], options["seed"])

    out_dir = Path(options["out"])
    inputs = {"midi": Path(options["midi"])}
    for key in ("note_labels", "seq_labels"):
        if options.get(key):
            inputs[key] = Path(options[key])
    write_run_config(out_dir, options, inputs)
    corpus.save_store(
        out_dir / "chunks.jsonl", chunks,
        representation=options["representation"], task_name=options["task"],
    )
    corpus.write_manifest(out_dir / "manifest.csv", manifest)
    if task_spec.level == "note":
        corpus.write_note_labels(
            out_dir / "note_labels.csv",
            {p.piece_id: p.note_labels for p in pieces},
            task_spec,
        )
    elif task_spec.level == "sequence":
        corpus.write_seq_labels(
            out_dir / "seq_labels.csv",
            {p.piece_id: p.sequence_label for p in pieces},
            task_spec,
        )
    _progress(
        f"store {out_dir}: {len(pieces)} pieces, {len(chunks)} chunks, "
        f"splits {manifest.sizes}"
    )
    return EXIT_OK


# --- pretrain --------------------------------------------------------------------

def _train_config(options: dict, freeze: str | None = None) -> train.TrainConfig:
    return train.TrainConfig(**{name: options[name] for name in _TRAIN_FLAGS}, freeze=freeze)


def _select_chunks(store_dir: Path, mode: str):
    """Chunks a store contributes to the pre-training pool under the given
    corpus mode; returns (store, kept_chunks)."""
    store = corpus.load_store(store_dir / "chunks.jsonl")
    if mode == "pretrain-only" and store.task_name != "pretrain":
        return store, []
    if mode == "train-splits" and store.task_name != "pretrain":
        splits = corpus.read_manifest(store_dir / "manifest.csv")
        kept = [c for c in store.chunks if splits.get(c.piece_id) == "train"]
        return store, kept
    return store, list(store.chunks)


def cmd_pretrain(options: dict) -> int:
    mode = options["corpus"]
    out_dir = Path(options["out"])
    selected = []
    manifest_lines = []
    total_pieces = total_chunks = 0
    representation = None
    for raw in options["data"]:
        store_dir = Path(raw)
        store, kept = _select_chunks(store_dir, mode)
        if representation is None:
            representation = store.representation
        elif representation != store.representation:
            raise ValueError(
                f"{store_dir}: representation {store.representation!r} differs "
                f"from {representation!r}"
            )
        piece_count = len({c.piece_id for c in kept})
        manifest_lines.append(
            f"{store_dir} task={store.task_name} pieces={piece_count} chunks={len(kept)}"
        )
        total_pieces += piece_count
        total_chunks += len(kept)
        selected.extend(kept)
    if total_chunks < 2:
        raise ValueError(f"corpus mode {mode!r} selected {total_chunks} chunks; need >= 2")

    manifest_lines.append(f"total pieces={total_pieces} chunks={total_chunks}")
    inputs = {f"data_{i}": Path(raw) for i, raw in enumerate(options["data"])}
    write_run_config(out_dir, options, inputs)
    (out_dir / "corpus_manifest.txt").write_text("\n".join(manifest_lines) + "\n")
    if options["dry_run"]:
        _progress(f"dry run: {total_pieces} pieces, {total_chunks} chunks selected")
        return EXIT_OK

    ids = np.stack([c.ids for c in selected])
    order = np.random.default_rng([options["seed"], len(selected)]).permutation(len(selected))
    n_valid = max(1, round(VALID_FRACTION * len(selected)))
    valid_ids = ids[order[:n_valid]]
    train_ids = ids[order[n_valid:]]

    model = M.EncoderModel(
        M.PRESETS[options["preset"]](representation=representation, init_seed=options["seed"])
    )
    config = _train_config(options)
    log = train.pretrain(model, train_ids, valid_ids, config, out_dir / "model.ckpt")
    (out_dir / "log.csv").write_text(log.csv_text())
    (out_dir / "summary.txt").write_text(log.summary_text())
    best = log.best_row()
    _progress(
        f"pretrain done: best epoch {log.best_epoch}, valid loss {best.valid_loss:.4f}, "
        f"cloze accuracy {best.valid_accuracy:.3f}"
    )
    return EXIT_OK


# --- finetune --------------------------------------------------------------------

def _single_store(options: dict, command: str) -> Path:
    if len(options["data"]) != 1:
        raise UsageError(f"{command} takes exactly one --data store")
    return Path(options["data"][0])


def cmd_finetune(options: dict) -> int:
    if options["checkpoint"] and options["no_pretrain"]:
        raise UsageError("--checkpoint and --no-pretrain are mutually exclusive")
    if not options["checkpoint"] and not options["no_pretrain"]:
        raise UsageError("pass --checkpoint CKPT or --no-pretrain")
    if options["freeze_backbone"] and options["freeze_attention"]:
        raise UsageError("--freeze-backbone and --freeze-attention are mutually exclusive")
    store_dir = _single_store(options, "finetune")

    data = corpus.load_task_data(store_dir)
    if data.task.name != options["task"]:
        raise ValueError(f"store {store_dir} holds task {data.task.name!r}, not {options['task']!r}")
    head = "note" if data.task.level == "note" else "seq"
    model = M.EncoderModel(
        M.PRESETS[options["preset"]](
            representation=data.representation, head=head,
            num_classes=data.task.num_classes, init_seed=options["seed"],
        )
    )
    if options["checkpoint"]:
        M.load_backbone(model, options["checkpoint"])

    freeze = None
    if options["freeze_backbone"]:
        freeze = "backbone"
    elif options["freeze_attention"]:
        freeze = "attention"
    config = _train_config(options, freeze=freeze)

    out_dir = Path(options["out"])
    inputs = {"data": store_dir}
    if options["checkpoint"]:
        inputs["checkpoint"] = Path(options["checkpoint"])
    write_run_config(out_dir, options, inputs)

    log, test_accuracy = train.finetune(model, data, config, out_dir / "model.ckpt")
    labels = log.test_labels
    majority = evaluate.majority_baseline(train.task_labels(data)[data.indices("train")])
    baseline_accuracy = evaluate.accuracy(np.full_like(labels, majority), labels)
    table = evaluate.confusion(log.test_predictions, labels, data.task.class_names)
    split_sizes = {name: int(data.indices(name).size) for name in corpus.SPLIT_NAMES}
    evaluate.write_report(
        out_dir / "report", data.task.name, table, split_sizes,
        extra={"test_accuracy": test_accuracy, "majority_baseline_accuracy": baseline_accuracy},
    )
    (out_dir / "log.csv").write_text(log.csv_text())
    (out_dir / "summary.txt").write_text(
        log.summary_text(
            {"test_accuracy": test_accuracy, "majority_baseline_accuracy": baseline_accuracy}
        )
    )
    _progress(
        f"finetune done: test accuracy {test_accuracy:.4f} "
        f"(majority baseline {baseline_accuracy:.4f})"
    )
    return EXIT_OK


# --- eval ------------------------------------------------------------------------

def cmd_eval(options: dict) -> int:
    store_dir = _single_store(options, "eval")
    model = M.load_checkpoint(options["checkpoint"])
    data = corpus.load_task_data(store_dir)
    train.check_task_model(model, data)
    indices = data.indices(options["split"])
    if indices.size == 0:
        raise ValueError(f"split {options['split']!r} is empty")

    _, preds, labels = train.evaluate_classifier(model, data, indices, EVAL_BATCH_SIZE)
    table = evaluate.confusion(preds, labels, data.task.class_names)

    out_dir = Path(options["out"])
    inputs = {"data": store_dir, "checkpoint": Path(options["checkpoint"])}
    write_run_config(out_dir, options, inputs)
    evaluate.write_report(
        out_dir / "report", data.task.name, table,
        {options["split"]: int(indices.size)},
    )
    _progress(f"eval {options['split']}: accuracy {table.accuracy():.4f}")
    return EXIT_OK


# --- skyline ---------------------------------------------------------------------

def cmd_skyline(options: dict) -> int:
    scores, _ = _parse_midi_dir(Path(options["midi"]), strict=False)
    if not scores:
        raise ValueError("no usable pieces")
    out_dir = Path(options["out"])
    inputs = {"midi": Path(options["midi"])}
    if options.get("note_labels"):
        inputs["note_labels"] = Path(options["note_labels"])
    write_run_config(out_dir, options, inputs)

    predictions = {score.source_id: evaluate.skyline(score) for score in scores}
    with open(out_dir / "predictions.csv", "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(corpus.NOTE_LABEL_HEADER)
        for piece_id in sorted(predictions):
            for i, value in enumerate(predictions[piece_id]):
                writer.writerow([piece_id, i, evaluate.BINARY_CLASS_NAMES[value]])

    if options.get("note_labels"):
        melody_spec = corpus.task("melody")
        truth_map = corpus.read_note_labels(options["note_labels"], melody_spec)
        all_preds, all_truth = [], []
        for score in scores:
            if score.source_id not in truth_map:
                raise ValueError(f"piece {score.source_id!r}: no note labels")
            truth = evaluate.merge_melody_binary(
                np.array(truth_map[score.source_id]), melody_spec
            )
            pred = predictions[score.source_id]
            if len(truth) != len(pred):
                raise ValueError(
                    f"piece {score.source_id!r}: {len(pred)} notes but {len(truth)} labels"
                )
            all_preds.append(pred)
            all_truth.append(truth)
        table = evaluate.confusion(
            np.concatenate(all_preds), np.concatenate(all_truth), evaluate.BINARY_CLASS_NAMES
        )
        extra = {"pieces": len(scores)}
        for score, p, t in zip(scores, all_preds, all_truth):
            extra[f"accuracy_{score.source_id}"] = evaluate.accuracy(p, t)
        evaluate.write_report(out_dir, "skyline", table, extra=extra)
        _progress(f"skyline accuracy {table.accuracy():.4f} over {len(scores)} pieces")
    else:
        _progress(f"skyline labels written for {len(scores)} pieces")
    return EXIT_OK


_COMMANDS = {
    "synth": cmd_synth,
    "prepare": cmd_prepare,
    "pretrain": cmd_pretrain,
    "finetune": cmd_finetune,
    "eval": cmd_eval,
    "skyline": cmd_skyline,
}


_M_TRIM_THRESHOLD = -1  # mallopt parameter numbers from glibc's malloc.h
_M_MMAP_THRESHOLD = -3


def _pin_allocator() -> None:
    """Fix glibc malloc's mmap and trim thresholds; a no-op elsewhere.

    glibc raises both thresholds to the largest block freed so far, so
    whether the next (B, H, T, T) array is a reused heap block or freshly
    zeroed pages depends on what the process allocated before, and a run
    settles into a fast or a slow mode. With fixed values, blocks up to
    32 MiB come from the heap and freed memory stays for reuse.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)


def main(argv: list[str] | None = None) -> int:
    _pin_allocator()
    try:
        options = resolve_options(argv)
        return _COMMANDS[options["command"]](options)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FloatingPointError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, KeyError) as exc:  # SmfError and CheckpointError included
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
