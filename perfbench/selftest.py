"""Self-test of the benchmark at tiny sizes, in about a minute:

    python3 perfbench/selftest.py

It runs every workload shrunk to a few small pieces, checks that each
result has the schema BENCHMARK.json promises, and then corrupts one output
at a time in a copy of the last round to show that the check guarding it
rejects it. Exits 0 when every step behaves, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
from pathlib import Path

import numpy as np

import checks
import run
from workloads import WORKLOADS, tiny

WORK = run.ROOT / ".perfbench" / "selftest"
problems: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        problems.append(what)


def check_schema(name: str, result: dict, trace: bool) -> None:
    wanted = run.SPEC["per_layer"] if trace else run.SPEC["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    metrics = result["metrics"]
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{name}: result keys")
    expect(result["correct"] is True and result["failed"] == 0, f"{name}: every operation passed")
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{name}: attempted count")
    expect(set(metrics) == set(units), f"{name}: metric names match BENCHMARK.json")
    expect(all(metrics[k]["unit"] == units[k] for k in metrics if k in units), f"{name}: units")
    values = [m["value"] for m in metrics.values()]
    expect(all(isinstance(v, float) and math.isfinite(v) for v in values), f"{name}: finite values")
    if not trace:
        expect(all(v > 0 for v in values), f"{name}: end-to-end metrics above zero")


def expect_reject(what: str, clause: str, fn) -> None:
    """fn must raise CheckError, and from the clause whose message holds
    `clause`, so that each clause of a check is shown to fire."""
    try:
        fn()
    except checks.CheckError as exc:
        expect(clause in str(exc), f"rejects {what} ({exc})")
        return
    expect(False, f"rejects {what}")


def copy_round(bench: run.Bench, label: str) -> Path:
    target = WORK / "corrupt" / label
    shutil.rmtree(target, ignore_errors=True)
    last = max((p for p in bench.work.glob("r*") if p.name[1:].isdigit()), key=lambda p: int(p.name[1:]))
    shutil.copytree(last, target)
    return target


def edit_lines(path: Path, index: int, edit) -> None:
    lines = path.read_text().splitlines()
    lines[index] = edit(lines[index])
    path.write_text("\n".join(lines) + "\n")


def set_log_column(path: Path, column: str, value: float) -> None:
    lines = path.read_text().splitlines()
    index = lines[0].split(",").index(column)
    rows = [line.split(",") for line in lines[1:]]
    for row in rows:
        row[index] = repr(value)
    path.write_text("\n".join([lines[0], *(",".join(row) for row in rows)]) + "\n")


def set_value(path: Path, key: str, value: str) -> None:
    lines = path.read_text().splitlines()
    path.write_text("\n".join(f"{key} = {value}" if l.startswith(f"{key} = ") else l for l in lines) + "\n")


def drop_note(line: str) -> str:
    record = json.loads(line)
    record["note_positions"] = record["note_positions"][:-1]
    return json.dumps(record)


def corruptions(bench: run.Bench) -> None:
    w = bench.w
    store = w.stores[-1]
    ft = w.finetune_store
    level = bench.prog.corpus.task(bench.task_of(store.name)).level

    d = copy_round(bench, "note")
    edit_lines(d / f"store-{store.name}" / "chunks.jsonl", 1, drop_note)
    expect_reject(f"{w.name}: a store with a note dropped", "note positions", lambda: checks.check_store(
        checks.read_store(d / f"store-{store.name}"), bench.facts[store.corpus], store.representation))

    d = copy_round(bench, "chunk")
    edit_lines(d / f"store-{store.name}" / "chunks.jsonl", 1, lambda l: l + "\n" + l)
    expect_reject(f"{w.name}: a piece with an extra chunk record", "chunk indices", lambda: checks.check_store(
        checks.read_store(d / f"store-{store.name}"), bench.facts[store.corpus], store.representation))

    if store.corpus in bench.labels:
        d = copy_round(bench, "label")
        label_file = "note_labels.csv" if level == "note" else "seq_labels.csv"
        edit_lines(d / f"store-{store.name}" / label_file, 1, lambda l: l.rsplit(",", 1)[0] + ",X")
        expect_reject(f"{w.name}: a changed label", "label file", lambda: checks.check_labels(
            d / f"store-{store.name}", level, bench.labels[store.corpus]))

    d = copy_round(bench, "log")
    uniform = checks.uniform_loss(checks.read_checkpoint(d / "pre" / "model.ckpt")[0])
    for label, column, value, clause in (
        ("a non-finite pretrain loss", "train_loss", float("nan"), "non-finite"),
        ("a first train loss far from uniform", "train_loss", 2.0 * uniform, "first train loss"),
        ("a best valid loss above uniform", "valid_loss", 1.5 * uniform, "best valid loss"),
    ):
        d = copy_round(bench, "log")
        set_log_column(d / "pre" / "log.csv", column, value)
        expect_reject(f"{w.name}: {label}", clause, lambda: bench.check_pretrain(d / "pre"))

    d = copy_round(bench, "confusion")
    edit_lines(d / "ft" / "report" / "confusion_counts.csv", 1, lambda l: l[: l.index(",") + 1] + str(
        int(l.split(",")[1]) + 1) + l[l.index(",", l.index(",") + 1):])
    expect_reject(f"{w.name}: a confusion count off by one", "confusion total", lambda: bench.check_finetune(
        d / "ft", checks.read_store(d / f"store-{ft}")))

    d = copy_round(bench, "baseline")
    set_value(d / "ft" / "report" / "metrics.txt", "majority_baseline_accuracy", "0.123")
    expect_reject(f"{w.name}: a wrong majority baseline", "majority baseline", lambda: bench.check_finetune(
        d / "ft", checks.read_store(d / f"store-{ft}")))

    if w.eval_store == ft:
        d = copy_round(bench, "eval")
        ev = checks.read_store(d / f"store-{w.eval_store}")
        expect_reject(f"{w.name}: an eval accuracy that differs from finetune's test_accuracy",
                      "differs from finetune", lambda: bench.check_eval(d / "eval", ev, 0.123))
        set_value(d / "ft" / "report" / "metrics.txt", "test_accuracy", "0.123")
        expect_reject(f"{w.name}: a test_accuracy that is not its table's accuracy", "test_accuracy",
                      lambda: bench.check_finetune(d / "ft", checks.read_store(d / f"store-{ft}")))

    d = copy_round(bench, "accuracy")
    set_value(d / "eval" / "report" / "metrics.txt", "accuracy", "0.123")
    expect_reject(f"{w.name}: an eval accuracy that is not trace / total", "trace / total", lambda: bench.check_eval(
        d / "eval", checks.read_store(d / f"store-{w.eval_store}"), None))

    if w.skyline_corpus:
        d = copy_round(bench, "skyline")
        edit_lines(d / "skyline" / "predictions.csv", 1, lambda l: l.replace("non-melody", "melody")
                   if "non-melody" in l else l.replace("melody", "non-melody"))
        expect_reject(f"{w.name}: a flipped skyline label", "skyline", lambda: checks.check_skyline(
            d / "skyline", bench.labels[w.skyline_corpus]))

    d = copy_round(bench, "ckpt")
    first = checks.digest_tree(d, bench.artifacts())
    ckpt = d / "ft" / "model.ckpt"
    data = bytearray(ckpt.read_bytes())
    data[-1] ^= 0x01
    ckpt.write_bytes(bytes(data))
    expect_reject(f"{w.name}: a checkpoint that differs between rounds", "differs from round 1",
                  lambda: checks.check_same_digests(first, checks.digest_tree(d, bench.artifacts()), "round 2"))

    loader = bench.prog.model.load_checkpoint

    def perturbed(path):  # a loader that shifts the output bias by 0.1
        net = loader(path)
        bias = next(t for name, t in net.params.items() if name.startswith("head.") and name.endswith("b2"))
        bias.data = bias.data + np.float32(0.1)
        return net

    def truncated(path):  # a loader whose model drops the last chunk of a batch
        net = loader(path)
        logits = net.logits
        net.logits = lambda ids, training: logits(ids[:-1], training=training)
        return net

    for label, fake, clause in (
        ("a perturbed checkpoint tensor in the loaded model", perturbed, "reference"),
        ("logits of the wrong shape", truncated, "logits shape"),
    ):
        bench.prog.model.load_checkpoint = fake
        try:
            expect_reject(f"{w.name}: {label}", clause, lambda: bench.check_reference(d))
        finally:
            bench.prog.model.load_checkpoint = loader


def gradient_rejects_wrong_rule(prog) -> None:
    ad = prog.autodiff
    rng = np.random.default_rng([0])
    w = ad.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    x = rng.standard_normal((5, 3))

    def broken(t):  # the recorded backward rule passes on twice the gradient
        rule = t._backward
        t._backward = lambda g: rule(2.0 * g)
        return t

    def loss(op):
        out = ad.gelu(ad.matmul(ad.Tensor(x), w))
        return ad.cross_entropy(op(out), np.array([0, 1, 2, 3, 0]), np.ones(5))

    good = checks.directional_gradient_error(lambda: loss(lambda t: t), [w], ad.backward, seed=1)
    bad = checks.directional_gradient_error(lambda: loss(broken), [w], ad.backward, seed=1)
    expect(good <= run.GRADIENT_TOLERANCE, f"gradient check accepts a correct graph ({good:.2e})")
    expect(bad > run.GRADIENT_TOLERANCE, f"gradient check rejects a wrong backward rule ({bad:.2e})")


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    shutil.rmtree(WORK, ignore_errors=True)
    for name, workload in WORKLOADS.items():
        traced = name == "cp-melody-infer"
        result, bench = run.run_one(
            name, seed=3, seconds=0.0, trace=traced, workload=tiny(workload),
            keep=WORK / name, results=WORK / "results",
        )
        check_schema(f"{name} trace={int(traced)}", result, traced)
        corruptions(bench)
        if traced:
            gradient_rejects_wrong_rule(bench.prog)
    shutil.rmtree(WORK, ignore_errors=True)
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
