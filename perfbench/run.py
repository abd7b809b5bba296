"""Pipeline benchmark of the midibert CLI.

    python3 perfbench/run.py --workload remi-pretrain --seed 1 --seconds 38 --trace 0
    python3 perfbench/run.py --workload all

One run synthesizes the workload's corpora (the set-up, repeated and timed),
then repeats whole rounds of CLI commands (prepare, pretrain, finetune,
skyline where the workload has it, eval) in this process until --seconds
have been used, checks every round's outputs, and finishes with checks that
need a model in hand. End-to-end metrics are medians over rounds. With
--trace 1, rounds alternate between untraced and span-traced ones, and a
last round runs under tracemalloc; they report per-layer metrics, and the
gap between traced and untraced rounds is the tracing overhead. The last
line of standard output is the JSON result, printed also when a command
fails (the metrics that need the failed command's outputs are then left
out); exit code 1 means an operation failed, 2 that the program could not
be imported.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import reference
import tracing
from workloads import WORKLOADS, Workload, synth_argv

ROOT = Path(__file__).resolve().parent.parent
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 3.0  # small set-ups repeat until this much time is spent
SETUP_MAX_REPEATS = 15
MIN_ROUNDS = 3  # a warm-up round, then at least two measured ones
PROGRAM_MODULES = ("cli", "corpus", "model", "train", "masking", "autodiff", "evaluate", "smf", "tokens")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
TRAIN_ARGS = ("--lr", "1e-3", "--batch-size", "4", "--max-epochs", "1", "--patience", "1")
REFERENCE_CHUNKS = 2
REFERENCE_TOLERANCE = 1e-3  # float32 forward against float64, relative to max |logit|
GRADIENT_TOLERANCE = 1e-5  # float64 central difference with eps 1e-4

MEM_COMMANDS = ("prepare", "pretrain", "finetune", "eval")
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def steal_seconds() -> float:
    """vCPU seconds the hypervisor has taken from this machine, summed over
    its vCPUs (the steal column of /proc/stat); 0 where none is reported.
    Kept in the run report to explain noisy rounds; no metric uses it."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
    except OSError:
        return 0.0
    return int(fields[8]) / CLOCK_TICKS if len(fields) > 8 else 0.0


class Program:
    """The imported `midibert` modules of the checkout under test."""

    def __init__(self):
        for name in [m for m in sys.modules if m == "midibert" or m.startswith("midibert.")]:
            del sys.modules[name]
        for name in PROGRAM_MODULES:
            setattr(self, name, importlib.import_module(f"midibert.{name}"))
        source = Path(self.cli.__file__).resolve()
        if ROOT / "src" not in source.parents:
            raise ImportError(f"midibert imported from {source}, not from {ROOT / 'src'}")


@dataclass
class Round:
    mode: str
    steal_s: float = 0.0  # vCPU seconds stolen from the machine during the round's commands
    seconds: dict[str, float] = field(default_factory=dict)  # per command kind, summed
    prepare_passes: list[float] = field(default_factory=list)  # seconds of each pass over the stores
    pipeline_s: float = 0.0
    mem_mib: dict[str, float] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)


class Bench:
    """One run of one workload in its own work directory."""

    def __init__(self, workload: Workload, seed: int, work: Path):
        self.w = workload
        self.seed = seed
        self.work = work
        self.ops: list[tuple[str, bool, str]] = []  # (operation, ok, detail)
        self.prog: Program | None = None
        self.facts: dict[str, dict[str, checks.PieceFacts]] = {}
        self.labels: dict[str, object] = {}
        self.tracer: tracing.Tracer | None = None

    # --- operations --------------------------------------------------------

    def record(self, name: str, ok: bool, detail: str = "") -> bool:
        self.ops.append((name, ok, detail))
        if not ok:
            print(f"FAILED {name}: {detail}", file=sys.stderr)
        return ok

    def check(self, name: str, fn, *args):
        try:
            result = fn(*args)
        except Exception as exc:  # any failure of a check is a failed operation
            self.record(name, False, f"{type(exc).__name__}: {exc}")
            return None
        self.record(name, True, repr(result) if isinstance(result, float) else "")
        return result

    def cli(self, argv: list[str], log: Path) -> tuple[bool, float]:
        """Run one CLI command in this process; its output goes to `log`.
        An exception out of the command counts as its failure."""
        with open(log, "a", encoding="utf-8") as sink, contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            start = perf_counter()
            try:
                code = self.prog.cli.main(argv)
                detail = f"exit {code}, see {log}"
            except SystemExit as exc:  # argparse's way out
                code, detail = exc.code, f"exit {exc.code}, see {log}"
            except Exception as exc:  # a crash of the command is its failure too
                code, detail = None, f"{type(exc).__name__}: {exc}"
            elapsed = perf_counter() - start
        return self.record(f"cli {argv[0]}", code == 0, detail), elapsed

    # --- set-up ------------------------------------------------------------

    def setup(self) -> float | None:
        """Import the program and synthesize every corpus, several times;
        returns the median seconds, or None when a `synth` failed. The last
        repetition's files are kept."""
        times: list[float] = []
        while len(times) < SETUP_MIN_REPEATS or (
            sum(times) < SETUP_MIN_SECONDS and len(times) < SETUP_MAX_REPEATS
        ):
            rep = len(times)
            out = self.work / f"setup{rep}"
            start = perf_counter()
            self.prog = Program()
            ok = all(
                self.cli(synth_argv(c, out / c.name, self.seed), self.work / "setup.log")[0]
                for c in self.w.corpora
            )
            times.append(perf_counter() - start)
            if not ok:
                return None
            if rep:
                shutil.rmtree(self.work / f"setup{rep - 1}")
        self.midi = out
        for c in self.w.corpora:
            self.facts[c.name] = checks.corpus_facts(self.midi / c.name)
            level = self.prog.corpus.task(c.task).level
            if level != "none":
                self.labels[c.name] = checks.expected_labels(
                    c.task, level, self.midi / c.name, self.facts[c.name]
                )
        return statistics.median(times)

    # --- one round -----------------------------------------------------------

    def task_of(self, store: str) -> str:
        return self.w.corpus(self.w.store(store).corpus).task

    def commands(self, rdir: Path) -> list[tuple[str, list[str]]]:
        w, seed = self.w, str(self.seed)
        out = []
        for s in [s for _ in range(w.prepare_passes) for s in w.stores]:
            task = self.task_of(s.name)
            argv = [
                "prepare", "--midi", str(self.midi / s.corpus), "--task", task,
                "--representation", s.representation, "--ratios", s.ratios,
                "--seed", seed, "--out", str(rdir / f"store-{s.name}"),
            ]
            level = self.prog.corpus.task(task).level
            if task == "melody":
                argv += ["--note-labels", str(self.midi / s.corpus / "note_labels.csv")]
            elif level == "sequence":
                argv += ["--seq-labels", str(self.midi / s.corpus / "seq_labels.csv")]
            out.append(("prepare", argv))
        train = [*TRAIN_ARGS, "--seed", seed]
        out.append(("pretrain", [
            "pretrain", "--data", str(rdir / f"store-{w.pretrain_store}"),
            "--corpus", w.pretrain_corpus, "--preset", "desk", *train, "--out", str(rdir / "pre"),
        ]))
        finetune = [
            "finetune", "--task", self.task_of(w.finetune_store),
            "--data", str(rdir / f"store-{w.finetune_store}"),
            "--checkpoint", str(rdir / "pre" / "model.ckpt"), "--preset", "desk",
            *train, "--out", str(rdir / "ft"),
        ]
        if w.freeze:
            finetune.append(f"--freeze-{w.freeze}")
        out.append(("finetune", finetune))
        if w.skyline_corpus:
            out.append(("skyline", [
                "skyline", "--midi", str(self.midi / w.skyline_corpus),
                "--note-labels", str(self.midi / w.skyline_corpus / "note_labels.csv"),
                "--out", str(rdir / "skyline"),
            ]))
        out.append(("eval", [
            "eval", "--checkpoint", str(rdir / "ft" / "model.ckpt"),
            "--data", str(rdir / f"store-{w.eval_store}"), "--split", w.eval_split,
            "--out", str(rdir / "eval"),
        ]))
        return out

    def run_round(self, index: int, mode: str) -> Round:
        """One round; mode "spans" records spans, "memory" runs under
        tracemalloc (kept apart: it slows allocation-heavy parsing several
        times over), "plain" does neither."""
        rdir = self.work / f"r{index}"
        rdir.mkdir()
        result = Round(mode)
        tracer = self.tracer if mode == "spans" else None
        if tracer:
            tracer.install(self.prog)
        if mode == "memory":
            tracemalloc.start()
        prepare_times: list[float] = []
        try:
            start, steal = perf_counter(), steal_seconds()
            for kind, argv in self.commands(rdir):
                if tracer:
                    tracer.command = kind
                if mode == "memory":
                    tracemalloc.reset_peak()
                _, seconds = self.cli(argv, rdir / "cli.log")
                result.seconds[kind] = result.seconds.get(kind, 0.0) + seconds
                if kind == "prepare":
                    prepare_times.append(seconds)
                if mode == "memory" and kind in MEM_COMMANDS:
                    peak = tracemalloc.get_traced_memory()[1] / tracing.MIB
                    result.mem_mib[kind] = max(result.mem_mib.get(kind, 0.0), peak)
            result.pipeline_s = perf_counter() - start
            result.steal_s = steal_seconds() - steal
            n = len(self.w.stores)
            result.prepare_passes = [sum(prepare_times[i : i + n]) for i in range(0, len(prepare_times), n)]
        finally:
            if tracer:
                tracer.uninstall()
                tracer.command = ""
            if mode == "memory":
                tracemalloc.stop()
        self.check_round(rdir)
        result.digests = checks.digest_tree(rdir, self.artifacts())
        return result

    def artifacts(self) -> list[str]:
        names = [f"store-{s.name}/{f}" for s in self.w.stores for f in ("chunks.jsonl", "manifest.csv")]
        names += [f"{d}/{f}" for d in ("pre", "ft") for f in ("log.csv", "model.ckpt", "summary.txt")]
        return names + ["ft/report", "eval/report"] + (["skyline"] if self.w.skyline_corpus else [])

    # --- checks ----------------------------------------------------------------

    def check_round(self, rdir: Path) -> None:
        w = self.w
        stores = {}
        for s in w.stores:
            store_dir = rdir / f"store-{s.name}"
            view = self.check(f"store {s.name}", checks.read_store, store_dir)
            if view is None:
                continue
            stores[s.name] = view
            self.check(f"store {s.name} chunks", checks.check_store, view, self.facts[s.corpus], s.representation)
            if s.corpus in self.labels:
                level = self.prog.corpus.task(self.task_of(s.name)).level
                self.check(f"store {s.name} labels", checks.check_labels, store_dir, level, self.labels[s.corpus])
        self.check("pretrain loss", self.check_pretrain, rdir / "pre")
        ft_store, ev_store = stores.get(w.finetune_store), stores.get(w.eval_store)
        test_accuracy = None
        if ft_store is not None:
            test_accuracy = self.check("finetune report", self.check_finetune, rdir / "ft", ft_store)
        if ev_store is not None:
            self.check("eval report", self.check_eval, rdir / "eval", ev_store, test_accuracy)
        if w.skyline_corpus:
            self.check("skyline", checks.check_skyline, rdir / "skyline", self.labels[w.skyline_corpus])

    def check_pretrain(self, pre: Path) -> None:
        header, _ = checks.read_checkpoint(pre / "model.ckpt")
        checks.check_pretrain_log(checks.read_log(pre / "log.csv"), checks.uniform_loss(header))

    def counts(self, store_name: str, store: checks.StoreView, split: str):
        corpus = self.w.store(store_name).corpus
        level = self.prog.corpus.task(self.task_of(store_name)).level
        return checks.label_counts(store, self.labels[corpus], level, split)

    def check_finetune(self, ft: Path, store: checks.StoreView) -> float:
        name = self.w.finetune_store
        accuracy = checks.check_report(
            ft / "report", self.counts(name, store, "test"), self.counts(name, store, "train")
        )
        reported = float(checks.read_key_values(ft / "report" / "metrics.txt")["test_accuracy"])
        checks.require(reported == accuracy, f"test_accuracy {reported}, table says {accuracy}")
        return accuracy

    def check_eval(self, ev: Path, store: checks.StoreView, test_accuracy: float | None) -> None:
        accuracy = checks.check_report(ev / "report", self.counts(self.w.eval_store, store, self.w.eval_split))
        if self.w.eval_store == self.w.finetune_store and self.w.eval_split == "test":
            checks.require(
                accuracy == test_accuracy,
                f"eval accuracy {accuracy} differs from finetune test_accuracy {test_accuracy}",
            )

    def check_reference(self, rdir: Path) -> float:
        """Reference forward on the first test chunks of the fine-tuned
        checkpoint against the program's logits; returns the largest gap."""
        path = rdir / "ft" / "model.ckpt"
        header, params = checks.read_checkpoint(path)
        ids = self.chunk_ids(rdir / f"store-{self.w.finetune_store}", REFERENCE_CHUNKS)
        want = reference.forward(header["config"], params, ids)
        got = self.prog.model.load_checkpoint(path).logits(ids, training=False).data
        checks.require(got.shape == want.shape, f"logits shape {got.shape}, reference {want.shape}")
        gap = float(np.abs(got - want).max())
        scale = max(1.0, float(np.abs(want).max()))
        checks.require(gap <= REFERENCE_TOLERANCE * scale, f"max |logit - reference| {gap}")
        return gap

    def chunk_ids(self, store_dir: Path, count: int) -> np.ndarray:
        manifest = dict(checks.read_csv(store_dir / "manifest.csv", ("piece_id", "split")))
        rows = []
        with open(store_dir / "chunks.jsonl", encoding="utf-8") as handle:
            next(handle)
            for line in handle:
                record = json.loads(line)
                if manifest[record["piece_id"]] == "test":
                    rows.append(record["ids"])
                if len(rows) == count:
                    break
        return np.asarray(rows, dtype=np.int64)

    def check_gradient(self, rdir: Path) -> float:
        """Directional finite difference of the masked-LM training loss of the
        pre-trained checkpoint, in float64, against autodiff.backward;
        returns the relative error."""
        prog = self.prog
        net = prog.model.load_checkpoint(rdir / "pre" / "model.ckpt")
        params = list(net.params.values())
        for p in params:
            p.data = p.data.astype(np.float64)
            p.requires_grad = True
        ids = self.chunk_ids(rdir / f"store-{self.w.finetune_store}", 1)
        batch = prog.masking.corrupt(ids, net.vocab, seed=self.seed)

        def loss():
            return prog.model.mlm_loss(net, batch, training=True, seed=self.seed)[0]

        error = checks.directional_gradient_error(loss, params, prog.autodiff.backward, self.seed)
        checks.require(error <= GRADIENT_TOLERANCE, f"directional derivative relative error {error}")
        return error

    # --- a whole run -------------------------------------------------------------

    def run(self, seconds: float, trace: bool) -> dict:
        """Set-up, rounds and final checks; returns the metrics. A metric
        that needs outputs a failed command did not leave is left out."""
        setup_s = self.setup()
        self.summary = {"setup_s": setup_s, "rounds": []}
        if setup_s is None:  # no corpora, so nothing to run
            return {}
        if trace:
            self.tracer = tracing.Tracer()
        rounds: list[Round] = []
        started = perf_counter()

        def next_round(mode: str) -> None:
            rounds.append(self.run_round(len(rounds) + 1, mode))
            if len(rounds) > 1:
                shutil.rmtree(self.work / f"r{len(rounds) - 1}")

        while True:
            next_round("spans" if trace and len(rounds) % 2 == 1 else "plain")
            elapsed = perf_counter() - started
            longest = max(r.pipeline_s for r in rounds)
            if len(rounds) >= MIN_ROUNDS and elapsed + longest > seconds:
                break
        if trace:
            next_round("memory")
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # before the final checks
        last = self.work / f"r{len(rounds)}"
        for i, r in enumerate(rounds[1:], 2):
            self.check(f"determinism round {i}", checks.check_same_digests, rounds[0].digests, r.digests, f"round {i}")
        self.check("reference forward", self.check_reference, last)
        self.check("gradient", self.check_gradient, last)
        self.summary["rounds"] = [
            {"mode": r.mode, "steal_s": r.steal_s, "pipeline_s": r.pipeline_s,
             "seconds": r.seconds, "prepare_passes": r.prepare_passes, "mem_mib": r.mem_mib}
            for r in rounds
        ]
        self.summary["measured_s"] = perf_counter() - started
        plain = [r for r in rounds[1:] if r.mode == "plain"]  # round 1 warms up allocator and caches
        if trace:
            return self.per_layer(plain, [r for r in rounds if r.mode == "spans"], rounds[-1])
        amount = self.check("work amounts", self.amounts, last)
        return self.end_to_end(plain, setup_s, amount, peak_rss_mib)

    def amounts(self, rdir: Path) -> dict[str, float]:
        """Work per round: notes of one prepare pass, chunks trained and scored."""
        w = self.w
        views = {s.name: checks.read_store(rdir / f"store-{s.name}") for s in w.stores}
        notes = sum(f.notes for s in w.stores for f in self.facts[s.corpus].values())
        epochs = {d: len(checks.read_log(rdir / d / "log.csv")) for d in ("pre", "ft")}
        return {
            "prepare": notes,
            "pretrain": checks.pretrain_train_chunks(views[w.pretrain_store], w.pretrain_corpus) * epochs["pre"],
            "finetune": checks.split_chunks(views[w.finetune_store], "train") * epochs["ft"],
            "eval": checks.split_chunks(views[w.eval_store], w.eval_split),
        }

    @staticmethod
    def end_to_end(
        rounds: list[Round], setup_s: float, amount: dict[str, float] | None, peak_rss_mib: float
    ) -> dict[str, float]:
        """Wall-time medians over the timed rounds; the rates only when the
        work of a round could be counted from its outputs."""
        out = {"setup_s": setup_s, "pipeline_s": statistics.median(r.pipeline_s for r in rounds)}
        if amount is not None:
            out["prepare_notes_per_s"] = statistics.median(
                amount["prepare"] / t for r in rounds for t in r.prepare_passes
            )
            for kind in ("pretrain", "finetune", "eval"):
                out[f"{kind}_chunks_per_s"] = statistics.median(amount[kind] / r.seconds[kind] for r in rounds)
        out["peak_rss_mib"] = peak_rss_mib
        return out

    def per_layer(self, plain: list[Round], traced: list[Round], memory: Round) -> dict[str, float]:
        t = self.tracer
        n = len(traced)
        totals = t.totals()
        counts = t.counts
        out = {
            "smf.score_from_bytes.s": totals["smf.score_from_bytes"] / n,
            "smf.score_from_bytes.calls": totals["smf.score_from_bytes.n"] / n,
            "cli.parse_midi_dir.s": totals["cli.parse_midi_dir"] / n,
            "cli.write_run_config.s": totals["cli.write_run_config"] / n,
            "tokens.encode.s": totals["tokens.encode"] / n,
            "tokens.chunk.s": totals["tokens.chunk"] / n,
            "corpus.save_store.s": totals["corpus.save_store"] / n,
            "corpus.load_store.s": totals["corpus.load_store"] / n,
            "corpus.load_task_data.s": totals["corpus.load_task_data.self"] / n,
            "corpus.chunks_of.calls": totals["corpus.chunks_of.n"] / n,
            "corpus.chunks_of.scanned": counts["corpus.chunks_of.scanned"] / n,
            "masking.corrupt.s": totals["masking.corrupt"] / n,
            "model.init.s": totals["model.init"] / n,
            "model.forward_train.s": totals["model.forward_train"] / n,
            "model.forward_eval.s": totals["model.forward_eval"] / n,
            "model.forward_eval.chunks": counts["model.forward_eval.chunks"] / n,
            "model.save_checkpoint.s": totals["model.save_checkpoint"] / n,
            "model.load_checkpoint.s": totals["model.load_checkpoint"] / n,
            "model.load_backbone.s": totals["model.load_backbone"] / n,
            "model.eval_graph_nodes": counts["model.eval_graph_nodes"] / n,
        }
        for op in tracing.AUTODIFF_OPS:
            key = f"autodiff.{op}"
            out[f"{key}.fwd_s"] = totals[f"{key}.fwd"] / n
            out[f"{key}.bwd_s"] = totals[f"{key}.bwd"] / n
            out[f"{key}.calls"] = totals[f"{key}.fwd.n"] / n
            out[f"{key}.out_mib"] = counts[f"{key}.out_mib"] / n
        out["autodiff.backward.s"] = totals["autodiff.backward"] / n
        for op in ("attention_scores", "embed"):
            for command in ("pretrain", "finetune"):
                out[f"autodiff.{op}.{command}_bwd_ms_per_call"] = t.per_call_ms(f"autodiff.{op}.bwd", command)
        out.update({
            "train.adamw_step.s": totals["train.adamw_step"] / n,
            "train.steps": totals["train.adamw_step.n"] / n,
            "train.evaluate_mlm.s": totals["train.evaluate_mlm"] / n,
            "train.evaluate_classifier.s": totals["train.evaluate_classifier"] / n,
            "evaluate.confusion.s": totals["evaluate.confusion"] / n,
            "evaluate.skyline.s": totals["evaluate.skyline"] / n,
            "evaluate.write_report.s": totals["evaluate.write_report"] / n,
        })
        for command in MEM_COMMANDS:
            out[f"mem.{command}.peak_mib"] = memory.mem_mib[command]
        traced_s = statistics.median(r.pipeline_s for r in traced)
        plain_s = statistics.median(r.pipeline_s for r in plain)
        out["trace.pipeline_s"] = traced_s
        out["trace.untraced_pipeline_s"] = plain_s
        out["trace.overhead_s"] = traced_s - plain_s
        return out


# --- environment and entry point ---------------------------------------------------

def blas_threads() -> int | None:
    """OpenBLAS's thread count, read from the library numpy loaded."""
    libs = os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(bench: Bench) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    largest = max((len(f) for f in bench.facts.values()), default=0)
    max_workers = getattr(bench.prog.cli, "_max_workers", None)
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "parser_threads": max_workers(largest) if max_workers else None,
    }


def run_one(name: str, seed: int, seconds: float, trace: bool, workload: Workload | None = None,
            keep: Path | None = None, results: Path = ROOT / ".perfbench" / "results") -> tuple[dict, Bench]:
    """One run of one workload; returns (result, bench) and writes the full
    report, and the spans of a traced run, under `results`. With `keep`, the
    work directory is left in place for inspection."""
    work = keep or ROOT / ".perfbench" / "work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(workload or WORKLOADS[name], seed, work)
    try:
        metrics = bench.run(seconds, trace)
        env = environment(bench)
    finally:
        if keep is None:
            shutil.rmtree(work, ignore_errors=True)
    failed = sum(1 for _, ok, _ in bench.ops if not ok)
    result = {
        "correct": failed == 0,
        "attempted": len(bench.ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    report = {**result, "workload": name, "seed": seed, "env": env, **bench.summary,
              "operations": bench.ops}
    (results / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if bench.tracer is not None:
        bench.tracer.write(results / f"{stem}-spans.jsonl")
    return result, bench


def print_table(name: str, result: dict) -> None:
    print(f"== {name}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}")
    for metric, entry in result["metrics"].items():
        print(f"  {metric:52s} {entry['value']:>14.6g} {entry['unit']}")


def run_all(args) -> int:
    """Every workload, each in its own process so peak memory stays apart.
    A workload whose process ends without a result counts as one failed
    operation, and the next workload still runs."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines.pop())
        except (IndexError, json.JSONDecodeError):
            print(f"== {name}: no result, exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        if lines:
            print("\n".join(lines))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        Program()
    except ImportError as exc:
        print(f"cannot import the program: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result, _ = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print_table(args.workload, result)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
