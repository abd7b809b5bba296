"""Spans and counters recorded around the program's public functions.

The tracer patches module and class attributes of an imported `midibert`
from the outside, so the program's own code is unchanged. A span has a name,
a start, an end, the span that was open when it started (on the same
thread, or on the main thread for pool workers) and the CLI command that
was running. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import defaultdict
from functools import wraps
from pathlib import Path
from time import perf_counter

AUTODIFF_OPS = (
    "embed", "matmul", "add", "add_const", "scale", "reshape", "transpose", "concat",
    "attention_scores", "softmax", "dropout", "gelu", "relu", "layer_norm", "cross_entropy",
)
MIB = float(1 << 20)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int, str]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.command = ""
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._eval_depth = 0

    # --- spans ---------------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int:
        if stack:
            return stack[-1]
        return self._main_stack[-1] if self._main_stack else 0

    def call(self, name: str, fn, *args, **kwargs):
        stack = self._stack()
        span_id, parent = next(self._ids), self._parent(stack)
        stack.append(span_id)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent, self.command))

    # --- patching ------------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Record a span named `name` around every call of owner.attr;
        count(args, kwargs), when given, runs first and may add to counters."""
        fn = getattr(owner, attr)

        @wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                count(args, kwargs)
            return self.call(name, fn, *args, **kwargs)

        self._patch(owner, attr, traced)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def install(self, prog) -> None:
        """Wrap each layer's public functions in the imported program."""
        cli, corpus, model, train = prog.cli, prog.corpus, prog.model, prog.train
        counts = self.counts

        def scan(args, kwargs):
            counts["corpus.chunks_of.scanned"] += len(args[0].chunks)

        self.wrap(prog.smf, "score_from_bytes", "smf.score_from_bytes")
        self.wrap(cli, "_parse_midi_dir", "cli.parse_midi_dir")
        self.wrap(cli, "write_run_config", "cli.write_run_config")
        # corpus imported the codec functions by name, so patch them there
        self.wrap(corpus, "encode_remi", "tokens.encode")
        self.wrap(corpus, "encode_cp", "tokens.encode")
        self.wrap(corpus, "chunk", "tokens.chunk")
        for fn in ("save_store", "load_store", "load_task_data"):
            self.wrap(corpus, fn, f"corpus.{fn}")
        self.wrap(corpus.Store, "chunks_of", "corpus.chunks_of", scan)
        self.wrap(prog.masking, "corrupt", "masking.corrupt")
        self.wrap(model.EncoderModel, "__init__", "model.init")
        for fn in ("save_checkpoint", "load_checkpoint", "load_backbone"):
            self.wrap(model, fn, f"model.{fn}")
        self.wrap(train.AdamW, "step", "train.adamw_step")
        self.wrap(train, "evaluate_mlm", "train.evaluate_mlm")
        self.wrap(train, "evaluate_classifier", "train.evaluate_classifier")
        for fn in ("confusion", "skyline", "write_report"):
            self.wrap(prog.evaluate, fn, f"evaluate.{fn}")
        self.wrap(prog.autodiff, "backward", "autodiff.backward")
        self._wrap_logits(model.EncoderModel)
        for op in AUTODIFF_OPS:
            self._wrap_op(prog.autodiff, op)

    def _wrap_logits(self, cls) -> None:
        fn = cls.logits

        @wraps(fn)
        def logits(model_self, ids, *, training=False, seed=0):
            if training:
                return self.call("model.forward_train", fn, model_self, ids, training=True, seed=seed)
            self.counts["model.forward_eval.chunks"] += len(ids)
            self._eval_depth += 1
            try:
                return self.call("model.forward_eval", fn, model_self, ids, training=False, seed=seed)
            finally:
                self._eval_depth -= 1

        self._patch(cls, "logits", logits)

    def _wrap_op(self, module, op: str) -> None:
        fn = getattr(module, op)
        fwd, bwd = f"autodiff.{op}.fwd", f"autodiff.{op}.bwd"
        counts = self.counts

        @wraps(fn)
        def traced(*args, **kwargs):
            out = self.call(fwd, fn, *args, **kwargs)
            if out is args[0]:  # dropout outside training returns its input
                return out
            counts[f"autodiff.{op}.out_mib"] += out.data.nbytes / MIB
            rule = out._backward
            if rule is not None:
                if self._eval_depth:
                    counts["model.eval_graph_nodes"] += 1
                out._backward = lambda g: self.call(bwd, rule, g)
            return out

        self._patch(module, op, traced)

    # --- results ---------------------------------------------------------------

    def totals(self) -> dict[str, float]:
        """Per span name: summed duration, `<name>.n` spans, and
        `<name>.self`, each span's duration minus the union of its children's
        intervals."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _, _, start, end, parent, _ in self.spans:
            children[parent].append((start, end))
        out: dict[str, float] = defaultdict(float)
        for span_id, name, start, end, _, _ in self.spans:
            out[name] += end - start
            out[name + ".n"] += 1
            covered, reach = 0.0, start
            for c_start, c_end in sorted(children.get(span_id, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            out[name + ".self"] += end - start - covered
        return out

    def per_call_ms(self, name: str, command: str) -> float:
        durations = [e - s for _, n, s, e, _, c in self.spans if n == name and c == command]
        return 1000.0 * sum(durations) / len(durations) if durations else 0.0

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, command in sorted(self.spans):
                handle.write(json.dumps([span_id, name, start, end, parent, command]) + "\n")
