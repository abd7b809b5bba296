"""Workload definitions: which corpora to synthesize and which CLI commands
make one round.

Every workload runs the same shape of round (prepare, pretrain, finetune,
optionally skyline, eval) so that every end-to-end metric exists on every
workload; the sizes decide which module does most of the work. Chunk counts
are kept away from the 512-step boundaries, so they do not change with the
seed and neither does the amount of model work in a round.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path


@dataclass(frozen=True)
class Corpus:
    """One `midibert synth` call."""

    name: str
    task: str
    pieces: int
    bars: int
    notes_per_bar: int
    style: str = "default"


@dataclass(frozen=True)
class StoreSpec:
    """One `midibert prepare` call over a synthesized corpus."""

    name: str
    corpus: str
    representation: str
    ratios: str


@dataclass(frozen=True)
class Workload:
    name: str
    corpora: tuple[Corpus, ...]
    stores: tuple[StoreSpec, ...]
    pretrain_store: str
    pretrain_corpus: str  # --corpus mode
    finetune_store: str
    eval_store: str
    eval_split: str
    prepare_passes: int = 1  # prepare runs this often per round: more samples of a short stage
    freeze: str | None = None  # finetune --freeze-<mode>
    skyline_corpus: str | None = None

    def corpus(self, name: str) -> Corpus:
        return next(c for c in self.corpora if c.name == name)

    def store(self, name: str) -> StoreSpec:
        return next(s for s in self.stores if s.name == name)


WORKLOADS = {
    # Dense pop-style REMI pre-training (5 pieces of 2 chunks; 8 chunks
    # trained in 2 AdamW steps), then a velocity fine-tune that starts from
    # the saved checkpoint (4 one-chunk pieces): optimizer steps dominate.
    "remi-pretrain": Workload(
        name="remi-pretrain",
        corpora=(
            Corpus("pop", "pretrain", pieces=5, bars=24, notes_per_bar=12, style="pop"),
            Corpus("vel", "velocity", pieces=4, bars=12, notes_per_bar=8),
        ),
        stores=(
            StoreSpec("pop", "pop", "remi", "8,1,1"),
            StoreSpec("vel", "vel", "remi", "2,1,1"),
        ),
        pretrain_store="pop", pretrain_corpus="all",
        finetune_store="vel",
        eval_store="vel", eval_split="test", prepare_passes=5,
    ),
    # CP melody corpus of one-chunk pieces split 2:2:4 toward valid and test
    # (4, 4 and 8 pieces): a short pre-train on the train split, a
    # --freeze-attention fine-tune and scoring of the large test split, so
    # forward-only passes dominate.
    "cp-melody-infer": Workload(
        name="cp-melody-infer",
        corpora=(Corpus("mel", "melody", pieces=16, bars=40, notes_per_bar=8),),
        stores=(StoreSpec("mel", "mel", "cp", "2,2,4"),),
        pretrain_store="mel", pretrain_corpus="train-splits",
        finetune_store="mel",
        eval_store="mel", eval_split="test", prepare_passes=5,
        freeze="attention", skyline_corpus="mel",
    ),
    # An emotion corpus of 1000 four-bar pieces, the paper's dataset scale:
    # the data path (SMF parsing, tokens, the JSON store, task-data
    # grouping) takes about half of each round. A store of 3 longer pieces
    # of the same task feeds pretrain (long enough that its one validation
    # chunk has some 50 masked steps) and a --freeze-backbone finetune; eval
    # scores the big store's 5-piece valid split.
    "emotion-corpus": Workload(
        name="emotion-corpus",
        corpora=(
            Corpus("big", "emotion", pieces=1000, bars=4, notes_per_bar=8),
            Corpus("small", "emotion", pieces=3, bars=48, notes_per_bar=8),
        ),
        stores=(
            StoreSpec("big", "big", "cp", "197,1,2"),
            StoreSpec("small", "small", "cp", "1,1,1"),
        ),
        pretrain_store="small", pretrain_corpus="all",
        finetune_store="small",
        eval_store="big", eval_split="valid",  # 197,1,2 makes valid the smallest
        freeze="backbone",
    ),
}


def tiny(workload: Workload) -> Workload:
    """The same workload at a few small pieces per corpus, one per split."""
    corpora = tuple(
        replace(c, pieces=min(c.pieces, 6), bars=min(c.bars, 4)) for c in workload.corpora
    )
    stores = tuple(replace(s, ratios="1,1,1") for s in workload.stores)
    return replace(workload, corpora=corpora, stores=stores)


def synth_argv(corpus: Corpus, out: Path, seed: int) -> list[str]:
    argv = [
        "synth", "--task", corpus.task, "--pieces", str(corpus.pieces),
        "--bars", str(corpus.bars), "--notes-per-bar", str(corpus.notes_per_bar),
        "--seed", str(seed), "--out", str(out),
    ]
    if corpus.style != "default":
        argv += ["--style", corpus.style]
    return argv
