"""Operator command line: ingest, index, traindata, retrieve, rag, loss, eval.

Commands compose through files. Every output artifact embeds the effective
run configuration, and all randomness flows from the single ``--seed`` flag,
so identical inputs and seed produce byte-identical outputs. The
``CORPUSLM_LOG`` environment variable sets diagnostic verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import random
import sys
from contextlib import closing, contextmanager
from dataclasses import asdict, dataclass
from functools import cached_property
from pathlib import Path
from time import perf_counter
from typing import Callable

from . import decoder, metrics, training
from .corpus import (Corpus, GoldRecord, ingest_corpus, json_records, load_gold,
                     load_predictions)
from .lm import DEFAULT_ALPHA, DEFAULT_ORDER, LmScorer, RemoteLm
from .tokens import Vocabulary, build_vocabulary, save_vocabulary
from .trie import DocIdTrie, build_trie, dump_trie

logger = logging.getLogger(__name__)


@dataclass
class RunConfig:
    """Every setting, with its one default, echoed into every output artifact."""

    corpus: str | None = None
    gold: str | None = None
    out: str | None = None
    predictions: str | None = None
    k_retrieve: int = decoder.DEFAULT_K_RETRIEVE
    k_context: int = decoder.DEFAULT_K_CONTEXT
    tau: float = training.DEFAULT_NOISE_TAU
    lambdas: tuple[float, float, float, float] = training.DEFAULT_LAMBDAS
    ngram_order: int = DEFAULT_ORDER
    alpha: float = DEFAULT_ALPHA
    bm25_k1: float = training.DEFAULT_BM25_K1
    bm25_b: float = training.DEFAULT_BM25_B
    budget: int = decoder.DEFAULT_DOC_BUDGET
    seed: int = 0
    mode: str = "continuous"
    remote_lm: str | None = None
    aux_per_task: int = 10
    category: str | None = None
    per_query_out: str | None = None

    def as_dict(self) -> dict:
        payload = asdict(self)
        payload["lambdas"] = list(self.lambdas)
        return payload


def _write_jsonl(path: str, config: RunConfig, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in [{"_config": config.as_dict()}] + records:
            fh.write(json.dumps(record, sort_keys=True, allow_nan=False) + "\n")


def _write_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def read_jsonl_records(path) -> list[dict]:
    """Read line records, skipping embedded configuration lines."""
    return list(json_records(path, "artifact", lambda raw: None if "_config" in raw else raw))


# ---------------------------------------------------------------------------
# Shared preparation


def engine_vocabulary(corpus: Corpus, gold_records: list[GoldRecord]) -> Vocabulary:
    """Corpus vocabulary extended with task prefixes, queries, and answers."""
    extra = list(decoder.TASK_PREFIXES)
    for record in gold_records:
        extra.append(record.input)
        extra.extend(record.answers)
    return build_vocabulary(corpus, extra)


def build_training_examples(
    corpus: Corpus,
    gold_records: list[GoldRecord],
    index: training.Bm25Index,
    config: RunConfig,
) -> list[training.TrainingExample]:
    """Deterministic training batch from gold records plus auxiliary tasks."""
    rng = random.Random(config.seed)
    reranker = training.LexicalOverlapReranker(corpus)
    examples: list[training.TrainingExample] = []
    for record in gold_records:
        if record.provenance:
            ranked = training.construct_ranked_docid_list(
                record.input, list(record.provenance), index, reranker, config.k_retrieve
            )
            examples.append(training.make_retrieval_example(record.input, ranked))
        else:
            ranked = []
            logger.info("query %s has no provenance; retrieval example skipped", record.query_id)
        if not record.answers:
            continue
        answer = record.answers[0]
        examples.append(training.make_closed_book_example(record.input, answer))
        context_docs = [corpus.get(d) for d in ranked[: config.k_context]]
        if context_docs:
            reference = training.extract_reference(context_docs, answer)
            if reference:
                examples.extend(training.make_rag_examples(
                    record.input, context_docs, reference, answer, tau=config.tau, rng=rng
                ))
    examples.extend(training.make_docid_understanding_examples(
        corpus, index, config.aux_per_task, rng, reranker=reranker, k=config.k_retrieve
    ))
    return examples


@contextmanager
def build_stage(name: str):
    """Log at DEBUG how many seconds the enclosed build stage took."""
    start = perf_counter()
    yield
    logger.debug("build stage %s took %.3f s", name, perf_counter() - start)


class Engine:
    """The stages of one run, each built on first use from one RunConfig.

    A stage takes its inputs before its clock starts, so each DEBUG time
    covers that stage alone, and a command builds only the stages it reads.
    ``k_context`` is checked here, not where a stage reads it, so a command
    that builds none of those stages still rejects it.
    """

    def __init__(self, config: RunConfig):
        if config.k_context < 1:
            raise ValueError(f"k_context must be >= 1, not {config.k_context!r}")
        self.config = config

    @cached_property
    def corpus(self) -> Corpus:
        return ingest_corpus(self.config.corpus)

    @cached_property
    def gold_records(self) -> list[GoldRecord]:
        return load_gold(self.config.gold) if self.config.gold else []

    @cached_property
    def vocab(self) -> Vocabulary:
        corpus, gold_records = self.corpus, self.gold_records
        with build_stage("vocab"):
            return engine_vocabulary(corpus, gold_records)

    @cached_property
    def bm25(self) -> training.Bm25Index:
        corpus = self.corpus
        with build_stage("bm25"):
            return training.build_bm25_index(corpus, k1=self.config.bm25_k1, b=self.config.bm25_b)

    @cached_property
    def examples(self) -> list[training.TrainingExample]:
        corpus, gold_records, index = self.corpus, self.gold_records, self.bm25
        with build_stage("examples"):
            return build_training_examples(corpus, gold_records, index, self.config)

    @cached_property
    def lm(self) -> LmScorer:
        if self.config.remote_lm:
            return RemoteLm(self.vocab, self.config.remote_lm)
        corpus, vocab, examples = self.corpus, self.vocab, self.examples
        with build_stage("ngram_fit"):
            return training.build_reference_lm(
                corpus, vocab, examples, order=self.config.ngram_order, alpha=self.config.alpha)

    @cached_property
    def trie(self) -> DocIdTrie:
        corpus, vocab = self.corpus, self.vocab
        with build_stage("trie"):
            return build_trie(corpus, vocab)

    def close(self) -> None:
        """Close the remote scorer, if this run built one."""
        if isinstance(self.__dict__.get("lm"), RemoteLm):
            self.lm.close()


# ---------------------------------------------------------------------------
# Commands


def cmd_ingest(config: RunConfig) -> None:
    corpus = ingest_corpus(config.corpus)
    records = [
        {
            "doc_id": doc.doc_id,
            "source_id": doc.source_id,
            "title": doc.title,
            "section": doc.section,
            "text": doc.body,
            "sentence_count": len(doc.sentences),
        }
        for doc in corpus.documents.values()
    ]
    stats = {"_stats": {"document_count": corpus.stats.document_count,
                        "token_count": corpus.stats.token_count}}
    _write_jsonl(config.out, config, [stats] + records)
    logger.info("ingested %d documents", corpus.stats.document_count)


def cmd_index(config: RunConfig) -> None:
    engine = Engine(config)
    vocab, index, trie = engine.vocab, engine.bm25, engine.trie
    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_vocabulary(vocab, out_dir / "vocab.txt")
    dump_trie(trie, out_dir / "trie.txt")
    _write_json(out_dir / "meta.json", {
        "config": config.as_dict(),
        "vocab_size": vocab.size,
        "docid_count": len(trie),
        "bm25": {"avgdl": index.avgdl, "document_count": index.document_count},
    })


def cmd_traindata(config: RunConfig) -> None:
    records = [training.example_record(ex) for ex in Engine(config).examples]
    _write_jsonl(config.out, config, records)


def cmd_retrieve(config: RunConfig) -> None:
    with closing(Engine(config)) as engine:
        lm, trie = engine.lm, engine.trie
        records = []
        for gold in engine.gold_records:
            ranked = decoder.generate_docid_list(lm, trie, gold.input, config.k_retrieve)
            records.append({
                "query_id": gold.query_id,
                "docids": list(ranked.docids),
                "per_docid_logprob": list(ranked.per_docid_logprob),
            })
    _write_jsonl(config.out, config, records)


RAG_MODES = {"continuous": decoder.generate_rag, "pipeline": decoder.generate_rag_pipeline}


def cmd_rag(config: RunConfig) -> None:
    generate = RAG_MODES[config.mode]
    with closing(Engine(config)) as engine:
        lm, trie = engine.lm, engine.trie
        records = []
        for gold in engine.gold_records:
            result = generate(lm, trie, engine.corpus, gold.input, k_retrieve=config.k_retrieve,
                              k_context=config.k_context, budget=config.budget)
            records.append(decoder.rag_result_record(gold.query_id, result))
    _write_jsonl(config.out, config, records)


def cmd_loss(config: RunConfig) -> None:
    with closing(Engine(config)) as engine:
        lm, examples = engine.lm, engine.examples
        breakdown = training.combined_loss(lm, examples, lambdas=config.lambdas, tau=config.tau)
    _write_json(config.out, {"config": config.as_dict(), "losses": breakdown.as_dict(),
                             "example_count": len(examples)})


def cmd_eval(config: RunConfig) -> None:
    golds = load_gold(config.gold)
    predictions = load_predictions(config.predictions)
    report = metrics.evaluate_run(predictions, golds, metrics.TaskCategory(config.category))
    metrics.write_report(report, config.out, config.per_query_out or None, config=config.as_dict())
    for warning in report.warnings:
        logger.warning("%s", warning)


# ---------------------------------------------------------------------------
# Argument parsing


@dataclass(frozen=True)
class Command:
    """A subcommand: its function, its help, and the RunConfig fields it reads."""

    run: Callable[[RunConfig], None]
    help: str
    flags: tuple[str, ...]
    required: tuple[str, ...] = ("corpus",)
    remote_unread: tuple[str, ...] = ()  # flags it takes but does not read with --remote-lm


# What the examples stage reads (the last five only it), and what the fit adds.
_EXAMPLES_ONLY = ("tau", "bm25_k1", "bm25_b", "seed", "aux_per_task")
_EXAMPLE_FLAGS = ("corpus", "gold", "k_retrieve", "k_context") + _EXAMPLES_ONLY
_FIT_FLAGS = ("ngram_order", "alpha")
_SCORER_FLAGS = _EXAMPLE_FLAGS + _FIT_FLAGS + ("remote_lm",)

COMMANDS = {
    "ingest": Command(cmd_ingest, "validate and normalize a corpus file", ("corpus",)),
    "index": Command(cmd_index, "build vocabulary, DocID trie, and BM25 statistics",
                     ("corpus", "gold")),
    "traindata": Command(cmd_traindata, "construct the multi-task training examples",
                         _EXAMPLE_FLAGS),
    "retrieve": Command(cmd_retrieve, "constrained greedy DocID-list decoding per gold query",
                        _SCORER_FLAGS, remote_unread=_EXAMPLES_ONLY + _FIT_FLAGS),
    "rag": Command(cmd_rag, "continuous or pipeline DocIDs-References-Answer decoding",
                   _SCORER_FLAGS + ("budget", "mode"), remote_unread=_EXAMPLES_ONLY + _FIT_FLAGS),
    "loss": Command(cmd_loss, "teacher-forced loss breakdown over the training examples",
                    _SCORER_FLAGS + ("lambdas",), remote_unread=_FIT_FLAGS),
    "eval": Command(cmd_eval, "score a predictions file against gold records",
                    ("predictions", "category", "gold", "per_query_out"),
                    required=("predictions", "category", "gold")),
}


def _parse_lambdas(text: str) -> tuple[float, float, float, float]:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("expected four comma-separated weights: r,g,rag,aux")
    return tuple(float(p) for p in parts)  # type: ignore[return-value]


# argparse settings beyond the type a flag takes from its RunConfig default
_FLAG_OPTIONS = {
    "corpus": {"help": "corpus file (one JSON record per line)"},
    "gold": {"help": "gold file (one JSON record per line)"},
    "out": {"required": True, "help": "output artifact path"},
    "lambdas": {"type": _parse_lambdas, "metavar": "R,G,RAG,AUX"},
    "mode": {"choices": tuple(RAG_MODES)},
    "remote_lm": {"metavar": "ADDRESS", "help": "use a remote scorer at this endpoint"},
    "predictions": {"help": "decode result file to score"},
    "category": {"choices": [c.value for c in metrics.TaskCategory]},
    "per_query_out": {"help": "optional per-query table file"},
}


def _flag_name(field_name: str) -> str:
    """The command-line spelling of a RunConfig field."""
    return "--lambda" if field_name == "lambdas" else "--" + field_name.replace("_", "-")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="docidlm",
        description="Generative retrieval and continuous RAG over trie-constrained DocIDs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for field_name in command.flags + ("out",):
            default = getattr(RunConfig, field_name)
            options = {"type": type(default)} if default is not None else {}
            options.update(_FLAG_OPTIONS.get(field_name, {}))
            p.add_argument(_flag_name(field_name), dest=field_name, **options)
    return parser


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("CORPUSLM_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = vars(parser.parse_args(argv))
    name = args.pop("command")
    command = COMMANDS[name]
    config = RunConfig(**{key: value for key, value in args.items() if value is not None})
    for field_name in command.required:
        if not getattr(config, field_name):
            raise SystemExit(f"missing {_flag_name(field_name)}")
    for field_name in command.remote_unread:
        if config.remote_lm and args[field_name] is not None:
            parser.error(f"{name} --remote-lm does not read {_flag_name(field_name)}")
    try:
        command.run(config)
    except Exception as exc:
        print(f"docidlm {name}: error: {exc}", file=sys.stderr)
        logger.debug("traceback", exc_info=True)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
