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
from contextlib import contextmanager
from dataclasses import dataclass, field, asdict
from pathlib import Path
from time import perf_counter

from . import metrics, training
from .corpus import Corpus, GoldRecord, ingest_corpus, load_gold
from .decoder import (
    generate_docid_list,
    generate_rag,
    generate_rag_pipeline,
    rag_result_record,
)
from .lm import LmScorer, RemoteLm
from .tokens import Vocabulary, build_vocabulary, save_vocabulary
from .trie import DocIdTrie, build_trie, dump_trie

logger = logging.getLogger(__name__)

TASK_PREFIX_TEXTS = ("retrieve:", "answer:", "rag:", "recite:", "related:")


@dataclass
class RunConfig:
    """Effective engine configuration, echoed into every output artifact."""

    corpus: str | None = None
    gold: str | None = None
    out: str | None = None
    predictions: str | None = None
    k_retrieve: int = 10
    k_context: int = 3
    tau: float = 0.2
    lambdas: tuple[float, float, float, float] = (1.0, 1.0, 1.0, 1.0)
    ngram_order: int = 3
    alpha: float = 0.1
    bm25_k1: float = 1.2
    bm25_b: float = 0.75
    budget: int = 256
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


def _config_line(config: RunConfig) -> str:
    return json.dumps({"_config": config.as_dict()}, sort_keys=True)


def _write_jsonl(path: str, config: RunConfig, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_config_line(config) + "\n")
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def read_jsonl_records(path) -> list[dict]:
    """Read line records, skipping embedded configuration lines."""
    records = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if "_config" in record:
                continue
            records.append(record)
    return records


# ---------------------------------------------------------------------------
# Shared preparation


def engine_vocabulary(corpus: Corpus, gold_records: list[GoldRecord]) -> Vocabulary:
    """Corpus vocabulary extended with task prefixes, queries, and answers."""
    extra = list(TASK_PREFIX_TEXTS)
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


@dataclass
class EngineComponents:
    corpus: Corpus
    gold_records: list[GoldRecord]
    vocab: Vocabulary
    index: training.Bm25Index
    examples: list[training.TrainingExample] = field(repr=False, default_factory=list)
    lm: LmScorer | None = None


@contextmanager
def build_stage(name: str):
    """Log at DEBUG how many seconds the enclosed build stage took."""
    start = perf_counter()
    yield
    logger.debug("build stage %s took %.3f s", name, perf_counter() - start)


def prepare_components(config: RunConfig, with_lm: bool = True) -> EngineComponents:
    if not config.corpus:
        raise SystemExit("missing --corpus")
    corpus = ingest_corpus(config.corpus)
    gold_records = load_gold(config.gold) if config.gold else []
    with build_stage("vocab"):
        vocab = engine_vocabulary(corpus, gold_records)
    with build_stage("bm25"):
        index = training.build_bm25_index(corpus, k1=config.bm25_k1, b=config.bm25_b)
    components = EngineComponents(corpus, gold_records, vocab, index)
    with build_stage("examples"):
        components.examples = build_training_examples(corpus, gold_records, index, config)
    if with_lm:
        if config.remote_lm:
            components.lm = RemoteLm(vocab, config.remote_lm)
        else:
            with build_stage("ngram_fit"):
                components.lm = training.build_reference_lm(
                    corpus, vocab, components.examples,
                    order=config.ngram_order, alpha=config.alpha,
                )
    return components


def engine_trie(components: EngineComponents) -> DocIdTrie:
    with build_stage("trie"):
        return build_trie(components.corpus, components.vocab)


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
    components = prepare_components(config, with_lm=False)
    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_vocabulary(components.vocab, out_dir / "vocab.txt")
    trie = engine_trie(components)
    dump_trie(trie, out_dir / "trie.txt")
    meta = {
        "config": config.as_dict(),
        "vocab_size": components.vocab.size,
        "docid_count": len(trie),
        "bm25": {"avgdl": components.index.avgdl,
                 "document_count": components.index.document_count},
    }
    with open(out_dir / "meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_traindata(config: RunConfig) -> None:
    components = prepare_components(config, with_lm=False)
    records = [training.example_record(ex) for ex in components.examples]
    _write_jsonl(config.out, config, records)


def cmd_retrieve(config: RunConfig) -> None:
    components = prepare_components(config)
    trie = engine_trie(components)
    records = []
    for gold in components.gold_records:
        ranked = generate_docid_list(components.lm, trie, gold.input, config.k_retrieve)
        records.append({
            "query_id": gold.query_id,
            "docids": list(ranked.docids),
            "per_docid_logprob": list(ranked.per_docid_logprob),
        })
    _write_jsonl(config.out, config, records)


def cmd_rag(config: RunConfig) -> None:
    components = prepare_components(config)
    trie = engine_trie(components)
    generate = generate_rag if config.mode == "continuous" else generate_rag_pipeline
    records = []
    for gold in components.gold_records:
        result = generate(
            components.lm, trie, components.corpus, gold.input,
            k_retrieve=config.k_retrieve, k_context=config.k_context,
            budget=config.budget,
        )
        records.append(rag_result_record(gold.query_id, result))
    _write_jsonl(config.out, config, records)


def cmd_loss(config: RunConfig) -> None:
    components = prepare_components(config)
    breakdown = training.combined_loss(
        components.lm, components.examples, lambdas=config.lambdas, tau=config.tau
    )
    payload = {"config": config.as_dict(), "losses": breakdown.as_dict(),
               "example_count": len(components.examples)}
    with open(config.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_eval(config: RunConfig) -> None:
    if not config.predictions:
        raise SystemExit("missing --predictions")
    if not config.category:
        raise SystemExit("missing --category")
    if not config.gold:
        raise SystemExit("missing --gold")
    golds = load_gold(config.gold)
    predictions = read_jsonl_records(config.predictions)
    report = metrics.evaluate_run(predictions, golds, metrics.TaskCategory(config.category))
    metrics.write_report(report, config.out, config.per_query_out or None, config=config.as_dict())
    for warning in report.warnings:
        logger.warning("%s", warning)


# ---------------------------------------------------------------------------
# Argument parsing


def _parse_lambdas(text: str) -> tuple[float, float, float, float]:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("expected four comma-separated weights: r,g,rag,aux")
    return tuple(float(p) for p in parts)  # type: ignore[return-value]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="docidlm",
        description="Generative retrieval and continuous RAG over trie-constrained DocIDs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--corpus", help="corpus file (one JSON record per line)")
        p.add_argument("--gold", help="gold file (one JSON record per line)")
        p.add_argument("--out", required=True, help="output artifact path")
        p.add_argument("--k-retrieve", type=int, default=10, dest="k_retrieve")
        p.add_argument("--k-context", type=int, default=3, dest="k_context")
        p.add_argument("--tau", type=float, default=0.2)
        p.add_argument("--lambda", type=_parse_lambdas, default=(1.0, 1.0, 1.0, 1.0),
                       dest="lambdas", metavar="R,G,RAG,AUX")
        p.add_argument("--ngram-order", type=int, default=3, dest="ngram_order")
        p.add_argument("--alpha", type=float, default=0.1)
        p.add_argument("--bm25-k1", type=float, default=1.2, dest="bm25_k1")
        p.add_argument("--bm25-b", type=float, default=0.75, dest="bm25_b")
        p.add_argument("--budget", type=int, default=256)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--remote-lm", dest="remote_lm", metavar="ADDRESS",
                       help="use a remote scorer at this endpoint")
        p.add_argument("--aux-per-task", type=int, default=10, dest="aux_per_task")

    for name, help_text in [
        ("ingest", "validate and normalize a corpus file"),
        ("index", "build vocabulary, DocID trie, and BM25 statistics"),
        ("traindata", "construct the multi-task training examples"),
        ("retrieve", "constrained greedy DocID-list decoding per gold query"),
        ("rag", "continuous or pipeline DocIDs-References-Answer decoding"),
        ("loss", "teacher-forced loss breakdown over the training examples"),
        ("eval", "score a predictions file against gold records"),
    ]:
        p = sub.add_parser(name, help=help_text)
        add_common(p)
        if name == "rag":
            p.add_argument("--mode", choices=("continuous", "pipeline"), default="continuous")
        if name == "eval":
            p.add_argument("--predictions", help="decode result file to score")
            p.add_argument("--category", choices=[c.value for c in metrics.TaskCategory])
            p.add_argument("--per-query-out", dest="per_query_out",
                           help="optional per-query table file")
    return parser


_COMMANDS = {
    "ingest": cmd_ingest,
    "index": cmd_index,
    "traindata": cmd_traindata,
    "retrieve": cmd_retrieve,
    "rag": cmd_rag,
    "loss": cmd_loss,
    "eval": cmd_eval,
}


def config_from_args(args: argparse.Namespace) -> RunConfig:
    config = RunConfig()
    for name in vars(config):
        if hasattr(args, name):
            value = getattr(args, name)
            if value is not None:
                setattr(config, name, value)
    return config


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("CORPUSLM_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    config = config_from_args(args)
    try:
        _COMMANDS[args.command](config)
    except SystemExit:
        raise
    except Exception as exc:
        print(f"docidlm {args.command}: error: {exc}", file=sys.stderr)
        logger.debug("traceback", exc_info=True)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
