"""Workloads, set-up, the closed query loop, correctness checks and metrics.

One client runs decodes back to back through the public calls the CLI
makes, so each decode waits for the previous one. A run:

1. generates the workload's corpus and gold files from the seed;
2. sets the engine up several times (ingest, vocabulary, BM25, training
   examples, n-gram fit, trie) and reports the median;
3. decodes each loop query once in every mode of the workload, untimed and
   in-process, with counting hooks: these reference outputs give the
   digest, the exact counts and the quality figures, and every later decode
   of the same query and mode must equal them;
4. cycles through the same decodes for the given number of seconds;
5. checks every decode and reports the metrics.

The latency metrics are the median and the tail over every untraced decode
of the timed loop. On a shared host other tenants can change a process's
speed by up to 2x for seconds at a time, and no pure-Python reference loop
tracks that change closely enough to correct for it; a median over a whole
run is the steadiest figure, and per-mode figures are printed next to it.

With tracing on, every decode of step 4 runs twice, first plain and then
traced, so the per-layer figures and the tracing overhead come from the
same decodes.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
from dataclasses import dataclass, field
from itertools import cycle
from pathlib import Path
from time import perf_counter

import numpy as np

from corpusgen import CorpusShape, generate, write_jsonl
from stub import ScorerStub, WireCounters
from tracing import (CONTINUATIONS, MASK, QUERY, SCORER, LayerTotals, ScorerProxy, Tracer,
                     layer_totals)

from docidlm import cli, metrics, training
from docidlm.corpus import ingest_corpus, load_gold
from docidlm.decoder import (
    generate_docid_list,
    generate_rag,
    generate_rag_pipeline,
    parse_rag_trace,
    rag_result_record,
)
from docidlm.lm import RemoteLm
from docidlm.trie import build_trie

RETRIEVE = "retrieve"
CONTINUOUS = "continuous"
PIPELINE = "pipeline"


@dataclass(frozen=True)
class Workload:
    shape: CorpusShape
    modes: tuple[str, ...]
    setups: int
    loop_queries: int
    remote: bool = False


WORKLOADS = {
    # Root-level DocID masks test every title's first token against each
    # excluded path, so trie continuations dominate a query. One set-up
    # takes 10-17 s on a 2-CPU host, so it runs twice, not three times.
    "retrieve-20k": Workload(CorpusShape(20_000, 40, 100, 6_000, 6_000),
                             (RETRIEVE,), setups=2, loop_queries=32),
    # Bodies fill the 256-token budget and free-text steps dominate: each
    # sorts a vocabulary-sized set in the decoder; the trie is a small share.
    "rag-2k-long": Workload(CorpusShape(2_000, 240, 32, 6_000, 6_000),
                            (CONTINUOUS, PIPELINE), setups=2, loop_queries=12),
    # The scorer is remote: one connection, the whole context and the whole
    # vocabulary vector per token. A vocabulary under 1k keeps a decode
    # near a second, so a run still holds over ten decodes. Bodies have 120
    # words, not 40: with 40 the n-gram model's free text ends early on some
    # seeds only, which halves a decode's work on those seeds.
    "rag-remote": Workload(CorpusShape(2_000, 120, 16, 500, 400),
                           (CONTINUOUS, PIPELINE), setups=3, loop_queries=1, remote=True),
}


@dataclass
class Engine:
    corpus: object
    golds: list
    vocab: object
    lm: object
    trie: object


def set_up(corpus_path: Path, gold_path: Path, config: cli.RunConfig) -> tuple[Engine, dict]:
    """The CLI's preparation plus the trie, with the time of each stage."""
    times: dict[str, float] = {}
    clock = perf_counter()

    def lap(stage: str) -> None:
        nonlocal clock
        now = perf_counter()
        times[stage] = now - clock
        clock = now

    corpus = ingest_corpus(corpus_path)
    golds = load_gold(gold_path)
    lap("corpus.ingest_s")
    vocab = cli.engine_vocabulary(corpus, golds)
    lap("tokens.vocab_s")
    index = training.build_bm25_index(corpus, k1=config.bm25_k1, b=config.bm25_b)
    lap("training.bm25_s")
    examples = cli.build_training_examples(corpus, golds, index, config)
    lap("training.examples_s")
    lm = training.build_reference_lm(corpus, vocab, examples,
                                     order=config.ngram_order, alpha=config.alpha)
    lap("training.ngram_fit_s")
    trie = build_trie(corpus, vocab)
    lap("trie.build_s")
    return Engine(corpus, golds, vocab, lm, trie), times


def decode(engine: Engine, scorer, config: cli.RunConfig, query: str, mode: str):
    if mode == RETRIEVE:
        return generate_docid_list(scorer, engine.trie, query, config.k_retrieve)
    generate_fn = generate_rag if mode == CONTINUOUS else generate_rag_pipeline
    return generate_fn(scorer, engine.trie, engine.corpus, query,
                       k_retrieve=config.k_retrieve, k_context=config.k_context,
                       budget=config.budget)


def canonical_record(query_id: str, mode: str, result) -> dict:
    if mode == RETRIEVE:
        return {"query_id": query_id, "mode": mode, "docids": list(result.docids),
                "per_docid_logprob": list(result.per_docid_logprob)}
    record = rag_result_record(query_id, result)
    record.update(mode=mode, context_docids=list(result.context_docids),
                  per_docid_logprob=list(result.docids.per_docid_logprob),
                  token_trace=list(result.token_trace))
    return record


def check(engine: Engine, config: cli.RunConfig, mode: str, result, expected,
          continuous) -> str | None:
    """The first failed check of one decode, or None when all pass.

    ``expected`` is the reference decode of the same query and mode, and
    ``continuous`` the latest continuous decode of the same query.
    """
    if isinstance(result, Exception):
        return f"raised {type(result).__name__}: {result}"
    docids = (result if mode == RETRIEVE else result.docids).docids
    if len(docids) > config.k_retrieve:
        return f"{len(docids)} DocIDs for k={config.k_retrieve}"
    if len(set(docids)) != len(docids):
        return "a DocID repeats"
    unknown = [d for d in docids if d not in engine.corpus]
    if unknown:
        return f"DocID not in the corpus: {unknown[0]!r}"
    if mode != RETRIEVE:
        try:
            parse_rag_trace(result.token_trace)
        except ValueError as exc:
            return f"token trace does not parse: {exc}"
        if mode == PIPELINE and continuous is not None and result.context_docids:
            if continuous.decode_cost.context_tokens >= result.decode_cost.context_tokens:
                return "continuous context_tokens not below pipeline"
    if expected is not None and result != expected:
        return "differs from the in-process reference decode"
    return None


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with ten samples beyond it.

    That percentile is 100 * (n - 10) / n. Below 20 samples it would fall
    under the median, so the median is returned with percentile 50.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def stamp(root: Path) -> dict:
    sha = "unknown: not a git checkout"
    if (root / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError) as exc:
            sha = f"unknown: {exc}"
    return {"git_sha": sha, "python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0))}


@dataclass
class Run:
    """Everything one run measured."""

    trace: bool
    setup_totals: list[float] = field(default_factory=list)
    stage_times: dict[str, list[float]] = field(default_factory=dict)
    vocab_size: int = 0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    # (query id, mode, seconds) of every untraced decode of the timed loop
    samples: list[tuple[str, str, float]] = field(default_factory=list)
    loop_s: float = 0.0
    digest: str = ""
    counts: dict = field(default_factory=dict)
    quality: dict = field(default_factory=dict)
    tracer: Tracer = field(default_factory=Tracer)
    traced_ops: int = 0
    untraced_s: float = 0.0
    wire: WireCounters = field(default_factory=WireCounters)

    def record_check(self, problem: str | None, mode: str) -> None:
        self.attempted += 1
        if problem is not None:
            self.failures.append(f"{mode}: {problem}")


def execute(spec: Workload, seed: int, seconds: float, trace: bool, work_dir: Path) -> Run:
    """Run one workload, writing its generated inputs under ``work_dir``."""
    config = cli.RunConfig()
    run = Run(trace)

    records, gold_rows = generate(spec.shape, seed)
    corpus_path, gold_path = work_dir / "corpus.jsonl", work_dir / "gold.jsonl"
    write_jsonl(corpus_path, records)
    write_jsonl(gold_path, gold_rows)
    del records, gold_rows

    engine = None
    for _ in range(spec.setups):
        engine = None
        gc.collect()
        start = perf_counter()
        engine, times = set_up(corpus_path, gold_path, config)
        run.setup_totals.append(perf_counter() - start)
        for stage, value in times.items():
            run.stage_times.setdefault(stage, []).append(value)
    run.vocab_size = engine.vocab.size

    ops = [(gold, mode) for gold in engine.golds[: spec.loop_queries] for mode in spec.modes]
    reference = _reference_pass(run, engine, config, ops)
    if spec.remote:
        with ScorerStub(engine.lm) as stub:
            outputs = _loop(run, engine, config, RemoteLm(engine.vocab, stub.endpoint),
                            ops, seconds, stub)
    else:
        outputs = _loop(run, engine, config, engine.lm, ops, seconds, None)

    latest_continuous: dict[str, object] = {}
    for gold, mode, result in outputs:
        run.record_check(check(engine, config, mode, result, reference[(gold.query_id, mode)],
                               latest_continuous.get(gold.query_id)), mode)
        if mode == CONTINUOUS and not isinstance(result, Exception):
            latest_continuous[gold.query_id] = result
    return run


def _reference_pass(run: Run, engine: Engine, config, ops) -> dict:
    """Decode every loop decode once, in-process and untimed, with counting hooks."""
    tracer = Tracer()
    proxy = ScorerProxy(engine.lm, tracer)
    reference: dict[tuple[str, str], object] = {}
    lines: list[str] = []
    predictions: list[dict] = []
    with tracer.installed():
        for gold, mode in ops:
            with tracer.query(gold.query_id):
                result = decode(engine, proxy, config, gold.input, mode)
            reference[(gold.query_id, mode)] = result
            run.record_check(check(engine, config, mode, result, None,
                                   reference.get((gold.query_id, CONTINUOUS))), mode)
            lines.append(json.dumps(canonical_record(gold.query_id, mode, result), sort_keys=True))
            if mode != PIPELINE:
                predictions.append(_prediction(gold.query_id, mode, result))

    run.digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    totals = layer_totals(tracer.spans)

    def count(layer: str, value: int) -> int | None:
        return None if layer in tracer.missing else value

    run.counts = {
        "reference_decodes": len(lines),
        "scorer_calls": count("decoder.cost", sum(c.scorer_calls for c in tracer.costs)),
        "context_tokens": count("decoder.cost", sum(c.context_tokens for c in tracer.costs)),
        "tokens_sent": totals[SCORER].size if SCORER in totals else None,
        "mask_calls": count(MASK, totals.get(MASK, LayerTotals()).count),
        "continuation_calls": count(CONTINUATIONS, totals.get(CONTINUATIONS, LayerTotals()).count),
    }
    retrieval_only = all(mode == RETRIEVE for _, mode in ops)
    category = metrics.TaskCategory.RETRIEVAL if retrieval_only else metrics.TaskCategory.QA
    aggregates = metrics.evaluate_run(predictions, engine.golds, category).aggregates
    run.quality = {"r_precision": aggregates.get("r_precision")}
    if not retrieval_only:
        run.quality["answer_f1"] = aggregates.get("f1")
    return reference


def _prediction(query_id: str, mode: str, result) -> dict:
    if mode == RETRIEVE:
        return {"query_id": query_id, "docids": list(result.docids)}
    return {"query_id": query_id, "docids": list(result.docids.docids), "answer": result.answer}


def _loop(run: Run, engine: Engine, config, scorer, ops, seconds: float, stub) -> list:
    """Closed loop, one client: cycle through ``ops`` for ``seconds``."""
    outputs = []
    proxy = ScorerProxy(scorer, run.tracer)
    sequence = cycle(ops)
    start = end = perf_counter()
    while end - start < seconds:
        gold, mode = next(sequence)
        began = perf_counter()
        try:
            result = decode(engine, scorer, config, gold.input, mode)
        except Exception as exc:  # a failed decode is counted, and the loop goes on
            result = exc
        end = perf_counter()
        run.samples.append((gold.query_id, mode, end - began))
        outputs.append((gold, mode, result))
        if run.trace:
            run.untraced_s += end - began
            wire_before = vars(stub.counters).copy() if stub else None
            with run.tracer.installed(), run.tracer.query(gold.query_id):
                try:
                    traced = decode(engine, proxy, config, gold.input, mode)
                except Exception as exc:  # counted like any other decode
                    traced = exc
            run.traced_ops += 1
            if stub:
                for key, before in wire_before.items():
                    setattr(run.wire, key, getattr(run.wire, key)
                            + getattr(stub.counters, key) - before)
            outputs.append((gold, mode, traced))
            end = perf_counter()
    run.loop_s = end - start
    return outputs


def end_to_end(run: Run) -> dict:
    """The bounded end-to-end metrics as (value, unit, detail)."""
    times = [seconds for _, _, seconds in run.samples]
    tail_value, tail_pct = tail(times)
    return {
        "setup_s": (statistics.median(run.setup_totals), "s",
                    f"median of {len(run.setup_totals)} set-ups: "
                    + ", ".join(f"{x:.3f}" for x in run.setup_totals)),
        "query_p50_ms": (statistics.median(times) * 1000, "ms",
                         f"median over {len(times)} untraced decodes"),
        "query_tail_ms": (tail_value * 1000, "ms", f"p{tail_pct:.1f} over {len(times)} decodes"
                          + (", under 20 decodes: median" if len(times) < 20 else ", 10 beyond")),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB",
                        "ru_maxrss of the whole run"),
    }


def plain(run: Run) -> dict:
    """Unfiltered figures over every untraced decode, printed but not bounded."""
    names = {RETRIEVE: "retrieve", CONTINUOUS: "rag_continuous", PIPELINE: "rag_pipeline"}
    n = len(run.samples)
    rows = {"queries_per_s": (n / run.loop_s, "1/s", f"{n} decodes in {run.loop_s:.3f} s"
                              + (", each also traced" if run.trace else ""))}
    for mode, name in names.items():
        values = [s for _, m, s in run.samples if m == mode]
        if values:
            tail_value, tail_pct = tail(values)
            rows[f"{name}_p50_ms"] = (statistics.median(values) * 1000, "ms", f"n={len(values)}")
            rows[f"{name}_tail_ms"] = (tail_value * 1000, "ms", f"p{tail_pct:.1f}, n={len(values)}")
    return rows


def per_layer(run: Run) -> dict:
    """Per-layer metrics from the traced decodes, as (value or None, unit, detail)."""
    n = run.traced_ops
    totals = layer_totals(run.tracer.spans)
    missing = dict(run.tracer.missing)
    if SCORER not in totals:
        missing[SCORER] = "the scorer proxy saw no next_logprobs calls"
    query, mask, cont, scorer = (totals.get(name, LayerTotals())
                                 for name in (QUERY, MASK, CONTINUATIONS, SCORER))
    wire = run.wire
    wire_note = "counted by the loopback stub" if wire.calls else "in-process scorer: no wire"

    def per_call(value: float) -> float:
        return value / wire.calls if wire.calls else 0.0

    rows = {stage: (statistics.median(values), "s", f"median of {len(values)}")
            for stage, values in run.stage_times.items()}
    rows.update({
        "tokens.vocab_size": (run.vocab_size, "count", "context"),
        "trie.continuations_calls_per_query": (cont.count / n, "count", CONTINUATIONS),
        "trie.continuations_ms_per_query": (cont.total_s * 1000 / n, "ms", CONTINUATIONS),
        "constraints.mask_calls_per_query": (mask.count / n, "count", MASK),
        "constraints.mask_self_ms_per_query": (mask.self_s * 1000 / n, "ms",
                                               "mask time outside trie continuations"),
        "constraints.mask_size_mean": (mask.size / mask.count if mask.count else 0.0, "count", MASK),
        "decoder.self_ms_per_query": (query.self_s * 1000 / n, "ms",
                                      "decode time outside scorer and mask spans"),
        "decoder.scorer_calls_per_query": (sum(c.scorer_calls for c in run.tracer.costs) / n,
                                           "count", "DecodeCost"),
        "decoder.context_tokens_per_query": (sum(c.context_tokens for c in run.tracer.costs) / n,
                                             "count", "DecodeCost"),
        "lm.scorer_calls_per_query": (scorer.count / n, "count", "scorer proxy"),
        "lm.scorer_ms_per_query": (scorer.total_s * 1000 / n, "ms", "client-observed"),
        "lm.tokens_sent_per_query": (scorer.size / n, "count", "sum of context lengths"),
        "lm.remote_connections_per_query": (wire.connections / n, "count", wire_note),
        "lm.remote_request_bytes_per_call": (per_call(wire.request_bytes), "bytes", wire_note),
        "lm.remote_response_bytes_per_call": (per_call(wire.response_bytes), "bytes", wire_note),
        "lm.remote_server_ms_per_call": (per_call(wire.server_s) * 1000, "ms", wire_note),
        "query.traced_ms_per_query": (query.total_s * 1000 / n, "ms", f"n={n} traced decodes"),
        "trace_overhead": (query.total_s / run.untraced_s, "ratio",
                           "traced / untraced time of the same decodes"),
    })
    depends = {MASK: ("constraints.",), CONTINUATIONS: ("trie.continuations",),
               "decoder.cost": ("decoder.scorer", "decoder.context"),
               SCORER: ("lm.scorer", "lm.tokens")}
    for layer, reason in missing.items():
        for name in rows:
            if name.startswith(depends.get(layer, ())):
                rows[name] = (None, rows[name][1], f"not measured: {reason}")
    if missing.keys() & {MASK, CONTINUATIONS, SCORER}:
        value, unit, detail = rows["decoder.self_ms_per_query"]
        rows["decoder.self_ms_per_query"] = (value, unit, detail + ", which includes the "
                                             + "unmeasured layers")
    return rows

