"""The benchmark's tracing hooks see every decode step.

``bench/tracing.py`` counts masks by wrapping ``docidlm.decoder.allowed_mask``
and trie continuations by wrapping ``docidlm.constraints.allowed_continuations``.
A name that still exists but is no longer called would read zero in the
benchmark, not "not measured", so these checks pin the calls to the steps.
"""

import importlib
import random
from pathlib import Path

import pytest

from docidlm import decoder
from docidlm.decoder import (generate_closed_book, generate_docid_list, generate_rag,
                             generate_rag_pipeline, parse_rag_trace)
from docidlm.lm import UniformLm

from conftest import RecordingSession, random_instance


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    return importlib.import_module("tracing")


def expected_spans(session, k_retrieve, max_tokens, docid_spans):
    """(mask calls, continuation calls) of one decode: a mask per step, that is per emitted
    token plus an unemitted list or closed-book stop, and a continuation per DocID-span step."""
    stops = 0
    if k_retrieve is not None:
        stops += len(session.docids) < k_retrieve  # the list was stopped by a decision
    if max_tokens is not None:
        stops += len(session.trace) < max_tokens  # so was the closed-book answer
    return len(session.trace) + stops, sum(len(span) + 1 for span in docid_spans)


@pytest.mark.parametrize("scorer", ["ngram", "uniform"])
def test_traced_decodes_make_one_mask_call_per_step(monkeypatch, tracing, scorer):
    monkeypatch.setattr(decoder, "_Session", RecordingSession)
    rng = random.Random(f"seams {scorer}")
    for _ in range(8):
        corpus, vocab, trie, lm, queries = random_instance(rng, rng.randint(1, 12))
        if scorer == "uniform":
            lm = UniformLm(vocab)
        query, k, max_tokens = rng.choice(queries), rng.randint(1, 5), rng.randint(1, 5)
        limits = dict(k_retrieve=k, k_context=rng.randint(1, k), max_ref_tokens=rng.randint(0, 4),
                      max_answer_tokens=rng.randint(0, 4))
        tracer = tracing.Tracer()
        RecordingSession.made.clear()
        with tracer.installed():
            ranked = generate_docid_list(lm, trie, query, k)
            results = [generate(lm, trie, corpus, query, **limits)
                       for generate in (generate_rag, generate_rag_pipeline)]
            generate_closed_book(lm, query, max_tokens)
        listing, *reading, closed_book = RecordingSession.made
        spans = [expected_spans(listing, k, None, [trie.docid_paths[d] for d in ranked.docids])]
        spans += [expected_spans(session, k, None, parse_rag_trace(result.token_trace).docid_spans)
                  for session, result in zip(reading, results)]
        spans.append(expected_spans(closed_book, None, max_tokens, []))
        masks, continuations = map(sum, zip(*spans))
        totals = tracing.layer_totals(tracer.spans)
        assert tracer.missing == {}
        assert totals[tracing.MASK].count == masks
        assert totals[tracing.CONTINUATIONS].count == continuations > 0
        assert len(tracer.costs) == len(RecordingSession.made) == 4


@pytest.mark.parametrize("scorer", ["ngram", "uniform"])
def test_proxied_scorer_is_asked_once_per_scored_docid_step(tracing, scorer):
    """The bench's ``tokens_sent`` sums ``ScorerProxy``'s spans. An n-gram scorer's rows are
    read past the proxy, so it sees one call per scored DocID step and none per free-text
    step; a dense scorer's row is its vector, so it sees one call per scored step."""
    rng = random.Random(f"proxy {scorer}")
    scored = set()
    for _ in range(8):
        corpus, vocab, trie, lm, queries = random_instance(rng, rng.randint(1, 12))
        if scorer == "uniform":
            lm = UniformLm(vocab)
        query, k = rng.choice(queries), rng.randint(1, 5)
        tracer = tracing.Tracer()
        proxy = tracing.ScorerProxy(lm, tracer)
        with tracer.installed():
            generate_docid_list(proxy, trie, query, k)
            for generate in (generate_rag, generate_rag_pipeline):
                generate(proxy, trie, corpus, query, k_retrieve=k, k_context=rng.randint(1, k),
                         max_ref_tokens=rng.randint(0, 4), max_answer_tokens=rng.randint(0, 4))
            generate_closed_book(proxy, query, rng.randint(1, 5))
        steps = []  # per mask call: [inside a DocID span, mask size, scorer calls]
        for name, _, _, _, _, size in tracer.spans:
            if name == tracing.MASK:
                steps.append([False, size, 0])
            elif name == tracing.CONTINUATIONS:
                steps[-1][0] = True
            elif name == tracing.SCORER:
                steps[-1][2] += 1
        for in_docid, size, calls in steps:
            if size > 1:
                scored.add(in_docid)
            assert calls == (size > 1 and (in_docid or scorer == "uniform")), (in_docid, size)
        # the walk found every step the decoder counted as scored
        assert sum(size > 1 for _, size, _ in steps) == sum(cost.scorer_calls for cost in tracer.costs)
    assert scored == {False, True}
