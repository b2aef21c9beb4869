"""Free-text decode steps from scorer rows, checked against the dense loop they replace."""

import math
import random
import struct
import tracemalloc

import numpy as np
import pytest

from docidlm import decoder
from docidlm import lm as lm_module
from docidlm.constraints import SILENT_STOP, GrammarState, Phase, Plan, allowed_mask, step
from docidlm.corpus import build_corpus, canonical_docid, make_document
from docidlm.decoder import (
    DecodeCost,
    RagResult,
    RankedDocIds,
    generate_docid_list,
    generate_rag,
    generate_rag_pipeline,
    parse_rag_trace,
    render_document_tokens,
)
from docidlm.lm import LOG_FLOOR, Context, NgramLm, Row, UniformLm, expand_row, row_scorer
from docidlm.tokens import DOCID_CLOSE, DOCID_OPEN, EOS, SPECIAL_IDS, build_vocabulary, decode, encode
from docidlm.training import (
    build_reference_lm,
    extract_reference,
    make_closed_book_example,
    make_rag_examples,
    make_retrieval_example,
)
from docidlm.trie import DocIdTrie, ExclusionSet, build_trie

from conftest import (RecordingSession, bench_corpus, free_text_states, oracle_span_scores,
                      random_instance)
from test_decoder import oracle_docid_list


def small_vocab(size: int):
    return build_vocabulary(None, [" ".join(f"w{i:05d}" for i in range(size - 7))])


# ---------------------------------------------------------------------------
# The choice over one mask


def free_text_masks(trie: DocIdTrie, vocab_size: int):
    """Every mask ``allowed_mask`` gives outside a DocID span, by name."""
    excl, states = ExclusionSet(trie), free_text_states(vocab_size)
    masks = {name: allowed_mask(state, trie, excl, vocab_size) for name, (state, _) in states.items()}
    masks["list, every DocID excluded"] = allowed_mask(states["list"][0], DocIdTrie(), excl, vocab_size)
    return masks


def random_row(rng: random.Random, vocab_size: int) -> Row:
    """Rows with ties among listed values, at the fill and at ``LOG_FLOOR``; some are
    clamped at the floor throughout, some are a dense scorer's (every id, fill ``-inf``)."""
    fill = rng.choice([LOG_FLOOR, -3.0, -math.log(vocab_size), rng.uniform(-9, -1)])
    shape = rng.choice(["empty", "every id", "from unk on", "dense", "sparse", "sparse",
                        "floor", "dense scorer"])
    if shape == "floor":  # a total so large that every value, the fill too, is clamped
        ids = [t for t in range(vocab_size) if rng.random() < 0.5]
        return LOG_FLOOR, np.array(ids, dtype=np.int64), np.full(len(ids), LOG_FLOOR)
    if shape == "dense scorer":
        values = [rng.choice([LOG_FLOOR, -1.0, -2.0, rng.uniform(-9, 0)]) for _ in range(vocab_size)]
        return -math.inf, np.arange(vocab_size, dtype=np.int64), np.array(values)
    if shape == "empty":
        ids = []
    elif shape == "every id":
        ids = list(range(vocab_size))
    elif shape == "from unk on":  # the run of a free-text mask, listed whole
        ids = list(range(6, vocab_size))
    else:
        share = 0.8 if shape == "dense" else 0.2
        ids = [t for t in range(vocab_size) if rng.random() < share]
    pool = [fill, LOG_FLOOR, -1.0, -2.0, rng.uniform(-9, 0)]
    values = [rng.choice(pool) for _ in ids]
    return fill, np.array(ids, dtype=np.int64), np.array(values)


def with_first_maximum(rng: random.Random, row: Row, allowed: np.ndarray) -> tuple[str, Row]:
    """``row`` with its first maximum moved: to an allowed id or to a structural id outside
    the mask, above every value and the fill, or down to the fill; or ``row`` as it is."""
    fill, ids, values = row
    outside = sorted(set(SPECIAL_IDS) - set(allowed.tolist()))
    kinds = ["as drawn", "allowed"] + ["structural outside"] * bool(outside)
    kinds += ["at or under the fill"] * (len(ids) and fill > -math.inf)
    kind = rng.choice(kinds)
    if kind == "at or under the fill":
        return kind, (fill, ids, np.minimum(values, fill - rng.choice([0.0, 0.0, 0.5])))
    if kind == "as drawn":
        return kind, row
    top = rng.choice(allowed.tolist() if kind == "allowed" else outside)
    entries = dict(zip(ids.tolist(), values.tolist()))
    entries[top] = max([fill, *entries.values()]) + rng.choice([1e-9, 0.5])
    for tied in rng.sample(sorted(entries), min(2, len(entries))):  # ties above it lose
        if tied > top:
            entries[tied] = entries[top]
    listed = sorted(entries)
    return kind, (fill, np.array(listed, dtype=np.int64), np.array([entries[t] for t in listed]))


def takes_first_maximum(row: Row, allowed: np.ndarray) -> bool:
    """Whether the row's first maximum beats the fill and lies in the mask's run of ids."""
    fill, ids, values = row
    start = len(allowed) - 1
    while start and allowed[start - 1] == allowed[start] - 1:
        start -= 1
    return bool(len(ids)) and values.max() > fill and ids[values.argmax()] in allowed[start:]


def oracle_choice(row: Row, allowed: np.ndarray, vocab_size: int) -> int:
    vector = expand_row(row, vocab_size)
    return min(allowed.tolist(), key=lambda t: (-vector[t], t))


class TestGreedyChoice:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_lowest_id_argmax_on_every_free_text_mask(self, seed):
        rng = random.Random(seed)
        _, _, trie, _, _ = random_instance(rng, 5)
        seen, branches, kinds = set(), set(), set()
        for _ in range(150):
            vocab_size = rng.choice([7, 8, 9, 12, 20, 64])
            drawn = random_row(rng, vocab_size)
            for name, allowed in free_text_masks(trie, vocab_size).items():
                kind, row = with_first_maximum(rng, drawn, allowed)
                expected = oracle_choice(row, allowed, vocab_size)
                assert decoder._greedy_choice(row, allowed) == expected, (name, kind, row, allowed)
                seen.add(name)
                branches.add((name, takes_first_maximum(row, allowed)))
                kinds.add(kind)
        assert len(seen) == len(free_text_states(7)) + 1
        # every mask is decided both by the row's first maximum and by the run/lone search
        assert branches == {(name, taken) for name in seen for taken in (False, True)}
        assert len(kinds) == 4

    def test_dense_scorer_reads_its_vector_as_a_full_row(self):
        rng = random.Random(5)
        vocab = small_vocab(40)
        lm = UniformLm(vocab)
        _, ids, values = row_scorer(lm)([])
        assert ids.tolist() == list(range(vocab.size))
        assert values.tobytes() == lm.next_logprobs([]).tobytes()
        assert ids is row_scorer(lm)([9])[1]  # built once per vocabulary size
        for allowed in free_text_masks(DocIdTrie(), vocab.size).values():
            values = np.array([rng.choice([-1.0, -2.0, LOG_FLOOR]) for _ in range(vocab.size)])
            dense = (-math.inf, ids, values)
            assert decoder._greedy_choice(dense, allowed) == oracle_choice(dense, allowed, vocab.size)


class TestNgramRow:
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_expanded_row_is_the_vector(self, order):
        corpus, vocab, _, lm, queries = random_instance(random.Random(order), 8, order=order)
        assert isinstance(lm, NgramLm)
        texts = [encode(vocab, q) for q in queries]
        texts += [encode(vocab, doc.body) for doc in corpus.documents.values()]
        for text in texts:
            for end in range(len(text) + 1):
                fill, ids, values = row = lm.next_row(text[:end])
                assert np.all(np.diff(ids) > 0) and len(ids) == len(values)
                assert min(values, default=0.0) >= LOG_FLOOR and fill >= LOG_FLOOR
                assert expand_row(row, vocab.size).tobytes() == lm.next_logprobs(text[:end]).tobytes()

    @pytest.mark.parametrize("total", [10**6, 10**11, 10**12, 10**13, 10**15])
    def test_listed_values_clamp_at_the_floor(self, total, monkeypatch):
        # no real fit reaches such totals; the fit's group formula is handed
        # this total for every group, so the listed values cross the floor
        denominators = lm_module._denominators
        monkeypatch.setattr(lm_module, "_denominators", lambda totals, alpha, size:
                            denominators(np.full_like(totals, total), alpha, size))
        vocab = small_vocab(20)
        lm = NgramLm(vocab, order=2, alpha=0.1).fit([[7, 8, 7, 9, 7, 8]])
        first, starts, _, ids, _ = lm._tables[1]
        group = first[7]
        log_counts = np.log(np.array([2, 1]) + 0.1)  # 7 is followed by 8 twice and by 9 once
        fill, row_ids, values = lm.next_row([7])
        listed = slice(starts[group], starts[group + 1])
        denom = math.log(total + 0.1 * vocab.size)
        assert row_ids.tolist() == ids[listed].tolist() == [8, 9]
        assert values.tobytes() == np.maximum(log_counts - denom, LOG_FLOOR).tobytes()
        assert fill == max(math.log(0.1) - denom, LOG_FLOOR)
        assert (values == LOG_FLOOR).all() == (total >= 10**13)

    @pytest.mark.parametrize("context", [[7], [8, 7], [], [12]])
    def test_row_arrays_are_read_only_views_of_the_model(self, context):
        lm = NgramLm(small_vocab(20), order=3).fit([[7, 8, 7, 9, 7, 8]])
        _, ids, values = lm.next_row(context)
        for array, value, column in ((ids, 0, 3), (values, 0.0, 4)):
            assert any(np.shares_memory(array, table[column]) for table in lm._tables)
            with pytest.raises(ValueError, match="read-only"):
                array[...] = value

    def test_row_of_an_unfit_model_lists_nothing(self):
        vocab = small_vocab(20)
        fill, ids, values = NgramLm(vocab).next_row([7, 8])
        assert len(ids) == len(values) == 0
        assert fill == -math.log(vocab.size)


# ---------------------------------------------------------------------------
# Whole decodes against the dense loop


def oracle_rag_decode(lm, trie, corpus, query, k_retrieve, k_context, budget,
                      max_ref_tokens, max_answer_tokens, rebuild_context) -> RagResult:
    """The dense RAG loop: argmax of ``next_logprobs(context)[allowed]``, then a trace parse
    and the span scores of :func:`oracle_span_scores`."""
    vocab_size = lm.vocab.size
    excl = ExclusionSet(trie)
    cost = DecodeCost()
    trace, docids = [], []
    prompt = encode(lm.vocab, f"rag: {query}")
    context = Context(vocab_size)

    def ingest(tokens):
        context.extend(tokens)
        cost.context_tokens += len(tokens)

    def run(state, until):
        while state.phase is not until:
            allowed = allowed_mask(state, trie, excl, vocab_size)
            if len(allowed) > 1:  # a one-token mask is not asked
                cost.scorer_calls += 1
            token = int(allowed[int(np.argmax(lm.next_logprobs(context)[allowed]))])
            if token == DOCID_CLOSE:
                completed = trie.docid_at(trie.node_at(state.span.inner_prefix))
                excl.add(completed)
                docids.append(completed)
            if token != EOS or state.phase not in SILENT_STOP:
                ingest([token])
                trace.append(token)
            state = step(state, token)
        return state

    ingest(prompt)
    plan = Plan(k_retrieve, k_context, max_ref_tokens, max_answer_tokens)
    state = run(GrammarState(Phase.LIST, plan), Phase.REFS)
    context_docids = tuple(docids[:k_context])
    if rebuild_context and context_docids:
        context = Context(vocab_size)
        ingest(prompt)
    for doc_id in context_docids:
        ingest(render_document_tokens(lm.vocab, corpus.get(doc_id), budget))
    run(state, Phase.DONE)
    parsed = parse_rag_trace(trace)
    return RagResult(
        docids=RankedDocIds(tuple(docids), tuple(oracle_span_scores(lm, trie, prompt, trace))),
        context_docids=context_docids,
        references=tuple(decode(lm.vocab, span) for span in parsed.reference_spans),
        answer=decode(lm.vocab, parsed.answer_tokens),
        token_trace=tuple(trace),
        decode_cost=cost,
        closed_book_fallback=not context_docids,
    )


class TieLm:
    """A dense scorer with many ties: each value is one of three, drawn from the last two tokens."""

    def __init__(self, vocab, seed):
        self.vocab = vocab
        self._seed = seed

    def next_logprobs(self, context):
        rng = np.random.default_rng([self._seed, *(t + 1 for t in list(context)[-2:])])
        return rng.choice([-1.0, -2.5, LOG_FLOOR], size=self.vocab.size, p=[0.1, 0.3, 0.6])


@pytest.fixture
def dense_vectors(monkeypatch):
    """Counts the dense vectors every ``NgramLm`` builds."""
    calls = []
    dense = NgramLm.next_logprobs

    def counted(self, context):
        calls.append(len(context))
        return dense(self, context)

    monkeypatch.setattr(NgramLm, "next_logprobs", counted)
    return calls


def assert_same_decode(result: RagResult, expected: RagResult) -> None:
    assert result.token_trace == expected.token_trace
    assert result.docids.docids == expected.docids.docids
    pack = lambda scores: struct.pack(f"{len(scores)}d", *scores)  # noqa: E731
    assert pack(result.docids.per_docid_logprob) == pack(expected.docids.per_docid_logprob)
    assert result.references == expected.references
    assert result.answer == expected.answer
    assert result.decode_cost == expected.decode_cost
    assert result == expected


def record_masks(monkeypatch) -> list[tuple[Phase, int]]:
    """The phase and size of every mask the decoder asks for, in order."""
    masks = []
    mask = decoder.allowed_mask

    def recorded(state, *args):
        allowed = mask(state, *args)
        masks.append((state.phase, len(allowed)))
        return allowed

    monkeypatch.setattr(decoder, "allowed_mask", recorded)
    return masks


def check_against_oracle(monkeypatch, dense_vectors, lm, trie, corpus, query, **limits):
    """Decode in both modes and compare with the oracle; also compare the session's
    spans with the parse, and count the dense vectors built (DocID steps whose mask
    holds more than one id only)."""
    monkeypatch.setattr(decoder, "_Session", RecordingSession)
    masks = record_masks(monkeypatch)
    for generate, rebuild in ((generate_rag, False), (generate_rag_pipeline, True)):
        RecordingSession.made.clear()
        dense_vectors.clear()
        masks.clear()
        result = generate(lm, trie, corpus, query, **limits)
        parsed = parse_rag_trace(result.token_trace)
        docid_masks = [size for phase, size in masks if phase is Phase.DOCID]
        assert len(docid_masks) == sum(len(span) + 1 for span in parsed.docid_spans)
        if isinstance(lm, NgramLm):
            assert len(dense_vectors) == sum(size > 1 for size in docid_masks)
        assert_same_decode(result, oracle_rag_decode(lm, trie, corpus, query, **limits,
                                                     rebuild_context=rebuild))
        (session,) = RecordingSession.made
        assert session.references == [list(span) for span in parsed.reference_spans]
        assert session.answer == list(parsed.answer_tokens)
        yield result


def random_limits(rng: random.Random) -> dict:
    k_retrieve = rng.randint(1, 5)
    return dict(k_retrieve=k_retrieve, k_context=rng.randint(1, k_retrieve),
                budget=rng.choice([1, 4, 12, 256]), max_ref_tokens=rng.randint(0, 6),
                max_answer_tokens=rng.randint(0, 6))


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_rag_decodes_equal_the_dense_loop(monkeypatch, dense_vectors, order):
    rng = random.Random(100 + order)
    answered = 0
    for _ in range(12):
        corpus, _, trie, lm, queries = random_instance(rng, rng.randint(1, 14), order=order)
        for result in check_against_oracle(monkeypatch, dense_vectors, lm, trie, corpus,
                                           rng.choice(queries), **random_limits(rng)):
            answered += bool(result.answer)
    assert answered


@pytest.mark.parametrize("make_lm", [UniformLm, lambda vocab: TieLm(vocab, 3)],
                         ids=["uniform", "ties"])
def test_rag_decodes_of_dense_scorers_equal_the_dense_loop(monkeypatch, dense_vectors, make_lm):
    rng = random.Random(7)
    for _ in range(10):
        corpus, vocab, trie, _, queries = random_instance(rng, rng.randint(1, 14))
        for _ in check_against_oracle(monkeypatch, dense_vectors, make_lm(vocab), trie, corpus,
                                      rng.choice(queries), **random_limits(rng)):
            pass


@pytest.fixture(scope="module")
def bench_engine():
    """A 600-DocID benchmark corpus with 240-word bodies and an order-3 scorer on it."""
    corpus, golds = bench_corpus(600, 240, 4, 600, 300, seed=11)
    queries = [gold["input"] for gold in golds]
    answers = [gold["output"][0]["answer"] for gold in golds]
    vocab = build_vocabulary(corpus, list(decoder.TASK_PREFIXES) + queries + answers)
    rng = random.Random(11)
    examples = []
    for gold, query, answer in zip(golds, queries, answers):
        provenance = gold["output"][0]["provenance"][0]
        ranked = [canonical_docid(provenance["title"], provenance["section"])]
        ranked += rng.sample(sorted(corpus.documents), 3)
        docs = [corpus.get(doc_id) for doc_id in ranked[:2]]
        examples += [make_retrieval_example(query, ranked), make_closed_book_example(query, answer)]
        examples += make_rag_examples(query, docs, extract_reference(docs, answer), answer, tau=0.0)
    lm = build_reference_lm(corpus, vocab, examples, order=3)
    return corpus, build_trie(corpus, vocab), lm, queries


def test_rag_decodes_equal_the_dense_loop_at_benchmark_scale(monkeypatch, dense_vectors,
                                                            bench_engine):
    corpus, trie, lm, queries = bench_engine
    cut = 0
    for query in queries:
        for result in check_against_oracle(monkeypatch, dense_vectors, lm, trie, corpus, query,
                                           k_retrieve=10, k_context=3, budget=256,
                                           max_ref_tokens=64, max_answer_tokens=64):
            assert len(result.docids) > 1
            cut += sum(len(encode(lm.vocab, decoder.render_document_text(corpus.get(d)))) > 256
                       for d in result.context_docids)
    assert cut  # the budget cuts a context document


# ---------------------------------------------------------------------------
# Forced steps: a one-token mask's token is taken without asking the scorer


class GuardedLm:
    """``lm`` behind a gate: asking it while the decoder's last mask held one id fails."""

    def __init__(self, lm, masks: list[tuple[Phase, int]]):
        self.vocab = lm.vocab
        self._lm = lm
        self._masks = masks
        if hasattr(lm, "next_row"):
            self.next_row = lambda context: self._ask(lm.next_row, context)

    def _ask(self, method, context):
        phase, size = self._masks[-1]
        if size == 1:
            raise AssertionError(f"scorer asked at a forced {phase.value} step")
        return method(context)

    def next_logprobs(self, context):
        return self._ask(self._lm.next_logprobs, context)


def check_forced_steps(monkeypatch, lm, trie, corpus, query, k, limits) -> int:
    """Decode a DocID list and a RAG answer in both modes behind the gate; compare each with
    its dense oracle and count the calls made. Returns the number of forced steps."""
    monkeypatch.setattr(decoder, "_Session", RecordingSession)
    masks = record_masks(monkeypatch)
    guarded = GuardedLm(lm, masks)
    forced = 0
    for generate, rebuild in ((generate_docid_list, None), (generate_rag, False),
                              (generate_rag_pipeline, True)):
        RecordingSession.made.clear()
        masks.clear()
        if generate is generate_docid_list:
            result = generate(guarded, trie, query, k)
            prompt = encode(lm.vocab, f"retrieve: {query}")
            assert list(result.docids) == oracle_docid_list(lm, trie, query, k)
            (session,) = RecordingSession.made
            trace = [t for d in result.docids for t in (DOCID_OPEN, *trie.docid_paths[d], DOCID_CLOSE)]
            assert session.trace == trace
            scores = oracle_span_scores(lm, trie, prompt, trace)
            assert struct.pack(f"{len(scores)}d", *result.per_docid_logprob) == \
                struct.pack(f"{len(scores)}d", *scores)
            assert session.cost.context_tokens == len(prompt) + len(trace)
            cost = session.cost
        else:
            result = generate(guarded, trie, corpus, query, **limits)
            assert_same_decode(result, oracle_rag_decode(lm, trie, corpus, query, **limits,
                                                         rebuild_context=rebuild))
            cost = result.decode_cost
        steps_forced = sum(size == 1 for _, size in masks)
        assert cost.scorer_calls == len(masks) - steps_forced >= 1
        forced += steps_forced
    return forced


@pytest.mark.parametrize("scorer", ["order 1", "order 2", "order 3", "order 4", "uniform", "ties"])
def test_forced_steps_ask_no_scorer_and_decode_as_the_dense_loop(monkeypatch, scorer):
    rng = random.Random(f"forced {scorer}")
    order = int(scorer[-1]) if scorer.startswith("order") else 3
    forced = 0
    for _ in range(10):
        corpus, vocab, trie, lm, queries = random_instance(rng, rng.randint(1, 14), order=order)
        if scorer == "uniform":
            lm = UniformLm(vocab)
        elif scorer == "ties":
            lm = TieLm(vocab, rng.randrange(100))
        forced += check_forced_steps(monkeypatch, lm, trie, corpus, rng.choice(queries),
                                     rng.randint(1, 6), random_limits(rng))
    assert forced


def test_forced_steps_ask_no_scorer_at_benchmark_scale(monkeypatch, bench_engine):
    corpus, trie, lm, queries = bench_engine
    forced = sum(check_forced_steps(monkeypatch, lm, trie, corpus, query, 10,
                                    dict(k_retrieve=10, k_context=3, budget=256,
                                         max_ref_tokens=64, max_answer_tokens=64))
                 for query in queries)
    assert forced


def test_free_text_step_allocates_nothing_vocabulary_sized(monkeypatch):
    rows = [("0", "alpha", "one", "w00001 w00002 w00003. w00004 w00005."),
            ("1", "beta", "two", "w00002 w00003 w00006. w00007 w00001.")]
    corpus = build_corpus([make_document(*row) for row in rows])
    filler = " ".join(f"w{i:05d}" for i in range(50_000))
    vocab = build_vocabulary(corpus, list(decoder.TASK_PREFIXES) + [filler])
    assert vocab.size > 50_000
    rng = random.Random(3)
    texts = [encode(vocab, doc.body) for doc in corpus.documents.values()]
    texts += [[rng.randrange(7, 2_000) for _ in range(40)] for _ in range(50)]
    lm = NgramLm(vocab, order=3).fit(texts)
    trie = build_trie(corpus, vocab)
    limits = dict(k_retrieve=2, k_context=2, max_ref_tokens=8, max_answer_tokens=8)
    generate_rag(lm, trie, corpus, "w00001 alpha", **limits)  # builds the shared masks

    # a step runs from one mask call to the next: its transient is read at the next call
    transients: list[tuple[Phase, int]] = []
    phases: list[Phase] = []
    mask = decoder.allowed_mask

    def measured_mask(state, *args):
        current, peak = tracemalloc.get_traced_memory()
        if phases:
            transients.append((phases[-1], peak - current))
        tracemalloc.reset_peak()
        phases.append(state.phase)
        return mask(state, *args)

    monkeypatch.setattr(decoder, "allowed_mask", measured_mask)
    tracemalloc.start()
    try:
        result = generate_rag(lm, trie, corpus, "w00001 alpha", **limits)
    finally:
        tracemalloc.stop()
    assert result.context_docids
    free_text = [size for phase, size in transients if phase is not Phase.DOCID]
    docid = [size for phase, size in transients if phase is Phase.DOCID]
    assert len(free_text) > 10 and docid
    assert max(docid) >= 8 * vocab.size  # the DocID steps keep the dense vector
    assert max(free_text) < 8 * vocab.size
