import math
import random

import numpy as np
import pytest

from docidlm import decoder, lm as lm_module
from docidlm.decoder import (
    DecodeCost,
    DecodeError,
    GrammarError,
    ParsedTrace,
    generate_closed_book,
    generate_docid_list,
    generate_rag,
    generate_rag_pipeline,
    parse_rag_trace,
    render_document_tokens,
    score_sequence,
)
from docidlm.lm import UniformLm, train_ngram
from docidlm.tokens import (
    ANSWER_OPEN,
    DOCID_CLOSE,
    DOCID_OPEN,
    EOS,
    REF_CLOSE,
    REF_OPEN,
    SPECIAL_IDS,
    UNK,
    Vocabulary,
    build_vocabulary,
    encode,
)
from docidlm.training import make_closed_book_example, render_example_tokens
from docidlm.trie import build_trie

from conftest import corpus_from_rows, dense_span_term, oracle_span_scores, random_instance


def tiny_vocab_of_size(n: int) -> Vocabulary:
    """A bare n-token vocabulary for closed-form uniform-scorer arithmetic."""
    tokens = tuple(f"t{i}" for i in range(n))
    return Vocabulary(tokens=tokens, token_to_id={t: i for i, t in enumerate(tokens)})


# ---------------------------------------------------------------------------
# Independent greedy oracle: per-step argmax over a brute-forced allowed set.


def oracle_docid_list(lm, trie, query, k):
    vocab = lm.vocab
    context = list(encode(vocab, f"retrieve: {query}"))
    generated: list[int] = []
    docids: list[str] = []
    excluded: set[str] = set()
    paths = trie.docid_paths

    def backward_scan():
        for i in range(len(generated) - 1, -1, -1):
            if generated[i] == DOCID_CLOSE:
                return None
            if generated[i] == DOCID_OPEN:
                return tuple(generated[i + 1 :])
        return None

    def allowed_set():
        inner = backward_scan()
        if inner is None:
            allowed = {EOS}
            if any(d not in excluded for d in paths):
                allowed.add(DOCID_OPEN)
            return allowed
        allowed = set()
        for doc_id, path in paths.items():
            if doc_id in excluded:
                continue
            if path[: len(inner)] == inner:
                if len(path) > len(inner):
                    allowed.add(path[len(inner)])
                else:
                    allowed.add(DOCID_CLOSE)
        return allowed

    while len(docids) < k:
        allowed = allowed_set()
        vector = lm.next_logprobs(context)
        choice = min(allowed, key=lambda t: (-vector[t], t))
        if choice == EOS:
            break
        context.append(choice)
        generated.append(choice)
        if choice == DOCID_CLOSE:
            inner_done = None
            for i in range(len(generated) - 2, -1, -1):
                if generated[i] == DOCID_OPEN:
                    inner_done = tuple(generated[i + 1 : -1])
                    break
            completed = [d for d, p in paths.items() if p == inner_done][0]
            docids.append(completed)
            excluded.add(completed)
    return docids


class TestDocIdList:
    def test_single_document_exhaustion(self):
        corpus = corpus_from_rows([("1", "solo", "sec", "alpha beta.")])
        vocab = build_vocabulary(corpus, ["retrieve:"])
        trie = build_trie(corpus, vocab)
        result = generate_docid_list(UniformLm(vocab), trie, "anything", k=3)
        assert list(result.docids) == ["solo # sec"]

    def test_uniform_lm_lowest_id_tie_breaking(self):
        corpus = corpus_from_rows([
            ("1", "a", "x", "t."), ("2", "a", "y", "t."), ("3", "b", "z", "t."),
        ])
        vocab = build_vocabulary(corpus, ["retrieve:"])
        trie = build_trie(corpus, vocab)
        result = generate_docid_list(UniformLm(vocab), trie, "q", k=2)
        assert list(result.docids) == ["a # x", "a # y"]

    def test_k_larger_than_corpus_returns_all(self):
        corpus = corpus_from_rows([("1", "a", "x", "t."), ("2", "b", "y", "t.")])
        vocab = build_vocabulary(corpus, ["retrieve:"])
        trie = build_trie(corpus, vocab)
        result = generate_docid_list(UniformLm(vocab), trie, "q", k=10)
        assert sorted(result.docids) == ["a # x", "b # y"]

    def test_empty_trie_is_an_error(self):
        corpus = corpus_from_rows([])
        vocab = build_vocabulary(corpus, [])
        trie = build_trie(corpus, vocab)
        with pytest.raises(DecodeError):
            generate_docid_list(UniformLm(vocab), trie, "q", k=1)

    def test_validity_and_no_duplicates_randomized(self):
        rng = random.Random(61)
        for _ in range(30):
            corpus, vocab, trie, lm, queries = random_instance(rng, rng.randint(2, 30))
            result = generate_docid_list(lm, trie, rng.choice(queries), rng.randint(1, 10))
            assert len(set(result.docids)) == len(result.docids)
            assert all(d in corpus for d in result.docids)

    def test_matches_bruteforce_oracle(self):
        rng = random.Random(67)
        for _ in range(40):
            corpus, vocab, trie, lm, queries = random_instance(rng, rng.randint(2, 20))
            query = rng.choice(queries)
            k = rng.randint(1, 10)
            assert list(generate_docid_list(lm, trie, query, k).docids) == \
                oracle_docid_list(lm, trie, query, k)

    def test_per_docid_logprob_matches_score_sequence(self):
        rng = random.Random(71)
        corpus, vocab, trie, lm, queries = random_instance(rng, 12)
        result = generate_docid_list(lm, trie, queries[0], k=5)
        prompt = encode(vocab, f"retrieve: {queries[0]}")
        trace = [t for d in result.docids for t in (DOCID_OPEN, *trie.docid_paths[d], DOCID_CLOSE)]
        assert len(result.docids) > 1
        assert list(result.per_docid_logprob) == oracle_span_scores(lm, trie, prompt, trace)


class TestClosedBook:
    def make_lm(self):
        vocab = build_vocabulary(None, ["answer: q", "yes"])
        example = make_closed_book_example("q", "yes")
        texts = [render_example_tokens(vocab, example)] * 3
        return vocab, train_ngram(vocab, texts, order=3, alpha=0.1)

    def test_memorized_pair_is_reproduced(self):
        vocab, lm = self.make_lm()
        # counts force: context "answer : q" -> answer marker -> yes -> stop
        assert generate_closed_book(lm, "q", max_tokens=8) == "yes"

    def test_deterministic(self):
        vocab, lm = self.make_lm()
        runs = {generate_closed_book(lm, "q", max_tokens=8) for _ in range(3)}
        assert len(runs) == 1

    def test_max_tokens_validation(self):
        vocab, lm = self.make_lm()
        with pytest.raises(DecodeError):
            generate_closed_book(lm, "q", max_tokens=0)

    def test_cap_stops_generation(self):
        vocab = build_vocabulary(None, ["answer: q", "a b c d e f g h"])
        text = encode(vocab, "answer: q a b c d e f g h")
        lm = train_ngram(vocab, [text] * 2, order=2, alpha=0.01)
        out = generate_closed_book(lm, "q", max_tokens=3)
        assert len(out.split()) <= 3


class TestScoreSequence:
    def test_uniform_three_tokens(self):
        vocab = tiny_vocab_of_size(4)
        lm = UniformLm(vocab)
        total = score_sequence(lm, [0], [1, 2, 3])
        assert total == pytest.approx(3 * math.log(1 / 4), abs=1e-9)
        assert total == pytest.approx(-4.1589, abs=5e-5)

    def test_single_token_equals_lookup(self):
        vocab = tiny_vocab_of_size(5)
        lm = UniformLm(vocab)
        vector = lm.next_logprobs([0])
        assert score_sequence(lm, [0], [3]) == pytest.approx(float(vector[3]))

    def test_full_vocab_mask_is_identity(self):
        rng = random.Random(73)
        corpus, vocab, trie, lm, queries = random_instance(rng, 5)
        context = encode(vocab, queries[0])
        target = encode(vocab, queries[1]) or [7]
        full = np.arange(vocab.size)
        unmasked = score_sequence(lm, context, target)
        masked = sum(dense_span_term(lm.next_logprobs(context + target[:i]), full, token)
                     for i, token in enumerate(target))
        assert masked == pytest.approx(unmasked, abs=1e-9)

    @pytest.mark.parametrize("order", [1, 2, 3, 4, None])  # None: the dense-only UniformLm
    def test_equals_summed_dense_lookups(self, order):
        rng = random.Random(order or 0)
        vocab = tiny_vocab_of_size(40)
        ordinary = range(len(SPECIAL_IDS), vocab.size)
        texts = [rng.choices(ordinary, k=rng.randint(1, 30)) for _ in range(20)]
        lm = UniformLm(vocab) if order is None else train_ngram(vocab, texts, order=order)
        for _ in range(30):
            # seen texts hit listed entries, random ids the fill
            source = rng.choice(texts) if rng.random() < 0.5 else rng.choices(range(vocab.size), k=20)
            cut = rng.randint(0, len(source) - 1)
            context, target = source[:cut], source[cut:]
            expected, prefix = 0.0, list(context)
            for token in target:
                expected += float(lm.next_logprobs(prefix)[token])
                prefix.append(token)
            assert score_sequence(lm, context, target) == expected

    def test_empty_target_rejected(self):
        lm = UniformLm(tiny_vocab_of_size(3))
        with pytest.raises(ValueError):
            score_sequence(lm, [0], [])


class TestRag:
    def test_trace_parses_and_fields_consistent(self):
        rng = random.Random(79)
        for _ in range(10):
            corpus, vocab, trie, lm, queries = random_instance(rng, rng.randint(2, 15))
            result = generate_rag(lm, trie, corpus, queries[0], k_retrieve=5, k_context=2)
            parsed = parse_rag_trace(result.token_trace)
            assert len(parsed.docid_spans) == len(result.docids.docids)
            assert len(parsed.reference_spans) == len(result.references)
            assert set(result.context_docids) <= set(result.docids.docids)
            assert len(result.context_docids) <= 2

    def test_single_document_context_fixed(self):
        corpus = corpus_from_rows([("1", "solo", "sec", "alpha beta gamma.")])
        vocab = build_vocabulary(corpus, ["rag:"])
        trie = build_trie(corpus, vocab)
        result = generate_rag(UniformLm(vocab), trie, corpus, "whatever",
                              k_retrieve=3, k_context=2)
        assert result.context_docids == ("solo # sec",)

    def test_pipeline_costs_more_context_tokens(self):
        rng = random.Random(83)
        for _ in range(8):
            corpus, vocab, trie, lm, queries = random_instance(rng, rng.randint(3, 20))
            query = rng.choice(queries)
            cont = generate_rag(lm, trie, corpus, query, k_retrieve=4, k_context=2)
            pipe = generate_rag_pipeline(lm, trie, corpus, query, k_retrieve=4, k_context=2)
            assert pipe.decode_cost.context_tokens > cont.decode_cost.context_tokens
            # same rendered context, same scorer, same greedy rule
            assert pipe.references == cont.references
            assert pipe.answer == cont.answer
            assert pipe.docids == cont.docids

    def test_empty_retrieval_falls_back_closed_book(self):
        corpus = corpus_from_rows([("1", "a", "x", "t.")])
        vocab = build_vocabulary(corpus, ["rag: q", "fine"])
        trie = build_trie(corpus, vocab)
        # the scorer strongly prefers stopping the list immediately
        text = encode(vocab, "rag: q") + [EOS]
        answer = encode(vocab, "rag: q") + [ANSWER_OPEN] + encode(vocab, "fine") + [EOS]
        lm = train_ngram(vocab, [text] * 5 + [answer], order=3, alpha=0.01)
        result = generate_rag(lm, trie, corpus, "q", k_retrieve=2, k_context=1)
        assert result.closed_book_fallback
        assert result.docids.docids == ()
        assert result.references == ()
        parse_rag_trace(result.token_trace)
        pipe = generate_rag_pipeline(lm, trie, corpus, "q", k_retrieve=2, k_context=1)
        assert pipe == result

    @pytest.mark.parametrize("budget", [0, -5])
    @pytest.mark.parametrize("generate", [generate_rag, generate_rag_pipeline])
    def test_budget_below_one_rejected_before_retrieval(self, generate, budget):
        corpus = corpus_from_rows([("1", "a", "x", "t.")])
        vocab = build_vocabulary(corpus, ["rag: q"])
        trie = build_trie(corpus, vocab)
        # stops the DocID list at once, so no document is ever rendered
        lm = train_ngram(vocab, [encode(vocab, "rag: q") + [EOS]] * 5, order=3, alpha=0.01)
        assert generate(lm, trie, corpus, "q", k_retrieve=2, k_context=1).closed_book_fallback
        with pytest.raises(ValueError, match=rf"^document budget must be >= 1, not {budget}$"):
            generate(lm, trie, corpus, "q", k_retrieve=2, k_context=1, budget=budget)

    def test_kept_traces_share_their_token_objects(self):
        # ids above 256 are not cached by the interpreter, so each would be its own object
        corpus = corpus_from_rows([("1", "alpha", "one", "w00301 w00302 w00303. w00304."),
                                   ("2", "beta", "two", "w00302 w00305 w00306. w00301.")])
        vocab = build_vocabulary(corpus, ["rag:", " ".join(f"w{i:05d}" for i in range(400))])
        lm = train_ngram(vocab, [encode(vocab, doc.body) for doc in corpus.documents.values()])
        first, again = (generate_rag(lm, build_trie(corpus, vocab), corpus, "w00301", k_retrieve=2,
                                     k_context=2, max_ref_tokens=4) for _ in range(2))
        assert first.token_trace == again.token_trace and max(first.token_trace) > 256
        assert all(a is b for a, b in zip(first.token_trace, again.token_trace))

    def test_argument_validation(self):
        corpus = corpus_from_rows([("1", "a", "x", "t.")])
        vocab = build_vocabulary(corpus, [])
        trie = build_trie(corpus, vocab)
        lm = UniformLm(vocab)
        with pytest.raises(DecodeError):
            generate_rag(lm, trie, corpus, "q", k_retrieve=1, k_context=2)
        with pytest.raises(DecodeError):
            generate_rag(lm, trie, corpus, "q", k_retrieve=1, k_context=0)

    @pytest.mark.parametrize("caps", [dict(max_ref_tokens=-3), dict(max_answer_tokens=-1),
                                      dict(max_ref_tokens=-1, max_answer_tokens=-1)])
    @pytest.mark.parametrize("generate", [generate_rag, generate_rag_pipeline])
    def test_negative_caps_rejected_before_decoding(self, monkeypatch, generate, caps):
        corpus, vocab, trie, lm, queries = random_instance(random.Random(89), 6)
        limits = dict(k_retrieve=3, k_context=2)
        empty = generate(lm, trie, corpus, queries[0], **limits, max_ref_tokens=0,
                         max_answer_tokens=0)  # an empty reference or answer is legal
        assert empty.context_docids and empty.answer == ""
        assert empty.references == ("",) * len(empty.context_docids)

        def no_decoding(*args):
            raise AssertionError("decoded with a negative cap")

        monkeypatch.setattr(decoder, "allowed_mask", no_decoding)
        with pytest.raises(DecodeError, match="^max_ref_tokens and max_answer_tokens must be >= 0$"):
            generate(lm, trie, corpus, queries[0], **limits, **caps)


def test_each_context_token_is_range_checked_once(monkeypatch):
    checked, costs = [], []
    check, append = lm_module._check_tokens, lm_module.Context.append

    def counting_check(vocab_size, tokens):
        checked.append(len(tokens))
        check(vocab_size, tokens)

    def counting_append(context, token):  # its own one-token check
        checked.append(1)
        append(context, token)

    def recorded_cost():
        costs.append(DecodeCost())
        return costs[-1]

    monkeypatch.setattr(lm_module, "_check_tokens", counting_check)
    monkeypatch.setattr(lm_module.Context, "append", counting_append)
    monkeypatch.setattr(decoder, "DecodeCost", recorded_cost)
    corpus, vocab, trie, lm, queries = random_instance(random.Random(97), 12)
    for generate in (generate_rag, generate_rag_pipeline, generate_docid_list):
        checked.clear()
        if generate is generate_docid_list:
            generate(lm, trie, queries[0], k=4)
        else:
            assert generate(lm, trie, corpus, queries[0], k_retrieve=4, k_context=2).context_docids
        assert costs[-1].scorer_calls > 1
        # each token once, when it enters the context, not once per scorer call
        assert sum(checked) == costs[-1].context_tokens, generate.__name__
    checked.clear()
    context, target = encode(vocab, queries[0]), encode(vocab, queries[1])
    score_sequence(lm, context, target)
    assert sum(checked) == len(context) + len(target)


class TestRenderDocument:
    def test_header_then_truncated_body(self):
        corpus = corpus_from_rows([("1", "Title", "Sec", "one two three four five six.")])
        vocab = build_vocabulary(corpus, [])
        doc = corpus.get("Title # Sec")
        header = encode(vocab, "Title # Sec")
        full = render_document_tokens(vocab, doc, budget=100)
        assert full[: len(header)] == header
        capped = render_document_tokens(vocab, doc, budget=len(header) + 2)
        assert len(capped) == len(header) + 2
        assert capped[: len(header)] == header

    def test_budget_smaller_than_header(self):
        corpus = corpus_from_rows([("1", "Long Title Words", "Sec", "body.")])
        vocab = build_vocabulary(corpus, [])
        doc = corpus.get("Long Title Words # Sec")
        assert len(render_document_tokens(vocab, doc, budget=2)) == 2

    @pytest.mark.parametrize("budget", [0, -5])
    def test_budget_below_one_rejected(self, budget):
        corpus = corpus_from_rows([("1", "Title", "Sec", "body.")])
        vocab = build_vocabulary(corpus, [])
        with pytest.raises(ValueError, match=f"^document budget must be >= 1, not {budget}$"):
            render_document_tokens(vocab, corpus.get("Title # Sec"), budget)


class TestParseTrace:
    def test_accepts_wellformed(self):
        trace = [DOCID_OPEN, 9, 8, DOCID_CLOSE, REF_OPEN, 10, REF_CLOSE,
                 ANSWER_OPEN, 11, EOS]
        parsed = parse_rag_trace(trace)
        assert parsed.docid_spans == ((9, 8),)
        assert parsed.reference_spans == ((10,),)
        assert parsed.answer_tokens == (11,)

    def test_closed_book_shape_accepted(self):
        parsed = parse_rag_trace([ANSWER_OPEN, 9, EOS])
        assert parsed.docid_spans == () and parsed.reference_spans == ()

    @pytest.mark.parametrize("trace", [
        [DOCID_OPEN, DOCID_CLOSE, ANSWER_OPEN, EOS],       # empty DocID span
        [DOCID_OPEN, 9, ANSWER_OPEN, EOS],                 # unclosed DocID span
        [REF_OPEN, 9, ANSWER_OPEN, EOS],                   # unclosed reference
        [ANSWER_OPEN, 9],                                  # missing EOS
        [ANSWER_OPEN, 9, EOS, 9],                          # trailing tokens
        [9, ANSWER_OPEN, EOS],                             # stray leading token
        [],                                                # empty
    ])
    def test_rejects_malformed(self, trace):
        with pytest.raises(GrammarError):
            parse_rag_trace(trace)


# ---------------------------------------------------------------------------
# Independent parser oracle: the hand-written recursive-descent parser that
# parse_rag_trace replaced.


def oracle_parse_rag_trace(trace):
    i = 0
    n = len(trace)

    def fail(reason):
        return GrammarError(f"position {i}: {reason}")

    docid_spans = []
    while i < n and trace[i] == DOCID_OPEN:
        i += 1
        span = []
        while i < n and trace[i] not in SPECIAL_IDS:
            span.append(trace[i])
            i += 1
        if i >= n or trace[i] != DOCID_CLOSE:
            raise fail("DocID span not closed")
        if not span:
            raise fail("empty DocID span")
        docid_spans.append(tuple(span))
        i += 1

    reference_spans = []
    while i < n and trace[i] == REF_OPEN:
        i += 1
        span = []
        while i < n and (trace[i] not in SPECIAL_IDS or trace[i] == UNK):
            span.append(trace[i])
            i += 1
        if i >= n or trace[i] != REF_CLOSE:
            raise fail("reference span not closed")
        reference_spans.append(tuple(span))
        i += 1

    if i >= n or trace[i] != ANSWER_OPEN:
        raise fail("expected answer marker")
    i += 1
    answer = []
    while i < n and (trace[i] not in SPECIAL_IDS or trace[i] == UNK):
        answer.append(trace[i])
        i += 1
    if i >= n or trace[i] != EOS:
        raise fail("expected end-of-sequence")
    i += 1
    if i != n:
        raise fail("trailing tokens after end-of-sequence")
    return ParsedTrace(tuple(docid_spans), tuple(reference_spans), tuple(answer))


def parse_outcome(parser, trace):
    try:
        return parser(trace)
    except GrammarError:
        return "rejected"


def test_parser_agrees_with_oracle_on_decodes_and_single_token_edits():
    rng = random.Random(89)
    traces = []
    for _ in range(30):
        corpus, vocab, trie, lm, queries = random_instance(rng, rng.randint(1, 12))
        k_retrieve = rng.randint(1, 5)
        generate = rng.choice([generate_rag, generate_rag_pipeline])
        result = generate(lm, trie, corpus, rng.choice(queries), k_retrieve=k_retrieve,
                          k_context=rng.randint(1, k_retrieve), max_ref_tokens=rng.randint(0, 4),
                          max_answer_tokens=rng.randint(0, 4))
        traces.append((list(result.token_trace), vocab.size))
    cases = [trace for trace, _ in traces]
    while len(cases) < 12_000:  # single-token edits of the decode traces
        trace, vocab_size = rng.choice(traces)
        trace = list(trace)
        token = rng.choice(list(SPECIAL_IDS) * 3 + [rng.randrange(vocab_size)])
        edit = rng.choice(["insert", "delete", "substitute"])
        position = rng.randrange(len(trace) + (edit == "insert"))
        if edit == "insert":
            trace.insert(position, token)
        elif edit == "delete":
            del trace[position]
        else:
            trace[position] = token
        cases.append(trace)
    outcomes = {"accepted": 0, "rejected": 0}
    for trace in cases:
        expected = parse_outcome(oracle_parse_rag_trace, trace)
        assert parse_outcome(parse_rag_trace, trace) == expected, trace
        outcomes["rejected" if expected == "rejected" else "accepted"] += 1
    assert min(outcomes.values()) > 1_000, outcomes
