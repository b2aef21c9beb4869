import logging
import math
import random
import sys
import tracemalloc
from collections import Counter

import pytest

from docidlm.cli import Engine, RunConfig
from docidlm.corpus import UnknownDocIdError
from docidlm.decoder import layout_text, render_document_text
from docidlm.lm import UniformLm, train_ngram
from docidlm.tokens import (
    ANSWER_OPEN, DOCID_CLOSE, DOCID_OPEN, EOS, REF_CLOSE, REF_OPEN, build_vocabulary, encode,
    split_words,
)
from docidlm.training import (
    LexicalOverlapReranker,
    Task,
    TrainingExample,
    bm25_retrieve,
    build_bm25_index,
    build_reference_lm,
    combined_loss,
    construct_ranked_docid_list,
    docid_list_target,
    example_record,
    extract_reference,
    make_docid_understanding_examples,
    make_rag_examples,
    make_retrieval_example,
    render_example_tokens,
    sequence_loss,
    stopwords,
)

from conftest import (_WORD_POOL, _SECTION_POOL, _TITLE_POOL, bench_corpus, corpus_from_rows,
                      random_corpus, random_text, random_text_corpus)
from test_cli import DEMO_DATA, GOLDEN, read_jsonl_records
from test_decoder import tiny_vocab_of_size


def docids_of(target):
    """The DocIDs of a DocID-list layout, once its span symbols are checked."""
    spans = len(target) // 3
    assert target[0::3] == (DOCID_OPEN,) * spans and target[2::3] == (DOCID_CLOSE,) * spans
    assert len(target) == 3 * spans
    return list(target[1::3])


def equal_length_corpus():
    # title(1) + section(1) + body(3) tokens = 5 per document, so avgdl = |d|
    return corpus_from_rows([
        ("1", "d1", "s", "rare alpha beta"),
        ("2", "d2", "s", "gamma delta epsi"),
        ("3", "d3", "s", "zeta eta theta"),
    ])


class TestBm25:
    def test_average_length_is_mean(self):
        corpus = corpus_from_rows([
            ("1", "a", "x", "one two"),        # 2 + 2 body/meta -> 4 terms
            ("2", "b", "y", "one two three"),  # 5 terms
            ("3", "c", "z", "one"),            # 3 terms
        ])
        index = build_bm25_index(corpus)
        assert index.avgdl == pytest.approx((4 + 5 + 3) / 3)

    def test_absent_term_empty_postings(self):
        index = build_bm25_index(equal_length_corpus())
        assert "missing" not in index.corpus.words.term_id
        assert bm25_retrieve(index, "missing", 5) == []

    def test_postings_exactly_matching_docs(self):
        corpus = corpus_from_rows([
            ("1", "a", "x", "shared one"),
            ("2", "b", "y", "unrelated"),
            ("3", "c", "z", "shared two"),
        ])
        index = build_bm25_index(corpus)
        docs, tfs = index.postings(corpus.words.term_id["shared"])
        assert [index.doc_ids[i] for i in docs] == ["a # x", "c # z"]
        assert tfs.tolist() == [1, 1]

    def test_closed_form_single_hit_at_average_length(self):
        # tf=1, |d|=avgdl collapses length normalization: score = idf = ln(8/3)
        index = build_bm25_index(equal_length_corpus())
        [(doc_id, score)] = bm25_retrieve(index, "rare", 3)
        assert doc_id == "d1 # s"
        assert score == pytest.approx(math.log(8 / 3), abs=1e-9)

    def test_duplicate_query_terms_accumulate(self):
        index = build_bm25_index(equal_length_corpus())
        [(_, single)] = bm25_retrieve(index, "rare", 3)
        [(_, doubled)] = bm25_retrieve(index, "rare rare", 3)
        assert doubled == pytest.approx(2 * single, abs=1e-12)

    def test_descending_scores_ties_by_docid(self):
        corpus = corpus_from_rows([
            ("1", "b", "s", "term x y"),
            ("2", "a", "s", "term x y"),
        ])
        index = build_bm25_index(corpus)
        ranked = bm25_retrieve(index, "term", 2)
        assert [d for d, _ in ranked] == ["a # s", "b # s"]
        assert ranked[0][1] == ranked[1][1]


def oracle_postings(corpus):
    """Each term's (DocID, frequency) list in DocID order, and each document's length."""
    postings, doc_lengths = {}, {}
    for doc_id in sorted(corpus.documents):
        doc = corpus.documents[doc_id]
        terms = split_words(doc.title) + split_words(doc.section) + split_words(doc.body)
        doc_lengths[doc_id] = len(terms)
        for term, tf in sorted(Counter(terms).items()):
            postings.setdefault(term, []).append((doc_id, tf))
    return postings, doc_lengths


def oracle_bm25_retrieve(corpus, query, k, k1=1.2, b=0.75):
    """The per-posting dict scorer the postings-array scorer replaced."""
    postings, doc_lengths = oracle_postings(corpus)
    n = len(doc_lengths)
    avgdl = sum(doc_lengths.values()) / n
    scores = {}
    for term in split_words(query):
        if term not in postings:
            continue
        n_t = len(postings[term])
        idf = math.log((n - n_t + 0.5) / (n_t + 0.5) + 1.0)
        for doc_id, tf in postings[term]:
            norm = k1 * (1 - b + b * doc_lengths[doc_id] / avgdl)
            scores[doc_id] = scores.get(doc_id, 0.0) + idf * tf * (k1 + 1) / (tf + norm)
    return sorted(scores.items(), key=lambda item: (-item[1], item[0]))[:k]


def random_query(rng):
    """Corpus words, one of them repeated, and sometimes a word no document has."""
    words = rng.choices(_WORD_POOL + _TITLE_POOL + _SECTION_POOL, k=rng.randint(1, 5))
    words.append(rng.choice(words))
    if rng.random() < 0.3:
        words.insert(rng.randrange(len(words)), "missing")
    rng.shuffle(words)
    return " ".join(words)


def assert_retrieval_matches_oracle(corpus, rng, queries, k1=1.2, b=0.75):
    """Exact (doc_id, score) lists; returns how many adjacent ranks tied."""
    index = build_bm25_index(corpus, k1=k1, b=b)
    ties = 0
    for _ in range(queries):
        query = random_query(rng)
        k = rng.randint(1, len(corpus) + 2)
        ranked = bm25_retrieve(index, query, k)
        assert ranked == oracle_bm25_retrieve(corpus, query, k, k1=k1, b=b)
        assert all(type(score) is float for _, score in ranked)
        ties += sum(x[1] == y[1] for x, y in zip(ranked, ranked[1:]))
    return ties


class TestBm25MatchesOracle:
    def test_random_corpora(self):
        rng = random.Random(71)
        ties = 0
        for _ in range(30):
            corpus = random_corpus(rng, rng.randint(1, 40))
            ties += assert_retrieval_matches_oracle(corpus, rng, 10, k1=rng.choice([1.2, 0.9]),
                                                    b=rng.choice([0.75, 0.0, 1.0]))
        assert ties > 0  # tie order was exercised

    def test_two_thousand_documents(self):
        rng = random.Random(73)
        bodies = [" ".join(rng.choices(_WORD_POOL, k=rng.randint(3, 20))) + "."
                  for _ in range(600)]
        # bodies are reused, so equal scores (ties broken by DocID) are common
        corpus = corpus_from_rows([
            (str(i), f"t{i}", rng.choice(_SECTION_POOL), rng.choice(bodies))
            for i in range(2000)
        ])
        assert assert_retrieval_matches_oracle(corpus, rng, 40) > 0


class TestBm25RowsMatchOracle:
    @pytest.mark.parametrize("seed", range(4))
    def test_rows_equal_oracle_postings(self, seed):
        rng = random.Random(seed)
        corpus = random_text_corpus(rng, rng.randint(1, 40))
        index = build_bm25_index(corpus)
        postings, _ = oracle_postings(corpus)
        terms = corpus.words.terms
        assert sorted(postings) == list(terms)
        for term_id, term in enumerate(terms):
            docs, tfs = index.postings(term_id)
            assert [(index.doc_ids[d], tf) for d, tf in zip(docs.tolist(), tfs.tolist())] == postings[term]
        for _ in range(10):
            query = random_text(rng) + " " + rng.choice(terms)
            k = rng.randint(1, len(corpus) + 2)
            assert bm25_retrieve(index, query, k) == oracle_bm25_retrieve(corpus, query, k)

    def test_body_term_ids_retrieve_as_the_body_text(self):
        rng = random.Random(5)
        corpus = random_text_corpus(rng, 30)
        index = build_bm25_index(corpus)
        for doc_id, doc in corpus.documents.items():
            body = corpus.words.document(doc_id, body_only=True).tolist()
            assert bm25_retrieve(index, body, 10) == oracle_bm25_retrieve(corpus, doc.body, 10)


class OracleReranker:
    """The string-set reranker that the term-id reranker replaced."""

    def __init__(self, corpus):
        self.corpus = corpus

    def rerank(self, query, candidates):
        query_terms = set(split_words(query))

        def terms(doc_id):
            doc = self.corpus.get(doc_id)
            return set(split_words(doc.title) + split_words(doc.section) + split_words(doc.body))

        return sorted(candidates, key=lambda d: -len(query_terms & terms(d)))


@pytest.mark.parametrize("seed", range(4))
def test_reranker_order_matches_string_set_oracle(seed):
    rng = random.Random(seed)
    corpus = random_text_corpus(rng, rng.randint(2, 30))
    reranker, oracle = LexicalOverlapReranker(corpus), OracleReranker(corpus)
    doc_ids = sorted(corpus.documents)
    for doc_id in doc_ids:
        candidates = rng.sample(doc_ids, rng.randint(1, len(doc_ids)))
        query = random_text(rng)
        assert reranker.rerank(query, candidates) == oracle.rerank(query, candidates)
        body = corpus.words.document(doc_id, body_only=True).tolist()
        assert reranker.rerank(body, candidates) == oracle.rerank(corpus.get(doc_id).body, candidates)


class StubReranker:
    """Returns a fixed order, restricted to the offered candidates."""

    def __init__(self, order):
        self.order = order

    def rerank(self, query, candidates):
        wanted = [d for d in self.order if d in candidates]
        return wanted + [d for d in candidates if d not in self.order]


class TestMergeRule:
    def corpus(self):
        return corpus_from_rows([
            ("1", "D1", "", "alpha common"),
            ("2", "D2", "", "beta common"),
            ("3", "D3", "", "gamma common"),
        ])

    def test_labeled_then_reranked_no_duplicates(self):
        index = build_bm25_index(self.corpus())
        reranker = StubReranker(["D1 #", "D3 #", "D2 #"])
        merged = construct_ranked_docid_list("common", ["D3 #"], index, reranker, k=3)
        assert merged == ["D3 #", "D1 #", "D2 #"]

    def test_empty_labels_gives_reranked_top_k(self):
        index = build_bm25_index(self.corpus())
        reranker = StubReranker(["D2 #", "D1 #", "D3 #"])
        merged = construct_ranked_docid_list("common", [], index, reranker, k=2)
        assert merged == ["D2 #", "D1 #"]

    def test_labeled_covering_k_truncates(self):
        index = build_bm25_index(self.corpus())
        reranker = StubReranker([])
        merged = construct_ranked_docid_list("common", ["D2 #", "D1 #", "D3 #"],
                                             index, reranker, k=2)
        assert merged == ["D2 #", "D1 #"]

    def test_query_is_split_once_for_both_rankers(self, monkeypatch):
        corpus = self.corpus()
        index = build_bm25_index(corpus)
        splits, offered = [], []

        class RecordingReranker(LexicalOverlapReranker):
            def rerank(self, query, candidates):
                offered.append(query)
                return super().rerank(query, candidates)

        def counting_split(text):
            splits.append(text)
            return split_words(text)

        monkeypatch.setattr(sys.modules["docidlm.corpus"], "split_words", counting_split)
        merged = construct_ranked_docid_list("common beta", [], index, RecordingReranker(corpus), k=2)
        assert merged == ["D2 #", "D1 #"]
        assert splits == ["common beta"]
        assert offered == [[corpus.words.term_id["common"], corpus.words.term_id["beta"]]]

    def test_unknown_labeled_docid_is_an_error(self):
        index = build_bm25_index(self.corpus())
        with pytest.raises(UnknownDocIdError):
            construct_ranked_docid_list("q", ["nope #"], index, StubReranker([]), k=3)

    def test_randomized_merge_properties(self):
        rng = random.Random(89)
        for _ in range(200):
            corpus = random_corpus(rng, rng.randint(2, 25))
            index = build_bm25_index(corpus)
            reranker = LexicalOverlapReranker(corpus)
            doc_ids = sorted(corpus.documents)
            labeled = rng.sample(doc_ids, rng.randint(0, min(4, len(doc_ids))))
            k = rng.randint(max(1, len(labeled)), 10)
            query = " ".join(rng.choices(["alpha", "beta", "kappa", "ant"], k=3))
            merged = construct_ranked_docid_list(query, labeled, index, reranker, k)
            assert len(merged) == len(set(merged))
            assert merged[: len(labeled)] == labeled
            assert len(merged) <= k
            assert all(d in corpus for d in merged)


class TestRetrievalExample:
    def test_single_docid_target(self):
        ex = make_retrieval_example("who", ["a # x"])
        assert ex.target == (DOCID_OPEN, "a # x", DOCID_CLOSE)
        assert layout_text(ex.target) == "<docid> a # x </docid>"
        assert ex.input == "retrieve: who"
        assert ex.task is Task.RETRIEVAL

    def test_two_docids_in_order(self):
        ex = make_retrieval_example("who", ["a # x", "b # y"])
        assert ex.target == (DOCID_OPEN, "a # x", DOCID_CLOSE, DOCID_OPEN, "b # y", DOCID_CLOSE)
        assert layout_text(ex.target) == "<docid> a # x </docid> <docid> b # y </docid>"

    def test_target_round_trips_through_parser(self):
        rng = random.Random(97)
        corpus = random_corpus(rng, 15)
        ids = sorted(corpus.documents)
        for _ in range(50):
            chosen = rng.sample(ids, rng.randint(1, 5))
            assert docids_of(docid_list_target(chosen)) == chosen


class TestRagExamples:
    def docs(self):
        corpus = corpus_from_rows([
            ("1", "t1", "s", "first fact here. second fact there."),
            ("2", "t2", "s", "third fact elsewhere."),
        ])
        return [corpus.get("t1 # s"), corpus.get("t2 # s")]

    def test_tau_zero_never_noised(self):
        rng = random.Random(0)
        for _ in range(50):
            ref, ans = make_rag_examples("q", self.docs(), "gold ref", "gold ans",
                                         tau=0.0, rng=rng)
            assert not ans.noise_flag and not ref.noise_flag
            assert ans.input[-3:] == (REF_OPEN, "gold ref", REF_CLOSE)
            assert ans.input[:-3] == ref.input == ("rag: q", *map(render_document_text, self.docs()))

    def test_tau_one_always_noised_from_sentences(self):
        rng = random.Random(1)
        sentences = {s for d in self.docs() for s in d.sentences}
        for _ in range(50):
            ref, ans = make_rag_examples("q", self.docs(), "gold ref", "gold ans",
                                         tau=1.0, rng=rng)
            assert ans.noise_flag
            assert (ans.input[-3], ans.input[-1]) == (REF_OPEN, REF_CLOSE)
            assert ans.input[-2] in sentences
        assert ref.target == "gold ref"

    def test_reference_example_always_clean(self):
        rng = random.Random(2)
        ref, ans = make_rag_examples("q", self.docs(), "gold ref", "gold ans",
                                     tau=1.0, rng=rng)
        assert ref.task is Task.RAG_REFERENCE and ref.target == "gold ref"
        assert ans.task is Task.RAG_ANSWER and ans.target == "gold ans"

    def test_seeded_determinism(self):
        flags1 = [make_rag_examples("q", self.docs(), "r", "a", 0.5, random.Random(5))[1].noise_flag
                  for _ in range(20)]
        flags2 = [make_rag_examples("q", self.docs(), "r", "a", 0.5, random.Random(5))[1].noise_flag
                  for _ in range(20)]
        assert flags1 == flags2

    def test_no_sentences_with_positive_tau_is_an_error(self):
        with pytest.raises(ValueError):
            make_rag_examples("q", [], "r", "a", tau=0.5, rng=random.Random(0))

    def test_tau_out_of_range(self):
        with pytest.raises(ValueError):
            make_rag_examples("q", self.docs(), "r", "a", tau=1.5, rng=random.Random(0))


class TestDocIdUnderstanding:
    def test_one_sentence_summary_is_that_sentence(self):
        corpus = corpus_from_rows([("1", "t", "s", "only sentence here."),
                                   ("2", "u", "s", "another doc body.")])
        index = build_bm25_index(corpus)
        examples = make_docid_understanding_examples(corpus, index, 2, random.Random(3))
        recite = [e for e in examples if e.task is Task.AUX_DOCID2SUMMARY
                  and e.input == "recite: t # s"]
        assert recite and recite[0].target == "only sentence here."

    def test_pseudo_query_target_leads_with_source(self):
        # unique marker words tie each pseudo query back to its source document
        corpus = corpus_from_rows([
            (str(i), f"title{i}", "s", f"marker{i} words appear. more marker{i} text.")
            for i in range(6)
        ])
        index = build_bm25_index(corpus)
        examples = make_docid_understanding_examples(corpus, index, 6, random.Random(7))
        checked = 0
        for ex in examples:
            if ex.task is not Task.AUX_QUERY2DOCIDS:
                continue
            marker = next(w for w in ex.input.split() if w.startswith("marker"))
            source = f"title{marker[len('marker'):]} # s"
            assert docids_of(ex.target)[0] == source
            checked += 1
        assert checked == 6

    def test_pseudo_query_first_docid_is_source_two_doc_case(self):
        corpus = corpus_from_rows([
            ("1", "alpha", "s", "unique alpha words."),
            ("2", "beta", "s", "unique beta words."),
        ])
        index = build_bm25_index(corpus)
        examples = make_docid_understanding_examples(corpus, index, 2, random.Random(11))
        by_task = {}
        for ex in examples:
            by_task.setdefault(ex.task, []).append(ex)
        for ex in by_task[Task.AUX_QUERY2DOCIDS]:
            first = docids_of(ex.target)[0]
            # the sampled sentence names its own title, so the source leads
            assert first in ("alpha # s", "beta # s")
        for ex in by_task[Task.AUX_SUMMARY2DOCIDS]:
            docids = docids_of(ex.target)
            assert len(docids) == len(set(docids))

    def test_related_on_two_doc_corpus_is_the_other(self):
        corpus = corpus_from_rows([
            ("1", "alpha", "s", "shared words here."),
            ("2", "beta", "s", "shared words there."),
        ])
        index = build_bm25_index(corpus)
        examples = make_docid_understanding_examples(corpus, index, 2, random.Random(13))
        related = {e.input: docids_of(e.target)
                   for e in examples if e.task is Task.AUX_DOCID2RELATED}
        assert related["related: alpha # s"] == ["beta # s"]
        assert related["related: beta # s"] == ["alpha # s"]

    def test_stopwords_removed_from_pseudo_queries(self):
        corpus = corpus_from_rows([
            ("1", "topic", "s", "the cat sat on the mat."),
            ("2", "other", "s", "dogs bark at night."),
        ])
        index = build_bm25_index(corpus)
        examples = make_docid_understanding_examples(corpus, index, 2, random.Random(17))
        for ex in examples:
            if ex.task is Task.AUX_QUERY2DOCIDS and "cat" in ex.input:
                assert "the" not in ex.input.split()
                assert "on" not in ex.input.split()

    def test_empty_body_document_is_skipped_by_every_task(self, caplog):
        corpus = corpus_from_rows([
            ("1", "alpha", "s", "shared words here."),
            ("2", "beta", "s", "shared words there."),
            ("3", "vacant", "void", ""),
        ])
        index = build_bm25_index(corpus)
        with caplog.at_level(logging.WARNING, logger="docidlm.training"):
            examples = make_docid_understanding_examples(corpus, index, len(corpus), random.Random(5))
        assert caplog.messages == [
            "skipping vacant # void for pseudo-query task: no sentences",
            "skipping vacant # void for summary task: no sentences",
            "skipping vacant # void for recite task: no sentences",
            "skipping vacant # void for related task: no neighbors",
        ]
        assert Counter(e.task for e in examples) == {
            Task.AUX_QUERY2DOCIDS: 2, Task.AUX_SUMMARY2DOCIDS: 2,
            Task.AUX_DOCID2SUMMARY: 2, Task.AUX_DOCID2RELATED: 2,
        }
        assert not any("vacant" in layout_text(e.input) + layout_text(e.target) for e in examples)

    def test_all_ranked_targets_round_trip(self):
        rng = random.Random(19)
        corpus = random_corpus(rng, 12)
        index = build_bm25_index(corpus)
        for ex in make_docid_understanding_examples(corpus, index, 6, rng):
            if ex.task in (Task.AUX_QUERY2DOCIDS, Task.AUX_SUMMARY2DOCIDS,
                           Task.AUX_DOCID2RELATED):
                docids = docids_of(ex.target)
                assert len(docids) == len(set(docids))
                assert all(d in corpus for d in docids)


def test_stopword_list_loads_fixed_file():
    words = stopwords()
    assert 100 <= len(words) <= 150
    assert {"the", "a", "an", "of"} <= words


def test_extract_reference_prefers_answer_overlap():
    corpus = corpus_from_rows([
        ("1", "t", "s", "nothing relevant here. paris is the capital of france. filler.")
    ])
    doc = corpus.get("t # s")
    assert extract_reference([doc], "Paris") == "paris is the capital of france."
    assert extract_reference([], "Paris") == ""


class TestLosses:
    def test_uniform_lm_length_times_log_v(self):
        vocab = tiny_vocab_of_size(10)
        lm = UniformLm(vocab)
        example = TrainingExample(Task.CLOSED_BOOK, "t0", "t1 t2 t3")
        # target tokenizes to 3 ids plus EOS = 4 tokens
        assert sequence_loss(lm, example) == pytest.approx(4 * math.log(10), abs=1e-9)

    def test_loss_positive(self):
        rng = random.Random(23)
        corpus = random_corpus(rng, 5)
        vocab = build_vocabulary(corpus, ["q"])
        lm = train_ngram(vocab, [encode(vocab, d.body) for d in corpus.documents.values()])
        example = TrainingExample(Task.CLOSED_BOOK, "q", next(iter(corpus.documents.values())).body)
        assert sequence_loss(lm, example) > 0

    def test_memorized_pair_beats_uniform(self):
        vocab = build_vocabulary(None, ["answer: q", "yes"])
        example = TrainingExample(Task.CLOSED_BOOK, "answer: q", "yes")
        lm = train_ngram(vocab, [render_example_tokens(vocab, example)] * 4, order=3, alpha=0.1)
        uniform_nll = sequence_loss(UniformLm(vocab), example)
        assert sequence_loss(lm, example) < uniform_nll

    def test_empty_target_rejected(self):
        with pytest.raises(ValueError):
            sequence_loss(UniformLm(tiny_vocab_of_size(5)), TrainingExample(Task.CLOSED_BOOK, "x", "  "))

    def _batch(self):
        return [
            TrainingExample(Task.RETRIEVAL, "retrieve: q", (DOCID_OPEN, "t1", DOCID_CLOSE)),
            TrainingExample(Task.CLOSED_BOOK, "answer: q", "t2"),
            TrainingExample(Task.RAG_REFERENCE, "rag: q", "t3"),
            TrainingExample(Task.RAG_ANSWER, ("rag: q", REF_OPEN, "t3", REF_CLOSE), "t2"),
            TrainingExample(Task.RAG_ANSWER, ("rag: q", REF_OPEN, "t4", REF_CLOSE), "t2",
                            noise_flag=True),
            TrainingExample(Task.AUX_DOCID2SUMMARY, "recite: t1", "t3 t4"),
        ]

    def test_rag_additivity_exact(self):
        lm = UniformLm(tiny_vocab_of_size(9))
        breakdown = combined_loss(lm, self._batch())
        assert breakdown.l_rag == breakdown.l_ref + breakdown.l_ans

    def test_combined_linear_in_lambda(self):
        lm = UniformLm(tiny_vocab_of_size(9))
        base = combined_loss(lm, self._batch())
        assert base.combined == pytest.approx(
            base.l_rank + base.l_gen + base.l_rag + base.l_aux, abs=1e-12)
        only_rank = combined_loss(lm, self._batch(), lambdas=(1, 0, 0, 0))
        assert only_rank.combined == only_rank.l_rank
        weighted = combined_loss(lm, self._batch(), lambdas=(2, 0.5, 3, 0.25))
        assert weighted.combined == pytest.approx(
            2 * weighted.l_rank + 0.5 * weighted.l_gen
            + 3 * weighted.l_rag + 0.25 * weighted.l_aux, abs=1e-12)

    def test_noise_term_weighted_by_tau(self):
        lm = UniformLm(tiny_vocab_of_size(9))
        noised = TrainingExample(Task.RAG_ANSWER, "rag: q", "t2", noise_flag=True)
        clean = TrainingExample(Task.RAG_ANSWER, "rag: q", "t2")
        tau = 0.3
        breakdown = combined_loss(lm, [clean, noised], tau=tau)
        clean_nll = sequence_loss(lm, clean)
        noised_nll = sequence_loss(lm, noised)
        assert breakdown.l_ans == pytest.approx(clean_nll + tau * noised_nll, abs=1e-12)

    def test_negative_lambda_rejected(self):
        lm = UniformLm(tiny_vocab_of_size(9))
        with pytest.raises(ValueError):
            combined_loss(lm, [], lambdas=(-1, 0, 0, 0))


class TestRendering:
    def test_closed_book_render_shape(self):
        vocab = build_vocabulary(None, ["answer: q", "yes"])
        tokens = render_example_tokens(vocab, TrainingExample(Task.CLOSED_BOOK, "answer: q", "yes"))
        assert tokens == encode(vocab, "answer: q") + [ANSWER_OPEN] + encode(vocab, "yes") + [EOS]

    def test_reference_render_wrapped_in_span(self):
        vocab = build_vocabulary(None, ["rag: q", "ref text"])
        tokens = render_example_tokens(vocab, TrainingExample(Task.RAG_REFERENCE, "rag: q", "ref text"))
        assert tokens[-1] == REF_CLOSE
        assert REF_OPEN in tokens

    def test_docid_list_render_plain(self):
        vocab = build_vocabulary(None, ["retrieve: q", "a # x"])
        ex = make_retrieval_example("q", ["a # x"])
        tokens = render_example_tokens(vocab, ex)
        a, sharp, x = encode(vocab, "a # x")
        assert tokens == encode(vocab, ex.input) + [DOCID_OPEN, a, sharp, x, DOCID_CLOSE, EOS]

    def test_answer_render_inserts_the_reference_span(self):
        vocab = build_vocabulary(None, ["rag: q", "r", "yes"])
        ex = TrainingExample(Task.RAG_ANSWER, ("rag: q", REF_OPEN, "r", REF_CLOSE), "yes")
        rag, colon, q, r, yes = encode(vocab, "rag: q r yes")
        assert render_example_tokens(vocab, ex) == [rag, colon, q, REF_OPEN, r, REF_CLOSE,
                                                    ANSWER_OPEN, yes, EOS]


@pytest.mark.parametrize("seed", range(3))
def test_reference_lm_tables_equal_a_fit_on_encoded_bodies(seed):
    rng = random.Random(seed)
    corpus = random_text_corpus(rng, 40)
    doc_ids = sorted(corpus.documents)
    examples = [make_retrieval_example(random_text(rng), rng.sample(doc_ids, 3)) for _ in range(5)]
    full = build_vocabulary(corpus, ["retrieve:"])
    # a vocabulary over half the documents maps the other half's new words to UNK
    half = build_vocabulary(corpus_from_rows([
        (str(i), doc.title, doc.section, doc.body)
        for i, doc in enumerate(list(corpus.documents.values())[::2])]), ["retrieve:"])
    assert len(half) < len(full)
    for vocab in (full, half):
        lm = build_reference_lm(corpus, vocab, examples, order=3)
        texts = [encode(vocab, doc.body) for doc in corpus.documents.values()]
        texts += [render_example_tokens(vocab, ex) for ex in examples]
        oracle = train_ngram(vocab, texts, order=3)
        assert len(lm._tables) == len(oracle._tables) == 3
        for table, expected in zip(lm._tables, oracle._tables):
            assert len(table) == len(expected) == 5
            for array, want in zip(table, expected):
                assert array.dtype == want.dtype and array.tobytes() == want.tobytes()


def test_one_split_per_document_piece_per_build(monkeypatch):
    # every corpus-wide stage reads the corpus word array; no stage splits a
    # document's title, section or body string again. Pieces are told by
    # identity: the summary task's query joins the first two sentences into a
    # new string, which is query text, and here equals the two-sentence body.
    engine = Engine(RunConfig(corpus=str(DEMO_DATA / "corpus.jsonl"),
                              gold=str(DEMO_DATA / "gold.jsonl")))
    pieces = [piece for doc in engine.corpus.documents.values()
              for piece in (doc.title, doc.section, doc.body)]
    calls = Counter()

    def counting_split(text):
        calls.update(i for i, piece in enumerate(pieces) if text is piece)
        return split_words(text)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "docidlm" and hasattr(module, "split_words"):
            monkeypatch.setattr(module, "split_words", counting_split)
    engine.vocab, engine.bm25, engine.examples, engine.lm
    assert calls == Counter(range(len(pieces)))


def test_bm25_memory_per_posting():
    # retained: an int32 document number and frequency per posting, plus
    # per-term offsets and per-document norms; transient: above the word
    # array, the int64 sort keys and what the runs need, about 10 bytes per
    # word (the per-posting Python lists of the dict build took 17-21)
    corpus, _ = bench_corpus(2000, 40, 4, 2000, 2000, seed=5)
    words = len(corpus.words.ids)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        index = build_bm25_index(corpus)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    postings = len(index.docs)
    assert postings > 50_000
    assert (retained - before) / postings <= 12
    assert (peak - retained) / words <= 14


def test_example_record_round_trip():
    # the traindata strings are the layouts written as text
    examples = Engine(RunConfig(corpus=str(DEMO_DATA / "corpus.jsonl"),
                                gold=str(DEMO_DATA / "gold.jsonl"))).examples
    assert [example_record(ex) for ex in examples] == read_jsonl_records(GOLDEN / "traindata.jsonl")
    assert any(isinstance(ex.target, tuple) for ex in examples)
    ex = TrainingExample(Task.RAG_ANSWER, "in", "out", noise_flag=True)
    assert example_record(ex) == {"task": "rag_answer", "input": "in", "target": "out",
                                  "noise_flag": True}
