"""Training-data construction and teacher-forced loss evaluation.

Supervised targets come from a BM25-retrieve-then-rerank pipeline that
appends extra relevant DocIDs behind the labeled ones, four unsupervised
DocID-understanding tasks provide extractive auxiliary pairs, and the loss
suite scores any batch of examples against any LmScorer.
"""

from __future__ import annotations

import importlib.resources
import logging
import math
import random
from dataclasses import asdict, dataclass
from enum import Enum
from functools import lru_cache
from typing import Protocol, Sequence

import numpy as np

from .corpus import Corpus, Document, UnknownDocIdError
from .decoder import (ANSWER_PREFIX, DEFAULT_K_RETRIEVE, RAG_PREFIX, RECITE_PREFIX, RELATED_PREFIX,
                      RETRIEVE_PREFIX, Layout, layout_text, layout_tokens, render_document_text,
                      score_sequence)
from .lm import DEFAULT_ALPHA, DEFAULT_ORDER, LmScorer, NgramLm, train_ngram
from .tokens import (ANSWER_OPEN, DOCID_CLOSE, DOCID_OPEN, EOS, REF_CLOSE, REF_OPEN, Vocabulary,
                     split_words)

logger = logging.getLogger(__name__)

DEFAULT_BM25_K1 = 1.2
DEFAULT_BM25_B = 0.75
DEFAULT_RERANK_CANDIDATES = 100
DEFAULT_NOISE_TAU = 0.2
DEFAULT_LAMBDAS = (1.0, 1.0, 1.0, 1.0)


class Task(Enum):
    RETRIEVAL = "retrieval"
    CLOSED_BOOK = "closed_book"
    RAG_REFERENCE = "rag_reference"
    RAG_ANSWER = "rag_answer"
    AUX_QUERY2DOCIDS = "aux_query_to_docids"
    AUX_SUMMARY2DOCIDS = "aux_summary_to_docids"
    AUX_DOCID2SUMMARY = "aux_docid_to_summary"
    AUX_DOCID2RELATED = "aux_docid_to_related"


@dataclass(frozen=True)
class TrainingExample:
    """Tagged (task, input, target) pair, the currency of training and loss.

    Input and target are layouts (see :func:`docidlm.decoder.layout_tokens`).
    """

    task: Task
    input: Layout
    target: Layout
    noise_flag: bool = False


@dataclass(frozen=True)
class LossBreakdown:
    l_rank: float
    l_gen: float
    l_ref: float
    l_ans: float
    l_rag: float
    l_aux: float
    combined: float

    def as_dict(self) -> dict:
        return asdict(self)


@lru_cache(maxsize=1)
def stopwords() -> frozenset[str]:
    """The fixed function-word list shipped with the package."""
    text = importlib.resources.files("docidlm").joinpath("data/stopwords.txt").read_text("utf-8")
    return frozenset(w for w in text.split() if w)


# ---------------------------------------------------------------------------
# BM25 index and retrieval


class Bm25Index:
    """Inverted index over title+section+body with classic BM25 scoring.

    Documents are numbered by their position in ``doc_ids``, the sorted
    DocIDs. Term id ``t``'s postings are ``docs[starts[t]:starts[t + 1]]``, the
    ascending numbers of the documents holding it, and its frequency in each in
    ``tfs``; ``norm`` holds each document's ``k1 * (1 - b + b * dl / avgdl)``.
    """

    def __init__(self, corpus: Corpus, k1: float = DEFAULT_BM25_K1, b: float = DEFAULT_BM25_B):
        if not (math.isfinite(k1) and k1 >= 0):
            raise ValueError(f"BM25 k1 must be finite and >= 0, not {k1!r}")
        if not 0 <= b <= 1:
            raise ValueError(f"BM25 b must lie in [0, 1], not {b!r}")
        self.corpus = corpus
        self.k1 = k1
        self.b = b
        self.doc_ids = sorted(corpus.documents)
        words, n = corpus.words, len(self.doc_ids)
        by_number = [words.position[doc_id] for doc_id in self.doc_ids]
        number = np.argsort(by_number).astype(np.int32)  # of each document in corpus order
        # one term * n + document number key per word; a run of equal keys is one posting
        keys = np.multiply(words.ids, n, dtype=np.int64)
        keys += np.repeat(number, np.diff(words.starts))
        keys.sort()
        run_ends = np.ones(len(keys) + 1, dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=run_ends[1:-1])
        keys = keys[run_ends[:-1]]
        bounds = np.flatnonzero(run_ends)
        # a difference below 2**31 survives int32 wrap-around of the bounds
        self.tfs = np.subtract(bounds[1:], bounds[:-1], dtype=np.int32)
        del bounds
        self.starts = keys.searchsorted(np.arange(len(words.terms) + 1) * np.int64(n))
        keys %= n
        self.docs = keys.astype(np.int32)
        lengths = np.diff(words.starts)[by_number]
        self.avgdl = (int(lengths.sum()) / n) if n else 0.0
        self.norm = k1 * (1 - b + b * lengths / self.avgdl) if self.avgdl else np.zeros(n)

    @property
    def document_count(self) -> int:
        return len(self.doc_ids)

    def postings(self, term: int) -> tuple[np.ndarray, np.ndarray]:
        """The ascending numbers of the documents holding term id ``term``, and its counts."""
        lo, hi = self.starts[term], self.starts[term + 1]
        return self.docs[lo:hi], self.tfs[lo:hi]

    def idf(self, term: int) -> float:
        """The BM25 idf of term id ``term``."""
        n, n_t = self.document_count, len(self.postings(term)[0])
        return math.log((n - n_t + 0.5) / (n_t + 0.5) + 1.0)


def build_bm25_index(corpus: Corpus, k1: float = DEFAULT_BM25_K1, b: float = DEFAULT_BM25_B) -> Bm25Index:
    if len(corpus) == 0:
        raise ValueError("cannot index an empty corpus")
    return Bm25Index(corpus, k1=k1, b=b)


def bm25_retrieve(index: Bm25Index, query: str | Sequence[int], k: int) -> list[tuple[str, float]]:
    """Top-k documents by BM25; duplicate query terms accumulate per instance.

    ``query`` is text, or the corpus term ids of its words. Ties break by
    DocID lexicographic order.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    scores = np.zeros(index.document_count)
    touched = np.zeros(index.document_count, dtype=bool)
    for term in index.corpus.words.query_terms(query):
        docs, tfs = index.postings(term)
        idf = index.idf(term)
        scores[docs] += idf * tfs * (index.k1 + 1) / (tfs + index.norm[docs])
        touched[docs] = True
    candidates = np.flatnonzero(touched)
    ranked = candidates[np.lexsort((candidates, -scores[candidates]))[:k]]
    return [(index.doc_ids[i], score) for i, score in zip(ranked.tolist(), scores[ranked].tolist())]


class Reranker(Protocol):
    """Reorders candidate DocIDs for a query, text or corpus term ids; slot for a stronger model."""

    def rerank(self, query: str | Sequence[int], candidates: Sequence[str]) -> list[str]: ...


class LexicalOverlapReranker:
    """Orders candidates by distinct-token overlap with the query.

    Ties keep the incoming (BM25) order, so the reranker is a stable refinement.
    """

    def __init__(self, corpus: Corpus):
        self.corpus = corpus

    def rerank(self, query: str | Sequence[int], candidates: Sequence[str]) -> list[str]:
        query_terms = set(self.corpus.words.query_terms(query))
        terms = self.corpus.words.document
        return sorted(candidates, key=lambda d: -len(query_terms.intersection(terms(d).tolist())))


def construct_ranked_docid_list(
    query: str,
    labeled: Sequence[str],
    index: Bm25Index,
    reranker: Reranker,
    k: int,
) -> list[str]:
    """Labeled DocIDs first, then reranked retrieval results, deduplicated.

    The labeled entries keep their original order as a prefix of the output;
    retrieved-and-reranked extras fill the remaining slots up to ``k``.
    """
    if k < 1:
        raise ValueError(f"ranked list length k must be >= 1, not {k!r}")
    for doc_id in labeled:
        if doc_id not in index.corpus:
            raise UnknownDocIdError(f"labeled DocID not in corpus: {doc_id!r}")
    merged = list(labeled)[:k]
    if len(merged) < k:
        seen = set(merged)
        terms = index.corpus.words.query_terms(query)  # split once, read by both rankers
        candidates = [d for d, _ in bm25_retrieve(index, terms, DEFAULT_RERANK_CANDIDATES)]
        for doc_id in reranker.rerank(terms, candidates):
            if doc_id not in seen:
                merged.append(doc_id)
                seen.add(doc_id)
                if len(merged) == k:
                    break
    return merged


# ---------------------------------------------------------------------------
# Example construction


def docid_list_target(docids: Sequence[str]) -> Layout:
    """An ordered DocID list as one target layout, each DocID in its span symbols."""
    return tuple(piece for doc_id in docids for piece in (DOCID_OPEN, doc_id, DOCID_CLOSE))


def make_retrieval_example(query: str, docid_list: Sequence[str]) -> TrainingExample:
    return TrainingExample(
        task=Task.RETRIEVAL,
        input=f"{RETRIEVE_PREFIX} {query}",
        target=docid_list_target(docid_list),
    )


def make_closed_book_example(query: str, answer: str) -> TrainingExample:
    return TrainingExample(task=Task.CLOSED_BOOK, input=f"{ANSWER_PREFIX} {query}", target=answer)


def make_rag_examples(
    query: str,
    context_docs: Sequence[Document],
    gold_reference: str,
    gold_answer: str,
    tau: float = DEFAULT_NOISE_TAU,
    rng: random.Random | None = None,
) -> list[TrainingExample]:
    """One reference example and one answer example for a RAG training query.

    With probability ``tau`` the answer example's in-context reference is
    replaced by a uniformly random sentence from the context documents and
    its noise flag is set; the reference example always keeps the gold target.
    """
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must lie in [0, 1], not {tau!r}")
    rng = rng or random.Random(0)
    sentence_pool = [s for doc in context_docs for s in doc.sentences]
    if tau > 0 and not sentence_pool:
        raise ValueError("noise sampling needs at least one extractable sentence")
    rendered = (f"{RAG_PREFIX} {query}", *map(render_document_text, context_docs))

    noised = tau > 0 and rng.random() < tau
    reference_used = rng.choice(sentence_pool) if noised else gold_reference
    return [
        TrainingExample(task=Task.RAG_REFERENCE, input=rendered, target=gold_reference),
        TrainingExample(
            task=Task.RAG_ANSWER,
            input=(*rendered, REF_OPEN, reference_used, REF_CLOSE),
            target=gold_answer,
            noise_flag=noised,
        ),
    ]


def extract_reference(context_docs: Sequence[Document], answer: str) -> str:
    """Extractive stand-in for a gold reference: the sentence sharing the
    most distinct tokens with the answer, earliest on ties."""
    answer_terms = set(split_words(answer))
    best = ""
    best_overlap = -1
    for doc in context_docs:
        for sentence in doc.sentences:
            overlap = len(answer_terms & set(split_words(sentence)))
            if overlap > best_overlap:
                best, best_overlap = sentence, overlap
    return best


def document_summary(doc: Document) -> str:
    return " ".join(doc.sentences[:2])


def make_docid_understanding_examples(
    corpus: Corpus,
    index: Bm25Index,
    per_task_count: int,
    rng: random.Random,
    reranker: Reranker | None = None,
    k: int = DEFAULT_K_RETRIEVE,
) -> list[TrainingExample]:
    """Four unsupervised DocID-understanding tasks over sampled documents.

    (a) pseudo query (a random sentence minus stopwords) -> ranked DocID list
    seeded with the source document; (b) leading-sentence summary -> the same
    list construction; (c) DocID -> that summary; (d) DocID -> reranked BM25
    neighbors of the body, excluding the document itself.
    """
    if per_task_count < 0:
        raise ValueError(f"aux per-task count must be >= 0, not {per_task_count!r}")
    if len(corpus) == 0:
        raise ValueError("corpus is empty")
    reranker = reranker or LexicalOverlapReranker(corpus)
    doc_ids = sorted(corpus.documents)
    stop = stopwords()

    def to_docids(query: str, doc: Document) -> tuple[str, Layout]:
        ranked = construct_ranked_docid_list(query, [doc.doc_id], index, reranker, k)
        return f"{RETRIEVE_PREFIX} {query}", docid_list_target(ranked)

    def pseudo_query(doc: Document) -> tuple[str, Layout] | None:
        if not doc.sentences:
            return None
        sentence = rng.choice(doc.sentences)
        words = [w for w in split_words(sentence) if w not in stop]
        return to_docids(" ".join(words) if words else " ".join(split_words(sentence)), doc)

    def related(doc: Document) -> tuple[str, Layout] | None:
        body = corpus.words.document(doc.doc_id, body_only=True).tolist()
        candidates = [
            d for d, _ in bm25_retrieve(index, body, DEFAULT_RERANK_CANDIDATES) if d != doc.doc_id
        ]
        neighbors = reranker.rerank(body, candidates)[:k]
        return (f"{RELATED_PREFIX} {doc.doc_id}", docid_list_target(neighbors)) if neighbors else None

    # (task, what its skip warning says, document -> (input, target) or None)
    tasks = (
        (Task.AUX_QUERY2DOCIDS, "pseudo-query task: no sentences", pseudo_query),
        (Task.AUX_SUMMARY2DOCIDS, "summary task: no sentences",
         lambda doc: to_docids(document_summary(doc), doc) if doc.sentences else None),
        (Task.AUX_DOCID2SUMMARY, "recite task: no sentences", lambda doc: (
            f"{RECITE_PREFIX} {doc.doc_id}", document_summary(doc)) if doc.sentences else None),
        (Task.AUX_DOCID2RELATED, "related task: no neighbors", related),
    )
    examples: list[TrainingExample] = []
    for task, skip, make_pair in tasks:
        for doc_id in rng.sample(doc_ids, min(per_task_count, len(doc_ids))):
            doc = corpus.documents[doc_id]
            pair = make_pair(doc)
            if pair is None:
                logger.warning("skipping %s for %s", doc.doc_id, skip)
            else:
                examples.append(TrainingExample(task, *pair))
    return examples


# ---------------------------------------------------------------------------
# Losses


def sequence_loss(lm: LmScorer, example: TrainingExample) -> float:
    """Teacher-forced negative log-likelihood of target followed by EOS."""
    target = layout_tokens(lm.vocab, example.target)
    if not target:
        raise ValueError("example target is empty")
    return -score_sequence(lm, layout_tokens(lm.vocab, example.input), target + [EOS])


def combined_loss(
    lm: LmScorer,
    batch: Sequence[TrainingExample],
    lambdas: tuple[float, float, float, float] = DEFAULT_LAMBDAS,
    tau: float = DEFAULT_NOISE_TAU,
) -> LossBreakdown:
    """Multi-task loss over a batch, partitioned by task.

    The answer component adds clean-reference NLL plus ``tau`` times the NLL
    of noise-flagged variants; the RAG component is exactly the reference
    component plus the answer component.
    """
    if not all(math.isfinite(weight) and weight >= 0 for weight in lambdas):
        raise ValueError(f"lambda weights must be finite and non-negative, not {list(lambdas)}")
    l_rank = l_gen = l_ref = l_ans = l_aux = 0.0
    for example in batch:
        nll = sequence_loss(lm, example)
        if example.task is Task.RETRIEVAL:
            l_rank += nll
        elif example.task is Task.CLOSED_BOOK:
            l_gen += nll
        elif example.task is Task.RAG_REFERENCE:
            l_ref += nll
        elif example.task is Task.RAG_ANSWER:
            l_ans += tau * nll if example.noise_flag else nll
        else:
            l_aux += nll
    l_rag = l_ref + l_ans
    combined = (
        lambdas[0] * l_rank + lambdas[1] * l_gen + lambdas[2] * l_rag + lambdas[3] * l_aux
    )
    return LossBreakdown(l_rank, l_gen, l_ref, l_ans, l_rag, l_aux, combined)


# ---------------------------------------------------------------------------
# Rendering examples into reference-LM training sequences


def render_example_tokens(vocab: Vocabulary, example: TrainingExample) -> list[int]:
    """Token sequence a scorer should be fit on so decoding mirrors training.

    Answer-bearing tasks get the answer marker between input and target;
    reference examples are wrapped in the reference span symbols; DocID-list
    targets already carry their own markers.
    """
    context = layout_tokens(vocab, example.input)
    target = layout_tokens(vocab, example.target)
    if example.task in (Task.CLOSED_BOOK, Task.RAG_ANSWER):
        return context + [ANSWER_OPEN] + target + [EOS]
    if example.task is Task.RAG_REFERENCE:
        return context + [REF_OPEN] + target + [REF_CLOSE]
    return context + target + [EOS]


def build_reference_lm(
    corpus: Corpus,
    vocab: Vocabulary,
    examples: Sequence[TrainingExample],
    order: int = DEFAULT_ORDER,
    alpha: float = DEFAULT_ALPHA,
) -> NgramLm:
    """Fit the reference n-gram scorer on corpus bodies plus rendered examples."""
    words = corpus.words
    ids = np.array([vocab.id_of(term) for term in words.terms], dtype=np.int32)[words.ids]
    texts: list[Sequence[int]] = [ids[lo:hi] for lo, hi in zip(words.body_starts, words.starts[1:])]
    texts.extend(render_example_tokens(vocab, ex) for ex in examples)
    return train_ngram(vocab, texts, order=order, alpha=alpha)


def example_record(example: TrainingExample) -> dict:
    """The ``traindata`` record of an example, its layouts written as text."""
    return {
        "task": example.task.value,
        "input": layout_text(example.input),
        "target": layout_text(example.target),
        "noise_flag": example.noise_flag,
    }
