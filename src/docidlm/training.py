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
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Protocol, Sequence

import numpy as np

from .corpus import Corpus, Document, UnknownDocIdError
from .decoder import (ANSWER_PREFIX, RAG_PREFIX, RECITE_PREFIX, RELATED_PREFIX, RETRIEVE_PREFIX,
                      render_document_text, score_sequence)
from .lm import LmScorer, NgramLm, train_ngram
from .tokens import ANSWER_OPEN, EOS, REF_CLOSE, REF_OPEN, Vocabulary, encode, split_words

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
    """Tagged (task, input, target) pair, the currency of training and loss."""

    task: Task
    input: str
    target: str
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
        return {
            "l_rank": self.l_rank,
            "l_gen": self.l_gen,
            "l_ref": self.l_ref,
            "l_ans": self.l_ans,
            "l_rag": self.l_rag,
            "l_aux": self.l_aux,
            "combined": self.combined,
        }


@lru_cache(maxsize=1)
def stopwords() -> frozenset[str]:
    """The fixed function-word list shipped with the package."""
    text = importlib.resources.files("docidlm").joinpath("data/stopwords.txt").read_text("utf-8")
    return frozenset(w for w in text.split() if w)


# ---------------------------------------------------------------------------
# BM25 index and retrieval


def _doc_terms(doc: Document) -> list[str]:
    return split_words(doc.title) + split_words(doc.section) + split_words(doc.body)


class Bm25Index:
    """Inverted index over title+section+body with classic BM25 scoring.

    Documents are numbered by their position in ``doc_ids``, the sorted
    DocIDs. A term's postings are two aligned int64 arrays, the ascending
    document numbers holding it and its frequency in each; ``norm`` holds
    each document's length normalization ``k1 * (1 - b + b * dl / avgdl)``.
    """

    def __init__(self, corpus: Corpus, k1: float = DEFAULT_BM25_K1, b: float = DEFAULT_BM25_B):
        self.corpus = corpus
        self.k1 = k1
        self.b = b
        self.doc_ids = sorted(corpus.documents)
        lengths = np.zeros(len(self.doc_ids), dtype=np.int64)
        postings: dict[str, tuple[list[int], list[int]]] = {}
        for i, doc_id in enumerate(self.doc_ids):
            terms = _doc_terms(corpus.documents[doc_id])
            lengths[i] = len(terms)
            for term, tf in Counter(terms).items():
                docs, tfs = postings.setdefault(term, ([], []))
                docs.append(i)
                tfs.append(tf)
        self.postings = {
            term: (np.array(docs, dtype=np.int64), np.array(tfs, dtype=np.int64))
            for term, (docs, tfs) in postings.items()
        }
        n = len(self.doc_ids)
        self.avgdl = (int(lengths.sum()) / n) if n else 0.0
        self.norm = k1 * (1 - b + b * lengths / self.avgdl) if self.avgdl else np.zeros(n)

    @property
    def document_count(self) -> int:
        return len(self.doc_ids)

    def idf(self, term: str) -> float:
        n_t = len(self.postings[term][0]) if term in self.postings else 0
        n = self.document_count
        return math.log((n - n_t + 0.5) / (n_t + 0.5) + 1.0)


def build_bm25_index(corpus: Corpus, k1: float = DEFAULT_BM25_K1, b: float = DEFAULT_BM25_B) -> Bm25Index:
    if len(corpus) == 0:
        raise ValueError("cannot index an empty corpus")
    return Bm25Index(corpus, k1=k1, b=b)


def bm25_retrieve(index: Bm25Index, query: str, k: int) -> list[tuple[str, float]]:
    """Top-k documents by BM25; duplicate query terms accumulate per instance.

    Ties break by DocID lexicographic order.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    scores = np.zeros(index.document_count)
    touched = np.zeros(index.document_count, dtype=bool)
    for term in split_words(query):
        if term not in index.postings:
            continue
        docs, tfs = index.postings[term]
        scores[docs] += index.idf(term) * tfs * (index.k1 + 1) / (tfs + index.norm[docs])
        touched[docs] = True
    candidates = np.flatnonzero(touched)
    ranked = candidates[np.lexsort((candidates, -scores[candidates]))[:k]]
    return [(index.doc_ids[i], score) for i, score in zip(ranked.tolist(), scores[ranked].tolist())]


class Reranker(Protocol):
    """Reorders candidate DocIDs for a query; slot for a stronger model."""

    def rerank(self, query: str, candidates: Sequence[str]) -> list[str]: ...


class LexicalOverlapReranker:
    """Orders candidates by distinct-token overlap with the query.

    Ties keep the incoming (BM25) order, so the reranker is a stable refinement.
    """

    def __init__(self, corpus: Corpus):
        self.corpus = corpus
        self._term_sets: dict[str, frozenset[str]] = {}

    def _terms(self, doc_id: str) -> frozenset[str]:
        cached = self._term_sets.get(doc_id)
        if cached is None:
            cached = frozenset(_doc_terms(self.corpus.get(doc_id)))
            self._term_sets[doc_id] = cached
        return cached

    def rerank(self, query: str, candidates: Sequence[str]) -> list[str]:
        query_terms = set(split_words(query))
        return sorted(candidates, key=lambda d: -len(query_terms & self._terms(d)))


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
    for doc_id in labeled:
        if doc_id not in index.corpus:
            raise UnknownDocIdError(f"labeled DocID not in corpus: {doc_id!r}")
    merged = list(labeled)[:k]
    if len(merged) < k:
        seen = set(merged)
        candidates = [d for d, _ in bm25_retrieve(index, query, DEFAULT_RERANK_CANDIDATES)]
        for doc_id in reranker.rerank(query, candidates):
            if doc_id not in seen:
                merged.append(doc_id)
                seen.add(doc_id)
                if len(merged) == k:
                    break
    return merged


# ---------------------------------------------------------------------------
# Example construction


def docid_list_target(docids: Sequence[str]) -> str:
    """Render an ordered DocID list as one natural-language target string."""
    return " ".join(f"<docid> {doc_id} </docid>" for doc_id in docids)


def parse_docid_list_target(target: str) -> list[str]:
    """Inverse of :func:`docid_list_target`; raises on malformed strings."""
    chunks = target.split()
    docids: list[str] = []
    i = 0
    while i < len(chunks):
        if chunks[i] != "<docid>":
            raise ValueError(f"expected '<docid>' at chunk {i}, got {chunks[i]!r}")
        j = i + 1
        while j < len(chunks) and chunks[j] != "</docid>":
            j += 1
        if j == len(chunks):
            raise ValueError("unterminated DocID span")
        if j == i + 1:
            raise ValueError("empty DocID span")
        docids.append(" ".join(chunks[i + 1 : j]))
        i = j + 1
    return docids


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
        raise ValueError("tau must lie in [0, 1]")
    rng = rng or random.Random(0)
    sentence_pool = [s for doc in context_docs for s in doc.sentences]
    if tau > 0 and not sentence_pool:
        raise ValueError("noise sampling needs at least one extractable sentence")
    rendered = f"{RAG_PREFIX} {query} " + " ".join(render_document_text(d) for d in context_docs)

    noised = tau > 0 and rng.random() < tau
    reference_used = rng.choice(sentence_pool) if noised else gold_reference
    return [
        TrainingExample(task=Task.RAG_REFERENCE, input=rendered, target=gold_reference),
        TrainingExample(
            task=Task.RAG_ANSWER,
            input=f"{rendered} <ref> {reference_used} </ref>",
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
    k: int = 10,
) -> list[TrainingExample]:
    """Four unsupervised DocID-understanding tasks over sampled documents.

    (a) pseudo query (a random sentence minus stopwords) -> ranked DocID list
    seeded with the source document; (b) leading-sentence summary -> the same
    list construction; (c) DocID -> that summary; (d) DocID -> reranked BM25
    neighbors of the body, excluding the document itself.
    """
    if len(corpus) == 0:
        raise ValueError("corpus is empty")
    reranker = reranker or LexicalOverlapReranker(corpus)
    doc_ids = sorted(corpus.documents)
    stop = stopwords()
    examples: list[TrainingExample] = []

    def sample_docs() -> list[Document]:
        chosen = rng.sample(doc_ids, min(per_task_count, len(doc_ids)))
        return [corpus.documents[d] for d in chosen]

    def ranked_list(query: str, doc_id: str) -> str:
        return docid_list_target(construct_ranked_docid_list(query, [doc_id], index, reranker, k))

    for doc in sample_docs():  # (a) pseudo query -> DocIDs
        if not doc.sentences:
            logger.warning("skipping %s for pseudo-query task: no sentences", doc.doc_id)
            continue
        sentence = rng.choice(doc.sentences)
        words = [w for w in split_words(sentence) if w not in stop]
        pseudo_query = " ".join(words) if words else " ".join(split_words(sentence))
        examples.append(TrainingExample(
            task=Task.AUX_QUERY2DOCIDS,
            input=f"{RETRIEVE_PREFIX} {pseudo_query}",
            target=ranked_list(pseudo_query, doc.doc_id),
        ))

    for doc in sample_docs():  # (b) summary -> DocIDs
        if not doc.sentences:
            logger.warning("skipping %s for summary task: no sentences", doc.doc_id)
            continue
        summary = document_summary(doc)
        examples.append(TrainingExample(
            task=Task.AUX_SUMMARY2DOCIDS,
            input=f"{RETRIEVE_PREFIX} {summary}",
            target=ranked_list(summary, doc.doc_id),
        ))

    for doc in sample_docs():  # (c) DocID -> summary
        if not doc.sentences:
            logger.warning("skipping %s for recite task: no sentences", doc.doc_id)
            continue
        examples.append(TrainingExample(
            task=Task.AUX_DOCID2SUMMARY,
            input=f"{RECITE_PREFIX} {doc.doc_id}",
            target=document_summary(doc),
        ))

    for doc in sample_docs():  # (d) DocID -> related DocIDs
        candidates = [
            d for d, _ in bm25_retrieve(index, doc.body, DEFAULT_RERANK_CANDIDATES)
            if d != doc.doc_id
        ]
        related = reranker.rerank(doc.body, candidates)[:k]
        if not related:
            logger.warning("skipping %s for related task: no neighbors", doc.doc_id)
            continue
        examples.append(TrainingExample(
            task=Task.AUX_DOCID2RELATED,
            input=f"{RELATED_PREFIX} {doc.doc_id}",
            target=docid_list_target(related),
        ))

    return examples


# ---------------------------------------------------------------------------
# Losses


def sequence_loss(lm: LmScorer, example: TrainingExample) -> float:
    """Teacher-forced negative log-likelihood of target followed by EOS."""
    if not example.target.strip():
        raise ValueError("example target is empty")
    context = encode(lm.vocab, example.input)
    target = encode(lm.vocab, example.target) + [EOS]
    return -score_sequence(lm, context, target)


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
    if any(weight < 0 for weight in lambdas):
        raise ValueError("lambda weights must be non-negative")
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
    context = encode(vocab, example.input)
    target = encode(vocab, example.target)
    if example.task in (Task.CLOSED_BOOK, Task.RAG_ANSWER):
        return context + [ANSWER_OPEN] + target + [EOS]
    if example.task is Task.RAG_REFERENCE:
        return context + [REF_OPEN] + target + [REF_CLOSE]
    return context + target + [EOS]


def build_reference_lm(
    corpus: Corpus,
    vocab: Vocabulary,
    examples: Sequence[TrainingExample],
    order: int = 3,
    alpha: float = 0.1,
) -> NgramLm:
    """Fit the reference n-gram scorer on corpus bodies plus rendered examples."""
    texts = [encode(vocab, doc.body) for doc in corpus.documents.values()]
    texts.extend(render_example_tokens(vocab, ex) for ex in examples)
    return train_ngram(vocab, texts, order=order, alpha=alpha)


def example_record(example: TrainingExample) -> dict:
    return {
        "task": example.task.value,
        "input": example.input,
        "target": example.target,
        "noise_flag": example.noise_flag,
    }


def parse_example_record(record: dict) -> TrainingExample:
    return TrainingExample(
        task=Task(record["task"]),
        input=record["input"],
        target=record["target"],
        noise_flag=bool(record.get("noise_flag", False)),
    )
