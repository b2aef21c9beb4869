"""Greedy constrained generation for ranked DocID lists, closed-book answers,
and the continuous DocIDs-References-Answer pipeline.

Every decode is one greedy loop over the output-grammar automaton of
:mod:`docidlm.constraints`. A retrieval decode starts from the task-prefixed
query in the list phase: outside a DocID span only opening a new span or
stopping is legal; inside a span the trie dictates the continuations, and
every completed DocID joins the session exclusion set so the list can never
repeat. The RAG decode keeps going in the same session: the retrieved
documents are appended to the context, one reference segment is decoded per
context document, and the answer follows, so the query is processed exactly
once. A pipeline variant rebuilds the context between retrieval and reading,
which is what the per-query cost counters are there to compare.

Ties in the greedy argmax always break toward the lowest token id, which
makes every decode reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .constraints import SILENT_STOP, GrammarError, GrammarState, Phase, Plan, allowed_mask, step
from .corpus import Corpus, Document
from .lm import LmScorer
from .tokens import ANSWER_OPEN, DOCID_CLOSE, DOCID_OPEN, EOS, Vocabulary, decode, encode
from .trie import DocIdTrie, ExclusionSet

RETRIEVE_PREFIX = "retrieve:"
ANSWER_PREFIX = "answer:"
RAG_PREFIX = "rag:"
RECITE_PREFIX = "recite:"
RELATED_PREFIX = "related:"
TASK_PREFIXES = (RETRIEVE_PREFIX, ANSWER_PREFIX, RAG_PREFIX, RECITE_PREFIX, RELATED_PREFIX)

DEFAULT_K_RETRIEVE = 10
DEFAULT_K_CONTEXT = 3
DEFAULT_DOC_BUDGET = 256
MAX_REF_TOKENS = 64
MAX_ANSWER_TOKENS = 64


class DecodeError(RuntimeError):
    """Decoding could not proceed (empty trie, bad arguments)."""


@dataclass
class DecodeCost:
    """Scorer invocations and tokens fed into decoder contexts.

    ``context_tokens`` counts every token ingested into a session context,
    including re-processing when a pipeline decode rebuilds its context.
    """

    scorer_calls: int = 0
    context_tokens: int = 0

    def as_dict(self) -> dict:
        return {"scorer_calls": self.scorer_calls, "context_tokens": self.context_tokens}


@dataclass(frozen=True)
class RankedDocIds:
    """Ordered DocIDs with the summed log-probability of each identifier span."""

    docids: tuple[str, ...]
    per_docid_logprob: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.docids)


@dataclass(frozen=True)
class RagResult:
    docids: RankedDocIds
    context_docids: tuple[str, ...]
    references: tuple[str, ...]
    answer: str
    token_trace: tuple[int, ...]
    decode_cost: DecodeCost
    closed_book_fallback: bool = False


@dataclass(frozen=True)
class ParsedTrace:
    docid_spans: tuple[tuple[int, ...], ...]
    reference_spans: tuple[tuple[int, ...], ...]
    answer_tokens: tuple[int, ...]


def _logsumexp(values: np.ndarray) -> float:
    peak = float(values.max())
    return peak + float(np.log(np.exp(values - peak).sum()))


class _Session:
    """One decode: scorer context, token trace, DocID exclusions and cost meter."""

    def __init__(self, lm: LmScorer, trie: DocIdTrie, prompt: Sequence[int]):
        self.lm = lm
        self.trie = trie
        self.excl = ExclusionSet(trie)
        self.cost = DecodeCost()
        self.context: list[int] = []
        self.trace: list[int] = []
        self.docids: list[str] = []
        self.scores: list[float] = []
        self.ingest(prompt)

    def ingest(self, tokens: Sequence[int]) -> None:
        self.context.extend(tokens)
        self.cost.context_tokens += len(tokens)

    def run(self, state: GrammarState, until: Phase) -> GrammarState:
        """Decode greedily from ``state`` until the automaton reaches ``until``."""
        vocab_size = self.lm.vocab.size
        span_logprob = 0.0
        while state.phase is not until:
            allowed = allowed_mask(state, self.trie, self.excl, vocab_size)
            values = self.lm.next_logprobs(self.context)[allowed]
            self.cost.scorer_calls += 1
            best = int(np.argmax(values))  # first maximum, ids ascending: lowest-id tie-break
            token = int(allowed[best])
            if state.phase is Phase.DOCID:
                if token == DOCID_CLOSE:
                    completed = self.trie.node_at(state.span.inner_prefix).terminal_docid
                    self.excl.add(completed)
                    self.docids.append(completed)
                    self.scores.append(span_logprob)
                    span_logprob = 0.0
                else:  # renormalized over the mask; only DocID span scores use it
                    span_logprob += float(values[best] - _logsumexp(values))
            if token != EOS or state.phase not in SILENT_STOP:
                self.ingest([token])
                self.trace.append(token)
            state = step(state, token)
        return state

    def ranked(self) -> RankedDocIds:
        return RankedDocIds(tuple(self.docids), tuple(self.scores))


def generate_docid_list(lm: LmScorer, trie: DocIdTrie, query: str, k: int) -> RankedDocIds:
    """Constrained greedy decode of up to ``k`` distinct corpus DocIDs."""
    if k < 1:
        raise DecodeError("k must be >= 1")
    if len(trie) == 0:
        raise DecodeError("cannot decode DocIDs over an empty trie")
    session = _Session(lm, trie, encode(lm.vocab, f"{RETRIEVE_PREFIX} {query}"))
    session.run(GrammarState(Phase.LIST, Plan(docids=k)), Phase.REFS)
    return session.ranked()


def generate_closed_book(lm: LmScorer, query: str, max_tokens: int) -> str:
    """Greedy answer decode with no retrieval context.

    DocID and reference structural symbols are masked out (there is no trie
    to honor them); the answer marker, ordinary tokens, and the stop symbol
    stay available. Returned text excludes structural symbols.
    """
    if max_tokens < 1:
        raise DecodeError("max_tokens must be >= 1")
    session = _Session(lm, DocIdTrie(), encode(lm.vocab, f"{ANSWER_PREFIX} {query}"))
    session.run(GrammarState(Phase.CLOSED_BOOK, Plan(answer_tokens=max_tokens)), Phase.DONE)
    return decode(lm.vocab, [t for t in session.trace if t != ANSWER_OPEN])


def render_document_text(doc: Document) -> str:
    """A document as the model reads it: the header ``title # section``, then the body."""
    return f"{doc.title} # {doc.section} {doc.body}"


def render_document_tokens(vocab: Vocabulary, doc: Document, budget: int) -> list[int]:
    """The rendered document, truncated to ``budget`` tokens.

    The body tail is dropped first; the header is only cut when the budget is
    smaller than the header itself.
    """
    return encode(vocab, render_document_text(doc))[: max(0, budget)]


def _generate_rag(
    lm: LmScorer,
    trie: DocIdTrie,
    corpus: Corpus,
    query: str,
    k_retrieve: int,
    k_context: int,
    budget: int,
    max_ref_tokens: int,
    max_answer_tokens: int,
    rebuild_context: bool,
) -> RagResult:
    if not k_retrieve >= k_context >= 1:
        raise DecodeError("need k_retrieve >= k_context >= 1")
    if len(trie) == 0:
        raise DecodeError("cannot decode DocIDs over an empty trie")
    prompt = encode(lm.vocab, f"{RAG_PREFIX} {query}")
    session = _Session(lm, trie, prompt)
    plan = Plan(k_retrieve, k_context, max_ref_tokens, max_answer_tokens)
    state = session.run(GrammarState(Phase.LIST, plan), Phase.REFS)
    context_docids = tuple(session.docids[:k_context])
    if rebuild_context and context_docids:
        session.context = []
        session.ingest(prompt)
    for doc_id in context_docids:
        session.ingest(render_document_tokens(lm.vocab, corpus.get(doc_id), budget))
    session.run(state, Phase.DONE)
    parsed = parse_rag_trace(session.trace)
    return RagResult(
        docids=session.ranked(),
        context_docids=context_docids,
        references=tuple(decode(lm.vocab, span) for span in parsed.reference_spans),
        answer=decode(lm.vocab, parsed.answer_tokens),
        token_trace=tuple(session.trace),
        decode_cost=session.cost,
        closed_book_fallback=not context_docids,
    )


def generate_rag(
    lm: LmScorer,
    trie: DocIdTrie,
    corpus: Corpus,
    query: str,
    k_retrieve: int = DEFAULT_K_RETRIEVE,
    k_context: int = DEFAULT_K_CONTEXT,
    budget: int = DEFAULT_DOC_BUDGET,
    max_ref_tokens: int = MAX_REF_TOKENS,
    max_answer_tokens: int = MAX_ANSWER_TOKENS,
) -> RagResult:
    """Continuous DocIDs-References-Answer decode in one session.

    Stage 1 generates up to ``k_retrieve`` DocIDs; stage 2 appends the top
    ``k_context`` documents to the same context and decodes one reference per
    document; stage 3 decodes the answer. The query is never re-processed.
    An empty retrieval is flagged and decoding proceeds closed-book style.
    """
    return _generate_rag(lm, trie, corpus, query, k_retrieve, k_context, budget,
                         max_ref_tokens, max_answer_tokens, rebuild_context=False)


def generate_rag_pipeline(
    lm: LmScorer,
    trie: DocIdTrie,
    corpus: Corpus,
    query: str,
    k_retrieve: int = DEFAULT_K_RETRIEVE,
    k_context: int = DEFAULT_K_CONTEXT,
    budget: int = DEFAULT_DOC_BUDGET,
    max_ref_tokens: int = MAX_REF_TOKENS,
    max_answer_tokens: int = MAX_ANSWER_TOKENS,
) -> RagResult:
    """Two-pass baseline: retrieval, then a fresh reading context.

    Stage 1 matches :func:`generate_rag`. Stages 2 and 3 run on a context
    rebuilt as query plus documents, so the query tokens are processed twice;
    the cost meter records the difference. With an empty retrieval there is
    nothing to rebuild and the continuous path is taken.
    """
    return _generate_rag(lm, trie, corpus, query, k_retrieve, k_context, budget,
                         max_ref_tokens, max_answer_tokens, rebuild_context=True)


def score_sequence(
    lm: LmScorer,
    context: Sequence[int],
    target: Sequence[int],
    mask_provider: Callable[[list[int]], np.ndarray | None] | None = None,
) -> float:
    """Teacher-forced log-probability of ``target`` after ``context``.

    When ``mask_provider`` returns an ascending id array for a position, the
    token's log-probability is renormalized over those ids, matching what a
    masked greedy decode reports.
    """
    if len(target) == 0:
        raise ValueError("target must be non-empty")
    vocab_size = lm.vocab.size
    prefix = list(context)
    total = 0.0
    for token in target:
        if not 0 <= token < vocab_size:
            raise ValueError(f"target token id {token} outside vocabulary of size {vocab_size}")
        vector = lm.next_logprobs(prefix)
        logprob = float(vector[token])
        if mask_provider is not None:
            allowed = mask_provider(prefix)
            if allowed is not None:
                if token not in allowed:
                    raise ValueError(f"target token {token} not in the provided mask")
                logprob = float(vector[token]) - _logsumexp(vector[allowed])
        total += logprob
        prefix.append(token)
    return total


def parse_rag_trace(trace: Sequence[int]) -> ParsedTrace:
    """Strict parse of a trace as DocID spans, reference spans, then answer.

    Grammar: ``(<docid> w+ </docid>)* (<ref> w* </ref>)* <answer> w* EOS``
    where DocID span tokens are ordinary (never UNK) and free-text tokens are
    ordinary or UNK. The parse folds the decoders' automaton over the trace,
    so a trace parses exactly when a decode could have emitted it; the list's
    stop decision is never emitted, so it is taken where the trace leaves the
    list. Raises :class:`GrammarError` on any violation.
    """
    state = GrammarState(Phase.LIST)
    spans: dict[Phase, list[list[int]]] = {Phase.DOCID: [], Phase.REF: [], Phase.ANSWER: []}
    for i, token in enumerate(trace):
        if state.phase is Phase.LIST and token != DOCID_OPEN:
            state = step(state, EOS)
        try:
            nxt = step(state, token)
        except GrammarError as exc:
            raise GrammarError(f"position {i}: {exc}") from None
        if nxt.phase in spans:
            if nxt.phase is state.phase:
                spans[nxt.phase][-1].append(token)
            else:
                spans[nxt.phase].append([])
        state = nxt
    if state.phase is not Phase.DONE:
        raise GrammarError(f"position {len(trace)}: trace ends in phase {state.phase.value}")
    docid_spans, reference_spans, answers = (tuple(map(tuple, spans[p])) for p in spans)
    return ParsedTrace(docid_spans, reference_spans, answers[0])


def rag_result_record(query_id: str, result: RagResult) -> dict:
    """Line-record form of a RAG decode for result files."""
    return {
        "query_id": query_id,
        "docids": list(result.docids.docids),
        "references": list(result.references),
        "answer": result.answer,
        "cost": result.decode_cost.as_dict(),
        "closed_book_fallback": result.closed_book_fallback,
    }
