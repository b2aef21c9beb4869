"""Greedy constrained generation for ranked DocID lists, closed-book answers,
and the continuous DocIDs-References-Answer pipeline.

Every decode is one greedy loop over the output grammar of
:mod:`docidlm.constraints`, run as one :class:`~docidlm.constraints.Cursor`
updated in place. A retrieval decode starts from the task-prefixed query in
the list phase: outside a DocID span only opening a new span or stopping is
legal; inside a span the trie dictates the continuations, and every completed
DocID joins the session exclusion set so the list can never repeat. The RAG
decode keeps going in the same session: the retrieved documents are appended
to the context, one reference segment is decoded per context document, and
the answer follows, so the query is processed exactly once. A pipeline
variant rebuilds the context between retrieval and reading, which is what the
per-query cost counters are there to compare.

A step whose mask holds one token emits it without a scorer call. Any other
DocID step scores the scorer's dense vector over the trie mask, because
the span score renormalizes over it. Every other step takes its token from
the scorer's sparse row (:func:`docidlm.lm.row_scorer`) and the mask's one
run of ids, so its cost follows the row's length, not the vocabulary's. If
the run holds the row's first maximum, above the fill, it is the choice: no
listed id is higher, ties have higher ids and unlisted ids take the lower fill.

Ties in the greedy argmax always break toward the lowest token id, which
makes every decode reproducible.
"""

from __future__ import annotations

import bisect
from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .constraints import PHASES, Cursor, GrammarError, GrammarState, Phase, Plan, allowed_mask, step
from .corpus import Corpus, Document
from .lm import Context, LmScorer, Row, row_scorer
from .tokens import (ANSWER_OPEN, DOCID_CLOSE, DOCID_OPEN, EOS, SPECIAL_SURFACES, Vocabulary, decode,
                     encode)
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

Layout = str | tuple[str | int, ...]
"""A sequence as text pieces (``str``) and structural ids (``int``); a ``str`` is one piece."""


class DecodeError(RuntimeError):
    """Decoding could not proceed (empty trie, bad arguments)."""


@dataclass(slots=True)
class DecodeCost:
    """Scorer calls made and tokens fed into decoder contexts.

    ``scorer_calls`` counts calls, not steps: a step whose mask holds one
    token takes it without asking the scorer. ``context_tokens`` counts
    every token ingested into a session context, including re-processing
    when a pipeline decode rebuilds its context.
    """

    scorer_calls: int = 0
    context_tokens: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True, slots=True)
class RankedDocIds:
    """Ordered DocIDs with the summed log-probability of each identifier span."""

    docids: tuple[str, ...]
    per_docid_logprob: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.docids)


@dataclass(frozen=True, slots=True)
class RagResult:
    docids: RankedDocIds
    context_docids: tuple[str, ...]
    references: tuple[str, ...]
    answer: str
    token_trace: tuple[int, ...]
    decode_cost: DecodeCost
    closed_book_fallback: bool = False


@dataclass(frozen=True, slots=True)
class ParsedTrace:
    docid_spans: tuple[tuple[int, ...], ...]
    reference_spans: tuple[tuple[int, ...], ...]
    answer_tokens: tuple[int, ...]


@lru_cache(maxsize=8)
def _shared_ids(vocab_size: int) -> list[int]:
    """Every token id as one int object, so a kept trace holds no int objects of its own."""
    return list(range(vocab_size))


def _logsumexp(values: np.ndarray) -> float:
    peak = float(values.max())
    return peak + float(np.log(np.exp(values - peak).sum()))


_DOCID, _REF, _ANSWER = map(PHASES.index, (Phase.DOCID, Phase.REF, Phase.ANSWER))


class _Session:
    """One decode: scorer context, cursor, token trace, spans, DocID exclusions and cost meter."""

    def __init__(self, lm: LmScorer, trie: DocIdTrie, prompt: Sequence[int], start: GrammarState):
        self.lm = lm
        self.next_row = row_scorer(lm)
        self.trie = trie
        self.excl = ExclusionSet(trie)
        self.cost = DecodeCost()
        self.context = Context(lm.vocab.size)
        self.trace: list[int] = []
        self.docids: list[str] = []
        self.scores: list[float] = []
        self.references: list[list[int]] = []  # the text of each reference span
        self.answer: list[int] = []
        self.cursor = Cursor(start, trie, lm.vocab.size)
        self.ingest(prompt)

    def ingest(self, tokens: Sequence[int]) -> None:
        self.context.extend(tokens)
        self.cost.context_tokens += len(tokens)

    def run(self, until: Phase) -> None:
        """Decode greedily until the session's cursor reaches ``until``.

        Reference and answer tokens are recorded as the cursor enters and
        stays in those phases, so a result needs no parse of its own trace.
        """
        vocab_size, cursor, stop = self.lm.vocab.size, self.cursor, PHASES.index(until)
        span_logprob = 0.0
        while cursor.at != stop:
            at = cursor.at
            allowed = allowed_mask(cursor, self.trie, self.excl, vocab_size)
            if len(allowed) == 1:  # forced: the greedy choice, and a span term of exactly 0.0
                token = int(allowed[0])
            else:
                self.cost.scorer_calls += 1
                if at == _DOCID:
                    values = self.lm.next_logprobs(self.context)[allowed]
                    best = int(values.argmax())  # first maximum, ids ascending: lowest-id tie-break
                    token = int(allowed[best])
                    if token != DOCID_CLOSE:  # renormalized over the mask; only span scores use it
                        span_logprob += float(values[best] - _logsumexp(values))
                else:
                    token = _greedy_choice(self.next_row(self.context), allowed)
            if token == DOCID_CLOSE:
                self.docids.append(self.trie.docid_at(cursor.node))
                self.excl.add(self.docids[-1], cursor.node)
                self.scores.append(span_logprob)
                span_logprob = 0.0
            if cursor.advance(token):
                self.context.append(token)
                self.cost.context_tokens += 1
                self.trace.append(token)
            if cursor.at == _REF:
                if at == _REF:
                    self.references[-1].append(token)
                else:
                    self.references.append([])
            elif cursor.at == _ANSWER == at:
                self.answer.append(token)

    def ranked(self) -> RankedDocIds:
        return RankedDocIds(tuple(self.docids), tuple(self.scores))


def _greedy_choice(row: Row, allowed: np.ndarray) -> int:
    """The lowest-id argmax of ``expand_row(row, V)[allowed]``, with no vocabulary-sized array.

    ``allowed`` is ascending: a few lone ids, then one run of consecutive ids
    ``lo..hi``, so a row id's place in the run is ``id - lo``. The row's first
    maximum is the choice if the run holds it above the fill; else candidates
    are the first listed maximum of the run, the run's lowest unlisted id (it
    takes the fill value), and each lone id.
    """
    fill, ids, values = row
    hi = int(allowed[-1])
    offset = hi - len(allowed) + 1  # allowed[i] - i along the run
    if len(ids):
        best = values.argmax()
        token = int(ids[best])
        if offset <= token <= hi and values[best] > fill and allowed[token - offset] == token:
            return token
    lone = 0
    while allowed[lone] - lone != offset:
        lone += 1
    lo = offset + lone
    start, stop = ids.searchsorted((lo, hi + 1)).tolist()
    candidates = []
    if start < stop:
        best = start + int(values[start:stop].argmax())
        candidates.append((values[best], -int(ids[best])))
    if stop - start <= hi - lo:  # some id of the run is not listed
        # ids[i] - i ascends, and equals lo - start while the run is listed from lo on
        unlisted = lo + bisect.bisect_right(range(start, stop), lo - start, key=lambda i: ids[i] - i)
        candidates.append((fill, -unlisted))
    for token in allowed[:lone].tolist():
        at = int(ids.searchsorted(token))
        candidates.append((values[at] if at < len(ids) and ids[at] == token else fill, -token))
    return -max(candidates)[1]


def generate_docid_list(lm: LmScorer, trie: DocIdTrie, query: str, k: int) -> RankedDocIds:
    """Constrained greedy decode of up to ``k`` distinct corpus DocIDs."""
    if k < 1:
        raise DecodeError("k must be >= 1")
    if len(trie) == 0:
        raise DecodeError("cannot decode DocIDs over an empty trie")
    session = _Session(lm, trie, encode(lm.vocab, f"{RETRIEVE_PREFIX} {query}"),
                       GrammarState(Phase.LIST, Plan(docids=k)))
    session.run(Phase.REFS)
    return session.ranked()


def generate_closed_book(lm: LmScorer, query: str, max_tokens: int) -> str:
    """Greedy answer decode with no retrieval context.

    DocID and reference structural symbols are masked out (there is no trie
    to honor them); the answer marker, ordinary tokens, and the stop symbol
    stay available. Returned text excludes structural symbols.
    """
    if max_tokens < 1:
        raise DecodeError("max_tokens must be >= 1")
    session = _Session(lm, DocIdTrie(), encode(lm.vocab, f"{ANSWER_PREFIX} {query}"),
                       GrammarState(Phase.CLOSED_BOOK, Plan(answer_tokens=max_tokens)))
    session.run(Phase.DONE)
    return decode(lm.vocab, [t for t in session.trace if t != ANSWER_OPEN])


def render_document_text(doc: Document) -> str:
    """A document as the model reads it: the header ``title # section``, then the body."""
    return f"{doc.title} # {doc.section} {doc.body}"


def layout_tokens(vocab: Vocabulary, layout: Layout) -> list[int]:
    """The ids of a layout: each text piece encoded as text, each structural id as itself.

    This is where a structural id enters a sequence built from data; text
    never becomes one.
    """
    if isinstance(layout, str):
        return encode(vocab, layout)
    ids: list[int] = []
    for piece in layout:
        if isinstance(piece, str):
            ids.extend(encode(vocab, piece))
        else:
            ids.append(piece)
    return ids


def layout_text(layout: Layout) -> str:
    """A layout as one string: its pieces joined by single spaces, each id as its surface."""
    if isinstance(layout, str):
        return layout
    return " ".join(piece if isinstance(piece, str) else SPECIAL_SURFACES[piece] for piece in layout)


def _check_budget(budget: int) -> None:
    if budget < 1:
        raise ValueError(f"document budget must be >= 1, not {budget!r}")


def render_document_tokens(vocab: Vocabulary, doc: Document, budget: int) -> list[int]:
    """The rendered document, truncated to ``budget`` tokens.

    The body tail is dropped first; the header is only cut when the budget is
    smaller than the header itself.
    """
    _check_budget(budget)
    return encode(vocab, render_document_text(doc))[:budget]


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
    if min(max_ref_tokens, max_answer_tokens) < 0:
        raise DecodeError("max_ref_tokens and max_answer_tokens must be >= 0")
    _check_budget(budget)
    if len(trie) == 0:
        raise DecodeError("cannot decode DocIDs over an empty trie")
    prompt = encode(lm.vocab, f"{RAG_PREFIX} {query}")
    plan = Plan(k_retrieve, k_context, max_ref_tokens, max_answer_tokens)
    session = _Session(lm, trie, prompt, GrammarState(Phase.LIST, plan))
    session.run(Phase.REFS)
    context_docids = tuple(session.docids[:k_context])
    if rebuild_context and context_docids:
        session.context = Context(lm.vocab.size)
        session.ingest(prompt)
    for doc_id in context_docids:
        session.ingest(render_document_tokens(lm.vocab, corpus.get(doc_id), budget))
    session.run(Phase.DONE)
    return RagResult(
        docids=session.ranked(),
        context_docids=context_docids,
        references=tuple(decode(lm.vocab, span) for span in session.references),
        answer=decode(lm.vocab, session.answer),
        token_trace=tuple(map(_shared_ids(lm.vocab.size).__getitem__, session.trace)),
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


def score_sequence(lm: LmScorer, context: Sequence[int], target: Sequence[int]) -> float:
    """Teacher-forced log-probability of ``target`` after ``context``, read from scorer rows."""
    if len(target) == 0:
        raise ValueError("target must be non-empty")
    vocab_size, next_row = lm.vocab.size, row_scorer(lm)
    prefix, total = Context(vocab_size, context), 0.0
    for token in target:
        if not 0 <= token < vocab_size:
            raise ValueError(f"target token id {token} outside vocabulary of size {vocab_size}")
        fill, ids, values = next_row(prefix)
        at = int(ids.searchsorted(token))
        total += float(values[at]) if at < len(ids) and ids[at] == token else fill
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
