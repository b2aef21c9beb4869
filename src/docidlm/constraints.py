"""The output grammar as one automaton, with dynamic DocID-span tracking.

    (<docid> w+ </docid>)* (<ref> w* </ref>)* <answer> w* </s>

:data:`GRAMMAR` says which token classes each phase accepts and which phase
comes next. The specification is :func:`step`, which advances a
:class:`GrammarState` by one token and rejects one the phase does not
accept, and :func:`allowed_mask`, the ascending array of legal ids: inside a
DocID span the trie and the exclusion set narrow it, elsewhere the decode
plan does. The trace parse folds :func:`step`; a decode runs one
:class:`Cursor`, the same automaton updated in place from the table that
:func:`compile_grammar` builds once per vocabulary size.

``scan_state`` finds the DocID span by scanning the history backward;
``step_state`` is its O(1) incremental equivalent, which ``GrammarState`` uses.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Sequence

import numpy as np

from .tokens import ANSWER_OPEN, DOCID_CLOSE, DOCID_OPEN, EOS, REF_CLOSE, REF_OPEN, UNK
from .trie import DocIdTrie, ExclusionSet, allowed_continuations


class MalformedSequenceError(RuntimeError):
    """A structural token arrived in a state where the mask forbids it."""


class DeadEndError(RuntimeError):
    """Inside a DocID span with nothing allowed; signals an exclusion bug."""


class GrammarError(ValueError):
    """A token trace does not parse under the output grammar."""


class Mode(Enum):
    UNCONSTRAINED = "unconstrained"
    INSIDE_DOCID = "inside_docid"


@dataclass(frozen=True)
class ConstraintState:
    mode: Mode
    inner_prefix: tuple[int, ...] = ()

    @property
    def inside_docid(self) -> bool:
        return self.mode is Mode.INSIDE_DOCID


UNCONSTRAINED = ConstraintState(Mode.UNCONSTRAINED)


def scan_state(generated: list[int] | tuple[int, ...]) -> ConstraintState:
    """Literal backward scan: close exits, open engages, neither means free."""
    for i in range(len(generated) - 1, -1, -1):
        token = generated[i]
        if token == DOCID_CLOSE:
            return UNCONSTRAINED
        if token == DOCID_OPEN:
            return ConstraintState(Mode.INSIDE_DOCID, tuple(generated[i + 1 :]))
    return UNCONSTRAINED


def step_state(prev: ConstraintState, emitted: int) -> ConstraintState:
    """Advance the state by one emitted token.

    Equivalent to rescanning the extended history, at constant cost.
    """
    if prev.inside_docid:
        if emitted == DOCID_OPEN:
            raise MalformedSequenceError("DOCID_OPEN emitted inside a DocID span")
        if emitted == DOCID_CLOSE:
            return UNCONSTRAINED
        return ConstraintState(Mode.INSIDE_DOCID, prev.inner_prefix + (emitted,))
    if emitted == DOCID_CLOSE:
        raise MalformedSequenceError("DOCID_CLOSE emitted outside a DocID span")
    if emitted == DOCID_OPEN:
        return ConstraintState(Mode.INSIDE_DOCID, ())
    return UNCONSTRAINED


class Phase(Enum):
    LIST = "list"  # between DocID spans
    DOCID = "docid"  # inside a DocID span
    REFS = "refs"  # between reference spans
    REF = "ref"  # inside a reference span
    ANSWER = "answer"
    CLOSED_BOOK = "closed_book"  # an answer with no retrieval before it
    DONE = "done"


def _symbol(token: int) -> range:
    return range(token, token + 1)


# Token classes are id ranges; open ranges end at the vocabulary size.
WORD = range(UNK, sys.maxsize)  # free text: <unk> and every ordinary token
NAME = range(UNK + 1, sys.maxsize)  # DocID span text: ordinary tokens, narrowed by the trie

# phase: (exit symbol, phase after it, body: (token class, next phase) pairs).
# Closed-book decoding admits everything except the DocID and reference symbols.
GRAMMAR: dict[Phase, tuple[int, Phase, tuple[tuple[range, Phase], ...]]] = {
    Phase.LIST: (EOS, Phase.REFS, ((_symbol(DOCID_OPEN), Phase.DOCID),)),
    Phase.DOCID: (DOCID_CLOSE, Phase.LIST, ((NAME, Phase.DOCID),)),
    Phase.REFS: (ANSWER_OPEN, Phase.ANSWER, ((_symbol(REF_OPEN), Phase.REF),)),
    Phase.REF: (REF_CLOSE, Phase.REFS, ((WORD, Phase.REF),)),
    Phase.ANSWER: (EOS, Phase.DONE, ((WORD, Phase.ANSWER),)),
    Phase.CLOSED_BOOK: (EOS, Phase.DONE, ((_symbol(ANSWER_OPEN), Phase.CLOSED_BOOK),
                                          (WORD, Phase.CLOSED_BOOK))),
}

# Per phase, the classes a mask is built from: the exit symbol, then the body's.
_MASK_CLASSES = {phase: (_symbol(exit_symbol),) + tuple(cls for cls, _ in body)
                 for phase, (exit_symbol, _, body) in GRAMMAR.items()}

# Phases whose EOS is the decision to stop: it is scored but never emitted,
# and a spent budget stops the phase without a decision.
SILENT_STOP = frozenset({Phase.LIST, Phase.CLOSED_BOOK})

# the plan field that caps a phase, and the counter it caps: DocIDs 0, references 1, length 2
_CAPS = {Phase.LIST: ("docids", 0), Phase.REFS: ("refs", 1), Phase.REF: ("ref_tokens", 2),
         Phase.ANSWER: ("answer_tokens", 2), Phase.CLOSED_BOOK: ("answer_tokens", 2)}


@dataclass(frozen=True)
class Plan:
    """Bounds of one decode; ``None`` leaves a count unbounded, as in parsing.

    ``refs`` is exact rather than a cap: one reference is decoded for each of
    the first ``refs`` DocIDs of the list.
    """

    docids: int | None = None
    refs: int | None = None
    ref_tokens: int | None = None
    answer_tokens: int | None = None


@dataclass(frozen=True)
class GrammarState:
    phase: Phase
    plan: Plan = Plan()
    span: ConstraintState = UNCONSTRAINED
    docids: int = 0  # DocID spans closed
    refs: int = 0  # reference spans closed
    length: int = 0  # tokens since the phase was entered


def _spent(state: GrammarState) -> bool:
    """Whether the plan allows no more of what the current phase repeats."""
    name, counter = _CAPS.get(state.phase, (None, 0))
    cap = getattr(state.plan, name) if name else None
    if cap is not None and state.phase is Phase.REFS:  # one reference per listed DocID at most
        cap = min(cap, state.docids)
    return cap is not None and (state.docids, state.refs, state.length)[counter] >= cap


def step(state: GrammarState, token: int) -> GrammarState:
    """Advance the automaton by one token; :class:`GrammarError` if it is not accepted."""
    if state.phase not in GRAMMAR:
        raise GrammarError(f"token {token} after end-of-sequence")
    exit_symbol, phase, body = GRAMMAR[state.phase]
    if token != exit_symbol:
        phase = next((after for cls, after in body if cls.start <= token < cls.stop), None)
        if phase is None:
            raise GrammarError(f"token {token} not allowed in phase {state.phase.value}")
    elif state.phase is Phase.DOCID and not state.span.inner_prefix:
        raise GrammarError("empty DocID span")
    nxt = GrammarState(
        phase,
        state.plan,
        step_state(state.span, token),
        state.docids + (token == DOCID_CLOSE),
        state.refs + (token == REF_CLOSE),
        state.length + 1 if phase is state.phase else 0,
    )
    if nxt.phase in SILENT_STOP and _spent(nxt):
        return step(nxt, EOS)
    return nxt


_CLOSE = np.array([DOCID_CLOSE], dtype=np.int64)


def allowed_mask(
    state: GrammarState | Cursor,
    trie: DocIdTrie,
    excl: ExclusionSet,
    vocab_size: int,
) -> np.ndarray:
    """Token ids the decoder may emit next, as an ascending int64 array.

    Inside a DocID span the mask comes from the trie (continuations plus the
    close symbol at a non-excluded terminal). In the list phase the open
    symbol is withheld once every DocID is excluded, so no span can dead-end.
    Between references the plan forces ``<ref>`` while a reference is owed
    and ``<answer>`` after; a spent segment cap forces the closing symbol.

    A DocID mask filters the trie node's child array; every other mask comes
    from :func:`class_ids` (a :class:`Cursor` reads it from its table), so
    the array may be shared and read-only.
    """
    if isinstance(state, Cursor):
        if state.at == _DOCID:
            return _docid_mask(trie, state.prefix, excl, state.node)
        exit_only, full, body_only = state.table[state.at][4:]
        if state.spent() or (state.at == _LIST and len(trie) == len(excl)):
            return exit_only
        return body_only if state.at == _REFS and state.plan.refs is not None else full
    if state.phase is Phase.DOCID:
        return _docid_mask(trie, state.span.inner_prefix, excl)
    classes = _MASK_CLASSES[state.phase]
    if _spent(state) or (state.phase is Phase.LIST and len(trie) == len(excl)):
        classes = classes[:1]
    elif state.phase is Phase.REFS and state.plan.refs is not None:
        classes = classes[1:]
    return class_ids(classes, vocab_size)


def _docid_mask(trie: DocIdTrie, prefix: Sequence[int], excl: ExclusionSet, node=None) -> np.ndarray:
    cont = allowed_continuations(trie, prefix, excl, node=node)
    ids = np.concatenate((_CLOSE, cont.ids)) if cont.close_permitted else cont.ids
    if not ids.size:
        raise DeadEndError(f"no continuation from inner prefix {list(prefix)}")
    return ids


@lru_cache(maxsize=64)
def class_ids(classes: tuple[range, ...], vocab_size: int) -> np.ndarray:
    """Ascending ids of the token classes below ``vocab_size``, built once, read-only."""
    ids = np.concatenate([
        np.arange(cls.start, min(cls.stop, vocab_size), dtype=np.int64)
        for cls in sorted(classes, key=lambda cls: cls.start)
    ])
    ids.flags.writeable = False
    return ids


PHASES = tuple(Phase)  # a phase's number is its index here and in the compiled table
_LIST, _DOCID, _REFS = map(PHASES.index, (Phase.LIST, Phase.DOCID, Phase.REFS))
_SILENT = frozenset(map(PHASES.index, SILENT_STOP))


@lru_cache(maxsize=8)
def compile_grammar(vocab_size: int) -> tuple[tuple | None, ...]:
    """:data:`GRAMMAR` as a table indexed by phase number, with ``None`` at ``DONE``.

    An entry is (exit symbol, the phase after it, the phase after a body token,
    the counter the phase caps or ``None``, exit-only mask, full mask, body-only mask).
    """
    def entry(phase, exit_symbol, after, body):
        (body_after,) = {next_phase for _, next_phase in body}
        classes = _MASK_CLASSES[phase]
        return (exit_symbol, PHASES.index(after), PHASES.index(body_after),
                _CAPS.get(phase, (None, None))[1],
                *(class_ids(c, vocab_size) for c in (classes[:1], classes, classes[1:])))
    return tuple(entry(phase, *GRAMMAR[phase]) if phase in GRAMMAR else None for phase in PHASES)


class Cursor:
    """A :class:`GrammarState` that a decode loop updates in place from the compiled table.

    ``counts`` holds the DocIDs closed, the references closed and the segment
    length; ``prefix`` and ``node`` are the DocID span's tokens and trie node id.
    """

    __slots__ = ("table", "plan", "caps", "at", "counts", "child", "prefix", "node")

    def __init__(self, state: GrammarState, trie: DocIdTrie, vocab_size: int):
        self.table, self.plan, self.child = compile_grammar(vocab_size), state.plan, trie.child
        self.caps = [getattr(state.plan, _CAPS[p][0]) if p in _CAPS else None for p in PHASES]
        self.at, self.counts = PHASES.index(state.phase), [state.docids, state.refs, state.length]
        self.prefix = list(state.span.inner_prefix)
        self.node = trie.node_at(self.prefix)

    phase = property(lambda self: PHASES[self.at])

    def state(self) -> GrammarState:
        span = scan_state([DOCID_OPEN, *self.prefix] if self.at == _DOCID else [])
        return GrammarState(self.phase, self.plan, span, *self.counts)

    def spent(self) -> bool:
        """Whether the plan allows no more of what the current phase repeats."""
        cap = self.caps[self.at]
        if cap is not None and self.at == _REFS:  # one reference per listed DocID at most
            cap = min(cap, self.counts[0])
        return cap is not None and self.counts[self.table[self.at][3]] >= cap

    def advance(self, token: int) -> bool:
        """:func:`step` in place, for a token the mask allowed; whether the token is emitted."""
        at, counts = self.at, self.counts
        exit_symbol, exit_to, body_to = self.table[at][:3]
        self.at = nxt = exit_to if token == exit_symbol else body_to
        if nxt == _DOCID:
            if at == _DOCID:
                self.prefix.append(token)
                self.node = self.child(self.node, token)
            else:
                self.prefix, self.node = [], 0
        counts[0] += token == DOCID_CLOSE
        counts[1] += token == REF_CLOSE
        counts[2] = counts[2] + 1 if nxt == at else 0
        if nxt in _SILENT and self.spent():  # the stop this phase's spent cap decides
            self.at, counts[2] = self.table[nxt][1], 0
        return token != EOS or at not in _SILENT  # a silent stop is decided, not emitted
