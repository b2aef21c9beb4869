"""The output grammar as one automaton, with dynamic DocID-span tracking.

Every decode and every trace parse runs the same automaton over the grammar

    (<docid> w+ </docid>)* (<ref> w* </ref>)* <answer> w* </s>

:data:`GRAMMAR` says which token classes each phase accepts and which phase
comes next. :func:`allowed_mask` turns a state into the ascending array of
legal token ids: inside a DocID span the trie and the exclusion set narrow
it, everywhere else the decode plan does. :func:`step` advances a state by
one token and rejects a token the phase does not accept.

Whether the next token is trie-constrained depends on the generated history:
scanning backward from the end, a close symbol means constraints are off, an
open symbol means they are on for the tokens that follow it. ``scan_state``
implements that backward scan literally; ``step_state`` is the incremental
equivalent with O(1) per-token cost, and the two are kept interchangeable by
a randomized equivalence suite. The automaton tracks its DocID span with
``step_state``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

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

# Phases whose EOS is the decision to stop: it is scored but never emitted,
# and a spent budget stops the phase without a decision.
SILENT_STOP = frozenset({Phase.LIST, Phase.CLOSED_BOOK})


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
    plan, phase = state.plan, state.phase
    if phase is Phase.LIST:
        used, cap = state.docids, plan.docids
    elif phase is Phase.REFS:
        used, cap = state.refs, None if plan.refs is None else min(plan.refs, state.docids)
    elif phase is Phase.REF:
        used, cap = state.length, plan.ref_tokens
    elif phase in (Phase.ANSWER, Phase.CLOSED_BOOK):
        used, cap = state.length, plan.answer_tokens
    else:
        return False
    return cap is not None and used >= cap


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
    state: GrammarState,
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
    from :func:`class_ids`, so the array may be shared and read-only.
    """
    if state.phase is Phase.DOCID:
        cont = allowed_continuations(trie, state.span.inner_prefix, excl)
        ids = np.concatenate((_CLOSE, cont.ids)) if cont.close_permitted else cont.ids
        if not ids.size:
            raise DeadEndError(
                f"no continuation from inner prefix {list(state.span.inner_prefix)}"
            )
        return ids
    exit_symbol, _, body = GRAMMAR[state.phase]
    classes = (_symbol(exit_symbol),) + tuple(cls for cls, _ in body)
    if _spent(state) or (state.phase is Phase.LIST and len(trie) == len(excl)):
        classes = classes[:1]
    elif state.phase is Phase.REFS and state.plan.refs is not None:
        classes = classes[1:]
    return class_ids(classes, vocab_size)


@lru_cache(maxsize=64)
def class_ids(classes: tuple[range, ...], vocab_size: int) -> np.ndarray:
    """Ascending ids of the token classes below ``vocab_size``, built once, read-only."""
    ids = np.concatenate([
        np.arange(cls.start, min(cls.stop, vocab_size), dtype=np.int64)
        for cls in sorted(classes, key=lambda cls: cls.start)
    ])
    ids.flags.writeable = False
    return ids
