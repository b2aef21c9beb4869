import random

import numpy as np
import pytest

from docidlm.constraints import (
    GRAMMAR,
    PHASES,
    SILENT_STOP,
    UNCONSTRAINED,
    ConstraintState,
    Cursor,
    DeadEndError,
    GrammarState,
    MalformedSequenceError,
    Mode,
    Phase,
    Plan,
    allowed_mask,
    compile_grammar,
    scan_state,
    step,
    step_state,
)
from docidlm.tokens import (
    ANSWER_OPEN,
    DOCID_CLOSE,
    DOCID_OPEN,
    EOS,
    REF_CLOSE,
    REF_OPEN,
    UNK,
    build_vocabulary,
)
from docidlm import decoder
from docidlm.trie import ExclusionSet, build_trie, exclude

from conftest import corpus_from_rows, free_text_states, random_corpus, random_instance

Q, A, H, Z = 10, 11, 12, 13  # stand-in ordinary token ids


class TestScanState:
    def test_open_without_close_engages(self):
        state = scan_state([Q, DOCID_OPEN, A, H])
        assert state.mode is Mode.INSIDE_DOCID
        assert state.inner_prefix == (A, H)

    def test_close_exits_scan(self):
        assert scan_state([Q, DOCID_OPEN, A, DOCID_CLOSE, Z]) == UNCONSTRAINED

    def test_empty_history(self):
        assert scan_state([]) == UNCONSTRAINED

    def test_plain_tokens_unconstrained(self):
        assert scan_state([Q, A, Z]) == UNCONSTRAINED

    def test_open_as_last_token(self):
        state = scan_state([Q, DOCID_OPEN])
        assert state.inside_docid and state.inner_prefix == ()


class TestStepState:
    def test_open_from_unconstrained(self):
        state = step_state(UNCONSTRAINED, DOCID_OPEN)
        assert state.inside_docid and state.inner_prefix == ()

    def test_close_from_inside(self):
        state = ConstraintState(Mode.INSIDE_DOCID, (A,))
        assert step_state(state, DOCID_CLOSE) == UNCONSTRAINED

    def test_token_extends_inner_prefix(self):
        state = ConstraintState(Mode.INSIDE_DOCID, (A,))
        assert step_state(state, H).inner_prefix == (A, H)

    def test_malformed_close_outside(self):
        with pytest.raises(MalformedSequenceError):
            step_state(UNCONSTRAINED, DOCID_CLOSE)

    def test_malformed_open_inside(self):
        with pytest.raises(MalformedSequenceError):
            step_state(ConstraintState(Mode.INSIDE_DOCID, ()), DOCID_OPEN)


def random_wellformed_history(rng: random.Random, ordinary: list[int]) -> list[int]:
    """Random mask-legal history: ordinary tokens with matched DocID spans."""
    history: list[int] = []
    for _ in range(rng.randint(0, 12)):
        if rng.random() < 0.4:
            history.append(DOCID_OPEN)
            history.extend(rng.choices(ordinary, k=rng.randint(0, 4)))
            if rng.random() < 0.8:
                history.append(DOCID_CLOSE)
            else:
                return history  # span still open at the end
        else:
            history.append(rng.choice(ordinary))
    return history


def fold_steps(history):
    state = UNCONSTRAINED
    for token in history:
        state = step_state(state, token)
    return state


def test_step_fold_equals_backward_scan_randomized():
    rng = random.Random(41)
    ordinary = [Q, A, H, Z, 14, 15]
    mismatches = 0
    for _ in range(10_000):
        history = random_wellformed_history(rng, ordinary)
        if fold_steps(history) != scan_state(history):
            mismatches += 1
    assert mismatches == 0


class TestAllowedMask:
    def setup_method(self):
        self.corpus = corpus_from_rows([
            ("1", "a", "x", "t."), ("2", "a", "y", "t."),
        ])
        self.vocab = build_vocabulary(self.corpus, [])
        self.trie = build_trie(self.corpus, self.vocab)

    def tok(self, s):
        return self.vocab.token_to_id[s]

    def test_inside_docid_delegates_to_trie(self):
        state = inside_docid((self.tok("a"), self.tok("#")))
        mask = allowed_mask(state, self.trie, ExclusionSet(self.trie), self.vocab.size)
        assert mask.dtype == np.int64
        assert mask.tolist() == sorted([self.tok("x"), self.tok("y")])

    def test_docid_list_phase_outside(self):
        mask = allowed_mask(GrammarState(Phase.LIST), self.trie, ExclusionSet(self.trie),
                            self.vocab.size)
        assert mask.tolist() == [DOCID_OPEN, EOS]

    def test_docid_list_phase_exhausted_withholds_open(self):
        excl = ExclusionSet(self.trie)
        exclude(excl, "a # x")
        exclude(excl, "a # y")
        mask = allowed_mask(GrammarState(Phase.LIST), self.trie, excl, self.vocab.size)
        assert mask.tolist() == [EOS]

    def test_terminal_with_children(self):
        corpus = corpus_from_rows([("1", "a", "x", "t."), ("2", "a", "x y", "t.")])
        vocab = build_vocabulary(corpus, [])
        trie = build_trie(corpus, vocab)
        prefix = (vocab.token_to_id["a"], vocab.token_to_id["#"], vocab.token_to_id["x"])
        mask = allowed_mask(inside_docid(prefix), trie, ExclusionSet(trie), vocab.size)
        assert mask.tolist() == [DOCID_CLOSE, vocab.token_to_id["y"]]

    def test_free_text_excludes_unmatched_close(self):
        for phase, close in [(Phase.REF, REF_CLOSE), (Phase.ANSWER, EOS)]:
            mask = allowed_mask(GrammarState(phase), self.trie, ExclusionSet(self.trie),
                                self.vocab.size)
            assert DOCID_CLOSE not in mask
            assert mask.tolist() == [close] + list(range(UNK, self.vocab.size))


def test_cached_free_text_masks_equal_fresh_ones():
    corpus = corpus_from_rows([("1", "a", "x", "t."), ("2", "a", "y", "t.")])
    small = build_vocabulary(corpus, [])
    large = build_vocabulary(corpus, ["many more words for a second vocabulary size"])
    assert small.size < large.size
    trie = build_trie(corpus, small)
    excl = ExclusionSet(trie)
    for _ in range(2):  # the second pass reads the cache
        for vocab_size in (small.size, large.size):
            for state, expected in free_text_states(vocab_size).values():
                mask = allowed_mask(state, trie, excl, vocab_size)
                assert mask.dtype == np.int64 and not mask.flags.writeable
                assert mask.tolist() == expected, state
                assert allowed_mask(state, trie, excl, vocab_size) is mask


def inside_docid(prefix):
    return GrammarState(Phase.DOCID, span=ConstraintState(Mode.INSIDE_DOCID, tuple(prefix)))


def rollout_sound(trie, vocab_size, excl, state, depth=0):
    """Every admitted token must keep some completion reachable."""
    mask = allowed_mask(state, trie, excl, vocab_size)
    if state.phase is Phase.DOCID:
        assert mask.size, "dead end inside a DocID span"
    for token in mask.tolist():
        if token in (EOS, DOCID_CLOSE):
            continue
        rollout_sound(trie, vocab_size, excl, step(state, token), depth + 1)


def test_mask_soundness_exhaustive_rollout():
    rng = random.Random(47)
    for _ in range(10):
        corpus = random_corpus(rng, rng.randint(2, 50))
        vocab = build_vocabulary(corpus, [])
        trie = build_trie(corpus, vocab)
        excl = ExclusionSet(trie)
        doc_ids = sorted(corpus.documents)
        for doc_id in rng.sample(doc_ids, rng.randint(0, len(doc_ids) // 2)):
            exclude(excl, doc_id)
        rollout_sound(trie, vocab.size, excl, GrammarState(Phase.LIST))


def test_dead_end_error_surfaces_exclusion_bugs():
    corpus = corpus_from_rows([("1", "a", "x", "t.")])
    vocab = build_vocabulary(corpus, [])
    trie = build_trie(corpus, vocab)
    excl = exclude(ExclusionSet(trie), "a # x")
    # a span forced open despite full exclusion has nowhere to go
    with pytest.raises(DeadEndError):
        allowed_mask(inside_docid([vocab.token_to_id["a"]]), trie, excl, vocab.size)


# ---------------------------------------------------------------------------
# The compiled table and its cursor against the specification


def random_plan(rng: random.Random) -> Plan:
    """Every cap drawn from unbounded, zero and small."""
    return Plan(*(rng.choice([None, 0, 1, 2, 3]) for _ in range(4)))


def random_start(rng: random.Random, trie, phase: Phase) -> GrammarState:
    """A state in ``phase`` with random counts; inside a DocID span, a random trie path."""
    span = UNCONSTRAINED
    if phase is Phase.DOCID:
        path = trie.docid_paths[rng.choice(sorted(trie.docid_paths))]
        span = ConstraintState(Mode.INSIDE_DOCID, tuple(path[: rng.randint(0, len(path))]))
    return GrammarState(phase, random_plan(rng), span, rng.randint(0, 4), rng.randint(0, 4),
                        rng.randint(0, 4))


def walk_cursor(rng: random.Random, trie, excl, vocab_size: int, state: GrammarState,
                seen: set) -> None:
    """Walk random mask tokens from ``state``, checking the cursor against ``step`` and
    ``allowed_mask`` on a ``GrammarState`` at every step; ``seen`` collects the cases met."""
    cursor = Cursor(state, trie, vocab_size)
    while True:
        assert cursor.state() == state and cursor.phase is state.phase
        if state.phase is Phase.DONE:
            return
        if state.phase is Phase.DOCID:
            assert cursor.node == trie.node_at(state.span.inner_prefix)
        try:
            want = allowed_mask(state, trie, excl, vocab_size)
        except DeadEndError:
            with pytest.raises(DeadEndError):
                allowed_mask(cursor, trie, excl, vocab_size)
            seen.add("dead end")
            return
        got = allowed_mask(cursor, trie, excl, vocab_size)
        assert got.tolist() == want.tolist(), state
        if state.phase is Phase.LIST and len(excl) == len(trie):
            seen.add("every DocID excluded")
        if state.phase is Phase.REFS and state.plan.refs is not None:
            seen.add(f"forced {want.tolist()}")
        if len(want) == 1 and state.phase is not Phase.DOCID:
            seen.add(f"exit only in {state.phase.value}")
        token = rng.choice(want.tolist())
        if token == DOCID_CLOSE:
            excl.add(trie.docid_at(cursor.node))
        emitted = cursor.advance(token)
        nxt = step(state, token)
        assert emitted == (token != EOS or state.phase not in SILENT_STOP)
        exit_symbol, after, body = GRAMMAR[state.phase]
        if nxt.phase is not (after if token == exit_symbol else body[0][1]):
            seen.add(f"silent stop after {state.phase.value}")
        state = nxt


def test_cursor_walks_equal_step_and_allowed_mask_from_every_phase():
    rng = random.Random(53)
    seen: set = set()
    for _ in range(40):
        corpus = random_corpus(rng, rng.randint(1, 8))
        vocab = build_vocabulary(corpus, [])
        trie = build_trie(corpus, vocab)
        for phase in Phase:
            for _ in range(6):
                excl = ExclusionSet(trie)
                doc_ids = sorted(corpus.documents)
                for doc_id in rng.sample(doc_ids, rng.choice([0, rng.randint(0, len(doc_ids))])):
                    exclude(excl, doc_id)
                walk_cursor(rng, trie, excl, vocab.size, random_start(rng, trie, phase), seen)
    assert seen >= {
        "every DocID excluded", "dead end", f"forced {[REF_OPEN]}", f"forced {[ANSWER_OPEN]}",
        "silent stop after docid", "silent stop after closed_book",
        *(f"exit only in {phase.value}" for phase in (Phase.LIST, Phase.REFS, Phase.REF,
                                                       Phase.ANSWER, Phase.CLOSED_BOOK)),
    }, seen


def test_compiled_table_is_built_once_per_vocabulary_size():
    table = compile_grammar(40)
    assert compile_grammar(40) is table and compile_grammar(41) is not table
    assert len(table) == len(PHASES) and table[PHASES.index(Phase.DONE)] is None
    for phase, (exit_symbol, after, body) in GRAMMAR.items():
        entry = table[PHASES.index(phase)]
        assert entry[:3] == (exit_symbol, PHASES.index(after), PHASES.index(body[0][1]))
        assert all(not mask.flags.writeable for mask in entry[4:])
        assert entry[4].tolist() == [exit_symbol]


def fold(state: GrammarState, trace, until: Phase) -> GrammarState:
    """``step`` folded over a run's emitted tokens; a run that ends short of ``until``
    ended on a silent stop's unemitted ``</s>``."""
    for token in trace:
        state = step(state, token)
    return state if state.phase is until else step(state, EOS)


def test_state_handed_between_runs_is_the_folded_state(monkeypatch):
    runs, cursors = [], []
    run = decoder._Session.run

    def recorded(session, until):
        start, begin = session.cursor.state(), len(session.trace)
        run(session, until)
        runs.append((start, until, session.cursor.state(), session.trace[begin:]))
        cursors.append(session.cursor)

    monkeypatch.setattr(decoder._Session, "run", recorded)
    rng = random.Random(59)
    ends = set()
    for _ in range(30):
        corpus, vocab, trie, lm, queries = random_instance(rng, rng.randint(1, 10))
        k_retrieve = rng.randint(1, 5)
        limits = dict(k_retrieve=k_retrieve, k_context=rng.randint(1, k_retrieve),
                      max_ref_tokens=rng.choice([0, 1, 3]), max_answer_tokens=rng.choice([0, 1, 3]))
        for generate in (decoder.generate_rag, decoder.generate_rag_pipeline):
            runs.clear()
            cursors.clear()
            result = generate(lm, trie, corpus, rng.choice(queries), **limits)
            (start, until, handed, listed), (resumed, end, done, read) = runs
            assert cursors[0] is cursors[1]  # one cursor per decode
            assert start == GrammarState(Phase.LIST, Plan(*limits.values()))
            assert (until, end) == (Phase.REFS, Phase.DONE)
            assert handed == fold(start, listed, Phase.REFS) and resumed == handed
            assert done == fold(resumed, read, Phase.DONE)
            assert tuple(listed + read) == result.token_trace
            ends.add(len(result.docids) == k_retrieve)
        runs.clear()
        decoder.generate_closed_book(lm, rng.choice(queries), rng.randint(1, 4))
        ((start, _, done, answered),) = runs
        assert done == fold(start, answered, Phase.DONE)
    assert ends == {True, False}  # lists stopped by their cap and by a decision
