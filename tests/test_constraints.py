import random

import numpy as np
import pytest

from docidlm.constraints import (
    UNCONSTRAINED,
    ConstraintState,
    GrammarState,
    MalformedSequenceError,
    Mode,
    Phase,
    Plan,
    allowed_mask,
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
from docidlm.trie import ExclusionSet, build_trie, exclude

from conftest import corpus_from_rows

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


def free_text_cases(vocab_size):
    """(state, mask built afresh) for every phase outside a DocID span, spent or not."""
    words = list(range(UNK, vocab_size))
    caps = Plan(docids=2, refs=2, ref_tokens=3, answer_tokens=3)
    return [
        (GrammarState(Phase.LIST, caps), [DOCID_OPEN, EOS]),
        (GrammarState(Phase.LIST, caps, docids=2), [EOS]),
        (GrammarState(Phase.REFS), [REF_OPEN, ANSWER_OPEN]),
        (GrammarState(Phase.REFS, caps, docids=2, refs=1), [REF_OPEN]),
        (GrammarState(Phase.REFS, caps, docids=2, refs=2), [ANSWER_OPEN]),
        (GrammarState(Phase.REF, caps, length=2), [REF_CLOSE] + words),
        (GrammarState(Phase.REF, caps, length=3), [REF_CLOSE]),
        (GrammarState(Phase.ANSWER, caps, length=2), [EOS] + words),
        (GrammarState(Phase.ANSWER, caps, length=3), [EOS]),
        (GrammarState(Phase.CLOSED_BOOK, caps, length=2), [ANSWER_OPEN, EOS] + words),
        (GrammarState(Phase.CLOSED_BOOK, caps, length=3), [EOS]),
    ]


def test_cached_free_text_masks_equal_fresh_ones():
    corpus = corpus_from_rows([("1", "a", "x", "t."), ("2", "a", "y", "t.")])
    small = build_vocabulary(corpus, [])
    large = build_vocabulary(corpus, ["many more words for a second vocabulary size"])
    assert small.size < large.size
    trie = build_trie(corpus, small)
    excl = ExclusionSet(trie)
    for _ in range(2):  # the second pass reads the cache
        for vocab_size in (small.size, large.size):
            for state, expected in free_text_cases(vocab_size):
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
    from conftest import random_corpus

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
    from docidlm.constraints import DeadEndError

    corpus = corpus_from_rows([("1", "a", "x", "t.")])
    vocab = build_vocabulary(corpus, [])
    trie = build_trie(corpus, vocab)
    excl = exclude(ExclusionSet(trie), "a # x")
    # a span forced open despite full exclusion has nowhere to go
    with pytest.raises(DeadEndError):
        allowed_mask(inside_docid([vocab.token_to_id["a"]]), trie, excl, vocab.size)
