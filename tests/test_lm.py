import hashlib
import json
import math
import os
import pickle
import random
import subprocess
import sys
import threading
import time
import tracemalloc
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import numpy as np
import pytest

from docidlm import lm as lm_module
from docidlm.lm import (
    LOG_FLOOR,
    Context,
    NgramLm,
    RemoteLm,
    RemoteProtocolError,
    RemoteTimeoutError,
    UniformLm,
    VocabularyMismatchError,
    train_ngram,
)
from docidlm.tokens import build_vocabulary, encode

from conftest import bench_corpus, context_vector


def small_vocab(n_extra):
    words = [f"w{i:02d}" for i in range(n_extra)]
    return build_vocabulary(None, [" ".join(words)])


class TestUniform:
    def test_every_entry_is_log_inverse_size(self):
        vocab = small_vocab(0)  # size 7
        lm = UniformLm(vocab)
        vector = lm.next_logprobs([])
        assert vector.shape == (7,)
        assert np.allclose(vector, math.log(1 / 7))

    def test_invalid_context_token(self):
        lm = UniformLm(small_vocab(0))
        with pytest.raises(ValueError):
            lm.next_logprobs([99])


# (context, its first id outside a size-7 vocabulary)
BAD_CONTEXTS = [
    ([-1], -1),
    ([7], 7),
    ([0, 6, 3, 7, -2, 99], 7),
    ([1, 2, -3, 8], -3),
    ([5, 5, 5, 5, 100, 1], 100),
]


class TestContextCheck:
    @pytest.mark.parametrize("as_array", [False, True])
    @pytest.mark.parametrize("context, first_bad", BAD_CONTEXTS)
    def test_message_names_first_out_of_range_id(self, context, first_bad, as_array):
        lm = UniformLm(small_vocab(0))  # size 7
        if as_array:
            context = np.array(context, dtype=np.int64)
        with pytest.raises(ValueError, match=f"^context token id {first_bad} outside vocabulary of size 7$"):
            lm.next_logprobs(context)

    @pytest.mark.parametrize("context, first_bad", BAD_CONTEXTS)
    def test_context_extend_names_first_out_of_range_id(self, context, first_bad):
        checked = Context(7, [0, 6])
        message = f"^context token id {first_bad} outside vocabulary of size 7$"
        with pytest.raises(ValueError, match=message):
            checked.extend(context)
        assert list(checked) == [0, 6]  # nothing appended
        with pytest.raises(ValueError, match=message):
            Context(7, context)

    @pytest.mark.parametrize("bad", [-1, 7])
    def test_context_append_rejects_an_out_of_range_id(self, bad):
        checked = Context(7, [0, 6])
        with pytest.raises(ValueError, match=f"^context token id {bad} outside vocabulary of size 7$"):
            checked.append(bad)
        assert list(checked) == [0, 6]  # nothing appended
        checked.append(0)
        checked.append(6)
        assert list(checked) == [0, 6, 0, 6]

    @pytest.mark.parametrize("as_array", [False, True])
    def test_in_range_contexts_pass(self, as_array):
        lm = UniformLm(small_vocab(0))
        for context in ([], [0], [6], [0, 6, 3, 6, 0]):
            if as_array:
                context = np.array(context, dtype=np.int64)
            assert lm.next_logprobs(context).shape == (7,)
            assert lm.next_logprobs(Context(7, context)).shape == (7,)

    def test_context_reads_like_a_list(self):
        checked = Context(7, [0, 6])
        checked.extend([3])
        checked.extend([])
        assert (len(checked), checked[0], checked[-1], checked[1:], list(checked)) == \
            (3, 0, 3, [6, 3], [0, 6, 3])

    @pytest.mark.parametrize("lm", [UniformLm(small_vocab(0)),
                                    train_ngram(small_vocab(0), [[0, 1, 2]], order=2)])
    def test_context_checked_against_a_larger_vocabulary_is_rescanned(self, lm):
        checked = Context(9, [0, 8, 3])
        with pytest.raises(ValueError, match="^context token id 8 outside vocabulary of size 7$"):
            lm.next_logprobs(checked)


class TestNgramArithmetic:
    def test_seen_bigram_counts(self):
        # texts [[a,b],[a,b]], n=2: P(b|a) = (2+alpha) / (2 + alpha*V)
        vocab = small_vocab(2)
        a, b = 7, 8
        alpha = 0.1
        lm = train_ngram(vocab, [[a, b], [a, b]], order=2, alpha=alpha)
        vector = lm.next_logprobs([a])
        v = vocab.size
        assert vector[b] == pytest.approx(math.log((2 + alpha) / (2 + alpha * v)), abs=1e-12)
        assert vector[a] == pytest.approx(math.log(alpha / (2 + alpha * v)), abs=1e-12)

    def test_unseen_context_uniform_fallback(self):
        # with no training data every token gets alpha/(alpha*V) = 1/V
        vocab = small_vocab(0)
        lm = NgramLm(vocab, order=2, alpha=0.1).fit([])
        vector = lm.next_logprobs([0])
        assert np.allclose(vector, math.log(1 / vocab.size))

    def test_unigram_model_matches_frequencies(self):
        # 10-token fixture counted by hand: a x6, b x3, c x1
        vocab = small_vocab(3)
        a, b, c = 7, 8, 9
        text = [a, a, b, a, c, a, b, a, b, a]
        alpha = 0.5
        lm = train_ngram(vocab, [text], order=1, alpha=alpha)
        v = vocab.size
        vector = lm.next_logprobs([b, c])  # context ignored at order 1
        assert vector[a] == pytest.approx(math.log((6 + alpha) / (10 + alpha * v)))
        assert vector[b] == pytest.approx(math.log((3 + alpha) / (10 + alpha * v)))
        assert vector[c] == pytest.approx(math.log((1 + alpha) / (10 + alpha * v)))

    def test_unique_bigram_closed_form(self):
        # every bigram unique: P(next|prev) = (1+alpha)/(1+alpha*V)
        vocab = small_vocab(6)
        seq = [7, 8, 9, 10, 11, 12]
        alpha = 0.25
        lm = train_ngram(vocab, [seq], order=2, alpha=alpha)
        v = vocab.size
        for prev, nxt in zip(seq, seq[1:]):
            vector = lm.next_logprobs([prev])
            assert vector[nxt] == pytest.approx(math.log((1 + alpha) / (1 + alpha * v)))

    def test_longest_match_backoff(self):
        # trigram context seen once wins over bigram statistics
        vocab = small_vocab(4)
        a, b, c, d = 7, 8, 9, 10
        lm = train_ngram(vocab, [[a, b, c], [b, d], [b, d]], order=3, alpha=0.1)
        v = vocab.size
        vector = lm.next_logprobs([a, b])
        # context (a,b) occurred once, followed by c
        assert vector[c] == pytest.approx(math.log(1.1 / (1 + 0.1 * v)))
        # fresh context (d, b) backs off to (b,) where d followed twice, c never
        vector = lm.next_logprobs([d, b])
        assert vector[d] > vector[c]

    def test_parameter_validation(self):
        vocab = small_vocab(1)
        with pytest.raises(ValueError):
            NgramLm(vocab, order=0)
        with pytest.raises(ValueError):
            NgramLm(vocab, alpha=0.0)


class TestScorerContract:
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_normalization_on_random_contexts(self, order):
        rng = random.Random(order)
        vocab = small_vocab(12)
        texts = [[rng.randrange(7, vocab.size) for _ in range(rng.randint(1, 30))]
                 for _ in range(20)]
        lm = train_ngram(vocab, texts, order=order, alpha=0.1)
        for _ in range(50):
            context = [rng.randrange(0, vocab.size) for _ in range(rng.randint(0, 6))]
            total = np.exp(lm.next_logprobs(context)).sum()
            assert abs(total - 1.0) < 1e-6

    def test_determinism_bitwise(self):
        vocab = small_vocab(5)
        lm = train_ngram(vocab, [[7, 8, 9]], order=3)
        v1 = lm.next_logprobs([7, 8])
        v2 = lm.next_logprobs([7, 8])
        assert np.array_equal(v1, v2)

    def test_floor_respected(self):
        vocab = small_vocab(5)
        lm = train_ngram(vocab, [[7, 8]], order=2)
        assert lm.next_logprobs([7]).min() >= LOG_FLOOR


def oracle_fit(vocab, texts, order, alpha=0.1):
    """The per-token dict-of-dicts fit the sorting fit replaced."""
    counts = {}
    for seq in texts:
        for j, token in enumerate(seq):
            for ctx_len in range(0, min(order - 1, j) + 1):
                table = counts.setdefault(tuple(seq[j - ctx_len : j]), {})
                table[token] = table.get(token, 0) + 1

    def next_logprobs(context):
        history = tuple(context[max(0, len(context) - (order - 1)) :])
        table = next((counts[history[s:]] for s in range(len(history) + 1)
                      if history[s:] in counts), {})
        ids = np.fromiter(table.keys(), dtype=np.int64, count=len(table))
        vals = np.fromiter(table.values(), dtype=np.int64, count=len(table))
        denom = math.log(int(vals.sum()) + alpha * vocab.size)
        vector = np.full(vocab.size, math.log(alpha) - denom)
        if len(ids):
            vector[ids] = np.log(vals + alpha) - denom
        return np.maximum(vector, LOG_FLOOR)

    return next_logprobs


def oracle_row(vocab, texts, order, alpha=0.1):
    """``NgramLm.next_row`` as it was before the fit finished its rows.

    A dict count builds the tables that fit kept then: per context length,
    ascending context keys, group starts, totals, next-token ids and
    ``log(count + alpha)``. Each call finds the longest seen suffix by
    ``searchsorted`` and works out the row's values from its total.
    """
    size = vocab.size
    counts = [{} for _ in range(order)]  # per context length: context -> next token -> count
    for seq in texts:
        for j, token in enumerate(seq):
            for c in range(min(order - 1, j) + 1):
                row = counts[c].setdefault(tuple(seq[j - c : j]), {})
                row[token] = row.get(token, 0) + 1
    index = {}  # a context's group at its length

    def key(context):  # its last c-1 tokens' group, times V, plus its first token
        return index[context[1:]] * size + context[0] if context else 0

    tables = []
    for c in range(order):
        contexts = sorted(counts[c], key=key)
        index.update((context, group) for group, context in enumerate(contexts))
        rows = [sorted(counts[c][context].items()) for context in contexts]
        tables.append((np.array([key(context) for context in contexts], dtype=np.int64),
                       np.cumsum([0] + [len(row) for row in rows]),
                       [sum(count for _, count in row) for row in rows],
                       np.array([token for row in rows for token, _ in row], dtype=np.int64),
                       np.log(np.array([count for row in rows for _, count in row]) + alpha)))

    def next_row(context):
        history = list(context)[max(0, len(context) - (order - 1)) :]
        ids, log_counts, total = np.empty(0, dtype=np.int64), np.empty(0), 0
        if tables[0][2]:  # a fit on no tokens has no groups
            table, group = tables[0], 0
            for c in range(1, len(history) + 1):
                keys = tables[c][0]
                key = group * size + history[-c]
                found = int(keys.searchsorted(key))
                if found == len(keys) or keys[found] != key:
                    break
                table, group = tables[c], found
            _, starts, totals, ids, log_counts = table
            lo, hi = starts[group], starts[group + 1]
            ids, log_counts, total = ids[lo:hi], log_counts[lo:hi], totals[group]
        denom = math.log(total + alpha * size)
        values = log_counts - denom
        if math.log1p(alpha) - denom < LOG_FLOOR + 1:
            values = np.maximum(values, LOG_FLOOR)
        return max(math.log(alpha) - denom, LOG_FLOOR), ids, values

    return next_row


def assert_row_is_the_oracle_row(lm: NgramLm, oracle, context) -> None:
    """``lm``'s row of ``context``, as a plain list and as a ``Context``, is ``oracle``'s, bit for bit."""
    expected_fill, expected_ids, expected_values = oracle(context)
    for read_as in (list(context), Context(lm.vocab.size, context)):
        fill, ids, values = lm.next_row(read_as)
        assert type(fill) is float and fill.hex() == expected_fill.hex()
        assert (ids.dtype, ids.tobytes()) == (expected_ids.dtype, expected_ids.tobytes())
        assert (values.dtype, values.tobytes()) == (expected_values.dtype, expected_values.tobytes())


class TestSortingFitMatchesOracle:
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_random_texts_bitwise(self, order):
        rng = random.Random(100 + order)
        vocab = small_vocab(9)
        for _ in range(10):
            # empty texts and texts shorter than the order are mixed in
            texts = [[rng.randrange(0, vocab.size) for _ in range(rng.randint(0, 12))]
                     for _ in range(rng.randint(0, 15))]
            lm = train_ngram(vocab, texts, order=order, alpha=0.1)
            oracle = oracle_fit(vocab, texts, order)
            row = oracle_row(vocab, texts, order)
            seen = [t[max(0, j - order + 1) : j] for t in texts for j in range(len(t) + 1)]
            fresh = [[rng.randrange(0, vocab.size) for _ in range(rng.randint(0, 5))]
                     for _ in range(30)]
            # ids no token follows in any text: no context ends in them
            ungrouped = set(range(vocab.size)).difference(*(t[:-1] for t in texts))
            for context in seen + fresh + [[*fresh[0], last] for last in ungrouped]:
                assert lm.next_logprobs(context).tobytes() == oracle(context).tobytes()
                assert_row_is_the_oracle_row(lm, row, context)

    def test_fit_on_nothing_is_uniform(self):
        vocab = small_vocab(3)
        unfitted = NgramLm(vocab, order=3).next_logprobs([7, 8])
        assert unfitted.tobytes() == oracle_fit(vocab, [], 3)([7, 8]).tobytes()
        for context in ([7, 8], [7], []):
            assert_row_is_the_oracle_row(NgramLm(vocab, order=3), oracle_row(vocab, [], 3), context)
        for texts in ([], [[]], [[], []]):
            lm = NgramLm(vocab, order=3).fit(texts)
            assert lm.next_logprobs([7, 8]).tobytes() == oracle_fit(vocab, texts, 3)([7, 8]).tobytes()
            assert np.allclose(lm.next_logprobs([]), math.log(1 / vocab.size))
            for context in ([7, 8], [7], []):
                assert_row_is_the_oracle_row(lm, oracle_row(vocab, texts, 3), context)

    def test_wide_keys_bitwise(self):
        # 150k ids at order 4: most context keys and (group, next token)
        # pairs pass 2**31, so an int32 step anywhere in the fit would wrap.
        # Tokens come from a pool of 300, so contexts repeat and backing off
        # from a lost key changes the vector.
        vocab = small_vocab(150_000)
        rng = random.Random(7)
        pool = rng.sample(range(vocab.size), 300)
        texts = []
        while sum(map(len, texts)) < 40_000:
            # empty texts and texts shorter than the order are mixed in
            texts += [[], [rng.choice(pool)], rng.choices(pool, k=rng.randint(2, 400))]
        lm = train_ngram(vocab, texts, order=4)
        assert np.median(lm._tables[3][0]) > 2**31
        oracle = oracle_fit(vocab, texts, 4)
        row = oracle_row(vocab, texts, 4)
        contexts = [[]]
        for _ in range(150):
            text = rng.choice([text for text in texts if text])
            end = rng.randint(0, len(text))
            seen = text[max(0, end - 3) : end]
            contexts += [seen[start:] for start in range(len(seen))]
            contexts.append([rng.randrange(vocab.size) for _ in range(rng.randint(1, 3))])
        for context in contexts:
            assert lm.next_logprobs(context).tobytes() == oracle(context).tobytes()
            assert_row_is_the_oracle_row(lm, row, context)

    def test_refit_replaces_the_model(self):
        vocab = small_vocab(4)
        a, b, c, d = 7, 8, 9, 10
        refit = NgramLm(vocab, order=2).fit([[a, b]]).fit([[c, d]])
        fresh = NgramLm(vocab, order=2).fit([[c, d]])
        row = oracle_row(vocab, [[c, d]], 2)
        for context in ([a], [c], [d], []):
            assert refit.next_logprobs(context).tobytes() == fresh.next_logprobs(context).tobytes()
            assert_row_is_the_oracle_row(refit, row, context)
        # the row reads the refit's own arrays: a fill written into them shows in it
        first, _, fills, _, _ = refit._tables[1]
        fills[first[c]] -= 5
        assert refit.next_row([c])[0] == fresh.next_row([c])[0] - 5

    def test_denominators_round_as_math_log(self):
        # totals below and above the bound of the fit's table, many of them repeated
        rng = np.random.default_rng(3)
        totals = rng.permutation(np.concatenate([np.arange(1, 60_000), rng.integers(1, 10**9, 20_000),
                                                 rng.integers(1, 50, 20_000)]))
        for alpha, size in ((0.1, 7_201), (1e-9, 11_447), (3.0, 27)):
            expected = np.array([math.log(total + alpha * size) for total in totals.tolist()])
            assert lm_module._denominators(totals, alpha, size).tobytes() == expected.tobytes()

    # 2**32 + 8 and -(2**32) + 9 wrap to the valid ids 8 and 9 in int32
    @pytest.mark.parametrize("bad", [-1, 12, 99, 2**32 + 8, -(2**32) + 9])
    def test_fit_rejects_out_of_range_token(self, bad):
        vocab = small_vocab(5)  # size 12
        lm = NgramLm(vocab, order=2).fit([[7, 8]])
        before = lm.next_logprobs([7]).tobytes()
        with pytest.raises(ValueError, match=f"^context token id {bad} outside vocabulary of size 12$"):
            lm.fit([[7, 8], [], [9, bad, 10, -5]])
        assert lm.next_logprobs([7]).tobytes() == before


def corpusgen_texts(*shape):
    """Vocabulary and body token texts of a benchmark corpus of ``CorpusShape(*shape)``."""
    corpus, golds = bench_corpus(*shape, seed=5)
    vocab = build_vocabulary(corpus, [gold["input"] for gold in golds])
    return vocab, [encode(vocab, doc.body) for doc in corpus.documents.values()]


@pytest.fixture(scope="module")
def bench_texts():
    """Vocabulary and body token texts of a 600-DocID benchmark corpus."""
    return corpusgen_texts(600, 40, 4, 600, 300)


@pytest.fixture(scope="module")
def zipf_texts():
    """A seeded Zipf corpus of 200k tokens over 5k words, in 5k texts."""
    vocab = small_vocab(5000)
    rng = np.random.default_rng(17)
    weights = 1.0 / np.arange(1, vocab.size + 1)
    flat = rng.choice(vocab.size, size=200_000, p=weights / weights.sum())
    cuts = np.sort(rng.choice(np.arange(1, len(flat)), size=4999, replace=False))
    return vocab, [chunk.tolist() for chunk in np.split(flat, cuts)]


class TestArrayTablesAtScale:
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_sampled_contexts_bitwise(self, bench_texts, order):
        vocab, texts = bench_texts
        lm = train_ngram(vocab, texts, order=order)
        oracle = oracle_fit(vocab, texts, order)
        row = oracle_row(vocab, texts, order)
        # title words and specials never occur in a body
        unseen = sorted(set(range(vocab.size)) - {token for text in texts for token in text})
        rng = random.Random(order)
        contexts = [[]]
        for _ in range(300):
            text = rng.choice(texts)
            end = rng.randint(0, len(text))
            # up to three tokens more than the model reads, then each suffix
            seen = text[max(0, end - order - 2) : end]
            contexts += [seen[start:] for start in range(len(seen))]
            holed = list(seen) or [0]
            holed[rng.randrange(len(holed))] = rng.choice(unseen)
            contexts.append(holed)
            # and one whose last token was never seen
            contexts.append([*seen, unseen[len(contexts) % len(unseen)]])
        assert len(contexts) > 3500 / 4
        for context in contexts:
            assert lm.next_logprobs(context).tobytes() == oracle(context).tobytes()
            assert_row_is_the_oracle_row(lm, row, context)

    def test_fit_retains_under_48_bytes_per_distinct_ngram(self, zipf_texts):
        vocab, texts = zipf_texts
        order = 3
        distinct = sum(len({tuple(text[j - c : j + 1]) for text in texts for j in range(c, len(text))})
                       for c in range(order))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            lm = NgramLm(vocab, order=order).fit(texts)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert lm.next_logprobs(texts[0]).shape == (vocab.size,)
        assert retained / distinct <= 48

    def test_fit_transient_under_48_bytes_per_token(self, zipf_texts):
        # what the fit allocates beyond the tables it keeps, at its peak
        vocab, texts = zipf_texts
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            lm = NgramLm(vocab, order=3).fit(texts)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert lm.next_logprobs(texts[0]).shape == (vocab.size,)
        assert (peak - retained) / sum(map(len, texts)) <= 48

    def test_finished_rows_take_no_more_memory_at_2000_docids(self):
        # retrieve-20k's corpus shape at 2,000 DocIDs. The bounds are what the
        # fit measured here when it kept log counts and totals and each
        # lookup worked its row out from them: 27.024 B per pair retained
        # and 2,071,149 B at its transient peak (Python 3.11, numpy 2.4).
        retained_per_pair_before, transient_before = 27.024, 2_071_149
        vocab, texts = corpusgen_texts(2_000, 40, 100, 6_000, 6_000)
        pairs = sum(len({tuple(text[j - c : j + 1]) for text in texts for j in range(c, len(text))})
                    for c in range(3))
        NgramLm(vocab, order=3).fit(texts)  # first-call allocations stay out of the count
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            lm = NgramLm(vocab, order=3).fit(texts)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert lm.next_logprobs(texts[0]).shape == (vocab.size,)
        assert (retained - before) / pairs <= retained_per_pair_before
        assert peak - retained <= transient_before


# ---------------------------------------------------------------------------
# What a fit leaves behind: its exact tables, and no more resident memory


def table_digest(lm: NgramLm) -> str:
    """sha256 over the dtype and bytes of every table array, in table order."""
    digest = hashlib.sha256()
    for table in lm._tables:
        for array in table:
            digest.update(array.dtype.str.encode())
            digest.update(array.tobytes())
    return digest.hexdigest()


# Tables of a fit on the bodies of retrieve-20k's corpus shape at 2,000 DocIDs
# (seed 5, 88,968 tokens), as the fit wrote them before it released memory.
_TABLE_DIGESTS = {
    1: "b01f3df1d4808bd6e079fdbd2b999bdc3ea79b2b1717d7c89068bacdac5543e3",
    2: "fd693f98bd360aaa1353e3ee64b2a42dba77c3692d5761e615aca39ab3f30b5c",
    3: "f6dbabb253162320b37ffd9831fc61427e5ed8755c9f4231e8467361c353f371",
    4: "ecb035de0e9567aafd09a38bef1b5c0bb624ad7fb71c1bb0f882ed069c679231",
}


@pytest.fixture(scope="module")
def retrieve_shape_texts():
    return corpusgen_texts(2_000, 40, 100, 6_000, 6_000)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_fit_tables_are_pinned_bytes(retrieve_shape_texts, order):
    vocab, texts = retrieve_shape_texts
    assert table_digest(train_ngram(vocab, texts, order=order)) == _TABLE_DIGESTS[order]


def test_fit_without_malloc_trim_writes_the_same_tables(retrieve_shape_texts, monkeypatch):
    # where the C library has no malloc_trim, releasing memory does nothing
    vocab, texts = retrieve_shape_texts
    monkeypatch.setattr(lm_module, "_malloc_trim", lambda: None)
    lm_module._release_freed_memory()
    assert table_digest(train_ngram(vocab, texts, order=3)) == _TABLE_DIGESTS[3]


def env_with_src() -> dict[str, str]:
    """This environment, with the package sources first on a child interpreter's path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


# Run in a fresh interpreter, so that no earlier test's freed memory counts:
# one small fit first keeps first-call allocations out of the growth.
_RESIDENCY_SCRIPT = """
import os, pickle, sys
import numpy as np
from docidlm.lm import NgramLm

def rss():
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

with open(sys.argv[1], "rb") as fh:
    vocab, tokens, lengths = pickle.load(fh)
texts = np.split(tokens, np.cumsum(lengths)[:-1])
NgramLm(vocab, order=3).fit(texts[:50])
before = rss()
lm = NgramLm(vocab, order=3).fit(texts)
print(rss() - before, sum(array.nbytes for table in lm._tables for array in table))
"""


@pytest.mark.skipif(not Path("/proc/self/statm").exists(), reason="needs /proc/self/statm")
def test_fit_leaves_only_its_tables_resident(retrieve_shape_texts, tmp_path):
    # The fit's temporaries are freed, and their pages go back to the system:
    # RSS grows by the tables' bytes and at most 1 MiB more. Before the
    # release it grew by 2.8-3.4 MiB more than the tables' 3.97 MiB; with
    # it, by 0.39 MiB more (glibc 2.36, numpy 2.4).
    if lm_module._malloc_trim() is None:
        pytest.skip("the C library has no malloc_trim")
    vocab, texts = retrieve_shape_texts
    with open(tmp_path / "texts.pkl", "wb") as fh:
        pickle.dump((vocab, np.concatenate(texts).astype(np.int32), list(map(len, texts))), fh)
    done = subprocess.run([sys.executable, "-c", _RESIDENCY_SCRIPT, str(tmp_path / "texts.pkl")],
                          env=env_with_src(), check=True, timeout=120, capture_output=True, text=True)
    growth, tables = map(int, done.stdout.split())
    assert growth <= tables + 2**20


# ---------------------------------------------------------------------------
# Remote adapter


# replies sent as they are, with status 200; JSON parses 1e999 as inf
_RAW_REPLIES = {
    "garbage": b"not json",
    "overflow": b'{"logprobs": [-1, -1, 1e999, -1, -1, -1, -1]}',
    "infinity": b'{"logprobs": [Infinity, -1, -1, -1, -1, -1, -1]}',
    "nan": b'{"logprobs": [-1, -1, -1, -1, -1, -1, NaN]}',
    "negative-overflow": b'{"logprobs": [-1, -1e999, -1, -1, -1, -1, -1]}',
}


class _Handler(BaseHTTPRequestHandler):
    """HTTP/1.0 scorer: the server closes the connection after every reply."""

    behavior = "uniform"
    vocab_size = 7
    connections = 0

    def setup(self):
        super().setup()
        type(self).connections += 1

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length)) if length else {}
        assert isinstance(body.get("context"), list)
        if self.behavior == "slow":
            time.sleep(1.0)
        # "error500" puts a well-formed body behind a failure status
        status = 500 if self.behavior == "error500" else 200
        if self.behavior == "uniform":
            payload = {"logprobs": [math.log(1 / self.vocab_size)] * self.vocab_size}
        elif self.behavior == "short":
            payload = {"logprobs": [0.0] * (self.vocab_size - 1)}
        elif self.behavior in _RAW_REPLIES:
            self.send_response(200)
            self.end_headers()
            self.wfile.write(_RAW_REPLIES[self.behavior])
            return
        else:
            payload = {"logprobs": [math.log(1 / self.vocab_size)] * self.vocab_size}
        data = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def remote_server():
    _Handler.connections = 0
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/"
    server.shutdown()
    server.server_close()


class TestRemote:
    def test_uniform_echo(self, remote_server):
        _Handler.behavior = "uniform"
        vector = RemoteLm(small_vocab(0), remote_server).next_logprobs([1, 2])
        assert np.allclose(vector, math.log(1 / 7))

    def test_vocabulary_mismatch(self, remote_server):
        _Handler.behavior = "short"
        with pytest.raises(VocabularyMismatchError):
            RemoteLm(small_vocab(0), remote_server).next_logprobs([])

    def test_malformed_response(self, remote_server):
        _Handler.behavior = "garbage"
        with pytest.raises(RemoteProtocolError):
            RemoteLm(small_vocab(0), remote_server).next_logprobs([])

    @pytest.mark.parametrize("behavior", ["overflow", "infinity", "nan"])
    def test_nan_or_positive_infinity_is_rejected(self, remote_server, behavior):
        _Handler.behavior = behavior
        with pytest.raises(RemoteProtocolError, match=f"^remote response from {remote_server} "
                                                      r"contains NaN or \+inf$"):
            RemoteLm(small_vocab(0), remote_server).next_logprobs([])

    def test_negative_infinity_is_floored(self, remote_server):
        _Handler.behavior = "negative-overflow"
        vector = RemoteLm(small_vocab(0), remote_server).next_logprobs([])
        assert vector.tolist() == [-1.0, LOG_FLOOR, -1.0, -1.0, -1.0, -1.0, -1.0]

    def test_timeout(self, remote_server):
        _Handler.behavior = "slow"
        start = time.monotonic()
        with pytest.raises(RemoteTimeoutError):
            RemoteLm(small_vocab(0), remote_server, timeout=0.2).next_logprobs([])
        assert time.monotonic() - start < 0.9

    def test_unreachable_endpoint(self):
        with pytest.raises(RemoteTimeoutError):
            RemoteLm(small_vocab(0), "http://127.0.0.1:1/", timeout=0.2).next_logprobs([])

    def test_remote_lm_scorer_shape(self, remote_server):
        _Handler.behavior = "uniform"
        vocab = small_vocab(0)
        lm = RemoteLm(vocab, remote_server, timeout=2.0)
        vector = lm.next_logprobs([0, 1])
        assert vector.shape == (7,)

    def test_failure_status_with_well_formed_body_is_rejected(self, remote_server):
        _Handler.behavior = "error500"
        with pytest.raises(RemoteProtocolError, match=f"{remote_server}.*500"):
            RemoteLm(small_vocab(0), remote_server).next_logprobs([])
        lm = RemoteLm(small_vocab(0), remote_server, timeout=2.0)
        with pytest.raises(RemoteProtocolError, match="500"):
            lm.next_logprobs([0])

    def test_closing_server_gets_one_connection_per_call(self, remote_server):
        _Handler.behavior = "uniform"
        lm = RemoteLm(small_vocab(0), remote_server, timeout=2.0)
        for i in range(20):
            assert np.allclose(lm.next_logprobs([i % 7]), math.log(1 / 7))
        assert _Handler.connections == 20

    def test_https_endpoint_speaks_tls(self, remote_server):
        # a TLS handshake against the plain-HTTP server fails as a transport error
        endpoint = remote_server.replace("http://", "https://")
        with pytest.raises(RemoteTimeoutError):
            RemoteLm(small_vocab(0), endpoint, timeout=2.0).next_logprobs([0])

    @pytest.mark.parametrize("endpoint", [
        "ftp://127.0.0.1/", "127.0.0.1:8000/", "localhost", "http:///score", "http://",
        "http://127.0.0.1:port/", "",
    ])
    def test_bad_endpoint_rejected_on_construction(self, endpoint):
        with pytest.raises(ValueError):
            RemoteLm(small_vocab(0), endpoint)

    @pytest.mark.parametrize("timeout", [0, -1, math.nan, math.inf])
    def test_timeout_not_finite_and_positive_rejected_on_construction(self, timeout):
        with pytest.raises(ValueError, match=f"^remote scorer timeout must be finite and > 0 "
                                             f"seconds, not {timeout!r}$"):
            RemoteLm(small_vocab(0), "http://127.0.0.1:1/", timeout=timeout)


def _assert_fails_within_half_a_second(endpoint):
    """A call with a 0.5 s timeout fails with a timeout well before 1 s."""
    lm = RemoteLm(small_vocab(0), endpoint, timeout=0.5)
    start = time.monotonic()
    try:
        with pytest.raises(RemoteTimeoutError, match=f"^remote scorer at {endpoint} "):
            lm.next_logprobs([1])
    finally:
        lm.close()
    assert time.monotonic() - start < 1.0


class TestKeepAlive:
    def test_one_connection_for_many_calls(self, keepalive_server):
        server, endpoint = keepalive_server()
        lm = RemoteLm(small_vocab(0), endpoint, timeout=2.0)
        try:
            for i in range(20):
                assert lm.next_logprobs([i % 7]).tolist() == context_vector([i % 7])
        finally:
            lm.close()
        assert (server.connections, server.requests) == (1, 20)

    def test_array_context_sends_the_list_context_body(self, keepalive_server):
        server, endpoint = keepalive_server()
        lm = RemoteLm(small_vocab(0), endpoint, timeout=2.0)
        try:
            from_list = lm.next_logprobs([0, 6, 3])
            from_array = lm.next_logprobs(np.array([0, 6, 3], dtype=np.int64))
            from_context = lm.next_logprobs(Context(7, [0, 6, 3]))
        finally:
            lm.close()
        assert server.bodies == [b'{"context": [0, 6, 3]}'] * 3
        assert from_array.tobytes() == from_list.tobytes()
        assert from_context.tobytes() == from_list.tobytes()
        assert from_list.tolist() == context_vector([0, 6, 3])

    def test_stale_socket_is_retried_once(self, keepalive_server):
        server, endpoint = keepalive_server("idle-close")
        lm = RemoteLm(small_vocab(0), endpoint, timeout=2.0)
        try:
            for i in range(5):
                assert lm.next_logprobs([i]).tolist() == context_vector([i])
        finally:
            lm.close()
        # every call after the first found its kept socket closed and reconnected once
        assert (server.connections, server.requests) == (5, 5)

    def test_dropped_connection_fails_after_two_attempts(self, keepalive_server):
        server, endpoint = keepalive_server("drop")
        lm = RemoteLm(small_vocab(0), endpoint, timeout=2.0)
        try:
            lm.next_logprobs([1])
            with pytest.raises(RemoteTimeoutError):
                lm.next_logprobs([2])
            # the reused socket and one fresh connection
            assert server.requests == 3
            with pytest.raises(RemoteTimeoutError):
                lm.next_logprobs([3])
            # a fresh connection is never retried
            assert server.requests == 4
        finally:
            lm.close()

    def test_dropping_server_fails_fresh_call_without_retry(self, keepalive_server):
        server, endpoint = keepalive_server("drop")
        server.requests = 1  # drop from the first request on
        with pytest.raises(RemoteTimeoutError):
            RemoteLm(small_vocab(0), endpoint, timeout=2.0).next_logprobs([])
        assert (server.connections, server.requests) == (1, 2)

    def test_timeout_on_reused_socket_is_not_retried(self, keepalive_server):
        server, endpoint = keepalive_server("slow")
        lm = RemoteLm(small_vocab(0), endpoint, timeout=0.2)
        try:
            lm.next_logprobs([1])
            start = time.monotonic()
            with pytest.raises(RemoteTimeoutError):
                lm.next_logprobs([2])
            assert time.monotonic() - start < 0.35
        finally:
            lm.close()
        assert (server.connections, server.requests) == (1, 2)

    def test_dripped_reply_fails_within_the_timeout(self, keepalive_server):
        _assert_fails_within_half_a_second(keepalive_server("drip")[1])

    def test_dripped_head_fails_within_the_timeout(self, keepalive_server):
        _assert_fails_within_half_a_second(keepalive_server("drip-head")[1])

    def test_threads_sharing_one_scorer(self, keepalive_server):
        server, endpoint = keepalive_server()
        lm = RemoteLm(small_vocab(0), endpoint, timeout=5.0)
        wrong = []

        def work(offset):
            for i in range(40):
                context = [offset, i % 7]
                if lm.next_logprobs(context).tolist() != context_vector(context):
                    wrong.append(context)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(offset,)) for offset in (0, 6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
            lm.close()
        assert wrong == []
        assert (server.connections, server.requests) == (1, 80)

    def test_call_after_close_reconnects(self, keepalive_server):
        server, endpoint = keepalive_server()
        lm = RemoteLm(small_vocab(0), endpoint, timeout=2.0)
        try:
            assert lm.next_logprobs([1]).tolist() == context_vector([1])
            lm.close()
            assert lm.next_logprobs([2]).tolist() == context_vector([2])
        finally:
            lm.close()
            lm.close()
        assert (server.connections, server.requests) == (2, 2)


def test_import_does_not_load_requests():
    subprocess.run([sys.executable, "-c", "import docidlm, sys; assert 'requests' not in sys.modules"],
                   env=env_with_src(), check=True, timeout=60)
