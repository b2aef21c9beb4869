import importlib
import json
import math
import os
import random
import subprocess
import sys
import threading
import time
import traceback
import tracemalloc
from http.server import BaseHTTPRequestHandler, HTTPServer, ThreadingHTTPServer
from pathlib import Path

import numpy as np
import pytest

from docidlm.corpus import build_corpus, make_document
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
            seen = [t[max(0, j - order + 1) : j] for t in texts for j in range(len(t) + 1)]
            fresh = [[rng.randrange(0, vocab.size) for _ in range(rng.randint(0, 5))]
                     for _ in range(30)]
            for context in seen + fresh:
                assert lm.next_logprobs(context).tobytes() == oracle(context).tobytes()

    def test_fit_on_nothing_is_uniform(self):
        vocab = small_vocab(3)
        unfitted = NgramLm(vocab, order=3).next_logprobs([7, 8])
        assert unfitted.tobytes() == oracle_fit(vocab, [], 3)([7, 8]).tobytes()
        for texts in ([], [[]], [[], []]):
            lm = NgramLm(vocab, order=3).fit(texts)
            assert lm.next_logprobs([7, 8]).tobytes() == oracle_fit(vocab, texts, 3)([7, 8]).tobytes()
            assert np.allclose(lm.next_logprobs([]), math.log(1 / vocab.size))

    def test_refit_replaces_the_model(self):
        vocab = small_vocab(4)
        a, b, c, d = 7, 8, 9, 10
        refit = NgramLm(vocab, order=2).fit([[a, b]]).fit([[c, d]])
        fresh = NgramLm(vocab, order=2).fit([[c, d]])
        for context in ([a], [c], [d], []):
            assert refit.next_logprobs(context).tobytes() == fresh.next_logprobs(context).tobytes()

    @pytest.mark.parametrize("bad", [-1, 12, 99])
    def test_fit_rejects_out_of_range_token(self, bad):
        vocab = small_vocab(5)  # size 12
        lm = NgramLm(vocab, order=2).fit([[7, 8]])
        before = lm.next_logprobs([7]).tobytes()
        with pytest.raises(ValueError, match=f"^context token id {bad} outside vocabulary of size 12$"):
            lm.fit([[7, 8], [], [9, bad, 10, -5]])
        assert lm.next_logprobs([7]).tobytes() == before


@pytest.fixture(scope="module")
def bench_texts():
    """Vocabulary and body token texts of a 600-DocID benchmark corpus."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        corpusgen = importlib.import_module("corpusgen")
    records, golds = corpusgen.generate(corpusgen.CorpusShape(600, 40, 4, 600, 300), seed=5)
    corpus = build_corpus([make_document(r["id"], r["title"], r["section"], r["text"])
                           for r in records])
    vocab = build_vocabulary(corpus, [gold["input"] for gold in golds])
    return vocab, [encode(vocab, doc.body) for doc in corpus.documents.values()]


class TestArrayTablesAtScale:
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_sampled_contexts_bitwise(self, bench_texts, order):
        vocab, texts = bench_texts
        lm = train_ngram(vocab, texts, order=order)
        oracle = oracle_fit(vocab, texts, order)
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
        assert len(contexts) > 3500 / 4
        for context in contexts:
            assert lm.next_logprobs(context).tobytes() == oracle(context).tobytes()

    def test_fit_retains_under_48_bytes_per_distinct_ngram(self):
        # a seeded Zipf corpus of 200k tokens over 5k words, in 5k texts
        vocab = small_vocab(5000)
        rng = np.random.default_rng(17)
        weights = 1.0 / np.arange(1, vocab.size + 1)
        flat = rng.choice(vocab.size, size=200_000, p=weights / weights.sum())
        cuts = np.sort(rng.choice(np.arange(1, len(flat)), size=4999, replace=False))
        texts = [chunk.tolist() for chunk in np.split(flat, cuts)]
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


def _context_vector(context, vocab_size=7):
    """A reply that depends on the context, so it can be matched to its request."""
    return [-(i + 1) / (1 + sum(context)) for i in range(vocab_size)]


class _KeepAliveHandler(BaseHTTPRequestHandler):
    """HTTP/1.1 scorer that counts connections and requests.

    ``server.mode``: "serve" keeps every connection open; "idle-close"
    closes the socket after each reply without saying so, as a server does
    when a kept-alive connection idles out; "drop" answers the first request
    and drops every later one without a reply; "slow" answers the first
    request at once and every later one after a second, then closes, since
    by then the client has given up; "drip" sends the head at once and the
    body a byte every 50 ms, so each receive is quick but the reply is not.
    """

    protocol_version = "HTTP/1.1"
    # headers and body go out in two writes; Nagle would hold the body back
    # until the client's delayed acknowledgement of the headers
    disable_nagle_algorithm = True

    def setup(self):
        super().setup()
        with self.server.lock:
            self.server.connections += 1

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        context = json.loads(body)["context"]
        with self.server.lock:
            self.server.bodies.append(body)
            self.server.requests += 1
            first = self.server.requests == 1
        if self.server.mode == "drop" and not first:
            self.close_connection = True
            return
        slow = self.server.mode == "slow" and not first
        if slow:
            time.sleep(1.0)
        drip = self.server.mode == "drip"
        data = json.dumps({"logprobs": _context_vector(context)}).encode()
        try:
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            if drip:
                for i in range(len(data)):
                    time.sleep(0.05)
                    self.wfile.write(data[i : i + 1])
            else:
                self.wfile.write(data)
        except (BrokenPipeError, ConnectionResetError):
            if not (slow or drip):
                raise
        if self.server.mode == "idle-close" or slow or drip:
            self.close_connection = True

    def log_message(self, *args):
        pass


class _KeepAliveServer(ThreadingHTTPServer):
    """Closing waits for the handler threads; their errors are kept in ``errors``."""

    daemon_threads = False

    def __init__(self, mode):
        super().__init__(("127.0.0.1", 0), _KeepAliveHandler)
        self.mode, self.connections, self.requests, self.bodies = mode, 0, 0, []
        self.lock = threading.Lock()
        self.errors = []

    def handle_error(self, request, client_address):
        self.errors.append(traceback.format_exc())


@pytest.fixture
def keepalive_server():
    """Start HTTP/1.1 servers by mode; yields a function returning (server, endpoint)."""
    started = []

    def start(mode="serve"):
        server = _KeepAliveServer(mode)
        thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
        thread.start()
        started.append((server, thread))
        return server, f"http://127.0.0.1:{server.server_port}/score"

    yield start
    for server, thread in started:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert server.errors == []


class TestKeepAlive:
    def test_one_connection_for_many_calls(self, keepalive_server):
        server, endpoint = keepalive_server()
        lm = RemoteLm(small_vocab(0), endpoint, timeout=2.0)
        try:
            for i in range(20):
                assert lm.next_logprobs([i % 7]).tolist() == _context_vector([i % 7])
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
        assert from_list.tolist() == _context_vector([0, 6, 3])

    def test_stale_socket_is_retried_once(self, keepalive_server):
        server, endpoint = keepalive_server("idle-close")
        lm = RemoteLm(small_vocab(0), endpoint, timeout=2.0)
        try:
            for i in range(5):
                assert lm.next_logprobs([i]).tolist() == _context_vector([i])
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
        server, endpoint = keepalive_server("drip")
        lm = RemoteLm(small_vocab(0), endpoint, timeout=0.5)
        start = time.monotonic()
        try:
            with pytest.raises(RemoteTimeoutError, match=f"^remote scorer at {endpoint} "):
                lm.next_logprobs([1])
        finally:
            lm.close()
        assert time.monotonic() - start < 1.0

    def test_threads_sharing_one_scorer(self, keepalive_server):
        server, endpoint = keepalive_server()
        lm = RemoteLm(small_vocab(0), endpoint, timeout=5.0)
        wrong = []

        def work(offset):
            for i in range(40):
                context = [offset, i % 7]
                if lm.next_logprobs(context).tolist() != _context_vector(context):
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
            assert lm.next_logprobs([1]).tolist() == _context_vector([1])
            lm.close()
            assert lm.next_logprobs([2]).tolist() == _context_vector([2])
        finally:
            lm.close()
            lm.close()
        assert (server.connections, server.requests) == (2, 2)


def test_import_does_not_load_requests():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-c", "import docidlm, sys; assert 'requests' not in sys.modules"],
                   env=env, check=True, timeout=60)
