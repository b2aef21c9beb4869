"""Shared fixtures and oracles: tiny and benchmark corpora, random-instance generators, the
free-text grammar states, the dense DocID span score, a recording decode session and a
keep-alive scorer server."""

import importlib
import json
import random
import threading
import time
import traceback
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np
import pytest

from docidlm import decoder
from docidlm.constraints import GrammarState, Phase, Plan, allowed_mask, step
from docidlm.corpus import build_corpus, canonical_docid, make_document
from docidlm.tokens import (ANSWER_OPEN, DOCID_CLOSE, DOCID_OPEN, EOS, REF_CLOSE, REF_OPEN, UNK,
                            build_vocabulary)
from docidlm.training import build_reference_lm, make_retrieval_example
from docidlm.trie import ExclusionSet, build_trie


def corpus_from_rows(rows):
    """rows: iterable of (source_id, title, section, text)."""
    return build_corpus([make_document(*row) for row in rows])


@pytest.fixture
def tiny_corpus():
    return corpus_from_rows([
        ("1", "a", "x", "alpha beta gamma. delta epsilon."),
        ("2", "a", "y", "beta gamma delta. zeta eta."),
        ("3", "b", "z", "gamma delta epsilon. theta iota."),
    ])


@pytest.fixture
def tiny_vocab(tiny_corpus):
    return build_vocabulary(tiny_corpus, ["retrieve:", "answer:", "rag:"])


@pytest.fixture
def tiny_trie(tiny_corpus, tiny_vocab):
    return build_trie(tiny_corpus, tiny_vocab)


_TITLE_POOL = ["ant", "bee", "cat", "dog", "elk", "fox", "gnu", "hen", "ibis", "jay"]
_SECTION_POOL = ["one", "two", "three", "four", "five", "six"]
_WORD_POOL = [
    "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta",
    "iota", "kappa", "lam", "mu", "nu", "xi", "omicron", "pi",
]


def random_corpus(rng: random.Random, n_docs: int):
    """A corpus of n_docs documents with distinct (title, section) pairs."""
    pairs = set()
    rows = []
    i = 0
    while len(rows) < n_docs:
        title = " ".join(rng.sample(_TITLE_POOL, rng.randint(1, 2)))
        section = rng.choice(_SECTION_POOL)
        if (title, section) in pairs:
            continue
        pairs.add((title, section))
        body_sentences = [
            " ".join(rng.choices(_WORD_POOL, k=rng.randint(3, 7))) + "."
            for _ in range(rng.randint(1, 3))
        ]
        rows.append((str(i), title, section, " ".join(body_sentences)))
        i += 1
    return corpus_from_rows(rows)


# Pieces whose split depends on their neighbours: a capital sigma lowercases to
# the final form only at a word end, apostrophes, digits and underscores split
# or join runs, and NBSP is whitespace.
_TRICKY_POOL = [
    "ΟΔΟΣ", "Σ", "ΣΑ", "αΣ", "όΣ.", "ΑΣ'", "it's", "'quoted'", "x1_y2", "__init__", "3.14",
    "a\u00a0b", "\u00a0", "naïve", "ǅemal", "Ⅻ²", "—", "alpha", "beta", "",
]


def random_text(rng: random.Random, max_words: int = 6) -> str:
    """Pool pieces joined by a space, NBSP, newline or nothing."""
    text = ""
    for _ in range(rng.randint(0, max_words)):
        text += rng.choice(_TRICKY_POOL) + rng.choice([" ", " ", "\u00a0", "\n", ""])
    return text


def random_text_corpus(rng: random.Random, n_docs: int):
    """A corpus of tricky titles, sections (often empty) and bodies."""
    rows, seen = [], set()
    while len(rows) < n_docs:
        title = random_text(rng, 3) + rng.choice(["", "Σ", str(len(rows))])
        section = rng.choice(["", random_text(rng, 2)])
        if not title.split() or canonical_docid(title, section) in seen:
            continue
        seen.add(canonical_docid(title, section))
        rows.append((str(len(rows)), title, section, random_text(rng, 12)))
    return corpus_from_rows(rows)


def random_instance(rng: random.Random, n_docs: int, order: int = 3):
    """Corpus, vocabulary, trie, and an n-gram scorer fit on random texts."""
    corpus = random_corpus(rng, n_docs)
    queries = [
        " ".join(rng.choices(_WORD_POOL + _TITLE_POOL, k=rng.randint(2, 5)))
        for _ in range(3)
    ]
    vocab = build_vocabulary(corpus, ["retrieve:", "answer:", "rag:"] + queries)
    trie = build_trie(corpus, vocab)
    doc_ids = sorted(corpus.documents)
    examples = [
        make_retrieval_example(q, rng.sample(doc_ids, min(len(doc_ids), rng.randint(1, 4))))
        for q in queries
    ]
    lm = build_reference_lm(corpus, vocab, examples, order=order, alpha=0.1)
    return corpus, vocab, trie, lm, queries


def bench_corpus(*shape: int, seed: int):
    """The corpus of ``bench/corpusgen.py`` at ``CorpusShape(*shape)``, and its gold records."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        corpusgen = importlib.import_module("corpusgen")
    records, golds = corpusgen.generate(corpusgen.CorpusShape(*shape), seed=seed)
    return corpus_from_rows((r["id"], r["title"], r["section"], r["text"]) for r in records), golds


# ---------------------------------------------------------------------------
# Decoding oracles


def free_text_states(vocab_size: int) -> dict[str, tuple[GrammarState, list[int]]]:
    """Every state outside a DocID span, spent or not, by name, with the mask it allows:
    each under its phase's one cap and under a plan that caps everything."""
    words = list(range(UNK, vocab_size))
    caps = Plan(docids=2, refs=2, ref_tokens=3, answer_tokens=3)
    return {
        "list": (GrammarState(Phase.LIST, Plan(docids=3)), [DOCID_OPEN, EOS]),
        "list, every cap": (GrammarState(Phase.LIST, caps), [DOCID_OPEN, EOS]),
        "list spent": (GrammarState(Phase.LIST, Plan(docids=3), docids=3), [EOS]),
        "list spent, every cap": (GrammarState(Phase.LIST, caps, docids=2), [EOS]),
        "refs unbounded": (GrammarState(Phase.REFS), [REF_OPEN, ANSWER_OPEN]),
        "forced <ref>": (GrammarState(Phase.REFS, Plan(refs=2), docids=2), [REF_OPEN]),
        "forced <ref>, every cap": (GrammarState(Phase.REFS, caps, docids=2, refs=1), [REF_OPEN]),
        "forced <answer>": (GrammarState(Phase.REFS, Plan(refs=2), docids=2, refs=2), [ANSWER_OPEN]),
        "forced <answer>, every cap": (GrammarState(Phase.REFS, caps, docids=2, refs=2),
                                       [ANSWER_OPEN]),
        "reference": (GrammarState(Phase.REF, Plan(ref_tokens=4), length=1), [REF_CLOSE] + words),
        "reference, every cap": (GrammarState(Phase.REF, caps, length=2), [REF_CLOSE] + words),
        "reference at its cap": (GrammarState(Phase.REF, Plan(ref_tokens=4), length=4), [REF_CLOSE]),
        "reference at its cap, every cap": (GrammarState(Phase.REF, caps, length=3), [REF_CLOSE]),
        "answer": (GrammarState(Phase.ANSWER, Plan(answer_tokens=4)), [EOS] + words),
        "answer, every cap": (GrammarState(Phase.ANSWER, caps, length=2), [EOS] + words),
        "answer spent": (GrammarState(Phase.ANSWER, Plan(answer_tokens=4), length=4), [EOS]),
        "answer spent, every cap": (GrammarState(Phase.ANSWER, caps, length=3), [EOS]),
        "closed-book": (GrammarState(Phase.CLOSED_BOOK, Plan(answer_tokens=4)),
                        [ANSWER_OPEN, EOS] + words),
        "closed-book, every cap": (GrammarState(Phase.CLOSED_BOOK, caps, length=2),
                                   [ANSWER_OPEN, EOS] + words),
        "closed-book spent": (GrammarState(Phase.CLOSED_BOOK, Plan(answer_tokens=4), length=4), [EOS]),
        "closed-book spent, every cap": (GrammarState(Phase.CLOSED_BOOK, caps, length=3), [EOS]),
    }


def dense_span_term(vector: np.ndarray, allowed: np.ndarray, token: int) -> float:
    """``token``'s log-probability in ``vector`` renormalized over the ids ``allowed``,
    as a DocID span step adds it to the span's score."""
    assert token in allowed, f"token {token} not in the mask"
    values = vector[allowed]
    peak = float(values.max())
    return float(vector[token] - (peak + float(np.log(np.exp(values - peak).sum()))))


def oracle_span_scores(lm, trie, prompt, trace) -> list[float]:
    """The score of each DocID span of ``trace``, from the dense vector at every span step;
    the walk ends where the trace leaves the DocID list."""
    excl, context, scores = ExclusionSet(trie), list(prompt), []
    state = GrammarState(Phase.LIST)
    for token in trace:
        if state.phase is Phase.LIST and token != DOCID_OPEN:
            break
        if token == DOCID_OPEN:
            span_logprob = 0.0
        elif token == DOCID_CLOSE:
            excl.add(trie.docid_at(trie.node_at(state.span.inner_prefix)))
            scores.append(span_logprob)
        else:
            allowed = allowed_mask(state, trie, excl, lm.vocab.size)
            span_logprob += dense_span_term(lm.next_logprobs(context), allowed, token)
        context.append(token)
        state = step(state, token)
    return scores


class RecordingSession(decoder._Session):
    """A decode session that keeps every instance; patch it in as ``decoder._Session``."""

    made: list = []

    def __init__(self, *args):
        super().__init__(*args)
        self.made.append(self)


# ---------------------------------------------------------------------------
# A keep-alive scorer server


def context_vector(context, vocab_size=7):
    """A reply that depends on the context, so it can be matched to its request."""
    return [-(i + 1) / (1 + sum(context)) for i in range(vocab_size)]


class _KeepAliveHandler(BaseHTTPRequestHandler):
    """HTTP/1.1 scorer that counts connections and requests and answers
    :func:`context_vector` of each request's context.

    ``server.mode``: "serve" keeps every connection open; "idle-close"
    closes the socket after each reply without saying so, as a server does
    when a kept-alive connection idles out; "drop" answers the first request
    and drops every later one without a reply; "slow" answers the first
    request at once and every later one after a second, then closes, since
    by then the client has given up; "drip" sends the head at once and the
    body a byte every 50 ms, so each receive is quick but the reply is not;
    "drip-head" sends the head that way too.
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
        drip = self.server.mode in ("drip", "drip-head")
        data = json.dumps({"logprobs": context_vector(context, self.server.vocab_size)}).encode()
        try:
            if self.server.mode == "drip-head":
                self._drip(b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                           b"Content-Length: %d\r\n\r\n" % len(data) + data)
            else:
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                if drip:
                    self._drip(data)
                else:
                    self.wfile.write(data)
        except (BrokenPipeError, ConnectionResetError):
            if not (slow or drip):
                raise
        if self.server.mode == "idle-close" or slow or drip:
            self.close_connection = True

    def _drip(self, data):
        for i in range(len(data)):
            time.sleep(0.05)
            self.wfile.write(data[i : i + 1])

    def log_message(self, *args):
        pass


class _KeepAliveServer(ThreadingHTTPServer):
    """Closing waits for the handler threads; their errors are kept in ``errors``."""

    daemon_threads = False

    def __init__(self, mode, vocab_size):
        super().__init__(("127.0.0.1", 0), _KeepAliveHandler)
        self.mode, self.vocab_size = mode, vocab_size
        self.connections, self.requests, self.bodies = 0, 0, []
        self.lock = threading.Lock()
        self.errors = []

    def handle_error(self, request, client_address):
        self.errors.append(traceback.format_exc())


@pytest.fixture
def keepalive_server():
    """Start HTTP/1.1 servers by mode and vocabulary size; yields a function returning
    (server, endpoint). Closing checks that every handler thread ended without an error."""
    started = []

    def start(mode="serve", vocab_size=7):
        server = _KeepAliveServer(mode, vocab_size)
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
