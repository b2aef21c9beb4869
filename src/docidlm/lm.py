"""Next-token scorers: the LmScorer interface, a count-based n-gram
reference model, and an adapter for a remote model server.

Every scorer maps a token context to one log-probability per vocabulary id,
summing to 1 in probability space, deterministic, and floored at a finite
minimum so downstream sums never see -inf.
"""

from __future__ import annotations

import http.client
import json
import math
import socket
import threading
import time
from itertools import chain
from typing import Protocol, Sequence
from urllib.parse import urlsplit

import numpy as np

from .tokens import Vocabulary

LOG_FLOOR = math.log(1e-12)
DEFAULT_ORDER = 3
DEFAULT_ALPHA = 0.1


class RemoteError(RuntimeError):
    """Base class for remote scorer failures; no silent fallback."""


class RemoteTimeoutError(RemoteError):
    """Endpoint unreachable, connection lost, or no response within the deadline."""


class RemoteProtocolError(RemoteError):
    """Response was not the expected logprobs payload."""


class VocabularyMismatchError(RemoteError):
    """Remote vector length differs from the local vocabulary size."""


class LmScorer(Protocol):
    """Interface all decoding and loss evaluation is generic over."""

    vocab: Vocabulary

    def next_logprobs(self, context: Sequence[int]) -> np.ndarray: ...


def _check_tokens(vocab_size: int, tokens: Sequence[int]) -> None:
    if len(tokens) and (min(tokens) < 0 or max(tokens) >= vocab_size):
        token = next(token for token in tokens if not 0 <= token < vocab_size)
        raise ValueError(f"context token id {token} outside vocabulary of size {vocab_size}")


class Context(Sequence[int]):
    """Append-only token sequence whose tokens are range-checked on entry.

    Scorers read it like a list. A scorer whose vocabulary has the size it
    was checked against trusts it instead of rescanning it on every call.
    """

    def __init__(self, vocab_size: int, tokens: Sequence[int] = ()):
        self.vocab_size = vocab_size
        self._tokens: list[int] = []
        self.extend(tokens)

    def extend(self, tokens: Sequence[int]) -> None:
        """Append ``tokens``; if any is out of range, raise and append none."""
        _check_tokens(self.vocab_size, tokens)
        self._tokens.extend(tokens)

    def __len__(self) -> int:
        return len(self._tokens)

    def __getitem__(self, index):
        return self._tokens[index]

    def __iter__(self):
        return iter(self._tokens)


def _check_context(vocab_size: int, context: Sequence[int]) -> None:
    if not (isinstance(context, Context) and context.vocab_size == vocab_size):
        _check_tokens(vocab_size, context)


class UniformLm:
    """Assigns every token the same probability; handy as a fixture."""

    def __init__(self, vocab: Vocabulary):
        self.vocab = vocab
        self._vector = np.full(vocab.size, -math.log(vocab.size))

    def next_logprobs(self, context: Sequence[int]) -> np.ndarray:
        _check_context(self.vocab.size, context)
        return self._vector.copy()


class NgramLm:
    """Add-alpha smoothed n-gram model with longest-match backoff.

    Prediction uses the longest context suffix (down to the empty context)
    that occurred in training; the next-token distribution over that context
    is (count + alpha) / (total + alpha * V). A context nobody has seen falls
    all the way through to the uniform alpha / (alpha * V) = 1/V case.
    """

    def __init__(self, vocab: Vocabulary, order: int = DEFAULT_ORDER, alpha: float = DEFAULT_ALPHA):
        if order < 1:
            raise ValueError("n-gram order must be >= 1")
        if not (math.isfinite(alpha) and alpha > 0):
            raise ValueError(f"smoothing constant alpha must be finite and > 0, not {alpha!r}")
        if vocab.size == 0:
            raise ValueError("vocabulary is empty")
        self.vocab = vocab
        self.order = order
        self.alpha = alpha
        # One table per context length c, over the distinct length-c contexts
        # ("groups") in ascending key order. A group's key is the group index
        # of its last c-1 tokens at length c-1, times V, plus its first
        # token, so a context is found from its last token backwards. Group
        # g's next-token ids are ids[starts[g]:starts[g + 1]], with
        # log(count + alpha) in log_counts, and totals[g] counts them all.
        self._tables: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []

    def fit(self, texts: Sequence[Sequence[int]]) -> "NgramLm":
        """Count every (context, next token) pair; replaces any earlier fit.

        Each context length is counted by sorting the (key, next token)
        columns of every position that has that much history, so no Python
        code runs per n-gram.
        """
        lengths = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
        flat = np.fromiter(chain.from_iterable(texts), dtype=np.int64, count=int(lengths.sum()))
        bad = np.flatnonzero((flat < 0) | (flat >= self.vocab.size))
        if len(bad):
            raise ValueError(f"context token id {flat[bad[0]]} outside vocabulary "
                             f"of size {self.vocab.size}")
        # each position's offset within its text: the context length it can have
        offset = np.arange(len(flat)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        # each position's context group at the length counted last
        group = np.zeros(len(flat), dtype=np.int64)
        tables = []
        for c in range(self.order):
            positions = np.flatnonzero(offset >= c)
            keys = group[positions]
            if c:
                keys *= self.vocab.size
                keys += flat[positions - c]
            nexts = flat[positions]
            order = np.lexsort((nexts, keys))
            keys, nexts, positions = keys[order], nexts[order], positions[order]
            # a run is one (context, next token) pair; a group is one context
            new_group = np.ones(len(keys), dtype=bool)
            new_group[1:] = keys[1:] != keys[:-1]
            new_run = new_group.copy()
            new_run[1:] |= nexts[1:] != nexts[:-1]
            runs = np.flatnonzero(new_run)
            counts = np.diff(np.append(runs, len(keys)))
            group_runs = np.flatnonzero(new_group[runs])
            group[positions] = np.cumsum(new_group) - 1
            tables.append((keys[runs[group_runs]], np.append(group_runs, len(runs)),
                           np.add.reduceat(counts, group_runs), nexts[runs],
                           np.log(counts + self.alpha)))
        self._tables = tables
        return self

    def _lookup(self, context: Sequence[int]) -> tuple[np.ndarray, np.ndarray, int]:
        """The table of the longest seen suffix of ``context``."""
        history = context[max(0, len(context) - (self.order - 1)) :]
        tables = self._tables
        if not (tables and len(tables[0][2])):  # no fit, or one on no tokens
            return np.empty(0, dtype=np.int64), np.empty(0), 0
        table, group = tables[0], 0
        for c in range(1, len(history) + 1):
            keys = tables[c][0]
            key = group * self.vocab.size + history[-c]
            found = int(keys.searchsorted(key))
            if found == len(keys) or keys[found] != key:
                break
            table, group = tables[c], found
        _, starts, totals, ids, log_counts = table
        lo, hi = starts[group], starts[group + 1]
        return ids[lo:hi], log_counts[lo:hi], int(totals[group])

    def next_logprobs(self, context: Sequence[int]) -> np.ndarray:
        _check_context(self.vocab.size, context)
        ids, log_counts, total = self._lookup(context)
        denom = math.log(total + self.alpha * self.vocab.size)
        # clamping before the fill equals clamping the filled vector
        vector = np.full(self.vocab.size, max(math.log(self.alpha) - denom, LOG_FLOOR))
        vector[ids] = np.maximum(log_counts - denom, LOG_FLOOR)
        return vector


def train_ngram(vocab: Vocabulary, texts: Sequence[Sequence[int]],
                order: int = DEFAULT_ORDER, alpha: float = DEFAULT_ALPHA) -> NgramLm:
    """Count every k-gram (k <= order) in ``texts`` and return the model."""
    return NgramLm(vocab, order=order, alpha=alpha).fit(texts)


_CONNECTION_CLASSES = {"http": http.client.HTTPConnection, "https": http.client.HTTPSConnection}
_JSON_HEADERS = {"Content-Type": "application/json"}
# The server closed a kept-alive socket before answering
# (http.client.RemoteDisconnected is a ConnectionResetError).
_STALE_SOCKET = (BrokenPipeError, ConnectionResetError)


class RemoteLm:
    """LmScorer backed by a network endpoint speaking the logprobs protocol.

    Protocol: POST ``{"context": [int, ...]}`` as JSON; the reply must have a
    2xx status and the body ``{"logprobs": [float, ...]}`` with exactly one
    entry per vocabulary id, none of them NaN or +inf. The endpoint is
    checked on construction, and ``timeout`` bounds each call as a whole.

    Each scorer owns one connection, which calls from any thread take in
    turn. A server that keeps it alive (HTTP/1.1 without ``Connection:
    close``) is reached over the same socket on every call; any other server
    gets a fresh connect per call. A reused socket the server has since
    closed is retried once on a fresh connection; nothing else is retried.
    """

    def __init__(self, vocab: Vocabulary, endpoint: str, timeout: float = 30.0):
        parts = urlsplit(endpoint)
        connection_class = _CONNECTION_CLASSES.get(parts.scheme)
        if connection_class is None or not parts.hostname:
            raise ValueError(f"remote scorer endpoint {endpoint!r} is not an "
                             "http:// or https:// URL with a host")
        self.vocab = vocab
        self._endpoint = endpoint
        self._timeout = timeout
        # http.client connects on the first request, and again after close()
        self._connection = connection_class(
            parts.hostname, parts.port or connection_class.default_port, timeout=timeout)
        self._target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        self._lock = threading.Lock()

    def next_logprobs(self, context: Sequence[int]) -> np.ndarray:
        _check_context(self.vocab.size, context)
        endpoint = self._endpoint
        # default=int writes numpy integer ids as JSON ints; list contexts are unaffected
        body = json.dumps({"context": list(context)}, default=int).encode()
        status, data = self._post(body)
        if not 200 <= status < 300:
            raise RemoteProtocolError(f"remote scorer at {endpoint} answered HTTP status {status}")
        try:
            vector = np.asarray(json.loads(data)["logprobs"], dtype=np.float64)
        except (ValueError, KeyError, TypeError) as exc:
            raise RemoteProtocolError(f"malformed response from {endpoint}: {exc}") from exc
        if vector.ndim != 1 or len(vector) != self.vocab.size:
            raise VocabularyMismatchError(
                f"remote returned {vector.shape} logprobs, local vocabulary has {self.vocab.size}"
            )
        # NaN compares false too
        if not (vector < math.inf).all():
            raise RemoteProtocolError(f"remote response from {endpoint} contains NaN or +inf")
        return np.maximum(vector, LOG_FLOOR)

    def _post(self, body: bytes) -> tuple[int, bytes]:
        """Send ``body``; return the reply's status and body, all within the timeout."""
        with self._lock:
            deadline = time.monotonic() + self._timeout
            reused = self._connection.sock is not None
            try:
                try:
                    response, sock = self._send(body, deadline)
                except _STALE_SOCKET:
                    if not reused:
                        raise
                    self._connection.close()
                    response, sock = self._send(body, deadline)
                return response.status, self._receive(response, sock, deadline)
            except OSError as exc:
                self._connection.close()
                raise RemoteTimeoutError(
                    f"remote scorer at {self._endpoint} unreachable: {exc}") from exc
            except http.client.HTTPException as exc:
                self._connection.close()
                raise RemoteProtocolError(
                    f"malformed response from {self._endpoint}: {exc}") from exc

    def _time_left(self, deadline: float) -> float:
        left = deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError(f"no full reply within the {self._timeout} s timeout")
        return left

    def _send(self, body: bytes,
              deadline: float) -> tuple[http.client.HTTPResponse, socket.socket]:
        """Send ``body`` and read the reply's head; return the reply and its socket."""
        connection = self._connection
        connection.timeout = self._time_left(deadline)  # read by a connect
        if connection.sock is not None:
            connection.sock.settimeout(connection.timeout)
        connection.request("POST", self._target, body, _JSON_HEADERS)
        # taken now: a reply that closes the connection leaves connection.sock None
        sock = connection.sock
        sock.settimeout(self._time_left(deadline))
        return connection.getresponse(), sock

    def _receive(self, response: http.client.HTTPResponse, sock: socket.socket,
                 deadline: float) -> bytes:
        """The reply's body, read one receive at a time, each given the time left."""
        chunks = []
        while True:
            sock.settimeout(self._time_left(deadline))
            chunk = response.read1()
            if not chunk:
                break
            chunks.append(chunk)
        response.close()  # the body is read: the connection may send again
        return b"".join(chunks)

    def close(self) -> None:
        """Close the connection; a later call connects afresh."""
        with self._lock:
            self._connection.close()
