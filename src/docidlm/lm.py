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
import threading
from functools import partial
from itertools import chain, repeat
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
        # Per context length c: the next-token ids and log(count + alpha) of
        # each, grouped by context; a context tuple maps to (c, start, end,
        # total count), and its table is ids[c][start:end] with
        # log_counts[c][start:end].
        self._ids: list[np.ndarray] = []
        self._log_counts: list[np.ndarray] = []
        self._index: dict[tuple[int, ...], tuple[int, int, int, int]] = {}

    def fit(self, texts: Sequence[Sequence[int]]) -> "NgramLm":
        """Count every (context, next token) pair; replaces any earlier fit.

        Each context length is counted by sorting the (context, next token)
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
        self._ids, self._log_counts, self._index = [], [], {}
        for c in range(self.order):
            ids, counts = self._count_context_length(flat, np.flatnonzero(offset >= c), c)
            self._ids.append(ids)
            self._log_counts.append(np.log(counts + self.alpha))
        return self

    def _count_context_length(self, flat: np.ndarray, positions: np.ndarray,
                              c: int) -> tuple[np.ndarray, np.ndarray]:
        """Tables of every length-``c`` context; fills ``self._index``."""
        columns = [flat[positions - c + i] for i in range(c)] + [flat[positions]]
        order = np.lexsort(columns[::-1])
        columns = [column[order] for column in columns]
        del order
        # a run is one (context, next token) pair; a group is one context
        new_group = np.zeros(len(positions), dtype=bool)
        new_group[:1] = True
        for column in columns[:-1]:
            new_group[1:] |= column[1:] != column[:-1]
        new_run = new_group.copy()
        new_run[1:] |= columns[-1][1:] != columns[-1][:-1]
        runs = np.flatnonzero(new_run)
        counts = np.diff(np.append(runs, len(positions)))
        ids = columns[-1][runs]
        group_runs = np.flatnonzero(new_group[runs])
        totals = np.add.reduceat(counts, group_runs)
        ends = np.append(group_runs[1:], len(runs))
        # zip stops at the shorter side, so the empty context of no text adds nothing
        keys = zip(*(column[runs[group_runs]].tolist() for column in columns[:-1])) if c else [()]
        self._index.update(zip(keys, zip(repeat(c), group_runs.tolist(), ends.tolist(),
                                         totals.tolist())))
        return ids, counts

    def _lookup(self, context: Sequence[int]) -> tuple[np.ndarray, np.ndarray, int]:
        history = tuple(context[max(0, len(context) - (self.order - 1)) :])
        for start in range(len(history) + 1):
            entry = self._index.get(history[start:])
            if entry is not None:
                c, lo, hi, total = entry
                return self._ids[c][lo:hi], self._log_counts[c][lo:hi], total
        return np.empty(0, dtype=np.int64), np.empty(0), 0

    def next_logprobs(self, context: Sequence[int]) -> np.ndarray:
        _check_context(self.vocab.size, context)
        ids, log_counts, total = self._lookup(context)
        denom = math.log(total + self.alpha * self.vocab.size)
        vector = np.full(self.vocab.size, math.log(self.alpha) - denom)
        if len(ids):
            vector[ids] = log_counts - denom
        return np.maximum(vector, LOG_FLOOR)


def train_ngram(vocab: Vocabulary, texts: Sequence[Sequence[int]],
                order: int = DEFAULT_ORDER, alpha: float = DEFAULT_ALPHA) -> NgramLm:
    """Count every k-gram (k <= order) in ``texts`` and return the model."""
    return NgramLm(vocab, order=order, alpha=alpha).fit(texts)


_CONNECTION_CLASSES = {"http": http.client.HTTPConnection, "https": http.client.HTTPSConnection}
_JSON_HEADERS = {"Content-Type": "application/json"}
# The server closed a kept-alive socket before answering
# (http.client.RemoteDisconnected is a ConnectionResetError).
_STALE_SOCKET = (BrokenPipeError, ConnectionResetError)


class _Transport:
    """POSTs JSON bodies to one endpoint over one connection per thread.

    A server that keeps the connection alive (HTTP/1.1 without
    ``Connection: close``) is reached over the same socket on every call; any
    other server gets a fresh connect per call. A reused socket the server has
    since closed is retried once on a fresh connection; nothing else is
    retried.
    """

    def __init__(self, endpoint: str, timeout: float):
        parts = urlsplit(endpoint)
        connection_class = _CONNECTION_CLASSES.get(parts.scheme)
        if connection_class is None or not parts.hostname:
            raise ValueError(f"remote scorer endpoint {endpoint!r} is not an "
                             "http:// or https:// URL with a host")
        self.endpoint = endpoint
        self._connect = partial(connection_class, parts.hostname,
                                parts.port or connection_class.default_port, timeout=timeout)
        self._target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        self._lock = threading.Lock()
        self._connections: dict[threading.Thread, http.client.HTTPConnection] = {}

    def _connection(self) -> http.client.HTTPConnection:
        """The calling thread's connection; closes those of finished threads."""
        thread = threading.current_thread()
        connection = self._connections.get(thread)
        if connection is None:
            connection = self._connect()
            with self._lock:
                for finished in [t for t in self._connections if not t.is_alive()]:
                    self._connections.pop(finished).close()
                self._connections[thread] = connection
        return connection

    def post(self, body: bytes) -> tuple[int, bytes]:
        """Send ``body``; return the reply's status and body."""
        connection = self._connection()
        reused = connection.sock is not None
        try:
            try:
                response = self._send(connection, body)
            except _STALE_SOCKET:
                if not reused:
                    raise
                connection.close()
                response = self._send(connection, body)
            return response.status, response.read()
        except OSError as exc:
            connection.close()
            raise RemoteTimeoutError(f"remote scorer at {self.endpoint} unreachable: {exc}") from exc
        except http.client.HTTPException as exc:
            connection.close()
            raise RemoteProtocolError(f"malformed response from {self.endpoint}: {exc}") from exc

    def _send(self, connection: http.client.HTTPConnection,
              body: bytes) -> http.client.HTTPResponse:
        connection.request("POST", self._target, body, _JSON_HEADERS)
        return connection.getresponse()

    def close(self) -> None:
        """Close every thread's connection; the next call connects afresh."""
        with self._lock:
            connections, self._connections = list(self._connections.values()), {}
        for connection in connections:
            connection.close()


class RemoteLm:
    """LmScorer backed by a network endpoint speaking the logprobs protocol.

    Protocol: POST ``{"context": [int, ...]}`` as JSON; the reply must have a
    2xx status and the body ``{"logprobs": [float, ...]}`` with exactly one
    entry per vocabulary id. The endpoint is checked on construction. Each
    thread keeps one connection to it; ``close`` closes them all.
    """

    def __init__(self, vocab: Vocabulary, endpoint: str, timeout: float = 30.0):
        self.vocab = vocab
        self._transport = _Transport(endpoint, timeout)

    def next_logprobs(self, context: Sequence[int]) -> np.ndarray:
        _check_context(self.vocab.size, context)
        endpoint = self._transport.endpoint
        # default=int writes numpy integer ids as JSON ints; list contexts are unaffected
        body = json.dumps({"context": list(context)}, default=int).encode()
        status, data = self._transport.post(body)
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
        if np.isnan(vector).any():
            raise RemoteProtocolError(f"remote response from {endpoint} contains NaN")
        return np.maximum(vector, LOG_FLOOR)

    def close(self) -> None:
        """Close every thread's connection; a later call connects afresh."""
        self._transport.close()
