"""Next-token scorers: the LmScorer interface, a count-based n-gram
reference model, and an adapter for a remote model server.

Every scorer maps a token context to one log-probability per vocabulary id,
summing to 1 in probability space, deterministic, and floored at a finite
minimum so downstream sums never see -inf. A scorer may also give that
distribution as a sparse row (``next_row``): one fill value plus the ids it
lists. The n-gram scorer does; :func:`row_scorer` reads any other scorer's
vector as a row that lists every id.
"""

from __future__ import annotations

import bisect
import ctypes
import functools
import http.client
import io
import json
import math
import socket
import threading
import time
from typing import Callable, Protocol, Sequence
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


Row = tuple[float, np.ndarray, np.ndarray]
"""A next-token distribution as ``(fill, ids, values)``: the ascending ids it
lists with their log-probabilities, and the log-probability of every other id."""


def expand_row(row: Row, size: int) -> np.ndarray:
    """The row as a vocabulary-sized vector."""
    fill, ids, values = row
    vector = np.full(size, fill)
    vector[ids] = values
    return vector


@functools.lru_cache(maxsize=8)
def _every_id(size: int) -> np.ndarray:
    ids = np.arange(size, dtype=np.int64)
    ids.flags.writeable = False
    return ids


def row_scorer(lm: LmScorer) -> Callable[[Sequence[int]], Row]:
    """``lm``'s ``next_row`` method, or one that reads its dense vector as a row listing every id."""
    next_row = getattr(lm, "next_row", None)
    if next_row is not None:
        return next_row

    def dense_row(context: Sequence[int]) -> Row:
        vector = lm.next_logprobs(context)
        return -math.inf, _every_id(len(vector)), vector

    return dense_row


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

    def append(self, token: int) -> None:
        """Append one token; if it is out of range, raise and append nothing."""
        if not 0 <= token < self.vocab_size:
            _check_tokens(self.vocab_size, [token])
        self._tokens.append(token)

    def __len__(self) -> int:
        return len(self._tokens)

    def __getitem__(self, index):
        return self._tokens[index]

    def __iter__(self):
        return iter(self._tokens)


def _check_context(vocab_size: int, context: Sequence[int]) -> Sequence[int]:
    """The tokens of ``context``, range-checked unless a ``Context`` of this size checked them."""
    if isinstance(context, Context) and context.vocab_size == vocab_size:
        return context._tokens
    _check_tokens(vocab_size, context)
    return context


class UniformLm:
    """Assigns every token the same probability; handy as a fixture."""

    def __init__(self, vocab: Vocabulary):
        self.vocab = vocab
        self._vector = np.full(vocab.size, -math.log(vocab.size))

    def next_logprobs(self, context: Sequence[int]) -> np.ndarray:
        _check_context(self.vocab.size, context)
        return self._vector.copy()


_CHUNK = 1 << 14  # pairs whose values one step of the fit finishes
_TABLED = 1 << 14  # group totals below this read their denominator from a table


def _denominators(totals: np.ndarray, alpha: float, size: int) -> np.ndarray:
    """``log(total + alpha * size)`` for each group total, rounded as ``math.log`` rounds.

    ``math.log`` runs once per distinct total below _TABLED, and those groups
    read a table. A length's totals sum to at most its token count, so few
    groups reach _TABLED; each of those takes its own ``math.log``.
    """
    small = np.minimum(totals, _TABLED)
    table = np.empty(_TABLED + 1)
    distinct = np.flatnonzero(np.bincount(small)[:_TABLED])
    table[distinct] = [math.log(total + alpha * size) for total in distinct.tolist()]
    denoms = table[small]
    for group in np.flatnonzero(small == _TABLED).tolist():
        denoms[group] = math.log(int(totals[group]) + alpha * size)
    return denoms


_TEXTS = 1 << 12  # texts whose ids one step of the fit range-checks as int64


def _token_array(texts: Sequence[Sequence[int]], total: int, size: int) -> np.ndarray:
    """The ids of ``texts`` end to end as int32, each checked against ``size`` before it is narrowed."""
    tokens = np.empty(total, dtype=np.int32)
    end = 0
    for lo in range(0, len(texts), _TEXTS):
        # cast as np.asarray(text, dtype=np.int64) casts (an empty list reads as float64)
        part = np.concatenate([np.empty(0, dtype=np.int64), *texts[lo : lo + _TEXTS]],
                              dtype=np.int64, casting="unsafe")
        bad = np.flatnonzero((part < 0) | (part >= size))
        if len(bad):
            raise ValueError(f"context token id {part[bad[0]]} outside vocabulary of size {size}")
        tokens[end : end + len(part)] = part
        end += len(part)
    return tokens


@functools.cache
def _malloc_trim() -> Callable[[int], int] | None:
    """The C library's ``malloc_trim`` (glibc), or None where it has none."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):  # no such symbol, or no C library to open
        return None
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return trim


def _release_freed_memory() -> None:
    """Give the pages of freed heap memory back to the system, where the C library can.

    glibc serves a block below its mmap threshold from the heap, and raises
    that threshold to the size of each mmapped block freed. So once the fit
    frees its first large array, the later ones, and the tables it keeps,
    come from the heap, and the pages the freed ones held stay resident.
    ``malloc_trim(0)`` returns every free page of every heap to the system.
    This acts on the whole process, not only on the fit's memory: it changes
    no allocator setting, and live memory is untouched, but freed pages of
    other code go back too, and their next use faults them in again. Where
    the C library has no ``malloc_trim``, this does nothing.
    """
    trim = _malloc_trim()
    if trim is not None:
        trim(0)


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
        # token, so a context is found from its last token backwards. At
        # length 1 the key is the token itself, and the table holds, in
        # place of its keys, a dense int32 table of V entries giving each
        # token's group or -1. Group g's next-token ids are
        # ids[starts[g]:starts[g + 1]], with their final log-probabilities
        # (floor clamp applied) in values, and fills[g] is the value of
        # every id it does not list. A lookup reads each table as _views
        # holds it: keys, starts and fills as zero-copy memoryviews, which
        # give Python ints and floats, not numpy scalars.
        self._tables: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
        self._views: list[tuple] = []
        # every context's row while nothing is fit: the uniform 1/V case
        self._unseen_row = (max(math.log(alpha) - math.log(alpha * vocab.size), LOG_FLOOR),
                            _every_id(0), np.empty(0))

    def fit(self, texts: Sequence[Sequence[int]]) -> "NgramLm":
        """Count every (context, next token) pair and finish every row; replaces any earlier fit.

        Each context length sorts its packed context keys once and its packed
        (group, next token) pairs once, in place; no Python code runs per n-gram.
        The memory its temporaries took goes back to the system at each length
        boundary and on return (see _release_freed_memory), so the process
        keeps only the tables resident.
        """
        tables = self._count(texts)
        _release_freed_memory()  # the last length's temporaries
        self._tables = tables
        self._views = [(*map(memoryview, table[:3]), *table[3:]) for table in tables]
        return self

    def _count(self, texts: Sequence[Sequence[int]]) -> list[tuple]:
        """The tables of a fit on ``texts``; none when the texts hold no token."""
        size = self.vocab.size
        lengths = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
        tokens = _token_array(texts, int(lengths.sum()), size)
        text_starts = np.cumsum(lengths) - lengths
        # whether a position has c tokens of history in its text
        has_history = np.ones(len(tokens), dtype=bool)
        keys = np.zeros(len(tokens), dtype=np.int64)  # at length 0 every context is empty
        tables = []
        for c in range(self.order):
            if c:
                _release_freed_memory()  # the previous length's temporaries
                had_history = has_history.copy()
                has_history[text_starts[lengths >= c] + (c - 1)] = False
                keys = group[has_history[had_history]]
                del group, had_history
                keys *= size
                keys += tokens[: len(tokens) - c][has_history[c:]]
            order = keys.argsort()
            keys = keys[order]
            new_group = np.ones(len(keys), dtype=bool)
            np.not_equal(keys[1:], keys[:-1], out=new_group[1:])
            keys = keys[new_group]
            # each sorted position's group id, then its (group, next token) pair;
            # a run of equal pairs is one n-gram
            pairs = np.cumsum(new_group)
            del new_group
            pairs -= 1
            if c + 1 < self.order:  # the last length writes no group ids back
                # the context group of each position with history, in position order
                group = np.empty_like(pairs)
                group[order] = pairs
            pairs *= size
            pairs += tokens[has_history][order]
            del order
            pairs.sort()
            run_ends = np.ones(len(pairs) + 1, dtype=bool)  # a run's first pair, and the end
            np.not_equal(pairs[1:], pairs[:-1], out=run_ends[1:-1])
            pairs = pairs[run_ends[:-1]]
            counts = np.diff(np.flatnonzero(run_ends))
            del run_ends
            starts = pairs.searchsorted(np.arange(len(keys) + 1) * size)
            denoms = _denominators(np.add.reduceat(counts, starts[:-1]), self.alpha, size)
            values = counts + self.alpha
            del counts
            np.log(values, out=values)
            for lo in range(0, len(values), _CHUNK):  # a pair's group is pair // V
                values[lo : lo + _CHUNK] -= denoms[pairs[lo : lo + _CHUNK] // size]
            # a no-op unless the denominator is large (every count is at least 1)
            np.maximum(values, LOG_FLOOR, out=values)
            pairs %= size
            if c == 1:  # a length-1 key is its token: index the groups by token
                tokens_with_group, keys = keys, np.full(size, -1, dtype=np.int32)
                keys[tokens_with_group] = np.arange(len(tokens_with_group), dtype=np.int32)
            pairs.flags.writeable = values.flags.writeable = False  # rows hand out views of them
            # each group's fill; clamping before the fill equals clamping the filled vector
            fills = np.subtract(math.log(self.alpha), denoms, out=denoms)
            np.maximum(fills, LOG_FLOOR, out=fills)
            tables.append((keys, starts, fills, pairs, values))
        return tables if len(tokens) else []

    def next_row(self, context: Sequence[int]) -> Row:
        """The backoff value and the explicit entries of the longest seen suffix of ``context``.

        ``ids`` and ``values`` are read-only views of the model's table.
        """
        size = self.vocab.size
        tokens = _check_context(size, context)
        views = self._views
        if not views:  # no fit, or one on no tokens
            return self._unseen_row
        table, group = views[0], 0
        n = min(len(tokens), len(views) - 1)
        if n:
            found = views[1][0][tokens[-1]]
            if found >= 0:
                table, group = views[1], found
                for c in range(2, n + 1):
                    keys = views[c][0]
                    key = group * size + tokens[-c]
                    found = bisect.bisect_left(keys, key)
                    if found == len(keys) or keys[found] != key:
                        break
                    table, group = views[c], found
        _, starts, fills, ids, values = table
        lo, hi = starts[group], starts[group + 1]
        return fills[group], ids[lo:hi], values[lo:hi]

    def next_logprobs(self, context: Sequence[int]) -> np.ndarray:
        return expand_row(self.next_row(context), self.vocab.size)


def train_ngram(vocab: Vocabulary, texts: Sequence[Sequence[int]],
                order: int = DEFAULT_ORDER, alpha: float = DEFAULT_ALPHA) -> NgramLm:
    """Count every k-gram (k <= order) in ``texts`` and return the model."""
    return NgramLm(vocab, order=order, alpha=alpha).fit(texts)


class _DeadlineReader(io.RawIOBase):
    """Reads ``raw`` with ``sock``'s timeout set to ``time_left()`` before every receive."""

    def __init__(self, sock: socket.socket, raw: io.RawIOBase, time_left: Callable[[], float]):
        super().__init__()
        self._sock, self._raw, self._time_left = sock, raw, time_left

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int | None:
        self._sock.settimeout(self._time_left())
        return self._raw.readinto(buffer)

    def close(self) -> None:
        super().close()
        self._raw.close()


class _DeadlineResponse(http.client.HTTPResponse):
    """A reply whose status line, headers and body are all read by a ``_DeadlineReader``."""

    def __init__(self, sock: socket.socket, *args, time_left: Callable[[], float], **kwargs):
        super().__init__(sock, *args, **kwargs)
        # nothing is read yet, so the buffered reader it made holds no data
        self.fp = io.BufferedReader(_DeadlineReader(sock, self.fp.detach(), time_left))


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
    checked on construction, as is ``timeout``, which must be finite and
    positive and bounds each call as a whole.

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
        if not 0 < timeout < math.inf:  # NaN compares false too
            raise ValueError(f"remote scorer timeout must be finite and > 0 seconds, not {timeout!r}")
        self.vocab = vocab
        self._endpoint = endpoint
        self._timeout = timeout
        # http.client connects on the first request, and again after close()
        self._connection = connection_class(
            parts.hostname, parts.port or connection_class.default_port, timeout=timeout)
        self._connection.response_class = functools.partial(
            _DeadlineResponse, time_left=self._time_left)
        self._deadline = 0.0  # of the call in progress
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
            self._deadline = time.monotonic() + self._timeout
            reused = self._connection.sock is not None
            try:
                try:
                    response = self._send(body)
                except _STALE_SOCKET:
                    if not reused:
                        raise
                    self._connection.close()
                    response = self._send(body)
                # reading the whole body closes the reply: the connection may send again
                return response.status, response.read()
            except OSError as exc:
                self._connection.close()
                raise RemoteTimeoutError(
                    f"remote scorer at {self._endpoint} unreachable: {exc}") from exc
            except http.client.HTTPException as exc:
                self._connection.close()
                raise RemoteProtocolError(
                    f"malformed response from {self._endpoint}: {exc}") from exc

    def _time_left(self) -> float:
        left = self._deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError(f"no full reply within the {self._timeout} s timeout")
        return left

    def _send(self, body: bytes) -> http.client.HTTPResponse:
        """Send ``body`` and read the reply's head."""
        connection = self._connection
        connection.timeout = self._time_left()  # read by a connect
        if connection.sock is not None:
            connection.sock.settimeout(connection.timeout)
        connection.request("POST", self._target, body, _JSON_HEADERS)
        return connection.getresponse()

    def close(self) -> None:
        """Close the connection; a later call connects afresh."""
        with self._lock:
            self._connection.close()
