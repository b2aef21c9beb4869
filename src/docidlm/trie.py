"""Token-level prefix tree over all canonical DocID token sequences.

The trie is immutable after build and shared across decoding sessions.
Duplicate prevention is session-local: an :class:`ExclusionSet` logically
removes already-generated DocIDs, which is observationally equivalent to
physical node deletion for a single session but keeps the shared structure
untouched.

The trie is a few flat arrays over nodes numbered in preorder, so a node is
an int and its ascending child tokens are a read-only slice of one array.
Excluding a DocID walks its path once and records a child token as dead
under its parent when every DocID below the child is excluded, so a
continuation query is the node's slice minus its few dead tokens.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from itertools import zip_longest
from typing import Iterator, NamedTuple

import numpy as np

from .corpus import Corpus, UnknownDocIdError
from .tokens import UNK, Vocabulary, encode


class TrieError(ValueError):
    """Trie construction or query violated an invariant."""


class InvalidPrefixError(TrieError):
    """A queried prefix is not a path in the trie (decoder bug)."""


class Continuations(NamedTuple):
    """Result of a continuation query: next tokens plus the close permission.

    ``ids`` is a read-only ascending int64 array of the allowed child tokens.
    """

    ids: np.ndarray
    close_permitted: bool

    @property
    def tokens(self) -> frozenset[int]:
        return frozenset(self.ids.tolist())


class DocIdTrie:
    """Prefix tree whose root-to-terminal paths spell DocIDs, as flat arrays.

    Nodes are numbered in preorder from the root 0, children in ascending
    token order, so a subtree is a contiguous id range. The children of node
    ``n`` sit at ``offsets[n]:offsets[n + 1]`` of ``child_tokens`` (ascending;
    ``child_ids`` is the same buffer as a read-only int64 array) and of
    ``child_nodes``. ``subtree[n]`` counts the DocIDs at or below ``n``, and
    ``terminal[n]`` is the index in ``docids`` of the DocID ending at ``n``,
    or -1. Scalars are read from ``array.array``, which makes no numpy scalar.
    """

    def __init__(self, docid_paths: dict[str, tuple[int, ...]] | None = None) -> None:
        """Build from one sort of the token paths; ``docid_paths`` is kept, in its order."""
        self.docid_paths = docid_paths = {} if docid_paths is None else docid_paths
        self.docids = list(docid_paths)
        paths = list(docid_paths.values())
        parents, tokens, terminal = array("i", [-1]), array("q", [0]), array("i", [-1])
        stack, previous = [0], -1  # the previous path's nodes, root first
        for rank in sorted(range(len(paths)), key=paths.__getitem__):
            path, before = paths[rank], paths[previous] if previous >= 0 else ()
            if previous >= 0 and path == before:
                raise TrieError(f"DocIDs {self.docids[previous]!r} and {self.docids[rank]!r} "
                                "share one token path; paths must be unique")
            # sorted, so the path only extends what it shares with the one before
            shared = next((i for i, (a, b) in enumerate(zip(before, path)) if a != b), len(before))
            del stack[shared + 1:]
            for token in path[shared:]:
                parents.append(stack[-1])
                tokens.append(token)
                terminal.append(-1)
                stack.append(len(tokens) - 1)
            terminal[stack[-1]], previous = rank, rank
        subtree = array("i", (rank >= 0 for rank in terminal))
        for node in range(len(parents) - 1, 0, -1):  # a child's id is above its parent's
            subtree[parents[node]] += subtree[node]
        parent_of = np.frombuffer(parents, dtype=np.int32)[1:]
        by_parent = np.argsort(parent_of, kind="stable").astype(np.int32) + 1  # siblings keep order
        offsets = parent_of[by_parent - 1].searchsorted(np.arange(len(parents) + 1)).astype(np.int32)
        self.offsets, self.child_nodes = array("i", offsets.tobytes()), array("i", by_parent.tobytes())
        self.child_tokens = array("q", np.frombuffer(tokens, dtype=np.int64)[by_parent].tobytes())
        self.child_ids = np.frombuffer(self.child_tokens, dtype=np.int64)
        self.child_ids.flags.writeable = False
        self.parents, self.subtree, self.terminal = parents, subtree, terminal

    def __len__(self) -> int:
        return self.subtree[0]

    def child(self, node: int, token: int) -> int:
        """The child of ``node`` reached by ``token``, or -1."""
        tokens, lo, hi = self.child_tokens, self.offsets[node], self.offsets[node + 1]
        at = bisect_left(tokens, token, lo, hi)
        return self.child_nodes[at] if at < hi and tokens[at] == token else -1

    def docid_at(self, node: int) -> str | None:
        """The DocID that ends at ``node``, or ``None``."""
        rank = self.terminal[node]
        return self.docids[rank] if rank >= 0 else None

    def node_at(self, prefix: list[int] | tuple[int, ...]) -> int:
        node = 0
        for token in prefix:
            node = self.child(node, token)
            if node < 0:
                raise InvalidPrefixError(f"prefix {list(prefix)} is not a trie path")
        return node


class ExclusionSet:
    """Session-local set of DocIDs logically removed from the trie."""

    def __init__(self, trie: DocIdTrie) -> None:
        self._trie = trie
        self._docids: set[str] = set()
        self._excluded: dict[int, int] = {}  # excluded DocIDs below each node id
        self._dead: dict[int, list[int]] = {}  # child tokens with nothing left below

    def __len__(self) -> int:
        return len(self._docids)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._docids

    def add(self, doc_id: str, node: int | None = None) -> None:
        """Exclude ``doc_id`` at O(depth) cost; excluding it again changes nothing.

        A caller that holds the node where ``doc_id`` ends passes it as ``node``.
        """
        trie = self._trie
        path = trie.docid_paths.get(doc_id)
        if path is None:
            raise UnknownDocIdError(f"cannot exclude unknown DocID: {doc_id!r}")
        if doc_id in self._docids:
            return
        self._docids.add(doc_id)
        node = trie.node_at(path) if node is None else node
        excluded, subtree, parents = self._excluded, trie.subtree, trie.parents
        for token in reversed(path):
            count = excluded.get(node, 0) + 1
            excluded[node], parent = count, parents[node]
            if count == subtree[node]:
                self._dead.setdefault(parent, []).append(token)
            node = parent


def build_trie(corpus: Corpus, vocab: Vocabulary) -> DocIdTrie:
    """The trie of every corpus DocID's token sequence."""
    paths = {}
    for doc_id in corpus.documents:
        tokens = tuple(encode(vocab, doc_id))
        if not tokens:
            raise TrieError(f"DocID {doc_id!r} tokenizes to an empty sequence")
        if UNK in tokens:
            raise TrieError(f"DocID {doc_id!r} has a token outside the vocabulary")
        paths[doc_id] = tokens
    return DocIdTrie(paths)


def exclude(excl: ExclusionSet, doc_id: str) -> ExclusionSet:
    """Add ``doc_id`` to the session's exclusion set (mutates and returns it)."""
    excl.add(doc_id)
    return excl


def allowed_continuations(trie: DocIdTrie, prefix: list[int] | tuple[int, ...],
                          excl: ExclusionSet, node: int | None = None) -> Continuations:
    """Tokens extending ``prefix`` toward a non-excluded DocID, plus close permission.

    A child token is allowed iff at least one non-excluded terminal remains in
    its subtree; the close flag is set iff ``prefix`` itself ends at a terminal
    whose DocID is not excluded. A caller that holds the prefix's node id
    passes it as ``node``, and the prefix is then not walked.
    """
    node = trie.node_at(prefix) if node is None else node
    ids = trie.child_ids[trie.offsets[node]:trie.offsets[node + 1]]
    dead = excl._dead.get(node)
    if dead:
        keep = np.ones(len(ids), dtype=bool)
        keep[ids.searchsorted(dead)] = False
        ids = ids[keep]
        ids.flags.writeable = False
    rank = trie.terminal[node]
    return Continuations(ids, rank >= 0 and trie.docids[rank] not in excl._docids)


def _snapshot_lines(trie: DocIdTrie) -> Iterator[str]:
    """The canonical preorder snapshot of ``trie``, one newline-ended line per node.

    A line is ``depth<TAB>token id<TAB>terminal flag``; children follow in
    ascending token order and the root is implicit. No recursion: any DocID length fits.
    """
    offsets, tokens, nodes, terminal = trie.offsets, trie.child_tokens, trie.child_nodes, trie.terminal
    stack = [(0, at) for at in reversed(range(offsets[0], offsets[1]))]
    while stack:
        depth, at = stack.pop()
        node = nodes[at]
        yield f"{depth}\t{tokens[at]}\t{int(terminal[node] >= 0)}\n"
        stack.extend((depth + 1, i) for i in reversed(range(offsets[node], offsets[node + 1])))


def dump_trie(trie: DocIdTrie, path) -> None:
    """Write the trie's canonical preorder snapshot (see :func:`_snapshot_lines`).

    DocID identities are not part of the format: :func:`load_trie` gets them
    from the corpus and vocabulary the trie was built from.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(_snapshot_lines(trie))


def load_trie(path, corpus: Corpus, vocab: Vocabulary) -> DocIdTrie:
    """The trie of ``corpus`` under ``vocab``, if ``path`` is exactly its snapshot.

    The trie is rebuilt with :func:`build_trie` and the file is compared with
    its canonical snapshot line by line, so a snapshot written from another
    corpus or vocabulary, or any other file, fails with a :class:`TrieError`
    naming ``path:line`` of the first line that differs.
    """
    trie = build_trie(corpus, vocab)
    with open(path, encoding="utf-8", newline="") as fh:
        pairs = zip_longest(fh, _snapshot_lines(trie))
        for lineno, (found, expected) in enumerate(pairs, start=1):
            if found != expected:
                raise TrieError(
                    f"{path}:{lineno}: found {_shown(found)}, expected {_shown(expected)}")
    return trie


def _shown(line: str | None) -> str:
    return "the end of the file" if line is None else repr(line)
