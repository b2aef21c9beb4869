"""Token-level prefix tree over all canonical DocID token sequences.

The trie is immutable after build and shared across decoding sessions.
Duplicate prevention is session-local: an :class:`ExclusionSet` logically
removes already-generated DocIDs, which is observationally equivalent to
physical node deletion for a single session but keeps the shared structure
untouched.

A finished trie gives every node a read-only ascending array of its child
tokens. Excluding a DocID walks its path once and records a child token as
dead under its parent when every DocID below the child is excluded, so a
continuation query is the node's array minus its few dead tokens.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import zip_longest
from typing import Iterator

import numpy as np

from .corpus import Corpus, UnknownDocIdError
from .tokens import UNK, Vocabulary, encode


class TrieError(ValueError):
    """Trie construction or query violated an invariant."""


class InvalidPrefixError(TrieError):
    """A queried prefix is not a path in the trie (decoder bug)."""


def _frozen(ids: np.ndarray) -> np.ndarray:
    ids.flags.writeable = False
    return ids


_NO_CHILDREN = _frozen(np.empty(0, dtype=np.int64))


# Identity equality: nodes key the per-session exclusion counts.
@dataclass(eq=False)
class TrieNode:
    children: dict[int, "TrieNode"] = field(default_factory=dict)
    terminal_docid: str | None = None
    subtree_count: int = 0
    # ascending child tokens, read-only; set when the trie is finished, shared by leaves
    child_ids: np.ndarray = field(default_factory=lambda: _NO_CHILDREN, repr=False)

    @property
    def is_terminal(self) -> bool:
        return self.terminal_docid is not None


@dataclass(frozen=True, eq=False)
class Continuations:
    """Result of a continuation query: next tokens plus the close permission.

    ``ids`` is a read-only ascending int64 array of the allowed child tokens.
    """

    ids: np.ndarray
    close_permitted: bool

    @property
    def tokens(self) -> frozenset[int]:
        return frozenset(self.ids.tolist())


class DocIdTrie:
    """Prefix tree whose root-to-terminal paths spell corpus DocIDs."""

    def __init__(self) -> None:
        self.root = TrieNode()
        self.docid_paths: dict[str, tuple[int, ...]] = {}

    def __len__(self) -> int:
        return self.root.subtree_count

    def _insert(self, tokens: tuple[int, ...], doc_id: str) -> None:
        node = self.root
        node.subtree_count += 1
        for token in tokens:
            node = node.children.setdefault(token, TrieNode())
            node.subtree_count += 1
        if node.terminal_docid is not None:
            raise TrieError(
                f"DocIDs {node.terminal_docid!r} and {doc_id!r} share one token path; "
                "paths must be unique"
            )
        node.terminal_docid = doc_id
        self.docid_paths[doc_id] = tokens

    def node_at(self, prefix: list[int] | tuple[int, ...]) -> TrieNode:
        node = self.root
        for token in prefix:
            child = node.children.get(token)
            if child is None:
                raise InvalidPrefixError(f"prefix {list(prefix)} is not a trie path")
            node = child
        return node

    def contains(self, tokens: list[int] | tuple[int, ...]) -> bool:
        try:
            return self.node_at(tokens).is_terminal
        except InvalidPrefixError:
            return False


class ExclusionSet:
    """Session-local set of DocIDs logically removed from the trie."""

    def __init__(self, trie: DocIdTrie) -> None:
        self._trie = trie
        self._docids: set[str] = set()
        self._excluded: dict[TrieNode, int] = {}  # excluded DocIDs below each node
        self._dead: dict[TrieNode, list[int]] = {}  # child tokens with nothing left below

    def __len__(self) -> int:
        return len(self._docids)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._docids

    @property
    def docids(self) -> set[str]:
        return set(self._docids)

    def add(self, doc_id: str) -> None:
        """Exclude ``doc_id`` at O(depth) cost; excluding it again changes nothing."""
        path = self._trie.docid_paths.get(doc_id)
        if path is None:
            raise UnknownDocIdError(f"cannot exclude unknown DocID: {doc_id!r}")
        if doc_id in self._docids:
            return
        self._docids.add(doc_id)
        node = self._trie.root
        for token in path:
            parent, node = node, node.children[token]
            count = self._excluded.get(node, 0) + 1
            self._excluded[node] = count
            if count == node.subtree_count:
                self._dead.setdefault(parent, []).append(token)

    def dead_under(self, node: TrieNode) -> list[int]:
        """Child tokens of ``node`` whose every DocID is excluded."""
        return self._dead.get(node, [])


def build_trie(corpus: Corpus, vocab: Vocabulary) -> DocIdTrie:
    """Insert every corpus DocID's token sequence into a fresh trie.

    Every inner node then gets its read-only ascending child-token array.
    """
    trie = DocIdTrie()
    for doc_id in corpus.documents:
        tokens = tuple(encode(vocab, doc_id))
        if not tokens:
            raise TrieError(f"DocID {doc_id!r} tokenizes to an empty sequence")
        if UNK in tokens:
            raise TrieError(f"DocID {doc_id!r} has a token outside the vocabulary")
        trie._insert(tokens, doc_id)
    stack = [trie.root]
    while stack:
        node = stack.pop()
        if node.children:
            node.child_ids = _frozen(np.array(sorted(node.children), dtype=np.int64))
            stack.extend(node.children.values())
    return trie


def exclude(excl: ExclusionSet, doc_id: str) -> ExclusionSet:
    """Add ``doc_id`` to the session's exclusion set (mutates and returns it)."""
    excl.add(doc_id)
    return excl


def allowed_continuations(
    trie: DocIdTrie, prefix: list[int] | tuple[int, ...], excl: ExclusionSet
) -> Continuations:
    """Tokens extending ``prefix`` toward a non-excluded DocID, plus close permission.

    A child token is allowed iff at least one non-excluded terminal remains in
    its subtree; the close flag is set iff ``prefix`` itself ends at a terminal
    whose DocID is not excluded.
    """
    node = trie.node_at(prefix)
    ids = node.child_ids
    dead = excl.dead_under(node)
    if dead:
        ids = _frozen(np.delete(ids, np.searchsorted(ids, dead)))
    close_ok = node.is_terminal and node.terminal_docid not in excl
    return Continuations(ids=ids, close_permitted=close_ok)


def _snapshot_lines(root: TrieNode) -> Iterator[str]:
    """The canonical preorder snapshot below ``root``, one newline-ended line per node.

    A line is ``depth<TAB>token id<TAB>terminal flag``; children follow in
    ascending token order and the root is implicit. No recursion: any DocID length fits.
    """
    stack = [(0, token, root.children[token]) for token in reversed(root.child_ids.tolist())]
    while stack:
        depth, token, node = stack.pop()
        yield f"{depth}\t{token}\t{int(node.is_terminal)}\n"
        stack.extend((depth + 1, t, node.children[t]) for t in reversed(node.child_ids.tolist()))


def dump_trie(trie: DocIdTrie, path) -> None:
    """Write the trie's canonical preorder snapshot (see :func:`_snapshot_lines`).

    DocID identities are not part of the format: :func:`load_trie` gets them
    from the corpus and vocabulary the trie was built from.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(_snapshot_lines(trie.root))


def load_trie(path, corpus: Corpus, vocab: Vocabulary) -> DocIdTrie:
    """The trie of ``corpus`` under ``vocab``, if ``path`` is exactly its snapshot.

    The trie is rebuilt with :func:`build_trie` and the file is compared with
    its canonical snapshot line by line, so a snapshot written from another
    corpus or vocabulary, or any other file, fails with a :class:`TrieError`
    naming ``path:line`` of the first line that differs.
    """
    trie = build_trie(corpus, vocab)
    with open(path, encoding="utf-8", newline="") as fh:
        pairs = zip_longest(fh, _snapshot_lines(trie.root))
        for lineno, (found, expected) in enumerate(pairs, start=1):
            if found != expected:
                raise TrieError(
                    f"{path}:{lineno}: found {_shown(found)}, expected {_shown(expected)}")
    return trie


def _shown(line: str | None) -> str:
    return "the end of the file" if line is None else repr(line)
