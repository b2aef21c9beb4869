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

import numpy as np

from .corpus import Corpus, UnknownDocIdError
from .tokens import SPECIAL_IDS, UNK, Vocabulary, encode


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
    """Insert every corpus DocID's token sequence into a fresh trie."""
    trie = DocIdTrie()
    for doc_id in corpus.documents:
        tokens = tuple(encode(vocab, doc_id))
        if not tokens:
            raise TrieError(f"DocID {doc_id!r} tokenizes to an empty sequence")
        bad = [t for t in tokens if t == UNK or t in SPECIAL_IDS]
        if bad:
            raise TrieError(f"DocID {doc_id!r} tokenizes to reserved ids {bad}")
        trie._insert(tokens, doc_id)
    _finish(trie)
    return trie


def _finish(trie: DocIdTrie) -> None:
    """Give every inner node its read-only ascending child-token array."""
    stack = [trie.root]
    while stack:
        node = stack.pop()
        if node.children:
            node.child_ids = _frozen(np.array(sorted(node.children), dtype=np.int64))
            stack.extend(node.children.values())


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


def dump_trie(trie: DocIdTrie, path) -> None:
    """Write a preorder snapshot, one node per line: depth, token id, terminal flag.

    Children are visited in ascending token order so the dump is canonical.
    The root is implicit. DocID identities are not part of the format; use
    :func:`load_trie` with a corpus and vocabulary to rebind them.
    """
    lines: list[str] = []

    def visit(node: TrieNode, depth: int) -> None:
        for token in sorted(node.children):
            child = node.children[token]
            lines.append(f"{depth}\t{token}\t{int(child.is_terminal)}")
            visit(child, depth + 1)

    visit(trie.root, 0)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + ("\n" if lines else ""))


def load_trie(path, corpus: Corpus | None = None, vocab: Vocabulary | None = None) -> DocIdTrie:
    """Rebuild a structurally identical trie from a preorder snapshot.

    Terminal DocID identities are recovered when ``corpus`` and ``vocab`` are
    given, and then the snapshot must hold exactly the corpus DocIDs: a
    terminal path that spells no corpus DocID, or a corpus DocID with no
    terminal, is a :class:`TrieError`. Otherwise terminals carry placeholder
    identities derived from the path and the trie is suitable for structural
    audits only.
    """
    bind = corpus is not None and vocab is not None
    path_to_docid: dict[tuple[int, ...], str] = {}
    if bind:
        for doc_id in corpus.documents:
            path_to_docid[tuple(encode(vocab, doc_id))] = doc_id

    trie = DocIdTrie()
    # (node, token path, snapshot line) along the chain from the root to the last node read
    stack: list[tuple[TrieNode, tuple[int, ...], int]] = [(trie.root, (), 0)]

    def close_chain(depth: int) -> None:
        """Pop the chain below ``depth``; a popped last node is a leaf and must end a DocID."""
        node, _, node_line = stack[-1]
        if depth + 1 < len(stack) and not node.is_terminal:
            raise TrieError(f"{path}:{node_line}: leaf node ends no DocID")
        del stack[depth + 1 :]

    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                depth_s, token_s, term_s = line.split("\t")
                depth, token, terminal = int(depth_s), int(token_s), bool(int(term_s))
            except ValueError as exc:
                raise TrieError(f"{path}:{lineno}: malformed trie snapshot line") from exc
            if not 0 <= depth < len(stack):
                raise TrieError(f"{path}:{lineno}: depth {depth} does not follow the line above")
            if token <= UNK:
                raise TrieError(f"{path}:{lineno}: token id {token} is reserved or negative")
            close_chain(depth)
            parent, parent_path, _ = stack[depth]
            if token in parent.children:
                raise TrieError(f"{path}:{lineno}: token id {token} repeats under one parent")
            node = TrieNode()
            parent.children[token] = node
            node_path = parent_path + (token,)
            if terminal:
                if bind and node_path not in path_to_docid:
                    raise TrieError(f"{path}:{lineno}: terminal path spells no corpus DocID")
                node.terminal_docid = path_to_docid.get(node_path, "#".join(map(str, node_path)))
            stack.append((node, node_path, lineno))
    close_chain(0)

    def recount(node: TrieNode) -> int:
        total = int(node.is_terminal) + sum(recount(c) for c in node.children.values())
        node.subtree_count = total
        return total

    recount(trie.root)
    for doc_id, node_path in _terminal_paths(trie.root, ()):
        trie.docid_paths[doc_id] = node_path
    if bind:
        missing = sorted(set(corpus.documents) - set(trie.docid_paths))
        if missing:
            raise TrieError(f"{path}: corpus DocID {missing[0]!r} is missing from the snapshot")
    _finish(trie)
    return trie


def _terminal_paths(node: TrieNode, prefix: tuple[int, ...]):
    if node.is_terminal:
        yield node.terminal_docid, prefix
    for token, child in node.children.items():
        yield from _terminal_paths(child, prefix + (token,))
