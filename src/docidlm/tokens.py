"""Token vocabulary and the deterministic reference tokenizer.

The vocabulary holds seven reserved structural symbols at fixed ids 0-6,
followed by all corpus word tokens in sorted order. Text is lowercased and
split into alphanumeric runs plus single punctuation characters, so every
token path is short and hand-checkable. Encoding is text only: a structural
symbol never comes out of text, and only ``decoder.layout_tokens`` puts one
into a sequence built from data.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

DOCID_OPEN = 0
DOCID_CLOSE = 1
REF_OPEN = 2
REF_CLOSE = 3
ANSWER_OPEN = 4
EOS = 5
UNK = 6

SPECIAL_SURFACES = (
    "<docid>",
    "</docid>",
    "<ref>",
    "</ref>",
    "<answer>",
    "</s>",
    "<unk>",
)

SPECIAL_IDS = tuple(range(len(SPECIAL_SURFACES)))

_WORD_RE = re.compile(r"\w+|[^\w\s]")


class InvalidTokenError(ValueError):
    """Raised when a token id falls outside the vocabulary."""


def split_words(text: str) -> list[str]:
    """Lowercase and split into word runs and single punctuation marks."""
    return _WORD_RE.findall(text.lower())


@dataclass(frozen=True)
class Vocabulary:
    """Bidirectional token/id map with reserved structural symbols."""

    tokens: tuple[str, ...]
    token_to_id: dict[str, int] = field(repr=False)

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def size(self) -> int:
        return len(self.tokens)

    def id_of(self, token: str) -> int:
        return self.token_to_id.get(token, UNK)

    def surface(self, token_id: int) -> str:
        if not 0 <= token_id < len(self.tokens):
            raise InvalidTokenError(f"token id {token_id} outside vocabulary of size {len(self.tokens)}")
        return self.tokens[token_id]


def _from_token_list(tokens: list[str]) -> Vocabulary:
    mapping = {tok: i for i, tok in enumerate(tokens)}
    if len(mapping) != len(tokens):
        raise ValueError("duplicate token in vocabulary listing")
    return Vocabulary(tokens=tuple(tokens), token_to_id=mapping)


def build_vocabulary(corpus, extra_texts: list[str] | None = None) -> Vocabulary:
    """Collect specials plus all word tokens of the corpus and extra texts.

    Ordering is deterministic: specials first at ids 0-6, then every distinct
    token sorted lexicographically. `corpus` may be None for a specials-only
    vocabulary over extra texts.
    """
    seen: set[str] = set()
    if corpus is not None and corpus.documents:
        seen.add("#")  # separator of every canonical DocID; keeps trie paths UNK-free
        seen.update(corpus.words.terms)
    for text in extra_texts or []:
        seen.update(split_words(text))
    return _from_token_list(list(SPECIAL_SURFACES) + sorted(seen))


def encode(vocab: Vocabulary, text: str) -> list[int]:
    """Tokenize text to ids; a special surface such as ``</s>`` is split as text."""
    lookup = vocab.token_to_id.get
    return [lookup(word, UNK) for word in split_words(text)]


def decode(vocab: Vocabulary, token_ids: list[int]) -> str:
    """Join surface forms with single spaces; out-of-range ids are an error."""
    return " ".join(vocab.surface(t) for t in token_ids)


def save_vocabulary(vocab: Vocabulary, path) -> None:
    """Persist one token per line, line number = id."""
    with open(path, "w", encoding="utf-8") as fh:
        for token in vocab.tokens:
            fh.write(token + "\n")


def load_vocabulary(path) -> Vocabulary:
    with open(path, encoding="utf-8") as fh:
        tokens = [line.rstrip("\n") for line in fh]
    if tuple(tokens[: len(SPECIAL_SURFACES)]) != SPECIAL_SURFACES:
        raise ValueError(f"vocabulary file {path} does not start with the reserved symbols")
    return _from_token_list(tokens)
