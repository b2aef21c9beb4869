"""Shared fixtures: tiny corpora, random-instance generators, and a seeded RNG."""

import random

import pytest

from docidlm.corpus import build_corpus, canonical_docid, make_document
from docidlm.tokens import build_vocabulary
from docidlm.training import build_reference_lm, make_retrieval_example
from docidlm.trie import build_trie


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
