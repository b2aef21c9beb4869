"""Seeded synthetic corpus and gold generator for the benchmark.

The corpus imitates a sectioned encyclopedia: each title owns 1 to 5
sections drawn from a fixed list of section names, so DocIDs share title
prefixes in the trie the way Wikipedia passages do. Body words follow a
Zipf law over a pseudo-word pool, and every title has a few topic words
that its sections use more often, so BM25 neighbourhoods are not uniform.

Gold queries name a section and a title and end with a rare word of the
target passage; the answer is a short span of that passage. Everything is
drawn from ``random.Random(seed)``, so one seed always gives the same files.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path

SECTION_NAMES = (
    "overview", "history", "early life", "career", "personal life", "legacy",
    "geography", "climate", "economy", "demographics", "culture", "politics",
    "education", "transport", "etymology", "design", "development", "release",
    "reception", "plot", "production", "awards", "background", "structure",
    "distribution", "behaviour", "taxonomy", "description", "operations", "sources",
)

_ONSETS = ("b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z",
           "br", "dr", "kr", "st", "tr", "sh", "ch", "th")
_VOWELS = ("a", "e", "i", "o", "u", "ai", "ou", "ea")
_CODAS = ("", "", "", "n", "r", "l", "s", "m", "k")


@dataclass(frozen=True)
class CorpusShape:
    """Sizes of one generated corpus."""

    docids: int
    body_words: int
    queries: int
    word_pool: int
    title_pool: int


def _pseudo_words(rng: random.Random, count: int, syllables: tuple[int, int],
                  taken: set[str]) -> list[str]:
    words: list[str] = []
    while len(words) < count:
        word = "".join(
            rng.choice(_ONSETS) + rng.choice(_VOWELS) + rng.choice(_CODAS)
            for _ in range(rng.randint(*syllables))
        )
        if word not in taken:
            taken.add(word)
            words.append(word)
    return words


def _sentence_lengths(rng: random.Random, total: int) -> list[int]:
    lengths: list[int] = []
    while total > 0:
        n = min(total, rng.randint(6, 14))
        lengths.append(n)
        total -= n
    return lengths


def generate(shape: CorpusShape, seed: int) -> tuple[list[dict], list[dict]]:
    """Corpus records and gold records for ``shape``, fully determined by ``seed``."""
    rng = random.Random(seed)
    taken = set(SECTION_NAMES) | {w for name in SECTION_NAMES for w in name.split()}
    words = _pseudo_words(rng, shape.word_pool, (2, 3), taken)
    title_words = _pseudo_words(rng, shape.title_pool, (2, 4), taken)
    cum_weights = list(accumulate(1.0 / (rank + 2.7) for rank in range(len(words))))

    records: list[dict] = []
    titles: set[str] = set()
    while len(records) < shape.docids:
        title = " ".join(rng.sample(title_words, rng.choice((1, 2, 2, 3))))
        if title in titles:
            continue
        titles.add(title)
        topic = rng.sample(words, 6)
        for section in rng.sample(SECTION_NAMES, rng.randint(1, 5)):
            if len(records) == shape.docids:
                break
            sentences = []
            for n in _sentence_lengths(rng, shape.body_words):
                picked = rng.choices(words, cum_weights=cum_weights, k=n)
                for i in range(len(picked)):
                    if rng.random() < 0.15:
                        picked[i] = rng.choice(topic)
                sentences.append(" ".join(picked) + ".")
            records.append({"id": str(len(records)), "title": title,
                            "section": section, "text": " ".join(sentences)})

    rank = {word: i for i, word in enumerate(words)}
    gold: list[dict] = []
    for qid, record in enumerate(rng.sample(records, shape.queries)):
        body = record["text"].replace(".", "").split()
        rare = max(body, key=lambda w: (rank[w], w))
        start = rng.randrange(max(1, len(body) - 3))
        answer = " ".join(body[start : start + rng.randint(2, 4)])
        query = f"what about the {record['section']} of {record['title']} {rare}"
        gold.append({
            "id": f"q{qid}",
            "input": query,
            "output": [{"answer": answer,
                        "provenance": [{"title": record["title"], "section": record["section"]}]}],
        })
    return records, gold


def write_jsonl(path: Path, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
