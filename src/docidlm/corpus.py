"""Passage corpus ingestion, canonical DocIDs, and gold-record loading.

Corpus files are line-delimited JSON with fields ``id``, ``title``,
``section``, ``text``. Gold files are line-delimited JSON with ``id``,
``input`` and ``output`` (a list of objects carrying ``answer`` and/or
``provenance`` entries with ``title`` and ``section``). Prediction files
carry ``query_id`` and optionally ``docids`` and ``answer``.
"""

from __future__ import annotations

import json
import re
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from .tokens import split_words


class CorpusError(ValueError):
    """Malformed corpus or gold input."""


class DuplicateDocIdError(CorpusError):
    """Two records normalize to the same DocID."""


class UnknownDocIdError(KeyError):
    """Lookup of a DocID absent from the corpus."""


_SENTENCE_SPLIT_RE = re.compile(r"(?<=[.!?])\s+")


def canonical_docid(title: str, section: str) -> str:
    """Build the canonical ``"{title} # {section}"`` identifier.

    Runs of whitespace collapse to single spaces and the result is stripped,
    so the mapping is deterministic for any raw (title, section) pair.
    """
    title_norm = " ".join(title.split())
    if not title_norm:
        raise CorpusError("document title must be non-empty")
    section_norm = " ".join(section.split())
    return f"{title_norm} # {section_norm}".rstrip()


def split_sentences(text: str) -> list[str]:
    """Split on '.', '!' or '?' followed by whitespace or end of text."""
    stripped = text.strip()
    if not stripped:
        return []
    return [part.strip() for part in _SENTENCE_SPLIT_RE.split(stripped) if part.strip()]


@dataclass(frozen=True)
class Document:
    """One corpus passage, the unit retrieved and cited."""

    doc_id: str
    title: str
    section: str
    body: str
    source_id: str = ""

    @property
    def sentences(self) -> tuple[str, ...]:
        """The body's sentences, split when read, so a document holds its text once."""
        return tuple(split_sentences(self.body))


@dataclass(frozen=True)
class CorpusStats:
    document_count: int
    token_count: int


class CorpusWords:
    """Every document's words, split once, as ids of the sorted distinct words ``terms``.

    The ``i``-th document, ``i = position[doc_id]``, holds ``ids[starts[i]:starts[i + 1]]``:
    its title's, its section's and, from ``body_starts[i]``, its body's words.
    """

    def __init__(self, documents: dict[str, Document]):
        first_seen = defaultdict()  # each new word gets the next id
        first_seen.default_factory = first_seen.__len__
        ids, starts, body_starts = array("i"), [0], []
        for doc in documents.values():
            ids.extend(map(first_seen.__getitem__, split_words(doc.title)))
            ids.extend(map(first_seen.__getitem__, split_words(doc.section)))
            body_starts.append(len(ids))
            ids.extend(map(first_seen.__getitem__, split_words(doc.body)))
            starts.append(len(ids))
        self.terms = tuple(sorted(first_seen))
        self.term_id = {term: i for i, term in enumerate(self.terms)}
        rank = np.array([self.term_id[word] for word in first_seen], dtype=np.int32)
        self.ids = rank[np.frombuffer(ids, dtype=np.intc)]
        self.starts, self.body_starts = np.array(starts), np.array(body_starts, dtype=np.int64)
        self.position = {doc_id: i for i, doc_id in enumerate(documents)}

    def document(self, doc_id: str, body_only: bool = False) -> np.ndarray:
        i = self.position[doc_id]
        return self.ids[(self.body_starts if body_only else self.starts)[i] : self.starts[i + 1]]

    def query_terms(self, query: str | Sequence[int]) -> list[int]:
        """A query's term ids in order, without words no document holds; ``query`` may be ids."""
        if isinstance(query, str):
            query = [term for term in map(self.term_id.get, split_words(query)) if term is not None]
        return list(query)


@dataclass
class Corpus:
    """Immutable DocID -> Document map built by :func:`ingest_corpus`."""

    documents: dict[str, Document] = field(default_factory=dict)

    @cached_property
    def words(self) -> CorpusWords:  # the one word split that every corpus-wide build reads
        return CorpusWords(self.documents)

    @cached_property
    def stats(self) -> CorpusStats:
        token_count = int((self.words.starts[1:] - self.words.body_starts).sum())
        return CorpusStats(len(self.documents), token_count)

    def get(self, doc_id: str) -> Document:
        try:
            return self.documents[doc_id]
        except KeyError:
            raise UnknownDocIdError(f"unknown DocID: {doc_id!r}") from None

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self.documents

    def __len__(self) -> int:
        return len(self.documents)


def make_document(source_id: str, title: str, section: str, text: str) -> Document:
    doc_id = canonical_docid(title, section)
    return Document(
        doc_id=doc_id,
        title=title,
        section=section,
        body=text,
        source_id=source_id,
    )


def build_corpus(documents: list[Document]) -> Corpus:
    """Assemble a Corpus from documents, rejecting DocID collisions."""
    by_id: dict[str, Document] = {}
    for doc in documents:
        if doc.doc_id in by_id:
            prior = by_id[doc.doc_id]
            raise DuplicateDocIdError(
                f"DocID {doc.doc_id!r} produced by both record {prior.source_id!r} "
                f"and record {doc.source_id!r}"
            )
        by_id[doc.doc_id] = doc
    return Corpus(documents=by_id)


# Fully in-memory corpora stop here; larger ones need a persisted store.
MAX_IN_MEMORY_DOCUMENTS = 1_000_000


def _string_field(record: dict, name: str, default: str | None = None) -> str:
    """``record[name]``, which must be a string; ``default`` stands in when absent."""
    value = record[name] if default is None else record.get(name, default)
    if not isinstance(value, str):
        raise CorpusError(f"field {name!r} must be a string, not {type(value).__name__}")
    return value


def _id_field(record: dict, name: str = "id") -> str:
    """``record[name]``, a JSON string or integer, as a string."""
    value = record[name]
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise CorpusError(f"field {name!r} must be a string or an integer, not {type(value).__name__}")
    return str(value)


def _string_list_field(record: dict, name: str) -> list[str]:
    value = record[name]
    if not (isinstance(value, list) and all(isinstance(item, str) for item in value)):
        raise CorpusError(f"field {name!r} must be a list of strings")
    return value


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise CorpusError(f"{what} must be a JSON object, not {type(value).__name__}")
    return value


def json_records(path, what: str, parse: Callable[[dict], Any]) -> Iterator[Any]:
    """``parse`` of each non-blank line's JSON object, None skipped; faults name ``path:line``."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                try:
                    item = parse(_object(json.loads(line), "record"))
                except (json.JSONDecodeError, KeyError, TypeError, CorpusError) as exc:
                    raise CorpusError(f"{path}:{lineno}: malformed {what} record: {exc}") from exc
                if item is not None:
                    yield item


def ingest_corpus(path, max_in_memory_documents: int = MAX_IN_MEMORY_DOCUMENTS) -> Corpus:
    """Read a line-delimited corpus file into an immutable Corpus."""
    documents: list[Document] = []
    for doc in json_records(path, "corpus", _parse_document):
        if len(documents) >= max_in_memory_documents:
            raise CorpusError(
                f"{path}: more than {max_in_memory_documents} documents; "
                "a persisted on-disk document store is required at this scale"
            )
        documents.append(doc)
    return build_corpus(documents)


def _parse_document(record: dict) -> Document:
    return make_document(_id_field(record), _string_field(record, "title"),
                         _string_field(record, "section"), _string_field(record, "text"))


@dataclass(frozen=True)
class GoldRecord:
    """One query with its gold answers and provenance DocIDs.

    ``provenance`` flattens all provenance groups in first-seen order;
    ``provenance_groups`` keeps one group per acceptable output so retrieval
    scoring can take the best group.
    """

    query_id: str
    input: str
    answers: tuple[str, ...]
    provenance: tuple[str, ...]
    provenance_groups: tuple[tuple[str, ...], ...]


def _once_per_id(parse: Callable[[dict], Any], name: str) -> Callable[[dict], Any]:
    """``parse``, rejecting a parsed record whose ``name`` id repeats an earlier record's."""
    seen: set[str] = set()

    def parse_once(raw: dict) -> Any:
        item = parse(raw)
        if item is not None:
            record_id = _id_field(raw, name)
            if record_id in seen:
                raise CorpusError(f"{name} {record_id!r} repeats an earlier record")
            seen.add(record_id)
        return item

    return parse_once


def load_gold(path) -> list[GoldRecord]:
    """Read a line-delimited gold file; each query id may occur once."""
    return list(json_records(path, "gold", _once_per_id(_parse_gold_record, "id")))


def _parse_gold_record(raw: dict) -> GoldRecord:
    outputs = raw.get("output", [])
    if not isinstance(outputs, list):
        raise CorpusError(f"field 'output' must be a list, not {type(outputs).__name__}")
    answers: list[str] = []
    groups: list[tuple[str, ...]] = []
    flat: list[str] = []
    seen: set[str] = set()
    for output in outputs:
        output = _object(output, "output entry")
        answer = _string_field(output, "answer", "")
        if answer:
            answers.append(answer)
        group = []
        for entry in output.get("provenance", []):
            entry = _object(entry, "provenance entry")
            group.append(canonical_docid(_string_field(entry, "title"),
                                         _string_field(entry, "section", "")))
        if group:
            groups.append(tuple(group))
            for doc_id in group:
                if doc_id not in seen:
                    seen.add(doc_id)
                    flat.append(doc_id)
    return GoldRecord(
        query_id=_id_field(raw),
        input=_string_field(raw, "input"),
        answers=tuple(answers),
        provenance=tuple(flat),
        provenance_groups=tuple(groups),
    )


def load_predictions(path) -> list[dict]:
    """Each record's ``query_id``, as a string, and ``docids`` and ``answer`` where present.

    A ``query_id`` may occur once per file.
    """
    return list(json_records(path, "prediction", _once_per_id(_parse_prediction, "query_id")))


def _parse_prediction(raw: dict) -> dict | None:
    if "_config" in raw:
        return None
    record = {"query_id": _id_field(raw, "query_id")}
    if "docids" in raw:
        record["docids"] = _string_list_field(raw, "docids")
    if "answer" in raw:
        record["answer"] = _string_field(raw, "answer")
    return record
