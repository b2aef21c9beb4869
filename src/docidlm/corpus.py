"""Passage corpus ingestion, canonical DocIDs, and gold-record loading.

Corpus files are line-delimited JSON with fields ``id``, ``title``,
``section``, ``text``. Gold files are line-delimited JSON with ``id``,
``input`` and ``output`` (a list of objects carrying ``answer`` and/or
``provenance`` entries with ``title`` and ``section``).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

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
    sentences: tuple[str, ...]
    source_id: str = ""


@dataclass(frozen=True)
class CorpusStats:
    document_count: int
    token_count: int


@dataclass
class Corpus:
    """Immutable DocID -> Document map built by :func:`ingest_corpus`."""

    documents: dict[str, Document] = field(default_factory=dict)
    stats: CorpusStats = CorpusStats(0, 0)

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
        sentences=tuple(split_sentences(text)),
        source_id=source_id,
    )


def build_corpus(documents: list[Document]) -> Corpus:
    """Assemble a Corpus from documents, rejecting DocID collisions."""
    by_id: dict[str, Document] = {}
    token_count = 0
    for doc in documents:
        if doc.doc_id in by_id:
            prior = by_id[doc.doc_id]
            raise DuplicateDocIdError(
                f"DocID {doc.doc_id!r} produced by both record {prior.source_id!r} "
                f"and record {doc.source_id!r}"
            )
        by_id[doc.doc_id] = doc
        token_count += len(split_words(doc.body))
    return Corpus(documents=by_id, stats=CorpusStats(len(by_id), token_count))


# Fully in-memory corpora stop here; larger ones need a persisted store.
MAX_IN_MEMORY_DOCUMENTS = 1_000_000


def _string_field(record: dict, name: str, default: str | None = None) -> str:
    """``record[name]``, which must be a string; ``default`` stands in when absent."""
    value = record[name] if default is None else record.get(name, default)
    if not isinstance(value, str):
        raise CorpusError(f"field {name!r} must be a string, not {type(value).__name__}")
    return value


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise CorpusError(f"{what} must be a JSON object, not {type(value).__name__}")
    return value


def ingest_corpus(path, max_in_memory_documents: int = MAX_IN_MEMORY_DOCUMENTS) -> Corpus:
    """Read a line-delimited corpus file into an immutable Corpus."""
    documents: list[Document] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if len(documents) >= max_in_memory_documents:
                raise CorpusError(
                    f"{path}: more than {max_in_memory_documents} documents; "
                    "a persisted on-disk document store is required at this scale"
                )
            try:
                record = _object(json.loads(line), "record")
                doc = make_document(
                    source_id=str(record["id"]),
                    title=_string_field(record, "title"),
                    section=_string_field(record, "section"),
                    text=_string_field(record, "text"),
                )
            except (json.JSONDecodeError, KeyError, TypeError, CorpusError) as exc:
                raise CorpusError(f"{path}:{lineno}: malformed corpus record: {exc}") from exc
            documents.append(doc)
    return build_corpus(documents)


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


def load_gold(path) -> list[GoldRecord]:
    """Read a line-delimited gold file."""
    records: list[GoldRecord] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                raw = json.loads(line)
                records.append(_parse_gold_record(raw))
            except (json.JSONDecodeError, KeyError, TypeError, CorpusError) as exc:
                raise CorpusError(f"{path}:{lineno}: malformed gold record: {exc}") from exc
    return records


def _parse_gold_record(raw) -> GoldRecord:
    raw = _object(raw, "record")
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
        query_id=str(raw["id"]),
        input=_string_field(raw, "input"),
        answers=tuple(answers),
        provenance=tuple(flat),
        provenance_groups=tuple(groups),
    )
