"""Corpus ingestion, canonical DocIDs, and the reference tokenizer.

Every passage gets a human-readable identifier of the form "title # section".
The word-level tokenizer keeps identifier paths short, and round-trips any
in-vocabulary text.
"""
from pathlib import Path

from docidlm import (DOCID_CLOSE, DOCID_OPEN, build_vocabulary, canonical_docid, decode, encode,
                     ingest_corpus, layout_tokens, split_sentences)

DATA = Path(__file__).parent / "data"

corpus = ingest_corpus(DATA / "corpus.jsonl")
print(f"ingested {corpus.stats.document_count} documents, "
      f"{corpus.stats.token_count} body tokens\n")

print("canonical DocIDs normalize whitespace and keep the separator:")
for title, section in [("Mars", "overview"), ("A  B", " C "), ("Saturn", "")]:
    print(f"  {(title, section)!r:28} -> {canonical_docid(title, section)!r}")

doc = corpus.get("Mars # overview")
print(f"\nlookup 'Mars # overview' -> title={doc.title!r}, {len(doc.sentences)} sentences")
for sentence in doc.sentences:
    print(f"  | {sentence}")

print("\nsentence splitting keeps terminators and order:")
print(" ", split_sentences("X? Y! Z."))

vocab = build_vocabulary(corpus, extra_texts=["retrieve:", "rag:", "answer:"])
print(f"\nvocabulary: {vocab.size} tokens, the first seven are structural:")
print(" ", vocab.tokens[:7])

text = "the rings of saturn"
ids = encode(vocab, text)
print(f"\nencode({text!r}) -> {ids}")
print(f"decode(...)  -> {decode(vocab, ids)!r}")

ids = layout_tokens(vocab, (DOCID_OPEN, "Mars # overview", DOCID_CLOSE))
print(f"\nDocID spans use reserved symbols: {ids}")
print(f"  -> {decode(vocab, ids)!r}")
