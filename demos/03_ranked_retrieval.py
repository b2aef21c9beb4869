"""Ranked DocID-list generation end to end.

Training targets put the labeled DocIDs first and fill the list with
BM25-retrieved, reranked extras. The reference n-gram scorer is fit on the
corpus plus those rendered targets, and constrained greedy decoding then
emits a valid, duplicate-free DocID ranking for each query.
"""
from pathlib import Path

from docidlm import build_trie, generate_docid_list, ingest_corpus, layout_text, load_gold, r_precision
from docidlm.cli import RunConfig, build_training_examples, engine_vocabulary
from docidlm.training import build_bm25_index, build_reference_lm, bm25_retrieve

DATA = Path(__file__).parent / "data"

corpus = ingest_corpus(DATA / "corpus.jsonl")
gold = load_gold(DATA / "gold.jsonl")
index = build_bm25_index(corpus)

print("BM25 alone, query 'which planet is red':")
for doc_id, score in bm25_retrieve(index, "which planet is red", 3):
    print(f"  {score:6.3f}  {doc_id}")

config = RunConfig(k_retrieve=5, seed=0)
examples = build_training_examples(corpus, gold, index, config)
retrieval_targets = [e for e in examples if e.task.value == "retrieval"]
print(f"\n{len(examples)} training examples; a ranked-list target looks like:")
print(f"  input:  {retrieval_targets[0].input!r}")
print(f"  target: {layout_text(retrieval_targets[0].target)!r}")

vocab = engine_vocabulary(corpus, gold)
trie = build_trie(corpus, vocab)
lm = build_reference_lm(corpus, vocab, examples)

print("\nconstrained greedy decoding per query:")
scores = []
for record in gold:
    ranked = generate_docid_list(lm, trie, record.input, k=5)
    rp = r_precision(list(ranked.docids), set(record.provenance))
    scores.append(rp)
    print(f"  {record.input!r}")
    for doc_id, logprob in zip(ranked.docids, ranked.per_docid_logprob):
        marker = "*" if doc_id in record.provenance else " "
        print(f"    {marker} {logprob:8.3f}  {doc_id}")
    print(f"    R-Precision = {rp:.2f}")

print(f"\nmean R-Precision over {len(scores)} queries: {sum(scores)/len(scores):.2f}")
