"""Data text never yields a structural id.

Corpora, queries, answers and references here carry whole-chunk special
surfaces such as ``</s>``, ``<answer>`` and ``</ref>``. Every sequence built
from them must hold exactly the structural ids (0-5) that its layout inserts:
a prompt and a document rendering none, a training or loss sequence the int
pieces of its example's layouts plus the task's markers.
"""

import random

from docidlm.corpus import build_corpus, make_document
from docidlm.decoder import (generate_closed_book, generate_docid_list, generate_rag,
                             generate_rag_pipeline, render_document_tokens)
from docidlm.lm import UniformLm
from docidlm.tokens import (ANSWER_OPEN, DOCID_CLOSE, DOCID_OPEN, EOS, REF_CLOSE, REF_OPEN,
                            SPECIAL_SURFACES, UNK, build_vocabulary)
from docidlm.training import (LexicalOverlapReranker, Task, build_bm25_index, build_reference_lm,
                              construct_ranked_docid_list, extract_reference,
                              make_closed_book_example, make_docid_understanding_examples,
                              make_rag_examples, make_retrieval_example, render_example_tokens,
                              sequence_loss)
from docidlm.trie import build_trie

from conftest import _SECTION_POOL, _TITLE_POOL, _WORD_POOL

PREFIXES = ["retrieve:", "answer:", "rag:", "recite:", "related:"]


def salted(rng, pool, k):
    """``k`` words from ``pool`` with one to three special surfaces scattered among them."""
    words = rng.choices(pool, k=k)
    for _ in range(rng.randint(1, 3)):
        words.insert(rng.randint(0, len(words)), rng.choice(SPECIAL_SURFACES))
    return " ".join(words)


def salted_corpus(rng, n_docs):
    """Salted bodies, about half the titles salted, and one document titled ``</s>``."""
    rows = {("</s>", "one"): salted(rng, _WORD_POOL, 4) + "."}
    while len(rows) < n_docs:
        title = salted(rng, _TITLE_POOL, 1) if rng.random() < 0.5 else rng.choice(_TITLE_POOL)
        body = " ".join(salted(rng, _WORD_POOL, rng.randint(3, 7)) + "."
                        for _ in range(rng.randint(1, 3)))
        rows[(title, rng.choice(_SECTION_POOL))] = body
    return build_corpus([make_document(str(i), title, section, body)
                         for i, ((title, section), body) in enumerate(rows.items())])


def structure(tokens):
    return [t for t in tokens if t < UNK]


def inserted(layout):
    """The structural ids a layout inserts: its int pieces (a plain string inserts none)."""
    return [] if isinstance(layout, str) else [p for p in layout if isinstance(p, int)]


def rendered_structure(example):
    """What render_example_tokens adds around the input and target layouts."""
    if example.task in (Task.CLOSED_BOOK, Task.RAG_ANSWER):
        return inserted(example.input) + [ANSWER_OPEN] + inserted(example.target) + [EOS]
    if example.task is Task.RAG_REFERENCE:
        return inserted(example.input) + [REF_OPEN] + inserted(example.target) + [REF_CLOSE]
    return inserted(example.input) + inserted(example.target) + [EOS]


class RecordingLm(UniformLm):
    """A uniform scorer that keeps a copy of every context it is asked about."""

    def __init__(self, vocab):
        super().__init__(vocab)
        self.contexts = []

    def next_logprobs(self, context):
        self.contexts.append(list(context))
        return super().next_logprobs(context)


def salted_instance(rng):
    corpus = salted_corpus(rng, rng.randint(3, 12))
    queries = [salted(rng, _WORD_POOL + _TITLE_POOL, rng.randint(2, 5)) for _ in range(3)]
    answers = [salted(rng, _WORD_POOL, rng.randint(1, 3)) for _ in queries]
    vocab = build_vocabulary(corpus, PREFIXES + queries + answers)
    return corpus, vocab, queries, answers


def salted_examples(rng, corpus, queries, answers):
    index = build_bm25_index(corpus)
    reranker = LexicalOverlapReranker(corpus)
    doc_ids = sorted(corpus.documents)
    examples = []
    for query, answer in zip(queries, answers):
        labeled = rng.sample(doc_ids, rng.randint(1, min(3, len(doc_ids))))
        ranked = construct_ranked_docid_list(query, labeled, index, reranker, 4)
        docs = [corpus.get(d) for d in ranked[:2]]
        reference = extract_reference(docs, answer)
        examples.append(make_retrieval_example(query, ranked))
        examples.append(make_closed_book_example(query, answer))
        examples.extend(make_rag_examples(query, docs, reference, answer, tau=0.5, rng=rng))
    examples.extend(make_docid_understanding_examples(corpus, index, 3, rng, reranker=reranker, k=4))
    return examples


def test_prompts_and_documents_hold_no_structural_id():
    rng = random.Random(131)
    for _ in range(20):
        corpus, vocab, queries, _ = salted_instance(rng)
        for doc in corpus.documents.values():
            assert structure(render_document_tokens(vocab, doc, rng.randint(1, 40))) == []
        for query in queries:
            lm = RecordingLm(vocab)
            generate_closed_book(lm, query, 3)
            assert structure(lm.contexts[0]) == []
        trie = build_trie(corpus, vocab)
        for query in queries:
            lm = RecordingLm(vocab)
            generate_docid_list(lm, trie, query, 2)
            assert structure(lm.contexts[0]) == []
            for generate in (generate_rag, generate_rag_pipeline):
                lm = RecordingLm(vocab)
                result = generate(lm, trie, corpus, query, k_retrieve=3, k_context=2,
                                  max_ref_tokens=2, max_answer_tokens=2)
                assert structure(lm.contexts[0]) == []
                # the documents pulled into the context add no structure to the trace's
                emitted = structure(result.token_trace[:-1])
                if generate is generate_rag_pipeline and result.context_docids:
                    emitted = [t for t in emitted if t not in (DOCID_OPEN, DOCID_CLOSE)]
                assert structure(lm.contexts[-1]) == emitted


def test_training_and_loss_sequences_hold_only_inserted_structural_ids():
    rng = random.Random(137)
    seen_tasks = set()
    for _ in range(20):
        corpus, vocab, queries, answers = salted_instance(rng)
        for example in salted_examples(rng, corpus, queries, answers):
            seen_tasks.add(example.task)
            assert structure(render_example_tokens(vocab, example)) == rendered_structure(example)
            lm = RecordingLm(vocab)
            sequence_loss(lm, example)
            # the first context is the input; the last is input and target without EOS
            assert structure(lm.contexts[0]) == inserted(example.input)
            assert structure(lm.contexts[-1]) == inserted(example.input) + inserted(example.target)
    assert seen_tasks == set(Task)


def test_docid_titled_with_a_surface_is_built_and_retrieved():
    rng = random.Random(139)
    corpus, vocab, queries, _ = salted_instance(rng)
    trie = build_trie(corpus, vocab)
    assert all(structure(path) == [] for path in trie.docid_paths.values())
    examples = [make_retrieval_example(query, ["</s> # one"]) for query in queries]
    lm = build_reference_lm(corpus, vocab, examples, alpha=0.1)
    for query in queries:
        assert generate_docid_list(lm, trie, query, 1).docids == ("</s> # one",)
