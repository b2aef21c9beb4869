import json
import random
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from docidlm.cli import main
from docidlm.corpus import UnknownDocIdError, ingest_corpus
from docidlm.tokens import build_vocabulary, encode, load_vocabulary
from docidlm.trie import (
    DocIdTrie,
    ExclusionSet,
    InvalidPrefixError,
    TrieError,
    allowed_continuations,
    build_trie,
    dump_trie,
    exclude,
    load_trie,
)

from conftest import bench_corpus, corpus_from_rows, random_corpus


def recursive_snapshot_lines(trie, prefix=()):
    """The snapshot by a recursive preorder walk over the DocIDs' token paths alone."""
    paths, depth = set(trie.docid_paths.values()), len(prefix)
    below = [path for path in paths if len(path) > depth and path[:depth] == prefix]
    for token in sorted({path[depth] for path in below}):
        child = prefix + (token,)
        yield f"{depth}\t{token}\t{int(child in paths)}\n"
        yield from recursive_snapshot_lines(trie, child)


def spells_docid(trie, tokens) -> bool:
    """Whether ``tokens`` is exactly the path of a DocID in the trie."""
    return tuple(tokens) in set(trie.docid_paths.values())


def excluded_docids(trie, excl) -> list[str]:
    return [doc_id for doc_id in trie.docid_paths if doc_id in excl]


def child_tokens(trie, node) -> list[int]:
    return trie.child_tokens[trie.offsets[node]:trie.offsets[node + 1]].tolist()


def node_prefixes(trie) -> list[tuple[int, ...]]:
    """Every node's prefix, derived from the DocIDs' paths, in preorder (the root first)."""
    return sorted({path[:i] for path in trie.docid_paths.values() for i in range(len(path) + 1)})


def two_doc_setup():
    corpus = corpus_from_rows([("1", "a", "x", "t."), ("2", "a", "y", "t.")])
    vocab = build_vocabulary(corpus, [])
    return corpus, vocab, build_trie(corpus, vocab)


class TestBuild:
    def test_hand_constructed_shape(self):
        corpus = corpus_from_rows([
            ("1", "a", "x", "t."), ("2", "a", "y", "t."), ("3", "b", "z", "t."),
        ])
        vocab = build_vocabulary(corpus, [])
        trie = build_trie(corpus, vocab)
        a, b = vocab.token_to_id["a"], vocab.token_to_id["b"]
        hash_ = vocab.token_to_id["#"]
        x, y = vocab.token_to_id["x"], vocab.token_to_id["y"]
        assert child_tokens(trie, 0) == sorted([a, b])
        assert child_tokens(trie, trie.node_at([a, hash_])) == sorted([x, y])
        assert len(trie) == 3

    def test_single_document_single_path(self):
        corpus = corpus_from_rows([("1", "only", "sec", "t.")])
        vocab = build_vocabulary(corpus, [])
        trie = build_trie(corpus, vocab)
        node, path = 0, []
        while child_tokens(trie, node):
            (token,) = child_tokens(trie, node)
            node = trie.child(node, token)
            path.append(token)
        assert trie.docid_at(node) == "only # sec"
        assert path == encode(vocab, "only # sec")

    def test_empty_corpus_empty_trie(self):
        corpus = corpus_from_rows([])
        vocab = build_vocabulary(corpus, [])
        trie = build_trie(corpus, vocab)
        assert len(trie) == 0
        cont = allowed_continuations(trie, [], ExclusionSet(trie))
        assert cont.tokens == frozenset() and not cont.close_permitted

    def test_contains_exactly_corpus_docids(self, tiny_corpus, tiny_vocab, tiny_trie):
        for doc_id in tiny_corpus.documents:
            assert spells_docid(tiny_trie, encode(tiny_vocab, doc_id))
        assert not spells_docid(tiny_trie, encode(tiny_vocab, "a # q"))
        assert not spells_docid(tiny_trie, encode(tiny_vocab, "a"))

    def test_token_path_collision_rejected(self):
        # case-insensitive tokenizer folds these two distinct DocIDs together
        corpus = corpus_from_rows([("1", "Ab", "x", "t."), ("2", "aB", "x", "t.")])
        vocab = build_vocabulary(corpus, [])
        with pytest.raises(TrieError, match="^DocIDs 'Ab # x' and 'aB # x' share one token path"):
            build_trie(corpus, vocab)

    def test_token_outside_the_vocabulary_rejected(self):
        # a vocabulary built from another corpus has no id for "b"
        vocab = build_vocabulary(corpus_from_rows([("1", "a", "x", "t.")]), [])
        corpus = corpus_from_rows([("1", "a", "x", "t."), ("2", "b", "x", "t.")])
        with pytest.raises(TrieError, match="^DocID 'b # x' has a token outside the vocabulary$"):
            build_trie(corpus, vocab)

    def test_subtree_counts_match_terminals(self):
        rng = random.Random(5)
        corpus = random_corpus(rng, 40)
        vocab = build_vocabulary(corpus, [])
        trie = build_trie(corpus, vocab)

        paths = {path: doc_id for doc_id, path in trie.docid_paths.items()}
        prefixes = node_prefixes(trie)
        assert [trie.node_at(prefix) for prefix in prefixes] == list(range(len(prefixes)))
        for node, prefix in enumerate(prefixes):
            below = [path for path in paths if path[:len(prefix)] == prefix]
            assert trie.subtree[node] == len(below)
            assert child_tokens(trie, node) == sorted({p[len(prefix)] for p in below if p != prefix})
            assert trie.docid_at(node) == paths.get(prefix)
        assert len(trie) == 40


class TestContinuations:
    def test_hand_walk_open_branch(self):
        corpus, vocab, trie = two_doc_setup()
        a, hash_ = vocab.token_to_id["a"], vocab.token_to_id["#"]
        x, y = vocab.token_to_id["x"], vocab.token_to_id["y"]
        cont = allowed_continuations(trie, [a, hash_], ExclusionSet(trie))
        assert cont.tokens == {x, y}
        assert not cont.close_permitted

    def test_terminal_with_no_children(self):
        corpus, vocab, trie = two_doc_setup()
        path = encode(vocab, "a # x")
        cont = allowed_continuations(trie, path, ExclusionSet(trie))
        assert cont.tokens == frozenset()
        assert cont.close_permitted

    def test_exclusion_prunes_branch(self):
        corpus, vocab, trie = two_doc_setup()
        a, hash_ = vocab.token_to_id["a"], vocab.token_to_id["#"]
        y = vocab.token_to_id["y"]
        excl = exclude(ExclusionSet(trie), "a # x")
        cont = allowed_continuations(trie, [a, hash_], excl)
        assert cont.tokens == {y}

    def test_excluded_terminal_forbids_close(self):
        corpus, vocab, trie = two_doc_setup()
        excl = exclude(ExclusionSet(trie), "a # x")
        cont = allowed_continuations(trie, encode(vocab, "a # x"), excl)
        assert not cont.close_permitted

    def test_excluding_everything_empties_root(self):
        corpus, vocab, trie = two_doc_setup()
        excl = ExclusionSet(trie)
        exclude(excl, "a # x")
        exclude(excl, "a # y")
        cont = allowed_continuations(trie, [], excl)
        assert cont.tokens == frozenset()
        assert len(trie) - len(excl) == 0

    def test_sibling_survives_exclusion(self):
        corpus, vocab, trie = two_doc_setup()
        excl = exclude(ExclusionSet(trie), "a # x")
        assert spellable_docids(trie, excl) == {"a # y"}

    def test_invalid_prefix_is_an_error(self, tiny_trie, tiny_vocab):
        bogus = [max(tiny_vocab.token_to_id.values())] * 3
        with pytest.raises(InvalidPrefixError):
            allowed_continuations(tiny_trie, bogus, ExclusionSet(tiny_trie))

    def test_excluding_unknown_docid_is_an_error(self, tiny_trie):
        with pytest.raises(UnknownDocIdError):
            exclude(ExclusionSet(tiny_trie), "nope # nope")


def spellable_docids(trie: DocIdTrie, excl: ExclusionSet) -> set[str]:
    """Oracle: enumerate every DocID reachable under continuation queries."""
    found: set[str] = set()

    def walk(prefix: tuple[int, ...]):
        cont = allowed_continuations(trie, prefix, excl)
        if cont.close_permitted:
            found.add(trie.docid_at(trie.node_at(prefix)))
        for token in cont.tokens:
            walk(prefix + (token,))

    walk(())
    return found


class TestExclusionEquivalence:
    def test_exhaustive_equivalence_random_corpora(self):
        rng = random.Random(17)
        for _ in range(25):
            corpus = random_corpus(rng, rng.randint(2, 60))
            vocab = build_vocabulary(corpus, [])
            trie = build_trie(corpus, vocab)
            doc_ids = sorted(corpus.documents)
            excluded = rng.sample(doc_ids, rng.randint(0, len(doc_ids)))
            excl = ExclusionSet(trie)
            for doc_id in excluded:
                exclude(excl, doc_id)
            assert spellable_docids(trie, excl) == set(doc_ids) - set(excluded)

    def test_monotone_exclusion(self):
        rng = random.Random(23)
        corpus = random_corpus(rng, 30)
        vocab = build_vocabulary(corpus, [])
        trie = build_trie(corpus, vocab)
        doc_ids = sorted(corpus.documents)
        excl = ExclusionSet(trie)
        prefixes = [()] + [path[:rng.randint(0, len(path))]
                           for path in list(trie.docid_paths.values())[:10]]
        previous = {p: allowed_continuations(trie, p, excl).tokens for p in prefixes}
        for doc_id in rng.sample(doc_ids, 10):
            exclude(excl, doc_id)
            for p in prefixes:
                now = allowed_continuations(trie, p, excl).tokens
                assert now <= previous[p]
                previous[p] = now


def oracle_allowed_continuations(trie, prefix, excl):
    """(ascending tokens, close flag) from the paths of the DocIDs not excluded."""
    prefix, excluded = tuple(prefix), set(excluded_docids(trie, excl))
    left = [path for doc_id, path in trie.docid_paths.items() if doc_id not in excluded]
    below = [path[len(prefix):] for path in left if path[:len(prefix)] == prefix]
    return sorted({rest[0] for rest in below if rest}), () in below


def assert_matches_oracle(trie, prefix, excl):
    cont = allowed_continuations(trie, prefix, excl)
    tokens, close_ok = oracle_allowed_continuations(trie, prefix, excl)
    assert cont.ids.dtype == np.int64
    assert not cont.ids.flags.writeable
    assert np.all(np.diff(cont.ids) > 0)
    assert cont.ids.tolist() == tokens
    assert cont.close_permitted == close_ok


def random_prefix(rng, trie):
    path = trie.docid_paths[rng.choice(sorted(trie.docid_paths))]
    return path[:rng.randint(0, len(path))]


def shared_prefix_corpus(rng, n_docs):
    """DocIDs whose one- and two-word titles and sections share their first words."""
    titles = ["ant", "bee", "cat", "dog", "elk", "fox", "gnu", "hen"]
    sections = ["one", "two", "three", "four", "five", "six", "seven", "eight"]
    pairs = set()
    while len(pairs) < n_docs:
        title = " ".join(rng.sample(titles, rng.randint(1, 2)))
        section = " ".join(rng.sample(sections, rng.randint(1, 2)))
        pairs.add((title, section))
    return corpus_from_rows(
        [(str(i), title, section, "alpha beta.") for i, (title, section) in
         enumerate(sorted(pairs))]
    )


class TestArrayContinuationsMatchOracle:
    def test_random_corpora_built_and_loaded(self, tmp_path):
        rng = random.Random(53)
        for round_ in range(20):
            corpus = random_corpus(rng, rng.randint(2, 60))
            vocab = build_vocabulary(corpus, [])
            built = build_trie(corpus, vocab)
            dump_trie(built, tmp_path / f"trie{round_}.txt")
            loaded = load_trie(tmp_path / f"trie{round_}.txt", corpus, vocab)
            assert loaded.docid_paths == built.docid_paths
            doc_ids = sorted(corpus.documents)
            rng.shuffle(doc_ids)
            built_excl, loaded_excl = ExclusionSet(built), ExclusionSet(loaded)
            for doc_id in [None] + doc_ids:
                if doc_id is not None:
                    exclude(built_excl, doc_id)
                    exclude(loaded_excl, doc_id)
                for prefix in [()] + [random_prefix(rng, built) for _ in range(4)]:
                    assert_matches_oracle(built, prefix, built_excl)
                    want = allowed_continuations(built, prefix, built_excl)
                    got = allowed_continuations(loaded, prefix, loaded_excl)
                    assert got.ids.tolist() == want.ids.tolist()
                    assert got.close_permitted == want.close_permitted

    def test_benchmark_scale_corpus(self):
        rng = random.Random(59)
        corpus = shared_prefix_corpus(rng, 2000)
        vocab = build_vocabulary(corpus, [])
        trie = build_trie(corpus, vocab)
        assert len(trie) == 2000
        # whole titles die as well as single DocIDs, so dead tokens appear at every depth
        by_title: dict[str, list[str]] = {}
        for doc_id in sorted(corpus.documents):
            by_title.setdefault(doc_id.split(" # ")[0], []).append(doc_id)
        doomed = [d for title in rng.sample(sorted(by_title), 4) for d in by_title[title]]
        order = doomed + rng.sample(sorted(set(corpus.documents) - set(doomed)), 120)
        rng.shuffle(order)
        excl = ExclusionSet(trie)
        for doc_id in order:
            exclude(excl, doc_id)
            path = trie.docid_paths[doc_id]
            assert_matches_oracle(trie, (), excl)
            assert_matches_oracle(trie, path[:rng.randint(0, len(path))], excl)
            assert_matches_oracle(trie, random_prefix(rng, trie), excl)


@pytest.fixture(scope="module")
def corpusgen_corpus():
    """A 3,000-DocID benchmark corpus: sectioned titles, many sharing their first word."""
    return bench_corpus(3000, 4, 1, 200, 1200, seed=3)[0]


class TestAtBenchmarkScale:
    def test_oracle_under_random_exclusion_orders(self, corpusgen_corpus):
        corpus = corpusgen_corpus
        trie = build_trie(corpus, build_vocabulary(corpus, []))
        assert len(trie) == 3000
        by_title: dict[str, list[str]] = {}
        for doc_id in corpus.documents:
            by_title.setdefault(doc_id.split(" # ")[0], []).append(doc_id)
        rng = random.Random(67)
        for _ in range(2):
            # whole titles die as well as single DocIDs, so dead tokens appear at every depth
            doomed = [d for title in rng.sample(sorted(by_title), 6) for d in by_title[title]]
            order = doomed + rng.sample(sorted(set(corpus.documents) - set(doomed)), 120)
            rng.shuffle(order)
            walked, given = ExclusionSet(trie), ExclusionSet(trie)
            for doc_id in order:
                path = trie.docid_paths[doc_id]
                exclude(walked, doc_id)
                given.add(doc_id, trie.node_at(path))  # as the decoder does, from the end node
                for prefix in [(), path[:rng.randint(0, len(path))], random_prefix(rng, trie)]:
                    assert_matches_oracle(trie, prefix, walked)
                    want = allowed_continuations(trie, prefix, walked)
                    got = allowed_continuations(trie, prefix, given, node=trie.node_at(prefix))
                    assert got.ids.tolist() == want.ids.tolist()
                    assert got.close_permitted == want.close_permitted

    def test_trie_retains_at_most_96_bytes_per_node(self, corpusgen_corpus):
        vocab = build_vocabulary(corpusgen_corpus, [])
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            trie = build_trie(corpusgen_corpus, vocab)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        nodes = len(node_prefixes(trie))
        assert nodes == len(trie.child_tokens) + 1
        assert retained / nodes <= 96


class TestIdempotentExclusion:
    def test_sibling_survives_repeated_exclusion(self):
        corpus, vocab, trie = two_doc_setup()
        excl = exclude(exclude(ExclusionSet(trie), "a # x"), "a # x")
        assert len(excl) == 1
        assert spellable_docids(trie, excl) == {"a # y"}

    def test_second_exclusion_leaves_every_mask(self):
        rng = random.Random(61)
        for _ in range(10):
            corpus = random_corpus(rng, rng.randint(2, 40))
            vocab = build_vocabulary(corpus, [])
            trie = build_trie(corpus, vocab)
            prefixes = node_prefixes(trie)
            excl = ExclusionSet(trie)
            for doc_id in rng.sample(sorted(corpus.documents), len(corpus.documents) // 2):
                exclude(excl, doc_id)
                once = [allowed_continuations(trie, p, excl) for p in prefixes]
                exclude(excl, doc_id)
                twice = [allowed_continuations(trie, p, excl) for p in prefixes]
                for a, b in zip(once, twice):
                    assert a.ids.tolist() == b.ids.tolist()
                    assert a.close_permitted == b.close_permitted


class TestSnapshot:
    def test_dump_load_structural_identity(self, tmp_path):
        rng = random.Random(31)
        corpus = random_corpus(rng, 25)
        vocab = build_vocabulary(corpus, [])
        trie = build_trie(corpus, vocab)
        path = tmp_path / "trie.txt"
        dump_trie(trie, path)
        loaded = load_trie(path, corpus, vocab)
        assert loaded.docid_paths == trie.docid_paths
        dump_trie(loaded, tmp_path / "again.txt")
        assert (tmp_path / "again.txt").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_dump_equals_recursive_preorder(self, tmp_path, seed):
        rng = random.Random(seed)
        corpus = random_corpus(rng, rng.randint(1, 40))
        vocab = build_vocabulary(corpus, [])
        trie = build_trie(corpus, vocab)
        dump_trie(trie, tmp_path / "trie.txt")
        expected = "".join(recursive_snapshot_lines(trie))
        prefixes = {path[:i] for path in trie.docid_paths.values() for i in range(1, len(path) + 1)}
        assert expected.count("\n") == len(prefixes)
        assert (tmp_path / "trie.txt").read_text(encoding="utf-8") == expected

    def test_docid_of_five_thousand_tokens(self, tmp_path):
        corpus_file, out = tmp_path / "corpus.jsonl", tmp_path / "index"
        title = " ".join(f"w{i % 97}" for i in range(4998))  # 4998 words, then "#" and "s"
        rows = [{"id": "1", "title": title, "section": "s", "text": "long."},
                {"id": "2", "title": "short", "section": "s", "text": "tiny."}]
        corpus_file.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
        assert main(["index", "--corpus", str(corpus_file), "--out", str(out)]) == 0
        corpus, vocab = ingest_corpus(corpus_file), load_vocabulary(out / "vocab.txt")
        trie = load_trie(out / "trie.txt", corpus, vocab)
        assert len(trie.docid_paths[f"{title} # s"]) == 5000
        lines = (out / "trie.txt").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 5000 + 3
        assert lines[-1] == f"4999\t{vocab.id_of('s')}\t1"

    def test_empty_trie_snapshot(self, tmp_path):
        corpus = corpus_from_rows([])
        vocab = build_vocabulary(corpus, [])
        path = tmp_path / "trie.txt"
        dump_trie(build_trie(corpus, vocab), path)
        assert path.read_bytes() == b""
        assert len(load_trie(path, corpus, vocab)) == 0


@pytest.fixture
def snapshot(tmp_path):
    """A real dump of the DocIDs "a #" and "b # y", with its corpus, vocabulary and token ids.

    Its five lines are ``0 a 0 / 1 # 1 / 0 b 0 / 1 # 0 / 2 y 1``.
    """
    corpus = corpus_from_rows([("1", "a", "", "t."), ("2", "b", "y", "t.")])
    vocab = build_vocabulary(corpus, [])
    ids = {name: vocab.token_to_id[token] for name, token in
           [("a", "a"), ("b", "b"), ("hash", "#"), ("y", "y")]}
    path = tmp_path / "trie.txt"
    dump_trie(build_trie(corpus, vocab), path)
    layout = ["0\t{a}\t0", "1\t{hash}\t1", "0\t{b}\t0", "1\t{hash}\t0", "2\t{y}\t1"]
    assert path.read_text(encoding="utf-8").splitlines() == [l.format(**ids) for l in layout]
    return SimpleNamespace(path=path, corpus=corpus, vocab=vocab, ids=ids)


def assert_rejected_at(snapshot, text, bad_line, vocab=None):
    """Write ``text`` over the snapshot; loading it must fail naming ``bad_line``."""
    path = snapshot.path
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(TrieError, match=f"^{re.escape(str(path))}:{bad_line}: found "):
        load_trie(path, snapshot.corpus, vocab or snapshot.vocab)


@pytest.mark.parametrize("lines, bad_line", [
    ({1: "-1\t{a}\t0"}, 1),  # negative depth
    ({1: "0\t2\t0"}, 1),  # reserved token id
    ({1: "0\t-3\t0"}, 1),  # negative token id
    ({3: "0\t{a}\t0"}, 3),  # token repeated under one parent
    ({2: "2\t{hash}\t1"}, 2),  # depth skips a level
    ({2: "1\t{hash}\t0", 3: None}, 2),  # leaf that ends no DocID, last line
    ({2: "1\t{hash}\t0"}, 2),  # leaf that ends no DocID, before a sibling
    ({1: "0\tx\t0"}, 1),  # non-integer field
    ({1: "0\t{b}\t0", 2: "1\t{hash}\t0", 3: "2\t{y}\t1",
      4: "0\t{a}\t0", 5: "1\t{hash}\t1"}, 1),  # siblings reordered
    ({2: "1\t {hash}\t1"}, 2),  # padded field
    ({5: "2\t{y}\t2"}, 5),  # terminal flag other than 0 or 1
])
def test_malformed_snapshot_rejected_with_line(snapshot, lines, bad_line):
    """``lines`` maps a line number of the dump to its corruption; None cuts the file there."""
    dumped = snapshot.path.read_text(encoding="utf-8").splitlines()
    for lineno, line in sorted(lines.items(), reverse=True):
        if line is None:
            del dumped[lineno - 1:]
        else:
            dumped[lineno - 1] = line.format(**snapshot.ids)
    assert_rejected_at(snapshot, "".join(line + "\n" for line in dumped), bad_line)


class TestSnapshotIsCanonical:
    def test_crlf_line_ends(self, snapshot):
        text = snapshot.path.read_text(encoding="utf-8")
        assert_rejected_at(snapshot, text.replace("\n", "\r\n"), 1)

    @pytest.mark.parametrize("at", [1, 4, 6])
    def test_blank_line(self, snapshot, at):
        lines = snapshot.path.read_text(encoding="utf-8").splitlines(keepends=True)
        assert_rejected_at(snapshot, "".join(lines[:at - 1] + ["\n"] + lines[at - 1:]), at)

    def test_vocabulary_built_differently(self, snapshot):
        # "aa" sorts between "a" and "b", so the id of b, on line 3, moves up by one
        other = build_vocabulary(snapshot.corpus, ["aa"])
        assert other.token_to_id["b"] == snapshot.ids["b"] + 1
        assert_rejected_at(snapshot, snapshot.path.read_text(encoding="utf-8"), 3, vocab=other)


class TestSnapshotBindsOnlyCorpusDocIds:
    def test_terminal_path_outside_the_corpus(self, snapshot):
        # line 5 now ends "b # a", which is not a corpus DocID
        text = snapshot.path.read_text(encoding="utf-8")
        y_line = "2\t{y}\t1\n".format(**snapshot.ids)
        assert_rejected_at(snapshot, text.replace(y_line, "2\t{a}\t1\n".format(**snapshot.ids)), 5)

    def test_corpus_docid_missing_from_the_snapshot(self, snapshot):
        # the file stops before "b # y", whose path starts on line 3
        lines = snapshot.path.read_text(encoding="utf-8").splitlines(keepends=True)
        assert_rejected_at(snapshot, "".join(lines[:2]), 3)
