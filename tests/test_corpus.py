import json
import random

import pytest

from docidlm.corpus import (
    CorpusError,
    DuplicateDocIdError,
    UnknownDocIdError,
    canonical_docid,
    ingest_corpus,
    load_gold,
    split_sentences,
)

from conftest import corpus_from_rows


class TestCanonicalDocid:
    def test_plain_concatenation(self):
        assert canonical_docid("Aaron", "Early life") == "Aaron # Early life"

    def test_empty_section_keeps_separator(self):
        assert canonical_docid("Aaron", "") == "Aaron #"

    def test_whitespace_normalization(self):
        assert canonical_docid("A  B", " C ") == "A B # C"
        assert canonical_docid("\tA\nB ", "C\t\tD") == "A B # C D"

    def test_empty_title_rejected(self):
        with pytest.raises(CorpusError):
            canonical_docid("", "x")
        with pytest.raises(CorpusError):
            canonical_docid("   ", "x")

    def test_injective_on_distinct_normalized_pairs(self):
        rng = random.Random(7)
        words = ["aa", "bb", "cc", "dd", "ee"]
        pairs = set()
        for _ in range(500):
            title = " ".join(rng.choices(words, k=rng.randint(1, 3)))
            section = " ".join(rng.choices(words, k=rng.randint(0, 2)))
            pairs.add((" ".join(title.split()), " ".join(section.split())))
        docids = {canonical_docid(t, s) for t, s in pairs}
        assert len(docids) == len(pairs)


class TestSplitSentences:
    def test_two_periods(self):
        assert split_sentences("A b. C d.") == ["A b.", "C d."]

    def test_no_terminator(self):
        assert split_sentences("No terminator") == ["No terminator"]

    def test_all_terminators(self):
        assert split_sentences("X? Y! Z.") == ["X?", "Y!", "Z."]

    def test_empty(self):
        assert split_sentences("") == []
        assert split_sentences("   ") == []

    def test_interior_period_without_space_not_a_boundary(self):
        assert split_sentences("see e.g.this one. done.") == ["see e.g.this one.", "done."]

    def test_coverage_of_non_whitespace(self):
        rng = random.Random(3)
        alphabet = "ab .!?"
        for _ in range(200):
            text = "".join(rng.choices(alphabet, k=rng.randint(0, 40)))
            joined = "".join("".join(split_sentences(text)).split())
            assert joined == "".join(text.split())


class TestIngest:
    def _write_corpus(self, path, rows):
        with open(path, "w", encoding="utf-8") as fh:
            for r in rows:
                fh.write(json.dumps({"id": r[0], "title": r[1], "section": r[2], "text": r[3]}) + "\n")

    def test_three_line_fixture(self, tmp_path):
        path = tmp_path / "c.jsonl"
        self._write_corpus(path, [
            ("1", "a", "x", "one two."),
            ("2", "a", "y", "three."),
            ("3", "b", "z", "four five six."),
        ])
        corpus = ingest_corpus(path)
        assert corpus.stats.document_count == 3
        assert len(corpus) == 3

    def test_round_trip_lookup(self, tmp_path):
        path = tmp_path / "c.jsonl"
        rows = [("1", "A  B", " C ", "body text here.")]
        self._write_corpus(path, rows)
        corpus = ingest_corpus(path)
        doc = corpus.get(canonical_docid("A  B", " C "))
        assert doc.body == "body text here."

    def test_duplicate_docid_conflict(self, tmp_path):
        path = tmp_path / "c.jsonl"
        self._write_corpus(path, [
            ("1", "a", "x", "one."),
            ("2", "a ", " x", "two."),
        ])
        with pytest.raises(DuplicateDocIdError) as err:
            ingest_corpus(path)
        assert "'1'" in str(err.value) and "'2'" in str(err.value)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("")
        corpus = ingest_corpus(path)
        assert len(corpus) == 0
        with pytest.raises(UnknownDocIdError):
            corpus.get("a # x")

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "1", "title": "a", "section": "x", "text": "t."}\nnot json\n')
        with pytest.raises(CorpusError) as err:
            ingest_corpus(path)
        assert ":2:" in str(err.value)

    def test_missing_field_is_parse_error(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "1", "title": "a"}\n')
        with pytest.raises(CorpusError):
            ingest_corpus(path)

    @pytest.mark.parametrize("record, named", [
        ({"id": 1, "title": 5, "section": "s", "text": "hello."}, "'title' must be a string"),
        ({"id": 1, "title": "t", "section": ["s"], "text": "hello."}, "'section' must be a string"),
        ({"id": 1, "title": "t", "section": "s", "text": ["hello."]}, "'text' must be a string"),
        ({"id": 1, "title": "t", "section": "s", "text": None}, "'text' must be a string"),
        ({"id": 1, "title": " ", "section": "s", "text": "hello."}, "title must be non-empty"),
        (["t", "s", "hello."], "record must be a JSON object"),
    ])
    def test_malformed_record_names_field_and_line(self, tmp_path, record, named):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "1", "title": "a", "section": "x", "text": "t."}\n'
                        + json.dumps(record) + "\n")
        with pytest.raises(CorpusError) as err:
            ingest_corpus(path)
        assert str(err.value).startswith(f"{path}:2: malformed corpus record: ")
        assert named in str(err.value)


class TestGold:
    def test_load_gold_groups_and_flat(self, tmp_path):
        path = tmp_path / "g.jsonl"
        record = {
            "id": "q1",
            "input": "who is aaron",
            "output": [
                {"answer": "a prophet",
                 "provenance": [{"title": "Aaron", "section": "Early life"}]},
                {"answer": "brother of moses",
                 "provenance": [{"title": "Moses", "section": ""},
                                {"title": "Aaron", "section": "Early life"}]},
            ],
        }
        path.write_text(json.dumps(record) + "\n")
        [gold] = load_gold(path)
        assert gold.query_id == "q1"
        assert gold.answers == ("a prophet", "brother of moses")
        assert gold.provenance == ("Aaron # Early life", "Moses #")
        assert gold.provenance_groups == (
            ("Aaron # Early life",),
            ("Moses #", "Aaron # Early life"),
        )

    def test_malformed_gold_line(self, tmp_path):
        path = tmp_path / "g.jsonl"
        path.write_text("{broken\n")
        with pytest.raises(CorpusError) as err:
            load_gold(path)
        assert ":1:" in str(err.value)

    @pytest.mark.parametrize("fields, named", [
        ({"output": {"answer": "a"}}, "'output' must be a list"),
        ({"output": ["a"]}, "output entry must be a JSON object"),
        ({"output": [{"answer": 5}]}, "'answer' must be a string"),
        ({"output": [{"answer": ["a"]}]}, "'answer' must be a string"),
        ({"input": 5}, "'input' must be a string"),
        ({"output": [{"provenance": [{"title": 5}]}]}, "'title' must be a string"),
        ({"output": [{"provenance": [{"title": "Mars", "section": ["x"]}]}]},
         "'section' must be a string"),
        ({"output": [{"provenance": ["Mars"]}]}, "provenance entry must be a JSON object"),
    ])
    def test_malformed_record_names_field_and_line(self, tmp_path, fields, named):
        valid = {"id": "q1", "input": "which planet is red",
                 "output": [{"answer": "mars", "provenance": [{"title": "Mars"}]}]}
        path = tmp_path / "g.jsonl"
        path.write_text(json.dumps(valid) + "\n" + json.dumps({**valid, **fields}) + "\n")
        with pytest.raises(CorpusError) as err:
            load_gold(path)
        assert str(err.value).startswith(f"{path}:2: malformed gold record: ")
        assert named in str(err.value)

    def test_non_object_record_names_line(self, tmp_path):
        path = tmp_path / "g.jsonl"
        path.write_text('["q1", "which planet is red"]\n')
        with pytest.raises(CorpusError) as err:
            load_gold(path)
        assert str(err.value).startswith(f"{path}:1: malformed gold record: record must be")


def test_sentences_rebuild_body_up_to_whitespace(tiny_corpus):
    for doc in tiny_corpus.documents.values():
        assert " ".join(doc.sentences) == " ".join(doc.body.split())


def test_corpus_token_count_counts_body_words():
    corpus = corpus_from_rows([("1", "t", "s", "one two three.")])
    # three words plus the trailing period token
    assert corpus.stats.token_count == 4


def test_in_memory_threshold_enforced(tmp_path):
    path = tmp_path / "c.jsonl"
    rows = [{"id": str(i), "title": f"t{i}", "section": "", "text": "x."} for i in range(5)]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    assert len(ingest_corpus(path)) == 5
    with pytest.raises(CorpusError):
        ingest_corpus(path, max_in_memory_documents=3)
