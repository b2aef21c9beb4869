import json
import logging
import re
from pathlib import Path

import pytest

from docidlm.cli import main, read_jsonl_records
from docidlm.corpus import ingest_corpus
from docidlm.tokens import load_vocabulary
from docidlm.training import parse_example_record
from docidlm.trie import build_trie, load_trie

CORPUS_ROWS = [
    ("m1", "Mercury", "overview", "mercury is the smallest planet. it orbits closest to the sun."),
    ("v1", "Venus", "overview", "venus is the hottest planet. thick clouds cover venus."),
    ("e1", "Earth", "overview", "earth is the blue planet. water covers most of earth."),
    ("r1", "Mars", "overview", "mars is the red planet. it appears red in the night sky."),
    ("j1", "Jupiter", "overview", "jupiter is the largest planet. a giant storm rages on jupiter."),
    ("s1", "Saturn", "overview", "saturn is the ringed planet. saturn has many moons."),
    ("s2", "Saturn", "rings", "the rings of saturn are made of ice. they shine brightly."),
    ("e2", "Earth", "moon", "the moon orbits earth. tides follow the moon."),
]

GOLD_RECORDS = [
    {"id": "q1", "input": "which planet is red",
     "output": [{"answer": "mars",
                 "provenance": [{"title": "Mars", "section": "overview"}]}]},
    {"id": "q2", "input": "what is the largest planet",
     "output": [{"answer": "jupiter",
                 "provenance": [{"title": "Jupiter", "section": "overview"}]}]},
    {"id": "q3", "input": "which planet has rings of ice",
     "output": [{"answer": "saturn",
                 "provenance": [{"title": "Saturn", "section": "overview"},
                                {"title": "Saturn", "section": "rings"}]}]},
]


@pytest.fixture
def workdir(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    with open(corpus, "w", encoding="utf-8") as fh:
        for sid, title, section, text in CORPUS_ROWS:
            fh.write(json.dumps({"id": sid, "title": title, "section": section,
                                 "text": text}) + "\n")
    gold = tmp_path / "gold.jsonl"
    with open(gold, "w", encoding="utf-8") as fh:
        for record in GOLD_RECORDS:
            fh.write(json.dumps(record) + "\n")
    return tmp_path


def run(args):
    return main([str(a) for a in args])


class TestIngest:
    def test_writes_config_and_documents(self, workdir):
        out = workdir / "ingested.jsonl"
        assert run(["ingest", "--corpus", workdir / "corpus.jsonl", "--out", out]) == 0
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert "_config" in lines[0]
        assert lines[1]["_stats"]["document_count"] == len(CORPUS_ROWS)
        assert lines[2]["doc_id"] == "Mercury # overview"

    def test_missing_corpus_flag_exits_naming_it(self, workdir):
        with pytest.raises(SystemExit, match="^missing --corpus$"):
            run(["ingest", "--out", workdir / "x.jsonl"])

    def test_missing_file_exits_nonzero(self, workdir, capsys):
        code = run(["ingest", "--corpus", workdir / "nope.jsonl",
                    "--out", workdir / "x.jsonl"])
        assert code != 0
        assert "error" in capsys.readouterr().err


class TestIndex:
    def test_artifacts_load_back(self, workdir):
        out = workdir / "index"
        assert run(["index", "--corpus", workdir / "corpus.jsonl",
                    "--gold", workdir / "gold.jsonl", "--out", out]) == 0
        vocab = load_vocabulary(out / "vocab.txt")
        corpus = ingest_corpus(workdir / "corpus.jsonl")
        rebuilt = build_trie(corpus, vocab)
        loaded = load_trie(out / "trie.txt", corpus=corpus, vocab=vocab)
        assert loaded.docid_paths == rebuilt.docid_paths
        meta = json.loads((out / "meta.json").read_text())
        assert meta["docid_count"] == len(CORPUS_ROWS)
        assert meta["config"]["seed"] == 0


class TestTraindata:
    def test_examples_parse_and_cover_tasks(self, workdir):
        out = workdir / "train.jsonl"
        assert run(["traindata", "--corpus", workdir / "corpus.jsonl",
                    "--gold", workdir / "gold.jsonl", "--out", out,
                    "--aux-per-task", 4]) == 0
        examples = [parse_example_record(r) for r in read_jsonl_records(out)]
        tasks = {e.task.value for e in examples}
        assert {"retrieval", "closed_book", "rag_reference", "rag_answer"} <= tasks
        assert any(t.startswith("aux_") for t in tasks)

    def test_retrieval_targets_lead_with_provenance(self, workdir):
        out = workdir / "train.jsonl"
        run(["traindata", "--corpus", workdir / "corpus.jsonl",
             "--gold", workdir / "gold.jsonl", "--out", out])
        examples = [parse_example_record(r) for r in read_jsonl_records(out)]
        retrieval = [e for e in examples if e.task.value == "retrieval"]
        assert retrieval[0].target.startswith("<docid> Mars # overview </docid>")


class TestRetrieve:
    def test_docids_valid_and_deterministic(self, workdir):
        out = workdir / "results.jsonl"
        base = ["retrieve", "--corpus", workdir / "corpus.jsonl",
                "--gold", workdir / "gold.jsonl", "--seed", 7, "--out", out]
        assert run(base) == 0
        first = out.read_bytes()
        assert run(base) == 0
        assert out.read_bytes() == first
        corpus = ingest_corpus(workdir / "corpus.jsonl")
        for record in read_jsonl_records(out):
            assert record["docids"]
            assert len(set(record["docids"])) == len(record["docids"])
            assert all(d in corpus for d in record["docids"])


class TestRag:
    def test_pipeline_reprocesses_more_context(self, workdir):
        cont, pipe = workdir / "cont.jsonl", workdir / "pipe.jsonl"
        base = ["rag", "--corpus", workdir / "corpus.jsonl",
                "--gold", workdir / "gold.jsonl", "--k-retrieve", 4, "--k-context", 2]
        assert run(base + ["--mode", "continuous", "--out", cont]) == 0
        assert run(base + ["--mode", "pipeline", "--out", pipe]) == 0
        for c, p in zip(read_jsonl_records(cont), read_jsonl_records(pipe)):
            assert p["cost"]["context_tokens"] > c["cost"]["context_tokens"]
            assert p["answer"] == c["answer"]
            assert p["references"] == c["references"]


class TestLoss:
    def test_breakdown_identities(self, workdir):
        out = workdir / "loss.json"
        assert run(["loss", "--corpus", workdir / "corpus.jsonl",
                    "--gold", workdir / "gold.jsonl", "--out", out]) == 0
        payload = json.loads(out.read_text())
        losses = payload["losses"]
        assert losses["l_rag"] == losses["l_ref"] + losses["l_ans"]
        assert losses["combined"] == pytest.approx(
            losses["l_rank"] + losses["l_gen"] + losses["l_rag"] + losses["l_aux"])
        assert payload["config"]["lambdas"] == [1.0, 1.0, 1.0, 1.0]

    def test_lambda_flag_parsed(self, workdir):
        out = workdir / "loss.json"
        assert run(["loss", "--corpus", workdir / "corpus.jsonl",
                    "--gold", workdir / "gold.jsonl", "--out", out,
                    "--lambda", "1,0,0,0"]) == 0
        payload = json.loads(out.read_text())
        assert payload["losses"]["combined"] == payload["losses"]["l_rank"]


class TestEval:
    def test_report_over_retrieval_run(self, workdir):
        results = workdir / "results.jsonl"
        run(["retrieve", "--corpus", workdir / "corpus.jsonl",
             "--gold", workdir / "gold.jsonl", "--out", results])
        report_path = workdir / "report.json"
        assert run(["eval", "--gold", workdir / "gold.jsonl",
                    "--predictions", results, "--category", "retrieval",
                    "--out", report_path]) == 0
        report = json.loads(report_path.read_text())
        assert report["query_count"] == 3
        assert 0.0 <= report["aggregates"]["r_precision"] <= 1.0
        assert "config" in report

    def test_unknown_prediction_id_fails_naming_it(self, workdir, capsys):
        bogus = workdir / "bogus.jsonl"
        bogus.write_text(json.dumps({"query_id": "zz9", "docids": []}) + "\n")
        code = run(["eval", "--gold", workdir / "gold.jsonl",
                    "--predictions", bogus, "--category", "retrieval",
                    "--out", workdir / "r.json"])
        assert code != 0
        assert "zz9" in capsys.readouterr().err

    def test_per_query_table(self, workdir):
        results = workdir / "results.jsonl"
        run(["retrieve", "--corpus", workdir / "corpus.jsonl",
             "--gold", workdir / "gold.jsonl", "--out", results])
        table = workdir / "per_query.jsonl"
        run(["eval", "--gold", workdir / "gold.jsonl", "--predictions", results,
             "--category", "retrieval", "--out", workdir / "r.json",
             "--per-query-out", table])
        rows = [json.loads(l) for l in table.read_text().splitlines()]
        assert [r["query_id"] for r in rows] == ["q1", "q2", "q3"]


def test_log_env_variable_accepted(workdir, monkeypatch):
    monkeypatch.setenv("CORPUSLM_LOG", "DEBUG")
    out = workdir / "ingested.jsonl"
    assert run(["ingest", "--corpus", workdir / "corpus.jsonl", "--out", out]) == 0


def test_debug_log_times_every_build_stage(workdir, monkeypatch, caplog):
    monkeypatch.setenv("CORPUSLM_LOG", "DEBUG")
    caplog.set_level(logging.DEBUG, logger="docidlm")
    assert run(["retrieve", "--corpus", workdir / "corpus.jsonl",
                "--gold", workdir / "gold.jsonl", "--out", workdir / "results.jsonl"]) == 0
    timed = [re.fullmatch(r"build stage (\w+) took \d+\.\d{3} s", r.getMessage())
             for r in caplog.records if r.name == "docidlm.cli" and r.levelno == logging.DEBUG]
    assert [m.group(1) for m in timed if m] == ["vocab", "bm25", "examples", "ngram_fit", "trie"]


def test_retrieval_quality_on_fixture(workdir):
    # the reference scorer trained on this fixture should put the gold
    # provenance document first for each query
    results = workdir / "results.jsonl"
    run(["retrieve", "--corpus", workdir / "corpus.jsonl",
         "--gold", workdir / "gold.jsonl", "--out", results])
    top = {r["query_id"]: r["docids"][0] for r in read_jsonl_records(results)}
    assert top["q1"] == "Mars # overview"
    assert top["q2"] == "Jupiter # overview"


GOLDEN = Path(__file__).resolve().parent / "data" / "golden"
DEMO_DATA = Path(__file__).resolve().parents[1] / "demos" / "data"


@pytest.mark.parametrize("name, command", [
    ("retrieve", ["retrieve"]),
    ("rag_continuous", ["rag", "--mode", "continuous"]),
    ("rag_pipeline", ["rag", "--mode", "pipeline"]),
])
def test_demo_data_records_match_golden(tmp_path, name, command):
    # The golden files hold every record line after the ``_config`` line,
    # which echoes per-run paths; default flags otherwise.
    out = tmp_path / f"{name}.jsonl"
    assert run(command + ["--corpus", DEMO_DATA / "corpus.jsonl",
                          "--gold", DEMO_DATA / "gold.jsonl", "--out", out]) == 0
    config_line, records = out.read_bytes().split(b"\n", 1)
    assert b'"_config"' in config_line
    assert records == (GOLDEN / f"{name}.jsonl").read_bytes()


def test_demo_data_traindata_matches_golden(tmp_path):
    # pins the training examples, so the BM25 order of every ranked target
    out = tmp_path / "traindata.jsonl"
    assert run(["traindata", "--corpus", DEMO_DATA / "corpus.jsonl",
                "--gold", DEMO_DATA / "gold.jsonl", "--out", out]) == 0
    config_line, records = out.read_bytes().split(b"\n", 1)
    assert b'"_config"' in config_line
    assert records == (GOLDEN / "traindata.jsonl").read_bytes()


def _without_config(path) -> bytes:
    """A JSON artifact re-serialized without its ``config``, which echoes per-run paths."""
    payload = json.loads(path.read_text(encoding="utf-8"))
    del payload["config"]
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")


def test_demo_data_losses_match_golden(tmp_path):
    # pins every loss the fitted n-gram model gives the examples, to the last bit
    out = tmp_path / "loss.json"
    assert run(["loss", "--corpus", DEMO_DATA / "corpus.jsonl",
                "--gold", DEMO_DATA / "gold.jsonl", "--out", out]) == 0
    assert _without_config(out) == (GOLDEN / "loss.json").read_bytes()


def test_demo_data_ingest_matches_golden(tmp_path):
    out = tmp_path / "ingest.jsonl"
    assert run(["ingest", "--corpus", DEMO_DATA / "corpus.jsonl", "--out", out]) == 0
    config_line, records = out.read_bytes().split(b"\n", 1)
    assert b'"_config"' in config_line
    assert records == (GOLDEN / "ingest.jsonl").read_bytes()


def test_demo_data_index_matches_golden(tmp_path):
    out = tmp_path / "index"
    assert run(["index", "--corpus", DEMO_DATA / "corpus.jsonl",
                "--gold", DEMO_DATA / "gold.jsonl", "--out", out]) == 0
    for name in ("vocab.txt", "trie.txt"):
        assert (out / name).read_bytes() == (GOLDEN / f"index_{name}").read_bytes()
    assert _without_config(out / "meta.json") == (GOLDEN / "index_meta.json").read_bytes()


@pytest.mark.parametrize("category, command", [
    ("retrieval", ["retrieve"]),
    ("qa", ["rag", "--mode", "continuous"]),
])
def test_demo_data_eval_matches_golden(tmp_path, category, command):
    data = ["--gold", DEMO_DATA / "gold.jsonl"]
    predictions = tmp_path / "predictions.jsonl"
    assert run(command + ["--corpus", DEMO_DATA / "corpus.jsonl", "--out", predictions] + data) == 0
    report, table = tmp_path / "report.json", tmp_path / "per_query.jsonl"
    assert run(["eval", "--predictions", predictions, "--category", category, "--out", report,
                "--per-query-out", table] + data) == 0
    assert _without_config(report) == (GOLDEN / f"eval_{category}.json").read_bytes()
    assert table.read_bytes() == (GOLDEN / f"eval_{category}_per_query.jsonl").read_bytes()
