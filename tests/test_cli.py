import argparse
import gc
import json
import logging
import math
import re
import threading
import warnings
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from docidlm.cli import (COMMANDS, RunConfig, build_parser, engine_vocabulary, main,
                         read_jsonl_records)
from docidlm.corpus import ingest_corpus, load_gold
from docidlm.tokens import load_vocabulary
from docidlm.training import parse_example_record
from docidlm.trie import TrieError, build_trie, load_trie

from conftest import corpus_from_rows

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
        loaded = load_trie(out / "trie.txt", corpus, vocab)
        assert loaded.docid_paths == rebuilt.docid_paths
        meta = json.loads((out / "meta.json").read_text())
        assert meta["docid_count"] == len(CORPUS_ROWS)
        assert meta["config"]["seed"] == 0

    def test_trie_loads_only_with_its_corpus_and_vocabulary(self, workdir):
        # "apple" sorts before the DocID words, so the gold file moves their ids
        gold = workdir / "gold_apple.jsonl"
        gold.write_text(json.dumps({"id": "q9", "input": "apple", "output": [{"answer": "no"}]})
                        + "\n", encoding="utf-8")
        corpus_file, out, bare = workdir / "corpus.jsonl", workdir / "index", workdir / "bare"
        assert run(["index", "--corpus", corpus_file, "--gold", gold, "--out", out]) == 0
        assert run(["index", "--corpus", corpus_file, "--out", bare]) == 0
        trie_file = out / "trie.txt"
        corpus, vocab = ingest_corpus(corpus_file), load_vocabulary(out / "vocab.txt")
        assert len(load_trie(trie_file, corpus, vocab)) == len(CORPUS_ROWS)
        stray_line = f"^{re.escape(str(trie_file))}:\\d+: found "
        with pytest.raises(TrieError, match=stray_line):
            load_trie(trie_file, corpus, load_vocabulary(bare / "vocab.txt"))
        fewer = corpus_from_rows([row for row in CORPUS_ROWS if row[0] != "s2"])
        with pytest.raises(TrieError, match=stray_line):
            load_trie(trie_file, fewer, vocab)


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

    @pytest.mark.parametrize("line, named", [
        pytest.param('{"query_id": "q1", "docids": "Mars # overview"}',
                     "field 'docids' must be a list of strings", id="docids-string"),
        pytest.param('{"query_id": "q1", "docids": ["Mars # overview", 3]}',
                     "field 'docids' must be a list of strings", id="docids-int-item"),
        pytest.param('{"query_id": "q1", "answer": 5}',
                     "field 'answer' must be a string, not int", id="answer-int"),
        pytest.param('{"docids": ["Mars # overview"]}',
                     "malformed prediction record: 'query_id'", id="no-query-id"),
        pytest.param('{"query_id": true, "docids": []}',
                     "field 'query_id' must be a string or an integer", id="query-id-bool"),
        pytest.param('{"query_id": 1.5, "docids": []}',
                     "field 'query_id' must be a string or an integer", id="query-id-float"),
        pytest.param('["q1"]', "record must be a JSON object, not list", id="array"),
        pytest.param("not json", "malformed prediction record: Expecting value", id="not-json"),
    ])
    def test_malformed_prediction_fails_naming_field_and_line(self, tmp_path, capsys, line, named):
        predictions = tmp_path / "predictions.jsonl"
        predictions.write_text('{"_config": {}}\n'
                               '{"query_id": "q1", "docids": ["Mars # overview"], "answer": "mars"}\n'
                               + line + "\n")
        code = run(["eval", "--gold", DEMO_DATA / "gold.jsonl", "--predictions", predictions,
                    "--category", "qa", "--out", tmp_path / "report.json"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{predictions}:3: malformed prediction record" in err
        assert named in err


def test_log_env_variable_accepted(workdir, monkeypatch):
    monkeypatch.setenv("CORPUSLM_LOG", "DEBUG")
    out = workdir / "ingested.jsonl"
    assert run(["ingest", "--corpus", workdir / "corpus.jsonl", "--out", out]) == 0


def test_debug_log_times_every_build_stage(workdir, monkeypatch, caplog):
    # each command builds, and times, only the stages it reads
    monkeypatch.setenv("CORPUSLM_LOG", "DEBUG")
    caplog.set_level(logging.DEBUG, logger="docidlm")
    corpus, gold = ["--corpus", workdir / "corpus.jsonl"], ["--gold", workdir / "gold.jsonl"]
    for i, (argv, stages) in enumerate([
        (["retrieve"] + corpus + gold, ["vocab", "bm25", "examples", "ngram_fit", "trie"]),
        (["index"] + corpus + gold, ["vocab", "bm25", "trie"]),
        (["traindata"] + corpus + gold, ["bm25", "examples"]),
        (["loss"] + corpus + gold, ["vocab", "bm25", "examples", "ngram_fit"]),
        # no gold queries, so the remote scorer is built but never called
        (["retrieve", "--remote-lm", "http://127.0.0.1:9/"] + corpus, ["vocab", "trie"]),
    ]):
        caplog.clear()
        assert run(argv + ["--out", workdir / f"out{i}"]) == 0
        timed = [re.fullmatch(r"build stage (\w+) took \d+\.\d{3} s", r.getMessage())
                 for r in caplog.records if r.name == "docidlm.cli" and r.levelno == logging.DEBUG]
        assert [m.group(1) for m in timed if m] == stages, argv


@pytest.mark.parametrize("argv", [
    ["ingest", "--tau", "0.5"],
    ["index", "--seed", "1"],
    ["traindata", "--alpha", "0.2"],
    ["eval", "--corpus", "X"],
])
def test_unread_flag_is_usage_error(workdir, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--out", workdir / "out"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err


@pytest.mark.parametrize("command, flags, named", [
    ("retrieve", ["--alpha", "nan"], "not nan"),
    ("retrieve", ["--alpha", "inf"], "not inf"),
    ("loss", ["--lambda", "nan,1,1,1"], "not [nan, 1.0, 1.0, 1.0]"),
    ("loss", ["--lambda", "inf,1,1,1"], "not [inf, 1.0, 1.0, 1.0]"),
    ("traindata", ["--bm25-k1", "nan"], "not nan"),
    ("traindata", ["--bm25-b", "-3"], "not -3.0"),
    ("traindata", ["--k-retrieve", "0"], "not 0"),
    ("traindata", ["--tau", "nan"], "not nan"),
    ("traindata", ["--k-context", "-2"], "k_context must be >= 1, not -2"),
    ("traindata", ["--k-context", "0"], "k_context must be >= 1, not 0"),
    ("retrieve", ["--k-context", "0"], "k_context must be >= 1, not 0"),
    ("rag", ["--budget", "0"], "document budget must be >= 1, not 0"),
    ("rag", ["--budget", "-5"], "document budget must be >= 1, not -5"),
    ("traindata", ["--aux-per-task", "-1"], "aux per-task count must be >= 0, not -1"),
    # a remote scorer skips the examples stage, the only stage that reads k_context
    ("retrieve", ["--remote-lm", "http://127.0.0.1:9/", "--k-context", "-3"],
     "k_context must be >= 1, not -3"),
])
def test_out_of_range_number_exits_naming_it(workdir, capsys, command, flags, named):
    code = run([command, "--corpus", workdir / "corpus.jsonl", "--gold", workdir / "gold.jsonl",
                "--out", workdir / "out"] + flags)
    assert code == 2
    assert named in capsys.readouterr().err


REMOTE = ["--remote-lm", "http://127.0.0.1:9/"]


@pytest.mark.parametrize("command, flags", [
    ("retrieve", ["--tau", "7"]),
    ("retrieve", ["--bm25-k1", "1.2"]),
    ("retrieve", ["--bm25-b", "5"]),
    ("retrieve", ["--seed", "0"]),
    ("retrieve", ["--aux-per-task", "-1"]),
    ("retrieve", ["--ngram-order", "0"]),
    ("retrieve", ["--alpha", "-1"]),
    ("retrieve", ["--alpha", "inf"]),
    ("rag", ["--tau", "0.5"]),
    ("rag", ["--seed", "1"]),
    ("rag", ["--ngram-order", "2"]),
    ("loss", ["--ngram-order", "2"]),
    ("loss", ["--alpha", "inf"]),
])
def test_remote_decode_refuses_flag_it_does_not_read(workdir, capsys, command, flags):
    # with --remote-lm, no examples or fit are built, so their flags are unread
    with pytest.raises(SystemExit) as exc:
        run([command, "--corpus", workdir / "corpus.jsonl", "--out", workdir / "out"]
            + REMOTE + flags)
    assert exc.value.code == 2
    assert f"{command} --remote-lm does not read {flags[0]}" in capsys.readouterr().err


class _UniformKeepAliveHandler(BaseHTTPRequestHandler):
    """HTTP/1.1 scorer that keeps every connection open and answers uniform logprobs."""

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def setup(self):
        super().setup()
        with self.server.lock:
            self.server.connections += 1

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        size = self.server.vocab_size
        data = json.dumps({"logprobs": [-math.log(size)] * size}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def demo_scorer():
    """A keep-alive scorer for the demos/data vocabulary; yields (server, endpoint)."""
    vocab = engine_vocabulary(ingest_corpus(DEMO_DATA / "corpus.jsonl"),
                              load_gold(DEMO_DATA / "gold.jsonl"))
    server = ThreadingHTTPServer(("127.0.0.1", 0), _UniformKeepAliveHandler)
    server.vocab_size, server.connections, server.lock = vocab.size, 0, threading.Lock()
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    yield server, f"http://127.0.0.1:{server.server_port}/score"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


@pytest.mark.parametrize("command, flags", [
    ("retrieve", ["--k-retrieve", "2", "--k-context", "1"]),
    ("rag", ["--k-retrieve", "2", "--k-context", "1", "--budget", "5", "--mode", "pipeline"]),
    ("loss", ["--k-retrieve", "2", "--tau", "0.3", "--bm25-k1", "1", "--bm25-b", "0.5",
              "--seed", "2", "--aux-per-task", "1", "--lambda", "1,1,1,1"]),
])
def test_remote_command_reads_its_flags_and_closes_its_connection(tmp_path, demo_scorer,
                                                                  command, flags):
    server, endpoint = demo_scorer
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        code = run([command, "--corpus", DEMO_DATA / "corpus.jsonl",
                    "--gold", DEMO_DATA / "gold.jsonl", "--remote-lm", endpoint,
                    "--out", tmp_path / "out"] + flags)
        gc.collect()
    assert code == 0
    assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []
    # every call of the command went over the one kept-alive connection
    assert server.connections == 1


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
PATH_FIELDS = ("corpus", "gold", "out", "predictions", "per_query_out")


def assert_config_matches_golden(config: dict, name: str) -> None:
    """The echoed configuration, path fields replaced by placeholders, pins every default."""
    for key in PATH_FIELDS:
        if config[key] is not None:
            config[key] = f"<{key}>"
    text = json.dumps(config, indent=2, sort_keys=True) + "\n"
    assert text == (GOLDEN / f"config_{name}.json").read_text(encoding="utf-8")


def records_after_config(path, name: str) -> bytes:
    """The record lines of a JSONL artifact, after its ``_config`` line is checked."""
    config_line, records = path.read_bytes().split(b"\n", 1)
    assert_config_matches_golden(json.loads(config_line)["_config"], name)
    return records


@pytest.mark.parametrize("name, command", [
    ("retrieve", ["retrieve"]),
    ("rag_continuous", ["rag", "--mode", "continuous"]),
    ("rag_pipeline", ["rag", "--mode", "pipeline"]),
])
def test_demo_data_records_match_golden(tmp_path, name, command):
    # The golden files hold every record line after the ``_config`` line,
    # which has a golden of its own; default flags otherwise.
    out = tmp_path / f"{name}.jsonl"
    assert run(command + ["--corpus", DEMO_DATA / "corpus.jsonl",
                          "--gold", DEMO_DATA / "gold.jsonl", "--out", out]) == 0
    assert records_after_config(out, name) == (GOLDEN / f"{name}.jsonl").read_bytes()


def test_demo_data_traindata_matches_golden(tmp_path):
    # pins the training examples, so the BM25 order of every ranked target
    out = tmp_path / "traindata.jsonl"
    assert run(["traindata", "--corpus", DEMO_DATA / "corpus.jsonl",
                "--gold", DEMO_DATA / "gold.jsonl", "--out", out]) == 0
    assert records_after_config(out, "traindata") == (GOLDEN / "traindata.jsonl").read_bytes()


def _without_config(path, name: str) -> bytes:
    """A JSON artifact re-serialized without its ``config``, once that is checked."""
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert_config_matches_golden(payload.pop("config"), name)
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")


def test_demo_data_losses_match_golden(tmp_path):
    # pins every loss the fitted n-gram model gives the examples, to the last bit
    out = tmp_path / "loss.json"
    assert run(["loss", "--corpus", DEMO_DATA / "corpus.jsonl",
                "--gold", DEMO_DATA / "gold.jsonl", "--out", out]) == 0
    assert _without_config(out, "loss") == (GOLDEN / "loss.json").read_bytes()


def test_demo_data_ingest_matches_golden(tmp_path):
    out = tmp_path / "ingest.jsonl"
    assert run(["ingest", "--corpus", DEMO_DATA / "corpus.jsonl", "--out", out]) == 0
    assert records_after_config(out, "ingest") == (GOLDEN / "ingest.jsonl").read_bytes()


def test_demo_data_index_matches_golden(tmp_path):
    out = tmp_path / "index"
    assert run(["index", "--corpus", DEMO_DATA / "corpus.jsonl",
                "--gold", DEMO_DATA / "gold.jsonl", "--out", out]) == 0
    for name in ("vocab.txt", "trie.txt"):
        assert (out / name).read_bytes() == (GOLDEN / f"index_{name}").read_bytes()
    assert _without_config(out / "meta.json", "index") == (GOLDEN / "index_meta.json").read_bytes()


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
    assert (_without_config(report, f"eval_{category}")
            == (GOLDEN / f"eval_{category}.json").read_bytes())
    assert table.read_bytes() == (GOLDEN / f"eval_{category}_per_query.jsonl").read_bytes()


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_flag_table() -> tuple[list[str], dict[str, list[str]]]:
    """The README flag table: its command columns, and each flag's default and cells."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index(next(line for line in lines if line.startswith("| flag | default |")))
    commands = [cell.strip() for cell in lines[start].strip("|").split("|")][2:]
    rows = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        flag, *cells = [cell.strip() for cell in line.strip("|").split("|")]
        rows[flag.strip("`").split()[0]] = cells
    return commands, rows


def test_readme_flag_table_matches_parser():
    # README lists, per command, exactly the flags the parser accepts, which
    # of them the command requires, and each flag's RunConfig default
    commands, rows = readme_flag_table()
    [subparsers] = [a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)]
    assert commands == list(subparsers.choices)
    for column, command in enumerate(commands, start=1):
        actions = {a.option_strings[0]: a for a in subparsers.choices[command]._actions
                   if a.dest != "help"}
        documented = {flag: cells[column] for flag, cells in rows.items() if cells[column]}
        assert set(documented) == set(actions), command
        for flag, action in actions.items():
            required = action.required or action.dest in COMMANDS[command].required
            assert documented[flag] == ("required" if required else "yes"), (command, flag)
    for flag, (default, *_) in rows.items():
        [dest] = {a.dest for sub in subparsers.choices.values() for a in sub._actions
                  if flag in a.option_strings}
        value = getattr(RunConfig, dest)
        if value is None:
            expected = "none"
        elif isinstance(value, tuple):
            expected = ",".join(f"{v:g}" for v in value)
        else:
            expected = str(value)
        assert default == expected, flag
