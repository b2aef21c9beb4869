"""Tiny-scale smoke test of the benchmark's own code (not of docidlm)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import harness
import run as bench_run
import tracing
from corpusgen import CorpusShape, generate

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

TINY = {
    "retrieve": harness.Workload(CorpusShape(60, 12, 6, 300, 200), (harness.RETRIEVE,),
                                 setups=2, loop_queries=3),
    "rag": harness.Workload(CorpusShape(40, 20, 4, 300, 200),
                            (harness.CONTINUOUS, harness.PIPELINE), setups=1, loop_queries=2),
    "remote": harness.Workload(CorpusShape(40, 20, 4, 300, 200),
                               (harness.CONTINUOUS, harness.PIPELINE), setups=1,
                               loop_queries=1, remote=True),
}


def tiny_run(tmp_path, name: str, trace: bool, seed: int = 3) -> harness.Run:
    return harness.execute(TINY[name], seed, 0.3, trace, tmp_path)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_passes_checks_and_reports_every_metric(tmp_path, name, trace):
    run = tiny_run(tmp_path, name, trace)
    assert run.attempted > 0
    assert run.failures == []
    rows = harness.per_layer(run) if trace else harness.end_to_end(run)
    listed = {m["name"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    assert set(rows) == listed
    assert all(value is not None for value, _, _ in rows.values())
    if name == "remote" and trace:
        assert rows["lm.remote_connections_per_query"][0] == rows["lm.scorer_calls_per_query"][0]


def test_same_seed_gives_same_inputs_digest_and_counts(tmp_path):
    shape = TINY["rag"].shape
    assert generate(shape, 5) == generate(shape, 5)
    assert generate(shape, 5) != generate(shape, 6)
    first, second = tiny_run(tmp_path, "rag", False), tiny_run(tmp_path, "rag", False)
    assert first.digest == second.digest
    assert first.counts == second.counts
    assert first.quality == second.quality


def test_a_vanished_layer_is_not_measured_and_the_run_still_works(tmp_path, monkeypatch):
    renamed = (tracing.CONTINUATIONS, "docidlm.constraints", "renamed_away", None)
    monkeypatch.setattr(tracing, "SPAN_HOOKS", (tracing.SPAN_HOOKS[0], renamed))
    run = tiny_run(tmp_path, "retrieve", True)
    assert run.failures == []
    rows = harness.per_layer(run)
    assert rows["trie.continuations_ms_per_query"][0] is None
    assert "not measured" in rows["trie.continuations_ms_per_query"][2]
    assert rows["constraints.mask_calls_per_query"][0] > 0
    assert run.counts["continuation_calls"] is None


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["query", 0.0, 10.0, -1, "q", 0],
        ["mask", 1.0, 4.0, 0, "q", 7],
        ["cont", 2.0, 3.0, 1, "q", 0],
        ["lm", 5.0, 7.0, 0, "q", 9],
    ]
    totals = tracing.layer_totals(spans)
    assert totals["query"].self_s == pytest.approx(5.0)
    assert totals["mask"].self_s == pytest.approx(2.0)
    assert totals["mask"].size == 7


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    values = [float(i) for i in range(1, 31)]
    assert harness.tail(values) == (20.0, pytest.approx(100 * 20 / 30))
    assert harness.tail(values[:15]) == (8.0, 50.0)


def test_entry_point_refuses_to_run_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench_run, "SRC", tmp_path)
    code = bench_run.main(["--workload", "rag-remote", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""
