import random

import pytest

from docidlm.corpus import GoldRecord
from docidlm.metrics import (
    MetricError,
    TaskCategory,
    accuracy,
    evaluate_run,
    exact_match,
    f1,
    has_answer,
    normalize_answer,
    r_precision,
    recall_at_k,
    rouge_l,
)


class TestNormalization:
    def test_chain(self):
        assert normalize_answer("The Answer!") == "answer"
        assert normalize_answer("  An  apple,  a day. ") == "apple day"

    def test_idempotent(self):
        rng = random.Random(1)
        chars = "aB c.!the "
        for _ in range(300):
            text = "".join(rng.choices(chars, k=rng.randint(0, 25)))
            once = normalize_answer(text)
            assert normalize_answer(once) == once


class TestRPrecision:
    def test_single_hit_at_rank_one(self):
        assert r_precision(["A", "B", "C"], {"A"}) == 1.0

    def test_half_of_two(self):
        assert r_precision(["A", "C", "B"], {"A", "B"}) == 0.5

    def test_empty_retrieval(self):
        assert r_precision([], {"A"}) == 0.0

    def test_empty_provenance_undefined(self):
        with pytest.raises(MetricError):
            r_precision(["A"], set())


class TestRecallAtK:
    def test_one_of_two_at_one(self):
        assert recall_at_k(["B", "A"], {"A", "B"}, 1) == 0.5

    def test_full_coverage(self):
        assert recall_at_k(["A", "B", "C"], {"A", "B"}, 5) == 1.0

    def test_disjoint(self):
        assert recall_at_k(["C", "D"], {"A"}, 2) == 0.0

    def test_identity_with_r_precision(self):
        rng = random.Random(2)
        pool = [f"d{i}" for i in range(12)]
        for _ in range(1000):
            retrieved = rng.sample(pool, rng.randint(0, len(pool)))
            provenance = set(rng.sample(pool, rng.randint(1, 6)))
            assert r_precision(retrieved, provenance) == \
                recall_at_k(retrieved, provenance, len(provenance))


class TestExactMatchAccuracy:
    def test_normalized_match(self):
        assert exact_match("The Answer!", ["answer"]) == 1

    def test_identical(self):
        assert exact_match("yes", ["yes"]) == 1
        assert accuracy("yes", ["yes"]) == 1

    def test_mismatch(self):
        assert exact_match("yes", ["no"]) == 0
        assert accuracy("yes", ["no"]) == 0

    def test_any_gold(self):
        assert exact_match("b", ["a", "b"]) == 1


class TestF1:
    def test_half_overlap_fixture(self):
        # schematic tokens chosen outside the dropped-article set
        assert f1("x y", ["x z"]) == pytest.approx(0.5)

    def test_exact(self):
        assert f1("same tokens", ["same tokens"]) == 1.0

    def test_disjoint(self):
        assert f1("x y", ["z w"]) == 0.0

    def test_bag_semantics_counts_duplicates(self):
        # pred {b,b}, gold {b}: overlap 1, P=1/2, R=1 -> 2/3
        assert f1("b b", ["b"]) == pytest.approx(2 / 3)

    def test_best_gold_wins(self):
        assert f1("a b", ["z", "a b"]) == 1.0


class TestRougeL:
    def test_lcs_fixture(self):
        # pred "x y z", gold "x z": LCS=2, P=2/3, R=1, F=0.8
        assert rouge_l("x y z", ["x z"]) == pytest.approx(0.8)

    def test_exact(self):
        assert rouge_l("one two three", ["one two three"]) == 1.0

    def test_disjoint(self):
        assert rouge_l("x y", ["z w"]) == 0.0

    def test_order_sensitivity(self):
        assert rouge_l("y x", ["x y"]) == pytest.approx(0.5)


class TestHasAnswer:
    def test_contained_after_normalization(self):
        assert has_answer("the answer is paris", ["Paris"]) == 1

    def test_identical(self):
        assert has_answer("paris", ["paris"]) == 1

    def test_empty_prediction(self):
        assert has_answer("", ["paris"]) == 0

    def test_contiguity_required(self):
        assert has_answer("new urban york", ["new york"]) == 0
        assert has_answer("in new york city", ["new york"]) == 1


def make_gold(query_id, answers=(), groups=()):
    flat = []
    for group in groups:
        for doc_id in group:
            if doc_id not in flat:
                flat.append(doc_id)
    return GoldRecord(query_id=query_id, input=f"q {query_id}", answers=tuple(answers),
                      provenance=tuple(flat), provenance_groups=tuple(tuple(g) for g in groups))


class TestEvaluateRun:
    def test_mean_of_per_query_values(self):
        golds = [make_gold("1", groups=[["A"]]), make_gold("2", groups=[["B"]])]
        preds = [{"query_id": "1", "docids": ["A"]},
                 {"query_id": "2", "docids": ["C"]}]
        report = evaluate_run(preds, golds, TaskCategory.RETRIEVAL)
        assert report.aggregates["r_precision"] == 0.5
        assert report.query_count == 2

    def test_missing_gold_is_an_error(self):
        with pytest.raises(MetricError) as err:
            evaluate_run([{"query_id": "ghost"}], [], TaskCategory.QA)
        assert "ghost" in str(err.value)

    def test_empty_predictions_warn(self):
        report = evaluate_run([], [make_gold("1", groups=[["A"]])], TaskCategory.QA)
        assert report.query_count == 0
        assert report.warnings

    def test_qa_reports_em_f1_has_answer_together(self):
        golds = [make_gold("1", answers=["paris"], groups=[["A"]])]
        preds = [{"query_id": "1", "docids": ["A"], "answer": "paris"}]
        report = evaluate_run(preds, golds, TaskCategory.QA)
        assert {"exact_match", "f1", "has_answer", "r_precision"} <= set(report.aggregates)

    def test_empty_provenance_skipped_not_zeroed(self):
        golds = [make_gold("1", answers=["x"], groups=[]),
                 make_gold("2", answers=["y"], groups=[["B"]])]
        preds = [{"query_id": "1", "docids": ["B"], "answer": "x"},
                 {"query_id": "2", "docids": ["B"], "answer": "y"}]
        report = evaluate_run(preds, golds, TaskCategory.QA)
        assert report.skipped == ["1"]
        assert report.aggregates["r_precision"] == 1.0  # mean over the one defined query

    def test_best_provenance_group_wins(self):
        golds = [make_gold("1", groups=[["A", "B", "C"], ["D"]])]
        preds = [{"query_id": "1", "docids": ["D"]}]
        report = evaluate_run(preds, golds, TaskCategory.RETRIEVAL)
        assert report.aggregates["r_precision"] == 1.0

    def test_category_metric_sets(self):
        golds = [make_gold("1", answers=["yes"], groups=[["A"]])]
        preds = [{"query_id": "1", "answer": "yes"}]
        fact = evaluate_run(preds, golds, TaskCategory.FACT_CHECKING)
        assert set(fact.aggregates) == {"accuracy"}
        long_form = evaluate_run(preds, golds, TaskCategory.LONG_FORM_QA)
        assert set(long_form.aggregates) == {"rouge_l"}
        dialogue = evaluate_run(preds, golds, TaskCategory.DIALOGUE)
        assert set(dialogue.aggregates) == {"f1"}

    def test_recall_monotone_in_appended_correct_tail(self):
        rng = random.Random(9)
        pool = [f"d{i}" for i in range(10)]
        for _ in range(200):
            provenance = set(rng.sample(pool, rng.randint(1, 4)))
            retrieved = rng.sample(pool, rng.randint(0, 6))
            extended = retrieved + [d for d in sorted(provenance) if d not in retrieved]
            for k in range(max(len(retrieved), 1), len(extended) + 1):
                assert recall_at_k(extended, provenance, k) >= \
                    recall_at_k(retrieved, provenance, min(k, max(len(retrieved), 1)))


def test_metrics_invariant_under_normalization():
    rng = random.Random(13)
    words = ["The", "cat", "SAT", "on!", "a", "mat."]
    for _ in range(200):
        pred = " ".join(rng.choices(words, k=rng.randint(0, 6)))
        gold = [" ".join(rng.choices(words, k=rng.randint(1, 6)))]
        for metric in (exact_match, f1, rouge_l, has_answer):
            assert metric(normalize_answer(pred), gold) == metric(pred, gold)


def test_f_measures_symmetric_under_swap_single_gold():
    rng = random.Random(17)
    words = ["cat", "sat", "mat", "dog", "ran"]
    for _ in range(200):
        x = " ".join(rng.choices(words, k=rng.randint(1, 6)))
        y = " ".join(rng.choices(words, k=rng.randint(1, 6)))
        assert f1(x, [y]) == pytest.approx(f1(y, [x]), abs=1e-12)
        assert rouge_l(x, [y]) == pytest.approx(rouge_l(y, [x]), abs=1e-12)


def _oracle_f1_single(pred_tokens, gold_tokens):
    if not pred_tokens and not gold_tokens:
        return 1.0
    if not pred_tokens or not gold_tokens:
        return 0.0
    common = 0
    gold_counts = {}
    for tok in gold_tokens:
        gold_counts[tok] = gold_counts.get(tok, 0) + 1
    for tok in pred_tokens:
        if gold_counts.get(tok, 0) > 0:
            gold_counts[tok] -= 1
            common += 1
    if common == 0:
        return 0.0
    precision = common / len(pred_tokens)
    recall = common / len(gold_tokens)
    return 2 * precision * recall / (precision + recall)


def oracle_f1(prediction, golds):
    """The greedy token-bag F1 that the shared F-measure replaced."""
    pred_tokens = normalize_answer(prediction).split()
    return max(_oracle_f1_single(pred_tokens, normalize_answer(g).split()) for g in golds)


def _oracle_lcs_length(a, b):
    if not a or not b:
        return 0
    previous = [0] * (len(b) + 1)
    for tok_a in a:
        current = [0]
        for j, tok_b in enumerate(b, start=1):
            if tok_a == tok_b:
                current.append(previous[j - 1] + 1)
            else:
                current.append(max(previous[j], current[j - 1]))
        previous = current
    return previous[-1]


def oracle_rouge_l(prediction, golds):
    """The per-gold LCS F-measure that the shared F-measure replaced."""
    pred_tokens = normalize_answer(prediction).split()

    def score(gold):
        gold_tokens = normalize_answer(gold).split()
        if not pred_tokens and not gold_tokens:
            return 1.0
        lcs = _oracle_lcs_length(pred_tokens, gold_tokens)
        if lcs == 0:
            return 0.0
        precision = lcs / len(pred_tokens)
        recall = lcs / len(gold_tokens)
        return 2 * precision * recall / (precision + recall)

    return max(score(g) for g in golds)


def test_f_measures_equal_their_oracles():
    # a small pool, so tokens repeat; articles and punctuation normalize away,
    # so some strings are empty after normalization
    rng = random.Random(23)
    pool = ["cat", "sat", "mat", "cat", "The", "a", "an", "!", "...", "?,", "x", "Y"]
    specials = ["", " ", "the a an", "!?.", "a, the.", "cat cat cat"]

    def text():
        if rng.random() < 0.2:
            return rng.choice(specials)
        return " ".join(rng.choices(pool, k=rng.randint(0, 8)))

    for _ in range(2500):
        prediction = text()
        golds = [text() for _ in range(rng.randint(1, 4))]
        assert f1(prediction, golds) == oracle_f1(prediction, golds)
        assert rouge_l(prediction, golds) == oracle_rouge_l(prediction, golds)
