"""Retrieval and downstream generation metrics, aggregated over a run by ``evaluate_run``."""

from __future__ import annotations

import operator
import re
import string
from collections import Counter
from dataclasses import asdict, dataclass, field
from enum import Enum
from functools import reduce
from typing import Iterable, Sequence

from .corpus import GoldRecord

_ARTICLES_RE = re.compile(r"\b(a|an|the)\b")
_PUNCT_TABLE = str.maketrans("", "", string.punctuation)


class MetricError(ValueError):
    """A metric was asked about inputs it is undefined for."""


def normalize_answer(text: str) -> str:
    """Lowercase, strip punctuation, drop articles, collapse whitespace."""
    text = text.lower().translate(_PUNCT_TABLE)
    text = _ARTICLES_RE.sub(" ", text)
    return " ".join(text.split())


def _tokens(text: str) -> list[str]:
    return normalize_answer(text).split()


def r_precision(retrieved: Sequence[str], provenance: Iterable[str]) -> float:
    """Fraction of the top-R retrieved DocIDs that are gold, R = |provenance|."""
    gold = set(provenance)
    if not gold:
        raise MetricError("R-Precision is undefined for empty provenance")
    top = set(retrieved[: len(gold)])
    return len(top & gold) / len(gold)


def recall_at_k(retrieved: Sequence[str], provenance: Iterable[str], k: int) -> float:
    gold = set(provenance)
    if not gold:
        raise MetricError("recall is undefined for empty provenance")
    if k < 1:
        raise MetricError("k must be >= 1")
    return len(set(retrieved[:k]) & gold) / len(gold)


def exact_match(prediction: str, golds: Sequence[str]) -> int:
    normalized = normalize_answer(prediction)
    return int(any(normalized == normalize_answer(g) for g in golds))


def accuracy(prediction: str, golds: Sequence[str]) -> int:
    """Exact string agreement after normalization (classification-style tasks)."""
    return exact_match(prediction, golds)


def _f_measure(overlap: int, pred: list[str], gold: list[str]) -> float:
    """Harmonic mean of ``overlap / len(pred)`` and ``overlap / len(gold)``; 1.0 when both are empty."""
    if not pred and not gold:
        return 1.0
    if overlap == 0:
        return 0.0
    precision = overlap / len(pred)
    recall = overlap / len(gold)
    return 2 * precision * recall / (precision + recall)


def f1(prediction: str, golds: Sequence[str]) -> float:
    """Best token-bag F1 over the gold answers."""
    pred = _tokens(prediction)
    return max(_f_measure(sum((Counter(pred) & Counter(gold)).values()), pred, gold)
               for gold in map(_tokens, golds))


def _lcs_length(a: list[str], b: list[str]) -> int:
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


def rouge_l(prediction: str, golds: Sequence[str]) -> float:
    """Best LCS F-measure (harmonic mean of LCS precision and recall)."""
    pred = _tokens(prediction)
    return max(_f_measure(_lcs_length(pred, gold), pred, gold) for gold in map(_tokens, golds))


def has_answer(prediction: str, golds: Sequence[str]) -> int:
    """Whether any normalized gold occurs contiguously inside the prediction."""
    pred_tokens = _tokens(prediction)
    for gold in golds:
        gold_tokens = _tokens(gold)
        if not gold_tokens:
            continue
        span = len(gold_tokens)
        for start in range(len(pred_tokens) - span + 1):
            if pred_tokens[start : start + span] == gold_tokens:
                return 1
    return 0


class TaskCategory(Enum):
    RETRIEVAL = "retrieval"
    FACT_CHECKING = "fact_checking"
    ENTITY_LINKING = "entity_linking"
    SLOT_FILLING = "slot_filling"
    QA = "qa"
    LONG_FORM_QA = "long_form_qa"
    DIALOGUE = "dialogue"


# Downstream metric set per task category, each reported under its function's
# name; retrieval metrics apply whenever the prediction has DocIDs and the
# gold record has provenance.
_ANSWER_METRICS = {
    TaskCategory.RETRIEVAL: (),
    TaskCategory.FACT_CHECKING: (accuracy,),
    TaskCategory.ENTITY_LINKING: (accuracy,),
    TaskCategory.SLOT_FILLING: (accuracy,),
    TaskCategory.QA: (exact_match, f1, has_answer),
    TaskCategory.LONG_FORM_QA: (rouge_l,),
    TaskCategory.DIALOGUE: (f1,),
}

RECALL_CUTOFFS = (1, 5, 10)


@dataclass
class EvalReport:
    task_category: str
    query_count: int
    aggregates: dict[str, float]
    per_query: list[dict] = field(repr=False, default_factory=list)
    skipped: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        """Every field but the per-query table."""
        payload = asdict(self)
        del payload["per_query"]
        return payload


def _best_over_groups(metric_fn, retrieved: Sequence[str], record: GoldRecord, *args) -> float:
    groups = record.provenance_groups or (record.provenance,)
    return max(metric_fn(retrieved, group, *args) for group in groups)


def evaluate_run(
    predictions: Sequence[dict],
    golds: Sequence[GoldRecord],
    task_category: TaskCategory,
) -> EvalReport:
    """Join prediction records to gold records by query id and aggregate.

    Prediction records carry ``query_id`` plus ``docids`` and/or ``answer``.
    Retrieval metrics take the best value over a record's provenance groups;
    queries without provenance are skipped for retrieval metrics with a
    warning, never zeroed.
    """
    gold_by_id = {g.query_id: g for g in golds}
    per_query: list[dict] = []
    skipped: list[str] = []
    warnings: list[str] = []

    for pred in predictions:
        query_id = str(pred["query_id"])
        gold = gold_by_id.get(query_id)
        if gold is None:
            raise MetricError(f"prediction query id {query_id!r} missing from gold file")
        row: dict = {"query_id": query_id}

        retrieved = pred.get("docids")
        if retrieved is not None:
            if gold.provenance:
                row["r_precision"] = _best_over_groups(r_precision, retrieved, gold)
                for k in RECALL_CUTOFFS:
                    row[f"recall@{k}"] = _best_over_groups(recall_at_k, retrieved, gold, k)
            else:
                skipped.append(query_id)
                warnings.append(f"query {query_id}: empty provenance, retrieval metrics skipped")

        answer = pred.get("answer")
        if answer is not None and _ANSWER_METRICS[task_category]:
            if gold.answers:
                for metric in _ANSWER_METRICS[task_category]:
                    row[metric.__name__] = float(metric(answer, list(gold.answers)))
            else:
                warnings.append(f"query {query_id}: no gold answers, answer metrics skipped")
        per_query.append(row)

    aggregates = {}
    for name in sorted({key for row in per_query for key in row} - {"query_id"}):
        values = [row[name] for row in per_query if name in row]
        # added left to right: ``sum`` compensates rounding from Python 3.12 on
        aggregates[name] = reduce(operator.add, values, 0.0) / len(values)
    if not per_query:
        warnings.append("no predictions to evaluate")
    return EvalReport(
        task_category=task_category.value,
        query_count=len(per_query),
        aggregates=aggregates,
        per_query=per_query,
        skipped=skipped,
        warnings=warnings,
    )

