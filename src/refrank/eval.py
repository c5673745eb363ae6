"""Ranking-quality metrics: NDCG@k per query and over a run, from doc ids in rank order.

The ideal DCG is computed once per (ideal grades[:k], gain), from the
grades Qrels sorted into ideal order at construction, so a call sorts nothing.
An ideal DCG that is not a finite float (say, a grade of 1024 under exp
gain) raises ValidationError; check_qrels looks for one in a whole qrels.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Collection, Mapping, Sequence
from dataclasses import dataclass

from .datamodel import Qrels, Ranking, ValidationError

GAIN_MODES = ("exp", "linear")


@dataclass(frozen=True)
class MetricConfig:
    """NDCG cutoff and gain convention.

    Exponential gain (2^rel - 1) is the default; linear gain (rel) is
    provided because evaluator conventions differ between tools.
    """

    k: int = 10
    gain: str = "exp"

    def __post_init__(self):
        if self.k < 1:
            raise ValidationError(f"metric cutoff k must be >= 1, got {self.k}")
        if self.gain not in GAIN_MODES:
            raise ValidationError(f"gain must be one of {GAIN_MODES}, got {self.gain!r}")

    @property
    def name(self) -> str:
        return f"ndcg@{self.k}"


def fold_mean(values: Collection[float]) -> float:
    """The mean, summed left to right from 0.0, as sum() did before Python 3.12."""
    return functools.reduce(operator.add, values, 0.0) / len(values)


def _dcg(grades: Sequence[int], k: int, gain: str) -> float:
    total = 0.0
    for position, grade in enumerate(grades[:k], start=1):
        if grade:
            value = float(grade) if gain == "linear" else float(2**grade - 1)
            total += value / math.log2(position + 1)
    return total


@functools.lru_cache(maxsize=4096)
def _ideal_dcg(ideal: tuple[int, ...], gain: str) -> float:
    """The ideal DCG of a query's ideal grades, already cut to the cutoff k; inf past a float."""
    try:
        return _dcg(ideal, len(ideal), gain)
    except OverflowError:  # a gain too large for a float
        return math.inf


def ndcg_for_doc_ids(
    query_id: str,
    doc_ids: Sequence[str],
    qrels: Qrels,
    config: MetricConfig = MetricConfig(),
) -> float:
    """NDCG@k for docs given in rank order.

    The ideal DCG is computed over all judged docs for the query, not just
    the retrieved pool, so first-stage recall misses are penalized. Unjudged
    docs count as grade 0; a query with no positive judgments scores 0.
    Grades whose ideal DCG is not a finite float raise ValidationError.
    """
    judged = qrels.judged(query_id)
    if not judged:
        return 0.0
    idcg = _ideal_dcg(qrels.ideal_grades(query_id)[: config.k], config.gain)
    if not math.isfinite(idcg):
        raise ValidationError(
            f"query {query_id!r}: grades up to {qrels.max_grade(query_id)} give an ideal "
            f"DCG@{config.k} that is not a finite float under {config.gain} gain"
        )
    if idcg <= 0.0:
        return 0.0
    grades = [judged.get(doc_id, 0) for doc_id in doc_ids]
    return _dcg(grades, config.k, config.gain) / idcg


def ndcg_at_k(
    ranking: Ranking, qrels: Qrels, config: MetricConfig = MetricConfig()
) -> float:
    """NDCG@k of a Ranking; see ndcg_for_doc_ids for conventions."""
    return ndcg_for_doc_ids(ranking.query_id, ranking.doc_ids, qrels, config)


@dataclass
class EvalReport:
    """Per-query metric values plus the mean over judged queries.

    Queries with no judgments are excluded from the mean and counted in
    unjudged_queries; with no judged queries at all the mean is 0.0.
    """

    metric: str
    per_query: dict[str, float]
    mean: float
    judged_queries: int
    unjudged_queries: int


def _evaluate(rows, ndcg, config: MetricConfig, qrels: Qrels) -> EvalReport:
    """One report over (query_id, ranked) rows; ndcg scores each judged row."""
    per_query: dict[str, float] = {}
    unjudged = 0
    for query_id, ranked in rows:
        if qrels.judged(query_id):
            per_query[query_id] = ndcg(query_id, ranked)
        else:
            unjudged += 1
    mean = fold_mean(per_query.values()) if per_query else 0.0
    return EvalReport(config.name, per_query, mean, len(per_query), unjudged)


def check_qrels(qrels: Qrels, config: MetricConfig) -> None:
    """Raise ValidationError for the first query whose ideal DCG@k is not a finite float.

    A ranking's DCG is at most its query's ideal, so when every ideal is
    finite, every NDCG of these qrels is a finite number.
    """
    for query_id in qrels.query_ids():
        ndcg_for_doc_ids(query_id, (), qrels, config)


def evaluate_rankings(
    rankings: Sequence[Ranking], qrels: Qrels, config: MetricConfig = MetricConfig()
) -> EvalReport:
    return _evaluate(
        ((ranking.query_id, ranking) for ranking in rankings),
        lambda _, ranking: ndcg_at_k(ranking, qrels, config),
        config,
        qrels,
    )


def evaluate_run_map(
    run: Mapping[str, Sequence[str]],
    qrels: Qrels,
    config: MetricConfig = MetricConfig(),
) -> EvalReport:
    """Evaluate a parsed run file: each query's doc ids in rank order."""
    return _evaluate(
        run.items(),
        lambda query_id, doc_ids: ndcg_for_doc_ids(query_id, doc_ids, qrels, config),
        config,
        qrels,
    )
