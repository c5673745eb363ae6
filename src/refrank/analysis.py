"""Reference-index and ensemble-size sweeps with min-max normalization.

The sweeps answer three questions about anchor choice. How does ranking
quality move as the anchor comes from deeper in the first-stage order
(reference sweep, one cell per index r)? What quality should a uniform
random anchor from the top k deliver (the top-k curve: the prefix mean of
the reference sweep, one value per reference cell)? And what does averaging
scores over the top-m anchors buy (ensemble sweep, one cell per m)?

sweep_anchors runs both sweeps in one pass over the lists. Each list's
triplet request rows are built once, against its top max(depth) anchors
(strategies.anchor_rows), and all of its cells run before the next list's,
so the oracle still remembers that query's judgments when a later cell
makes them again. Reference cell r scores column r with weight 1.0,
ensemble cell m the first m columns with weights 1/m. Each cell is still a
full RefRank run, with one doc-major score_batch of its own, so a cell
makes the same judge calls, in the same order, and gets the same ranking
as rank_refrank_single(FixedIndex(r)) or rank_refrank_multiple(EnsembleConfig(m)).
Cells are run, and results reduced, in (query, cell) order, so identical
seeds and configs reproduce a SweepResult bit for bit.
A SweepResult holds the per-query rows and their mean; write_curve_csv
writes each of the three curves and min-max normalizes it as it writes.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import accumulate

from .datamodel import CandidateList, Qrels, ValidationError
from .eval import MetricConfig, fold_mean, ndcg_at_k
from .scorer.base import Scorer
from .strategies import EnsembleConfig, anchor_rows, anchor_scores, weighted_ranking


def minmax_normalize(values: Sequence[float]) -> list[float]:
    """(v - min) / (max - min) per value; a constant vector maps to all zeros."""
    if len(values) == 0:
        raise ValidationError("cannot normalize an empty sequence")
    low = min(values)
    high = max(values)
    if high == low:
        return [0.0] * len(values)
    span = high - low
    return [(value - low) / span for value in values]


@dataclass(frozen=True)
class SweepResult:
    """Per-query metric matrix over sweep cells, plus its mean.

    ``per_query[i][j]`` is query i's metric at cell j, queries in list
    order. ``mean`` averages each cell over queries in row order; it is
    derived from ``per_query`` at construction.
    """

    kind: str  # "reference" or "ensemble"
    cells: tuple[int, ...]
    per_query: tuple[tuple[float, ...], ...]
    mean: tuple[float, ...] = field(init=False)

    def __post_init__(self):
        if not self.per_query:
            raise ValidationError("a sweep result needs at least one query")
        for row in self.per_query:
            if len(row) != len(self.cells):
                raise ValidationError("per_query row length must match cells")
        mean = tuple(fold_mean(column) for column in zip(*self.per_query))
        object.__setattr__(self, "mean", mean)


def check_sweep_depth(lists: Sequence[CandidateList], depth: int, name: str) -> None:
    """Reject a sweep depth outside 1..(length of the shortest list)."""
    if not lists:
        raise ValidationError("no candidate lists to sweep")
    shortest = min(len(cl) for cl in lists)
    if not 1 <= depth <= shortest:
        raise ValidationError(f"{name}={depth} must be within 1..{shortest} (shortest list)")


# Each sweep kind's cell -> (column slice, weights) of the anchor rows.
_CELLS = {
    "reference": lambda r: (slice(r - 1, r), (1.0,)),
    "ensemble": lambda m: (slice(0, m), EnsembleConfig(m).weights),
}


def _sweep(lists, scorer, qrels, sweeps, metric) -> list[SweepResult]:
    """One SweepResult per (kind, depth) in sweeps, cells 1..depth, in one pass over the lists."""
    plans = [[_CELLS[kind](cell) for cell in range(1, depth + 1)] for kind, depth in sweeps]
    deepest = max(depth for _, depth in sweeps)
    per_query = [[] for _ in sweeps]
    for candidate_list in lists:
        rows = anchor_rows(candidate_list, candidate_list.docs[:deepest])
        for plan, sweep_rows in zip(plans, per_query):
            values = []
            for span, weights in plan:
                scores = anchor_scores([row[span] for row in rows], scorer)
                ranking = weighted_ranking(candidate_list, scores, weights)
                values.append(ndcg_at_k(ranking, qrels, metric))
            sweep_rows.append(tuple(values))
    return [
        SweepResult(kind, tuple(range(1, depth + 1)), tuple(rows))
        for (kind, depth), rows in zip(sweeps, per_query)
    ]


def sweep_reference_quality(
    lists: Sequence[CandidateList],
    scorer: Scorer,
    qrels: Qrels,
    depth_r: int,
    metric: MetricConfig = MetricConfig(),
) -> SweepResult:
    """Mean ranking quality when anchoring on first-stage rank r, r = 1..depth_r."""
    check_sweep_depth(lists, depth_r, "depth_r")
    return _sweep(lists, scorer, qrels, [("reference", depth_r)], metric)[0]


def sweep_topk_selection(sweep: SweepResult) -> list[float]:
    """Expected quality of a uniform random anchor from the top k: prefix means.

    value[k-1] is the mean of the reference sweep's first k cells, for every
    k from 1 to the sweep's last cell.
    """
    return [total / k for k, total in enumerate(accumulate(sweep.mean), start=1)]


def sweep_ensemble_size(
    lists: Sequence[CandidateList],
    scorer: Scorer,
    qrels: Qrels,
    m_max: int,
    metric: MetricConfig = MetricConfig(),
) -> SweepResult:
    """Mean ranking quality of the uniform top-m anchor ensemble, m = 1..m_max."""
    check_sweep_depth(lists, m_max, "m_max")
    return _sweep(lists, scorer, qrels, [("ensemble", m_max)], metric)[0]


def sweep_anchors(
    lists: Sequence[CandidateList],
    scorer: Scorer,
    qrels: Qrels,
    depth_r: int,
    m_max: int,
    metric: MetricConfig = MetricConfig(),
) -> tuple[SweepResult, SweepResult]:
    """Both sweeps, to depth_r and m_max, in one pass: each list's rows are built once."""
    check_sweep_depth(lists, depth_r, "depth_r")
    check_sweep_depth(lists, m_max, "m_max")
    sweeps = [("reference", depth_r), ("ensemble", m_max)]
    return tuple(_sweep(lists, scorer, qrels, sweeps, metric))


def write_curve_csv(values: Sequence[float], path) -> None:
    """Write ``cell,mean,normalized`` rows for cells 1..len(values), floats as repr."""
    normalized = minmax_normalize(values)
    with open(path, "w", encoding="utf-8") as out:
        out.write("cell,mean,normalized\n")
        for cell, (mean, norm) in enumerate(zip(values, normalized), start=1):
            out.write(f"{cell},{mean!r},{norm!r}\n")
