"""The six ranking strategies.

Each strategy consumes a CandidateList plus a Scorer and emits a Ranking
whose doc_ids are a permutation of the input. Judge-call counts are exact:

    pointwise            n
    refrank-single       n
    refrank-multiple     m * n
    pairwise-allpairs    n(n-1)
    pairwise-bubblesort  k(n-1) - k(k-1)/2
    setwise-heapsort     data-dependent; the ledger reports it exactly

Batchable strategies (pointwise, refrank, allpairs) issue all their
requests in one score_batch call. Bubblesort sends batches of at most the
scorer's max_in_flight duels whose inputs are settled. Only heapsort
depends on each earlier outcome; it sends its set comparisons one per batch.
Every strategy reaches the judge through score_batch, so a failed request raises BatchScoringError
naming its doc ids. A document's first-stage rank is its position in
candidates.docs. Score aggregation always walks the candidates in that
order, so floating-point sums are reproducible and build_ranking, whose
sort is stable, leaves tied scores in first-stage order.

The two anchored strategies compose three steps: anchor_rows builds one
row of triplet requests per candidate against the anchors, anchor_scores
turns a set of rows into refrank_score values in one doc-major
score_batch, and weighted_ranking sums each candidate's row with the
anchor weights and ranks by the sums. The anchor sweeps in the analysis
module build the rows once per list and run these same steps on columns of
them, so each sweep cell is a full refrank-single or refrank-multiple run.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain

from ._seeded import unit_uniform
from .datamodel import (
    SETWISE_MAX_GROUP,
    CandidateList,
    DocCandidate,
    Ranking,
    ValidationError,
    build_ranking,
)
from .scorer.base import JudgeRequest, Scorer


def refrank_score(s_a: float, s_b: float) -> float:
    """Probability mass on the candidate slot (A) against the reference slot (B).

    The two-way softmax exp(s_a) / (exp(s_a) + exp(s_b)), safe for large
    magnitudes. The candidate always occupies slot A and the reference slot B.
    """
    top = s_a if s_a >= s_b else s_b
    e_a = math.exp(s_a - top)
    e_b = math.exp(s_b - top)
    return e_a / (e_a + e_b)


def pointwise_score(s_yes: float, s_no: float) -> float:
    """Relevance probability from the yes/no label logits: the same softmax."""
    return refrank_score(s_yes, s_no)


@dataclass(frozen=True)
class FixedIndex:
    """Always anchor on the document at first-stage rank r."""

    r: int = 1

    def __post_init__(self):
        if self.r < 1:
            raise ValidationError(f"reference index must be >= 1, got {self.r}")

    def pick(self, candidates: CandidateList) -> DocCandidate:
        """The anchor for this query: the document at rank r."""
        n = len(candidates)
        if self.r > n:
            raise ValidationError(f"reference index {self.r} exceeds list length {n}")
        return candidates.docs[self.r - 1]


@dataclass(frozen=True)
class RandomTopK:
    """Anchor on a seeded uniform draw from the top-k first-stage ranks.

    The draw is deterministic per (seed, query_id): reranking the same
    query twice picks the same anchor.
    """

    k: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValidationError(f"top-k must be >= 1, got {self.k}")

    def pick(self, candidates: CandidateList) -> DocCandidate:
        """The anchor for this query: the document at a drawn rank in 1..k."""
        n = len(candidates)
        if self.k > n:
            raise ValidationError(f"reference top-k {self.k} exceeds list length {n}")
        u = unit_uniform(str(self.seed), "reference-pick", candidates.query.id)
        return candidates.docs[min(int(u * self.k), self.k - 1)]


@dataclass(frozen=True)
class EnsembleConfig:
    """How many top-ranked anchors to combine, and their weights.

    Weights default to the uniform 1/m and must be nonnegative and sum to 1
    within 1e-9.
    """

    m: int
    weights: tuple[float, ...] = ()

    def __post_init__(self):
        if self.m < 1:
            raise ValidationError(f"ensemble size m must be >= 1, got {self.m}")
        weights = tuple(self.weights)
        if not weights:
            weights = (1.0 / self.m,) * self.m
        object.__setattr__(self, "weights", weights)
        if len(weights) != self.m:
            raise ValidationError(
                f"expected {self.m} weights, got {len(weights)}"
            )
        if not all(w >= 0 for w in weights):
            raise ValidationError(f"weights must be nonnegative, got {weights!r}")
        if abs(sum(weights) - 1.0) > 1e-9:
            raise ValidationError(f"weights must sum to 1, got {sum(weights)!r}")


def anchor_rows(
    candidates: CandidateList, refs: Sequence[DocCandidate]
) -> list[tuple[JudgeRequest, ...]]:
    """Anchored scoring, step a: one row of triplet requests per candidate.

    Row i pairs candidate i (first-stage order) with each anchor, in the
    order given. Building the rows makes no judge call.
    """
    query = candidates.query
    columns = [
        [JudgeRequest("triplet", query, (doc, ref)) for doc in candidates.docs] for ref in refs
    ]
    return list(zip(*columns))


def anchor_scores(
    rows: Sequence[Sequence[JudgeRequest]], scorer: Scorer
) -> list[float]:
    """Anchored scoring, step b: the refrank_score of every request in rows.

    One score_batch over the rows, doc-major; the scores come back in the
    same flat doc-major order.
    """
    return [
        refrank_score(logits["A"], logits["B"])
        for logits in scorer.score_batch(list(chain.from_iterable(rows)))
    ]


def weighted_ranking(
    candidates: CandidateList, scores: Sequence[float], weights: Sequence[float]
) -> Ranking:
    """Anchored scoring, step c: rank by each candidate's weighted score sum.

    scores holds one row of len(weights) values per candidate, doc-major.
    Each sum runs over the candidate's row in anchor order, and the
    candidates in first-stage order, so the floats are reproducible.
    """
    values = iter(scores)
    scored = []
    for doc in candidates.docs:
        total = 0.0
        for weight in weights:
            total += weight * next(values)
        scored.append((doc, total))
    return build_ranking(candidates.query.id, scored)


def _positional(candidates: CandidateList, settled: list[DocCandidate]) -> Ranking:
    """The settled docs on top in their order, the rest in first-stage order.

    Scores run n, n-1, ..., 1 down the list.
    """
    settled_ids = {doc.doc_id for doc in settled}
    final = settled + [doc for doc in candidates.docs if doc.doc_id not in settled_ids]
    n = len(final)
    scored = [(doc, float(n - position)) for position, doc in enumerate(final)]
    return build_ranking(candidates.query.id, scored)


def rank_pointwise(candidates: CandidateList, scorer: Scorer) -> Ranking:
    """Independent yes/no judgment per document; exactly n judge calls."""
    query = candidates.query
    requests = [
        JudgeRequest("pointwise", query, (doc,))
        for doc in candidates.docs
    ]
    results = scorer.score_batch(requests)
    scored = [
        (doc, pointwise_score(logits["yes"], logits["no"]))
        for doc, logits in zip(candidates.docs, results)
    ]
    return build_ranking(query.id, scored)


def rank_refrank_single(
    candidates: CandidateList,
    scorer: Scorer,
    policy: FixedIndex | RandomTopK = FixedIndex(1),
) -> Ranking:
    """Score every document against the anchor policy.pick names; n triplet calls.

    The anchor is scored too (its triplet pairs it with itself), keeping the
    call count at n with no special-cased score; a symmetric judge gives the
    self-pair 0.5, so the anchor's final rank rests on the tie-break. This
    is the one-anchor ensemble with weight 1.0.
    """
    rows = anchor_rows(candidates, (policy.pick(candidates),))
    return weighted_ranking(candidates, anchor_scores(rows, scorer), (1.0,))


def rank_refrank_multiple(
    candidates: CandidateList, scorer: Scorer, config: EnsembleConfig
) -> Ranking:
    """Weighted anchor ensemble over the top-m first-stage documents.

    Anchors are the m top-ranked docs in first-stage order; each candidate's
    score is the weighted sum of its per-anchor scores. Exactly m*n triplet
    calls. With m=1 this reduces to rank_refrank_single(FixedIndex(1))
    score for score.
    """
    n = len(candidates)
    if config.m > n:
        raise ValidationError(f"ensemble size m={config.m} exceeds list length {n}")
    rows = anchor_rows(candidates, candidates.docs[: config.m])
    return weighted_ranking(candidates, anchor_scores(rows, scorer), config.weights)


def rank_pairwise_allpairs(candidates: CandidateList, scorer: Scorer) -> Ranking:
    """Duel every ordered pair of documents and average win probabilities.

    Both orientations of each pair are judged, n(n-1) calls, so slot
    preference cancels in the aggregate.
    """
    docs = candidates.docs
    n = len(docs)
    query = candidates.query
    if n == 1:
        return build_ranking(query.id, [(docs[0], 1.0)])
    requests = [
        JudgeRequest("duel", query, (doc_a, doc_b))
        for i, doc_a in enumerate(docs)
        for j, doc_b in enumerate(docs)
        if i != j
    ]
    results = scorer.score_batch(requests)

    def prob_a(i: int, j: int) -> float:
        # row i holds the n-1 duels of doc i in slot A, skipping j == i
        logits = results[i * (n - 1) + j - (j > i)]
        return refrank_score(logits["A"], logits["B"])

    scored = []
    for i, doc in enumerate(docs):
        total = 0.0
        for j in range(n):
            if j != i:
                total += prob_a(i, j) + (1.0 - prob_a(j, i))
        scored.append((doc, total / (2.0 * (n - 1))))
    return build_ranking(query.id, scored)


@functools.lru_cache(maxsize=256)
def _bubble_schedule(n: int, k: int, limit: int | None) -> tuple[tuple[int, ...], ...]:
    """Bubblesort's batches, each the positions i of its duels (i, i+1) in pass order.

    Pass s duels at i = n-2 down to s; nxt[s] is where it duels next. It may
    duel at i once pass s-1 has left positions i-1 and i (nxt[s-1] < i-1),
    so a batch's duels touch disjoint positions, and every earlier duel of
    the serial sweep that touches i or i+1 is in an earlier batch. With no
    limit, batch w is the wave (n-2-i) + 2s = w: n + min(k, n-1) - 2 batches.
    Past it, the passes furthest behind their wave (least 2s - nxt[s]) go first.
    """
    passes = min(k, n - 1)
    nxt = [n - 2] * passes
    batches = []
    while passes and nxt[-1] >= passes - 1:  # the last pass finishes last
        ready = [s for s in range(passes) if nxt[s] >= s and (s == 0 or nxt[s - 1] < nxt[s] - 1)]
        if limit is not None and len(ready) > limit:
            ready = sorted(sorted(ready, key=lambda s: 2 * s - nxt[s])[:limit])
        batches.append(tuple(nxt[s] for s in ready))
        for s in ready:
            nxt[s] -= 1
    return tuple(batches)


def rank_pairwise_bubblesort(
    candidates: CandidateList, scorer: Scorer, k: int = 10
) -> Ranking:
    """k bubble passes over the first-stage order, settling the top k.

    Each pass sweeps from the bottom of the unsettled region toward the top,
    swapping adjacent docs whenever the lower-positioned one wins its duel
    (probability above 0.5 judged from slot A). Docs beyond the settled
    top-k fall back to first-stage order. Exactly k(n-1) - k(k-1)/2 calls.

    The passes overlap, one score_batch per batch of _bubble_schedule at
    the scorer's max_in_flight, and the outcome equals the serial sweep's.
    """
    n = len(candidates)
    if not 1 <= k <= n:
        raise ValidationError(f"bubble passes k={k} must be within 1..{n}")
    query = candidates.query
    order = list(candidates.docs)
    for positions in _bubble_schedule(n, k, scorer.max_in_flight):
        results = scorer.score_batch(
            [JudgeRequest("duel", query, (order[i + 1], order[i])) for i in positions]
        )
        for i, logits in zip(positions, results):
            if refrank_score(logits["A"], logits["B"]) > 0.5:
                order[i], order[i + 1] = order[i + 1], order[i]
    return _positional(candidates, order[:k])


def rank_setwise_heapsort(
    candidates: CandidateList, scorer: Scorer, c: int = 3, k: int = 10
) -> Ranking:
    """c-ary max-heap built with set comparisons, then k extractions.

    Every sift step asks one setwise question over a parent and its up-to-c
    children and promotes the winner, so each judge call replaces up to c
    duels; c is at most 25, since the group's labels run A..Z. Extracted
    docs take the top ranks; the rest keep first-stage order. The exact
    comparison count depends on how far winners sift and is reported by the
    ledger.
    """
    n = len(candidates)
    if not 2 <= c <= SETWISE_MAX_GROUP - 1:
        raise ValidationError(
            f"setwise fanout c must be within 2..{SETWISE_MAX_GROUP - 1}, got {c}"
        )
    if not 1 <= k <= n:
        raise ValidationError(f"extraction count k={k} must be within 1..{n}")
    query = candidates.query
    heap = list(candidates.docs)

    def most_relevant(group: list[DocCandidate]) -> int:
        request = JudgeRequest("setwise", query, tuple(group))
        logits = scorer.score_batch([request])[0]
        labels = request.labels
        best = 0
        for position in range(1, len(group)):
            if logits[labels[position]] > logits[labels[best]]:
                best = position
        return best

    def sift_down(position: int, size: int) -> None:
        while True:
            first_child = c * position + 1
            if first_child >= size:
                return
            children = range(first_child, min(first_child + c, size))
            group = [heap[position]] + [heap[child] for child in children]
            winner = most_relevant(group)
            if winner == 0:
                return
            child = first_child + winner - 1
            heap[position], heap[child] = heap[child], heap[position]
            position = child

    size = n
    for position in range((size - 2) // c, -1, -1):
        sift_down(position, size)
    extracted: list[DocCandidate] = []
    for _ in range(k):
        extracted.append(heap[0])
        size -= 1
        if size == 0:
            break
        heap[0] = heap[size]
        sift_down(0, size)
    return _positional(candidates, extracted)
