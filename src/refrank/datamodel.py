"""Core domain types shared across the reranking harness.

Everything here is immutable after construction and free of I/O and scoring
logic. KINDS is the one table of judge request kinds, which the ledger,
JudgeRequest and the prompt templates read; SETWISE_ALPHABET beside it
holds the setwise labels, and its length is the largest group. The one
exception is CallLedger, which adds up judge-call counts so concurrent
workers can share a single instance: each thread adds to a tally of its
own without a lock, and a read takes the lock and sums the tallies. Only
its final totals are meaningful.

No rank is stored anywhere: a document's first-stage rank is its position
in a CandidateList, and its new rank its position in a Ranking, whose doc
ids and scores are two parallel tuples. Tied scores keep first-stage order.
A Ranking checks that its scores are finite and non-increasing and its doc
ids unique in one C-level pass each, and walks the pairs only when a check
fails, to name the first offender.

Qrels sorts each query's grades into ideal order once, at construction;
the maximum grade is the first of them, and NDCG's ideal DCG reads them.
"""

from __future__ import annotations

import threading
from array import array
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from math import ceil, isfinite
from operator import ge, itemgetter


class HarnessError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(HarnessError):
    """A domain invariant was violated."""


@dataclass(frozen=True)
class Query:
    """A search query: stable identifier plus verbatim text."""

    id: str
    text: str

    def __post_init__(self):
        if not self.id:
            raise ValidationError("query id must be nonempty")
        if not self.text or self.text.isspace():
            raise ValidationError(f"query {self.id!r}: text is empty")


@dataclass(frozen=True)
class DocCandidate:
    """One first-stage candidate: a passage's id and its text.

    Text is stored verbatim and must not be empty or blank; truncation to a
    prompt budget is a scorer concern, not a datamodel concern. A candidate
    carries no rank: its first-stage rank is its position in a CandidateList.
    """

    doc_id: str
    text: str

    def __post_init__(self):
        if not self.doc_id:
            raise ValidationError("doc_id must be nonempty")
        if not self.text or self.text.isspace():
            raise ValidationError(f"doc {self.doc_id}: text is empty")


@dataclass(frozen=True)
class CandidateList:
    """A query with its candidate documents in first-stage order.

    The document at docs[r-1] has first-stage rank r; the order is the only
    record of it.
    """

    query: Query
    docs: tuple[DocCandidate, ...]

    def __post_init__(self):
        object.__setattr__(self, "docs", tuple(self.docs))
        if not self.docs:
            raise ValidationError(f"query {self.query.id!r}: candidate list is empty")
        seen: set[str] = set()
        for doc in self.docs:
            if doc.doc_id in seen:
                raise ValidationError(
                    f"duplicate doc_id {doc.doc_id!r} (query {self.query.id})"
                )
            seen.add(doc.doc_id)

    def __len__(self) -> int:
        return len(self.docs)


@dataclass(frozen=True)
class Ranking:
    """An ordered reranking result for one query: doc ids with one score each.

    Scores run non-increasing, and a document's rank is its position from 1.
    Build through build_ranking, which sorts the scored pairs.
    """

    query_id: str
    doc_ids: tuple[str, ...]
    scores: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "doc_ids", tuple(self.doc_ids))
        object.__setattr__(self, "scores", tuple(self.scores))
        if not self.query_id:
            raise ValidationError("query_id must be nonempty")
        if not self.doc_ids:
            raise ValidationError(f"ranking for {self.query_id!r} is empty")
        if len(self.doc_ids) != len(self.scores):
            raise ValidationError(
                f"ranking for {self.query_id!r}: {len(self.doc_ids)} doc ids but "
                f"{len(self.scores)} scores"
            )
        doc_ids, scores = self.doc_ids, self.scores
        # each check is one C-level pass; a loop runs only to name the first offender
        if not all(map(isfinite, scores)) or len(set(doc_ids)) != len(doc_ids):
            seen: set[str] = set()
            for doc_id, score in zip(doc_ids, scores):
                if not isfinite(score):
                    raise ValidationError(
                        f"ranking for {self.query_id!r}: non-finite score for {doc_id!r}"
                    )
                if doc_id in seen:
                    raise ValidationError(
                        f"duplicate doc_id {doc_id!r} (ranking {self.query_id})"
                    )
                seen.add(doc_id)
        if not all(map(ge, scores, scores[1:])):
            for rank, (left, right) in enumerate(zip(scores, scores[1:]), start=1):
                if left < right:
                    raise ValidationError(
                        f"ranking for {self.query_id!r}: scores increase between "
                        f"ranks {rank} and {rank + 1}"
                    )


def build_ranking(query_id: str, scored: Sequence[tuple[DocCandidate, float]]) -> Ranking:
    """Order (candidate, score) pairs into a Ranking, score descending.

    The sort is stable, so tied pairs keep the order they are given in;
    every strategy gives them in first-stage order. Ranking rejects a
    non-finite score.
    """
    ordered = sorted(scored, key=itemgetter(1), reverse=True)
    doc_ids = tuple(doc.doc_id for doc, _ in ordered)
    return Ranking(query_id, doc_ids, tuple(score for _, score in ordered))


def _as_grade(value) -> int:
    try:
        grade = int(value)
    except (TypeError, ValueError):
        raise ValidationError(f"relevance grade {value!r} is not an integer") from None
    if grade != value:
        raise ValidationError(f"relevance grade {value!r} is not an integer")
    if grade < 0:
        raise ValidationError(f"relevance grade must be nonnegative, got {grade}")
    return grade


class Qrels:
    """Graded relevance judgments keyed by (query_id, doc_id).

    Absent pairs mean grade 0. Treat instances as read-only after
    construction: each query's grades are sorted there, once, into the
    ideal order that the maximum grade and the ideal DCG read.
    """

    def __init__(self, grades: Mapping[str, Mapping[str, int]] | None = None):
        by_query: dict[str, dict[str, int]] = {}
        if grades:
            for query_id, docs in grades.items():
                by_query[query_id] = {
                    doc_id: _as_grade(grade) for doc_id, grade in docs.items()
                }
        self._by_query = by_query
        self._ideal = {
            query_id: tuple(sorted(judged.values(), reverse=True))
            for query_id, judged in by_query.items()
        }

    def grade(self, query_id: str, doc_id: str) -> int:
        return self._by_query.get(query_id, {}).get(doc_id, 0)

    def judged(self, query_id: str) -> Mapping[str, int]:
        """All judged docs for a query; treat the mapping as read-only."""
        return self._by_query.get(query_id, {})

    def ideal_grades(self, query_id: str) -> tuple[int, ...]:
        """A query's judged grades, highest first; empty for an unjudged query."""
        return self._ideal.get(query_id, ())

    def max_grade(self, query_id: str) -> int:
        ideal = self._ideal.get(query_id)
        return ideal[0] if ideal else 0


SETWISE_ALPHABET = tuple("ABCDEFGHIJKLMNOPQRSTUVWXYZ")  # a setwise group's labels, in order
SETWISE_MAX_GROUP = len(SETWISE_ALPHABET)

# kind -> (fewest docs, most docs, fixed labels or None for one letter per doc,
# the prompt placeholder each document slot fills; setwise's holds them all)
KINDS: dict[str, tuple[int, int, tuple[str, ...] | None, tuple[str, ...]]] = {
    "pointwise": (1, 1, ("yes", "no"), ("doc",)),
    "triplet": (2, 2, ("A", "B"), ("doc", "ref")),
    "duel": (2, 2, ("A", "B"), ("doc_i", "doc_j")),
    "setwise": (2, SETWISE_MAX_GROUP, None, ("docs",)),
}
_CHARS = "prompt_chars"  # the key of a tally's prompt-character count


class CallLedger:
    """Counts judge calls by kind, their prompt characters, retried attempts and latencies.

    A call counts once, when it succeeds, with its prompt characters: the
    endpoint's rendered prompt, or the oracle's query and document texts,
    uncut. ``retries`` counts each attempt after a request's first, by kind,
    whether or not the request succeeds.
    ``record_latency`` appends one timed attempt's milliseconds to its kind's
    array, under the lock, 8 bytes an attempt; ``latency_ms`` sorts a copy
    and reads the exact p50, p95 and max from it.

    Increment-only, and concurrent workers may share one instance. A call
    takes no lock: each thread adds to its own tally, a dict of the kinds
    plus a prompt-character count that only that thread writes, registered
    once under the lock. A read takes the lock and sums every tally,
    including those of threads that have exited. Only the final totals are
    observable.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._tallies: list[dict[str, int]] = []
        self._retries: dict[str, int] = {}
        self._latency: dict[str, array] = {}  # kind -> each timed attempt, in ms

    def _register(self) -> dict[str, int]:
        tally = dict.fromkeys((*KINDS, _CHARS), 0)
        with self._lock:
            self._tallies.append(tally)
        self._local.tally = tally
        return tally

    def record(self, kind: str, prompt_chars: int = 0) -> None:
        if kind not in KINDS:
            raise ValidationError(f"unknown request kind {kind!r}")
        try:
            tally = self._local.tally
        except AttributeError:
            tally = self._register()
        tally[kind] += 1
        tally[_CHARS] += prompt_chars

    def record_retry(self, kind: str) -> None:
        with self._lock:
            self._retries[kind] = self._retries.get(kind, 0) + 1

    def record_latency(self, kind: str, seconds: float) -> None:
        with self._lock:
            self._latency.setdefault(kind, array("d")).append(seconds * 1e3)

    @property
    def counts(self) -> dict[str, int]:
        with self._lock:
            return {kind: sum(tally[kind] for tally in self._tallies) for kind in KINDS}

    @property
    def total_calls(self) -> int:
        return sum(self.counts.values())

    @property
    def prompt_chars(self) -> int:
        with self._lock:
            return sum(tally[_CHARS] for tally in self._tallies)

    @property
    def retries(self) -> dict[str, int]:
        """Retried attempts per kind, for the kinds that had any."""
        with self._lock:
            return dict(self._retries)

    @property
    def latency_ms(self) -> dict[str, dict[str, float]]:
        """p50, p95 and max latency in ms, for each kind with a timed attempt.

        Each is a nearest rank: the ceil(share * n)-th fastest of the kind's
        n attempts, the max at share 1.
        """
        with self._lock:
            timed = {kind: sorted(self._latency[kind]) for kind in KINDS if kind in self._latency}
        return {
            kind: {
                name: round(ms[ceil(share * len(ms)) - 1], 3)
                for name, share in (("p50", 0.5), ("p95", 0.95), ("max", 1.0))
            }
            for kind, ms in timed.items()
        }
