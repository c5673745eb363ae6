"""Scoring interface: request kinds and the scorer contract.

A scorer is a relevance judge. It takes a JudgeRequest, the query plus an
ordered tuple of documents, and returns a dict from each answer label to its
raw log-likelihood. The kind fixes the documents and the labels, as the
table datamodel.KINDS gives them, and datamodel.SETWISE_ALPHABET for setwise:

  pointwise  (doc,)          labels yes / no
  triplet    (doc, ref)      labels A (candidate) / B (reference)
  duel       (doc_a, doc_b)  labels A / B
  setwise    docs[2..26]     labels A.. one letter per group member

Scorer.score_batch is the one batch entry point, and _judge is the one hook
a judge supplies: it runs the whole batch, and the oracle and the endpoint
each supply their own. Scorer.score is a batch of one through _judge.
Every answer is checked once, before any caller sees it: a label that is
missing or not finite raises DegenerateResponseError, so code downstream
takes the values as they are. Normalization of logits into scores lives
in the strategies module; scorers return raw values. Every successful
call is counted in the shared CallLedger exactly once with the request
kind.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from math import isfinite, nan

from ..datamodel import (
    KINDS,
    SETWISE_ALPHABET,
    CallLedger,
    DocCandidate,
    HarnessError,
    Query,
    ValidationError,
)


class ScoringError(HarnessError):
    """A scorer failed to produce logits for a request."""


class TransientBackendError(ScoringError):
    """The backend failed transiently (network, timeout, 429/5xx) after retries."""


class DegenerateResponseError(ScoringError):
    """The backend answered, but no usable label logits could be extracted.

    Not retried: the response is semantically unusable, so retrying would
    burn quota for the same outcome. Carries the raw payload for debugging.
    """

    def __init__(self, message: str, payload=None):
        super().__init__(message)
        self.payload = payload


class TemplateError(HarnessError):
    """A prompt template is missing or misusing a placeholder."""

    def __init__(self, placeholder: str, detail: str = ""):
        self.placeholder = placeholder
        message = f"template problem with placeholder {placeholder}"
        if detail:
            message += f": {detail}"
        super().__init__(message)


class BatchScoringError(ScoringError):
    """Some requests in a batch failed; successful results are preserved.

    The message names the first eight failed requests by their doc ids, and
    the first failure's class and message.
    ``results[i]`` holds the logits for request i or None where it failed;
    ``errors`` maps the failed indices to their exceptions.
    """

    def __init__(self, message: str, results, errors: Mapping[int, Exception]):
        super().__init__(message)
        self.results = list(results)
        self.errors = dict(errors)


@dataclass(frozen=True, slots=True)
class JudgeRequest:
    """One judgment: the query plus an ordered tuple of documents.

    The kind fixes how many documents the request holds and its answer
    labels; see the module docstring for the slot order of each kind.
    """

    kind: str
    query: Query
    docs: tuple[DocCandidate, ...]

    # written by hand, to check and set in one frame: a request is built per
    # judgment, and the generated __init__ would call __post_init__ as well
    def __init__(self, kind: str, query: Query, docs: tuple[DocCandidate, ...]):
        spec = KINDS.get(kind)
        if spec is None:
            raise ValidationError(f"unknown request kind {kind!r}")
        low, high, _, _ = spec
        if not low <= len(docs) <= high:
            allowed = str(low) if low == high else f"{low}..{high}"
            raise ValidationError(f"{kind} request takes {allowed} documents, got {len(docs)}")
        _set_kind(self, kind)
        _set_query(self, query)
        _set_docs(self, docs)

    @property
    def labels(self) -> tuple[str, ...]:
        return KINDS[self.kind][2] or SETWISE_ALPHABET[: len(self.docs)]


# the slots' own setters, which a frozen class's __setattr__ does not reach
_set_kind, _set_query, _set_docs = (
    JudgeRequest.__dict__[name].__set__ for name in ("kind", "query", "docs")
)


class Scorer:
    """Uniform interface over relevance judges.

    A judge supplies ``_judge``, the one hook: it runs a whole batch,
    checks each answer and counts each success in the ledger. It must be
    safe to call from multiple threads, and reject an answer without one
    finite logit per request label. ``score_batch`` results are
    positionally aligned with the requests regardless of completion order.
    ``max_in_flight`` is the most requests the judge runs at once, None for
    no limit; bubblesort sizes batches to it.
    """

    max_in_flight: int | None = None

    def __init__(self, ledger: CallLedger | None = None):
        self.ledger = ledger if ledger is not None else CallLedger()

    def close(self) -> None:
        """Release what the scorer holds open; a scorer that holds nothing does nothing."""

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def score(self, request: JudgeRequest) -> dict[str, float]:
        """Judge one request, a batch of one through ``_judge``; its failure is raised as is."""
        results, errors = self._judge((request,))
        if errors:
            raise errors[0]
        return results[0]

    def score_batch(self, requests: Sequence[JudgeRequest]) -> list[dict[str, float]]:
        """Score all requests, preserving order.

        On partial failure raises BatchScoringError carrying every success
        and every failure; its message names the failed requests as
        ``doc|doc`` ids, the first eight by index, then the first failure.
        The ledger still counts each successful request exactly once.
        """
        results, errors = self._judge(requests)
        if errors:
            failed = ", ".join(
                "|".join(doc.doc_id for doc in requests[index].docs) for index in list(errors)[:8]
            )
            cause = next(iter(errors.values()))
            raise BatchScoringError(
                f"scoring failed for: {failed} ({type(cause).__name__}: {cause})", results, errors
            )
        return results  # type: ignore[return-value]

    def _judge(self, requests: Sequence[JudgeRequest]):
        """(results, errors by index in index order), a result None where it failed.

        Each judge supplies its own.
        """
        raise NotImplementedError


def check_labels(request: JudgeRequest, logits: Mapping[str, float]) -> None:
    """Raise DegenerateResponseError unless ``logits`` holds a finite value for each request label."""
    for label in request.labels:
        if not isfinite(logits.get(label, nan)):
            raise DegenerateResponseError(
                f"backend produced no finite logit for label {label!r}", payload=logits
            )
