"""Reranking harness: reference-anchored LLM comparison with pointwise,
pairwise, and setwise baselines, plus TREC-style run/qrels tooling, NDCG
evaluation, and judge-call accounting."""

__version__ = "0.1.0"

from .datamodel import (
    CallLedger,
    CandidateList,
    DocCandidate,
    HarnessError,
    Qrels,
    Query,
    Ranking,
    ValidationError,
    build_ranking,
)

__all__ = [
    "CallLedger",
    "CandidateList",
    "DocCandidate",
    "HarnessError",
    "Qrels",
    "Query",
    "Ranking",
    "ValidationError",
    "__version__",
    "build_ranking",
]
