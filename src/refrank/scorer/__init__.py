"""Relevance judges: the scoring interface, a synthetic oracle, and an HTTP backend."""

from .base import (
    BatchScoringError,
    DegenerateResponseError,
    JudgeRequest,
    Scorer,
    ScoringError,
    TemplateError,
    TransientBackendError,
)
from .llm import LlmBackendConfig, LlmScorer
from .oracle import OracleConfig, OracleScorer
from .prompts import PromptTemplates, build_prompt

__all__ = [
    "BatchScoringError",
    "DegenerateResponseError",
    "JudgeRequest",
    "LlmBackendConfig",
    "LlmScorer",
    "OracleConfig",
    "OracleScorer",
    "PromptTemplates",
    "Scorer",
    "ScoringError",
    "TemplateError",
    "TransientBackendError",
    "build_prompt",
]
