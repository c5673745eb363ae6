"""Network judge for chat-completions endpoints that return token log-probs.

Endpoint contract: the backend POSTs a single-message chat completion with
temperature 0, one output token, and the top 20 log-probabilities requested
for the first generated position. Each document is cut to its first 4,000
characters in the prompt. A label's token is the label itself. Its logit is
the largest finite log-probability listed for that token or its
leading-space variant (tokenizers differ on whitespace), repeated entries
included. Labels absent from the top 20 get a floor of one nat below the
smallest finite log-probability returned. A response with no usable top-20
list, with no finite log-probability, in which no label token appears at
all, or in which a label's token appears with no finite log-probability, is
degenerate and never retried; transient transport failures are retried
with exponential backoff.
"""

from __future__ import annotations

import math
import os
import time
from collections.abc import Sequence
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field

import requests

from ..datamodel import CallLedger, ValidationError
from .base import (
    DegenerateResponseError,
    JudgeRequest,
    Scorer,
    ScoringError,
    TransientBackendError,
)
from .prompts import PromptTemplates, build_prompt

RETRYABLE_STATUS = frozenset({429, 500, 502, 503, 504})
_TOP_LOGPROBS = 20
_MAX_DOC_CHARS = 4000


@dataclass(frozen=True)
class LlmBackendConfig:
    """Connection and prompting configuration for the network judge."""

    base_url: str
    model: str
    api_key_env: str = ""
    templates: PromptTemplates = field(default_factory=PromptTemplates.defaults)
    timeout: float = 30.0
    max_retries: int = 3
    retry_backoff: float = 0.5
    batch_size: int = 4
    path: str = "/v1/chat/completions"

    def __post_init__(self):
        if not self.base_url:
            raise ValidationError("base_url must be nonempty")
        if not self.model:
            raise ValidationError("model must be nonempty")
        if self.timeout <= 0:
            raise ValidationError("timeout must be positive")
        if self.max_retries < 0:
            raise ValidationError("max_retries must be >= 0")
        if self.batch_size < 1:
            raise ValidationError("batch_size must be >= 1")


class LlmScorer(Scorer):
    """Scores requests against an HTTP chat-completions endpoint."""

    def __init__(self, config: LlmBackendConfig, ledger: CallLedger | None = None):
        super().__init__(ledger)
        self.config = config
        self._url = config.base_url.rstrip("/") + config.path
        self._headers = {"Content-Type": "application/json"}
        if config.api_key_env:
            api_key = os.environ.get(config.api_key_env, "")
            if not api_key:
                raise ValidationError(
                    f"environment variable {config.api_key_env!r} is not set"
                )
            self._headers["Authorization"] = f"Bearer {api_key}"
        self._session = requests.Session()

    def _score_one(self, request: JudgeRequest) -> tuple[dict[str, float], int]:
        prompt = build_prompt(request, self.config.templates, _MAX_DOC_CHARS)
        payload = {
            "model": self.config.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": 0,
            "max_tokens": 1,
            "logprobs": True,
            "top_logprobs": _TOP_LOGPROBS,
        }
        data = self._post_with_retries(payload)
        return self._extract_logits(request, data), len(prompt)

    def _post_with_retries(self, payload: dict) -> dict:
        attempts = self.config.max_retries + 1
        last_failure = "no attempt made"
        for attempt in range(attempts):
            if attempt:
                time.sleep(self.config.retry_backoff * (2 ** (attempt - 1)))
            try:
                response = self._session.post(
                    self._url,
                    json=payload,
                    headers=self._headers,
                    timeout=self.config.timeout,
                )
            except requests.RequestException as exc:
                last_failure = f"{type(exc).__name__}: {exc}"
                continue
            if response.status_code in RETRYABLE_STATUS:
                last_failure = f"HTTP {response.status_code}"
                continue
            if response.status_code != 200:
                raise ScoringError(
                    f"endpoint returned HTTP {response.status_code}: "
                    f"{response.text[:200]}"
                )
            try:
                return response.json()
            except ValueError:
                raise DegenerateResponseError(
                    "response body is not JSON", payload=response.text[:500]
                ) from None
        raise TransientBackendError(
            f"request failed after {attempts} attempt(s): {last_failure}"
        )

    def _extract_logits(self, request: JudgeRequest, data: dict) -> dict[str, float]:
        try:
            top = data["choices"][0]["logprobs"]["content"][0]["top_logprobs"]
        except (KeyError, IndexError, TypeError):
            raise DegenerateResponseError(
                "response carries no first-position top_logprobs", payload=data
            ) from None
        if not top:
            raise DegenerateResponseError("empty top_logprobs list", payload=data)
        entries: list[tuple[str, float]] = []
        for item in top:
            try:
                entries.append((item["token"], float(item["logprob"])))
            except (KeyError, TypeError, ValueError):
                raise DegenerateResponseError(
                    "malformed top_logprobs entry", payload=data
                ) from None
        finite = [logprob for _, logprob in entries if math.isfinite(logprob)]
        if not finite:
            raise DegenerateResponseError("no finite log-probability in top_logprobs", payload=data)
        floor = min(finite) - 1.0
        values: dict[str, float] = {}
        found_any = False
        for label in request.labels:
            present = [logprob for token, logprob in entries if token in (label, " " + label)]
            if present:
                # A label listed only with non-finite values keeps one of
                # them, so that Scorer.score rejects the answer.
                values[label] = max(
                    (logprob for logprob in present if math.isfinite(logprob)),
                    default=present[0],
                )
                found_any = True
            else:
                values[label] = floor
        if not found_any:
            raise DegenerateResponseError(
                f"no label token among {list(request.labels)} "
                f"appears in the top-{_TOP_LOGPROBS} log-probabilities",
                payload=data,
            )
        return values

    def score_batch(self, requests_seq: Sequence[JudgeRequest]) -> list[dict[str, float]]:
        """Concurrent scoring with bounded in-flight requests; order preserved."""
        if not requests_seq:
            return []
        workers = min(self.config.batch_size, len(requests_seq))
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(self.score, request) for request in requests_seq]
            return self._collect(requests_seq, Future.result, futures)
