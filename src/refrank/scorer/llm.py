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
degenerate and never retried.

Transport: the standard library's ``http.client``, with one keep-alive
connection per thread, so proxy environment variables and ``.netrc`` are not
read. ``base_url`` is ``http(s)://host[:port]``. A connection the server
closed while it was idle is reopened before the next request, without
counting a retry. Each scorer has one worker pool of ``batch_size`` threads
for every ``score_batch``, and a semaphore of the same size around every
HTTP exchange, so serial ``score`` calls from any number of threads share
the same bound: at most ``batch_size`` requests are in flight per scorer.
``close()`` stops the pool and closes the connections.

Transient failures (a dropped or reset connection, a timeout, HTTP 429,
500, 502, 503 or 504) are retried up to ``max_retries`` times. Before retry
n the scorer sleeps a uniform draw from [0, retry_backoff * 2**(n-1)] (full
jitter); after a 429 or 503 whose ``Retry-After`` gives seconds, it sleeps
at least that long, capped at ``timeout``. Results never depend on the
draw. The ledger counts each retried attempt by request kind.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import random
import selectors
import threading
import time
from collections.abc import Sequence
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from urllib.parse import urlsplit

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
_RETRY_AFTER_STATUS = frozenset({429, 503})
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
    batch_size: int = 4  # the most requests the scorer has in flight at once
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
        self._connection_type, self._host, self._port = _endpoint(config.base_url)
        self._headers = {"Content-Type": "application/json"}
        if config.api_key_env:
            api_key = os.environ.get(config.api_key_env, "")
            if not api_key:
                raise ValidationError(
                    f"environment variable {config.api_key_env!r} is not set"
                )
            self._headers["Authorization"] = f"Bearer {api_key}"
        self._pool = ThreadPoolExecutor(max_workers=config.batch_size)
        self._in_flight = threading.BoundedSemaphore(config.batch_size)
        self._local = threading.local()
        # Every connection opened, from any thread, so that close() reaches them.
        self._connections: list[http.client.HTTPConnection] = []
        self._connections_lock = threading.Lock()

    def close(self) -> None:
        """Stop the worker pool and close every connection the scorer opened."""
        self._pool.shutdown()
        with self._connections_lock:
            for connection in self._connections:
                connection.close()

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
        data = self._post_with_retries(request.kind, json.dumps(payload).encode())
        return self._extract_logits(request, data), len(prompt)

    def _post_with_retries(self, kind: str, body: bytes) -> dict:
        attempts = self.config.max_retries + 1
        last_failure = "no attempt made"
        retry_after = 0.0
        for attempt in range(attempts):
            if attempt:
                self.ledger.record_retry(kind)
                backoff = random.uniform(0.0, self.config.retry_backoff * 2 ** (attempt - 1))
                time.sleep(max(backoff, min(retry_after, self.config.timeout)))
                retry_after = 0.0
            try:
                status, retry_after_header, data = self._exchange(body)
            except (OSError, http.client.HTTPException) as exc:
                last_failure = f"{type(exc).__name__}: {exc}"
                continue
            if status in RETRYABLE_STATUS:
                last_failure = f"HTTP {status}"
                if status in _RETRY_AFTER_STATUS:
                    retry_after = _retry_after_seconds(retry_after_header)
                continue
            text = data.decode("utf-8", "replace")
            if status != 200:
                raise ScoringError(f"endpoint returned HTTP {status}: {text[:200]}")
            try:
                return json.loads(text)
            except ValueError:
                raise DegenerateResponseError(
                    "response body is not JSON", payload=text[:500]
                ) from None
        raise TransientBackendError(
            f"request failed after {attempts} attempt(s): {last_failure}"
        )

    def _exchange(self, body: bytes) -> tuple[int, str | None, bytes]:
        """POST body on this thread's connection: (status, Retry-After, whole body).

        The body is read in full, so the connection can carry the next
        request. A connection that fails is closed, and reopens on its next
        request.
        """
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = self._connection_type(self._host, self._port, timeout=self.config.timeout)
            self._local.connection = connection
            with self._connections_lock:
                self._connections.append(connection)
        elif connection.sock is not None and _readable(connection.sock):
            # The server closed the idle connection (a keep-alive timeout):
            # nothing was sent on it, so reopen it without a retry.
            connection.close()
        with self._in_flight:
            try:
                connection.request("POST", self.config.path, body, self._headers)
                response = connection.getresponse()
                return response.status, response.getheader("Retry-After"), response.read()
            except (OSError, http.client.HTTPException):
                connection.close()
                raise

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
        """Score on the scorer's worker pool; order preserved.

        Returns or raises only once every request has finished, so none is
        left recording into the ledger after the caller has moved on.
        """
        futures = [self._pool.submit(self.score, request) for request in requests_seq]
        wait(futures)
        return self._collect(requests_seq, Future.result, futures)


def _endpoint(base_url: str) -> tuple[type[http.client.HTTPConnection], str, int | None]:
    """The connection class, host and port of an ``http(s)://host[:port]`` URL."""
    try:
        parts = urlsplit(base_url)
        port = parts.port
    except ValueError:
        parts = port = None
    if (
        parts is None
        or parts.scheme not in ("http", "https")
        or not parts.hostname
        or "@" in parts.netloc
        or parts.path not in ("", "/")
        or parts.query
        or parts.fragment
    ):
        raise ValidationError(f"base_url must be http(s)://host[:port], got {base_url!r}")
    if parts.scheme == "https":
        return http.client.HTTPSConnection, parts.hostname, port
    return http.client.HTTPConnection, parts.hostname, port


def _readable(sock) -> bool:
    """Whether an idle socket has input: end of stream, or bytes no request asked for."""
    with selectors.DefaultSelector() as selector:
        selector.register(sock, selectors.EVENT_READ)
        return bool(selector.select(0))


def _retry_after_seconds(value: str | None) -> float:
    """The seconds a Retry-After header asks for; 0 when absent or an HTTP-date."""
    try:
        seconds = float(value)
    except (TypeError, ValueError):
        return 0.0
    return seconds if math.isfinite(seconds) else 0.0
