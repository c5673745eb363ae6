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

Transport: the standard library's ``http.client``, so proxy environment
variables and ``.netrc`` are not read. ``base_url`` is ``http(s)://host[:port]``.
An API key must be printable ASCII without whitespace, or the scorer refuses
to build: it is sent as a bearer token, and no HTTP header can carry more.
A scorer owns ``batch_size`` keep-alive connections. Each HTTP exchange
takes a free one and waits while none is, so at most ``batch_size`` requests
are in flight per scorer, from any number of threads. A connection the
server closed while it was idle is reopened before the next request, without
counting a retry. One worker pool of ``batch_size`` threads serves every
``score_batch``. ``close()`` stops the pool and closes the connections;
after it, calls raise ``ScoringError`` and open nothing.

Transient failures (a dropped or reset connection, a timeout, HTTP 429,
500, 502, 503 or 504) are retried up to 3 times. Before retry n the scorer
sleeps, holding no connection, a uniform draw from [0, retry_backoff *
2**(n-1)] (full jitter); after a 429 or 503 whose ``Retry-After`` gives
seconds, at least that long, capped at the 30 s timeout. Results never
depend on the draw. The ledger counts each retried attempt by request kind.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import queue
import random
import select
import selectors
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
_TIMEOUT_S = 30.0
_MAX_RETRIES = 3
_PATH = "/v1/chat/completions"


@dataclass(frozen=True)
class LlmBackendConfig:
    """Connection and prompting configuration for the network judge."""

    base_url: str
    model: str
    api_key_env: str = ""
    templates: PromptTemplates = field(default_factory=PromptTemplates.defaults)
    retry_backoff: float = 0.5
    batch_size: int = 4  # connections, so the most requests in flight at once

    def __post_init__(self):
        if not self.base_url:
            raise ValidationError("base_url must be nonempty")
        if not self.model:
            raise ValidationError("model must be nonempty")
        if self.batch_size < 1:
            raise ValidationError("batch_size must be >= 1")
        if not 0 <= self.retry_backoff < math.inf:
            raise ValidationError("retry_backoff must be >= 0 and finite")


class LlmScorer(Scorer):
    """Scores requests against an HTTP chat-completions endpoint."""

    def __init__(self, config: LlmBackendConfig, ledger: CallLedger | None = None):
        super().__init__(ledger)
        self.config = config
        connection_type, host, port = _endpoint(config.base_url)
        self._headers = {"Content-Type": "application/json"}
        if config.api_key_env:
            api_key = os.environ.get(config.api_key_env, "")
            if not api_key:
                raise ValidationError(
                    f"environment variable {config.api_key_env!r} is not set"
                )
            if not all("!" <= char <= "~" for char in api_key):
                # The message names the variable, never the key, which would reach logs.
                raise ValidationError(
                    f"environment variable {config.api_key_env!r} holds whitespace or a "
                    "character outside printable ASCII"
                )
            self._headers["Authorization"] = f"Bearer {api_key}"
        self.max_in_flight = config.batch_size
        self._pool = ThreadPoolExecutor(max_workers=config.batch_size)
        self._connections = tuple(
            connection_type(host, port, timeout=_TIMEOUT_S) for _ in range(config.batch_size)
        )
        # Taking a free connection is the in-flight limit. Last in, first out
        # reuses the connection used last, the likeliest to be still open.
        self._free = queue.LifoQueue()
        for connection in self._connections:
            self._free.put(connection)
        self._closed = False

    def close(self) -> None:
        """Stop the worker pool and close every connection; later calls raise ScoringError."""
        self._closed = True
        self._pool.shutdown()
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
        attempts = _MAX_RETRIES + 1
        last_failure = "no attempt made"
        retry_after = 0.0
        for attempt in range(attempts):
            if attempt:
                self.ledger.record_retry(kind)
                backoff = random.uniform(0.0, self.config.retry_backoff * 2 ** (attempt - 1))
                time.sleep(max(backoff, min(retry_after, _TIMEOUT_S)))
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
        """POST body on a free connection: (status, Retry-After, whole body).

        Waits while every connection is taken. The body is read in full, so
        the connection can carry the next request. A connection that fails
        is closed, and reopens on its next request.
        """
        connection = self._free.get()
        try:
            if self._closed:
                raise ScoringError("scorer is closed")
            if connection.sock is not None and _readable(connection.sock):
                # The server closed the idle connection (a keep-alive timeout):
                # nothing was sent on it, so reopen it without a retry.
                connection.close()
            connection.request("POST", _PATH, body, self._headers)
            response = connection.getresponse()
            return response.status, response.getheader("Retry-After"), response.read()
        except (OSError, http.client.HTTPException):
            connection.close()
            raise
        finally:
            self._free.put(connection)

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
        if self._closed:
            raise ScoringError("scorer is closed")
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
    if hasattr(select, "poll"):  # opens no descriptor; a selector opens one per call
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))
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
