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

Transport: raw sockets speaking HTTP/1.1, so proxy environment variables
and ``.netrc`` are not read. ``base_url`` is ``http(s)://host[:port]``; an
https endpoint's certificate is verified against the default trust store,
which honours ``SSL_CERT_FILE``, and ``ssl`` is loaded only when the first
https connection opens.
An API key must be printable ASCII without whitespace, or the config refuses
to build: it is sent as a bearer token, and no HTTP header can carry more.
The config also refuses a bad ``base_url``, so the CLI, which builds it
first, reports either before it reads any input.
A scorer owns ``batch_size`` keep-alive connections, shared by every
thread that calls it, and starts no thread of its own. Its ``_judge``, the
body of ``score_batch``, runs on the calling thread: it builds each request
as it sends it on a free connection, taking as many as are free, so at
most ``batch_size`` requests are in flight per scorer, and waits in one
``poll`` (a selector where ``select.poll`` is missing) for whichever socket
has input. It reads what has arrived without blocking, so a slow answer
holds up no other. Once a response is whole
(framed by ``Content-Length``, chunked coding or the end of the stream,
after any 1xx interim response), its connection goes straight back for the
next request, or is closed when the server said it would close, and its
latency is recorded. Its JSON is read only after every ready request has
gone out on the free connections, so parsing overlaps the next round trip.
A length or chunk size outside HTTP's plain digits, or two Content-Length
fields that differ, make the response malformed. Each request's body is
the scorer's fixed JSON envelope, built once, around the prompt. ``score``
is the same loop on a batch of one. A connection the server closed while it
was idle is reopened before the next request, without counting a retry. An
interrupt (Ctrl-C) closes the connections in flight and ends the call at
once. ``close()`` closes the connections and ends every wait, in any
thread: it shuts each open socket down, waking the poll, send or TLS
handshake on it, and wakes a call waiting out a backoff. Their requests fail with
``ScoringError``, with no retry and no further request; later calls raise
it and open nothing.

Transient failures (a dropped or reset connection, a malformed or cut-short
response, no whole response within the 30 s timeout from the request's
send, checked on every pass of the loop, HTTP 429, 500, 502, 503 or 504) are
retried up to 3 times. Before retry n the request waits, holding neither a
connection nor a thread, a uniform draw from [0, retry_backoff *
2**(n-1)] (full jitter); after a 429 or 503 whose ``Retry-After`` gives
seconds, at least that long, capped at the 30 s timeout. Results never
depend on the draw. The ledger counts each retried attempt by request kind,
and times each attempt that got a response, from send to its last byte.
"""

from __future__ import annotations

import collections
import contextlib
import heapq
import json
import math
import os
import queue
import random
import re
import select
import selectors
import socket
import threading
import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from urllib.parse import urlsplit

from ..datamodel import CallLedger, HarnessError, ValidationError
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
_READ_SIZE = 65536
_MAX_HEAD = 65536  # bytes of status line and headers
_HEAD_END = re.compile(rb"\r?\n\r?\n")
# HTTP/1.1 lengths are 1*DIGIT and chunk sizes 1*HEXDIG; int() also reads
# signs, underscores, a 0x prefix and non-ASCII digits.
_DIGITS = re.compile("[0-9]+")
_HEX_DIGITS = re.compile(rb"[0-9A-Fa-f]+")


class BadResponseError(Exception):
    """What a server sent is not a whole HTTP/1.x response: a transient failure, retried."""


class _Connection:
    """A keep-alive connection: its socket, None while closed, and the answer's bytes so far.

    ``not_yet`` are the errors a read of its socket raises when no byte, or
    no whole TLS record, has arrived.
    """

    __slots__ = ("sock", "buffer", "not_yet")

    def __init__(self):
        self.sock = None
        self.buffer = bytearray()
        self.not_yet: tuple[type[OSError], ...] = (BlockingIOError,)

    def close(self) -> None:
        sock, self.sock = self.sock, None
        self.buffer.clear()
        if sock is not None:
            sock.close()

    def read(self) -> bool:
        """Append the bytes that have arrived, without blocking; False once the peer has closed.

        A TLS socket can hold decrypted bytes that poll cannot see, so they
        are drained too.
        """
        sock = self.sock
        pending = getattr(sock, "pending", None)
        try:
            data = sock.recv(_READ_SIZE)
            while data:
                self.buffer += data
                if pending is None or not pending():
                    return True
                data = sock.recv(_READ_SIZE)
        except self.not_yet:
            return True
        return False


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
        _endpoint(self.base_url)
        if not self.model:
            raise ValidationError("model must be nonempty")
        if self.batch_size < 1:
            raise ValidationError("batch_size must be >= 1")
        if not 0 <= self.retry_backoff < math.inf:
            raise ValidationError("retry_backoff must be >= 0 and finite")
        _headers(self.api_key_env)


class LlmScorer(Scorer):
    """Scores requests against an HTTP chat-completions endpoint."""

    def __init__(self, config: LlmBackendConfig, ledger: CallLedger | None = None):
        super().__init__(ledger)
        self.config = config
        self._https, host, port = _endpoint(config.base_url)
        self._address = host, port
        # The request line and headers every request starts with; each adds
        # its Content-Length and body.
        authority = f"[{host}]" if ":" in host else host
        if port != (443 if self._https else 80):
            authority += f":{port}"
        headers = {
            "Host": authority.encode("idna").decode() if not authority.isascii() else authority,
            "Accept-Encoding": "identity",
            **_headers(config.api_key_env),
        }
        self._head = f"POST {_PATH} HTTP/1.1\r\n".encode() + "".join(
            f"{name}: {value}\r\n" for name, value in headers.items()
        ).encode()
        # The JSON body on either side of the prompt: each request's body is
        # this envelope around json.dumps(prompt), byte for byte the dump of
        # the whole object. Its last "" is the content's, as only fixed keys
        # and numbers follow it.
        envelope = json.dumps({
            "model": config.model,
            "messages": [{"role": "user", "content": ""}],
            "temperature": 0,
            "max_tokens": 1,
            "logprobs": True,
            "top_logprobs": _TOP_LOGPROBS,
        })
        before, _, after = envelope.rpartition('""')
        self._envelope = before.encode(), after.encode()
        self._tls = None  # the https context, made at the first connect
        self.max_in_flight = config.batch_size
        self._connections = tuple(_Connection() for _ in range(config.batch_size))
        # Taking a free connection is the in-flight limit. Last in, first out
        # reuses the connection used last, the likeliest to be still open.
        self._free = queue.LifoQueue()
        for connection in self._connections:
            self._free.put(connection)
        self._closed = threading.Event()

    def close(self) -> None:
        """Close every connection and end every wait; later calls raise ScoringError.

        Every open socket is shut down first, which wakes a poll, a send or
        a TLS handshake that another thread has on it. A connection that a call holds is
        closed and freed by that call, which ends at once; the free ones
        are closed here.
        """
        self._closed.set()
        for connection in self._connections:
            sock = connection.sock
            if sock is not None:
                with contextlib.suppress(OSError):  # the peer may have closed it already
                    sock.shutdown(socket.SHUT_RDWR)
        taken = []
        with contextlib.suppress(queue.Empty):
            while True:
                taken.append(self._free.get_nowait())
        for connection in taken:
            connection.close()
            self._free.put(connection)

    # Scorer.score_batch itself, bound again here. perfbench/spans.py wraps
    # Scorer.score_batch and LlmScorer.score_batch each, so this way every
    # endpoint batch is one traced span. An override that calls the base, or
    # no binding at all, reaches the wrapped base through the wrapped name,
    # and each batch counts twice.
    score_batch = Scorer.score_batch

    def _open(self, connection: _Connection) -> None:
        """Connect, with TLS for an https endpoint, and without Nagle's delay.

        The TLS socket is the connection's before its handshake, so that
        close() can shut it down and end a handshake that stalls.
        """
        connection.sock = sock = socket.create_connection(self._address, _TIMEOUT_S)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._https:
                import ssl  # loaded for an https endpoint only

                if self._tls is None:  # the trust store is read once a scorer
                    self._tls = ssl.create_default_context()
                connection.not_yet = (BlockingIOError, ssl.SSLWantReadError)
                connection.sock = sock = self._tls.wrap_socket(
                    sock, server_hostname=self._address[0], do_handshake_on_connect=False
                )
                # close() sets the flag before it shuts the sockets down, so
                # either it sees this socket or the handshake is skipped here
                # and the caller finds the flag set.
                if not self._closed.is_set():
                    sock.do_handshake()
        except BaseException:
            connection.close()
            raise

    def _judge(self, requests: Sequence[JudgeRequest]):
        """Run every request to its end on this thread: (results, errors by index).

        Each attempt takes a free connection, waiting for one only while none
        of this batch's requests is in flight, builds its request and sends
        it. One poll then waits for input on any socket in flight, for the
        next deadline, or for the next retry to fall due. Each socket with
        input is read without blocking. Once a response is whole, its
        connection goes back to the free queue and its latency is recorded
        at once, and a 429 or 5xx schedules its retry. Any other answer is
        held until the next pass has sent the ready requests on the free
        connections; only then are its logits read and its call counted,
        so its JSON is parsed while the next request is out. Every deadline
        is checked on every pass. A failed attempt waits out
        its backoff in a heap, holding no connection, and on the close event
        while nothing is in flight. It returns only once every request has
        finished. On any exception, a ``KeyboardInterrupt`` included, the
        connections taken and not yet freed are closed and freed. Either
        way, nothing is left recording into the ledger.
        """
        if self._closed.is_set():
            raise ScoringError("scorer is closed")
        results: list[dict[str, float] | None] = [None] * len(requests)
        errors: dict[int, Exception] = {}
        attempts = [0] * len(requests)
        ready = collections.deque(range(len(requests)))
        backoff: list[tuple[float, int]] = []  # (due, index), a heap
        # (connection, index, send time, prompt characters) by socket fd
        in_flight: dict[int, tuple[_Connection, int, float, int]] = {}
        # (index, status, body, prompt characters) of the whole answers not yet parsed
        answers: list[tuple[int, int, bytearray, int]] = []
        held: set[_Connection] = set()  # taken from the free queue, not put back
        free = self._free

        def release(connection: _Connection, close: bool = False) -> None:
            if close:  # a failed exchange leaves the stream unusable; it reopens on its next request
                connection.close()
            else:
                connection.buffer.clear()
            held.discard(connection)
            free.put(connection)

        def failed(index: int, failure: str, retry_after: float = 0.0) -> None:
            """Schedule a transient failure's retry; after the last retry, or once closed, raise."""
            if self._closed.is_set():
                raise ScoringError("scorer is closed")
            if attempts[index] == _MAX_RETRIES:
                raise TransientBackendError(
                    f"request failed after {_MAX_RETRIES + 1} attempt(s): {failure}"
                )
            attempts[index] += 1
            self.ledger.record_retry(requests[index].kind)
            pause = random.uniform(0.0, self.config.retry_backoff * 2 ** (attempts[index] - 1))
            due = time.monotonic() + max(pause, min(retry_after, _TIMEOUT_S))
            heapq.heappush(backoff, (due, index))

        def send(index: int, connection: _Connection) -> None:
            # Built as it is sent, so a batch holds no more than its in-flight bodies.
            prompt = build_prompt(requests[index], self.config.templates, _MAX_DOC_CHARS)
            before, after = self._envelope
            body = before + json.dumps(prompt).encode() + after
            try:
                if connection.sock is not None and _readable(connection.sock):
                    # The server closed the idle connection (a keep-alive
                    # timeout): nothing was sent on it, so reopen it without
                    # a retry.
                    connection.close()
                started = time.monotonic()
                if connection.sock is None and not self._closed.is_set():
                    self._open(connection)
                # Read with the socket open: close() sets the flag before it
                # shuts every open socket down, so no request outlives it.
                if self._closed.is_set():
                    release(connection, close=True)
                    raise ScoringError("scorer is closed")
                sock = connection.sock
                sock.settimeout(_TIMEOUT_S)
                # Head and body in two writes, as the standard library's
                # client sent them. In one, a request can reach perfbench's
                # stub before the stub has counted the answer just sent on
                # another connection as done, and its one-CPU gate reads
                # that as two requests in flight (ROADMAP item 1a).
                sock.sendall(self._head + b"Content-Length: %d\r\n\r\n" % len(body))
                sock.sendall(body)
                sock.setblocking(False)  # the answer is read as it arrives
            except OSError as exc:
                release(connection, close=True)
                failed(index, f"{type(exc).__name__}: {exc}")
                return
            in_flight[sock.fileno()] = connection, index, started, len(prompt)

        def receive(fd: int) -> None:
            connection, index, started, prompt_chars = in_flight[fd]
            try:
                ended = not connection.read()
                response = _parse(connection.buffer, ended)
            except (OSError, BadResponseError) as exc:
                del in_flight[fd]
                release(connection, close=True)
                failed(index, f"{type(exc).__name__}: {exc}")
                return
            if response is None:  # not whole yet
                return
            del in_flight[fd]
            status, headers, body, reusable = response
            release(connection, close=not reusable)
            self.ledger.record_latency(requests[index].kind, time.monotonic() - started)
            if status in RETRYABLE_STATUS:
                retry_after = headers.get("retry-after") if status in _RETRY_AFTER_STATUS else None
                failed(index, f"HTTP {status}", _retry_after_seconds(retry_after))
                return
            answers.append((index, status, body, prompt_chars))

        try:
            while ready or backoff or in_flight or answers:
                now = time.monotonic()
                while backoff and (backoff[0][0] <= now or self._closed.is_set()):
                    ready.append(heapq.heappop(backoff)[1])
                while ready:
                    try:
                        connection = free.get(block=not in_flight)
                    except queue.Empty:
                        break
                    held.add(connection)
                    index = ready.popleft()
                    try:
                        send(index, connection)
                    except HarnessError as exc:
                        errors[index] = exc
                # The answers of the last pass, read while the requests just
                # sent make their round trips.
                for index, status, body, prompt_chars in answers:
                    request = requests[index]
                    try:
                        results[index] = _logits(request.labels, status, body)
                    except HarnessError as exc:
                        errors[index] = exc
                    else:
                        self.ledger.record(request.kind, prompt_chars)
                answers.clear()
                if not in_flight:  # nor is any request ready: each one sent has failed
                    if backoff:
                        self._closed.wait(max(0.0, backoff[0][0] - time.monotonic()))
                    continue
                wake = min(started for _, _, started, _ in in_flight.values()) + _TIMEOUT_S
                if backoff:
                    wake = min(wake, backoff[0][0])
                for fd in _ready(in_flight, max(0.0, wake - time.monotonic())):
                    index = in_flight[fd][1]
                    try:
                        receive(fd)
                    except HarnessError as exc:
                        errors[index] = exc
                now = time.monotonic()
                for fd, (connection, index, started, _) in list(in_flight.items()):
                    if now - started >= _TIMEOUT_S:
                        del in_flight[fd]
                        release(connection, close=True)
                        try:
                            failed(index, "TimeoutError: timed out")
                        except HarnessError as exc:
                            errors[index] = exc
        finally:  # holds any only when an exception, say an interrupt, cut an exchange short
            for connection in held:
                connection.close()
                free.put(connection)
        return results, dict(sorted(errors.items()))


def _endpoint(base_url: str) -> tuple[bool, str, int]:
    """Whether an ``http(s)://host[:port]`` URL is https, its host, and its port."""
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
    https = parts.scheme == "https"
    return https, parts.hostname, port or (443 if https else 80)


def _headers(api_key_env: str) -> dict[str, str]:
    """The request headers, with the key in api_key_env as a bearer token when it is named."""
    headers = {"Content-Type": "application/json"}
    if api_key_env:
        api_key = os.environ.get(api_key_env, "")
        if not api_key:
            raise ValidationError(f"environment variable {api_key_env!r} is not set")
        if not all("!" <= char <= "~" for char in api_key):
            # The message names the variable, never the key, which would reach logs.
            raise ValidationError(
                f"environment variable {api_key_env!r} holds whitespace or a "
                "character outside printable ASCII"
            )
        headers["Authorization"] = f"Bearer {api_key}"
    return headers


def _ready(fds, timeout: float) -> list[int]:
    """The descriptors among fds that have input, waiting up to timeout seconds for one."""
    if hasattr(select, "poll"):  # opens no descriptor; a selector opens one per call
        poller = select.poll()
        for fd in fds:
            poller.register(fd, select.POLLIN)
        return [fd for fd, _ in poller.poll(timeout * 1000)]
    with selectors.DefaultSelector() as selector:
        for fd in fds:
            selector.register(fd, selectors.EVENT_READ)
        return [key.fd for key, _ in selector.select(timeout)]


def _readable(sock) -> bool:
    """Whether an idle socket has input: end of stream, or bytes no request asked for."""
    return bool(_ready((sock.fileno(),), 0))


def _retry_after_seconds(value: str | None) -> float:
    """The seconds a Retry-After header asks for; 0 when absent or an HTTP-date."""
    try:
        seconds = float(value)
    except (TypeError, ValueError):
        return 0.0
    return seconds if math.isfinite(seconds) else 0.0


def _logits(labels: Sequence[str], status: int, body: bytes) -> dict[str, float]:
    """Each label's logit from an answer, by the endpoint contract; any other answer raises."""
    text = body.decode("utf-8", "replace")
    if status != 200:
        raise ScoringError(f"endpoint returned HTTP {status}: {text[:200]}")
    try:
        data = json.loads(text)
    except (ValueError, RecursionError):  # RecursionError: nested too deep to parse
        raise DegenerateResponseError("response body is not JSON", payload=text[:500]) from None
    try:
        top = data["choices"][0]["logprobs"]["content"][0]["top_logprobs"]
    except (KeyError, IndexError, TypeError):
        missing = "response carries no first-position top_logprobs"
        raise DegenerateResponseError(missing, payload=data) from None
    if not top:
        raise DegenerateResponseError("empty top_logprobs list", payload=data)
    label_of = {token: label for label in labels for token in (label, " " + label)}
    best = {}  # each listed label's largest log-probability, -inf while none is finite
    floor = math.inf  # the smallest finite log-probability
    try:  # iterated inside the guard, so a top_logprobs that is no list fails here too
        for item in top:
            token, logprob = item["token"], float(item["logprob"])
            if not math.isfinite(logprob):
                logprob = -math.inf
            elif logprob < floor:
                floor = logprob
            # a token that is no string names no label, and may be unhashable
            label = label_of.get(token) if isinstance(token, str) else None
            if label is not None:
                best[label] = max(best.get(label, -math.inf), logprob)
    except (KeyError, TypeError, ValueError, OverflowError):
        raise DegenerateResponseError("malformed top_logprobs entry", payload=data) from None
    if floor == math.inf:
        raise DegenerateResponseError("no finite log-probability in top_logprobs", payload=data)
    for label in labels:
        if best.get(label) == -math.inf:
            raise DegenerateResponseError(
                f"backend produced no finite logit for label {label!r}", payload=data
            )
    if not best:
        raise DegenerateResponseError(
            f"no label token among {list(labels)} appears in the top-{_TOP_LOGPROBS} "
            "log-probabilities", payload=data
        )
    floor -= 1.0
    return {label: best.get(label, floor) for label in labels}


def _parse(buffer: bytearray, ended: bool):
    """The response at the start of buffer, or None while it is not whole.

    Returns (status, headers, body, reusable): the headers by lower-case
    name, and whether the connection can carry the next request. Any 1xx
    interim response is skipped. ``ended`` says the peer has closed the
    stream, which ends a body framed by neither a length nor chunked
    coding; any other response it leaves unfinished was cut short.
    """
    start = 0
    while True:  # past any 1xx interim response
        line_end = buffer.find(b"\n", start)
        if line_end >= 0:  # a garbage status line fails at once, before the headers end
            line = bytes(buffer[start:line_end]).rstrip(b"\r")
            parts = line.split(None, 2)  # version, status code, reason
            code = parts[1] if len(parts) > 1 else b""
            status = int(code) if len(code) == 3 and code.isdigit() else 0
            if status < 100 or not parts[0].startswith(b"HTTP/1."):
                raise BadResponseError(f"bad status line {line!r}")
        head_end = _HEAD_END.search(buffer, start)
        if head_end is None:
            if len(buffer) - start > _MAX_HEAD:
                raise BadResponseError(f"no end of headers in {_MAX_HEAD} bytes")
            return _unfinished(buffer, ended)
        headers = {}
        for field_line in buffer[line_end + 1 : head_end.start()].decode("latin-1").split("\n"):
            name, colon, value = field_line.partition(":")
            if colon:
                name, value = name.strip().lower(), value.strip()
                if name == "content-length" and headers.get(name, value) != value:
                    value = f"{headers[name]}, {value}"  # two lengths: refused below
                headers[name] = value
        start = head_end.end()
        if status >= 200:
            break
    if status in (204, 304):
        body, end = buffer[start:start], start
    elif headers.get("transfer-encoding", "").rsplit(",", 1)[-1].strip().lower() == "chunked":
        whole = _dechunk(buffer, start)
        if whole is None:
            return _unfinished(buffer, ended)
        body, end = whole
    elif "content-length" in headers:
        if not _DIGITS.fullmatch(headers["content-length"]):
            raise BadResponseError(f"bad Content-Length {headers['content-length']!r}")
        end = start + int(headers["content-length"])
        if len(buffer) < end:
            return _unfinished(buffer, ended)
        body = buffer[start:end]
    elif ended:  # the body runs to the end of the stream
        body, end = buffer[start:], len(buffer)
    else:
        return None
    tokens = headers.get("connection", "").lower()
    keep_alive = "close" not in tokens and (parts[0] != b"HTTP/1.0" or "keep-alive" in tokens)
    return status, headers, body, keep_alive and end == len(buffer) and not ended


def _unfinished(buffer: bytearray, ended: bool) -> None:
    """None while a response is still to come; once the peer has closed the stream, a failure."""
    if ended:
        raise BadResponseError(
            f"the peer closed the connection after {len(buffer)} bytes of a response"
            if buffer else "the peer closed the connection without a response"
        )
    return None


def _dechunk(buffer: bytearray, start: int) -> tuple[bytearray, int] | None:
    """The chunked body from start, and the offset past it, or None while it is not whole."""
    body = bytearray()
    while True:
        line_end = buffer.find(b"\n", start)
        if line_end < 0:
            return None
        line = bytes(buffer[start:line_end]).rstrip(b"\r")
        digits, extension, _ = line.partition(b";")
        if extension:  # blank space may precede it
            digits = digits.rstrip(b" \t")
        if not _HEX_DIGITS.fullmatch(digits):
            raise BadResponseError(f"bad chunk size line {line!r}")
        size = int(digits, 16)
        start = line_end + 1
        if size == 0:
            break
        if len(buffer) < start + size + 2:
            return None
        if buffer[start + size : start + size + 2] != b"\r\n":
            raise BadResponseError("a chunk does not end in CRLF")
        body += buffer[start : start + size]
        start += size + 2
    while True:  # the trailer section, to its empty line
        line_end = buffer.find(b"\n", start)
        if line_end < 0:
            return None
        empty = buffer[start:line_end] in (b"", b"\r")
        start = line_end + 1
        if empty:
            return body, start
