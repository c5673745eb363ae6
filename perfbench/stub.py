"""Stub chat-completions server with injected latency, run as a child process.

    python3 -m perfbench.stub --seed N --latency-ms 2 --throttle-share 0.02

Prints ``PORT <n>`` once listening on 127.0.0.1 and serves until its stdin
closes. Each POST is answered ``--latency-ms`` after it arrived. It speaks
HTTP/1.1 keep-alive with Nagle disabled: with either missing, delayed ACKs
cap a client at a few dozen calls per second and the benchmark would time
the stub instead of the program.

Answers are deterministic: the top-20 log-probabilities are derived from a
hash of (seed, prompt), so endpoint run files are byte-stable. The first
attempt of a seeded ~2% of prompts, chosen by prompt content, gets HTTP 429,
which exercises the client's retry path with a repeatable count.

``GET /stats`` returns the counters gathered since the previous call and
resets them, including the set of prompts already seen.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

TOKENS = (
    "A", "B", "yes", "no", "C", "D", " A", " B", "Yes", "No",
    "E", "F", "the", "Passage", "1", "2", ".", ":", "\n", "Answer",
)


def top_logprobs(digest: bytes) -> list[dict]:
    """Twenty distinct tokens with log-probabilities in (-10, 0] from a 64-byte digest."""
    return [
        {"token": token, "logprob": -round(10.0 * int.from_bytes(digest[3 * i : 3 * i + 3], "big") / 2**24, 6)}
        for i, token in enumerate(TOKENS)
    ]


class StubServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, seed: int, latency_s: float, throttle_share: float):
        super().__init__(("127.0.0.1", 0), StubHandler)
        self.seed = seed
        self.latency_s = latency_s
        self.throttle_share = throttle_share
        self.lock = threading.Lock()
        self.inflight = 0
        self._reset()

    def _reset(self) -> None:
        self.requests = 0
        self.throttled = 0
        self.seen: set[bytes] = set()
        self.inflight_max = 0
        self.inflight_sum = 0
        self.service_ns: list[int] = []

    def stats(self) -> dict:
        with self.lock:
            service_ms = [ns / 1e6 for ns in self.service_ns]
            stats = {
                "requests": self.requests,
                "distinct_prompts": len(self.seen),
                "throttled": self.throttled,
                "inflight_max": self.inflight_max,
                "inflight_mean": self.inflight_sum / self.requests if self.requests else 0.0,
                "service_ms_median": statistics.median(service_ms) if service_ms else 0.0,
                "service_ms_total": sum(service_ms),
                "latency_ms": self.latency_s * 1000.0,
            }
            self._reset()
        return stats


class StubHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def do_POST(self):
        started = time.perf_counter_ns()
        server: StubServer = self.server
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        prompt = body["messages"][0]["content"]
        digest = hashlib.sha512(f"{server.seed}\x1f{prompt}".encode("utf-8")).digest()
        with server.lock:
            server.requests += 1
            server.inflight += 1
            server.inflight_sum += server.inflight
            server.inflight_max = max(server.inflight_max, server.inflight)
            first_attempt = digest not in server.seen
            server.seen.add(digest)
        throttle = first_attempt and int.from_bytes(digest[-8:], "big") / 2**64 < server.throttle_share
        if throttle:
            status, payload = 429, {"error": {"message": "rate limited", "type": "rate_limit"}}
        else:
            status, payload = 200, {"choices": [{"logprobs": {"content": [{"top_logprobs": top_logprobs(digest)}]}}]}
        data = json.dumps(payload).encode("utf-8")
        # Answer at a fixed delay after the request arrived, whatever the
        # stub's own work took, so that its CPU speed does not show.
        time.sleep(max(0.0, server.latency_s - (time.perf_counter_ns() - started) / 1e9))
        self._send(status, data)
        with server.lock:
            server.inflight -= 1
            server.throttled += throttle
            server.service_ns.append(time.perf_counter_ns() - started)

    def do_GET(self):
        if self.path != "/stats":
            self._send(404, b'{"error": "unknown path"}')
            return
        self._send(200, json.dumps(self.server.stats()).encode("utf-8"))

    def _send(self, status: int, data: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--latency-ms", type=float, required=True)
    parser.add_argument("--throttle-share", type=float, required=True)
    args = parser.parse_args(argv)
    server = StubServer(args.seed, args.latency_ms / 1000.0, args.throttle_share)

    def stop_on_stdin_eof():
        sys.stdin.buffer.read()
        server.shutdown()

    threading.Thread(target=stop_on_stdin_eof, daemon=True).start()
    print(f"PORT {server.server_port}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
