import http.client
import json
import threading
import time

import pytest

from perfbench.stub import StubServer


@pytest.fixture
def stub():
    server = StubServer(seed=7, latency_s=0.0, throttle_share=0.5)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    assert not thread.is_alive()


def post(connection, prompt):
    body = json.dumps({"messages": [{"role": "user", "content": prompt}]})
    connection.request("POST", "/v1/chat/completions", body, {"Content-Type": "application/json"})
    response = connection.getresponse()
    return response.status, json.loads(response.read())


def test_keep_alive_determinism_and_first_attempt_throttling(stub):
    connection = http.client.HTTPConnection("127.0.0.1", stub.server_port, timeout=10)
    prompts = [f"prompt {i}" for i in range(40)]
    first = [post(connection, p) for p in prompts]
    second = [post(connection, p) for p in prompts]
    sockets = {connection.sock.getsockname()}
    connection.close()

    throttled = [p for p, (status, _) in zip(prompts, first) if status == 429]
    assert 0 < len(throttled) < len(prompts)
    assert all(status == 200 for status, _ in second)
    for (status, payload), (_, again) in zip(first, second):
        if status == 200:
            assert payload == again
    top = second[0][1]["choices"][0]["logprobs"]["content"][0]["top_logprobs"]
    assert len(top) == 20 and len({t["token"] for t in top}) == 20
    assert len(sockets) == 1  # all 80 requests on one keep-alive connection

    stats = json.loads(_get(stub.server_port, "/stats"))
    assert stats["requests"] == 80
    assert stats["distinct_prompts"] == 40
    assert stats["throttled"] == len(throttled)
    assert stats["inflight_max"] == 1
    assert json.loads(_get(stub.server_port, "/stats"))["requests"] == 0


def test_no_delayed_ack_stalls(stub):
    # Headers and body go out in two writes; with Nagle on, each response
    # would wait for the client's delayed ACK (~40 ms).
    connection = http.client.HTTPConnection("127.0.0.1", stub.server_port, timeout=10)
    started = time.perf_counter()
    for i in range(100):
        post(connection, f"q{i}")
    elapsed = time.perf_counter() - started
    connection.close()
    assert elapsed < 2.0


def _get(port, path):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        connection.request("GET", path)
        return connection.getresponse().read()
    finally:
        connection.close()
