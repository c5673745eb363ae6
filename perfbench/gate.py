"""Correctness gate: every pass must reproduce the recorded outputs exactly.

For each pass it checks, against ``expected.json`` for the fixture seed:

- the SHA-256 of each run file (oracle-rerank, endpoint-rerank) or of the
  sweep values (oracle-analyze);
- the exact ledger counts: n for pointwise and refrank-single, m*n for
  refrank-multiple, k(n-1) - k(k-1)/2 for pairwise-bubblesort and
  n*(depth_r + m_max(m_max+1)/2) per query for the sweeps, all of one request
  kind; setwise-heapsort's data-dependent count must equal the recorded one;
- ``ndcg10_mean`` for exact equality;
- no query raised.

On the endpoint workload it also checks that the stub saw exactly one HTTP
request per judge call plus one per 429 it sent, that no more requests were
in flight than the in-flight limit, and that its median service time stayed
close to the injected latency, so that the benchmark timed the program and
not the stub.
"""

from __future__ import annotations

from perfbench.workloads import Workload, expected_calls

KIND_OF = {
    "pointwise": "pointwise",
    "refrank-single": "triplet",
    "refrank-multiple": "triplet",
    "pairwise-bubblesort": "duel",
    "setwise-heapsort": "setwise",
    "sweeps": "triplet",
}
# The stub's median service time may exceed the injected latency by this
# share before the run counts as timing the stub.
SERVICE_TOLERANCE = 0.5


def outputs_of(workload: Workload) -> list[str]:
    """Names of the outputs one pass produces: strategies, or the sweeps."""
    return ["sweeps"] if workload.analyze else [s.name for s in workload.strategies]


def _formula(workload: Workload, output: str) -> int | None:
    if workload.analyze:
        return expected_calls(workload)
    strategy = next(s for s in workload.strategies if s.name == output)
    return expected_calls(workload, strategy)


def observed_record(workload: Workload, passes: list[dict]) -> dict:
    """The expected.json entry a set of passes would record (from the first pass)."""
    first = passes[0]
    return {
        "digests": dict(first["digests"]),
        "calls": {name: sum(first["calls"][name].values()) for name in outputs_of(workload)},
        "ndcg10_mean": first["ndcg10_mean"],
    }


def check(workload: Workload, passes: list[dict], expected: dict, in_flight_limit: int) -> list[str]:
    """Return one message per mismatch; an empty list means the run is correct."""
    problems = []
    for index, result in enumerate(passes, start=1):
        where = f"pass {index}"
        if result["failed"]:
            problems.append(
                f"{where}: {result['failed']} of {result['attempted']} queries raised, "
                f"first: {result['errors'][0]}"
            )
        for output in outputs_of(workload):
            digest = result["digests"].get(output)
            if digest != expected["digests"][output]:
                problems.append(
                    f"{where}: {output} output sha256 {digest} != recorded {expected['digests'][output]}"
                )
            counts = {kind: n for kind, n in result["calls"][output].items() if n}
            want = _formula(workload, output)
            if want is None:
                want = expected["calls"][output]
            elif want != expected["calls"][output]:
                problems.append(f"{output}: recorded call count {expected['calls'][output]} != formula {want}")
            if counts != {KIND_OF[output]: want}:
                problems.append(f"{where}: {output} ledger counts {counts} != {{{KIND_OF[output]!r}: {want}}}")
        if result["ndcg10_mean"] != expected["ndcg10_mean"]:
            problems.append(
                f"{where}: ndcg10_mean {result['ndcg10_mean']!r} != recorded {expected['ndcg10_mean']!r}"
            )
        if workload.backend == "endpoint":
            stub = result["stub"]
            calls = sum(sum(result["calls"][o].values()) for o in outputs_of(workload))
            if stub["requests"] != calls + stub["throttled"]:
                problems.append(
                    f"{where}: stub saw {stub['requests']} requests for {calls} calls and "
                    f"{stub['throttled']} 429s"
                )
            if stub["inflight_max"] > in_flight_limit:
                problems.append(f"{where}: {stub['inflight_max']} requests in flight, limit {in_flight_limit}")
            latency = stub["latency_ms"]
            if not latency <= stub["service_ms_median"] <= latency * (1 + SERVICE_TOLERANCE):
                problems.append(
                    f"{where}: stub median service time {stub['service_ms_median']:.3f} ms is not "
                    f"within {SERVICE_TOLERANCE:.0%} above the injected {latency} ms"
                )
    return problems
