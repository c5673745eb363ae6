"""The benchmark's workloads: fixture sizes, strategies and judge settings.

Every workload is a closed loop from one process: one caller ranks one query
at a time. Fixture files are generated from the seed by ``fixture.py``; the
program under test only ever sees those files.
"""

from __future__ import annotations

from dataclasses import dataclass

# ``--seed`` values map onto this many recorded fixtures (seed % FIXTURE_SEEDS);
# expected.json holds the correctness digests for each of them.
FIXTURE_SEEDS = 16
# Never used while tuning the benchmark; reserved for checking later claims
# (``run.py --holdout``).
HOLDOUT_SEED = 16

# Injected service latency of the stub chat-completions server.
STUB_LATENCY_MS = 2.0
# Share of prompts whose first attempt the stub answers with HTTP 429.
STUB_THROTTLE_SHARE = 0.02
# Backoff before the first retry. The library default of 0.5 s would make
# the ~2% throttled prompts dominate the pass, so the workload sets it.
RETRY_BACKOFF_S = 0.01

# Every fixture has 100 queries, so that ten per-query latencies lie beyond
# this percentile.
QUERY_PERCENTILE = 90


@dataclass(frozen=True)
class Strategy:
    name: str
    m: int = 0  # refrank-multiple ensemble size
    r: int = 0  # refrank-single anchor rank
    k: int = 0  # bubble passes / heap extractions
    c: int = 0  # heap fanout


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    queries: int
    depth: int
    backend: str  # "oracle" or "endpoint"
    strategies: tuple[Strategy, ...] = ()
    noise_sigma: float = 0.0
    bias_amplitude: float = 0.0
    ref_noise_scale: float = 0.0
    depth_r: int = 0  # reference sweep depth (oracle-analyze)
    m_max: int = 0  # ensemble sweep maximum (oracle-analyze)

    @property
    def analyze(self) -> bool:
        return self.depth_r > 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="oracle-rerank",
            why="CPU-bound oracle hot path, five strategies and ~172k judge calls a pass: "
            "where faster oracle and request-type changes (ROADMAP items 5 and 2) must show",
            queries=100,
            depth=100,
            backend="oracle",
            strategies=(
                Strategy("pointwise"),
                Strategy("refrank-single", r=1),
                Strategy("refrank-multiple", m=5),
                Strategy("pairwise-bubblesort", k=10),
                Strategy("setwise-heapsort", c=3, k=10),
            ),
            noise_sigma=0.5,
            bias_amplitude=0.5,
        ),
        Workload(
            name="oracle-analyze",
            why="anchor and ensemble sweeps through one shared scorer: 62,000 calls for "
            "20,000 distinct judgments a pass, where a judgment store (ROADMAP item 3) must show",
            queries=100,
            depth=20,
            backend="oracle",
            noise_sigma=0.05,
            ref_noise_scale=1.2,
            depth_r=10,
            m_max=6,
        ),
        Workload(
            name="endpoint-rerank",
            why="latency-bound HTTP judge against a local stub with 2 ms service "
            "time: prompts, retries and the in-flight pool, oracle untouched",
            queries=100,
            depth=10,
            backend="endpoint",
            strategies=(
                Strategy("refrank-multiple", m=3),
                Strategy("pairwise-bubblesort", k=3),
            ),
        ),
    )
}


def expected_calls(workload: Workload, strategy: Strategy | None = None) -> int | None:
    """Exact ledger total for one pass, or None where it depends on the data."""
    n, queries = workload.depth, workload.queries
    if workload.analyze:
        return queries * n * (workload.depth_r + workload.m_max * (workload.m_max + 1) // 2)
    per_query = {
        "pointwise": n,
        "refrank-single": n,
        "refrank-multiple": strategy.m * n,
        "pairwise-bubblesort": strategy.k * (n - 1) - strategy.k * (strategy.k - 1) // 2,
    }.get(strategy.name)
    return None if per_query is None else queries * per_query
