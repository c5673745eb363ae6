import copy
import sys
from pathlib import Path

import pytest

from perfbench import gate
from perfbench.fixture import fixture_paths, write_fixture
from perfbench.speed import SpeedMeter
from perfbench.workload import _scorer_factory, analyze_pass, rerank_pass
from perfbench.workloads import Strategy, Workload

SRC = str(Path(__file__).resolve().parent.parent / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

TINY_RERANK = Workload(
    name="tiny-rerank",
    why="test",
    queries=3,
    depth=12,
    backend="oracle",
    strategies=(
        Strategy("pointwise"),
        Strategy("refrank-single", r=1),
        Strategy("refrank-multiple", m=2),
        Strategy("pairwise-bubblesort", k=3),
        Strategy("setwise-heapsort", c=3, k=3),
    ),
    noise_sigma=0.5,
    bias_amplitude=0.5,
)
TINY_ANALYZE = Workload(
    name="tiny-analyze", why="test", queries=2, depth=8, backend="oracle",
    noise_sigma=0.05, ref_noise_scale=1.2, depth_r=4, m_max=3,
)


def run_passes(workload, tmp_path, count=2):
    from refrank.io import assemble_experiment, parse_qrels

    paths = write_fixture(workload, 5, tmp_path / "fixture")
    lists = assemble_experiment(paths["run"], paths["corpus"], paths["queries"], depth=workload.depth)
    qrels = parse_qrels(paths["qrels"])
    make_scorer = _scorer_factory(workload, 5, qrels, None)
    meter = SpeedMeter(scale=False)
    if workload.analyze:
        return [analyze_pass(workload, lists, qrels, make_scorer, meter) for _ in range(count)]
    return [rerank_pass(workload, lists, qrels, make_scorer, tmp_path, meter) for _ in range(count)]


@pytest.fixture(scope="module")
def rerank_passes(tmp_path_factory):
    return run_passes(TINY_RERANK, tmp_path_factory.mktemp("rerank"))


def test_fixture_is_seeded(tmp_path):
    first = write_fixture(TINY_RERANK, 5, tmp_path / "a")
    second = write_fixture(TINY_RERANK, 5, tmp_path / "b")
    other = write_fixture(TINY_RERANK, 6, tmp_path / "c")
    for key in fixture_paths(tmp_path):
        assert first[key].read_bytes() == second[key].read_bytes()
    assert first["run"].read_bytes() != other["run"].read_bytes()


def test_untampered_passes_are_correct(rerank_passes, tmp_path):
    expected = gate.observed_record(TINY_RERANK, rerank_passes)
    assert gate.check(TINY_RERANK, rerank_passes, expected, 2) == []
    analyze = run_passes(TINY_ANALYZE, tmp_path)
    assert analyze[0]["calls"]["sweeps"]["triplet"] == 2 * 8 * (4 + 6)
    assert gate.check(TINY_ANALYZE, analyze, gate.observed_record(TINY_ANALYZE, analyze), 2) == []


def test_tampered_digest_fails(rerank_passes):
    expected = gate.observed_record(TINY_RERANK, rerank_passes)
    expected["digests"]["refrank-multiple"] = "0" * 64
    problems = gate.check(TINY_RERANK, rerank_passes, expected, 2)
    assert len(problems) == 2 and all("refrank-multiple output sha256" in p for p in problems)


def test_tampered_recorded_count_fails(rerank_passes):
    expected = gate.observed_record(TINY_RERANK, rerank_passes)
    expected["calls"]["setwise-heapsort"] += 1
    assert any("setwise-heapsort ledger counts" in p for p in gate.check(TINY_RERANK, rerank_passes, expected, 2))
    expected = gate.observed_record(TINY_RERANK, rerank_passes)
    expected["calls"]["pointwise"] += 1
    assert any("!= formula" in p for p in gate.check(TINY_RERANK, rerank_passes, expected, 2))


def test_count_off_formula_fails(rerank_passes):
    expected = gate.observed_record(TINY_RERANK, rerank_passes)
    passes = copy.deepcopy(rerank_passes)
    passes[1]["calls"]["pairwise-bubblesort"]["duel"] -= 1
    assert gate.check(TINY_RERANK, passes, expected, 2) == [
        "pass 2: pairwise-bubblesort ledger counts {'duel': 89} != {'duel': 90}"
    ]


def test_tampered_ndcg_fails(rerank_passes):
    expected = gate.observed_record(TINY_RERANK, rerank_passes)
    expected["ndcg10_mean"] += 1e-15
    assert any("ndcg10_mean" in p for p in gate.check(TINY_RERANK, rerank_passes, expected, 2))


def test_endpoint_stub_checks():
    endpoint = Workload(name="tiny-endpoint", why="test", queries=1, depth=4, backend="endpoint",
                        strategies=(Strategy("refrank-multiple", m=1),))
    good = {
        "attempted": 1, "failed": 0, "digests": {"refrank-multiple": "d"},
        "calls": {"refrank-multiple": {"triplet": 4}}, "ndcg10_mean": 0.5,
        "stub": {"requests": 5, "throttled": 1, "inflight_max": 2,
                 "service_ms_median": 2.2, "latency_ms": 2.0},
    }
    expected = gate.observed_record(endpoint, [good])
    assert gate.check(endpoint, [good], expected, 2) == []
    bad = copy.deepcopy(good)
    bad["stub"].update(requests=6, inflight_max=3, service_ms_median=3.5)
    problems = gate.check(endpoint, [bad], expected, 2)
    assert len(problems) == 3
