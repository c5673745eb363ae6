import math

import numpy as np
import pytest

from refrank.datamodel import Qrels, Ranking, ValidationError
from refrank import eval as eval_module
from refrank.eval import (
    MetricConfig,
    check_qrels,
    evaluate_rankings,
    evaluate_run_map,
    ndcg_at_k,
    ndcg_for_doc_ids,
)


def ranking_of(doc_ids, query_id="q1"):
    n = len(doc_ids)
    return Ranking(query_id, doc_ids, [float(n - i) for i in range(n)])


def brute_force_ndcg(doc_ids, judged, k, gain):
    """Independent check: literal DCG/IDCG definition, no shared code."""

    def one_gain(rel):
        return float(rel) if gain == "linear" else 2.0**rel - 1.0

    def dcg(grades):
        return sum(
            one_gain(g) / math.log2(pos + 2) for pos, g in enumerate(grades[:k])
        )

    actual = dcg([judged.get(d, 0) for d in doc_ids])
    ideal = dcg(sorted(judged.values(), reverse=True))
    return actual / ideal if ideal > 0 else 0.0


class TestNdcg:
    def test_single_relevant_at_top_is_one(self):
        qrels = Qrels({"q1": {"d1": 1}})
        assert ndcg_at_k(ranking_of(["d1"]), qrels) == 1.0

    def test_frozen_golden_exponential(self):
        # independent-oracle value frozen before implementation:
        # qrels {d1:3, d2:1}, ranking [d2, d1], k=10, exponential gain
        qrels = Qrels({"q1": {"d1": 3, "d2": 1}})
        value = ndcg_at_k(ranking_of(["d2", "d1"]), qrels, MetricConfig(k=10, gain="exp"))
        assert value == pytest.approx(0.7098097413968655, abs=1e-12)

    def test_frozen_golden_linear(self):
        qrels = Qrels({"q1": {"d1": 3, "d2": 1}})
        value = ndcg_at_k(
            ranking_of(["d2", "d1"]), qrels, MetricConfig(k=10, gain="linear")
        )
        assert value == pytest.approx(0.7967075809905066, abs=1e-12)

    def test_no_judged_docs_scores_zero(self):
        qrels = Qrels({})
        assert ndcg_at_k(ranking_of(["d1", "d2"]), qrels) == 0.0

    def test_all_zero_grades_scores_zero(self):
        qrels = Qrels({"q1": {"d1": 0, "d2": 0}})
        assert ndcg_at_k(ranking_of(["d1", "d2"]), qrels) == 0.0

    def test_grades_judged_out_of_order_and_an_empty_query(self):
        qrels = Qrels({"q1": {"d2": 1, "d1": 3, "d3": 0}, "empty": {}})
        assert ndcg_for_doc_ids("q1", ["d2", "d1", "d3"], qrels) == 0.7098097413968655
        assert ndcg_for_doc_ids("empty", ["d1", "d2"], qrels) == 0.0

    def test_idcg_counts_unretrieved_judged_docs(self):
        # judged doc "missing" never retrieved: ideal includes it, so a
        # perfect-on-retrieved ranking still scores below 1
        qrels = Qrels({"q1": {"d1": 3, "missing": 3}})
        value = ndcg_at_k(ranking_of(["d1", "d2"]), qrels)
        assert 0.0 < value < 1.0

    def test_ideal_ordering_scores_exactly_one(self):
        qrels = Qrels({"q1": {"a": 3, "b": 2, "c": 1}})
        assert ndcg_at_k(ranking_of(["a", "b", "c"]), qrels) == 1.0

    def test_bounds_random_instances(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            doc_ids = [f"d{i}" for i in range(n)]
            judged = {
                f"d{i}": int(rng.integers(0, 4))
                for i in range(n)
                if rng.random() < 0.7
            }
            qrels = Qrels({"q1": {k: v for k, v in judged.items() if v > 0}})
            order = list(rng.permutation(doc_ids))
            value = ndcg_for_doc_ids("q1", order, qrels)
            assert 0.0 <= value <= 1.0

    def test_matches_brute_force_both_gains(self):
        rng = np.random.default_rng(9)
        for _ in range(150):
            n = int(rng.integers(1, 9))
            doc_ids = [f"d{i}" for i in range(n)]
            judged = {}
            for i in range(n + 2):  # may judge docs that were never retrieved
                if rng.random() < 0.6:
                    judged[f"d{i}"] = int(rng.integers(0, 4))
            judged = {k: v for k, v in judged.items() if v > 0}
            qrels = Qrels({"q1": judged})
            order = list(rng.permutation(doc_ids))
            k = int(rng.integers(1, 12))
            for gain in ("exp", "linear"):
                ours = ndcg_for_doc_ids("q1", order, qrels, MetricConfig(k=k, gain=gain))
                ref = brute_force_ndcg(order, judged, k, gain)
                assert ours == pytest.approx(ref, abs=1e-10)

    def test_consistent_relabeling_invariance(self):
        qrels = Qrels({"q1": {"a": 3, "b": 1, "c": 2}})
        relabeled = Qrels({"q1": {"x": 3, "y": 1, "z": 2}})
        original = ndcg_at_k(ranking_of(["b", "a", "c"]), qrels)
        renamed = ndcg_at_k(ranking_of(["y", "x", "z"]), relabeled)
        assert original == renamed

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            MetricConfig(k=0)
        with pytest.raises(ValidationError):
            MetricConfig(gain="sqrt")


class TestIdealDcgOnce:
    @pytest.mark.parametrize("gain", ["exp", "linear"])
    @pytest.mark.parametrize("k", [1, 5, 10, 50])
    def test_bit_identical_to_a_direct_dcg(self, k, gain):
        rng = np.random.default_rng(k)
        judged = {
            f"q{q}": {f"d{d}": int(rng.integers(0, 4)) for d in range(int(rng.integers(1, 40)))}
            for q in range(8)
        }
        qrels = Qrels(judged)
        config = MetricConfig(k=k, gain=gain)
        for query_id, grades in judged.items():
            doc_ids = [f"d{d}" for d in rng.permutation(60)]
            ideal = eval_module._dcg(sorted(grades.values(), reverse=True), k, gain)
            actual = eval_module._dcg([grades.get(d, 0) for d in doc_ids], k, gain)
            expected = actual / ideal if ideal > 0 else 0.0
            assert ndcg_for_doc_ids(query_id, doc_ids, qrels, config).hex() == expected.hex()

    def test_n_calls_on_one_query_compute_the_ideal_once(self):
        qrels = Qrels({"q1": {"d1": 3, "d2": 1, "d3": 2}})
        eval_module._ideal_dcg.cache_clear()
        for _ in range(20):
            ndcg_for_doc_ids("q1", ["d2", "d1", "d3"], qrels)
        info = eval_module._ideal_dcg.cache_info()
        assert (info.misses, info.hits) == (1, 19)


class TestGradesPastAFloat:
    """Qrels whose ideal DCG@k is not a finite float are refused, naming the query."""

    # 2**1024 - 1 is past the largest float; three gains of 2**1023 - 1 add up past it
    CASES = [
        pytest.param({"d1": 1024, "d2": 1}, "exp", "q2", id="1024-exp"),
        pytest.param({"d1": 1023, "d2": 1023, "d3": 1023}, "exp", "q2", id="1023-everywhere-exp"),
        pytest.param({"d1": 1023, "d2": 1023, "d3": 1023}, "linear", None, id="1023-everywhere-linear"),
        pytest.param({"d1": 1024, "d2": 1}, "linear", None, id="1024-linear"),
    ]

    @pytest.mark.parametrize("grades,gain,refused", CASES)
    def test_check_qrels(self, grades, gain, refused):
        qrels = Qrels({"q1": {"d1": 3}, "q2": grades})
        config = MetricConfig(gain=gain)
        if refused is None:
            check_qrels(qrels, config)
            assert math.isfinite(ndcg_for_doc_ids("q2", ["d3", "d2", "d1"], qrels, config))
            return
        with pytest.raises(ValidationError, match=f"^query '{refused}': .* not a finite float under {gain} gain$"):
            check_qrels(qrels, config)
        with pytest.raises(ValidationError, match=f"^query '{refused}'"):
            ndcg_for_doc_ids("q2", ["d3", "d2", "d1"], qrels, config)
        # a query whose own grades are fine still scores
        assert ndcg_for_doc_ids("q1", ["d1"], qrels, config) == 1.0

    def test_the_cutoff_decides(self):
        # two gains of 2**1023 - 1 fit a float; the third, inside k=3, does not
        qrels = Qrels({"q1": {"d1": 1023, "d2": 1023, "d3": 1023}})
        check_qrels(qrels, MetricConfig(k=2))
        with pytest.raises(ValidationError):
            check_qrels(qrels, MetricConfig(k=3))


class TestMeanMetric:
    """The report's mean is the arithmetic mean over judged queries."""

    def test_mean(self):
        qrels = Qrels({"q1": {"a": 1}, "q2": {"b": 1}})
        report = evaluate_run_map({"q1": ["a"], "q2": ["c"]}, qrels)
        assert report.per_query == {"q1": 1.0, "q2": 0.0}
        assert report.mean == 0.5

    def test_single(self):
        qrels = Qrels({"q1": {"a": 1, "b": 2}})
        report = evaluate_run_map({"q1": ["a", "b"]}, qrels)
        assert report.mean == report.per_query["q1"] == ndcg_for_doc_ids("q1", ["a", "b"], qrels)

    def test_mean_folds_left_to_right_on_every_python(self):
        # ten 0.1s fold to 0.9999999999999999; sum() gives 1.0 from Python 3.12 on
        qrels = Qrels({f"q{i}": {"a": 1} for i in range(10)})
        rows = [(f"q{i}", None) for i in range(10)]
        report = eval_module._evaluate(rows, lambda query_id, ranked: 0.1, MetricConfig(), qrels)
        assert report.mean == 0.9999999999999999 / 10


class TestEvaluateRankings:
    def test_unjudged_query_excluded_and_counted(self):
        qrels = Qrels({"q1": {"d1": 1}})
        rankings = [ranking_of(["d1"], "q1"), ranking_of(["d9"], "q2")]
        report = evaluate_rankings(rankings, qrels)
        assert report.per_query == {"q1": 1.0}
        assert report.mean == 1.0
        assert report.judged_queries == 1
        assert report.unjudged_queries == 1

    def test_no_judged_queries_means_zero(self):
        report = evaluate_rankings([ranking_of(["d1"], "q9")], Qrels({}))
        assert report.mean == 0.0
        assert report.unjudged_queries == 1

    def test_run_map_matches_ranking_path(self):
        qrels = Qrels({"q1": {"d1": 2, "d2": 1}})
        run = {"q1": ["d2", "d1"]}
        from_map = evaluate_run_map(run, qrels)
        from_ranking = evaluate_rankings([ranking_of(["d2", "d1"])], qrels)
        assert from_map.per_query == from_ranking.per_query

