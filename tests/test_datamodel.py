import math
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from refrank.datamodel import (
    KINDS,
    CallLedger,
    CandidateList,
    DocCandidate,
    Qrels,
    Query,
    Ranking,
    ValidationError,
    build_ranking,
)


def doc(doc_id, text="some passage text"):
    return DocCandidate(doc_id, text)


class TestQuery:
    def test_basic(self):
        q = Query("q1", "what is x")
        assert q.id == "q1" and q.text == "what is x"

    @pytest.mark.parametrize("qid,text", [("", "ok"), ("q1", ""), ("q1", "   ")])
    def test_invalid(self, qid, text):
        with pytest.raises(ValidationError):
            Query(qid, text)


class TestCandidateList:
    def test_duplicate_doc_id(self):
        docs = [doc("d7"), doc("d7")]
        with pytest.raises(ValidationError, match=r"^duplicate doc_id 'd7' \(query q1\)$"):
            CandidateList(Query("q1", "t"), docs)

    def test_empty(self):
        with pytest.raises(ValidationError):
            CandidateList(Query("q", "t"), [])


class TestBuildRanking:
    def test_sorted_by_score_desc(self):
        scored = [(doc("a"), 0.2), (doc("b"), 0.9), (doc("c"), 0.5)]
        ranking = build_ranking("q", scored)
        assert ranking.doc_ids == ("b", "c", "a")

    def test_ties_keep_the_given_order(self):
        scored = [(doc("late"), 0.5), (doc("top"), 0.9), (doc("early"), 0.5)]
        assert build_ranking("q", scored).doc_ids == ("top", "late", "early")
        assert build_ranking("q", scored[::-1]).doc_ids == ("top", "early", "late")
        # 0.0 == -0.0, so the zeros tie: each keeps its sign and its place
        scores = {"a": 0.0, "b": -0.0, "c": 1.0, "d": -0.0, "e": 0.0, "f": -1.0, "g": 1.0}
        ranking = build_ranking("q", [(doc(doc_id), score) for doc_id, score in scores.items()])
        assert ranking.doc_ids == ("c", "g", "a", "b", "d", "e", "f")
        assert [math.copysign(1.0, score) for score in ranking.scores] == [1, 1, 1, -1, -1, 1, -1]

    def test_nonfinite_score_rejected(self):
        with pytest.raises(ValidationError):
            build_ranking("q", [(doc("a"), float("nan"))])

    def test_permutation_property(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 30))
            docs = [doc(f"d{i}") for i in range(n)]
            scores = rng.normal(size=n)
            ranking = build_ranking("q", list(zip(docs, scores)))
            assert sorted(ranking.doc_ids) == sorted(d.doc_id for d in docs)

    def test_deterministic_total_order(self):
        rng = np.random.default_rng(1)
        docs = [doc(f"d{i}") for i in range(20)]
        scores = list(rng.choice([0.1, 0.5, 0.9], size=20))
        ranking = build_ranking("q", list(zip(docs, scores)))
        order = sorted(range(20), key=lambda i: (-scores[i], i))
        assert ranking.doc_ids == tuple(f"d{i}" for i in order)


class TestRankingValidation:
    def test_scores_must_not_increase(self):
        with pytest.raises(ValidationError, match="between ranks 1 and 2"):
            Ranking("q", ("a", "b"), (0.1, 0.5))

    def test_duplicate_doc(self):
        with pytest.raises(ValidationError, match=r"^duplicate doc_id 'a' \(ranking q1\)$"):
            build_ranking("q1", [(doc("a"), 1.0), (doc("a"), 0.5)])

    @pytest.mark.parametrize("doc_ids, scores, message", [
        (("a", "b", "a", "c"), (3.0, 2.0, 1.0, math.nan),
         "duplicate doc_id 'a' (ranking q)"),
        (("a", "b", "c", "b"), (3.0, math.inf, 1.0, 0.5),
         "ranking for 'q': non-finite score for 'b'"),
        (("a", "b", "c", "d"), (3.0, 1.0, 2.0, 4.0),
         "ranking for 'q': scores increase between ranks 2 and 3"),
        (("a", "b", "c", "b"), (1.0, 2.0, 3.0, 0.0),
         "duplicate doc_id 'b' (ranking q)"),
    ], ids=["duplicate-then-nonfinite", "nonfinite-then-duplicate", "increasing",
            "duplicate-beats-increasing"])
    def test_the_first_offender_is_named(self, doc_ids, scores, message):
        with pytest.raises(ValidationError) as exc:
            Ranking("q", doc_ids, scores)
        assert type(exc.value) is ValidationError
        assert str(exc.value) == message

    @pytest.mark.parametrize("scores", [(1.0,), (1.0, 0.5, 0.2)])
    def test_one_score_per_doc(self, scores):
        with pytest.raises(ValidationError, match="2 doc ids but"):
            Ranking("q", ("a", "b"), scores)


class TestQrels:
    def test_grade_lookup_and_default(self):
        qrels = Qrels({"q1": {"d3": 2}})
        assert qrels.grade("q1", "d3") == 2
        assert qrels.grade("q1", "d9") == 0
        assert qrels.grade("q2", "d3") == 0

    def test_negative_grade_rejected(self):
        with pytest.raises(ValidationError):
            Qrels({"q1": {"d1": -1}})

    def test_non_integer_grade_rejected(self):
        for grade in (1.5, "two", None):
            with pytest.raises(ValidationError, match="is not an integer"):
                Qrels({"q1": {"d1": grade}})

    def test_max_grade(self):
        qrels = Qrels({"q1": {"a": 1, "b": 3}, "zeros": {"a": 0, "b": 0}, "empty": {}})
        assert qrels.max_grade("q1") == 3
        assert qrels.max_grade("missing") == 0
        assert qrels.max_grade("zeros") == 0
        assert qrels.max_grade("empty") == 0


class TestCallLedger:
    def test_record_and_counts(self):
        ledger = CallLedger()
        ledger.record("pointwise", prompt_chars=10)
        ledger.record("pointwise", prompt_chars=5)
        ledger.record("duel")
        assert ledger.count("pointwise") == 2
        assert ledger.counts == {"pointwise": 2, "triplet": 0, "duel": 1, "setwise": 0}
        assert ledger.total_calls == 3
        assert ledger.prompt_chars == 15

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            CallLedger().record("listwise")

    def test_reads_take_the_lock(self):
        ledger = CallLedger()
        read = []
        with ledger._lock:
            reader = threading.Thread(
                target=lambda: read.append((ledger.count("duel"), ledger.prompt_chars))
            )
            reader.start()
            reader.join(timeout=0.1)
            assert reader.is_alive()  # blocked on the lock a writer holds
        reader.join(timeout=5)
        assert not reader.is_alive()
        assert read == [(0, 0)]

    def test_concurrent_increments(self):
        ledger = CallLedger()

        def worker():
            for _ in range(1000):
                ledger.record("triplet", prompt_chars=1)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert ledger.count("triplet") == 8000
        assert ledger.prompt_chars == 8000

    def test_tallies_of_exited_threads_still_count(self):
        ledger = CallLedger()

        def worker(index):
            for _ in range(100):
                ledger.record(list(KINDS)[index % 4], prompt_chars=index)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        with ThreadPoolExecutor(max_workers=3) as pool:
            list(pool.map(worker, range(8, 20)))
        # every thread that recorded has exited, and the pool has shut down
        assert ledger.counts == {"pointwise": 500, "triplet": 500, "duel": 500, "setwise": 500}
        assert ledger.total_calls == 2000
        assert ledger.prompt_chars == 100 * sum(range(20))
