import threading

import numpy as np
import pytest

from refrank.datamodel import (
    CallLedger,
    DocCandidate,
    DuplicateDocError,
    NonContiguousRanksError,
    Qrels,
    Query,
    RankEntry,
    Ranking,
    ValidationError,
    build_ranking,
    make_candidate_list,
    tiebreak_key,
)


def doc(doc_id, rank, text="some passage text"):
    return DocCandidate(doc_id, text, rank)


class TestQuery:
    def test_basic(self):
        q = Query("q1", "what is x")
        assert q.id == "q1" and q.text == "what is x"

    @pytest.mark.parametrize("qid,text", [("", "ok"), ("q1", ""), ("q1", "   ")])
    def test_invalid(self, qid, text):
        with pytest.raises(ValidationError):
            Query(qid, text)


class TestDocCandidate:
    def test_rank_must_be_positive(self):
        with pytest.raises(ValidationError):
            doc("d1", 0)

    def test_tiebreak_key_is_first_stage_rank(self):
        assert tiebreak_key(doc("d1", 5)) == 5


class TestMakeCandidateList:
    def test_sorts_by_rank(self):
        docs = [doc("a", 2), doc("b", 1), doc("c", 3)]
        cl = make_candidate_list(Query("q", "t"), docs)
        assert [d.first_stage_rank for d in cl.docs] == [1, 2, 3]
        assert cl.doc_ids == ("b", "a", "c")

    def test_duplicate_doc_id(self):
        docs = [doc("d7", 1), doc("d7", 2)]
        with pytest.raises(DuplicateDocError) as exc:
            make_candidate_list(Query("q", "t"), docs)
        assert exc.value.doc_id == "d7"

    def test_non_contiguous_ranks(self):
        docs = [doc("a", 1), doc("b", 2), doc("c", 4)]
        with pytest.raises(NonContiguousRanksError) as exc:
            make_candidate_list(Query("q", "t"), docs)
        assert exc.value.missing_rank == 3

    def test_duplicate_ranks_are_non_contiguous(self):
        docs = [doc("a", 1), doc("b", 1), doc("c", 2)]
        with pytest.raises(NonContiguousRanksError):
            make_candidate_list(Query("q", "t"), docs)

    def test_empty(self):
        with pytest.raises(ValidationError):
            make_candidate_list(Query("q", "t"), [])


class TestBuildRanking:
    def test_sorted_by_score_desc(self):
        scored = [(doc("a", 1), 0.2), (doc("b", 2), 0.9), (doc("c", 3), 0.5)]
        ranking = build_ranking("q", scored, "test")
        assert ranking.doc_ids == ("b", "c", "a")
        assert [e.rank for e in ranking.entries] == [1, 2, 3]

    def test_ties_broken_by_first_stage_rank(self):
        scored = [(doc("late", 9), 0.5), (doc("early", 3), 0.5)]
        ranking = build_ranking("q", scored, "test")
        assert ranking.doc_ids == ("early", "late")

    def test_nonfinite_score_rejected(self):
        with pytest.raises(ValidationError):
            build_ranking("q", [(doc("a", 1), float("nan"))], "test")

    def test_permutation_property(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 30))
            docs = [doc(f"d{i}", i + 1) for i in range(n)]
            scores = rng.normal(size=n)
            ranking = build_ranking("q", list(zip(docs, scores)), "test")
            assert sorted(ranking.doc_ids) == sorted(d.doc_id for d in docs)

    def test_deterministic_total_order(self):
        rng = np.random.default_rng(1)
        docs = [doc(f"d{i}", i + 1) for i in range(20)]
        scores = list(rng.choice([0.1, 0.5, 0.9], size=20))
        first = build_ranking("q", list(zip(docs, scores)), "t")
        second = build_ranking("q", list(zip(reversed(docs), reversed(scores))), "t")
        assert first.doc_ids == second.doc_ids


class TestRankingValidation:
    def test_ranks_must_be_contiguous_from_one(self):
        entries = (RankEntry("a", 1.0, 1), RankEntry("b", 0.5, 3))
        with pytest.raises(ValidationError):
            Ranking("q", entries, "t")

    def test_scores_must_not_increase(self):
        entries = (RankEntry("a", 0.1, 1), RankEntry("b", 0.5, 2))
        with pytest.raises(ValidationError):
            Ranking("q", entries, "t")

    def test_duplicate_doc(self):
        entries = (RankEntry("a", 1.0, 1), RankEntry("a", 0.5, 2))
        with pytest.raises(DuplicateDocError):
            Ranking("q", entries, "t")


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
        with pytest.raises(ValidationError):
            Qrels({"q1": {"d1": 1.5}})

    def test_max_grade(self):
        qrels = Qrels({"q1": {"a": 1, "b": 3}})
        assert qrels.max_grade("q1") == 3
        assert qrels.max_grade("missing") == 0


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
