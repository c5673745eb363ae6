import collections

import numpy as np
import pytest

from refrank.datamodel import (
    CandidateList,
    DocCandidate,
    Query,
    ValidationError,
)
from refrank.io import assemble_experiment
from refrank._seeded import std_normal
from refrank import strategies
from refrank.scorer import JudgeRequest, OracleConfig, OracleScorer, Scorer
from refrank.strategies import (
    EnsembleConfig,
    FixedIndex,
    RandomTopK,
    _bubble_schedule,
    rank_pairwise_allpairs,
    rank_pairwise_bubblesort,
    rank_pointwise,
    rank_refrank_multiple,
    rank_refrank_single,
    rank_setwise_heapsort,
    refrank_score,
    weighted_ranking,
)

from synth import make_synth, write_experiment_files


def fixture_list(n_docs=12, seed=3, rank_correlation=0.0):
    data = make_synth(1, n_docs, seed=seed, rank_correlation=rank_correlation)
    return data.lists[0], data.latents


def oracle_for(latents, seed=5, **kwargs):
    return OracleScorer(OracleConfig(seed=seed, **kwargs), latents=latents)


def first_stage_ids(cl: CandidateList) -> tuple[str, ...]:
    return tuple(doc.doc_id for doc in cl.docs)


def ideal_order(cl: CandidateList, latents) -> tuple[str, ...]:
    qid = cl.query.id
    return tuple(
        doc.doc_id
        for doc in sorted(cl.docs, key=lambda d: -latents[(qid, d.doc_id)])
    )


ALL_STRATEGIES = [
    ("pointwise", lambda cl, sc, n: rank_pointwise(cl, sc)),
    ("refrank-single", lambda cl, sc, n: rank_refrank_single(cl, sc)),
    (
        "refrank-multiple",
        lambda cl, sc, n: rank_refrank_multiple(cl, sc, EnsembleConfig(3)),
    ),
    ("pairwise-allpairs", lambda cl, sc, n: rank_pairwise_allpairs(cl, sc)),
    ("pairwise-bubblesort", lambda cl, sc, n: rank_pairwise_bubblesort(cl, sc, k=n)),
    ("setwise-heapsort", lambda cl, sc, n: rank_setwise_heapsort(cl, sc, c=3, k=n)),
]


class TestCallCounts:
    def test_pointwise_n_calls(self):
        cl, latents = fixture_list(20)
        scorer = oracle_for(latents)
        rank_pointwise(cl, scorer)
        assert scorer.ledger.counts == {"pointwise": 20, "triplet": 0, "duel": 0, "setwise": 0}

    def test_refrank_single_n_calls(self):
        cl, latents = fixture_list(20)
        scorer = oracle_for(latents)
        rank_refrank_single(cl, scorer)
        assert scorer.ledger.counts["triplet"] == 20

    def test_refrank_multiple_mn_calls(self):
        cl, latents = fixture_list(20)
        scorer = oracle_for(latents)
        rank_refrank_multiple(cl, scorer, EnsembleConfig(4))
        assert scorer.ledger.counts["triplet"] == 80

    def test_allpairs_n_times_n_minus_1(self):
        cl, latents = fixture_list(10)
        scorer = oracle_for(latents)
        rank_pairwise_allpairs(cl, scorer)
        assert scorer.ledger.counts["duel"] == 90

    @pytest.mark.parametrize("n,k", [(10, 3), (10, 10), (15, 1)])
    def test_bubblesort_closed_form(self, n, k):
        cl, latents = fixture_list(n)
        scorer = oracle_for(latents, noise_sigma=0.4)
        rank_pairwise_bubblesort(cl, scorer, k=k)
        assert scorer.ledger.counts["duel"] == k * (n - 1) - k * (k - 1) // 2

    def test_heapsort_count_is_exposed_and_positive(self):
        cl, latents = fixture_list(20)
        scorer = oracle_for(latents)
        rank_setwise_heapsort(cl, scorer, c=3, k=5)
        assert scorer.ledger.counts["setwise"] > 0

    def test_heapsort_single_doc_zero_calls(self):
        cl, latents = fixture_list(1)
        scorer = oracle_for(latents)
        ranking = rank_setwise_heapsort(cl, scorer, c=3, k=1)
        assert scorer.ledger.counts["setwise"] == 0
        assert ranking.doc_ids == first_stage_ids(cl)

    def test_allpairs_single_doc_zero_calls(self):
        cl, latents = fixture_list(1)
        scorer = oracle_for(latents)
        ranking = rank_pairwise_allpairs(cl, scorer)
        assert scorer.ledger.total_calls == 0
        assert ranking.doc_ids == first_stage_ids(cl)


class NoisyDuelJudge(Scorer):
    """Seeded duel judge that is not swap-symmetric, recording how it is called.

    Slot A's logit is a draw keyed by the ordered pair, so (a, b) and (b, a)
    are judged independently. ``batches`` lists each score_batch call's
    (lower, upper) doc id pairs; ``direct`` counts score calls made outside one.
    Its ledger counts each duel it judges.
    ``max_in_flight`` is the in-flight limit it reports, None for none.
    """

    def __init__(self, seed=0, max_in_flight=None):
        super().__init__()
        self.seed = str(seed)
        self.max_in_flight = max_in_flight
        self.batches = []
        self.direct = 0

    def _judge(self, requests):
        self.ledger.record("duel", calls=len(requests))
        pairs = ((doc.doc_id for doc in r.docs) for r in requests)
        return [{"A": std_normal(self.seed, *pair), "B": 0.0} for pair in pairs], {}

    def score(self, request):
        self.direct += 1
        return super().score(request)

    def score_batch(self, requests):
        self.batches.append([tuple(doc.doc_id for doc in r.docs) for r in requests])
        return super().score_batch(requests)


class ConstantJudge(Scorer):
    """Gives every request the same answer: logit 0.0 on every label."""

    def _judge(self, requests):
        return [dict.fromkeys(r.labels, 0.0) for r in requests], {}


def serial_bubblesort(candidates, scorer, k):
    """The serial sweep, one duel at a time: the final order and each pass's duels."""
    order = list(candidates.docs)
    passes = []
    for settled in range(k):
        duels = []
        for i in range(len(order) - 2, settled - 1, -1):
            upper, lower = order[i], order[i + 1]
            logits = scorer.score(JudgeRequest("duel", candidates.query, (lower, upper)))
            duels.append((lower.doc_id, upper.doc_id))
            if refrank_score(logits["A"], logits["B"]) > 0.5:
                order[i], order[i + 1] = lower, upper
        passes.append(duels)
    return order, passes


BUBBLE_SHAPES = [(n, k) for n in range(1, 13) for k in range(1, n + 1)] + [(100, 10)]


class TestBubblesortWaves:
    @pytest.mark.parametrize("n,k", BUBBLE_SHAPES)
    def test_waves_replay_the_serial_sweep(self, n, k):
        cl, _ = fixture_list(n, seed=n)
        order, passes = serial_bubblesort(cl, NoisyDuelJudge(seed=k), k)
        judge = NoisyDuelJudge(seed=k)
        ranking = rank_pairwise_bubblesort(cl, judge, k=k)
        rest = sorted(order[k:], key=cl.docs.index)
        assert ranking.doc_ids == tuple(doc.doc_id for doc in order[:k] + rest)
        # wave w holds step j of pass s for every j + 2s = w, in pass order
        waves = collections.defaultdict(list)
        for s, duels in enumerate(passes):
            for j, duel in enumerate(duels):
                waves[j + 2 * s].append(duel)
        assert judge.batches == [waves[w] for w in sorted(waves)]

    @pytest.mark.parametrize("n,k", BUBBLE_SHAPES)
    def test_one_batch_per_wave(self, n, k):
        cl, _ = fixture_list(n, seed=n)
        judge = NoisyDuelJudge()
        rank_pairwise_bubblesort(cl, judge, k=k)
        assert len(judge.batches) == max(0, n + min(k, n - 1) - 2)  # none when n = 1
        assert all(1 <= len(batch) <= k for batch in judge.batches)
        assert judge.direct == 0
        assert judge.ledger.counts["duel"] == k * (n - 1) - k * (k - 1) // 2


class TestBubblesortInFlight:
    @pytest.mark.parametrize("limit", [1, 2, 3])
    @pytest.mark.parametrize("n,k", BUBBLE_SHAPES)
    def test_limited_batches_replay_the_serial_sweep(self, n, k, limit):
        cl, _ = fixture_list(n, seed=n)
        order, passes = serial_bubblesort(cl, NoisyDuelJudge(seed=k), k)
        judge = NoisyDuelJudge(seed=k, max_in_flight=limit)
        ranking = rank_pairwise_bubblesort(cl, judge, k=k)
        rest = sorted(order[k:], key=cl.docs.index)
        assert ranking.doc_ids == tuple(doc.doc_id for doc in order[:k] + rest)
        # the judge is not swap-symmetric, so each duel must meet the serial sweep's pair
        duels = [duel for batch in judge.batches for duel in batch]
        assert collections.Counter(duels) == collections.Counter(
            duel for pass_duels in passes for duel in pass_duels
        )
        for batch in judge.batches:
            assert 1 <= len(batch) <= limit
            assert len({doc_id for duel in batch for doc_id in duel}) == 2 * len(batch)
        assert judge.direct == 0
        assert judge.ledger.counts["duel"] == k * (n - 1) - k * (k - 1) // 2
        if limit >= k:
            unlimited = NoisyDuelJudge(seed=k)
            rank_pairwise_bubblesort(cl, unlimited, k=k)
            assert judge.batches == unlimited.batches

    @pytest.mark.parametrize(
        "n,k,limit,batches,wave_trips",
        [(10, 3, 2, 14, 16), (10, 10, 2, 25, 27), (20, 3, 2, 29, 36), (100, 10, 4, 241, 288)],
    )
    def test_batch_counts_against_waiting_for_each_wave(self, n, k, limit, batches, wave_trips):
        assert len(_bubble_schedule(n, k, limit)) == batches
        # sending each wave in slices of at most limit duels takes wave_trips round trips
        waves = _bubble_schedule(n, k, None)
        assert sum(-(-len(wave) // limit) for wave in waves) == wave_trips


def fresh_request_batches(candidates, k, seed, limit):
    """Each batch's (doc_a, doc_b) ids when every duel builds its own request."""
    judge = NoisyDuelJudge(seed=seed, max_in_flight=limit)
    order = list(candidates.docs)
    for positions in _bubble_schedule(len(order), k, limit):
        results = judge.score_batch(
            [JudgeRequest("duel", candidates.query, (order[i + 1], order[i])) for i in positions]
        )
        for i, logits in zip(positions, results):
            if refrank_score(logits["A"], logits["B"]) > 0.5:
                order[i], order[i + 1] = order[i + 1], order[i]
    return judge.batches


class TestBubblesortRequests:
    @pytest.mark.parametrize("limit", [None, 1, 2])
    @pytest.mark.parametrize("n,k", [(2, 1), (8, 3), (12, 12), (30, 10)])
    def test_one_request_per_ordered_pair(self, n, k, limit, monkeypatch):
        built = []

        class CountingRequest(JudgeRequest):
            __slots__ = ()

            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

        monkeypatch.setattr(strategies, "JudgeRequest", CountingRequest)
        cl, _ = fixture_list(n, seed=n)
        judge = NoisyDuelJudge(seed=k, max_in_flight=limit)
        rank_pairwise_bubblesort(cl, judge, k=k)
        assert judge.batches == fresh_request_batches(cl, k, k, limit)
        duels = [duel for batch in judge.batches for duel in batch]
        assert len(duels) == k * (n - 1) - k * (k - 1) // 2
        assert [tuple(doc.doc_id for doc in r.docs) for r in built] == list(dict.fromkeys(duels))
        if n > 2:
            assert len(built) < len(duels)  # some pair duels more than once


class TestWeightedRanking:
    @pytest.mark.parametrize("count", [5, 7, 12])
    def test_any_other_number_of_scores_is_refused(self, count):
        cl, _ = fixture_list(3)
        with pytest.raises(
            ValidationError,
            match=rf"^expected 6 scores \(3 candidates x 2 weights\), got {count}$",
        ):
            weighted_ranking(cl, [0.5] * count, (0.5, 0.5))


class TestNoiselessBehavior:
    @pytest.mark.parametrize("name,run", ALL_STRATEGIES)
    def test_recovers_descending_latent(self, name, run):
        cl, latents = fixture_list(15, seed=9)
        scorer = oracle_for(latents)
        ranking = run(cl, scorer, len(cl))
        assert ranking.doc_ids == ideal_order(cl, latents)

    @pytest.mark.parametrize("name,run", ALL_STRATEGIES[:4])
    def test_constant_judge_keeps_first_stage_order(self, name, run):
        # every score ties, so the ranking is the candidate list's own order
        cl, _ = fixture_list(9)
        assert run(cl, ConstantJudge(), len(cl)).doc_ids == first_stage_ids(cl)

    def test_all_strategies_agree(self):
        cl, latents = fixture_list(12, seed=11)
        orders = set()
        for _, run in ALL_STRATEGIES:
            scorer = oracle_for(latents)
            orders.add(run(cl, scorer, len(cl)).doc_ids)
        assert len(orders) == 1

    def test_single_doc_list(self):
        cl, latents = fixture_list(1)
        ranking = rank_pointwise(cl, oracle_for(latents))
        assert ranking.doc_ids == first_stage_ids(cl)

    def test_refrank_reference_choice_is_irrelevant_noiselessly(self):
        cl, latents = fixture_list(10, seed=2)
        first = rank_refrank_single(cl, oracle_for(latents), FixedIndex(1))
        second = rank_refrank_single(cl, oracle_for(latents), FixedIndex(2))
        assert first.doc_ids == second.doc_ids

    def test_bubblesort_topk_prefix_is_true_topk(self):
        cl, latents = fixture_list(15, seed=4)
        ranking = rank_pairwise_bubblesort(cl, oracle_for(latents), k=5)
        assert ranking.doc_ids[:5] == ideal_order(cl, latents)[:5]

    def test_bubblesort_tail_keeps_first_stage_order(self):
        cl, latents = fixture_list(15, seed=4)
        ranking = rank_pairwise_bubblesort(cl, oracle_for(latents), k=5)
        tail = ranking.doc_ids[5:]
        expected_tail = tuple(
            doc.doc_id for doc in cl.docs if doc.doc_id not in ranking.doc_ids[:5]
        )
        assert tail == expected_tail

    def test_heapsort_topk_prefix_and_tail(self):
        cl, latents = fixture_list(15, seed=6)
        ranking = rank_setwise_heapsort(cl, oracle_for(latents), c=3, k=5)
        assert ranking.doc_ids[:5] == ideal_order(cl, latents)[:5]
        tail = ranking.doc_ids[5:]
        expected_tail = tuple(
            doc.doc_id for doc in cl.docs if doc.doc_id not in ranking.doc_ids[:5]
        )
        assert tail == expected_tail

    @pytest.mark.parametrize("children", [2, 3, 5])
    def test_heapsort_any_fanout(self, children):
        cl, latents = fixture_list(17, seed=8)
        ranking = rank_setwise_heapsort(cl, oracle_for(latents), c=children, k=17)
        assert ranking.doc_ids == ideal_order(cl, latents)


class TestProperties:
    @pytest.mark.parametrize("name,run", ALL_STRATEGIES)
    def test_permutation(self, name, run):
        cl, latents = fixture_list(13, seed=21)
        scorer = oracle_for(latents, noise_sigma=0.6)
        ranking = run(cl, scorer, len(cl))
        assert sorted(ranking.doc_ids) == sorted(first_stage_ids(cl))

    @pytest.mark.parametrize("name,run", ALL_STRATEGIES)
    def test_input_order_invariance(self, name, run, tmp_path):
        # the run file's rank column, not its line order, gives first-stage order
        data = make_synth(1, 12, seed=31)
        cl = data.lists[0]
        run_path, corpus_path, queries_path, _ = write_experiment_files(data, tmp_path)
        lines = run_path.read_text().splitlines(keepends=True)
        run_path.write_text("".join(reversed(lines)))
        (shuffled,) = assemble_experiment(run_path, corpus_path, queries_path)
        baseline = run(cl, oracle_for(data.latents, noise_sigma=0.5), len(cl))
        again = run(shuffled, oracle_for(data.latents, noise_sigma=0.5), len(cl))
        assert baseline.doc_ids == again.doc_ids
        assert baseline.scores == again.scores

    def test_refrank_symmetry_sums_to_one(self):
        rng = np.random.default_rng(17)
        qid = "q0000"
        data = make_synth(1, 30, seed=13)
        cl = data.lists[0]
        scorer = oracle_for(data.latents, noise_sigma=0.9)
        from refrank.scorer import JudgeRequest

        for _ in range(200):
            i, j = rng.integers(0, 30, size=2)
            a, b = cl.docs[int(i)], cl.docs[int(j)]
            forward = scorer.score(JudgeRequest("triplet", cl.query, (a, b)))
            backward = scorer.score(JudgeRequest("triplet", cl.query, (b, a)))
            total = refrank_score(forward["A"], forward["B"]) + refrank_score(
                backward["A"], backward["B"]
            )
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_ensemble_reduction_m1_equals_single(self):
        cl, latents = fixture_list(14, seed=41)
        scorer_multi = oracle_for(latents, noise_sigma=0.7)
        scorer_single = oracle_for(latents, noise_sigma=0.7)
        multi = rank_refrank_multiple(cl, scorer_multi, EnsembleConfig(1))
        single = rank_refrank_single(cl, scorer_single, FixedIndex(1))
        assert multi.doc_ids == single.doc_ids
        assert multi.scores == single.scores

    def test_ensemble_score_is_the_weighted_sum_in_anchor_order(self):
        cl, latents = fixture_list(12, seed=44)
        config = EnsembleConfig(3, (0.5, 0.3, 0.2))
        ranking = rank_refrank_multiple(cl, oracle_for(latents, noise_sigma=0.7), config)
        judge = oracle_for(latents, noise_sigma=0.7)
        expected = {}
        for doc in cl.docs:
            total = 0.0
            for weight, ref in zip(config.weights, cl.docs[:3]):
                logits = judge.score(JudgeRequest("triplet", cl.query, (doc, ref)))
                total += weight * refrank_score(logits["A"], logits["B"])
            expected[doc.doc_id] = total.hex()
        assert {d: s.hex() for d, s in zip(ranking.doc_ids, ranking.scores)} == expected

    def test_default_ensemble_weights_are_one_over_m_and_summed_in_anchor_order(self):
        for m in range(1, 11):
            assert [w.hex() for w in EnsembleConfig(m).weights] == [(1.0 / m).hex()] * m
        cl, latents = fixture_list(12, seed=47)
        judge = oracle_for(latents, noise_sigma=0.7)
        for m in range(1, 11):
            ranking = rank_refrank_multiple(
                cl, oracle_for(latents, noise_sigma=0.7), EnsembleConfig(m)
            )
            expected = {}
            for doc in cl.docs:
                total = 0.0
                for ref in cl.docs[:m]:
                    logits = judge.score(JudgeRequest("triplet", cl.query, (doc, ref)))
                    total += (1.0 / m) * refrank_score(logits["A"], logits["B"])
                expected[doc.doc_id] = total.hex()
            assert {d: s.hex() for d, s in zip(ranking.doc_ids, ranking.scores)} == expected, m

    def test_allpairs_score_is_the_serial_sum_of_win_probabilities(self):
        cl, latents = fixture_list(7, seed=46)
        noisy = dict(noise_sigma=0.7, bias_amplitude=0.3)  # slot bias: p(i,j) != 1 - p(j,i)
        ranking = rank_pairwise_allpairs(cl, oracle_for(latents, **noisy))
        judge = oracle_for(latents, **noisy)
        docs = cl.docs
        n = len(docs)

        def p(i, j):
            logits = judge.score(JudgeRequest("duel", cl.query, (docs[i], docs[j])))
            return refrank_score(logits["A"], logits["B"])

        expected = {}
        for i, doc in enumerate(docs):
            total = 0.0
            for j in range(n):
                if j != i:
                    total += p(i, j) + (1.0 - p(j, i))
            expected[doc.doc_id] = (total / (2.0 * (n - 1))).hex()
        assert {d: s.hex() for d, s in zip(ranking.doc_ids, ranking.scores)} == expected

    def test_degenerate_weights_reduce_to_fixed_index_one(self):
        cl, latents = fixture_list(10, seed=43)
        config = EnsembleConfig(3, (1.0, 0.0, 0.0))
        multi = rank_refrank_multiple(cl, oracle_for(latents, noise_sigma=0.7), config)
        single = rank_refrank_single(cl, oracle_for(latents, noise_sigma=0.7), FixedIndex(1))
        assert multi.doc_ids == single.doc_ids

    def test_allpairs_two_docs_scores_sum_to_one(self):
        cl, latents = fixture_list(2, seed=45)
        ranking = rank_pairwise_allpairs(cl, oracle_for(latents, noise_sigma=0.5))
        total = sum(ranking.scores)
        assert total == pytest.approx(1.0, abs=1e-12)


class TestEnsembleConfig:
    def test_uniform_default(self):
        config = EnsembleConfig(4)
        assert config.weights == (0.25, 0.25, 0.25, 0.25)

    def test_m_must_be_positive(self):
        with pytest.raises(ValidationError, match="m must be >= 1"):
            EnsembleConfig(0)

    def test_weights_must_match_m(self):
        with pytest.raises(ValidationError):
            EnsembleConfig(2, (1.0,))

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            EnsembleConfig(2, (0.9, 0.2))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValidationError):
            EnsembleConfig(2, (1.5, -0.5))

    def test_nan_weight_rejected(self):
        with pytest.raises(ValidationError):
            EnsembleConfig(2, (float("nan"), 1.0))

    def test_m_greater_than_n_is_error(self):
        cl, latents = fixture_list(5)
        with pytest.raises(ValidationError):
            rank_refrank_multiple(cl, oracle_for(latents), EnsembleConfig(6))


class TestResolveReference:
    """Each policy resolves a query's anchor itself, through pick."""

    def test_fixed_index(self):
        cl, _ = fixture_list(10)
        assert FixedIndex(1).pick(cl) is cl.docs[0]
        assert FixedIndex(7).pick(cl) is cl.docs[6]

    def test_fixed_index_out_of_range(self):
        cl, _ = fixture_list(5)
        with pytest.raises(ValidationError, match=r"^reference index 6 exceeds list length 5$"):
            FixedIndex(6).pick(cl)

    def test_random_topk_deterministic_per_query(self):
        cl, _ = fixture_list(10)
        first = RandomTopK(2, seed=7).pick(cl)
        second = RandomTopK(2, seed=7).pick(cl)
        assert first.doc_id == second.doc_id

    def test_random_topk_out_of_range(self):
        cl, _ = fixture_list(5)
        with pytest.raises(ValidationError, match=r"^reference top-k 6 exceeds list length 5$"):
            RandomTopK(6, seed=0).pick(cl)

    @pytest.mark.parametrize("policy, query_id, expected", [
        (FixedIndex(1), "q1", "a"),
        (FixedIndex(4), "q2", "d"),
        (FixedIndex(6), "q7", "f"),
        (RandomTopK(1, seed=5), "q1", "a"),
        (RandomTopK(2, seed=0), "q1", "b"),
        (RandomTopK(3, seed=0), "q1", "c"),
        (RandomTopK(6, seed=7), "q1", "f"),
        (RandomTopK(5, seed=1), "q2", "a"),
        (RandomTopK(6, seed=7), "q7", "d"),
        (RandomTopK(4, seed=123), "1048585", "a"),
        (RandomTopK(5, seed=1), "query-42", "e"),
    ], ids=str)
    def test_pinned_anchor(self, policy, query_id, expected):
        # literal ids: a change to RandomTopK's draw key or rank mapping moves them
        cl = CandidateList(Query(query_id, "t"), [DocCandidate(d, "text") for d in "abcdef"])
        assert policy.pick(cl).doc_id == expected

    def test_random_topk_frequencies_near_uniform(self):
        # chi-square style check over 10,000 seeded queries: each of the top-2
        # ranks should be drawn with frequency 0.5 +/- 0.05
        counts = {1: 0, 2: 0}
        policy = RandomTopK(2, seed=123)
        for i in range(10_000):
            query = Query(f"q{i}", "t")
            docs = [DocCandidate(f"q{i}_d{j}", "text") for j in range(4)]
            cl = CandidateList(query, docs)
            counts[cl.docs.index(policy.pick(cl)) + 1] += 1
        for rank in (1, 2):
            assert abs(counts[rank] / 10_000 - 0.5) < 0.05

    def test_invalid_policies(self):
        with pytest.raises(ValidationError):
            FixedIndex(0)
        with pytest.raises(ValidationError):
            RandomTopK(0, seed=1)


class TestSetwiseValidation:
    def test_c_one_forbidden(self):
        cl, latents = fixture_list(5)
        with pytest.raises(ValidationError):
            rank_setwise_heapsort(cl, oracle_for(latents), c=1, k=3)

    def test_c_past_label_letters_rejected_before_any_call(self):
        # a group is the parent plus up to c children, one letter A..Z each
        cl, latents = fixture_list(30)
        scorer = oracle_for(latents)
        with pytest.raises(ValidationError, match="2..25"):
            rank_setwise_heapsort(cl, scorer, c=26, k=3)
        assert scorer.ledger.total_calls == 0

    def test_c_at_label_limit_ranks(self):
        cl, latents = fixture_list(30)
        ranking = rank_setwise_heapsort(cl, oracle_for(latents), c=25, k=3)
        assert len(ranking.doc_ids) == 30

    def test_k_bounds(self):
        cl, latents = fixture_list(5)
        with pytest.raises(ValidationError):
            rank_setwise_heapsort(cl, oracle_for(latents), c=2, k=0)
        with pytest.raises(ValidationError):
            rank_pairwise_bubblesort(cl, oracle_for(latents), k=6)


class TestErrorTagging:
    def test_scorer_error_names_doc(self):
        cl, latents = fixture_list(5)
        broken = dict(latents)
        del broken[(cl.query.id, cl.docs[2].doc_id)]
        scorer = oracle_for(broken)
        from refrank.scorer import ScoringError

        with pytest.raises(ScoringError) as exc:
            rank_pointwise(cl, scorer)
        assert cl.docs[2].doc_id in str(exc.value)

    @pytest.mark.parametrize(
        "rank, refs",
        [
            (lambda cl, sc: rank_refrank_multiple(cl, sc, EnsembleConfig(2)), (0, 1)),
            (lambda cl, sc: rank_refrank_single(cl, sc, FixedIndex(2)), (1,)),
        ],
        ids=["refrank-multiple", "refrank-single"],
    )
    def test_batch_failure_names_doc_and_ref(self, rank, refs):
        cl, latents = fixture_list(5)
        broken = dict(latents)
        del broken[(cl.query.id, cl.docs[2].doc_id)]
        from refrank.scorer import ScoringError

        with pytest.raises(ScoringError) as exc:
            rank(cl, oracle_for(broken))
        failed = ", ".join(f"{cl.docs[2].doc_id}|{cl.docs[r].doc_id}" for r in refs)
        missing = f"({cl.query.id}, {cl.docs[2].doc_id})"
        assert str(exc.value) == (
            f"scoring failed for: {failed} (ValidationError: no latent relevance for {missing})"
        )
