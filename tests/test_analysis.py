import numpy as np
import pytest
from scipy import stats

from refrank.analysis import (
    SweepResult,
    check_sweep_depth,
    minmax_normalize,
    sweep_anchors,
    sweep_ensemble_size,
    sweep_reference_quality,
    sweep_topk_selection,
    write_curve_csv,
)
from refrank.datamodel import ValidationError
from refrank.eval import ndcg_at_k
from refrank import strategies
from refrank.scorer import JudgeRequest, OracleConfig, OracleScorer
from refrank.strategies import (
    EnsembleConfig,
    FixedIndex,
    rank_refrank_multiple,
    rank_refrank_single,
)

from synth import make_synth


def oracle_for(data, seed=5, **kwargs):
    return OracleScorer(OracleConfig(seed=seed, **kwargs), latents=data.latents)


class TestMinmaxNormalize:
    def test_basic(self):
        assert minmax_normalize([0.2, 0.5, 0.8]) == pytest.approx([0.0, 0.5, 1.0])

    def test_degenerate_all_equal(self):
        assert minmax_normalize([0.4, 0.4]) == [0.0, 0.0]

    def test_singleton(self):
        assert minmax_normalize([0.7]) == [0.0]

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            minmax_normalize([])

    def test_idempotent_on_normalized_input(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            values = list(rng.random(6))
            once = minmax_normalize(values)
            twice = minmax_normalize(once)
            assert twice == pytest.approx(once, abs=1e-15)

    def test_output_in_unit_interval(self):
        rng = np.random.default_rng(4)
        values = list(rng.normal(size=50) * 100)
        out = minmax_normalize(values)
        assert min(out) == 0.0 and max(out) == 1.0


class TestReferenceSweep:
    def test_noiseless_curve_is_flat_at_ideal(self):
        data = make_synth(6, 12, seed=1)
        sweep = sweep_reference_quality(data.lists, oracle_for(data), data.qrels, depth_r=5)
        assert sweep.cells == (1, 2, 3, 4, 5)
        assert all(value == sweep.mean[0] for value in sweep.mean)
        # noiseless judge reaches the qrels-ideal ordering, so NDCG is 1
        assert sweep.mean[0] == 1.0

    def test_single_cell_single_query(self):
        data = make_synth(1, 8, seed=2)
        sweep = sweep_reference_quality(data.lists, oracle_for(data), data.qrels, depth_r=1)
        ranking = rank_refrank_single(data.lists[0], oracle_for(data), FixedIndex(1))
        assert sweep.per_query[0][0] == ndcg_at_k(ranking, data.qrels)
        assert sweep.mean == (sweep.per_query[0][0],)

    def test_depth_bounds(self):
        data = make_synth(2, 6, seed=3)
        with pytest.raises(ValidationError):
            sweep_reference_quality(data.lists, oracle_for(data), data.qrels, depth_r=7)

    def test_matrix_shape(self):
        data = make_synth(4, 10, seed=4)
        sweep = sweep_reference_quality(data.lists, oracle_for(data), data.qrels, depth_r=6)
        assert len(sweep.per_query) == 4
        assert all(len(row) == 6 for row in sweep.per_query)

    def test_determinism_bit_identical(self):
        data = make_synth(3, 10, seed=6)
        first = sweep_reference_quality(
            data.lists, oracle_for(data, noise_sigma=0.5), data.qrels, depth_r=4
        )
        second = sweep_reference_quality(
            data.lists, oracle_for(data, noise_sigma=0.5), data.qrels, depth_r=4
        )
        assert first == second

    def test_reference_noise_mode_degrades_with_depth(self):
        # Monte-Carlo example: when triplet noise widens as the anchor's
        # latent falls, mean quality trends down in the anchor index
        per_seed_means = []
        for seed in range(5):
            data = make_synth(40, 20, seed=100 + seed, rank_correlation=0.8)
            scorer = oracle_for(data, seed=seed, noise_sigma=0.05, ref_noise_scale=1.2)
            sweep = sweep_reference_quality(data.lists, scorer, data.qrels, depth_r=10)
            per_seed_means.append(sweep.mean)
        mean_curve = np.mean(per_seed_means, axis=0)
        rho = stats.spearmanr(np.arange(1, 11), mean_curve).statistic
        assert rho < 0


class TestTopkSelection:
    def test_first_value_equals_first_cell(self):
        data = make_synth(3, 8, seed=7)
        sweep = sweep_reference_quality(
            data.lists, oracle_for(data, noise_sigma=0.4), data.qrels, depth_r=4
        )
        values = sweep_topk_selection(sweep)
        assert values[0] == sweep.mean[0]

    def test_arithmetic(self):
        sweep = SweepResult(
            kind="reference",
            cells=(1, 2),
            per_query=((0.8, 0.6),),
        )
        assert sweep_topk_selection(sweep) == pytest.approx([0.8, 0.7])

    def test_exact_prefix_means(self):
        data = make_synth(5, 10, seed=8)
        sweep = sweep_reference_quality(
            data.lists, oracle_for(data, noise_sigma=0.6), data.qrels, depth_r=8
        )
        values = sweep_topk_selection(sweep)
        expected = np.cumsum(sweep.mean) / np.arange(1, 9)
        assert values == pytest.approx(list(expected), abs=1e-12)

    def test_nonincreasing_curve_stays_nonincreasing(self):
        sweep = SweepResult(
            kind="reference",
            cells=(1, 2, 3),
            per_query=((0.9, 0.5, 0.1),),
        )
        values = sweep_topk_selection(sweep)
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestEnsembleSweep:
    def test_m1_column_equals_reference_r1_column(self):
        data = make_synth(4, 10, seed=10)
        reference = sweep_reference_quality(
            data.lists, oracle_for(data, noise_sigma=0.5), data.qrels, depth_r=1
        )
        ensemble = sweep_ensemble_size(
            data.lists, oracle_for(data, noise_sigma=0.5), data.qrels, m_max=1
        )
        assert ensemble.per_query == reference.per_query

    def test_noiseless_flat_at_ideal(self):
        data = make_synth(4, 12, seed=11)
        sweep = sweep_ensemble_size(data.lists, oracle_for(data), data.qrels, m_max=3)
        assert sweep.mean == (1.0, 1.0, 1.0)

    def test_ensembling_does_not_hurt_under_noise(self):
        # Monte-Carlo example: mean quality of m in 4..6 at least matches m=1
        diffs = []
        for seed in range(5):
            data = make_synth(40, 16, seed=200 + seed, rank_correlation=0.5)
            scorer = oracle_for(data, seed=seed, noise_sigma=0.5)
            sweep = sweep_ensemble_size(data.lists, scorer, data.qrels, m_max=4)
            diffs.append(sweep.mean[3] - sweep.mean[0])
        assert float(np.mean(diffs)) >= 0.0

    def test_bounds(self):
        data = make_synth(2, 5, seed=12)
        with pytest.raises(ValidationError):
            sweep_ensemble_size(data.lists, oracle_for(data), data.qrels, m_max=6)

    def test_no_lists_to_sweep(self):
        data = make_synth(1, 5, seed=12)
        with pytest.raises(ValidationError, match="^no candidate lists to sweep$"):
            check_sweep_depth([], 1, "depth_r")
        with pytest.raises(ValidationError, match="^no candidate lists to sweep$"):
            sweep_anchors([], oracle_for(data), data.qrels, 1, 1)


class TestSweepCellsAreStrategyRuns:
    """Each cell equals the strategy run it stands for, from rows built once per list."""

    NOISY = dict(noise_sigma=0.5, ref_noise_scale=0.8)

    @pytest.mark.parametrize("sweep, rank, config", [
        (sweep_reference_quality, rank_refrank_single, FixedIndex),
        (sweep_ensemble_size, rank_refrank_multiple, EnsembleConfig),
    ], ids=["reference", "ensemble"])
    def test_every_cell_is_bit_identical_to_the_strategy(self, sweep, rank, config):
        data = make_synth(5, 12, seed=31, rank_correlation=0.4)
        swept = sweep(data.lists, oracle_for(data, **self.NOISY), data.qrels, 6)
        scorer = oracle_for(data, **self.NOISY)
        expected = tuple(
            tuple(ndcg_at_k(rank(cl, scorer, config(cell)), data.qrels) for cell in swept.cells)
            for cl in data.lists
        )
        assert swept.cells == (1, 2, 3, 4, 5, 6)
        assert len(set(swept.mean)) > 1  # the noise reaches the cells
        assert [[value.hex() for value in row] for row in swept.per_query] == [
            [value.hex() for value in row] for row in expected
        ]

    def test_rows_are_built_once_per_list_and_every_cell_is_still_judged(self, monkeypatch):
        n_queries, n, depth = 3, 9, 4
        data = make_synth(n_queries, n, seed=32)
        built = []

        def counted(*args):
            built.append(args)
            return JudgeRequest(*args)

        monkeypatch.setattr(strategies, "JudgeRequest", counted)
        for sweep, cell_calls in [
            (sweep_reference_quality, depth),  # one anchor per cell
            (sweep_ensemble_size, depth * (depth + 1) // 2),  # m anchors at cell m
        ]:
            built.clear()
            scorer = oracle_for(data, **self.NOISY)
            sweep(data.lists, scorer, data.qrels, depth)
            assert len(built) == n_queries * n * depth, sweep.__name__
            assert scorer.ledger.counts["triplet"] == n_queries * n * cell_calls, sweep.__name__
            assert scorer.ledger.total_calls == n_queries * n * cell_calls, sweep.__name__

    def test_both_sweeps_in_one_pass_equal_the_separate_sweeps(self):
        data = make_synth(5, 12, seed=33, rank_correlation=0.4)
        together = sweep_anchors(data.lists, oracle_for(data, **self.NOISY), data.qrels, 6, 4)
        apart = (
            sweep_reference_quality(data.lists, oracle_for(data, **self.NOISY), data.qrels, 6),
            sweep_ensemble_size(data.lists, oracle_for(data, **self.NOISY), data.qrels, 4),
        )

        def hexed(result):
            return result.kind, result.cells, [[v.hex() for v in row] for row in result.per_query]

        assert len(set(together[0].mean)) > 1  # the noise reaches the cells
        assert [hexed(result) for result in together] == [hexed(result) for result in apart]

    @pytest.mark.parametrize("depth_r, m_max", [(4, 2), (2, 4), (3, 3)])
    def test_both_sweeps_build_each_lists_rows_once_and_judge_list_by_list(
        self, monkeypatch, depth_r, m_max
    ):
        n_queries, n = 3, 9
        data = make_synth(n_queries, n, seed=32)
        built, judged = [], []

        def counted(*args):
            built.append(args)
            return JudgeRequest(*args)

        monkeypatch.setattr(strategies, "JudgeRequest", counted)
        scorer = oracle_for(data, **self.NOISY)
        score_batch = scorer.score_batch

        def recorded(requests):
            judged.extend(request.query.id for request in requests)
            return score_batch(requests)

        monkeypatch.setattr(scorer, "score_batch", recorded)
        sweep_anchors(data.lists, scorer, data.qrels, depth_r, m_max)
        assert len(built) == n_queries * n * max(depth_r, m_max)
        calls = n_queries * n * (depth_r + m_max * (m_max + 1) // 2)
        assert scorer.ledger.counts["triplet"] == scorer.ledger.total_calls == calls
        # every request for list i is judged before any for list i + 1
        assert judged == sorted(judged, key=[cl.query.id for cl in data.lists].index)
        assert len(judged) == calls


class TestCsv:
    def test_sweep_csv_shape(self, tmp_path):
        data = make_synth(2, 8, seed=13)
        sweep = sweep_reference_quality(
            data.lists, oracle_for(data, noise_sigma=0.3), data.qrels, depth_r=5
        )
        path = tmp_path / "sweep.csv"
        write_curve_csv(sweep.mean, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "cell,mean,normalized"
        assert len(lines) == 6
        # values round-trip through repr exactly
        cell, mean, normalized = lines[1].split(",")
        assert int(cell) == 1
        assert float(mean) == sweep.mean[0]
        assert float(normalized) == minmax_normalize(sweep.mean)[0]

    def test_topk_csv(self, tmp_path):
        path = tmp_path / "topk.csv"
        write_curve_csv([0.9, 0.8, 0.7], path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "cell,mean,normalized"
        assert len(lines) == 4

    def test_aggregates_derive_from_rows(self):
        sweep = SweepResult("ensemble", (1, 2), ((0.2, 0.9), (0.4, 0.5)))
        assert sweep.mean == ((0.2 + 0.4) / 2, (0.9 + 0.5) / 2)
        assert minmax_normalize(sweep.mean) == [0.0, 1.0]

    def test_mean_folds_left_to_right_on_every_python(self):
        # ten 0.1s fold to 0.9999999999999999; sum() gives 1.0 from Python 3.12 on
        sweep = SweepResult("reference", (1, 2), ((0.1, 0.5),) * 10)
        assert sweep.mean == (0.9999999999999999 / 10, 0.5)

    def test_result_validation(self):
        with pytest.raises(ValidationError):
            SweepResult(
                kind="reference",
                cells=(1, 2),
                per_query=((0.5,),),  # wrong row width
            )
        with pytest.raises(ValidationError):
            SweepResult(kind="reference", cells=(1,), per_query=())  # no rows
