import pytest

from perfbench import stats


@pytest.mark.parametrize(
    "count, percentile, beyond, supported",
    [
        (100, 90, 10, True),
        (99, 90, 9, False),
        (1000, 99, 10, True),
        (999, 99, 9, False),
        (20, 50, 10, True),
        (19, 50, 9, False),
    ],
)
def test_ten_samples_beyond_rule(count, percentile, beyond, supported):
    assert stats.samples_beyond(count, percentile) == beyond
    assert stats.supports(count, percentile) is supported


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(100, 0, -1)]
    assert stats.percentile(values, 90) == 90.0
    assert stats.percentile(values, 50) == 50.0
    assert stats.percentile(values + [1000.0] * 900, 99) == 1000.0


def test_percentile_refuses_too_few_samples():
    with pytest.raises(ValueError, match="at least 10"):
        stats.percentile(list(range(99)), 90)
    with pytest.raises(ValueError):
        stats.percentile(list(range(1000)), 100)

