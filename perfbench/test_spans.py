import pytest

from perfbench.spans import END, START, self_times


def span(parent, start, end):
    return ["s", "layer", parent, None, start, end, ""]


def test_self_times_partition_the_root_with_concurrent_children():
    root = span(None, 0, 100)
    batch = span(root, 10, 90)
    first = span(batch, 20, 50)  # two worker-thread calls, in flight together 30..50
    second = span(batch, 30, 70)
    serial = span(root, 92, 98)
    own = [value * 1e9 for value in self_times([root, batch, first, second, serial])]
    assert own == pytest.approx([10 + 2 + 2, 10 + 20, 10 + 10, 10 + 20, 6])
    assert sum(own) == pytest.approx(root[END] - root[START])
