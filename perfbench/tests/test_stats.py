import numpy as np
import pytest

import stats


@pytest.mark.parametrize("n, label", [
    (1, None), (19, None), (20, "p50"), (99, "p50"), (100, "p90"),
    (999, "p90"), (1000, "p99"), (9999, "p99"), (10000, "p99.9"),
    (100000, "p99.99"),
])
def test_tail_is_highest_percentile_with_ten_beyond(n, label):
    tail = stats.tail_label(n)
    assert (tail and tail[0]) == label
    if tail is not None:
        values = list(range(n))
        cut = np.quantile(values, tail[1])
        assert sum(v > cut for v in values) >= stats.MIN_BEYOND


def test_summarize_reports_count_and_tail():
    s = stats.summarize([float(v) for v in range(1000)])
    assert s["n"] == 1000 and s["tail"] == "p99"
    assert s["tail_value"] == pytest.approx(989.01)
    assert "tail" not in stats.summarize([1.0, 2.0])
