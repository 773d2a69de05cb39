import pytest

from benchmarks.gridbench.stats import percentile, summary, tail_percentile


def test_tail_is_the_highest_percentile_with_ten_samples_beyond_it():
    # n = 1200: p99 leaves 12 beyond, p99.9 would leave 1.
    tail = tail_percentile(list(range(1200)))
    assert (tail["p"], tail["n"], tail["beyond"]) == (99.0, 1200, 12)
    assert tail["value"] == 1187
    # n = 100: p90 leaves exactly 10, p95 only 5.
    assert tail_percentile(list(range(100)))["p"] == 90.0
    # n = 20: only the median still has ten samples above it.
    assert tail_percentile(list(range(20)))["p"] == 50.0
    # Fewer than twenty samples support no tail at all.
    assert tail_percentile(list(range(19))) is None


def test_tail_states_n_and_never_reports_an_unsupported_percentile():
    for n in (20, 57, 199, 200, 999, 1000, 10_000):
        tail = tail_percentile([float(i) for i in range(n)])
        assert tail["n"] == n
        assert tail["beyond"] >= 10
        assert sum(1 for v in range(n) if v > tail["value"]) == tail["beyond"]


def test_percentile_is_nearest_rank():
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert percentile(values, 50) == 3.0
    assert percentile(values, 100) == 5.0
    assert percentile(values, 1) == 1.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_summary_uses_the_acceptance_rule_quartiles():
    import statistics

    values = [3.1, 2.9, 3.0, 3.4, 2.8, 3.2, 3.0, 3.3, 2.7, 3.6]
    s = summary(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert (s["q1"], s["q3"], s["n"]) == (q1, q3, 10)
    assert s["value"] == statistics.median(values)
    assert summary([2.0]) == {"value": 2.0, "q1": 2.0, "q3": 2.0, "n": 1}
