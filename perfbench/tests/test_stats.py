"""The percentile rule and the failure tally."""

import pytest

from perfbench.stats import TAIL_LADDER, Tally, percentile, summarize, tail_percentile


def _beyond(values, pct):
    cut = percentile(sorted(values), pct)
    return sum(1 for v in values if v > cut)


@pytest.mark.parametrize("n", [1, 5, 10, 11, 50, 91, 92, 150, 977, 978, 5000, 9990, 20000])
def test_tail_is_highest_rung_with_ten_samples_beyond(n):
    values = list(range(n))
    pct = tail_percentile(n)
    if pct is None:
        assert all(_beyond(values, p) < 10 for p in TAIL_LADDER)
        return
    assert _beyond(values, pct) >= 10
    higher = [p for p in TAIL_LADDER if p > pct]
    assert all(_beyond(values, p) < 10 for p in higher)


def test_known_rungs():
    assert tail_percentile(91) is None
    assert tail_percentile(92) == 90.0
    assert tail_percentile(500) == 90.0
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(10_000) == 99.9


def test_ceiling_pins_the_tail_below_higher_rungs():
    assert tail_percentile(10_000, ceiling=99.0) == 99.0
    assert tail_percentile(500, ceiling=99.0) == 90.0
    assert tail_percentile(91, ceiling=99.0) is None
    pinned = summarize([float(i) for i in range(20_000)], ceiling=99.0)
    assert pinned.tail_pct == 99.0 and _beyond(range(20_000), 99.0) >= 10


def test_summary_reports_count_and_falls_back_to_max():
    few = summarize([3.0, 1.0, 2.0])
    assert (few.n, few.median, few.tail_pct, few.tail) == (3, 2.0, None, 3.0)
    many = summarize([float(i) for i in range(1000)])
    assert many.n == 1000 and many.tail_pct == 99.0
    assert many.tail == pytest.approx(989.01)


def test_summary_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        summarize([])


def test_tally_counts_every_kind_of_failure_against_attempts():
    tally = Tally()
    tally.ok()
    tally.fail("submit answered 429")
    tally.fail("transport: TimeoutError")
    tally.fail("body differs")
    tally.ok()
    assert (tally.attempted, tally.failed) == (5, 3)
    assert tally.error_rate == pytest.approx(0.6)
    tally.reject("differs from recompute")
    assert (tally.attempted, tally.failed) == (5, 4)
    other = Tally()
    other.fail("body differs")
    tally.merge(other)
    assert (tally.attempted, tally.failed) == (6, 5)
    assert tally.reasons["body differs"] == 2


def test_reject_needs_a_good_operation():
    tally = Tally()
    tally.fail("refused")
    with pytest.raises(ValueError):
        tally.reject("wrong")
