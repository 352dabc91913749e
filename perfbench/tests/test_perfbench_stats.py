"""Tail-percentile helper of the benchmark."""

import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(REPO_ROOT / "src"), str(REPO_ROOT)]

from perfbench import stats  # noqa: E402


def test_tail_is_omitted_below_eleven_samples():
    # Even the lowest candidate (p75) needs 10 samples above it.
    assert stats.tail([float(i) for i in range(39)]) is None
    assert stats.tail([1.0, 2.0, 3.0]) is None
    assert stats.tail([]) is None


def test_tail_picks_highest_percentile_with_ten_beyond():
    values = [float(i) for i in range(1, 41)]
    result = stats.tail(values)
    assert result == {"percentile": 75.0, "value": 30.0, "n": 40}

    hundred = [float(i) for i in range(1, 101)]
    assert stats.tail(hundred) == {"percentile": 90.0, "value": 90.0, "n": 100}

    thousand = [float(i) for i in range(1, 1001)]
    assert stats.tail(thousand) == {"percentile": 99.0, "value": 990.0, "n": 1000}

    many = [float(i) for i in range(1, 10_001)]
    assert stats.tail(many)["percentile"] == 99.9


@pytest.mark.parametrize("n", [40, 57, 100, 250, 1000, 4000])
def test_tail_leaves_at_least_ten_samples_beyond_and_exceeds_median(n):
    values = [float((7 * i) % n) for i in range(n)]  # a permutation of 0..n-1
    result = stats.tail(values)
    assert result is not None and result["n"] == n
    assert sum(v > result["value"] for v in values) >= stats.MIN_BEYOND
    assert result["value"] > stats.median(values)


def test_median_and_nearest_rank():
    assert stats.median([3.0, 1.0, 2.0]) == 2.0
    assert stats.median([4.0, 1.0, 2.0, 3.0]) == 2.5
    assert stats.nearest_rank([5.0, 1.0, 3.0, 2.0, 4.0], 40) == 2.0
    with pytest.raises(ValueError):
        stats.median([])
