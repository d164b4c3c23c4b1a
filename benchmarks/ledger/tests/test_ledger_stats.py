import math

import pytest

from stats import (percentile, quartiles, spearman, spread,
                   supported_percentile, verdict, worsening)


def test_percentile_interpolates_like_numpy():
    samples = [4.0, 1.0, 3.0, 2.0]
    assert percentile(samples, 0) == 1.0
    assert percentile(samples, 50) == 2.5
    assert percentile(samples, 90) == pytest.approx(3.7)
    assert percentile(samples, 100) == 4.0
    assert percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_highest_percentile_needs_ten_samples_beyond_it():
    assert supported_percentile(5) == 50       # cold_resnet50
    assert supported_percentile(12) == 50      # cold_many_ops, warm_resnet50
    assert supported_percentile(99) == 50      # 9.9 samples beyond p90
    assert supported_percentile(100) == 90
    assert supported_percentile(200) == 90     # steady_resnet50
    assert supported_percentile(6000) == 99    # served_open: 60 beyond p99
    assert supported_percentile(28000) == 99.9


def test_spread_is_quartile_distance_over_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0]
    q1, q2, q3 = quartiles(values)
    assert (q1, q2, q3) == (10.5, 12.0, 13.5)
    assert spread(values) == pytest.approx(0.25)
    assert quartiles([3.0]) == (3.0, 3.0, 3.0)


def test_worsening_respects_direction():
    assert worsening(100, 110, "lower") == pytest.approx(0.10)
    assert worsening(100, 110, "higher") == pytest.approx(-0.10)
    assert worsening(100, 90, "higher") == pytest.approx(0.10)
    assert worsening(0, 0, "lower") == 0.0
    assert worsening(0, 1, "lower") == math.inf
    with pytest.raises(ValueError):
        worsening(1, 1, "sideways")


def test_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert verdict(steady, [104.0, 105.0, 103.0], "lower", 0.10) == "ok"
    assert verdict(steady, [115.0, 116.0, 114.0], "lower", 0.10) == "regressed"
    assert verdict(steady, [80.0], "lower", 0.10) == "ok"          # a gain
    assert verdict(steady, [80.0], "higher", 0.10) == "regressed"  # a loss
    noisy = [80.0, 100.0, 120.0, 90.0, 130.0]
    assert verdict(noisy, [200.0], "lower", 0.10) == "unresolved"
    # one reference run has no spread to judge: compared on its value alone
    assert verdict([100.0], [120.0], "lower", 0.10) == "regressed"


def test_spearman():
    assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)
    assert spearman([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)
    assert spearman([1, 2, 3], [5, 5, 5]) is None
    assert spearman([1, 2], [1, 2]) is None
    assert spearman([1, 1, 2, 3], [1, 1, 2, 3]) == pytest.approx(1.0)
