"""Tests for the output statistics (repro.core.stats)."""

import math

import numpy as np

from repro.core.stats import mean, percentile, total


class TestTotal:
    def test_adds_left_to_right_without_compensation(self):
        # Plain addition loses both 1.0s; a compensated sum would give 2.0.
        assert total([1.0, 1e100, 1.0, -1e100]) == 0.0

    def test_empty_is_float_zero(self):
        assert total([]) == 0.0 and isinstance(total([]), float)

    def test_accepts_a_generator(self):
        assert total(x / 2 for x in range(4)) == 3.0


class TestMean:
    def test_empty_is_nan(self):
        assert math.isnan(mean([]))
        assert math.isnan(mean(x for x in ()))

    def test_is_total_over_count(self):
        values = [0.1, 0.2, 0.3]
        assert mean(values) == ((0.0 + 0.1) + 0.2 + 0.3) / 3
        assert mean(iter(values)) == mean(values)


class TestPercentile:
    def test_accepts_unsorted_input_and_a_generator(self):
        values = [3.0, 1.0, 2.0, 10.0]
        assert percentile(values, 50) == 2.5
        assert percentile(iter(values), 50) == float(np.percentile(values, 50))
