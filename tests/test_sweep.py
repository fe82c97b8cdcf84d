"""Tests for sweep grids."""

import pytest

from repro.core.sweep import Sweep, paper_batch_sweep, paper_length_sweep


class TestSweep:
    def test_cartesian_product(self):
        sweep = Sweep({"a": [1, 2], "b": ["x", "y", "z"]})
        points = list(sweep)
        assert len(points) == 6
        assert {"a": 1, "b": "x"} in points

    def test_len_matches_iteration(self):
        sweep = Sweep({"a": [1, 2, 3], "b": [1, 2]})
        assert len(sweep) == 6

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="no values"):
            Sweep({"a": []})

    def test_extend_adds_axis(self):
        sweep = Sweep({"a": [1]}).extend(b=[1, 2])
        assert len(sweep) == 2

    def test_extend_rejects_duplicate_axis(self):
        with pytest.raises(ValueError, match="already present"):
            Sweep({"a": [1]}).extend(a=[2])


class TestPaperSweeps:
    def test_paper_batch_sweep_shape(self):
        sweep = paper_batch_sweep()
        assert len(sweep) == 5 * 4
        point = next(iter(sweep))
        assert set(point) == {"length", "batch_size"}

    def test_paper_length_sweep_shape(self):
        sweep = paper_length_sweep()
        assert len(sweep) == 25
        point = next(iter(sweep))
        assert point["batch_size"] == 16
