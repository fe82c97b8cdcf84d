"""Tests for the ResultTable container."""

import pytest

from repro.core.results import ResultRecord, ResultTable


def _sample_table() -> ResultTable:
    table = ResultTable("sample")
    for hw in ("A100", "H100"):
        for bs in (1, 16):
            table.add(
                {"hardware": hw, "batch_size": bs},
                {"throughput": float(bs * (2 if hw == "H100" else 1))},
            )
    return table


class TestResultTable:
    def test_len_and_iter(self):
        table = _sample_table()
        assert len(table) == 4
        assert all(isinstance(rec, ResultRecord) for rec in table)

    def test_filter_exact_match(self):
        table = _sample_table()
        subset = table.filter(hardware="A100")
        assert len(subset) == 2
        assert all(rec.keys["hardware"] == "A100" for rec in subset)

    def test_filter_multiple_criteria(self):
        subset = _sample_table().filter(hardware="H100", batch_size=16)
        assert len(subset) == 1

    def test_single_returns_value(self):
        value = _sample_table().single("throughput", hardware="H100", batch_size=16)
        assert value == 32.0

    def test_single_raises_on_ambiguity(self):
        with pytest.raises(LookupError, match="exactly one"):
            _sample_table().single("throughput", hardware="A100")

    def test_single_raises_on_missing(self):
        with pytest.raises(LookupError):
            _sample_table().single("throughput", hardware="MI250")

    def test_column_checks_keys_then_values(self):
        table = _sample_table()
        assert table.column("hardware") == ["A100", "A100", "H100", "H100"]
        assert table.column("throughput") == [1.0, 16.0, 2.0, 32.0]

    def test_column_missing_raises(self):
        with pytest.raises(KeyError, match="missing"):
            _sample_table().column("nope")

    def test_unique_preserves_order(self):
        assert _sample_table().unique("hardware") == ["A100", "H100"]

    def test_pivot_grid(self):
        rows, cols, grid = _sample_table().pivot("hardware", "batch_size", "throughput")
        assert rows == ["A100", "H100"]
        assert cols == [1, 16]
        assert grid == [[1.0, 16.0], [2.0, 32.0]]

    def test_pivot_rejects_duplicates(self):
        table = _sample_table()
        table.add({"hardware": "A100", "batch_size": 1}, {"throughput": 9.0})
        with pytest.raises(ValueError, match="duplicate"):
            table.pivot("hardware", "batch_size", "throughput")

    def test_where_predicate(self):
        subset = _sample_table().where(lambda r: r.values["throughput"] > 10)
        assert len(subset) == 2

    def test_json_roundtrip(self):
        table = _sample_table()
        restored = ResultTable.from_json(table.to_json())
        assert restored.name == "sample"
        assert len(restored) == 4
        assert restored.single("throughput", hardware="H100", batch_size=16) == 32.0

    def test_render_contains_headers_and_rows(self):
        text = _sample_table().render()
        assert "hardware" in text
        assert "A100" in text
        assert "32.0" in text

    def test_render_empty(self):
        assert "(empty)" in ResultTable("empty").render()

    def test_render_max_rows(self):
        text = _sample_table().render(max_rows=1)
        assert text.count("\n") == 2  # header + separator + one row

    def test_extend(self):
        a = _sample_table()
        b = _sample_table()
        a.extend(b)
        assert len(a) == 8

    def test_record_collision_detection(self):
        rec = ResultRecord({"x": 1}, {"x": 2.0})
        with pytest.raises(ValueError, match="collision"):
            rec.as_dict()
