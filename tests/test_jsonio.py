"""Tests for the canonical JSON convention (repro.core.jsonio)."""

import json
import math

import pytest

from repro.core.jsonio import (
    dumps,
    from_json_float,
    from_json_num,
    json_float,
    json_num,
    write_json,
)


class TestScalars:
    def test_json_num_keeps_ints(self):
        assert json_num(4) == 4 and type(json_num(4)) is int
        assert type(from_json_num(4)) is int

    def test_json_float_coerces_ints(self):
        assert json_float(4) == 4.0 and type(json_float(4)) is float
        assert type(from_json_float(4)) is float

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "to_json,from_json",
        [(json_num, from_json_num), (json_float, from_json_float)],
        ids=["num", "float"],
    )
    def test_non_finite_is_null_and_loads_as_nan(self, value, to_json, from_json):
        assert to_json(value) is None
        assert math.isnan(from_json(None))

    @pytest.mark.parametrize("to_json", [json_num, json_float])
    def test_negative_zero_keeps_sign(self, to_json):
        encoded = to_json(-0.0)
        assert encoded == 0.0 and math.copysign(1.0, encoded) == -1.0
        assert dumps([encoded]) == "[\n -0.0\n]\n"


class TestCanonicalText:
    PAYLOAD = {"b": [1, 2.5, None], "a": {"z": 1, "y": "s"}, "c": -0.0}

    def test_dumps_is_sorted_indent_one_with_newline(self):
        expected = json.dumps(self.PAYLOAD, indent=1, sort_keys=True) + "\n"
        assert dumps(self.PAYLOAD) == expected

    def test_write_json_writes_dumps(self, tmp_path):
        path = tmp_path / "out.json"
        write_json(path, self.PAYLOAD)
        assert path.read_text(encoding="utf-8") == dumps(self.PAYLOAD)
