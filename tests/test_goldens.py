"""Every committed golden under ``tests/data/`` equals, byte for byte,
what its renderer in :mod:`tests.goldens` produces today.

After an intended change, regenerate with
    PYTHONPATH=src python -m tests.goldens render
and paste the report of ``python -m tests.goldens explain`` (run before
regenerating) into CHANGES.md.
"""

from __future__ import annotations

import json
import math
import shutil

import pytest

from repro.core.jsonio import dumps
from tests.goldens import DATA_DIR, GOLDENS, describe, explain


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_matches_committed(name):
    committed = (DATA_DIR / name).read_bytes()
    rendered = GOLDENS[name]()
    assert rendered.encode("utf-8") == committed, "\n".join(
        describe(name, committed.decode("utf-8"), rendered)
    )


def test_every_committed_file_has_one_entry():
    committed = {
        path.relative_to(DATA_DIR).as_posix()
        for path in DATA_DIR.rglob("*")
        if path.is_file()
    }
    assert committed == set(GOLDENS)


def test_explain_names_moved_fields_and_lines(tmp_path, capsys):
    json_name = "metrics/engine-traced.json"
    html_name = "dashboard/optimize-infeasible.html"
    for name in (json_name, html_name):
        (tmp_path / name).parent.mkdir(parents=True)
        shutil.copy(DATA_DIR / name, tmp_path / name)
    assert explain([json_name, html_name], tmp_path)
    assert capsys.readouterr().out.endswith("goldens moved: 0 of 2\n")

    payload = json.loads((DATA_DIR / json_name).read_text(encoding="utf-8"))
    gauge = payload["gauges"]["kv_occupancy"]
    rendered = gauge["time_weighted_mean"]
    gauge["time_weighted_mean"] = math.nextafter(math.nextafter(rendered, 0), 0)
    committed = gauge["time_weighted_mean"]
    (tmp_path / json_name).write_text(dumps(payload), encoding="utf-8")
    html = (DATA_DIR / html_name).read_text(encoding="utf-8").splitlines(True)
    html[2] = "<p>edited</p>\n"
    (tmp_path / html_name).write_text("".join(html), encoding="utf-8")

    assert not explain([json_name, html_name], tmp_path)
    out = capsys.readouterr().out.splitlines()
    assert out == [
        f"{json_name}: fields moved: 1, largest ulp: 2, largest relative: "
        f"{(rendered - committed) / committed:.3g}",
        f"  $.gauges.kv_occupancy.time_weighted_mean: {committed!r} -> "
        f"{rendered!r} (2 ulp)",
        f"{html_name}: lines differing: 1, first at line 3",
        "goldens moved: 2 of 2",
    ]
