"""Result records and tables for the benchmarking harness.

A :class:`ResultTable` is a light-weight column-oriented container (no
pandas available offline) that supports the operations the bench harness
needs: appending records, filtering, grouping, pivoting into the grid
layouts the paper's heatmaps use, and rendering aligned text tables.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any

__all__ = ["ResultRecord", "ResultTable"]


@dataclass(frozen=True)
class ResultRecord:
    """One benchmark measurement: identifying keys plus metric values."""

    keys: Mapping[str, Any]
    values: Mapping[str, float]

    def as_dict(self) -> dict[str, Any]:
        merged: dict[str, Any] = dict(self.keys)
        overlap = set(merged) & set(self.values)
        if overlap:
            raise ValueError(f"key/value name collision: {sorted(overlap)}")
        merged.update(self.values)
        return merged


@dataclass
class ResultTable:
    """An append-only collection of :class:`ResultRecord`.

    The table is intentionally tiny: it exists so that benches and the
    dashboard speak one format, and so EXPERIMENTS.md rows can be generated
    mechanically.
    """

    name: str = "results"
    records: list[ResultRecord] = field(default_factory=list)

    def add(self, keys: Mapping[str, Any], values: Mapping[str, float]) -> None:
        self.records.append(ResultRecord(dict(keys), dict(values)))

    def extend(self, other: "ResultTable") -> None:
        self.records.extend(other.records)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[ResultRecord]:
        return iter(self.records)

    def filter(self, **criteria: Any) -> "ResultTable":
        """Records whose keys match all ``criteria`` exactly."""
        out = ResultTable(name=self.name)
        for rec in self.records:
            if all(rec.keys.get(k) == v for k, v in criteria.items()):
                out.records.append(rec)
        return out

    def where(self, predicate: Callable[[ResultRecord], bool]) -> "ResultTable":
        out = ResultTable(name=self.name)
        out.records = [r for r in self.records if predicate(r)]
        return out

    def column(self, name: str) -> list[Any]:
        """Extract one column (searching keys first, then values)."""
        out: list[Any] = []
        for rec in self.records:
            if name in rec.keys:
                out.append(rec.keys[name])
            elif name in rec.values:
                out.append(rec.values[name])
            else:
                raise KeyError(f"column {name!r} missing from record {rec.keys}")
        return out

    def unique(self, name: str) -> list[Any]:
        """Distinct values of a column, in first-seen order."""
        seen: dict[Any, None] = {}
        for value in self.column(name):
            seen.setdefault(value, None)
        return list(seen)

    def single(self, value_name: str, **criteria: Any) -> float:
        """The unique value of ``value_name`` among records matching criteria."""
        matches = self.filter(**criteria)
        if len(matches) != 1:
            raise LookupError(
                f"expected exactly one record for {criteria}, found {len(matches)}"
            )
        return float(matches.records[0].values[value_name])

    def pivot(
        self, row_key: str, col_key: str, value_name: str
    ) -> tuple[list[Any], list[Any], list[list[float | None]]]:
        """Pivot to a 2-D grid (the paper's heatmap layout).

        Returns ``(row_labels, col_labels, grid)`` where ``grid[i][j]`` is the
        value at ``(row_labels[i], col_labels[j])`` or ``None`` if absent.
        Duplicate cells raise.
        """
        rows = self.unique(row_key)
        cols = self.unique(col_key)
        index = {(r, c): None for r in rows for c in cols}
        for rec in self.records:
            cell = (rec.keys[row_key], rec.keys[col_key])
            if index[cell] is not None:
                raise ValueError(f"duplicate cell {cell} in pivot of {self.name!r}")
            index[cell] = float(rec.values[value_name])
        grid = [[index[(r, c)] for c in cols] for r in rows]
        return rows, cols, grid

    def annotated(self, **extra_keys: Any) -> "ResultTable":
        """A copy with ``extra_keys`` merged into every record's keys.

        The way experiment tables get tagged before concatenation — e.g.
        stacking per-config replication tables into one sweep, or marking
        every row of a comparison with the configs it came from —
        without mutating the source table.  Colliding key names raise.
        """
        out = ResultTable(name=self.name)
        for rec in self.records:
            overlap = set(rec.keys) & set(extra_keys)
            if overlap:
                raise ValueError(
                    f"annotation collides with existing keys: {sorted(overlap)}"
                )
            out.records.append(
                ResultRecord({**rec.keys, **extra_keys}, rec.values)
            )
        return out

    # ------------------------------------------------------------------
    # Rendering / serialization
    # ------------------------------------------------------------------

    def to_dicts(self) -> list[dict[str, Any]]:
        return [rec.as_dict() for rec in self.records]

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(
            {"name": self.name, "records": self.to_dicts()},
            indent=indent,
            default=_json_default,
        )

    @classmethod
    def from_json(cls, payload: str) -> "ResultTable":
        data = json.loads(payload)
        table = cls(name=data["name"])
        # Round-trip loses the key/value split; treat floats as values.
        for row in data["records"]:
            keys = {k: v for k, v in row.items() if not isinstance(v, float)}
            values = {k: v for k, v in row.items() if isinstance(v, float)}
            table.add(keys, values)
        return table

    def render(
        self,
        columns: Sequence[str] | None = None,
        float_fmt: str = "{:,.1f}",
        max_rows: int | None = None,
    ) -> str:
        """Render an aligned plain-text table (bench harness output)."""
        if not self.records:
            return f"[{self.name}] (empty)"
        if columns is None:
            columns = list(self.records[0].keys) + list(self.records[0].values)
        rows: list[list[str]] = [list(columns)]
        shown = self.records if max_rows is None else self.records[:max_rows]
        for rec in shown:
            merged = rec.as_dict()
            cells = []
            for col in columns:
                value = merged.get(col, "")
                if isinstance(value, float):
                    cells.append(float_fmt.format(value))
                else:
                    cells.append(str(value))
            rows.append(cells)
        widths = [max(len(r[i]) for r in rows) for i in range(len(columns))]
        lines = []
        for i, row in enumerate(rows):
            lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
            if i == 0:
                lines.append("  ".join("-" * w for w in widths))
        return "\n".join(lines)


def _json_default(obj: Any) -> Any:
    if isinstance(obj, Iterable):
        return list(obj)
    return str(obj)
