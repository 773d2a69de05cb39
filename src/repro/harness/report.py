"""ASCII table rendering for benches and EXPERIMENTS.md."""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Iterable
from typing import Any

__all__ = ["Table", "col", "columns", "fmt", "key_values"]


def col(header: str, digits: int | None = None, blank: str | None = None, **field_options):
    """A dataclass field that is also a table column: its header, the
    rounding the table (never the JSON) applies, and what ``None`` shows as."""
    return dataclasses.field(
        metadata={"header": header, "digits": digits, "blank": blank}, **field_options
    )


def columns(record_type) -> list[dataclasses.Field]:
    """The :func:`col` fields of a dataclass (or instance), in declaration order."""
    return [f for f in dataclasses.fields(record_type) if "header" in f.metadata]


def key_values(record) -> list[list]:
    """One ``[header, value]`` line per :func:`col` field of *record*."""
    return [[f.metadata["header"], getattr(record, f.name)] for f in columns(record)]


def fmt(value: Any) -> str:
    """Render one cell: floats get 3 significant figures past the point."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if not math.isfinite(value):
            # int(inf) raises OverflowError and int(nan) raises
            # ValueError; a diverged metric must still render (P1/P2:
            # show the explicit error, don't crash the table).
            return str(value)  # 'inf', '-inf', or 'nan'
        if value == int(value) and abs(value) < 1e9:
            return str(int(value))
        return f"{value:.3f}"
    return str(value)


class Table:
    """A minimal fixed-width table: headers, rows, render()."""

    def __init__(self, headers: list[str], rows: list[list[Any]] | None = None, title: str = ""):
        self.title = title
        self.headers = list(headers)
        self.rows: list[list[str]] = []
        self.footers: list[str] = []
        for row in rows or []:
            self.add_row(row)

    def add_row(self, row: list[Any]) -> None:
        if len(row) != len(self.headers):
            raise ValueError(
                f"row has {len(row)} cells, table has {len(self.headers)} columns"
            )
        self.rows.append([fmt(cell) for cell in row])

    @classmethod
    def of_records(cls, record_type, records: Iterable[Any], title: str = "") -> Table:
        """One column per :func:`col` field of *record_type*, one row per record."""
        cols = columns(record_type)
        table = cls([f.metadata["header"] for f in cols], title=title)
        for record in records:
            cells = []
            for f in cols:
                value = getattr(record, f.name)
                if value is None:
                    value = f.metadata["blank"]
                elif f.metadata["digits"] is not None:
                    value = round(value, f.metadata["digits"])
                cells.append(value)
            table.add_row(cells)
        return table

    def add_footer(self, text: str) -> None:
        """Append a free-form footer line (timings, provenance notes)."""
        self.footers.append(str(text))

    def render(self) -> str:
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))

        def line(cells: list[str]) -> str:
            return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()

        rule = "-" * (sum(widths) + 2 * (len(widths) - 1))
        out = []
        if self.title:
            out.append(self.title)
        out.append(line(self.headers))
        out.append(rule)
        out.extend(line(row) for row in self.rows)
        if self.footers:
            out.append(rule)
            out.extend(self.footers)
        return "\n".join(out)

    def __str__(self) -> str:
        return self.render()
