"""ASCII table rendering for benches and EXPERIMENTS.md."""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Iterable
from typing import Any

__all__ = ["Table", "fmt"]


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

    def add_records(self, records: Iterable[Any]) -> None:
        """One row per dataclass record: its fields, in declaration order."""
        for record in records:
            self.add_row([getattr(record, f.name) for f in dataclasses.fields(record)])

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
