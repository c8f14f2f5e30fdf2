"""Karnaugh-map grids for placements: text/CSV/JSON rendering and diffing."""

from __future__ import annotations

import csv
import io
from operator import itemgetter

from .kcode import GrayLayout, default_layout, _Value
from .placement import Placement, forbidden_squares
from .codec import build_tables

__all__ = ["MapGrid", "CellDiff", "render_map", "diff_grids",
           "grid_to_text", "grid_to_csv", "grid_to_json", "grid_from_csv",
           "ZERO_LABEL", "FORBIDDEN_MARK"]

ZERO_LABEL = "N"
FORBIDDEN_MARK = "f"


class MapGrid(_Value):
    """A map's labeled squares by (row, col) position in its layout:
    ``cells`` maps (row, col) to a label, and an unlabeled square is
    absent."""

    _fields = ("layout", "cells")

    def label_at(self, row: int, col: int) -> str:
        return self.cells.get((row, col), "")


def _by_position(cells: dict) -> list[tuple[tuple[int, int], str]]:
    """The cells' items by (row, col); positions are unique, so labels are
    never compared."""
    return sorted(cells.items(), key=itemgetter(0))


def render_map(p: Placement, include_triples: bool = False,
               forbidden_for: tuple[int, int] | None = None,
               layout: GrayLayout | None = None) -> MapGrid:
    """Grid of canonical pattern labels for a valid placement.

    The zero square is labeled "N".  With `include_triples` the covered
    three-bit patterns are labeled too.  `forbidden_for` = (i, j) marks the
    squares forbidden to a further data bit by the placed pair (X_i, X_j)
    with "f" (1-indexed into the placement's data list).  The layout and
    the pair are checked before the placement's validity.
    """
    layout = layout or default_layout(p.n)
    if layout.n != p.n:
        raise ValueError(f"layout has width {layout.n} but the placement has width {p.n}")
    if forbidden_for is not None:
        i, j = forbidden_for
        if not (1 <= i <= p.d and 1 <= j <= p.d and i != j):
            raise ValueError(f"forbidden_for wants two distinct data indices in "
                             f"[1, {p.d}], got {i},{j}")
    table = build_tables(p, include_triples).decode
    rows, cols = layout._axes
    row_at, row_mask, col_at, col_mask = rows.index, rows.mask, cols.index, cols.mask
    cells = {(0, 0): ZERO_LABEL}     # square 0, the empty pattern's, is the origin
    for code, pat in table.items():
        cells[row_at[code & row_mask], col_at[code & col_mask]] = pat.label
    if forbidden_for is not None:
        for code in forbidden_squares(p.data[i - 1], p.data[j - 1], p.n):
            if code not in table:
                cells[layout.to_grid(code)] = FORBIDDEN_MARK
    return MapGrid(layout, cells)


class CellDiff(_Value):
    """One square labeled differently in two grids, with both labels."""

    _fields = ("row", "col", "a", "b")


def diff_grids(a: MapGrid, b: MapGrid) -> tuple[CellDiff, ...]:
    """Cell-level differences; empty means identical."""
    if (a.layout.row_count, a.layout.col_count) != (b.layout.row_count, b.layout.col_count):
        raise ValueError("grid dimensions differ")
    if a.cells == b.cells:
        return ()
    out = []
    for key in sorted(set(a.cells) | set(b.cells)):
        va, vb = a.cells.get(key, ""), b.cells.get(key, "")
        if va != vb:
            out.append(CellDiff(key[0], key[1], va, vb))
    return tuple(out)


def grid_to_text(grid: MapGrid) -> str:
    """Fixed-width table with Gray-coded row/column headers."""
    lay = grid.layout
    rows, cols = lay._axes
    head = "rows " + " ".join(f"s{k}" for k in lay.row_vars) \
         + " | cols " + " ".join(f"s{k}" for k in lay.col_vars)
    width = max([len(v) for v in grid.cells.values()] + [len(cols.labels[0])]) + 1
    lines = [head]
    corner = " " * (len(rows.labels[0]) + 1)
    lines.append(corner + "".join(label.ljust(width) for label in cols.labels))
    for r, row_label in enumerate(rows.labels):
        row = row_label + " "
        row += "".join(grid.label_at(r, c).ljust(width) for c in range(lay.col_count))
        lines.append(row.rstrip())
    return "\n".join(lines) + "\n"


def _quoted(label: str) -> str:
    return '"' + label.replace('"', '""') + '"'


def grid_to_csv(grid: MapGrid) -> str:
    """One line per labeled cell, by (row, column): its Gray row and column
    labels and its label, under the header row,col,label.  Lines end in
    CRLF, and a label holding a comma, a quote or a line break is quoted, as
    the csv module's default dialect writes them."""
    rows, cols = grid.layout._axes
    row_labels, col_labels = rows.labels, cols.labels
    return "".join(["row,col,label\r\n"] + [
        f"{row_labels[r]},{col_labels[c]},{_quoted(label)}\r\n"
        if "," in label or '"' in label or "\r" in label or "\n" in label
        else f"{row_labels[r]},{col_labels[c]},{label}\r\n"
        for (r, c), label in _by_position(grid.cells)])


def grid_to_json(grid: MapGrid) -> dict:
    """Cells keyed by the integer K-code of the square."""
    lay = grid.layout
    cells = {str(lay.from_grid(r, c)): label for (r, c), label in _by_position(grid.cells)}
    return {"layout": lay.to_json(), "cells": cells}


def grid_from_csv(text: str, layout: GrayLayout) -> MapGrid:
    rows, cols = layout._axes
    row_at, col_at = rows.by_label, cols.by_label
    cells = {}
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != ["row", "col", "label"]:
        raise ValueError("grid CSV must start with header row,col,label")
    for rowbits, colbits, label in reader:
        r, c = row_at.get(rowbits), col_at.get(colbits)
        if r is None or c is None:
            raise ValueError(f"cell ({rowbits}, {colbits}) does not fit the layout")
        cells[r, c] = label
    return MapGrid(layout, cells)
