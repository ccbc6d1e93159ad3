"""Deterministic CSV and JSON emission for profiles, surfaces, and scans.

Every float is rendered with 17 significant digits so round-tripping through
text is lossless and repeated runs produce byte-identical files. Files are
UTF-8 with LF line endings regardless of platform.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

__all__ = [
    "format_number",
    "profile_rows",
    "render_csv",
    "scan_rows",
    "surface_rows",
    "write_json",
    "write_text",
]


def format_number(x) -> str:
    """17-significant-digit decimal form; integral values lose the trailing .0."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def render_csv(header, rows) -> str:
    """CSV text with an LF after every line, header included; each cell is its format_number.

    Rows of one width are one %-format pass: a column of Python floats only takes "%.17g".
    """
    rows = [tuple(row) for row in rows]
    head = ",".join(header) + "\n"
    if len({len(row) for row in rows}) != 1:   # no rows, or rows of several widths
        return head + "".join(",".join(format_number(v) for v in row) + "\n" for row in rows)
    columns = list(zip(*rows))
    floats = [all(type(v) is float for v in column) for column in columns]
    columns = [c if f else [format_number(v) for v in c] for c, f in zip(columns, floats)]
    line = ",".join("%.17g" if f else "%s" for f in floats) + "\n"
    return head + line * len(rows) % tuple(v for row in zip(*columns) for v in row)


def profile_rows(grid, values):
    """(r, value) rows for a radial profile; header r,value."""
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values, dtype=float)
    if grid.shape != values.shape:
        raise ValueError("grid and values must have matching shapes")
    return list(zip(grid.tolist(), values.tolist()))


def surface_rows(x, y, values):
    """(x, y, value) rows in row-major x-then-y order; header x,y,value."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    values = np.asarray(values, dtype=float)
    if values.shape != (x.size, y.size):
        raise ValueError("values must be shaped (len(x), len(y))")
    rows = []
    for i, xv in enumerate(x.tolist()):
        for j, yv in enumerate(y.tolist()):
            rows.append((xv, yv, values[i, j]))
    return rows


def scan_rows(records):
    """(m, omega, Z, entropy) rows from EntropyScanRow-like records."""
    return [(row.m, row.omega, row.Z, row.entropy) for row in records]


def write_text(path, text: str) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return path


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def write_json(path, payload: dict) -> Path:
    """Sorted-key JSON; float rendering is repr-based and therefore stable."""
    text = json.dumps(payload, sort_keys=True, indent=2, default=_json_default)
    return write_text(path, text + "\n")
