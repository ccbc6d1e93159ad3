import math

import numpy as np
import pytest

from hookium.serialize import profile_rows, render_csv, scan_rows, surface_rows


def _reference_number(x):
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _reference_csv(header, rows):
    # the cell-by-cell rendering that the one-pass table format must reproduce byte for byte
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_reference_number(v) for v in row))
    return "\n".join(lines) + "\n"


EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e308, -1e308, 0.1, 1e16,
               1e17, 2.0**70, 1.0, -2.5, 1 / 3]


@pytest.mark.parametrize("header, rows", [
    pytest.param(("a",), [], id="no-rows"),
    pytest.param(("a", "b"), [(v, -v) for v in EDGE_FLOATS], id="float-edges"),
    pytest.param(("i", "x"), [(10**20, 1.5), (-3, math.nan), (0, -0.0)], id="int-column"),
    pytest.param(("k",), [(np.int64(-7),), (np.int64(2**62),)], id="np-int64"),
    pytest.param(("b", "x"), [(True, 0.25), (False, math.inf)], id="bool-column"),
    pytest.param(("x",), [(np.float64(v),) for v in EDGE_FLOATS], id="np-float64"),
    pytest.param(("x", "y"), [(np.float32(0.1), np.bool_(True)), (np.float32(-0.0), np.bool_(False))],
                 id="np-float32-and-bool"),
    pytest.param(("mixed", "f"), [(1, 0.5), (0.5, 1e308), (np.float64(2.0), 5e-324),
                                  (np.int64(3), -0.0), (True, math.nan), (10**20, -math.inf)],
                 id="mixed-columns"),
    pytest.param(("a", "b", "c"), [(1.0, 2.0), (3.0,), (4.0, 5.0, 6.0), ()], id="ragged"),
    pytest.param(("a", "b"), [(), ()], id="empty-rows"),
    pytest.param(("p%s", "x%%"), [(1.0, 2), (3.0, 4)], id="percent-in-header"),
])
def test_render_csv_matches_the_cell_by_cell_reference(header, rows):
    assert render_csv(header, rows) == _reference_csv(header, rows)
    assert render_csv(header, iter(rows)) == _reference_csv(header, rows)


def test_render_csv_matches_the_reference_on_every_table_kind():
    grid = np.linspace(0.0, 8.0, 513)
    values = np.exp(-grid) * np.sin(3.0 * grid)
    tables = [
        (("r", "value"), profile_rows(grid, values)),
        (("x", "y", "value"), surface_rows(grid[:7], grid[:5], np.outer(values[:7], values[:5]))),
        (("m", "omega", "Z", "entropy"),
         scan_rows([type("Row", (), dict(m=m, omega=1 / (m + 12), Z=-1.0, entropy=m + 0.5))
                    for m in range(5)])),
    ]
    for header, rows in tables:
        assert render_csv(header, rows) == _reference_csv(header, rows)
