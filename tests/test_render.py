"""The array renderers against a per-entry reference.

``fmt.dumps``, ``fmt.csv_line``, ``fmt.render_table`` and the pretty complex
cells format each array in one pass. Here every entry is formatted on its own
by the reference in ``helpers``, over real and complex arrays of 0-3
dimensions, empty ones included, with -0.0, the smallest subnormal, values
near the largest double and integral floats among the entries.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import subens.cli as cli
from subens import fmt

from helpers import format_complex, format_float, reference_json, reference_table

RENDER_SETTINGS = settings(max_examples=150, deadline=None)

values = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.7e308, -1.7e308, 1.0, -2.0, 1e16, 0.1]),
    st.floats(allow_nan=False, allow_infinity=False),
)
shapes = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)


@st.composite
def complex_arrays(draw, shape=shapes):
    shape = draw(shape)
    z = np.empty(shape, dtype=complex)
    z.real = draw(hnp.arrays(float, shape, elements=values))
    z.imag = draw(hnp.arrays(float, shape, elements=values))
    return z


real_arrays = hnp.arrays(float, shapes, elements=values)
arrays = st.one_of(real_arrays, complex_arrays())
square_matrices = complex_arrays(st.integers(1, 4).map(lambda d: (d, d)))
tables = hnp.arrays(float, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0), elements=values)


def real_entries(a):
    """The real numbers that stand for a, a complex entry as re then im."""
    return np.ascontiguousarray(a).view(float) if np.iscomplexobj(a) else a


@RENDER_SETTINGS
@given(arrays)
def test_dumps(a):
    assert fmt.dumps(a) == reference_json(a)
    assert fmt.dumps({"a": a}) == '{\n  "a": ' + reference_json(a, 1) + "\n}"
    if not np.iscomplexobj(a):
        assert fmt.dumps(a.tolist()) == reference_json(a)


@RENDER_SETTINGS
@given(arrays, values)
def test_csv_line(a, x):
    cells = ["label", real_entries(a), 3, True, x]
    expected = ["label"] + [format_float(v) for v in real_entries(a).ravel()]
    assert fmt.csv_line(cells) == ",".join(expected + ["3", "true", format_float(x)])


@RENDER_SETTINGS
@given(tables, values)
def test_render_table(a, x):
    header = ["q"] + [f"c{j}" for j in range(a.shape[1])] + ["x"]
    labels = [f"r{i}" for i in range(len(a))]
    rows = [row + [x] for row in fmt.labelled_rows(labels, a)]
    expected = [[label, *row, x] for label, row in zip(labels, a.tolist())]
    assert fmt.render_table(header, rows) == reference_table(header, expected)


@RENDER_SETTINGS
@given(complex_arrays())
def test_complex_cells(z):
    assert fmt.complex_cells(z) == [format_complex(v) for v in z.ravel()]


@RENDER_SETTINGS
@given(square_matrices)
def test_pretty_ket_and_matrix(m):
    assert cli._ket_text(m[0]) == "(" + ", ".join(format_complex(v) for v in m[0]) + ")"
    cells = [[format_complex(v) for v in row] for row in m]
    width = max(len(c) for row in cells for c in row)
    assert cli._matrix_lines(m) == ["  " + "  ".join(c.rjust(width) for c in row) for row in cells]


@RENDER_SETTINGS
@given(arrays.filter(lambda a: a.size > 0), st.data())
def test_non_finite_entry_is_named(a, data):
    bad = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    index = data.draw(st.integers(0, a.size - 1))
    a = a.copy()
    flat = a.reshape(-1)
    if np.iscomplexobj(a) and data.draw(st.booleans()):
        flat.imag[index] = bad
    else:
        flat.real[index] = bad
    message = "^" + re.escape(f"cannot serialize non-finite value {bad}") + "$"
    with pytest.raises(ValueError, match=message):
        fmt.dumps(a)
    with pytest.raises(ValueError, match=message):
        fmt.csv_line([real_entries(a)])
    with pytest.raises(ValueError, match=message):
        fmt.render_table(["x"], [["x", real_entries(a)]])
    if np.iscomplexobj(a):
        with pytest.raises(ValueError, match=message):
            fmt.complex_cells(a)
