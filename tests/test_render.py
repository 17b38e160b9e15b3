"""The array renderers against a per-entry reference.

``fmt.dumps``, ``fmt.csv_line``, ``fmt.render_table`` and the pretty complex
cells format each array in one pass. Here every entry is formatted on its own
by the reference in ``helpers``, over real and complex arrays of 0-3
dimensions, empty ones included, with -0.0, the smallest subnormal, values
near the largest double and integral floats among the entries.

A JSON or CSV document of ``fmt.CROSSOVER`` numbers or more is printed by the
vectorized 17-digit kernel, a smaller one by ``%``. The properties run on both
paths, the kernel's with the crossover lowered to 1, and a seeded sweep and a
property over arbitrary doubles hold the kernel to ``'%.17g' % x`` directly.
"""

import contextlib
import json
import re
import tracemalloc

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


@contextlib.contextmanager
def printed_by(crossover):
    """Print the documents of the block by the path whose crossover is given."""
    saved, fmt.CROSSOVER = fmt.CROSSOVER, crossover
    try:
        yield
    finally:
        fmt.CROSSOVER = saved


def both_paths():
    """Run the block once by % (a document this small) and once by the kernel."""
    for crossover in (fmt.CROSSOVER, 1):
        with printed_by(crossover):
            yield


def real_entries(a):
    """The real numbers that stand for a, a complex entry as re then im."""
    return np.ascontiguousarray(a).view(float) if np.iscomplexobj(a) else a


@RENDER_SETTINGS
@given(arrays)
def test_dumps(a):
    for _ in both_paths():
        assert fmt.dumps(a) == reference_json(a)
        assert fmt.dumps({"a": a}) == '{\n  "a": ' + reference_json(a, 1) + "\n}"
        if not np.iscomplexobj(a):
            assert fmt.dumps(a.tolist()) == reference_json(a)


@RENDER_SETTINGS
@given(arrays, values)
def test_csv_line(a, x):
    cells = ["label", real_entries(a), 3, True, x]
    expected = ["label"] + [format_float(v) for v in real_entries(a).ravel()]
    line = ",".join(expected + ["3", "true", format_float(x)])
    for _ in both_paths():
        assert fmt.csv_line(cells) == line
        three = "\n".join([line, "%s," + format_float(x), line])
        assert fmt.csv_line(cells, ["%s", x], cells) == three


@RENDER_SETTINGS
@given(tables, values)
def test_render_table(a, x):
    header = ["q"] + [f"c{j}" for j in range(a.shape[1])] + ["x"]
    labels = [f"r{i}" for i in range(len(a))]
    rows = [[label, row, x] for label, row in zip(labels, a)]
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
    for _ in both_paths():
        with pytest.raises(ValueError, match=message):
            fmt.dumps(a)
        with pytest.raises(ValueError, match=message):
            fmt.csv_line([real_entries(a)])
    with pytest.raises(ValueError, match=message):
        fmt.render_table(["x"], [["x", real_entries(a)]])
    if np.iscomplexobj(a):
        with pytest.raises(ValueError, match=message):
            fmt.complex_cells(a)


def test_non_finite_scalar_cell_is_named():
    with pytest.raises(ValueError) as exc:
        fmt.csv_line(["a", 1, float("nan")])
    assert str(exc.value) == "cannot serialize non-finite value nan"


def test_object_without_json_form_is_refused():
    with pytest.raises(TypeError) as exc:
        fmt.dumps({"a": object()})
    assert str(exc.value) == "cannot serialize object"


def test_empty_object_and_list():
    assert fmt.dumps({"a": {}, "b": []}) == '{\n  "a": {},\n  "b": []\n}'
    assert fmt.dumps({}) == "{}"


def test_first_non_finite_entry_in_order_is_named():
    later = np.array([[1.0, 2.0], [np.inf, np.nan]])
    doc = {"a": [0.5, -0.0], "b": {"c": later, "d": -np.inf}, "e": np.nan}
    for _ in both_paths():
        with pytest.raises(ValueError) as exc:
            fmt.dumps(doc)
        assert str(exc.value) == "cannot serialize non-finite value inf"
        with pytest.raises(ValueError) as exc:
            fmt.csv_line(["x", 1.0, later[0]], [later[1], -np.inf])
        assert str(exc.value) == "cannot serialize non-finite value inf"
        # whichever of a non-finite number and an object without JSON form comes first
        with pytest.raises(ValueError):
            fmt.dumps([later, object()])
        with pytest.raises(TypeError):
            fmt.dumps([object(), later])


# numpy scalars print as their Python counterparts, in every renderer
SCALARS = [
    (np.True_, True),
    (np.False_, False),
    (np.int64(3), 3),
    (np.int8(-7), -7),
    (np.uint64(2**63 + 1), 2**63 + 1),
    (np.int64(2**62 + 1), 2**62 + 1),
    (np.float64(0.1), 0.1),
    (np.float32(0.1), float(np.float32(0.1))),
    (np.float64(-0.0), -0.0),
]


@pytest.mark.parametrize(("scalar", "python"), SCALARS, ids=[repr(s) for s, _ in SCALARS])
def test_numpy_scalars_print_as_python_ones(scalar, python):
    for _ in both_paths():
        assert fmt.dumps({"a": scalar}) == fmt.dumps({"a": python})
        assert fmt.dumps([scalar, "x"]) == fmt.dumps([python, "x"])
        assert fmt.csv_line(["a", scalar]) == fmt.csv_line(["a", python])
        if not isinstance(python, bool):
            assert fmt.dumps([scalar, 1.5]) == fmt.dumps([python, 1.5])


def test_numpy_scalars_print_their_values():
    assert fmt.dumps({"a": np.int64(3), "b": np.True_}) == '{\n  "a": 3,\n  "b": true\n}'
    assert fmt.csv_line([np.True_, np.int64(2**62 + 1), np.float32(0.5)]) == (
        "true,4611686018427387905,0.5"
    )


def sweep():
    """Doubles where a 17-digit printer goes wrong first: random bit patterns,
    every decimal exponent, powers of ten and the doubles around them, 53-bit
    integers scaled by 2^±80, subnormals, the extremes, both zeros, and the
    switches of %g's style at 1e-5/1e-4 and 1e16/1e17."""
    rng = np.random.default_rng(20261019)
    bits = rng.integers(0, 2**64, size=20000, dtype=np.uint64).view(float)
    decades = [float(f"{m}e{e}") for e in range(-324, 309) for m in (1.5, 2.25, 9.875, 7.1)]
    tens = np.array([float(f"1e{e}") for e in range(-323, 309)])
    around = (tens.view(np.int64)[:, None] + np.arange(-9, 10)).ravel().view(float)
    ints = rng.integers(-(2**53), 2**53, size=2000).astype(float)
    subnormal = rng.integers(1, 2**52, size=500, dtype=np.uint64).view(float)
    edges = [5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
    edges += [-1.7976931348623157e308, 0.0, -0.0, 0.5, 2.0**-25, 1.0, 123456789012345680.0]
    switches = np.array([1e-5, 1e-4, 1e16, 1e17])
    switches = (switches.view(np.int64)[:, None] + np.arange(-40, 41)).ravel().view(float)
    every = np.concatenate(
        [bits, decades, around, ints * 2.0**80, ints * 2.0**-80, subnormal, edges, switches]
    )
    every = every[np.isfinite(every)]
    return np.concatenate([every, -every])


def test_kernel_prints_every_double_as_percent():
    x = sweep()
    assert len(x) > fmt.CROSSOVER
    expected = ["%.17g" % (v + 0.0) for v in x.tolist()]  # -0.0 prints as 0
    assert fmt.dumps(x)[1:-1].split(", ") == expected
    assert fmt.csv_line([x]).split(",") == expected
    # the text between the numbers, wider than any row takes, spliced in
    assert fmt.csv_line(*([f"{i:40d}", v] for i, v in enumerate(x[:5000]))).split("\n") == [
        f"{i:40d},{t}" for i, t in enumerate(expected[:5000])
    ]


def test_text_between_numbers_is_kept_whole():
    # a NUL, which the compaction would drop, and characters of several UTF-8 bytes
    x = np.random.default_rng(7).normal(size=2 * fmt.CROSSOVER)
    for label in ("l\0b", "é", "%s", "\0" * 40):
        rows = [[label, "ü" * (i % 5), v] for i, v in enumerate(x)]
        expected = "\n".join(
            f"{label},{'ü' * (i % 5)}," + format_float(v) for i, v in enumerate(x.tolist())
        )
        for _ in both_paths():
            assert fmt.csv_line(*rows) == expected
            assert fmt.dumps({label: x}) == fmt.dumps({"k": x}).replace('"k"', json.dumps(label), 1)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
def test_kernel_prints_any_doubles_as_percent(xs):
    x = np.resize(np.array(xs), fmt.CROSSOVER + len(xs))
    assert fmt.dumps(x)[1:-1].split(", ") == ["%.17g" % (v + 0.0) for v in x.tolist()]


def test_kernel_tables_are_read_only():
    for table in fmt._tables():
        assert not table.flags.writeable


def test_kernel_memory_is_bounded():
    """The kernel works in blocks, so a large document needs, beside its
    text twice over while the blocks are joined, less than the 2.6 MB that a
    tuple of its 82k numbers as Python floats takes."""
    assert fmt._BLOCK <= 16384
    rng = np.random.default_rng(5)
    q = np.linalg.qr(rng.normal(size=(128, 128)) + 1j * rng.normal(size=(128, 128)))[0]
    doc = {"basisA": q.T, "basisB": q.T, "q": rng.normal(size=(128, 128)) / 128}
    fmt.dumps(doc)
    tracemalloc.start()
    try:
        text = fmt.dumps(doc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - 2 * len(text) < 2.6e6
