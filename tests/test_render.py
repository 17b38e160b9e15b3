"""The array renderers against a per-entry reference.

``fmt.dumps``, ``fmt.csv_line``, ``fmt.render_table`` and the pretty complex
cells format each array in one pass. Here every entry is formatted on its own
by the reference in ``helpers``, over real and complex arrays of 1-3
dimensions with at least one entry, the only arrays the renderers print, with
-0.0, the smallest subnormal, values near the largest double and integral
floats among the entries. A complex array prints as its re then im in CSV
too, and an array of any other dtype is refused.

JSON and CSV print each double through orjson as the shortest decimal that
reads back as it. The reference spells ``repr``'s digits by the rule that the
README states, so the properties pin orjson's digits and spelling as well as
the layout. A seeded sweep of about 357k doubles and a property over
arbitrary doubles hold every printed token to that rule directly, as
``test_parser.py`` holds orjson's parsing to json's.
"""

import functools
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

from helpers import format_complex, format_float, reference_json, reference_table, shortest

RENDER_SETTINGS = settings(max_examples=150, deadline=None)

values = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 5e-324, -5e-324, 1.7e308, -1.7e308, 1.0, -2.0, 1e16, 0.1, 1e-5, 9.9e-6]
    ),
    st.floats(allow_nan=False, allow_infinity=False),
)
shapes = hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=4)


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
tables = hnp.arrays(float, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1), elements=values)


def real_entries(a):
    """The real numbers that stand for a, a complex entry as re then im, as a
    real grid that render_table takes."""
    return np.ascontiguousarray(a).view(float) if np.iscomplexobj(a) else a


@RENDER_SETTINGS
@given(arrays)
def test_dumps(a):
    assert fmt.dumps(a) == reference_json(a)
    assert fmt.dumps({"a": a}) == '{\n  "a": ' + reference_json(a, 1) + "\n}"
    # the transpose is not C-contiguous, which orjson refuses to read
    assert fmt.dumps(a.T) == reference_json(a.T)


@RENDER_SETTINGS
@given(arrays, values)
def test_csv_line(a, x):
    cells = ["label", a, 3, True, x]
    # an array cell stands for its entries, a complex one for its re then its im
    parts = [[v.real, v.imag] if np.iscomplexobj(a) else [v] for v in a.ravel().tolist()]
    expected = ["label"] + [format_float(v) for part in parts for v in part]
    line = ",".join(expected + ["3", "true", format_float(x)])
    assert fmt.csv_line(cells) == line
    three = "\n".join([line, "%s," + format_float(x), line])
    assert fmt.csv_line(cells, ["%s", x], cells) == three


@RENDER_SETTINGS
@given(tables)
def test_render_table(a):
    header = ["q"] + [f"c{j}" for j in range(a.shape[1])]
    labels = [f"r{i}" for i in range(len(a))]
    expected = [[label, *row] for label, row in zip(labels, a.tolist())]
    assert fmt.render_table(header, labels, a) == reference_table(header, expected)


@RENDER_SETTINGS
@given(complex_arrays())
def test_complex_csv_cell_prints_the_pairs_of_json(z):
    pairs = np.array(json.loads(fmt.dumps(z)))
    assert pairs.shape == z.shape + (2,)
    cells = np.array([float(t) for t in fmt.csv_line([z]).split(",")])
    # the same doubles, bit for bit and in the same order
    assert cells.view(np.uint64).tolist() == pairs.ravel().view(np.uint64).tolist()


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
        fmt.dumps({"a": [1.0, a]})
    with pytest.raises(ValueError, match=message):
        fmt.csv_line(["x", a])
    row = real_entries(a).reshape(1, -1)
    with pytest.raises(ValueError, match=message):
        fmt.render_table(["x"] + ["c"] * row.size, ["x"], row)
    if np.iscomplexobj(a):
        with pytest.raises(ValueError, match=message):
            fmt.complex_cells(a)


# orjson prints a non-finite float as null, and Python's json as NaN or Infinity
NON_FINITE = [float("nan"), float("inf"), float("-inf"), np.float64("nan"), np.float32("inf")]


@pytest.mark.parametrize("bad", NON_FINITE, ids=repr)
def test_non_finite_scalar_is_named_and_nothing_prints(bad):
    message = f"cannot serialize non-finite value {float(bad)}"
    documents = [
        lambda: fmt.dumps(bad),
        lambda: fmt.dumps({"a": bad}),
        lambda: fmt.dumps(["x", bad]),
        lambda: fmt.dumps([1.0, bad]),
        lambda: fmt.csv_line(["a", 1, bad]),
        lambda: fmt.csv_line(["a"], [np.array([0.5, bad])]),
        lambda: fmt.format_float(bad),
    ]
    for document in documents:
        with pytest.raises(ValueError) as exc:
            document()
        assert str(exc.value) == message


def test_non_finite_scalar_cell_is_named():
    with pytest.raises(ValueError) as exc:
        fmt.csv_line(["a", 1, float("nan")])
    assert str(exc.value) == "cannot serialize non-finite value nan"


def test_object_without_json_form_is_refused():
    with pytest.raises(TypeError) as exc:
        fmt.dumps({"a": object()})
    assert str(exc.value) == "cannot serialize object"


# the renderers print an array only if it has at least one axis and one entry, and
# only a float or complex one
ARRAY, NO_ENTRIES = "cannot serialize ndarray", "cannot serialize an array with no entries"
OTHER_DTYPES = {
    "int64": np.array([[1, 2**60 + 1]], dtype=np.int64),  # 2**60 + 1 is no double
    "bool": np.array([[True, False]]),
    "object": np.array([[0.5, 1]], dtype=object),
}
REFUSED = {
    "dumps-0d": (lambda: fmt.dumps(np.array(0.5)), ARRAY),
    "dumps-0d-complex": (lambda: fmt.dumps(np.array(1j)), ARRAY),  # not an [re, im] pair
    "dumps-empty": (lambda: fmt.dumps(np.zeros(0)), ARRAY),
    "dumps-nested-empty": (lambda: fmt.dumps({"a": [1, np.zeros((2, 0), dtype=complex)]}), ARRAY),
    "csv-empty": (lambda: fmt.csv_line(["a", np.zeros(0)]), ARRAY),
    "csv-0d": (lambda: fmt.csv_line(["a"], [np.array(0.5)]), ARRAY),
    "csv-none": (lambda: fmt.csv_line(["a", None]), "cannot serialize NoneType"),
    "complex-cells-empty": (lambda: fmt.complex_cells(np.zeros(0)), NO_ENTRIES),
    "table-empty": (lambda: fmt.render_table(["q"], [], np.zeros((0, 1))), NO_ENTRIES),
}
for name, grid in OTHER_DTYPES.items():
    message = f"cannot serialize an array of {name}"
    REFUSED[f"dumps-{name}"] = (lambda g=grid: fmt.dumps({"a": [1.0, g]}), message)
    REFUSED[f"csv-{name}"] = (lambda g=grid: fmt.csv_line(["a", g[0]]), message)
    REFUSED[f"table-{name}"] = (lambda g=grid: fmt.render_table(["q", "c", "d"], ["r"], g), message)


@pytest.mark.parametrize("case", REFUSED)
def test_array_without_an_axis_or_an_entry_is_refused(case):
    document, message = REFUSED[case]
    with pytest.raises(TypeError) as exc:
        document()
    assert str(exc.value) == message


def test_empty_object_and_list():
    assert fmt.dumps({"a": {}, "b": []}) == '{\n  "a": {},\n  "b": []\n}'
    assert fmt.dumps({}) == "{}"


def test_integer_lists_print_as_integers():
    # as the outcome indices of table's outcomes and verify's negatives
    doc = {"a": [1, 3], "b": (np.int64(2), 2**70), "d": [[1, 2], [3, 4]]}
    assert fmt.dumps(doc) == (
        '{\n  "a": [1, 3],\n  "b": [2, 1180591620717411303424],\n'
        '  "d": [\n    [1, 2],\n    [3, 4]\n  ]\n}'
    )


def test_first_non_finite_entry_in_order_is_named():
    later = np.array([[1.0, 2.0], [np.inf, np.nan]])
    doc = {"a": [0.5, -0.0], "b": {"c": later, "d": -np.inf}, "e": np.nan}
    with pytest.raises(ValueError) as exc:
        fmt.dumps(doc)
    assert str(exc.value) == "cannot serialize non-finite value inf"
    with pytest.raises(ValueError) as exc:
        fmt.csv_line(["x", 1.0, later[0]], [later[1], -np.inf])
    assert str(exc.value) == "cannot serialize non-finite value inf"
    # whichever of a non-finite number and an object without JSON form comes first
    for bad in (later, np.nan, [0.5, -np.inf]):
        with pytest.raises(ValueError) as exc:
            fmt.dumps([bad, object()])
        assert str(exc.value).startswith("cannot serialize non-finite value ")
        with pytest.raises(ValueError):
            fmt.dumps({"a": {"b": bad}, "c": object()})
        with pytest.raises(TypeError) as exc:
            fmt.dumps([object(), bad])
        assert str(exc.value) == "cannot serialize object"


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


# The spelling rule, as the README states it: fixed notation with a digit on
# each side of the point for 1e-5 <= |x| < 1e16, otherwise one digit, an
# optional fraction and an exponent with neither "+" nor leading zeros.
FIXED = re.compile(r"-?(?:0|[1-9][0-9]*)\.(?:0|[0-9]*[1-9])")
EXPONENT = re.compile(r"-?[1-9](?:\.[0-9]*[1-9])?e-?[1-9][0-9]*")
ZERO = "0.0"


def significant_digits(tokens: list) -> np.ndarray:
    """The digits of each decimal token from its first to its last nonzero one."""
    mantissas = (t.partition("e")[0].replace(".", "").lstrip("-0").rstrip("0") for t in tokens)
    return np.fromiter(map(len, mantissas), int, len(tokens))


def spelling_faults(x: np.ndarray, tokens: list) -> list:
    """(x, token) for each printed token of x that does not read back as
    x bit for bit (-0.0 as 0.0), has more significant digits than repr, or
    breaks the spelling rule; at most ten."""
    x = x + 0.0
    assert len(tokens) == len(x)
    back = np.fromiter(map(float, tokens), float, len(x))
    longer = significant_digits(tokens) > significant_digits(list(map(repr, x.tolist())))
    faults = [np.flatnonzero(back.view(np.uint64) != x.view(np.uint64)), np.flatnonzero(longer)]
    tokens = np.array(tokens, dtype=object)
    fixed = (np.abs(x) >= 1e-5) & (np.abs(x) < 1e16)
    for rule, where in ((FIXED, fixed), (EXPONENT, (x != 0) & ~fixed)):
        # one match over all tokens of a kind; token by token only to name a fault
        if not re.fullmatch(f"{rule.pattern}(?:,{rule.pattern})*", ",".join(tokens[where])):
            faults.append([i for i in np.flatnonzero(where) if not rule.fullmatch(tokens[i])])
    faults.append(np.flatnonzero((x == 0) & (tokens != ZERO)))
    return [(x[i], tokens[i]) for i in np.concatenate(faults).astype(int)[:10]]


@functools.cache
def sweep():
    """About 357k doubles: random bit patterns, random magnitudes from 1e-310
    to 1e308, the doubles around each power of ten, 53-bit integers scaled by
    2^±80, subnormals, the extremes, both zeros, and the edges of the fixed
    notation at 1e-5 and 1e16 with the doubles around them; each with both
    signs."""
    rng = np.random.default_rng(20261019)
    bits = rng.integers(0, 2**64, size=80000, dtype=np.uint64).view(float)
    magnitudes = 10.0 ** rng.uniform(-310, 308.25, size=80000)
    tens = np.array([float(f"1e{e}") for e in range(-323, 309)])
    around = (tens.view(np.int64)[:, None] + np.arange(-9, 10)).ravel().view(float)
    ints = rng.integers(-(2**53), 2**53, size=2000).astype(float)
    subnormal = rng.integers(1, 2**52, size=2000, dtype=np.uint64).view(float)
    edges = [1e-5, 9.999999999999999e-6, 1e16, 5e-324, 2.2250738585072014e-308]
    edges += [1.7976931348623157e308, -0.0, 0.0, 0.5, 1.0, 123456789012345680.0]
    switches = np.array([1e-5, 1e16])
    switches = (switches.view(np.int64)[:, None] + np.arange(-200, 201)).ravel().view(float)
    every = np.concatenate(
        [bits, magnitudes, around, ints * 2.0**80, ints * 2.0**-80, subnormal, edges, switches]
    )
    every = every[np.isfinite(every)]
    return np.concatenate([every, -every])


def test_sweep_covers_every_kind_of_double():
    x = sweep()
    assert len(x) >= 350_000
    edges = [1e-5, 9.999999999999999e-6, 1e16, 5e-324, 2.2250738585072014e-308]
    edges += [1.7976931348623157e308]
    assert set(edges) <= set(x.tolist())
    assert np.signbit(x[x == 0]).any() and (np.abs(x[x != 0]) < 2.2250738585072014e-308).any()
    assert np.abs(x).max() > 1e308 and (np.abs(x) < 1e-310).any()


def test_every_double_prints_by_the_spelling_rule():
    x = sweep()
    assert spelling_faults(x, fmt.csv_line([x]).split(",")) == []
    # the layout: JSON's rows are what CSV prints, joined with ", "
    assert fmt.dumps(x)[1:-1] == fmt.csv_line([x]).replace(",", ", ")
    # the reference spells repr's digits by the rule
    assert fmt.dumps(x[::50]) == reference_json(x[::50])
    # a scalar goes through orjson on its own
    some = x[::41].tolist()
    assert spelling_faults(np.array(some), fmt.csv_line(some).split(",")) == []


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
def test_any_doubles_print_by_the_spelling_rule(xs):
    x = np.array(xs)
    tokens = fmt.dumps(x)[1:-1].split(", ")
    assert spelling_faults(x, tokens) == []
    assert tokens == [shortest(v + 0.0) for v in xs]
    assert fmt.csv_line(xs).split(",") == tokens


def test_text_between_numbers_is_kept_whole():
    # a NUL, characters of several UTF-8 bytes, a % and the orjson text's own
    # brackets and commas, none of which may be read as layout
    x = np.random.default_rng(7).normal(size=1280)
    for label in ("l\0b", "é", "%s", "\0" * 40, "],[", ", "):
        rows = [[label, "ü" * (i % 5), v] for i, v in enumerate(x)]
        expected = "\n".join(
            f"{label},{'ü' * (i % 5)}," + format_float(v) for i, v in enumerate(x.tolist())
        )
        assert fmt.csv_line(*rows) == expected
        assert fmt.csv_line([label, x]) == ",".join([label] + [format_float(v) for v in x])
        assert fmt.dumps({label: x}) == fmt.dumps({"k": x}).replace('"k"', json.dumps(label), 1)


def test_printing_memory_is_bounded():
    """A large document needs, beside its text twice over while its pieces are
    joined, less than the 2.6 MB that a tuple of its 82k numbers as Python
    floats takes."""
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
