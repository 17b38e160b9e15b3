"""Fuzzing of the state and basis file loaders through the CLI.

Every generated document is written to a file and read once as the state of
``decompose`` and once as a basis file of ``mh``. Whatever the file holds,
the command must exit 0 or 3, print nothing on stdout when it exits 3, and
let no exception escape ``cli.main``. Well-formed ``[re, im]`` data must load
bit for bit as ``complex(re, im)`` gives it.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subens.cli import main
from subens.operators import _complex_array, ket_from_json, matrix_from_json

from helpers import reference_complex_array

ZERO_DENSITY = [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]

# st.floats() draws NaN, both infinities and -0.0 among the rest
numbers = st.one_of(st.floats(), st.integers(min_value=-(10**400), max_value=10**400))
leaves = st.one_of(numbers, st.booleans(), st.none(), st.text(max_size=3))
anything = st.recursive(
    leaves,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=12,
)
pairs = st.lists(numbers, min_size=2, max_size=2)


@st.composite
def near_arrays(draw):
    """A ket or matrix of [re, im] pairs at d = 1..3 with some faults: a
    foreign entry, a short or long row, or one array level too many."""
    dim = draw(st.integers(min_value=1, max_value=3))
    entries = st.one_of(pairs, pairs, pairs, anything)

    def row():
        length = draw(st.sampled_from((dim, dim, dim, dim - 1, dim + 1)))
        return [draw(entries) for _ in range(length)]

    data = row() if draw(st.booleans()) else [row() for _ in range(dim)]
    return [data] if draw(st.integers(min_value=0, max_value=5)) == 0 else data


documents = st.one_of(anything, near_arrays())


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("loaders")
    (path / "zero.json").write_text(json.dumps(ZERO_DENSITY))
    return path


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None)
@given(documents)
def test_any_document_exits_0_or_3(workdir, data):
    path = workdir / "fuzzed.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    zero = str(workdir / "zero.json")
    for argv in (
        ["decompose", "--state", str(path), "--basis", "Z", "--format", "json"],
        ["mh", "--state", zero, "--basis-a", "Z", "--basis-b", str(path), "--format", "json"],
    ):
        code, out, err = run_cli(argv)
        assert code in (0, 3), (argv, err)
        if code == 3:
            assert out == ""
            assert err.startswith("error: ")


NOT_A_PAIR = "a complex number must be a [re, im] pair"


@pytest.mark.parametrize(
    "leaf, reason",
    [
        (True, NOT_A_PAIR),
        (False, NOT_A_PAIR),
        (None, NOT_A_PAIR),
        ("1", NOT_A_PAIR),
        (10**400, "number too large for a double"),
    ],
    ids=["true", "false", "null", "string", "int-beyond-double"],
)
def test_non_numbers_are_rejected_naming_the_entry(leaf, reason):
    # an array conversion with dtype=float alone would read true, "1" and null
    # as 1.0, 1.0 and nan
    with pytest.raises(ValueError) as exc:
        matrix_from_json([[[1, 0], [0, 0]], [[0, 0], [0, leaf]]])
    assert str(exc.value) == f"matrix entry (1,1): {reason}"
    with pytest.raises(ValueError) as exc:
        ket_from_json([[1, 0], [leaf, 0]])
    assert str(exc.value) == f"ket amplitude 1: {reason}"


def bits(a):
    return np.asarray(a, dtype=complex).view(np.uint64)


finite_ints = st.integers(min_value=-(2**1000), max_value=2**1000)
well_formed_pairs = st.lists(st.one_of(st.floats(), finite_ints), min_size=2, max_size=2)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=4).flatmap(
    lambda d: st.lists(
        st.lists(well_formed_pairs, min_size=d, max_size=d), min_size=d, max_size=d
    )
))
def test_matrix_loads_exactly_as_complex_gives_it(rows):
    want = [[complex(re, im) for re, im in row] for row in rows]
    assert np.array_equal(bits(matrix_from_json(rows)), bits(want))


@settings(max_examples=100, deadline=None)
@given(st.lists(well_formed_pairs, min_size=1, max_size=6))
def test_ket_loads_exactly_as_complex_gives_it(amplitudes):
    want = [complex(re, im) for re, im in amplitudes]
    assert np.array_equal(bits(ket_from_json(amplitudes)), bits(want))


def assert_same_complex_array(data, ndim):
    got, want = _complex_array(data, ndim), reference_complex_array(data, ndim)
    if want is None:
        assert got is None
    else:
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(documents)
def test_complex_array_matches_the_two_pass_reference(data):
    for ndim in (0, 1, 2):
        assert_same_complex_array(data, ndim)


@pytest.mark.parametrize("ndim", [0, 1, 2])
@pytest.mark.parametrize(
    "data",
    [
        True,
        "1",
        None,
        10**400,
        [[[1, 0], [0, 0]], [[0, 0]]],
        [[1, 2, 3]],
        [1, 2, 3],
        [[-0.0, -0.0]],
        [[float("inf"), float("-inf")]],
        [],
        [[]],
        [1.5, -0.0],
        [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
        [[[1, 0], [0, 0]], [[0, 0], [10**400, 0]]],
    ],
    ids=[
        "true",
        "string",
        "null",
        "int-beyond-double",
        "ragged-rows",
        "pair-of-three",
        "bare-three",
        "negative-zero",
        "inf",
        "empty",
        "empty-in-empty",
        "bare-pair",
        "matrix",
        "matrix-with-int-beyond-double",
    ],
)
def test_complex_array_fixed_cases_match_the_reference(data, ndim):
    assert_same_complex_array(data, ndim)
