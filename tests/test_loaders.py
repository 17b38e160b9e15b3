"""Fuzzing of the state and basis file loaders through the CLI.

Every generated document is written to a file and read once as the state of
``decompose`` and once as a basis file of ``mh``. Whatever the file holds,
the command must exit 0 or 3, print nothing on stdout when it exits 3, and
let no exception escape ``cli.main``. Well-formed ``[re, im]`` data must load
bit for bit as ``complex(re, im)`` gives it.

The reader proves from a file's bytes that its document holds only arrays and
numbers, at most three deep (``cli._proven``). Proven bytes are parsed by
orjson, or by json where orjson refuses them, and converted without a check of
each leaf's type; any other file is parsed by json and walked by the loaders,
which word its rejection or check it before converting it. The proof must never
pass a document with any other leaf or nesting, the conversion must never be
handed one, and a file must read to the same array bits or the same error line
with the proof as without it.
"""

import functools
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import orjson
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subens import cli, operators
from subens.cli import main
from subens.operators import _complex_array, ket_from_json, matrix_from_json

from helpers import reference_complex_array

ZERO_DENSITY = [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]

# st.floats() draws NaN, both infinities and -0.0 among the rest
numbers = st.one_of(st.floats(), st.integers(min_value=-(10**400), max_value=10**400))
leaves = st.one_of(numbers, st.booleans(), st.none(), st.text(max_size=3))
# lists of numbers only, one to five deep: the byte proof must refuse those past three
nested_numbers = st.integers(min_value=1, max_value=5).flatmap(
    lambda depth: functools.reduce(
        lambda inner, _: st.lists(inner, min_size=1, max_size=2), range(depth), numbers
    )
)
anything = st.one_of(
    st.recursive(
        leaves,
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=2), inner, max_size=2),
        max_leaves=12,
    ),
    nested_numbers,
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


def numbers_and_lists_only(data) -> bool:
    """Whether data holds nothing but lists, ints and floats; a bool is none of these."""
    if type(data) is list:
        return all(map(numbers_and_lists_only, data))
    return type(data) in (int, float)


@settings(max_examples=150, deadline=None)
@given(documents)
def test_any_document_exits_0_or_3(workdir, data):
    path = workdir / "fuzzed.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    zero = str(workdir / "zero.json")
    handed = []

    def watched(item, *args, **kwargs):
        handed.append(item)
        return _complex_array(item, *args, **kwargs)

    for argv in (
        ["decompose", "--state", str(path), "--basis", "Z", "--format", "json"],
        ["mh", "--state", zero, "--basis-a", "Z", "--basis-b", str(path), "--format", "json"],
    ):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "_complex_array", watched)
            patch.setattr(operators, "_complex_array", watched)
            code, out, err = run_cli(argv)
        assert code in (0, 3), (argv, err)
        if code == 3:
            assert out == ""
            assert err.startswith("error: ")
    # the conversion checks no type: the proof or the loaders' walks must have
    assert handed and all(map(numbers_and_lists_only, handed))


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


well_formed_kets = st.lists(well_formed_pairs, min_size=1, max_size=6)
well_formed_matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda d: st.lists(
        st.lists(well_formed_pairs, min_size=d, max_size=d), min_size=d, max_size=d
    )
)
well_formed_arrays = st.one_of(well_formed_kets, well_formed_matrices)


@settings(max_examples=100, deadline=None)
@given(well_formed_matrices)
def test_matrix_loads_exactly_as_complex_gives_it(rows):
    want = [[complex(re, im) for re, im in row] for row in rows]
    assert np.array_equal(bits(matrix_from_json(rows)), bits(want))


@settings(max_examples=100, deadline=None)
@given(well_formed_kets)
def test_ket_loads_exactly_as_complex_gives_it(amplitudes):
    want = [complex(re, im) for re, im in amplitudes]
    assert np.array_equal(bits(ket_from_json(amplitudes)), bits(want))


def test_well_formed_data_is_converted_in_one_call(monkeypatch):
    # the walk checks each pair without an array of its own
    calls = []

    def counted(data, ndim):
        calls.append(ndim)
        return _complex_array(data, ndim)

    monkeypatch.setattr(operators, "_complex_array", counted)
    rows = [[[i + 0.5, -j] for j in range(8)] for i in range(8)]
    assert matrix_from_json(rows).tolist() == [[complex(re, im) for re, im in r] for r in rows]
    assert calls == [2]
    assert ket_from_json(rows[3]).tolist() == [complex(re, im) for re, im in rows[3]]
    assert calls == [2, 1]


def proven(text: bytes) -> bool:
    """Whether the reader's byte proof holds for the text of a file."""
    return cli._proven(text)


def leaves_of(data):
    if isinstance(data, list):
        for item in data:
            yield from leaves_of(item)
    else:
        yield data


def depth(data) -> int:
    return 1 + max(map(depth, data), default=0) if isinstance(data, list) else 0


def doubles(data):
    """data with each number spelled as the double the loaders convert it to."""
    return [doubles(item) for item in data] if isinstance(data, list) else float(data).hex()


def finite_double(leaf) -> bool:
    try:
        return math.isfinite(leaf)
    except OverflowError:  # an integer past a double
        return False


@settings(max_examples=500, deadline=None)
@given(anything)
@example(float("nan"))
@example([float("inf"), 1])
@example([[-float("inf"), 0]])
@example([True, False, None])
@example(["1", {}])
@example([[[[1, 0]]]])
@example([[2**64, -(2**63) - 1], [10**400, 0]])
def test_bytes_that_pass_the_proof_hold_only_arrays_and_numbers(data):
    text = json.dumps(data).encode()
    if proven(text):
        document = json.loads(text)
        assert {type(leaf) for leaf in leaves_of(document)} <= {int, float}
        assert depth(document) <= 3
        try:
            fast = orjson.loads(text)
        except orjson.JSONDecodeError:  # only a number past a double, NaN or Infinity
            assert not all(map(finite_double, leaves_of(document)))
        else:
            # orjson reads an integer beyond 64 bits as a double, json as an int
            assert doubles(fast) == doubles(document)


def assert_same_complex_array(data, ndim):
    """The conversion of a document whose bytes pass the proof, the only data
    it may be handed, gives the reference's bits, or None where it does."""
    assert proven(json.dumps(data).encode())
    want = reference_complex_array(data, ndim)
    got = _complex_array(data, ndim)
    if want is None:
        assert got is None
    else:
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(documents)
def test_complex_array_matches_the_two_pass_reference(data):
    if proven(json.dumps(data).encode()):
        for ndim in (0, 1, 2):
            assert_same_complex_array(data, ndim)


FIXED_CASES = {
    "int-beyond-double": 10**400,
    "ragged-rows": [[[1, 0], [0, 0]], [[0, 0]]],
    "pair-of-three": [[1, 2, 3]],
    "bare-three": [1, 2, 3],
    "negative-zero": [[-0.0, -0.0]],
    "inf": [[float("inf"), float("-inf")]],
    "empty": [],
    "empty-in-empty": [[]],
    "bare-pair": [1.5, -0.0],
    "matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
    "matrix-with-int-beyond-double": [[[1, 0], [0, 0]], [[0, 0], [10**400, 0]]],
}


@pytest.mark.parametrize("ndim", [0, 1, 2])
@pytest.mark.parametrize("data", FIXED_CASES.values(), ids=FIXED_CASES.keys())
def test_complex_array_fixed_cases_match_the_reference(data, ndim):
    assert_same_complex_array(data, ndim)


# the documents dumped as files below: the conversion's cases, and three whose bytes
# fail the proof, so that only the loaders' walks see them
DUMPED_CASES = {**FIXED_CASES, "true": True, "string": "1", "null": None}

# files of numbers spelled as json.dumps never writes them; all pass the proof but
# the one nested too deeply, the one that is cut short and the one holding true
SPELLED_FILES = {
    "upper-exponent": b"[[1E5, 0], [0, 0]]",
    "negative-zero-int": b"[[-0, -0], [1, 0]]",
    "underflow": b"[[[1e-400, 0], [0, 0]], [[0, 0], [1, 0]]]",
    "25-digit-int": b"[[1234567890123456789012345, 0], [0, -9999999999999999999999999]]",
    "overflow-to-inf": b"[[1e400, 0], [0, 0]]",
    "crlf-and-tab": b"[[[1,\t0],\r\n[0, 0]],\r\n\t[[0, 0],\t[0, 0]]]\r\n",
    "int-beyond-double": b"[[1" + b"0" * 400 + b", 0], [0, 0]]",
    "int-past-the-digit-limit": b"[[1" + b"0" * 4999 + b", 0], [0, 0]]",
    "array-for-a-number": b"[[1, [0]], [0, 0]]",
    "number-for-a-pair": b"[[[1, 0], 0], [[0, 0], [0, 0]]]",
    "number-for-a-row": b"[[[1, 0], [0, 0]], 5]",
    "one-level-too-deep": b"[[[[1, 0], [0, 0]], [[0, 0], [0, 0]]]]",
    "bare-number": b"5",
    "empty-file": b"",
    "truncated": b"[[1, 0], [0, 0]",
    "double-minus": b"[[--1, 0], [0, 0]]",
    "true": b"[[1, 0], [0, true]]",
    "nan-and-infinity": b"[[NaN, 0], [0, -Infinity]]",
}


def outcome(load):
    """The bits of what load() returns, or its error line."""
    try:
        a = load()
    except cli.InputFileError as exc:
        return f"error: {exc}"
    return a.shape, a.tobytes()


def assert_same_with_and_without_the_proof(path):
    """The file at path read as a state and as a basis, with the reader's proof
    and with a proof that never holds, so that json parses it and the loaders
    convert it, gives the same bits or error lines."""
    loads = (
        lambda: cli._read(str(path), cli._state_from_json),
        lambda: cli._load_basis(str(path), 2).matrix,
    )
    got = [outcome(load) for load in loads]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_proven", lambda data: False)
        want = [outcome(load) for load in loads]
    assert got == want


@pytest.mark.parametrize(
    "text",
    [json.dumps(data).encode() for data in DUMPED_CASES.values()] + list(SPELLED_FILES.values()),
    ids=[f"dumped-{name}" for name in DUMPED_CASES] + list(SPELLED_FILES),
)
def test_fixed_files_read_the_same_without_the_proof(workdir, text):
    path = workdir / "fixed.json"
    path.write_bytes(text)
    assert_same_with_and_without_the_proof(path)


def test_spelled_files_pass_the_proof():
    unproven = [name for name, text in SPELLED_FILES.items() if not proven(text)]
    assert unproven == ["one-level-too-deep", "truncated", "true"]


NON_FINITE = "density matrix has non-finite entries"


# the bytes of a state file, whether orjson sees them, and the error line after the path
UNPROVEN_FILES = {
    "true": (b"[[true, 0], [0, 0]]", False, f": ket amplitude 0: {NOT_A_PAIR}"),
    "null": (b"[[null, 0], [0, 0]]", False, f": ket amplitude 0: {NOT_A_PAIR}"),
    "nan": (b"[[NaN, 0], [0, 0]]", True, f": {NON_FINITE}"),
    "infinity": (b"[[Infinity, 0], [0, 0]]", True, f": {NON_FINITE}"),
    "object": (b"[[1, 0], {}]", False, f": ket amplitude 1: {NOT_A_PAIR}"),
    "bom": (
        b"\xef\xbb\xbf[[1, 0], [0, 0]]",
        False,
        " is not valid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): "
        "line 1 column 1 (char 0)",
    ),
    "form-feed": (
        b"[[1, 0], [0, 0]]\f",
        False,
        " is not valid JSON: Extra data: line 1 column 17 (char 16)",
    ),
    # proven, but orjson refuses a number past a double as it refuses NaN and Infinity;
    # json then reads it as inf
    "overflow-to-inf": (b"[[1e400, 0], [0, 0]]", True, f": {NON_FINITE}"),
}


@pytest.mark.parametrize(
    "text, reaches_orjson, message", UNPROVEN_FILES.values(), ids=UNPROVEN_FILES.keys()
)
def test_only_proven_files_reach_orjson(workdir, monkeypatch, text, reaches_orjson, message):
    path = workdir / "unproven.json"
    path.write_bytes(text)
    calls = []
    loads = orjson.loads

    def watched(data):
        calls.append(data)
        return loads(data)

    monkeypatch.setattr(orjson, "loads", watched)
    code, out, err = run_cli(["decompose", "--state", str(path), "--basis", "Z"])
    assert calls == ([text] if reaches_orjson else [])
    assert (code, out, err) == (3, "", f"error: {path}{message}\n")


number_tokens = st.one_of(
    numbers.map(json.dumps),
    st.floats(allow_nan=False, allow_infinity=False).map(json.dumps),
    st.sampled_from(
        ["1E5", "-0", "1e-400", "1e400", "-0.0E+0", "2.5e-3", "1234567890123456789012345"]
    ),
)


@st.composite
def files(draw):
    """The bytes of a file: a document as json.dumps writes it, or with each
    number respelled by a token json.dumps may never write, between separators
    that hold CRLF and tabs."""
    data = draw(st.one_of(documents, well_formed_arrays))
    if draw(st.booleans()):
        return json.dumps(data).encode()
    separator = draw(st.sampled_from([",", ", ", ",\r\n", "\t,\t", " ,\r\n\t"]))

    def write(item):
        if isinstance(item, list):
            return "[" + separator.join(map(write, item)) + "]"
        return draw(number_tokens) if type(item) in (int, float) else json.dumps(item)

    return write(data).encode()


@settings(max_examples=200, deadline=None)
@given(files())
def test_reader_gives_the_same_with_and_without_the_proof(workdir, text):
    path = workdir / "spelled.json"
    path.write_bytes(text)
    assert_same_with_and_without_the_proof(path)
