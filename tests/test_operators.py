import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subens import (
    ATOL,
    PauliExpansion,
    almost_equal,
    assignment_operator,
    pauli_expand,
    pauli_matrix,
    pauli_strings,
    pauli_synthesize,
    symmetric_product,
)
from subens.operators import ket_from_json, matrix_from_json, projector_from_ket

from helpers import random_hermitian

I2 = pauli_matrix("I")
X = pauli_matrix("X")
Y = pauli_matrix("Y")
Z = pauli_matrix("Z")


def test_symmetric_product_commuting():
    a = np.diag([1.0, 2.0]).astype(complex)
    b = np.diag([3.0, 4.0]).astype(complex)
    assert np.array_equal(symmetric_product(a, b), a @ b)


def test_symmetric_product_idempotent():
    p = (I2 + Z) / 2
    assert almost_equal(symmetric_product(p, p), p)


def test_symmetric_product_z_x_projectors():
    # (|0><0| |+><+| + |+><+| |0><0|)/2 expanded by hand; the XZ and ZX
    # cross terms cancel, leaving (I + X + Z)/4.
    expected = np.array([[0.5, 0.25], [0.25, 0.0]])
    assert almost_equal(symmetric_product((I2 + Z) / 2, (I2 + X) / 2), expected)


def test_symmetric_product_exactly_symmetric():
    rng = np.random.default_rng(11)
    for _ in range(50):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert np.array_equal(symmetric_product(a, b), symmetric_product(b, a))


def test_symmetric_product_trace_identity():
    rng = np.random.default_rng(13)
    for _ in range(50):
        a = random_hermitian(rng, 4)
        b = random_hermitian(rng, 4)
        lhs = np.trace(symmetric_product(a, b))
        assert abs(lhs.imag) <= 1e-10
        assert abs(lhs.real - np.trace(a @ b).real) <= 1e-10


def test_symmetric_product_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        symmetric_product(np.eye(2), np.eye(4))


@pytest.mark.parametrize("n", [1, 2])
def test_pauli_strings_square_to_identity(n):
    for s in pauli_strings(n):
        m = pauli_matrix(s)
        assert almost_equal(m @ m, np.eye(2**n))
        if s != "I" * n:
            assert abs(np.trace(m)) <= ATOL
        assert almost_equal(m, m.conj().T)


def test_pauli_string_order():
    assert list(pauli_strings(1)) == ["I", "X", "Y", "Z"]
    two = list(pauli_strings(2))
    assert two[:5] == ["II", "IX", "IY", "IZ", "XI"]
    assert len(two) == 16


def test_pauli_expand_qubit_projector():
    e = pauli_expand((I2 + Z) / 2)
    assert e.n == 1
    assert e.coeffs == {"I": 0.5, "Z": 0.5}


def test_pauli_expand_identity():
    e = pauli_expand(np.eye(4))
    assert e.coeffs == {"II": 1.0}


def test_pauli_expand_entangled_projector():
    from subens import eta_projector

    e = pauli_expand(eta_projector(1))
    assert set(e.coeffs) == {"II", "XX", "YY", "ZZ"}
    assert e.coeffs["II"] == pytest.approx(0.25, abs=ATOL)
    assert e.coeffs["XX"] == pytest.approx(0.25, abs=ATOL)
    assert e.coeffs["YY"] == pytest.approx(0.25, abs=ATOL)
    assert e.coeffs["ZZ"] == pytest.approx(-0.25, abs=ATOL)


def test_pauli_expand_rejects_bad_dimension():
    with pytest.raises(ValueError, match="power of two"):
        pauli_expand(np.eye(3))


def test_pauli_expand_rejects_one_by_one_matrix():
    # 1 = 2**0 is a power of two, but of no qubit count
    with pytest.raises(ValueError) as exc:
        pauli_expand(np.eye(1))
    assert str(exc.value) == "dimension 1 is not a power of two of at least 2"


def test_pauli_expand_rejects_non_hermitian():
    with pytest.raises(ValueError, match="not Hermitian"):
        pauli_expand(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize(
    "m",
    [
        np.full((2, 2), np.nan),
        np.array([[np.inf, 0], [0, 1]]),
        np.array([[1, complex(0, np.nan)], [0, 0]]),
    ],
    ids=["nan", "inf", "nan-imaginary-part"],
)
def test_pauli_expand_rejects_non_finite(m):
    # NaN fails every comparison with ATOL, so unchecked it expanded to no terms
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as exc:
            pauli_expand(m)
    assert str(exc.value) == "matrix has non-finite entries"


@pytest.mark.parametrize(
    ("call", "message"),
    [
        (
            lambda: pauli_synthesize(PauliExpansion(n=1, coeffs={"I": 1e308, "Z": 1e308})),
            "matrix overflows a double; its largest coefficient is that of I",
        ),
        (
            lambda: pauli_synthesize(PauliExpansion(n=2, coeffs={"II": 1e308, "ZZ": 1e308})),
            "matrix overflows a double; its largest coefficient is that of II",
        ),
    ],
    ids=["synthesize", "synthesize-two-qubits"],
)
def test_pauli_transform_overflow_is_rejected_without_warning(call, message):
    # unchecked, the sums overflowed to inf with numpy's RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as exc:
            call()
    assert str(exc.value) == message


@pytest.mark.parametrize(
    ("m", "coeffs"),
    [
        (np.full((2, 2), 1e308), {"I": 1e308, "X": 1e308}),
        (np.array([[0, 1e308], [1e308, 0]]), {"X": 1e308}),
    ],
    ids=["expand", "expand-off-diagonal"],
)
def test_pauli_expand_near_overflow_round_trips_without_warning(m, coeffs):
    # a trace over the unscaled matrix overflowed, and these were rejected
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        e = pauli_expand(m)
        assert dict(e.coeffs) == coeffs
        assert np.array_equal(pauli_synthesize(e), m)


_BIG = np.full((2, 2), 1e308 + 0j)
_HUGE = np.full((2, 2), 1e200)


def _raised(call):
    try:
        call()
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize(
    ("call", "result"),
    [
        (lambda: almost_equal(_BIG, -_BIG), False),
        (
            lambda: _raised(lambda: assignment_operator(_BIG, _BIG)),
            "pa is not a rank-1 projector: not idempotent, max|pa^2 - pa| = inf "
            "exceeds tolerance 1e-12",
        ),
        # the products return their non-finite entries, for the checks that read them to reject
        (lambda: np.isfinite(symmetric_product(_HUGE, _HUGE)).sum(), 0),
        (lambda: np.isfinite(projector_from_ket([1e200, 1])).sum(), 3),  # inf at (0, 0) only
    ],
    ids=[
        "almost-equal",
        "assignment-operator",
        "symmetric-product",
        "projector-from-ket",
    ],
)
def test_checks_reject_overflow_without_warning(call, result):
    # the differences, m @ m and the products overflowed with numpy's RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert call() == result


@pytest.mark.parametrize(
    ("call", "message"),
    [
        (lambda: list(pauli_strings(0)), "qubit count must be a positive integer"),
        (lambda: pauli_matrix("Q"), "invalid Pauli string 'Q'"),
        (lambda: pauli_matrix(""), "invalid Pauli string ''"),
        # items of a list are whole letters, not substrings of "IXYZ"
        (lambda: pauli_matrix(["XY"]), "invalid Pauli string ['XY']"),
        (lambda: pauli_matrix(["X", ""]), "invalid Pauli string ['X', '']"),
        (lambda: PauliExpansion(n=0), "qubit count must be a positive integer"),
        (
            lambda: PauliExpansion(n=1, coeffs={"X": float("nan")}),
            "coefficient of X is not finite",
        ),
        (lambda: pauli_expand(np.ones((2, 3))), "matrix must be a square matrix, got shape (2, 3)"),
        (lambda: projector_from_ket(np.eye(2)), "ket must be a one-dimensional amplitude vector"),
        # the first string in serialization order past ATOL, not the largest (Y, 0.5)
        (
            lambda: pauli_expand(np.array([[0.1j, 1], [0, 0]])),
            "matrix is not Hermitian: imaginary part of the coefficient of I = 0.05 "
            "exceeds tolerance 1e-12",
        ),
    ],
    ids=[
        "no-qubits",
        "unknown-letter",
        "no-letters",
        "two-letter-item",
        "empty-item",
        "expansion-of-no-qubits",
        "nan-coefficient",
        "non-square",
        "ket-of-two-axes",
        "first-non-hermitian-coefficient",
    ],
)
def test_rejection_messages(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_pauli_matrix_accepts_a_list_of_letters():
    assert np.array_equal(pauli_matrix(["X", "Z"]), pauli_matrix("XZ"))


def test_one_letter_pauli_matrix_is_a_read_only_view_of_the_stack():
    from subens.operators import _PAULI

    textbook = [
        np.eye(2, dtype=complex),
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]], dtype=complex),
        np.array([[1, 0], [0, -1]], dtype=complex),
    ]
    assert _PAULI.shape == (4, 2, 2) and not _PAULI.flags.writeable
    for i, (letter, expected) in enumerate(zip("IXYZ", textbook)):
        m = pauli_matrix(letter)
        assert m.base is _PAULI and np.shares_memory(m, _PAULI[i])
        assert not m.flags.writeable
        assert m.tobytes() == expected.tobytes()  # the same bits, signed zeros included


def test_almost_equal_edge_cases():
    # these shapes broadcast to a distance of 0, but they are different shapes
    assert not almost_equal(np.zeros(2), np.zeros((2, 1)))
    assert not almost_equal([np.nan], [np.nan])
    assert almost_equal(np.empty(0), np.empty((0,)))


def test_pauli_synthesize_single_qubit():
    e = PauliExpansion(n=1, coeffs={"I": 0.5, "X": 0.5})
    assert almost_equal(pauli_synthesize(e), (I2 + X) / 2)


def test_pauli_synthesize_empty_is_zero():
    assert almost_equal(pauli_synthesize(PauliExpansion(n=2)), np.zeros((4, 4)))
    assert np.array_equal(pauli_synthesize(PauliExpansion(n=3)), np.zeros((8, 8)))


def test_pauli_synthesize_matches_measurement_projector():
    from subens import eta_projector

    e = PauliExpansion(n=2, coeffs={"II": 0.25, "XZ": 0.25, "ZX": -0.25, "YY": -0.25})
    assert almost_equal(pauli_synthesize(e), eta_projector(2))


def reference_synthesize(e):
    """The sum of c_s * pauli_matrix(s) over the map, one Kronecker product per string."""
    out = np.zeros((2 ** e.n, 2 ** e.n), dtype=complex)
    for s, c in e.coeffs.items():
        out += c * pauli_matrix(s)
    return out


@st.composite
def expansions(draw):
    """A map at 1 to 5 qubits: a few strings of any size, or every string, seeded."""
    n = draw(st.integers(1, 5))
    strings = list(pauli_strings(n))
    if draw(st.booleans()):
        coefficients = st.floats(-1e6, 1e6)
        coeffs = draw(st.dictionaries(st.sampled_from(strings), coefficients, max_size=6))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        scale = 10.0 ** draw(st.integers(-6, 6))
        coeffs = dict(zip(strings, scale * rng.standard_normal(len(strings))))
    return PauliExpansion(n=n, coeffs=coeffs)


@settings(max_examples=100, deadline=None)
@given(expansions())
def test_pauli_synthesize_matches_the_per_string_sum(e):
    m = pauli_synthesize(e)
    assert m.dtype == complex and m.shape == (2 ** e.n, 2 ** e.n)
    scale = sum(abs(c) for c in e.coeffs.values())
    assert np.abs(m - reference_synthesize(e)).max() <= 1e-14 * scale


def test_scenario_projectors_are_the_per_string_sum_bit_for_bit():
    from subens.scenario import ETA_EXPANSIONS, OUTCOMES, eta_projector

    for i in OUTCOMES:
        p = eta_projector(i)
        reference = reference_synthesize(PauliExpansion(n=2, coeffs=ETA_EXPANSIONS[i]))
        assert np.array_equal(p, reference)  # array_equal reads -0.0 as 0.0, so compare signs too
        assert np.array_equal(np.signbit(p.real), np.signbit(reference.real))
        assert np.array_equal(np.signbit(p.imag), np.signbit(reference.imag))


def test_pauli_synthesize_one_string_at_eight_qubits():
    # a dense map at 8 qubits would take the per-string reference minutes
    rng = np.random.default_rng(8)
    for letters in rng.choice(list("IXYZ"), size=(3, 8)):
        s = "".join(letters)
        m = pauli_synthesize(PauliExpansion(n=8, coeffs={s: 1.0}))
        assert np.array_equal(m, pauli_matrix(s))


@pytest.mark.parametrize("dim", [2, 4, 8])
def test_expand_synthesize_round_trip(dim):
    rng = np.random.default_rng(100 + dim)
    for _ in range(200):
        m = random_hermitian(rng, dim)
        assert almost_equal(pauli_synthesize(pauli_expand(m)), m)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_expand_synthesize_round_trip_at_every_scale(n):
    # nothing a double holds is rejected: at n >= 4 rounding leaves imaginary
    # parts above ATOL from entries of about 2e4, within PAULI_RTOL of the scale
    rng = np.random.default_rng(400 + n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for e in [*range(-300, 7), *range(10, 301, 10)]:
            h = random_hermitian(rng, 2 ** n) * 10.0 ** e
            bound = 4 ** n * ATOL + 1e-14 * np.abs(h).max()
            assert np.abs(pauli_synthesize(pauli_expand(h)) - h).max() <= bound


@st.composite
def near_overflow_sums(draw):
    """One to three strings at 1 to 3 qubits with coefficients of 1e300 to 3e307
    in magnitude, rounded to 20 significant bits so every sum in both transforms
    is exact."""
    n = draw(st.integers(1, 3))
    strings = st.sampled_from(list(pauli_strings(n)))
    coeffs = {}
    for s in draw(st.lists(strings, min_size=1, max_size=3, unique=True)):
        mantissa, exponent = math.frexp(draw(st.floats(1e300, 3e307)))
        c = math.ldexp(round(mantissa * 2**20), exponent - 20)
        coeffs[s] = draw(st.sampled_from([c, -c]))
    return PauliExpansion(n=n, coeffs=coeffs)


@settings(max_examples=300, deadline=None)
@given(near_overflow_sums())
def test_pauli_sums_near_overflow_round_trip_exactly(e):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = pauli_synthesize(e)
        back = pauli_expand(m)
        assert dict(back.coeffs) == dict(e.coeffs)
        assert np.array_equal(pauli_synthesize(back), m)


def test_expansion_keys_are_sorted():
    e = PauliExpansion(n=1, coeffs={"Z": 1.0, "I": 0.5, "X": -0.25})
    assert list(e.coeffs) == ["I", "X", "Z"]


@pytest.mark.parametrize(
    "c", ["0.5", True, np.True_, 1j, np.complex128(1 + 1j), np.complex64(0.5)], ids=repr
)
def test_expansion_coefficient_must_be_a_real_number(c):
    # float() takes a string and a bool, and keeps only the real part of a numpy complex
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as exc:
            PauliExpansion(n=1, coeffs={"I": 0.5, "X": c})
    assert str(exc.value) == "coefficient of X is not a real number"


@pytest.mark.parametrize("c", [2, 0.5, np.int8(2), np.float32(0.5), np.float64(0.5)], ids=repr)
def test_expansion_coefficient_reads_as_a_float(c):
    coeffs = PauliExpansion(n=1, coeffs={"X": c}).coeffs
    assert coeffs == {"X": float(c)} and type(coeffs["X"]) is float


@pytest.mark.parametrize("n", [True, False, 1.0, np.int64(1)], ids=repr)
def test_expansion_qubit_count_must_be_an_int(n):
    with pytest.raises(ValueError) as exc:
        PauliExpansion(n=n)
    assert str(exc.value) == "qubit count must be a positive integer"


def test_expansion_rejects_bad_strings():
    with pytest.raises(ValueError, match="invalid Pauli string"):
        PauliExpansion(n=1, coeffs={"XX": 1.0})
    with pytest.raises(ValueError, match="invalid Pauli string"):
        PauliExpansion(n=2, coeffs={"AB": 1.0})


def test_matrix_json_round_trip():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    data = [[[z.real, z.imag] for z in row] for row in m.tolist()]
    assert np.array_equal(matrix_from_json(data), m)


def test_ket_json_round_trip():
    k = np.array([0.5, -0.5j, 0.5, 0.5])
    data = [[z.real, z.imag] for z in k.tolist()]
    assert np.array_equal(ket_from_json(data), k)


@pytest.mark.parametrize(
    "data",
    [
        [],
        [[1, 0]],
        [[[1, 0]], [[0, 0]]],
        [[[1, 0], [0]], [[0, 0], [0, 0]]],
        [[[1, 0], ["a", 0]], [[0, 0], [0, 0]]],
        [[[10**400, 0]]],
    ],
)
def test_matrix_from_json_rejects_malformed(data):
    with pytest.raises(ValueError):
        matrix_from_json(data)
