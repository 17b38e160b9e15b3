import numpy as np
import pytest

from subens import (
    ATOL,
    almost_equal,
    bloch_to_density,
    density_to_bloch,
    parse_input_label,
    pauli_matrix,
    preparation_density,
    product_input,
    standard_ket,
)

from helpers import random_bloch, random_density

SQRT_HALF = np.sqrt(0.5)


def test_standard_kets():
    assert almost_equal(standard_ket("0"), [1, 0])
    assert almost_equal(standard_ket("1"), [0, 1])
    assert almost_equal(standard_ket("+"), [SQRT_HALF, SQRT_HALF])
    assert almost_equal(standard_ket("-"), [SQRT_HALF, -SQRT_HALF])


def test_standard_ket_unknown_label():
    with pytest.raises(ValueError, match="unknown ket label"):
        standard_ket("2")


def test_bloch_to_density_poles():
    assert almost_equal(bloch_to_density((0, 0, 1)), [[1, 0], [0, 0]])
    assert almost_equal(bloch_to_density((1, 0, 0)), [[0.5, 0.5], [0.5, 0.5]])
    assert almost_equal(bloch_to_density((0, 0, 0)), np.eye(2) / 2)


def test_bloch_to_density_rejects_unphysical():
    with pytest.raises(ValueError, match="unphysical"):
        bloch_to_density((1.0, 1.0, 0.0))


def test_density_to_bloch_examples():
    assert density_to_bloch([[1, 0], [0, 0]]) == pytest.approx((0, 0, 1), abs=ATOL)
    assert density_to_bloch(np.eye(2) / 2) == pytest.approx((0, 0, 0), abs=ATOL)
    m = np.eye(2) / 2 + pauli_matrix("X") / 4
    assert density_to_bloch(m) == pytest.approx((0.5, 0, 0), abs=ATOL)


def test_density_to_bloch_rejects_bad_input():
    with pytest.raises(ValueError, match="2x2"):
        density_to_bloch(np.eye(3) / 3)
    with pytest.raises(ValueError, match="trace"):
        density_to_bloch(np.eye(2))
    with pytest.raises(ValueError, match="Hermitian"):
        density_to_bloch(np.array([[0.5, 1.0], [0.0, 0.5]]))


def test_bloch_round_trip():
    rng = np.random.default_rng(21)
    for _ in range(200):
        b = random_bloch(rng)
        back = density_to_bloch(bloch_to_density(b))
        assert np.allclose(back, b, atol=1e-12, rtol=0)
    for _ in range(200):
        rho = random_density(rng, 2)
        assert np.allclose(bloch_to_density(density_to_bloch(rho)), rho, atol=1e-10, rtol=0)


def test_preparations_are_rank_one_with_half_overlap():
    rho0 = preparation_density("0")
    rhop = preparation_density("+")
    for rho in (rho0, rhop):
        vals = np.linalg.eigvalsh(rho)
        assert np.allclose(sorted(vals), [0, 1], atol=1e-12)
    assert abs(np.trace(rho0 @ rhop).real - 0.5) <= ATOL


def test_preparation_density_unknown_label():
    with pytest.raises(ValueError, match="unknown preparation"):
        preparation_density("1")


def _pauli_sum(terms):
    out = np.zeros((4, 4), dtype=complex)
    for s, c in terms.items():
        out += c * pauli_matrix(s)
    return out


@pytest.mark.parametrize(
    "first,second,terms",
    [
        ("0", "0", {"II": 0.25, "ZI": 0.25, "IZ": 0.25, "ZZ": 0.25}),
        ("0", "+", {"II": 0.25, "ZI": 0.25, "IX": 0.25, "ZX": 0.25}),
        ("+", "+", {"II": 0.25, "XI": 0.25, "IX": 0.25, "XX": 0.25}),
    ],
)
def test_product_input_pauli_structure(first, second, terms):
    prep = product_input(first, second)
    assert almost_equal(prep.density, _pauli_sum(terms))


def test_product_inputs_are_rank_one():
    for first in "0+":
        for second in "0+":
            rho = product_input(first, second).density
            assert abs(np.trace(rho) - 1.0) <= ATOL
            vals = np.linalg.eigvalsh(rho)
            assert np.allclose(sorted(vals), [0, 0, 0, 1], atol=1e-12)


def test_parse_input_label():
    assert parse_input_label("0+") == ("0", "+")
    assert parse_input_label("++") == ("+", "+")
    for bad in ("", "0", "01", "x+", "0+0"):
        with pytest.raises(ValueError, match="invalid input label"):
            parse_input_label(bad)
