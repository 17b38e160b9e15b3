import numpy as np
import pytest

from subens import (
    ATOL,
    almost_equal,
    pauli_matrix,
    preparation_density,
    product_input,
    standard_ket,
)

SQRT_HALF = np.sqrt(0.5)


def test_standard_kets():
    assert almost_equal(standard_ket("0"), [1, 0])
    assert almost_equal(standard_ket("1"), [0, 1])
    assert almost_equal(standard_ket("+"), [SQRT_HALF, SQRT_HALF])
    assert almost_equal(standard_ket("-"), [SQRT_HALF, -SQRT_HALF])


def test_standard_ket_unknown_label():
    with pytest.raises(ValueError, match="unknown ket label"):
        standard_ket("2")


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


def test_product_input_is_built_once_per_pair():
    prep = product_input("0", "+")
    assert product_input("0", "+") is prep
    assert not prep.density.flags.writeable
    for _ in range(2):  # a bad label is never cached: it raises on every call
        with pytest.raises(ValueError, match="^unknown preparation label '1'; expected 0 or \\+$"):
            product_input("0", "1")
