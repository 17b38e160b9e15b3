"""One overflow rule for every public name that takes numbers.

The rule is stated once, in ``subens.operators``: given entries that are NaN,
infinite, or large or small enough for the arithmetic to overflow or
underflow, a function either returns, its result non-finite where it
overflowed, without a warning, or raises a ValueError that names the defect.
Each example draws a 2x2 complex matrix of entries m·10^e, with m from -9 to
9 and e from -324 to 308, plus NaN and ±inf, and makes every call of a name
with every warning turned into an error.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import subens
from subens import (
    JointQuasiDistribution,
    MeasurementBasis,
    PauliExpansion,
    almost_equal,
    assignment_operator,
    basis_from_kets,
    decompose,
    is_projector,
    mh_joint,
    negativity,
    pauli_expand,
    pauli_synthesize,
    projector_from_ket,
    symmetric_product,
    validate_density,
    x_basis,
    z_basis,
)


def _coeffs(a, keep=lambda c: True):
    """The real parts of a's entries as the coefficients of I, X, Y and Z."""
    return {s: c for s, c in zip("IXYZ", a.real.ravel().tolist()) if keep(c)}


# Each public name that takes numbers, with the calls it is held to: each
# call takes the drawn matrix a and the Hermitian matrix h read off it.
RULED = {
    "almost_equal": [lambda a, h: almost_equal(a, h), lambda a, h: almost_equal(a, -a)],
    "is_projector": [lambda a, h: is_projector(a), lambda a, h: is_projector(h)],
    "symmetric_product": [lambda a, h: symmetric_product(a, h)],
    "projector_from_ket": [lambda a, h: projector_from_ket(a[0])],
    "PauliExpansion": [lambda a, h: PauliExpansion(n=1, coeffs=_coeffs(a))],
    "pauli_expand": [lambda a, h: pauli_expand(a), lambda a, h: pauli_expand(h)],
    "pauli_synthesize": [
        lambda a, h: pauli_synthesize(PauliExpansion(n=1, coeffs=_coeffs(a, math.isfinite)))
    ],
    "assignment_operator": [
        lambda a, h: assignment_operator(h, h),
        lambda a, h: assignment_operator(projector_from_ket(a[0]), projector_from_ket(a[1])),
    ],
    "basis_from_kets": [lambda a, h: basis_from_kets(a)],
    "MeasurementBasis": [lambda a, h: MeasurementBasis(a.T)],
    "validate_density": [lambda a, h: validate_density(h)],
    "decompose": [lambda a, h: decompose(h, x_basis())],
    "mh_joint": [lambda a, h: mh_joint(h, z_basis(), x_basis())],
    "negativity": [lambda a, h: negativity(a), lambda a, h: negativity(a.real)],
    "JointQuasiDistribution": [
        lambda a, h: JointQuasiDistribution(a),
        lambda a, h: JointQuasiDistribution(a.real).marginal_a(),
        lambda a, h: JointQuasiDistribution(a.real).marginal_b(),
        lambda a, h: JointQuasiDistribution(a.real).total(),
    ],
}

# The other public names, and why no drawn number reaches their arithmetic.
TAKES_NO_NUMBERS = {
    "ATOL": "a constant",
    "ScenarioConsistencyError": "an exception",
    "pauli_matrix": "takes a Pauli string",
    "pauli_strings": "takes a qubit count",
    "eta_projector": "takes an outcome index",
    "outcome_probability": "takes an outcome index and preparation labels",
    "contribution_table": "takes preparation labels",
    "preparation_density": "takes a preparation label",
    "product_input": "takes preparation labels",
    "standard_ket": "takes a ket label",
    "named_basis": "takes a basis name",
    "eta_basis": "takes no argument",
    "verify_paradox": "takes no argument",
    "x_basis": "takes no argument",
    "z_basis": "takes no argument",
    "ContributionTable": "a record of the scenario build; stores its fields, computes nothing",
    "EtaBasis": "a record of the scenario build; stores its fields, computes nothing",
    "ParadoxReport": "a record of the scenario build; stores its fields, computes nothing",
    "ProductPreparation": "a record of product_input; stores its density, computes nothing",
    "SubensembleOperator": "a record of decompose; stores its fields, computes nothing",
}

_ENTRIES = st.one_of(
    st.builds(lambda m, e: float(f"{m}e{e}"), st.integers(-9, 9), st.integers(-324, 308)),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)
# eight reals as the re, im pairs of a 2x2 complex matrix, with no arithmetic
_MATRICES = st.lists(_ENTRIES, min_size=8, max_size=8).map(
    lambda v: np.array(v).view(complex).reshape(2, 2)
)


def _hermitian(a):
    """a with its diagonal made real and its (1, 0) entry conj(a[0, 1]), with no arithmetic."""
    h = a.copy()
    h[1, 0] = np.conj(a[0, 1])
    h[[0, 1], [0, 1]] = a.diagonal().real
    return h


def test_every_public_name_is_ruled_or_takes_no_numbers():
    assert not set(RULED) & set(TAKES_NO_NUMBERS)
    assert set(RULED) | set(TAKES_NO_NUMBERS) == set(subens.__all__)


@pytest.mark.parametrize("name", sorted(RULED))
@settings(max_examples=60, deadline=None)
@given(a=_MATRICES)
@example(a=np.full((2, 2), 1e308 + 0j))
@example(a=np.full((2, 2), -1e308 + 0j))
@example(a=np.full((2, 2), 1e200 + 1e200j))
@example(a=np.full((2, 2), 1e154 + 0j))
@example(a=np.full((2, 2), 5e-324 + 0j))
@example(a=np.array([[math.inf, -math.inf], [math.nan, 1.0]], dtype=complex))
def test_overflow_rule(name, a):
    h = _hermitian(a)
    for call in RULED[name]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                call(a, h)
            except ValueError as exc:
                assert str(exc)


def test_valid_state_with_a_subnormal_entry_is_not_rejected():
    rho = np.diag([1.0, 5e-324]).astype(complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert [t.weight for t in decompose(rho, z_basis())] == [1.0, 5e-324]
        assert mh_joint(rho, z_basis(), x_basis()).q[1].tolist() == [5e-324, 5e-324]
