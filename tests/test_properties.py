"""Property tests of the decomposition and the joint table over random inputs.

Each example draws a dimension d in 2..16, the rank of the state and a seed
for the random state and bases. The reference values are written here, per
entry, straight from the definitions R_f = (rho P_f + P_f rho)/2 and
q[a, b] = <b| R_a |b>, so they share no code with the matrix kernel.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from subens import ATOL, basis_from_kets, decompose, mh_joint

from helpers import random_basis, random_unitary

TOL = 1e-12

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def cases(draw):
    """(rho, basis_a, basis_b, rng) with rho of any rank at a dimension in 2..16."""
    dim = draw(st.integers(min_value=2, max_value=16))
    rank = draw(st.integers(min_value=1, max_value=dim))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    return rho, random_basis(rng, dim), random_basis(rng, dim), rng


def reference_term(rho, ket):
    p = np.outer(ket, ket.conj())
    return 0.5 * (rho @ p + p @ rho)


@PROPERTY_SETTINGS
@given(cases())
def test_mh_joint_matches_per_entry_reference(case):
    rho, basis_a, basis_b, _ = case
    q = mh_joint(rho, basis_a, basis_b).q
    for a, ket_a in enumerate(basis_a.vectors):
        r_a = reference_term(rho, ket_a)
        for b, ket_b in enumerate(basis_b.vectors):
            assert abs(q[a, b] - np.vdot(ket_b, r_a @ ket_b).real) <= TOL


@PROPERTY_SETTINGS
@given(cases())
def test_terms_sum_to_rho_and_weigh_the_born_probabilities(case):
    rho, basis, _, _ = case
    terms = decompose(rho, basis)
    assert np.abs(sum(t.operator for t in terms) - rho).max() <= TOL
    for t, ket in zip(terms, basis.vectors):
        assert abs(t.weight - np.vdot(ket, rho @ ket).real) <= TOL
        assert np.abs(t.operator - reference_term(rho, ket)).max() <= TOL


@PROPERTY_SETTINGS
@given(cases())
def test_exchanging_the_bases_transposes_the_table(case):
    rho, basis_a, basis_b, _ = case
    ab = mh_joint(rho, basis_a, basis_b).q
    ba = mh_joint(rho, basis_b, basis_a).q
    assert np.abs(ab - ba.T).max() <= TOL


@PROPERTY_SETTINGS
@given(cases())
def test_table_is_unitarily_covariant(case):
    rho, basis_a, basis_b, rng = case
    u = random_unitary(rng, rho.shape[0])
    moved_rho = u @ rho @ u.conj().T
    moved_a = basis_from_kets(list((u @ basis_a.matrix).T))
    moved_b = basis_from_kets(list((u @ basis_b.matrix).T))
    q = mh_joint(rho, basis_a, basis_b).q
    assert np.abs(mh_joint(moved_rho, moved_a, moved_b).q - q).max() <= TOL


@PROPERTY_SETTINGS
@given(cases(), st.booleans())
def test_state_commuting_with_a_basis_has_a_nonnegative_table(case, diagonal_in_a):
    # rho = sum_f p_f |f><f| over the kets of one basis; then
    # q(a, b) = p_a |<b|a>|^2 (or p_b |<b|a>|^2), a true joint distribution
    _, basis_a, basis_b, rng = case
    v = (basis_a if diagonal_in_a else basis_b).matrix
    p = rng.dirichlet(np.ones(v.shape[0]))
    rho = (v * p) @ v.conj().T
    assert mh_joint(rho, basis_a, basis_b).q.min() >= -ATOL
