"""Accuracy budgets: the kernels' results against exact arithmetic.

The property tests check the paper's identities within ATOL = 1e-12, but the
kernels' real error is below 1e-15, so a result made 100 times less accurate
would still pass them. Here each result is compared with the exact value of the
same formula over the doubles that its inputs hold (``helpers.exact``), and must
lie within k · d · 2^-52 · scale.

``mh_joint``: q = Re(conj(Va^H Vb) * (Va^H rho Vb)), with scale = ||rho||_F,
over seeded Haar-random bases and states, pure (a Haar-random ket) on even
seeds and Hilbert–Schmidt mixed on odd ones. Over seeds 0-499 at each
d ∈ {2, 3, 4, 8}, the worst error was 0.58 of d · 2^-52 · ||rho||_F with
OpenBLAS's default kernel on an AVX-512 host (SkylakeX) and 0.61 under
OPENBLAS_CORETYPE=Sandybridge, both at d = 2. So k = 2, a margin of 3 over the
worst. A q scaled by 1 + 2^-45 misses the budget at each of the four d, and
still passes the property tests.
"""

from fractions import Fraction

import numpy as np
import pytest

from subens import mh_joint, projector_from_ket

from helpers import exact, exact_dagger, exact_matmul, random_basis, random_density, random_unitary

MH_K = 2
ULP = 2.0**-52


def _mh_case(d, seed):
    """A state and two bases, each seeded by (d, seed)."""
    rng = np.random.default_rng([d, seed])
    if seed % 2:
        rho = random_density(rng, d)
    else:
        rho = projector_from_ket(random_unitary(rng, d)[:, 0])
    return rho, random_basis(rng, d), random_basis(rng, d)


def _exact_mh(rho, basis_a, basis_b):
    """q of mh_joint, in exact arithmetic over the doubles of its inputs."""
    va, vb = exact(basis_a.matrix), exact(basis_b.matrix)
    vah = exact_dagger(va)
    overlap = exact_matmul(vah, vb)
    inner = exact_matmul(vah, exact_matmul(exact(rho), vb))
    return overlap[0] * inner[0] + overlap[1] * inner[1]


# d = 8 costs about 30 ms a case in exact arithmetic, so it draws fewer seeds
@pytest.mark.parametrize(("d", "seeds"), [(2, 40), (3, 40), (4, 40), (8, 10)])
def test_mh_joint_is_within_its_budget_of_exact_arithmetic(d, seeds):
    for seed in range(seeds):
        rho, basis_a, basis_b = _mh_case(d, seed)
        q = mh_joint(rho, basis_a, basis_b).q.ravel().tolist()
        exact_q = _exact_mh(rho, basis_a, basis_b).ravel()
        error = float(max(abs(Fraction(x) - y) for x, y in zip(q, exact_q)))
        unit = d * ULP * np.linalg.norm(rho)
        assert error <= MH_K * unit, (seed, error / unit)
