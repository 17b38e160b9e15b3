"""Acceptance suite: every shipped guarantee at its stated tolerance.

Each test prints one PASS/FAIL line; run with ``pytest tests/test_acceptance.py -v -s``
to see them. All numeric gates are 1e-12 absolute unless noted.
"""

import subprocess
import sys
import time

import numpy as np

from subens import (
    assignment_operator,
    contribution_table,
    decompose,
    eta_basis,
    mh_joint,
    named_basis,
    outcome_probability,
    preparation_density,
    product_input,
    projector_from_ket,
    standard_ket,
)

from helpers import random_basis, random_density

TOL = 1e-12

EXPECTED_TABLE_00 = np.array(
    [
        [0.25, 0.25, 0.25, 0.25],
        [-0.25, 0.75, -0.25, 0.75],
        [-0.25, -0.25, 0.75, 0.75],
        [0.25, 0.25, 0.25, 0.25],
    ]
)

INPUTS = (("0", "0"), ("0", "+"), ("+", "0"), ("+", "+"))


class _Gate:
    def __init__(self, name):
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"{verdict}: {self.name}")
        return False


def test_contribution_table_exact_reproduction():
    with _Gate("contribution table for input 00 matches all 16 tabulated values (1e-12, <1s)"):
        start = time.perf_counter()
        table = contribution_table("0", "0")
        elapsed = time.perf_counter() - start
        assert np.all(np.abs(table.entries - EXPECTED_TABLE_00) <= TOL)
        assert table.row_labels == ("(0+;0+)", "(0+;0-)", "(0-;0+)", "(0-;0-)")
        assert elapsed < 1.0


def test_zero_outcome_structure():
    with _Gate("each outcome excludes exactly one input; map is a bijection with 1->00"):
        basis = eta_basis()
        assert basis.excluded_input[1] == ("0", "0")
        assert sorted(basis.excluded_input) == [1, 2, 3, 4]
        assert len(set(basis.excluded_input.values())) == 4
        for i, pair in basis.excluded_input.items():
            rho = product_input(*pair)
            assert abs(np.trace(basis.projectors[i - 1] @ rho).real) <= TOL


def test_decomposition_reconstruction_identity():
    with _Gate("sub-ensemble terms reconstruct the state on 200 random pairs at dims 2, 4, 8"):
        for dim in (2, 4, 8):
            rng = np.random.default_rng(900 + dim)
            for _ in range(200):
                rho = random_density(rng, dim)
                basis = random_basis(rng, dim)
                terms = decompose(rho, basis)
                assert np.all(np.abs(sum(t.operator for t in terms) - rho) <= TOL)
                for t, ket in zip(terms, basis.vectors):
                    born = float(np.vdot(ket, rho @ ket).real)
                    assert abs(t.weight - born) <= TOL


def test_preparation_assignment_mixtures():
    with _Gate("each preparation is an equal mixture of its two assignment operators"):
        proj = {label: projector_from_ket(standard_ket(label)) for label in "01+-"}
        r_0p = assignment_operator(proj["0"], proj["+"])
        r_0m = assignment_operator(proj["0"], proj["-"])
        r_1p = assignment_operator(proj["1"], proj["+"])
        assert np.all(np.abs(0.5 * r_0p + 0.5 * r_0m - preparation_density("0")) <= TOL)
        assert np.all(np.abs(0.5 * r_0p + 0.5 * r_1p - preparation_density("+")) <= TOL)


def test_negativity_witness_eigenvalue():
    with _Gate("the (0,+) sub-ensemble of |0><0| has eigenvalue (1-sqrt(2))/4 (1e-9)"):
        rho = projector_from_ket(standard_ket("0"))
        term = decompose(rho, named_basis("X"))[0]
        lowest = float(np.linalg.eigvalsh(term.operator)[0])
        assert abs(lowest - (1.0 - np.sqrt(2.0)) / 4.0) <= 1e-9
        assert lowest < 0


def test_measurement_basis_validity():
    with _Gate("measurement projectors are rank-1, mutually orthogonal, and complete"):
        basis = eta_basis()
        for p in basis.projectors:
            assert np.all(np.abs(p - p.conj().T) <= TOL)
            assert np.all(np.abs(p @ p - p) <= TOL)
            assert abs(np.trace(p).real - 1.0) <= TOL
        assert np.all(np.abs(sum(basis.projectors) - np.eye(4)) <= TOL)
        for a in range(4):
            for b in range(a + 1, 4):
                assert np.all(np.abs(basis.projectors[a] @ basis.projectors[b]) <= TOL)


def test_consistency_bridge():
    with _Gate("quarter column sums equal Born probabilities for all inputs and outcomes"):
        for first, second in INPUTS:
            table = contribution_table(first, second)
            for i in (1, 2, 3, 4):
                column = table.entries[:, i - 1].sum() / 4.0
                assert abs(column - outcome_probability(i, first, second)) <= TOL


def test_marginal_laws():
    with _Gate("joint-table marginals match Born distributions on 200 random triples at dims 2, 4"):
        for dim in (2, 4):
            rng = np.random.default_rng(950 + dim)
            for _ in range(200):
                rho = random_density(rng, dim)
                basis_a = random_basis(rng, dim)
                basis_b = random_basis(rng, dim)
                dist = mh_joint(rho, basis_a, basis_b)
                born_a = [float(np.vdot(k, rho @ k).real) for k in basis_a.vectors]
                born_b = [float(np.vdot(k, rho @ k).real) for k in basis_b.vectors]
                assert np.all(np.abs(dist.marginal_a() - born_a) <= TOL)
                assert np.all(np.abs(dist.marginal_b() - born_b) <= TOL)
                assert abs(dist.total() - 1.0) <= TOL


def _run_cli(argv):
    return subprocess.run(
        [sys.executable, "-m", "subens", *argv],
        capture_output=True,
        check=False,
    )


def test_cli_determinism():
    with _Gate("eta, table --input 00, and verify are byte-identical across two runs"):
        for argv in (["eta"], ["table", "--input", "00"], ["verify"]):
            first = _run_cli(argv)
            second = _run_cli(argv)
            assert first.returncode == 0 and second.returncode == 0
            assert first.stdout == second.stdout
            assert first.stdout  # non-empty document
