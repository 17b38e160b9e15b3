import json
import warnings

import numpy as np
import pytest

from subens import (
    ATOL,
    JointQuasiDistribution,
    MeasurementBasis,
    almost_equal,
    assignment_operator,
    basis_from_kets,
    contribution_table,
    decompose,
    eta_basis,
    mh_joint,
    named_basis,
    negativity,
    pauli_expand,
    pauli_matrix,
    product_input,
    projector_from_ket,
    standard_ket,
    validate_density,
    x_basis,
    z_basis,
)
from subens.cli import main

from helpers import matrix_to_json, random_basis, random_density

I2 = pauli_matrix("I")
X = pauli_matrix("X")
Z = pauli_matrix("Z")

PROJ_0 = projector_from_ket(standard_ket("0"))
PROJ_1 = projector_from_ket(standard_ket("1"))
PROJ_PLUS = projector_from_ket(standard_ket("+"))
PROJ_MINUS = projector_from_ket(standard_ket("-"))


class TestMeasurementBasis:
    def test_named_bases(self):
        assert z_basis().labels == ("0", "1")
        assert x_basis().labels == ("+", "-")
        assert named_basis("Z").name == "Z"
        with pytest.raises(ValueError, match="unknown basis"):
            named_basis("Y")

    def test_labels_default_to_outcome_numbers(self):
        basis = MeasurementBasis(vectors=[standard_ket("0"), standard_ket("1")])
        assert basis.labels == ("0", "1")

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError, match="orthonormal"):
            basis_from_kets([standard_ket("0"), standard_ket("+")])

    def test_rejects_wrong_count(self):
        with pytest.raises(ValueError, match="exactly"):
            MeasurementBasis(vectors=(standard_ket("0"),), labels=("0",))

    def test_rejects_kets_of_different_lengths(self):
        with pytest.raises(ValueError) as exc:
            basis_from_kets([[1, 0], [0, 1, 0]])
        assert str(exc.value) == "basis vectors must be kets of a common dimension"

    def test_rejects_wrong_label_count(self):
        with pytest.raises(ValueError) as exc:
            basis_from_kets([standard_ket("0"), standard_ket("1")], labels=("0",))
        assert str(exc.value) == "need one label per basis vector"

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="orthonormal"):
            basis_from_kets([2 * standard_ket("0"), standard_ket("1")])

    def test_matrix_holds_kets_as_columns(self):
        basis = x_basis()
        assert basis.matrix.shape == (2, 2)
        assert not basis.matrix.flags.writeable
        for k, ket in enumerate(basis.vectors):
            assert np.array_equal(ket, basis.matrix[:, k])
            assert np.array_equal(ket, standard_ket(basis.labels[k]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
    def test_rejects_non_finite(self, bad):
        ket = np.array([bad, 0.0], dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                basis_from_kets([ket, standard_ket("1")])

    def test_orthonormality_error_gives_residual(self):
        # |+> and |-> typed to 6 digits: <f|f> = 2 * 0.707107**2 = 1 + 6.19e-7
        s = 0.707107
        with pytest.raises(ValueError, match="orthonormal") as exc:
            basis_from_kets([[s, s], [s, -s]])
        assert "max|V^H V - I| = 6.19e-07" in str(exc.value)
        assert f"tolerance {ATOL:g}" in str(exc.value)

    def test_completeness_error_gives_residual(self):
        # V = diag(sqrt(1 + delta)) W with W unitary: V^H V - I = W^H diag(delta) W
        # spreads delta over the entries (|entry| = 5e-13), while V V^H - I =
        # diag(delta) keeps all of it (2e-12)
        w = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]) / 2
        v = np.sqrt(1 + np.array([2e-12, 0, 0, 0]))[:, None] * w
        with pytest.raises(ValueError, match="not complete") as exc:
            basis_from_kets(list(v.T))
        assert "max|V V^H - I| = 2e-12" in str(exc.value)
        assert f"tolerance {ATOL:g}" in str(exc.value)


class TestValidateDensity:
    def test_accepts_valid(self):
        validate_density(np.eye(2) / 2)
        validate_density(PROJ_0)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            validate_density(np.eye(2))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError) as exc:
            validate_density(np.array([[0.5, 0.5], [0.0, 0.5]]))
        assert str(exc.value) == (
            "density matrix is not Hermitian: max|rho - rho^H| = 0.5 exceeds tolerance 1e-12"
        )

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="negative eigenvalue"):
            validate_density(np.diag([1.5, -0.5]))

    def test_negative_eigenvalue_message_names_the_tolerance(self):
        with pytest.raises(ValueError) as exc:
            validate_density(np.diag([1.5, -0.5]))
        assert str(exc.value) == (
            "density matrix has negative eigenvalue -0.5 beyond tolerance 1e-10"
        )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(np.inf, np.nan)])
    def test_rejects_non_finite(self, bad):
        rho = np.array([[bad, 0.0], [0.0, 0.5]], dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                validate_density(rho)


class TestDecompose:
    def test_eigenbasis(self):
        terms = decompose(PROJ_0, z_basis())
        assert almost_equal(terms[0].operator, PROJ_0)
        assert terms[0].weight == pytest.approx(1.0, abs=ATOL)
        assert almost_equal(terms[1].operator, np.zeros((2, 2)))
        assert terms[1].weight == pytest.approx(0.0, abs=ATOL)

    def test_conjugate_basis(self):
        # (|0><0| |+-><+-| + h.c.)/2 = (I +- X + Z)/4, worked out by hand
        terms = decompose(PROJ_0, x_basis())
        assert almost_equal(terms[0].operator, np.array([[0.5, 0.25], [0.25, 0.0]]))
        assert almost_equal(terms[1].operator, np.array([[0.5, -0.25], [-0.25, 0.0]]))
        assert terms[0].weight == pytest.approx(0.5, abs=ATOL)
        assert terms[1].weight == pytest.approx(0.5, abs=ATOL)

    def test_maximally_mixed(self):
        for basis in (z_basis(), x_basis()):
            for term, ket in zip(decompose(np.eye(2) / 2, basis), basis.vectors):
                assert almost_equal(term.operator, projector_from_ket(ket) / 2)
                assert term.weight == pytest.approx(0.5, abs=ATOL)

    def test_rejects_invalid_state(self):
        with pytest.raises(ValueError):
            decompose(np.eye(2), z_basis())

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            decompose(np.eye(4) / 4, z_basis())

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_reconstruction_and_weights(self, dim):
        rng = np.random.default_rng(300 + dim)
        for _ in range(200):
            rho = random_density(rng, dim)
            basis = random_basis(rng, dim)
            terms = decompose(rho, basis)
            total = sum(t.operator for t in terms)
            assert almost_equal(total, rho)
            assert abs(sum(t.weight for t in terms) - 1.0) <= 1e-12
            for t, ket in zip(terms, basis.vectors):
                born = float(np.vdot(ket, rho @ ket).real)
                assert abs(t.weight - born) <= 1e-12
                assert almost_equal(t.operator, t.operator.conj().T)

    def test_terms_can_fail_positivity(self):
        term = decompose(PROJ_0, x_basis())[0]
        lowest = np.linalg.eigvalsh(term.operator).min()
        assert lowest < -0.01
        assert abs(lowest - (1 - np.sqrt(2)) / 4) <= 1e-9


class TestAssignmentOperator:
    def test_z_plus(self):
        op = assignment_operator(PROJ_0, PROJ_PLUS)
        assert almost_equal(op, np.array([[1.0, 0.5], [0.5, 0.0]]))
        # twice the normalized operator recovers the plain Pauli sum I + X + Z
        assert almost_equal(2 * op, I2 + X + Z)

    def test_z_minus(self):
        op = assignment_operator(PROJ_0, PROJ_MINUS)
        assert almost_equal(op, np.array([[1.0, -0.5], [-0.5, 0.0]]))
        assert almost_equal(2 * op, I2 - X + Z)

    def test_one_plus(self):
        op = assignment_operator(PROJ_1, PROJ_PLUS)
        assert almost_equal(2 * op, I2 + X - Z)

    def test_trace_one(self):
        assert np.trace(assignment_operator(PROJ_0, PROJ_PLUS)).real == pytest.approx(
            1.0, abs=ATOL
        )

    def test_orthogonal_projectors_rejected(self):
        with pytest.raises(ValueError) as exc:
            assignment_operator(PROJ_0, PROJ_1)
        assert str(exc.value) == (
            "projectors are orthogonal: tr(pa pb) = 0 is within tolerance 1e-12; "
            "simultaneous assignment is undefined"
        )

    @pytest.mark.parametrize(
        ("pa", "pb", "message"),
        [
            (
                PROJ_0 + np.array([[0, 1e-9], [0, 0]]),
                PROJ_PLUS,
                "pa is not a rank-1 projector: not Hermitian, max|pa - pa^H| = 1e-09",
            ),
            (
                PROJ_0,
                0.5 * PROJ_PLUS,
                "pb is not a rank-1 projector: not idempotent, max|pb^2 - pb| = 0.125",
            ),
            (np.eye(2), PROJ_PLUS, "pa is not a rank-1 projector: trace is not 1, |tr pa - 1| = 1"),
        ],
        ids=["hermiticity", "idempotence", "trace"],
    )
    def test_rejection_names_the_failed_property_and_its_residual(self, pa, pb, message):
        with pytest.raises(ValueError) as exc:
            assignment_operator(pa, pb)
        assert str(exc.value) == message + " exceeds tolerance 1e-12"

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError) as exc:
            assignment_operator(PROJ_0, np.kron(PROJ_0, PROJ_PLUS))
        assert str(exc.value) == "dimension mismatch: 2 vs 4"

    def test_rank_one_required(self):
        with pytest.raises(ValueError, match="rank-1"):
            assignment_operator(np.eye(2), PROJ_PLUS)
        with pytest.raises(ValueError, match="rank-1"):
            assignment_operator(PROJ_0, 0.5 * PROJ_PLUS)


class TestJointDistribution:
    def test_zero_state(self):
        dist = mh_joint(PROJ_0, z_basis(), x_basis())
        assert almost_equal(dist.q, [[0.5, 0.5], [0.0, 0.0]])

    def test_plus_state(self):
        dist = mh_joint(PROJ_PLUS, z_basis(), x_basis())
        assert almost_equal(dist.q, [[0.5, 0.0], [0.5, 0.0]])

    def test_commuting_case_is_nonnegative(self):
        rng = np.random.default_rng(41)
        basis = random_basis(rng, 4)
        p = rng.uniform(size=4)
        p /= p.sum()
        rho = sum(
            w * projector_from_ket(ket) for w, ket in zip(p, basis.vectors)
        )
        basis_b = random_basis(rng, 4)
        dist = mh_joint(rho, basis, basis_b)
        assert dist.q.min() >= -ATOL
        # commuting case: q(a,b) = p_a |<b|a>|^2
        for a, ket_a in enumerate(basis.vectors):
            for b, ket_b in enumerate(basis_b.vectors):
                expected = p[a] * abs(np.vdot(ket_b, ket_a)) ** 2
                assert abs(dist.q[a, b] - expected) <= 1e-12

    @pytest.mark.parametrize("dim", [2, 4])
    def test_marginals(self, dim):
        rng = np.random.default_rng(400 + dim)
        for _ in range(200):
            rho = random_density(rng, dim)
            basis_a = random_basis(rng, dim)
            basis_b = random_basis(rng, dim)
            dist = mh_joint(rho, basis_a, basis_b)
            born_a = [float(np.vdot(k, rho @ k).real) for k in basis_a.vectors]
            born_b = [float(np.vdot(k, rho @ k).real) for k in basis_b.vectors]
            assert np.allclose(dist.marginal_a(), born_a, atol=1e-12, rtol=0)
            assert np.allclose(dist.marginal_b(), born_b, atol=1e-12, rtol=0)
            assert abs(dist.total() - 1.0) <= 1e-12

    def test_order_symmetry(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            rho = random_density(rng, 4)
            basis_a = random_basis(rng, 4)
            basis_b = random_basis(rng, 4)
            ab = mh_joint(rho, basis_a, basis_b)
            ba = mh_joint(rho, basis_b, basis_a)
            assert almost_equal(ab.q, ba.q.T)
            # both agree with the direct real-part formula
            for a, ket_a in enumerate(basis_a.vectors):
                pa = projector_from_ket(ket_a)
                for b, ket_b in enumerate(basis_b.vectors):
                    pb = projector_from_ket(ket_b)
                    direct = np.trace(pb @ pa @ rho).real
                    assert abs(ab.q[a, b] - direct) <= 1e-12

    def test_rejects_dimension_mismatch(self):
        rng = np.random.default_rng(44)
        with pytest.raises(ValueError, match="dimensions differ"):
            mh_joint(np.eye(2) / 2, z_basis(), random_basis(rng, 4))

    @pytest.mark.parametrize(
        "q", [np.array(0.5), np.array([1.0, -2.0]), np.zeros((2, 2, 2))], ids=["0-d", "1-d", "3-d"]
    )
    def test_table_must_be_two_dimensional(self, q):
        # a 1-D table's marginal_a raised numpy's AxisError, a 0-d one's marginal_b gave 0.5
        with pytest.raises(ValueError) as exc:
            JointQuasiDistribution(q)
        assert str(exc.value) == f"quasi-probability table must be a matrix, got shape {q.shape}"

    def test_json_dict_shape(self, capsys, tmp_path):
        # the document is built by the CLI from the bases and the library's table
        basis_a, basis_b = z_basis(), x_basis()
        dist = mh_joint(PROJ_0, basis_a, basis_b)
        assert (basis_a.name, basis_b.name, dist.q.shape) == ("Z", "X", (2, 2))
        state = tmp_path / "zero.json"
        state.write_text(json.dumps(matrix_to_json(PROJ_0)))
        argv = ["mh", "--state", str(state), "--basis-a", "Z", "--basis-b", "X", "--format", "json"]
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"basisA": "Z", "basisB": "X", "q": dist.q.tolist()}


class TestNegativity:
    def test_true_distribution_has_zero(self):
        dist = mh_joint(PROJ_0, z_basis(), x_basis())
        assert negativity(dist) == 0.0

    def test_classical_table_reads_exactly_zero(self):
        # rho = |+><+| commutes with X, so the table is a true joint distribution
        assert negativity(mh_joint(PROJ_PLUS, z_basis(), x_basis())) == 0.0

    def test_rounding_noise_within_atol_counts_as_zero(self):
        assert negativity([0.5, -ATOL, -1e-16, 0.5]) == 0.0
        assert negativity([0.5, -2 * ATOL, 0.5]) == pytest.approx(2 * ATOL, abs=1e-20)

    def test_simple_array(self):
        assert negativity([0.5, 0.75, -0.25]) == pytest.approx(0.25, abs=ATOL)

    @pytest.mark.parametrize(
        ("q", "expected"),
        [(-0.5, 0.5), ([1.0, -2.0], 2.0), ([[[0.5, -0.5]], [[-1.0, 2.0]]], 1.5)],
        ids=["0-d", "1-d", "3-d"],
    )
    def test_takes_an_array_of_any_shape(self, q, expected):
        # it needs no marginals, so unlike JointQuasiDistribution it takes any shape
        assert negativity(np.array(q)) == expected

    def test_each_negative_entry_contributes_its_magnitude(self):
        assert negativity([[0.25, -0.25], [-0.25, 0.75]]) == pytest.approx(
            0.5, abs=ATOL
        )


    @pytest.mark.parametrize(
        "q",
        [
            np.array([[np.nan, -0.5], [0.25, 0.25]]),
            JointQuasiDistribution(q=[[np.inf, -0.5], [0.25, 0.25]]),
        ],
        ids=["array", "distribution"],
    )
    def test_rejects_non_finite(self, q):
        # NaN is not below -ATOL, so unchecked this read 0.5
        with pytest.raises(ValueError) as exc:
            negativity(q)
        assert str(exc.value) == "quasi-probability table has non-finite entries"

    def test_overflowing_sum_is_rejected_without_warning(self):
        # unchecked, this read inf with numpy's RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as exc:
                negativity([-1.7e308, -1.7e308])
        assert str(exc.value) == "negativity overflows a double"

    @pytest.mark.parametrize("read", [negativity, JointQuasiDistribution])
    def test_complex_table_is_rejected_without_warning(self, read):
        # dtype=float dropped the imaginary part with numpy's ComplexWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as exc:
                read(np.array([[0.5 + 1j, 0.5]]))
        assert str(exc.value) == (
            "quasi-probability table is not real: max|Im q| = 1 exceeds tolerance 1e-12"
        )

    def test_imaginary_part_within_atol_reads_as_the_real_part(self):
        q = np.array([[0.75 + ATOL * 1j, -0.25 - 1e-16j]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dist = JointQuasiDistribution(q=q)
            assert negativity(q) == 0.25
        assert dist.q.dtype == float
        assert dist.q.tolist() == [[0.75, -0.25]]


class TestArrayHoldingValues:
    @pytest.mark.parametrize(
        "make",
        [
            z_basis,
            lambda: decompose(PROJ_0, x_basis())[0],
            lambda: mh_joint(PROJ_0, z_basis(), x_basis()),
            eta_basis,
            lambda: contribution_table("0", "0"),
            lambda: product_input("0", "0"),
            lambda: pauli_expand(pauli_matrix("XZ")),
        ],
        ids=[
            "MeasurementBasis",
            "SubensembleOperator",
            "JointQuasiDistribution",
            "EtaBasis",
            "ContributionTable",
            "ProductPreparation",
            "PauliExpansion",
        ],
    )
    def test_equality_and_hash_do_not_raise(self, make):
        # a generated dataclass __eq__ would compare the ndarray fields and raise
        a, b = make(), make()
        assert a == a
        assert (a == b) in (True, False)
        assert hash(a) == hash(a)
        assert len({a, b}) in (1, 2)
