import dataclasses
import json
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subens.scenario as scenario
from subens import (
    ATOL,
    PauliExpansion,
    ScenarioConsistencyError,
    almost_equal,
    assignment_operator,
    contribution_table,
    eta_basis,
    eta_projector,
    negativity,
    outcome_probability,
    pauli_expand,
    pauli_synthesize,
    preparation_density,
    product_input,
    projector_from_ket,
    standard_ket,
    verify_paradox,
)
from subens.cli import main
from subens.operators import _check_rank_one_projector

from helpers import inject_tables, random_unitary

SQRT_HALF = np.sqrt(0.5)

EXPECTED_EXPANSIONS = {
    1: {"II": 0.25, "XX": 0.25, "YY": 0.25, "ZZ": -0.25},
    2: {"II": 0.25, "XZ": 0.25, "YY": -0.25, "ZX": -0.25},
    3: {"II": 0.25, "XZ": -0.25, "YY": -0.25, "ZX": 0.25},
    4: {"II": 0.25, "XX": -0.25, "YY": 0.25, "ZZ": 0.25},
}

EXPECTED_KETS = {
    1: [0.0, SQRT_HALF, SQRT_HALF, 0.0],
    2: [0.5, -0.5, 0.5, 0.5],
    3: [0.5, 0.5, -0.5, 0.5],
    4: [SQRT_HALF, 0.0, 0.0, -SQRT_HALF],
}

EXPECTED_EXCLUSIONS = {1: ("0", "0"), 2: ("0", "+"), 3: ("+", "0"), 4: ("+", "+")}

# the 4x4 contribution grid for input (0,0): rows are the assignment
# products (0+;0+), (0+;0-), (0-;0+), (0-;0-)
EXPECTED_TABLE_00 = np.array(
    [
        [0.25, 0.25, 0.25, 0.25],
        [-0.25, 0.75, -0.25, 0.75],
        [-0.25, -0.25, 0.75, 0.75],
        [0.25, 0.25, 0.25, 0.25],
    ]
)

INPUTS = (("0", "0"), ("0", "+"), ("+", "0"), ("+", "+"))


class TestEtaProjectors:
    @pytest.mark.parametrize("i", [1, 2, 3, 4])
    def test_expansion_coefficients(self, i):
        e = pauli_expand(eta_projector(i))
        assert set(e.coeffs) == set(EXPECTED_EXPANSIONS[i])
        for s, c in EXPECTED_EXPANSIONS[i].items():
            assert e.coeffs[s] == pytest.approx(c, abs=ATOL)

    @pytest.mark.parametrize("i", [1, 2, 3, 4])
    def test_rank_one_projector(self, i):
        p = eta_projector(i)
        _check_rank_one_projector(p)
        assert np.trace(p).real == pytest.approx(1.0, abs=ATOL)

    def test_index_out_of_range(self):
        for bad in (0, 5, "1"):
            with pytest.raises(ValueError):
                eta_projector(bad)


class TestEtaBasis:
    def test_completeness_and_orthogonality(self):
        basis = eta_basis()
        assert almost_equal(sum(basis.projectors), np.eye(4))
        for a in range(4):
            for b in range(a + 1, 4):
                assert almost_equal(
                    basis.projectors[a] @ basis.projectors[b], np.zeros((4, 4))
                )

    def test_kets_match_projectors(self):
        basis = eta_basis()
        for i, (ket, proj) in enumerate(zip(basis.kets, basis.projectors), start=1):
            assert almost_equal(projector_from_ket(ket), proj)
            assert almost_equal(ket, EXPECTED_KETS[i])

    def test_exclusion_map(self):
        basis = eta_basis()
        assert basis.excluded_input == EXPECTED_EXCLUSIONS
        assert len(set(basis.excluded_input.values())) == 4
        for i, pair in EXPECTED_EXCLUSIONS.items():
            born = np.trace(basis.projectors[i - 1] @ product_input(*pair)).real
            assert abs(born) <= ATOL

    def test_stacks_are_the_build_arrays(self):
        basis = eta_basis()
        assert basis.projectors is scenario._scenario().projectors
        assert basis.kets.shape == (4, 4)

    def test_rank_one_check_reads_the_complex_trace(self):
        # trace 1 + 2e-12j: Hermitian and idempotent within ATOL, trace not 1
        projectors = scenario._scenario().projectors.copy()
        projectors[0] = projectors[0] + 0.5e-12j * np.eye(4)
        with pytest.raises(ScenarioConsistencyError) as exc:
            scenario._excluded_inputs(projectors, _born(projectors))
        assert str(exc.value) == (
            "outcome 1 coefficients do not synthesize a rank-1 projector: "
            "trace is not 1, |tr P1 - 1| = 2e-12 exceeds tolerance 1e-12"
        )
        with pytest.raises(ValueError) as exc:
            assignment_operator(projectors[0], projectors[1])
        assert str(exc.value) == (
            "pa is not a rank-1 projector: trace is not 1, |tr pa - 1| = 2e-12 "
            "exceeds tolerance 1e-12"
        )

    @pytest.mark.parametrize(
        ("string", "i"), [(s, i) for i, coeffs in scenario.ETA_EXPANSIONS.items() for s in coeffs]
    )
    def test_corrupted_coefficient_fails_construction(self, monkeypatch, string, i):
        corrupted = scenario.ETA_EXPANSIONS[i][string] + 0.01
        inject_tables(monkeypatch, {i: {**scenario.ETA_EXPANSIONS[i], string: corrupted}})
        with pytest.raises(ScenarioConsistencyError):
            eta_basis()
        report = verify_paradox()
        assert not report.passed

    @pytest.mark.parametrize(
        ("tables", "message"),
        [
            (
                {1: EXPECTED_EXPANSIONS[2], 2: EXPECTED_EXPANSIONS[1]},
                "outcome 1 must exclude input 00, found 0+",
            ),
            (
                {2: EXPECTED_EXPANSIONS[1]},
                "projectors do not sum to the identity: "
                "max|P1 + P2 + P3 + P4 - I| = 0.75 exceeds tolerance 1e-12",
            ),
            (
                # the computational basis: |00> is excluded by no input
                {
                    i: {"II": 0.25, "IZ": 0.25 * b, "ZI": 0.25 * a, "ZZ": 0.25 * a * b}
                    for i, (a, b) in zip((1, 2, 3, 4), ((1, 1), (1, -1), (-1, 1), (-1, -1)))
                },
                "outcome 1 excludes 0 inputs instead of exactly one",
            ),
        ],
        ids=["outcomes-1-2-swapped", "outcome-1-twice", "computational-basis"],
    )
    def test_measurement_defect_is_named(self, monkeypatch, tables, message):
        inject_tables(monkeypatch, tables)
        with pytest.raises(ScenarioConsistencyError) as exc:
            eta_basis()
        assert str(exc.value) == message
        (check,) = verify_paradox().checks
        assert (check.name, check.passed, check.detail) == (
            "measurement-construction",
            False,
            message,
        )


class TestOutcomeProbability:
    def test_examples(self):
        assert outcome_probability(1, "0", "0") == pytest.approx(0.0, abs=ATOL)
        assert outcome_probability(2, "0", "0") == pytest.approx(0.25, abs=ATOL)
        assert outcome_probability(1, "+", "+") == pytest.approx(0.5, abs=ATOL)

    def test_all_values_are_probabilities(self):
        for first, second in INPUTS:
            total = 0.0
            for i in (1, 2, 3, 4):
                p = outcome_probability(i, first, second)
                assert 0.0 <= p <= 1.0
                total += p
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_defective_measurement_is_not_clamped(self, monkeypatch):
        # a negative probability must reach the checks that would catch it
        inject_tables(monkeypatch, {1: {**scenario.ETA_EXPANSIONS[1], "ZZ": -0.5}})
        assert outcome_probability(1, "0", "0") == -0.25


class TestContributionTable:
    def test_input_00_reproduces_tabulated_values(self):
        table = contribution_table("0", "0")
        assert table.row_labels == ("(0+;0+)", "(0+;0-)", "(0-;0+)", "(0-;0-)")
        assert np.all(np.abs(table.entries - EXPECTED_TABLE_00) <= ATOL)

    def test_row_labels_follow_components(self):
        assert contribution_table("0", "+").row_labels == (
            "(0+;0+)",
            "(0+;1+)",
            "(0-;0+)",
            "(0-;1+)",
        )
        assert contribution_table("+", "+").row_labels == (
            "(0+;0+)",
            "(0+;1+)",
            "(1+;0+)",
            "(1+;1+)",
        )

    def test_rows_sum_to_one(self):
        for first, second in INPUTS:
            sums = contribution_table(first, second).entries.sum(axis=1)
            assert np.allclose(sums, 1.0, atol=ATOL, rtol=0)

    def test_quarter_column_sums_match_born(self):
        for first, second in INPUTS:
            table = contribution_table(first, second)
            born = [outcome_probability(i, first, second) for i in (1, 2, 3, 4)]
            quarter_sums = table.entries.sum(axis=0) / 4.0
            assert np.allclose(quarter_sums, born, atol=ATOL, rtol=0)

    def test_common_row_is_flat_for_every_input(self):
        for first, second in INPUTS:
            table = contribution_table(first, second)
            assert table.row_labels[0] == "(0+;0+)"
            assert np.allclose(table.entries[0], 0.25, atol=ATOL, rtol=0)

    def test_negativity_of_00_table(self):
        # four entries of -1/4, each contributing 1/4
        table = contribution_table("0", "0")
        assert negativity(table.entries) == pytest.approx(1.0, abs=ATOL)
        assert negativity(table.entries[1]) == pytest.approx(0.5, abs=ATOL)

    def test_negative_outcomes_are_found_once_per_build(self):
        for pair in INPUTS:
            table = contribution_table(*pair)
            assert table.negatives is contribution_table(*pair).negatives
        assert contribution_table("0", "0").negatives == ((), (1, 3), (1, 2), ())

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError, match="unknown preparation"):
            contribution_table("1", "0")

    def test_csv_layout(self, capsys):
        # table --format csv is the bare 4x4 grid of entries
        assert main(["table", "--input", "00", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "0.25,0.25,0.25,0.25"
        assert len(lines) == 4


class TestPreparationMixtures:
    def test_zero_preparation(self):
        r_plus = assignment_operator(
            projector_from_ket(standard_ket("0")), projector_from_ket(standard_ket("+"))
        )
        r_minus = assignment_operator(
            projector_from_ket(standard_ket("0")), projector_from_ket(standard_ket("-"))
        )
        mixture = 0.5 * r_plus + 0.5 * r_minus
        assert almost_equal(mixture, preparation_density("0"))

    def test_plus_preparation(self):
        r_zero = assignment_operator(
            projector_from_ket(standard_ket("0")), projector_from_ket(standard_ket("+"))
        )
        r_one = assignment_operator(
            projector_from_ket(standard_ket("1")), projector_from_ket(standard_ket("+"))
        )
        mixture = 0.5 * r_zero + 0.5 * r_one
        assert almost_equal(mixture, preparation_density("+"))


class TestVerifyParadox:
    def test_report_passes(self):
        report = verify_paradox()
        assert report.passed
        assert all(c.passed for c in report.checks)
        assert {c.name for c in report.checks} == {
            "measurement-construction",
            "exclusion-bijection",
            "excluded-born-zero",
            "row-normalization",
            "common-subensemble-flat",
            "born-consistency",
            "negative-cancellation",
        }

    def test_input_00_details(self):
        report = verify_paradox()
        table = report.tables[0]
        assert (table.first, table.second) == ("0", "0")
        assert report.excluded_outcomes[0] == 1
        assert report.born_probabilities[0] == pytest.approx(0.0, abs=ATOL)
        assert np.allclose(table.entries, EXPECTED_TABLE_00, atol=ATOL, rtol=0)
        # rows (0+;0-) and (0-;0+) are negative at outcome 1, and also at 3 and 2
        assert table.negatives == ((), (1, 3), (1, 2), ())

    def test_every_input_covered(self):
        report = verify_paradox()
        assert [(t.first, t.second) for t in report.tables] == list(INPUTS)
        assert report.excluded_outcomes == (1, 2, 3, 4)
        for table, outcome, born in zip(
            report.tables, report.excluded_outcomes, report.born_probabilities
        ):
            assert born <= ATOL
            assert sum(outcome in neg for neg in table.negatives) == 2
            assert table.negatives[0] == ()  # the shared (0+;0+) row

    def test_failed_construction_has_no_inputs(self, monkeypatch):
        inject_tables(monkeypatch, {1: {**scenario.ETA_EXPANSIONS[1], "XX": 0.26}})
        report = verify_paradox()
        assert [c.name for c in report.checks] == ["measurement-construction"]
        assert report.tables == report.excluded_outcomes == report.born_probabilities == ()

    def test_json_shape(self, capsys):
        assert main(["verify", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is True
        first = doc["inputs"][0]
        assert set(first) == {"input", "excluded_outcome", "born_probability", "rows"}
        assert set(first["rows"][0]) == {"label", "entries", "negatives"}
        assert first["rows"][1] == {
            "label": "(0+;0-)",
            "entries": [-0.25, 0.75, -0.25, 0.75],
            "negatives": [1, 3],
        }

    def test_render_mentions_negative_contributors(self, capsys):
        assert main(["verify"]) == 0
        text = capsys.readouterr().out
        assert "scenario verification: PASS" in text
        assert "negative contributors to outcome 1: (0+;0-), (0-;0+)" in text
        # the tables are table's own pretty text, indented two spaces
        assert main(["table", "--input", "00"]) == 0
        table = capsys.readouterr().out
        assert "".join("  " + line + "\n" for line in table.splitlines()) in text + "\n"


def _arrays(value):
    """Every numpy array reachable from value through dataclass fields and containers."""
    if isinstance(value, np.ndarray):
        yield value
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from _arrays(getattr(value, f.name))
    elif isinstance(value, (tuple, list, dict)):
        for v in value.values() if isinstance(value, dict) else value:
            yield from _arrays(v)


def _results():
    """Every result of the five entry points, arrays as their bytes."""
    basis = eta_basis()
    report = verify_paradox()
    arrays = [
        *basis.projectors,
        *basis.kets,
        *(eta_projector(i) for i in (1, 2, 3, 4)),
        *(contribution_table(*pair).entries for pair in INPUTS),
        *(t.entries for t in report.tables),
    ]
    probabilities = [outcome_probability(i, *pair) for i in (1, 2, 3, 4) for pair in INPUTS]
    return (
        [a.tobytes() for a in arrays],
        np.array(probabilities + list(report.born_probabilities)).tobytes(),
        basis.excluded_input,
        [e.coeffs for e in basis.expansions],
        [t.row_labels for t in report.tables],
        report.checks,
        report.excluded_outcomes,
    )


class TestBuiltOncePerTable:
    """The scenario arrays are built once per process from read-only tables."""

    @staticmethod
    def _count_builds(monkeypatch):
        counts = {"pauli_synthesize": 0, "assignment_operator": 0}
        for name in counts:

            def counted(*args, _name=name, _fn=getattr(scenario, name)):
                counts[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(scenario, name, counted)
        return counts

    def test_second_call_builds_nothing(self, monkeypatch):
        verify_paradox()
        counts = self._count_builds(monkeypatch)
        verify_paradox()
        assert counts == {"pauli_synthesize": 0, "assignment_operator": 0}

    def test_tables_are_read_only(self):
        with pytest.raises(TypeError):
            scenario.ETA_EXPANSIONS[1]["II"] = 0.75
        with pytest.raises(TypeError):
            scenario.ETA_EXPANSIONS[5] = {}
        assert scenario.ETA_EXPANSIONS == EXPECTED_EXPANSIONS

    def test_nothing_is_built_at_import(self):
        code = "import subens.cli, subens.scenario as s; print(s._scenario.cache_info().currsize)"
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert (run.returncode, run.stdout, run.stderr) == (0, "0\n", "")

    def test_fixed_inputs_are_built_at_import_and_the_scenario_is_not(self):
        code = """if True:
            import numpy as np
            import subens.cli
            from subens import scenario, subensemble
            from subens.states import product_input
            from subens.subensemble import named_basis

            built = []
            basis = subensemble.MeasurementBasis
            init, kron = basis.__init__, np.kron
            basis.__init__ = lambda *a, **k: built.append("basis") or init(*a, **k)
            np.kron = lambda *a, **k: built.append("kron") or kron(*a, **k)
            first = [named_basis("Z"), named_basis("X")]
            first += [product_input(a, b) for a in "0+" for b in "0+"]
            again = [named_basis("Z"), named_basis("X")]
            again += [product_input(a, b) for a in "0+" for b in "0+"]
            assert all(x is y for x, y in zip(first, again))
            print(built, scenario._scenario.cache_info().currsize)
        """
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert (run.returncode, run.stdout, run.stderr) == (0, "[] 0\n", "")

    def test_injected_build_is_seen_by_every_entry_point(self, monkeypatch):
        before = _results()
        counts = self._count_builds(monkeypatch)
        tables = {1: {**scenario.ETA_EXPANSIONS[1], "ZZ": -0.5}}
        inject_tables(monkeypatch, tables)
        projector = pauli_synthesize(PauliExpansion(n=2, coeffs=tables[1]))

        message = (
            "outcome 1 coefficients do not synthesize a rank-1 projector: "
            "not idempotent, max|P1^2 - P1| = 0.312 exceeds tolerance 1e-12"
        )
        with pytest.raises(ScenarioConsistencyError) as exc:
            eta_basis()
        assert str(exc.value) == message
        (check,) = verify_paradox().checks
        assert (check.passed, check.detail) == (False, message)
        assert np.array_equal(eta_projector(1), projector)
        assert outcome_probability(1, "0", "0") == -0.25
        table = contribution_table("0", "0")

        def assignment(component):  # "0+" -> R(0+)
            z, x = (projector_from_ket(standard_ket(label)) for label in component)
            return assignment_operator(z, x)

        products = [np.kron(assignment(r[1:3]), assignment(r[4:6])) for r in table.row_labels]
        assert almost_equal(table.entries[:, 0], [np.trace(projector @ r).real for r in products])
        # one build served all five entry points
        assert counts == {"pauli_synthesize": 4, "assignment_operator": 3}

        monkeypatch.undo()
        assert _results() == before

    def test_results_hold_only_read_only_arrays(self):
        results = [
            eta_basis(),
            verify_paradox(),
            *(contribution_table(*pair) for pair in INPUTS),
            *(eta_projector(i) for i in (1, 2, 3, 4)),
        ]
        arrays = list(_arrays(results))
        assert len(arrays) == 2 + 4 + 4 + 4
        assert [a.flags.writeable for a in arrays] == [False] * len(arrays)


# the 33 requests of one benchmark scenario cycle: eta, prob and table for the
# four inputs, and verify twice, each in json, csv and pretty
SCENARIO_COMMANDS = (
    [["eta"]]
    + [[command, "--input", a + b] for command in ("prob", "table") for a, b in INPUTS]
    + [["verify"], ["verify"]]
)
SCENARIO_CYCLE = [
    argv + ["--format", f] for argv in SCENARIO_COMMANDS for f in ("json", "csv", "pretty")
]


class TestServedFromOneBuild:
    """Every scenario command is served from one checked build per process."""

    def test_second_cycle_recomputes_nothing(self, capsys, monkeypatch):
        assert len(SCENARIO_CYCLE) == 33
        counts = {}
        names = ("_excluded_inputs", "eta_projector")
        # product_input is a cached look-up; np.kron counts the densities built
        targets = [(scenario, name) for name in names] + [(np.linalg, "eigh"), (np, "kron")]
        for owner, name in targets:
            counts[name] = 0

            def counted(*args, _name=name, _fn=getattr(owner, name), **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        def cycle():
            """The calls that one cycle makes."""
            counts.update(dict.fromkeys(counts, 0))
            assert [main(argv) for argv in SCENARIO_CYCLE] == [0] * 33
            capsys.readouterr()
            return dict(counts)

        scenario._scenario.cache_clear()  # so that the first cycle builds the scenario
        first = cycle()
        # one build, whose kets are closed form: no eigensolver
        assert (first["_excluded_inputs"], first["eigh"]) == (1, 0)
        assert cycle() == {
            "_excluded_inputs": 0,
            "eta_projector": 48,  # one per outcome of each of the 12 prob requests
            "eigh": 0,
            "kron": 0,
        }

    def test_second_call_returns_the_same_result(self):
        assert eta_basis() is eta_basis()
        assert verify_paradox() is verify_paradox()
        for n, pair in enumerate(INPUTS):
            assert contribution_table(*pair) is contribution_table(*pair)
            assert verify_paradox().tables[n] is contribution_table(*pair)

    def test_shared_maps_are_read_only(self, capsys):
        assert main(["eta", "--format", "csv"]) == 0
        before = capsys.readouterr().out
        basis = eta_basis()
        with pytest.raises(TypeError):
            basis.expansions[0].coeffs["II"] = 0.75
        with pytest.raises(TypeError):
            basis.excluded_input[1] = ("+", "+")
        assert main(["eta", "--format", "csv"]) == 0
        assert capsys.readouterr().out == before

    def test_bad_labels_keep_their_messages(self):
        with pytest.raises(ValueError, match="^unknown preparation label '1'; expected 0 or \\+$"):
            outcome_probability(1, "0", "1")
        with pytest.raises(ValueError, match="^outcome index must be one of"):
            outcome_probability(5, "0", "0")
        # an outcome index is an int, not a bool, a float or a numpy scalar
        for i in (True, 1.0, np.float64(2.0), np.int64(1)):
            message = f"^outcome index must be one of \\(1, 2, 3, 4\\), got {re.escape(repr(i))}$"
            with pytest.raises(ValueError, match=message):
                eta_projector(i)
            with pytest.raises(ValueError, match=message):
                outcome_probability(i, "0", "+")
            with pytest.raises(ValueError, match="^unknown preparation label '1'"):
                outcome_probability(i, "0", "1")


@st.composite
def haar_measurements(draw):
    """The (outcome, 4, 4) projector stack of a Haar-random two-qubit basis."""
    u = random_unitary(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), 4)
    return np.einsum("io,jo->oij", u, u.conj())


def _born(projectors):
    """(outcome, input) Born probabilities, one trace per entry."""
    densities = [product_input(*pair) for pair in INPUTS]
    return np.array([[np.trace(p @ rho).real for rho in densities] for p in projectors])


class TestTableIdentitiesOverRandomMeasurements:
    """The table identities hold for every complete rank-1 four-outcome
    measurement, not only for eta; a random one excludes no input."""

    @settings(max_examples=100, deadline=None)
    @given(haar_measurements())
    def test_rows_sum_to_one(self, projectors):
        rows = scenario._contributions(projectors).sum(axis=2)
        assert np.abs(rows - 1.0).max() <= ATOL

    @settings(max_examples=100, deadline=None)
    @given(haar_measurements())
    def test_quarter_column_sums_are_the_born_matrix(self, projectors):
        quarter_sums = scenario._contributions(projectors).sum(axis=1) / 4.0
        assert np.abs(quarter_sums - _born(projectors).T).max() <= ATOL

    @settings(max_examples=100, deadline=None)
    @given(haar_measurements())
    def test_construction_check_finds_no_excluded_input(self, projectors):
        with pytest.raises(ScenarioConsistencyError) as exc:
            scenario._excluded_inputs(projectors, _born(projectors))
        assert str(exc.value) == "outcome 1 excludes 0 inputs instead of exactly one"
