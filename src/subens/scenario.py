"""A four-outcome entangled two-qubit measurement and its exclusion structure.

Two qubits are each prepared in "0" or "+", giving four product inputs. The
measurement defined by the coefficient tables below has the property that
every outcome occurs with probability zero for exactly one of those inputs,
even though all four inputs share the sub-ensemble that assigns z=0, x=+ to
both qubits. The contribution tables computed here decompose each input into
its four assignment-operator products and show how negative quasi-probability
entries cancel the shared positive term wherever an outcome is excluded.

Everything below is built from the read-only tables and checked on first use,
once per process, and shared read-only; the product inputs are built at import.
"""

from __future__ import annotations

__all__ = [
    "ContributionTable",
    "EtaBasis",
    "ParadoxReport",
    "ScenarioConsistencyError",
    "contribution_table",
    "eta_basis",
    "eta_projector",
    "outcome_probability",
    "verify_paradox",
]

import functools
from collections import namedtuple
from dataclasses import dataclass
from itertools import compress, product
from types import MappingProxyType

import numpy as np

from .operators import (
    ATOL,
    PauliExpansion,
    _check_distance,
    _check_rank_one_projector,
    almost_equal,
    pauli_synthesize,
    projector_from_ket,
)
from .states import product_input, standard_ket
from .subensemble import assignment_operator

OUTCOMES = (1, 2, 3, 4)

INPUT_PAIRS = (("0", "0"), ("0", "+"), ("+", "0"), ("+", "+"))

# Pauli coefficient tables of the four measurement projectors. The 1/4 scale
# makes each synthesized matrix a genuine rank-1 projector; the sign pattern
# on the X/Z strings determines which input each outcome excludes.
ETA_EXPANSIONS = MappingProxyType({
    1: MappingProxyType({"II": 0.25, "XX": 0.25, "YY": 0.25, "ZZ": -0.25}),
    2: MappingProxyType({"II": 0.25, "XZ": 0.25, "YY": -0.25, "ZX": -0.25}),
    3: MappingProxyType({"II": 0.25, "XZ": -0.25, "YY": -0.25, "ZX": 0.25}),
    4: MappingProxyType({"II": 0.25, "XX": -0.25, "YY": 0.25, "ZZ": 0.25}),
})

# The distinct assignment-operator components (z label, then x label) and
# each preparation's two as indices into them: rho("0") = (R(0+) + R(0-))/2
# and rho("+") = (R(0+) + R(1+))/2. Row (s;t) of a contribution table is the
# Kronecker product of the assignment operators of components s and t. Both
# preparations list (0+) first, so row 0 of every table is the shared (0+;0+).
_COMPONENTS = ("0+", "0-", "1+")
_PARTS = {"0": (0, 1), "+": (0, 2)}
# (input, row) -> the row's two components, in INPUT_PAIRS order
_ROW_FACTORS = np.array([list(product(_PARTS[a], _PARTS[b])) for a, b in INPUT_PAIRS])
_ROW_LABELS = tuple(
    tuple(f"({_COMPONENTS[s]};{_COMPONENTS[t]})" for s, t in rows) for rows in _ROW_FACTORS
)


class ScenarioConsistencyError(RuntimeError):
    """The built-in measurement failed its own verification."""


def eta_projector(i: int) -> np.ndarray:
    """Read-only projector onto entangled measurement state i (1-based), unchecked."""
    # an int, not a bool: True == 1 and 1.0 == 1 would pass the membership test
    if not isinstance(i, int) or isinstance(i, bool) or i not in OUTCOMES:
        raise ValueError(f"outcome index must be one of {OUTCOMES}, got {i!r}")
    return _scenario().projectors[OUTCOMES.index(i)]


@functools.cache
def _scenario() -> _Scenario:
    """The build of ETA_EXPANSIONS, made on first use, not at import."""
    return _build(ETA_EXPANSIONS)


# one build: ``basis`` is None when the measurement failed its check
_Scenario = namedtuple("_Scenario", "projectors tables report basis")


def _build(tables) -> _Scenario:
    """Every result of the tables (outcome -> Pauli coefficients), checked, its arrays read-only."""
    expansions = tuple(PauliExpansion(n=2, coeffs=tables[i]) for i in OUTCOMES)
    projectors = np.stack([pauli_synthesize(e) for e in expansions])
    densities = np.stack([product_input(*pair) for pair in INPUT_PAIRS])
    # (outcome, input) Born matrix over INPUT_PAIRS, never clamped
    born = np.einsum("oij,nji->on", projectors, densities).real
    contributions = _contributions(projectors)
    negative = contributions < -ATOL
    for a in (projectors, born, contributions):
        a.setflags(write=False)
    tables = tuple(
        ContributionTable(*pair, labels, entries, tuple(tuple(compress(OUTCOMES, r)) for r in mask))
        for pair, labels, entries, mask in zip(INPUT_PAIRS, _ROW_LABELS, contributions, negative)
    )
    try:
        excluded = _excluded_inputs(projectors, born)
    except ScenarioConsistencyError as exc:
        report = ParadoxReport(checks=(CheckResult("measurement-construction", False, str(exc)),))
        return _Scenario(projectors, tables, report, None)
    # P = |k><k|, so |k> = P e_j / sqrt(P_jj): real positive at the first j with |k_j| > ATOL
    diagonals = np.diagonal(projectors, axis1=1, axis2=2).real
    first = (diagonals > ATOL**2).argmax(axis=1)
    kets = np.stack([p[:, j] / np.sqrt(d[j]) for p, d, j in zip(projectors, diagonals, first)])
    kets.setflags(write=False)
    basis = EtaBasis(
        projectors=projectors,
        kets=kets,
        excluded_input=MappingProxyType({i: INPUT_PAIRS[n] for i, n in zip(OUTCOMES, excluded)}),
        expansions=expansions,
    )
    report = _report(born, contributions, negative, tables, excluded)
    return _Scenario(projectors, tables, report, basis)


def _contributions(projectors: np.ndarray) -> np.ndarray:
    """(input, row, outcome) tensor of the contribution tables."""
    ops = np.stack(
        [
            assignment_operator(
                projector_from_ket(standard_ket(z)), projector_from_ket(standard_ket(x))
            )
            for z, x in _COMPONENTS
        ]
    )
    # kron(ops[s], ops[t]) for every pair of components, as (s, t, 4, 4)
    joint = np.einsum("sij,tkl->stikjl", ops, ops).reshape(3, 3, 4, 4)
    grid = np.einsum("oij,stji->sto", projectors, joint).real
    return grid[_ROW_FACTORS[..., 0], _ROW_FACTORS[..., 1]]


def _excluded_inputs(projectors: np.ndarray, born: np.ndarray) -> np.ndarray:
    """Check the measurement; give, per outcome, the INPUT_PAIRS index it excludes.

    Raises ScenarioConsistencyError unless the projectors are rank-1,
    orthogonal and complete, and each outcome has Born probability 0 for
    exactly one input, bijectively, with outcome 1 excluding "00". The
    result is then a permutation, and ``np.argsort`` of it gives each
    input's excluded outcome.
    """
    try:  # each message ends with the residual and the tolerance it exceeds
        for i, p in zip(OUTCOMES, projectors):
            defect = f"outcome {i} coefficients do not synthesize a rank-1 projector"
            _check_rank_one_projector(p, f"P{i}", defect)
        _check_distance(
            "projectors do not sum to the identity: max|P1 + P2 + P3 + P4 - I|",
            projectors.sum(axis=0),
            np.eye(4),
        )
        products = projectors[:, None] @ projectors[None]
        for a, b in zip(*np.triu_indices(4, k=1)):
            pair = f"outcomes {a + 1} and {b + 1} are not orthogonal: max|P{a + 1} P{b + 1}|"
            _check_distance(pair, products[a, b], 0.0)
    except ValueError as exc:
        raise ScenarioConsistencyError(str(exc)) from exc

    zeros = np.abs(born) <= ATOL
    for i, row in zip(OUTCOMES, zeros):
        if row.sum() != 1:
            raise ScenarioConsistencyError(
                f"outcome {i} excludes {int(row.sum())} inputs instead of exactly one"
            )
    if not zeros.any(axis=0).all():
        raise ScenarioConsistencyError("exclusion map is not a bijection")
    excluded = zeros.argmax(axis=1)
    if INPUT_PAIRS[excluded[0]] != ("0", "0"):
        raise ScenarioConsistencyError(
            f"outcome 1 must exclude input 00, found {''.join(INPUT_PAIRS[excluded[0]])}"
        )
    return excluded


@dataclass(frozen=True, eq=False)
class EtaBasis:
    """The verified four-outcome measurement.

    ``projectors`` and ``kets`` stack one projector and one ket per outcome.
    ``excluded_input`` maps each outcome index to the input it excludes, and
    ``expansions`` are the Pauli coefficient tables of the projectors.
    """

    projectors: np.ndarray
    kets: np.ndarray
    excluded_input: MappingProxyType
    expansions: tuple


def eta_basis() -> EtaBasis:
    """The measurement built from its coefficient tables, verified.

    Raises ScenarioConsistencyError if the stored coefficients fail the
    rank-1 / orthogonality / completeness checks or do not produce the
    one-excluded-input-per-outcome pattern with outcome 1 excluding "00".
    """
    built = _scenario()
    if built.basis is None:
        raise ScenarioConsistencyError(built.report.checks[0].detail)
    return built.basis


def outcome_probability(i: int, first: str, second: str) -> float:
    """Born probability of outcome i for the product input, never clamped."""
    rho = product_input(first, second)  # first, so a bad label wins over a bad i
    return float(np.trace(eta_projector(i) @ rho).real)


@dataclass(frozen=True, eq=False)
class ContributionTable:
    """Sub-ensemble-by-outcome table for one product input.

    Row r is the assignment product R_s x R_t (trace 1 each), column i the
    measurement outcome; entries are tr(P_i (R_s x R_t)). Rows sum to 1, and
    a quarter of each column sum is the Born probability of that outcome.
    ``negatives`` gives, per row, the outcomes (1-based) whose entry is below -ATOL.
    """

    first: str
    second: str
    row_labels: tuple
    entries: np.ndarray
    negatives: tuple


def contribution_table(first: str, second: str) -> ContributionTable:
    """Contribution of each assignment-product sub-ensemble to each outcome."""
    if (first, second) not in INPUT_PAIRS:
        raise ValueError(f"unknown preparation labels {first!r}, {second!r}; expected 0 or +")
    return _scenario().tables[INPUT_PAIRS.index((first, second))]


CheckResult = namedtuple("CheckResult", "name passed detail")


@dataclass(frozen=True)
class ParadoxReport:
    """The verification checks and, per input in INPUT_PAIRS order, its table,
    excluded outcome (1-based) and that outcome's Born probability.

    When the measurement fails construction only that check is present and
    the per-input tuples are empty.
    """

    checks: tuple
    tables: tuple = ()
    excluded_outcomes: tuple = ()
    born_probabilities: tuple = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def verify_paradox() -> ParadoxReport:
    """Check every exclusion invariant of the built-in scenario.

    Never raises: a broken construction shows up as a failed check so that
    callers can render the report and map it to an exit status.
    """
    return _scenario().report


def _report(born, contributions, negative, tables: tuple, excluded: np.ndarray) -> ParadoxReport:
    """The checks of a measurement that passed construction, and its per-input results."""
    inputs = np.arange(len(INPUT_PAIRS))
    outcomes = np.argsort(excluded)  # 0-based excluded outcome of each input
    excluded_born = born[outcomes, inputs]
    exclusions = ", ".join(f"{i}->{''.join(INPUT_PAIRS[n])}" for i, n in zip(OUTCOMES, excluded))
    checks = (
        CheckResult(
            "measurement-construction",
            True,
            "four rank-1 projectors, mutually orthogonal and complete",
        ),
        CheckResult(
            "exclusion-bijection",
            True,
            f"each outcome excludes exactly one input ({exclusions})",
        ),
        CheckResult(
            "excluded-born-zero",
            bool(np.all(excluded_born <= ATOL)),
            "every excluded input has Born probability 0 at its outcome",
        ),
        CheckResult(
            "row-normalization",
            almost_equal(contributions.sum(axis=2), np.ones((4, 4))),
            "every sub-ensemble row sums to 1 across the four outcomes",
        ),
        CheckResult(
            "common-subensemble-flat",
            almost_equal(contributions[:, 0], np.full((4, 4), 0.25)),
            f"row {_ROW_LABELS[0][0]} contributes 1/4 to every outcome for all inputs",
        ),
        CheckResult(
            "born-consistency",
            almost_equal(contributions.sum(axis=1) / 4.0, born.T),
            "quarter column sums reproduce the Born probabilities for all inputs",
        ),
        CheckResult(
            "negative-cancellation",
            bool(negative[inputs, :, outcomes].any(axis=1).all()),
            "each excluded outcome receives negative sub-ensemble contributions",
        ),
    )

    return ParadoxReport(
        checks=checks,
        tables=tables,
        excluded_outcomes=tuple(OUTCOMES[o] for o in outcomes),
        born_probabilities=tuple(excluded_born.tolist()),
    )
