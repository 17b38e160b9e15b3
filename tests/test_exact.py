"""An exact oracle of the built-in scenario, in rational arithmetic.

The measurement of Pusey, Barrett & Rudolph (arXiv:1111.3328) is dyadic: from
the coefficient tables in ``ETA_EXPANSIONS``, every projector entry, Born
probability and contribution is a dyadic rational, so exact in binary. This
module rebuilds them with ``fractions``, independently of the package's
arithmetic, and requires the float build to hold those values bit for bit and
each ket to be within one ulp of PBR's closed form.
"""

import math
from fractions import Fraction
from itertools import product

import numpy as np

from subens import contribution_table, eta_basis, outcome_probability, verify_paradox
from subens.scenario import ETA_EXPANSIONS, INPUT_PAIRS, OUTCOMES

from helpers import exact, exact_dagger, exact_kron, exact_matmul

PAULI = {
    "I": exact([[1, 0], [0, 1]]),
    "X": exact([[0, 1], [1, 0]]),
    "Y": exact([[0, -1j], [1j, 0]]),
    "Z": exact([[1, 0], [0, -1]]),
}

# one-qubit projectors onto |0>, |1>, |+> and |->
PROJECTORS = {
    "0": exact([[1, 0], [0, 0]]),
    "1": exact([[0, 0], [0, 1]]),
    "+": exact([[0.5, 0.5], [0.5, 0.5]]),
    "-": exact([[0.5, -0.5], [-0.5, 0.5]]),
}

# each preparation is the mean of two assignment operators R(z, x), named "zx"
PARTS = {"0": ("0+", "0-"), "+": ("0+", "1+")}

# PBR's kets as integer amplitudes over |00>, |01>, |10>, |11> and the square of their norm
PBR_KETS = {
    1: ((0, 1, 1, 0), 2),  # (|0>|1> + |1>|0>)/√2
    2: ((1, -1, 1, 1), 4),  # (|0>|-> + |1>|+>)/√2
    3: ((1, 1, -1, 1), 4),  # (|+>|1> + |->|0>)/√2
    4: ((1, 0, 0, -1), 2),  # (|+>|-> + |->|+>)/√2
}


def _equal(x, y) -> bool:
    return all((a == b).all() for a, b in zip(x, y))


def _trace(x):
    """The trace of a matrix whose trace is real, as a Fraction."""
    re, im = (np.trace(part) for part in x)
    assert im == 0
    return re


def _projector(i):
    """Outcome i's projector: the sum of its coefficients times their Pauli strings."""
    re = im = 0
    for s, c in ETA_EXPANSIONS[i].items():
        m = exact_kron(PAULI[s[0]], PAULI[s[1]])
        re, im = re + Fraction(c) * m[0], im + Fraction(c) * m[1]
    return re, im


def _assignment(zx):
    """R(z, x) = (P_z P_x + P_x P_z) / (2 tr(P_z P_x)), of trace 1."""
    pz, px = PROJECTORS[zx[0]], PROJECTORS[zx[1]]
    scale = 2 * _trace(exact_matmul(pz, px))
    return tuple((a + b) / scale for a, b in zip(exact_matmul(pz, px), exact_matmul(px, pz)))


EXACT = {i: _projector(i) for i in OUTCOMES}


def _born(i, pair):
    return _trace(exact_matmul(EXACT[i], exact_kron(PROJECTORS[pair[0]], PROJECTORS[pair[1]])))


def _table(pair):
    """Row labels and (row, outcome) entries tr(P_i (R_s x R_t)) of one input."""
    rows = list(product(PARTS[pair[0]], PARTS[pair[1]]))
    products = [exact_kron(_assignment(s), _assignment(t)) for s, t in rows]
    entries = [[_trace(exact_matmul(EXACT[i], r)) for i in OUTCOMES] for r in products]
    return tuple(f"({s};{t})" for s, t in rows), entries


def test_projectors_are_exact():
    for i, p in zip(OUTCOMES, eta_basis().projectors):
        assert _equal(exact(p), EXACT[i])


def test_born_probabilities_are_exact():
    report = verify_paradox()
    for n, pair in enumerate(INPUT_PAIRS):
        for i in OUTCOMES:
            assert Fraction(outcome_probability(i, *pair)) == _born(i, pair)
        excluded = report.excluded_outcomes[n]
        assert Fraction(report.born_probabilities[n]) == _born(excluded, pair) == 0


def test_contribution_tables_are_exact():
    for pair in INPUT_PAIRS:
        labels, entries = _table(pair)
        table = contribution_table(*pair)
        assert table.row_labels == labels
        assert (exact(table.entries)[0] == np.array(entries, dtype=object)).all()
        negatives = tuple(tuple(i for i, e in zip(OUTCOMES, row) if e < 0) for row in entries)
        assert table.negatives == negatives


def test_exclusion_map_is_exact():
    excluded = {}
    for i in OUTCOMES:
        (pair,) = [pair for pair in INPUT_PAIRS if _born(i, pair) == 0]
        excluded[i] = pair
    assert eta_basis().excluded_input == excluded
    by_input = {pair: i for i, pair in excluded.items()}
    assert verify_paradox().excluded_outcomes == tuple(by_input[pair] for pair in INPUT_PAIRS)


def _within_one_ulp(x: float, amplitude: int, norm: int) -> bool:
    """|x - amplitude / sqrt(norm)| <= ulp(x), decided in rational arithmetic."""
    if amplitude == 0:
        return x == 0
    ax, u = Fraction(abs(x)), Fraction(math.ulp(x))
    square = Fraction(amplitude * amplitude, norm)
    return (x > 0) == (amplitude > 0) and (ax - u) ** 2 <= square <= (ax + u) ** 2


def test_kets_are_pbr_closed_form():
    for i, ket in zip(OUTCOMES, eta_basis().kets):
        amplitudes, norm = PBR_KETS[i]
        # the closed form is the measurement: |k><k| is outcome i's projector exactly
        k = exact(np.array(amplitudes)[:, None])
        outer = exact_matmul(k, exact_dagger(k))
        assert _equal(tuple(part / norm for part in outer), EXACT[i])
        assert not ket.imag.any()
        assert all(_within_one_ulp(x, a, norm) for x, a in zip(ket.real.tolist(), amplitudes))
        root = math.isqrt(norm)
        if root * root == norm:  # a dyadic closed form is met exactly
            assert ket.real.tolist() == [a / root for a in amplitudes]
