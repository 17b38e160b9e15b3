"""Dense complex operator algebra and Pauli-string expansions.

All operators in this package are plain numpy arrays with ``dtype=complex``.
This module provides the symmetric product, the conversion
between Hermitian matrices and real Pauli-string coefficient maps, and the
loaders of the command-line tools' JSON state and basis files.

Conventions:
  - qubit 0 is the leftmost tensor factor, so ``pauli_matrix("XZ")`` acts as
    X on qubit 0 and Z on qubit 1;
  - Pauli strings are ordered lexicographically with I < X < Y < Z, which is
    also the serialization order;
  - equality means elementwise agreement within the absolute tolerance
    ``ATOL``.
"""

from __future__ import annotations

__all__ = [
    "ATOL",
    "PauliExpansion",
    "almost_equal",
    "is_projector",
    "pauli_expand",
    "pauli_matrix",
    "pauli_strings",
    "pauli_synthesize",
    "projector_from_ket",
    "symmetric_product",
]

import cmath
import functools
import itertools
import math
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

# Absolute elementwise tolerance used throughout the package. The built-in
# scenario is dyadic-rational arithmetic, exact in double precision up to a
# handful of rounding steps.
ATOL = 1e-12

# Eigenvalue slack when validating density matrices; looser than ATOL to
# absorb accumulation in small dense eigensolves.
POSITIVITY_ATOL = 1e-10


@np.errstate(over="ignore", invalid="ignore")  # overflow reads as inf or NaN, not within
def _distance(a, b) -> float:
    """max|a - b| over the entries: 0.0 for empty arrays, NaN if a difference is NaN."""
    return float(np.abs(a - b).max(initial=0.0))


def _check_distance(defect: str, a: np.ndarray, b: np.ndarray) -> None:
    """Raise unless max|a - b| over the entries is within ATOL; the message
    is the defect, the distance and the tolerance. A NaN distance, from
    entries whose products overflow, is not within it."""
    distance = _distance(a, b)
    if not distance <= ATOL:
        raise ValueError(f"{defect} = {distance:.3g} exceeds tolerance {ATOL:g}")


PAULI_LETTERS = "IXYZ"

# I, X, Y and Z stacked in PAULI_LETTERS order, read-only
_PAULI = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
_PAULI.setflags(write=False)
# a Pauli string's index in serialization order is its letters read as base-4 digits
_DIGITS = str.maketrans(PAULI_LETTERS, "0123")


def _square(m, name: str = "matrix") -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"{name} must be a square matrix, got shape {a.shape}")
    return a


def _ket(v) -> np.ndarray:
    a = np.asarray(v, dtype=complex)
    if a.ndim != 1 or a.shape[0] < 1:
        raise ValueError("ket must be a one-dimensional amplitude vector")
    return a


def almost_equal(a, b) -> bool:
    """Elementwise absolute comparison within ATOL; the package-wide notion of equality."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    return a.shape == b.shape and _distance(a, b) <= ATOL


def pauli_strings(n: int):
    """Yield all length-n Pauli strings in serialization order."""
    if n < 1:
        raise ValueError("qubit count must be a positive integer")
    for letters in itertools.product(PAULI_LETTERS, repeat=n):
        yield "".join(letters)


def pauli_matrix(letters: str) -> np.ndarray:
    """Matrix of a Pauli string; letter 0 is the leftmost tensor factor."""
    if not letters or not set(letters) <= set(PAULI_LETTERS):
        raise ValueError(f"invalid Pauli string {letters!r}")
    return functools.reduce(np.kron, (_PAULI[PAULI_LETTERS.index(c)] for c in letters))


@np.errstate(over="ignore", invalid="ignore")  # overflow gives inf or NaN entries
def symmetric_product(a, b) -> np.ndarray:
    """Symmetrized product (ab + ba)/2; Hermitian whenever a and b are."""
    a = _square(a, "a")
    b = _square(b, "b")
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    return 0.5 * (a @ b + b @ a)


@np.errstate(over="ignore", invalid="ignore")  # an overflowing m @ m is not m
def is_projector(m) -> bool:
    """True iff m is Hermitian and idempotent within ATOL."""
    m = _square(m)
    return almost_equal(m, m.conj().T) and almost_equal(m @ m, m)


def _is_rank_one_projector(p) -> bool:
    """True iff p is a projector of complex trace 1 within ATOL."""
    return is_projector(p) and almost_equal(np.trace(p), 1.0)


@dataclass(frozen=True, eq=False)
class PauliExpansion:
    """Real coefficient map over the length-n Pauli strings.

    Coefficients are stored in serialization order regardless of the order
    they were supplied in, so iteration (and hence serialization) is
    deterministic. ``coeffs`` is a read-only mapping.
    """

    n: int
    coeffs: MappingProxyType = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError("qubit count must be a positive integer")
        checked = {}
        for s, c in self.coeffs.items():
            if not isinstance(s, str) or len(s) != self.n or any(
                ch not in PAULI_LETTERS for ch in s
            ):
                raise ValueError(f"invalid Pauli string {s!r} for n={self.n}")
            c = float(c)
            if not math.isfinite(c):
                raise ValueError(f"coefficient of {s} is not finite")
            checked[s] = c
        # I < X < Y < Z is also plain string order
        normalized = {s: checked[s] for s in sorted(checked)}
        object.__setattr__(self, "coeffs", MappingProxyType(normalized))


@np.errstate(over="ignore", invalid="ignore")  # overflow reads as a NaN or inf, rejected
def pauli_expand(m) -> PauliExpansion:
    """Expand a Hermitian matrix over Pauli strings.

    The coefficient of string s is trace(pauli_matrix(s) @ m) / dim. For a
    Hermitian matrix every coefficient is real; an imaginary part above ATOL
    means the input is not Hermitian and raises. Coefficients of magnitude
    at most ATOL are dropped from the map; a non-finite entry or coefficient raises.
    """
    m = _square(m)
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    dim = m.shape[0]
    n = dim.bit_length() - 1
    if dim < 2 or 2 ** n != dim:
        raise ValueError(f"dimension {dim} is not a power of two of at least 2")

    coeffs = {}
    for s in pauli_strings(n):
        c = complex(np.trace(pauli_matrix(s) @ m)) / dim
        if not cmath.isfinite(c):
            raise ValueError(f"coefficient of {s} overflows a double")
        if abs(c.imag) > ATOL:
            raise ValueError(
                f"matrix is not Hermitian: coefficient of {s} has imaginary part {c.imag!r}"
            )
        if abs(c.real) > ATOL:
            coeffs[s] = c.real
    return PauliExpansion(n=n, coeffs=coeffs)


@np.errstate(over="ignore", invalid="ignore")  # overflow reads as a NaN or inf, rejected
def pauli_synthesize(e: PauliExpansion) -> np.ndarray:
    """Weighted sum of Pauli-string matrices; the zero matrix for an empty map.

    One contraction of the Pauli stack per qubit, O(n 4^n) for n qubits."""
    t = np.zeros(4 ** e.n)
    for s, c in e.coeffs.items():
        t[int(s.translate(_DIGITS), 4)] = c
    t = t.reshape((4,) * e.n)
    for _ in range(e.n):  # each contraction appends its qubit's (row, column) axes
        t = np.tensordot(t, _PAULI, axes=(0, 0))
    out = t.transpose(*range(0, 2 * e.n, 2), *range(1, 2 * e.n, 2)).reshape(2 ** e.n, -1)
    if not np.isfinite(out).all():
        s = max(e.coeffs, key=lambda s: abs(e.coeffs[s]))
        raise ValueError(f"matrix overflows a double; its largest coefficient is that of {s}")
    return out


@np.errstate(over="ignore", invalid="ignore")  # overflow gives inf or NaN entries
def projector_from_ket(ket) -> np.ndarray:
    """Rank-1 projector |k><k| of a unit-norm amplitude vector."""
    k = _ket(ket)
    return np.outer(k, k.conj())


# ---------------------------------------------------------------------------
# JSON loaders: a complex number is a two-element [re, im] array, a matrix is
# an array of rows, a ket an array of amplitudes.
# ---------------------------------------------------------------------------


def _complex_array(data, ndim: int) -> np.ndarray | None:
    """The complex entries of data, a d**ndim array of [re, im] pairs of JSON
    numbers; None if data is anything else."""
    try:
        a = np.array(data, dtype=float)
    except (ValueError, TypeError, OverflowError):
        return None  # ragged, a string, an object, or an integer beyond a double
    if a.shape != a.shape[:1] * ndim + (2,):
        return None
    leaves = data
    for _ in range(ndim):
        leaves = itertools.chain.from_iterable(leaves)
    # dtype=float also reads true, "1" and null, as 1.0, 1.0 and nan
    if not set(map(type, leaves)) <= {int, float}:
        return None
    # the bits of each re and im as read: no arithmetic, so -0.0 and inf survive
    return a.view(complex)[..., 0]


def _check_pair(item, where: str) -> None:
    """Raise the reason item is no [re, im] pair of numbers that fit a double."""
    if not isinstance(item, list) or len(item) != 2 or not set(map(type, item)) <= {int, float}:
        raise ValueError(f"{where}: a complex number must be a [re, im] pair")
    if _complex_array(item, 0) is None:
        raise ValueError(f"{where}: number too large for a double")


def matrix_from_json(data) -> np.ndarray:
    """A square matrix from an array of rows of [re, im] pairs.

    Data the array conversion refuses is walked entry by entry only to word
    the rejection; the walk raises on exactly that data.
    """
    m = _complex_array(data, 2)
    if m is None:
        if not isinstance(data, list) or not data:
            raise ValueError("matrix must be a non-empty array of rows")
        for i, row in enumerate(data):
            if not isinstance(row, list) or len(row) != len(data):
                raise ValueError(f"matrix row {i} must be an array of {len(data)} entries")
        for i, row in enumerate(data):
            for j, item in enumerate(row):
                _check_pair(item, f"matrix entry ({i},{j})")
    return m


def ket_from_json(data) -> np.ndarray:
    """A ket from an array of [re, im] amplitudes; rejections as for a matrix."""
    k = _complex_array(data, 1)
    if k is None:
        if not isinstance(data, list) or not data:
            raise ValueError("ket must be a non-empty array of amplitudes")
        for i, item in enumerate(data):
            _check_pair(item, f"ket amplitude {i}")
    return k
