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
    "pauli_expand",
    "pauli_matrix",
    "pauli_strings",
    "pauli_synthesize",
    "projector_from_ket",
    "symmetric_product",
]

import functools
import itertools
import math
import numbers
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

# Absolute elementwise tolerance used throughout the package. The built-in
# scenario is dyadic-rational arithmetic, exact in double precision up to a
# handful of rounding steps.
ATOL = 1e-12

# Slack on a Pauli coefficient's imaginary part per unit of the matrix's largest
# real or imaginary part, which its rounding grows with; ATOL stays the floor.
PAULI_RTOL = 1e-14

# Eigenvalue slack when validating density matrices; looser than ATOL to
# absorb accumulation in small dense eigensolves.
POSITIVITY_ATOL = 1e-10

# Overflow rule of every public function: NaN, inf or an overflowing step raises no
# warning; the function returns its result, or raises a ValueError naming the defect.


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


@np.errstate(over="ignore", invalid="ignore")  # an overflowing p @ p is not p
def _check_rank_one_projector(p: np.ndarray, name: str = "p", defect: str = "") -> None:
    """Raise unless the square array p is Hermitian, idempotent and of complex
    trace 1 within ATOL; the message, after defect (by default "<name> is not a
    rank-1 projector"), names the first of these that fails and its residual."""
    defect = (defect or f"{name} is not a rank-1 projector") + ":"
    _check_distance(f"{defect} not Hermitian, max|{name} - {name}^H|", p, p.conj().T)
    _check_distance(f"{defect} not idempotent, max|{name}^2 - {name}|", p @ p, p)
    _check_distance(f"{defect} trace is not 1, |tr {name} - 1|", np.trace(p), 1.0)


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
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 1:
            raise ValueError("qubit count must be a positive integer")
        checked = {}
        for s, c in self.coeffs.items():
            if not isinstance(s, str) or len(s) != self.n or any(
                ch not in PAULI_LETTERS for ch in s
            ):
                raise ValueError(f"invalid Pauli string {s!r} for n={self.n}")
            # float() would take "0.5" and True, and drop an imaginary part with a warning
            if not isinstance(c, numbers.Real) or isinstance(c, bool):
                raise ValueError(f"coefficient of {s} is not a real number")
            c = float(c)
            if not math.isfinite(c):
                raise ValueError(f"coefficient of {s} is not finite")
            checked[s] = c
        # I < X < Y < Z is also plain string order
        normalized = {s: checked[s] for s in sorted(checked)}
        object.__setattr__(self, "coeffs", MappingProxyType(normalized))


def pauli_expand(m) -> PauliExpansion:
    """Expand a Hermitian matrix over Pauli strings.

    The coefficient of string s is trace(pauli_matrix(s) @ (m / dim)), a mean
    of dim entries: m is scaled by 1/dim before any sum, so only a non-finite
    entry raises. For a Hermitian matrix every coefficient is real; an
    imaginary part above ATOL, or above PAULI_RTOL times the largest real or
    imaginary part of an entry if that is more, means the input is not
    Hermitian and raises.
    Coefficients of magnitude at most ATOL are dropped from the map.
    """
    m = _square(m)
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    dim = m.shape[0]
    n = dim.bit_length() - 1
    if dim < 2 or 2 ** n != dim:
        raise ValueError(f"dimension {dim} is not a power of two of at least 2")

    imag_tol = max(ATOL, PAULI_RTOL * float(np.abs([m.real, m.imag]).max()))
    m = m / dim
    coeffs = {}
    for s in pauli_strings(n):
        c = complex(np.trace(pauli_matrix(s) @ m))
        if abs(c.imag) > imag_tol:
            raise ValueError(
                f"matrix is not Hermitian: imaginary part of the coefficient of {s} = "
                f"{c.imag!r} exceeds tolerance {imag_tol:g}"
            )
        if abs(c.real) > ATOL:
            coeffs[s] = c.real
    return PauliExpansion(n=n, coeffs=coeffs)


@np.errstate(over="ignore", invalid="ignore")  # overflow reads as a NaN or inf, rejected
def pauli_synthesize(e: PauliExpansion) -> np.ndarray:
    """Weighted sum of Pauli-string matrices; the zero matrix for an empty map.

    The coefficients are placed in one step, each at its string's base-4
    digits, then one contraction of the Pauli stack per qubit: O(n 4^n)."""
    digits = np.frombuffer("".join(e.coeffs).translate(_DIGITS).encode(), np.uint8) - ord("0")
    t = np.zeros((4,) * e.n)
    t[tuple(digits.reshape(-1, e.n).T)] = list(e.coeffs.values())
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
    k = np.asarray(ket, dtype=complex)
    if k.ndim != 1 or k.shape[0] < 1:
        raise ValueError("ket must be a one-dimensional amplitude vector")
    return np.outer(k, k.conj())


# ---------------------------------------------------------------------------
# JSON loaders: a complex number is a two-element [re, im] array, a matrix is
# an array of rows, a ket an array of amplitudes.
# ---------------------------------------------------------------------------


def _complex_array(data, ndim: int, numbers_only: bool = False) -> np.ndarray | None:
    """The complex entries of data, a d**ndim array of [re, im] pairs of JSON
    numbers; None if data is anything else.

    numbers_only promises that data holds nothing but lists, ints and floats, as
    ``cli._proven`` proves from a file's bytes; then no type is checked: len()
    raises on a number where a list belongs, and the conversion on a list where a
    number belongs.
    """
    items = [data]
    width = len(data) if type(data) is list else -1
    try:
        for level, n in enumerate((width,) * ndim + (2,)):  # lists of one length each
            lists = numbers_only or set(map(type, items)) == {list}
            if not lists or set(map(len, items)) != {n}:
                return None
            if level < ndim:
                items = list(itertools.chain.from_iterable(items))
        leaves = itertools.chain.from_iterable(items)
        if numbers_only:
            a = np.fromiter(leaves, float, 2 * len(items))
        else:
            leaves = list(leaves)
            # exact types, since dtype=float also reads true, "1" and null as 1.0, 1.0 and nan
            if not set(map(type, leaves)) <= {int, float}:
                return None
            a = np.array(leaves, dtype=float)
    # a number where a list belongs, a list where a number belongs, an integer beyond a double
    except (TypeError, ValueError, OverflowError):
        return None
    # the bits of each re and im as read: no arithmetic, so -0.0 and inf survive
    return a.reshape((width,) * ndim + (2,)).view(complex)[..., 0]


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
