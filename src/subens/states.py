"""Qubit states: standard kets, Bloch-vector conversions, product preparations.

The two single-system preparations of interest are "0" (density (I+Z)/2) and
"+" (density (I+X)/2); they overlap with |<0|+>|^2 = 1/2. Pairs of them form
the four two-qubit product inputs written "00", "0+", "+0", "++".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .operators import ATOL, is_hermitian, pauli_matrix, tensor

_I = pauli_matrix("I")
_X = pauli_matrix("X")
_Y = pauli_matrix("Y")
_Z = pauli_matrix("Z")

PREPARATION_LABELS = ("0", "+")

_SQRT_HALF = 1.0 / math.sqrt(2.0)
_KET_AMPLITUDES = {
    "0": (1.0, 0.0),
    "1": (0.0, 1.0),
    "+": (_SQRT_HALF, _SQRT_HALF),
    "-": (_SQRT_HALF, -_SQRT_HALF),
}


def standard_ket(label: str) -> np.ndarray:
    """|0>, |1>, or (|0> +- |1>)/sqrt(2) for labels 0, 1, +, -."""
    try:
        amps = _KET_AMPLITUDES[label]
    except KeyError:
        raise ValueError(f"unknown ket label {label!r}; expected one of 0, 1, +, -") from None
    return np.array(amps, dtype=complex)


class BlochVector(NamedTuple):
    x: float
    y: float
    z: float

    @property
    def norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)


def bloch_to_density(b) -> np.ndarray:
    """Qubit density matrix (I + xX + yY + zZ)/2 of a physical Bloch vector."""
    x, y, z = (float(v) for v in b)
    norm = math.sqrt(x * x + y * y + z * z)
    if norm > 1.0 + ATOL:
        raise ValueError(f"unphysical Bloch vector: |b| = {norm}")
    return 0.5 * (_I + x * _X + y * _Y + z * _Z)


def density_to_bloch(m) -> BlochVector:
    """Pauli expectations (tr Xm, tr Ym, tr Zm) of a 2x2 density matrix."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
    if not is_hermitian(m):
        raise ValueError("matrix is not Hermitian")
    if abs(np.trace(m) - 1.0) > ATOL:
        raise ValueError(f"matrix trace {np.trace(m)} is not 1")
    return BlochVector(
        x=float(np.trace(_X @ m).real),
        y=float(np.trace(_Y @ m).real),
        z=float(np.trace(_Z @ m).real),
    )


_PREPARATION_DENSITIES = {
    "0": 0.5 * (_I + _Z),
    "+": 0.5 * (_I + _X),
}
for _rho in _PREPARATION_DENSITIES.values():
    _rho.setflags(write=False)


def preparation_density(label: str) -> np.ndarray:
    """(I+Z)/2 for "0", (I+X)/2 for "+"."""
    try:
        return _PREPARATION_DENSITIES[label]
    except KeyError:
        raise ValueError(f"unknown preparation label {label!r}; expected 0 or +") from None


@dataclass(frozen=True)
class ProductPreparation:
    """Two-system product preparation with density rho(first) x rho(second)."""

    first: str
    second: str
    density: np.ndarray

    @property
    def label(self) -> str:
        return self.first + self.second


def product_input(first: str, second: str) -> ProductPreparation:
    rho = tensor(preparation_density(first), preparation_density(second))
    rho.setflags(write=False)
    return ProductPreparation(first=first, second=second, density=rho)


def parse_input_label(text: str) -> tuple[str, str]:
    """Split a two-character preparation label like "0+" into its factors."""
    if len(text) != 2 or any(c not in PREPARATION_LABELS for c in text):
        raise ValueError(
            f"invalid input label {text!r}; expected one of 00, 0+, +0, ++"
        )
    return text[0], text[1]
