"""Qubit states: standard kets and product preparations.

The two single-system preparations of interest are "0" (density (I+Z)/2) and
"+" (density (I+X)/2); they overlap with |<0|+>|^2 = 1/2. Pairs of them form
the four two-qubit product inputs written "00", "0+", "+0", "++".
"""

from __future__ import annotations

__all__ = [
    "preparation_density",
    "product_input",
    "standard_ket",
]

import functools
import math

import numpy as np

from .operators import _PAULI

_I, _X, _, _Z = _PAULI

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
    except (KeyError, TypeError):  # TypeError: an unhashable label
        raise ValueError(f"unknown ket label {label!r}; expected one of 0, 1, +, -") from None
    return np.array(amps, dtype=complex)


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
    except (KeyError, TypeError):  # TypeError: an unhashable label
        raise ValueError(f"unknown preparation label {label!r}; expected 0 or +") from None


def product_input(first: str, second: str) -> np.ndarray:
    """Read-only density rho(first) x rho(second) of a two-system product preparation,
    built once per pair."""
    for label in (first, second):  # before the cache, which would raise TypeError on a list
        preparation_density(label)
    return _product_density(first, second)


@functools.cache
def _product_density(first: str, second: str) -> np.ndarray:
    rho = np.kron(preparation_density(first), preparation_density(second))
    rho.setflags(write=False)
    return rho
