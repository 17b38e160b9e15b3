"""Shared random-object generators for the property tests, exact complex
arithmetic for the rational references, the JSON form of a matrix for state
files, and per-entry reference renderers."""

import math
from fractions import Fraction

import numpy as np

from subens import basis_from_kets


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (a + a.conj().T)


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_unitary(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(a)
    return q


def random_basis(rng, dim):
    q = random_unitary(rng, dim)
    return basis_from_kets([q[:, k] for k in range(dim)])


# A complex matrix in exact arithmetic is the pair (re, im) of numpy object
# arrays of Fractions: their sums and products round nothing.

_FRACTIONS = np.vectorize(Fraction, otypes=[object])


def exact(a):
    """The exact value of a complex array of doubles, as an (re, im) pair."""
    a = np.asarray(a, dtype=complex)
    return _FRACTIONS(a.real), _FRACTIONS(a.imag)


def exact_matmul(x, y):
    (a, b), (c, d) = x, y
    return a @ c - b @ d, a @ d + b @ c


def exact_kron(x, y):
    (a, b), (c, d) = x, y
    return np.kron(a, c) - np.kron(b, d), np.kron(a, d) + np.kron(b, c)


def exact_dagger(x):
    return x[0].T, -x[1].T


def matrix_to_json(m):
    """A complex matrix as the rows of [re, im] pairs that a state file holds."""
    m = np.asarray(m, dtype=complex)
    return np.stack((m.real, m.imag), axis=-1).tolist()


# Reference renderers: each number is formatted on its own, by the rules the
# renderers in ``subens.fmt`` apply to whole arrays.


def format_float(x, digits=17):
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x}")
    if x == 0.0:
        x = 0.0  # fold -0.0
    return format(x, f".{digits}g")


def format_complex(z):
    """re, or re+im i / re-im i when im is not 0, each to 6 digits."""
    z = complex(z)
    if z.imag == 0.0:
        return format_float(z.real, 6)
    re = format_float(z.real, 6)
    im = format_float(z.imag, 6)
    sign = "" if im.startswith("-") else "+"
    return f"{re}{sign}{im}i"


def reference_json(a, indent=0):
    """The JSON text of an array at the given indent: nested lists, a complex
    entry as an [re, im] pair, innermost lists on one line."""
    a = np.asarray(a)
    if np.iscomplexobj(a):
        a = np.stack((a.real, a.imag), axis=-1)
    if a.ndim == 0:
        return format_float(a)
    if not len(a):
        return "[]"
    if a.ndim == 1:
        return "[" + ", ".join(format_float(x) for x in a) + "]"
    pad = "  " * indent
    inner = [pad + "  " + reference_json(sub, indent + 1) for sub in a]
    return "[\n" + ",\n".join(inner) + "\n" + pad + "]"


def reference_table(header, rows):
    """A fixed-width table of string and float cells: the first column
    left-justified, the rest right-justified, floats to 6 digits."""
    text_rows = [list(header)]
    text_rows += [[c if isinstance(c, str) else format_float(c, 6) for c in row] for row in rows]
    widths = [max(len(r[col]) for r in text_rows) for col in range(len(header))]
    lines = []
    for r in text_rows:
        cells = [r[0].ljust(widths[0])] + [c.rjust(w) for c, w in zip(r[1:], widths[1:])]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines)
