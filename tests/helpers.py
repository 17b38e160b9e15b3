"""Shared random-object generators for the property tests, exact complex
arithmetic for the rational references, the JSON form of a matrix for state
files, a reference loader of such files, per-entry reference renderers, and
the injection of a defective scenario measurement."""

import itertools
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np

import subens.scenario as scenario
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


def reference_complex_array(data, ndim):
    """The complex entries of data, a d**ndim array of [re, im] pairs of JSON
    numbers, or None: one array conversion of the nested lists, then a second
    walk over the leaves to check their types."""
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
    return a.view(complex)[..., 0]


# Reference renderers: each number is formatted on its own, by the rules the
# renderers in ``subens.fmt`` apply to whole arrays.


def shortest(x: float) -> str:
    """A finite x as JSON and CSV print it: the shortest digits that read back
    as x, which repr finds, in fixed notation for 1e-5 <= |x| < 1e16 with at
    least one digit after the point, and otherwise as d.ddde±N with no "+"
    and no leading zeros in the exponent; -0.0 as 0.0."""
    if x == 0.0:
        return "0.0"
    sign, digits, exponent = Decimal(repr(x)).as_tuple()
    lead = exponent + len(digits) - 1  # the decimal exponent of the first digit
    digits = "".join(map(str, digits)).rstrip("0")
    minus = "-" if sign else ""
    if -5 <= lead <= 15:
        if lead < 0:
            return f"{minus}0.{'0' * (-lead - 1)}{digits}"
        return f"{minus}{digits[: lead + 1].ljust(lead + 1, '0')}.{digits[lead + 1 :] or '0'}"
    return f"{minus}{digits[0]}{'.' * (len(digits) > 1)}{digits[1:]}e{lead}"


def format_float(x, digits=None):
    """x as JSON and CSV print it, or to that many digits as %g prints it."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x}")
    if x == 0.0:
        x = 0.0  # fold -0.0
    return shortest(x) if digits is None else format(x, f".{digits}g")


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
    """The JSON text of an array of at least one axis and one entry at the given
    indent: nested lists, a complex entry as an [re, im] pair, innermost lists
    on one line."""
    a = np.asarray(a)
    if np.iscomplexobj(a):
        a = np.stack((a.real, a.imag), axis=-1)
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


def inject_tables(monkeypatch, tables):
    """Serve every scenario entry point, until monkeypatch undoes it, from one
    build of ETA_EXPANSIONS with the tables of the outcomes in ``tables``
    replaced; the shipped tables are read-only, so this is how a test meets
    a defective measurement. Returns the build."""
    built = scenario._build({**scenario.ETA_EXPANSIONS, **tables})
    monkeypatch.setattr(scenario, "_scenario", lambda: built)
    return built
