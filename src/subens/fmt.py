"""Deterministic plain-text rendering: JSON, CSV lines, fixed-width tables.

JSON and CSV print each double as the shortest decimal that reads back as it
(Adams, "Ryū: fast float-to-string conversion", PLDI 2018), as orjson spells
it: fixed notation for 1e-5 <= |x| < 1e16, with ".0" on an integral value,
else d.ddde±N with no "+" and no leading exponent zeros (1e-7, 1e16, 5e-324);
-0.0 prints as 0.0. Each array is one orjson call after the finiteness check
(orjson prints NaN as null), laid out by one replace per axis. Pretty output
prints 6 digits and fills one ``%`` template per array.
"""

from __future__ import annotations

import functools
import json
import math
from itertools import islice
from types import MappingProxyType

import numpy as np
import orjson

PRETTY_DIGITS = 6
_REAL = (int, float, np.integer, np.floating)


def _check_finite(a: np.ndarray) -> None:
    finite = np.isfinite(a)
    if not finite.all():
        raise ValueError(f"cannot serialize non-finite value {a[~finite][0]}")


def _finite(x) -> float:
    """x as a finite float with -0.0 folded to 0.0; a non-finite x raises."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x}")
    return x + 0.0


def format_float(x) -> str:
    """One number as pretty output prints it, without the cost of an array."""
    return f"%.{PRETTY_DIGITS}g" % _finite(x)


def _fill(template: str, cells) -> str:
    """template % the entries of the real cells, numbers and arrays, in one
    pass; a non-finite entry raises, and -0.0 prints as 0."""
    a = np.concatenate([np.ravel(c) for c in cells]) if cells else np.empty(0)
    _check_finite(a)
    return template % tuple((a + 0.0).tolist())  # + 0.0 folds -0.0


def complex_cells(z) -> list:
    """Pretty text of each entry of a complex array: re, or re±im i when im
    is not 0, formatted in one pass."""
    z = np.asarray(z, dtype=complex).ravel()
    if not z.size:
        return []
    has_im = z.imag != 0
    cells = np.where(has_im, f"%.{PRETTY_DIGITS}g%+.{PRETTY_DIGITS}gi", f"%.{PRETTY_DIGITS}g")
    # each entry's re, then its im unless that is 0
    pairs = np.stack((z.real, z.imag), axis=-1)[np.stack((np.ones_like(has_im), has_im), axis=-1)]
    return _fill("\n".join(cells.tolist()), [pairs]).split("\n")


@functools.lru_cache(maxsize=64)
def _frame(layers: tuple) -> tuple:
    """The text before an array's first entry, the bytes before an entry whose
    last r indices are 0, for each r, and the text after its last entry, for
    layers, the (head, separator, tail) of each axis, outermost first."""
    heads, seps, tails = zip(*layers)
    ndim = len(layers)
    between = [
        "".join(tails[ndim - r :][::-1]) + seps[ndim - 1 - r] + "".join(heads[ndim - r :])
        for r in range(ndim)
    ]
    return "".join(heads), tuple(b.encode() for b in between), "".join(tails[::-1])


def _empty(shape, layers) -> str:
    """The text of an array with no entries, laid out by layers."""
    text = ""
    for (head, sep, tail), n in reversed(list(zip(layers, shape))):
        text = head + sep.join([text] * n) + tail if n else "[]"
    return text


def _text(a: np.ndarray, layers: tuple) -> str:
    """The entries of a non-empty real array of at least one axis, as doubles,
    each axis laid out by layers; a non-finite entry raises."""
    a = np.ascontiguousarray(a, dtype=float)
    _check_finite(a)
    heads, between, tails = _frame(layers)
    text = orjson.dumps(a + 0.0, option=orjson.OPT_SERIALIZE_NUMPY)  # + 0.0 folds -0.0
    # orjson writes "]" * r + "," + "[" * r before an entry whose last r indices are 0,
    # and no number it writes holds "[", "]" or ","
    if between[0] != b",":
        text = text.replace(b",", between[0])
    for r in range(a.ndim - 1, 0, -1):  # the longest first: "], [" is in "]], [["
        text = text.replace(b"]" * r + between[0] + b"[" * r, between[r])
    text = str(memoryview(text)[a.ndim : -a.ndim], "utf-8")  # frees the bytes: two copies at most
    return "".join((heads, text, tails))


def _scalar(v) -> str | None:
    """A bool, an integer or a float, Python's or numpy's, as JSON and CSV print
    it; None if v is none of these."""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return orjson.dumps(_finite(v)).decode() if isinstance(v, (float, np.floating)) else None


def _array(write, a: np.ndarray, indent: int) -> None:
    """A real or complex array laid out as ``_emit`` lays out nested lists, a
    complex entry as an [re, im] pair."""
    if np.iscomplexobj(a):
        a = np.stack((a.real, a.imag), axis=-1)
    if not a.ndim:
        write(_scalar(float(a)))
        return
    layers = tuple(
        (f"[\n{pad}  ", f",\n{pad}  ", f"\n{pad}]")
        for pad in ("  " * (indent + axis) for axis in range(a.ndim - 1))
    ) + (("[", ", ", "]"),)
    write(_text(a, layers) if a.size else _empty(a.shape, layers))


def _emit(obj, write, indent: int) -> None:
    """Write the JSON text of obj, nested lists and dicts indented from indent."""
    pad = "  " * indent
    if isinstance(obj, (list, tuple)) and all(
        isinstance(v, _REAL) and not isinstance(v, (bool, np.bool_)) for v in obj
    ):
        if all(isinstance(v, (int, np.integer)) for v in obj):  # an empty list too
            write("[" + ", ".join(map(_scalar, obj)) + "]")
            return
        obj = np.array(obj, dtype=float)  # numbers, one of them not an integer
    if isinstance(obj, np.ndarray):
        _array(write, obj, indent)
    elif isinstance(obj, (dict, MappingProxyType)) and not obj:
        write("{}")
    elif isinstance(obj, (dict, MappingProxyType, list, tuple)):
        keyed = isinstance(obj, (dict, MappingProxyType))
        write("{\n" if keyed else "[\n")
        for i, (key, value) in enumerate(obj.items() if keyed else enumerate(obj)):
            write(f"{pad}  {json.dumps(str(key))}: " if keyed else pad + "  ")
            _emit(value, write, indent + 1)
            write(",\n" if i < len(obj) - 1 else "\n")
        write(pad + ("}" if keyed else "]"))
    elif isinstance(obj, str) or obj is None:
        write(json.dumps(obj))
    elif (text := _scalar(obj)) is not None:
        write(text)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    """Serialize to JSON with 2-space indentation; the first non-finite number
    or object without JSON form, in document order, raises."""
    pieces = []
    _emit(obj, pieces.append, 0)
    return "".join(pieces)


def _cell(cell) -> str:
    """A CSV cell's text: a string as it is, an array's entries, or a number."""
    if isinstance(cell, str):
        return cell
    if isinstance(cell, np.ndarray):
        return _text(np.ravel(cell), (("", ",", ""),))
    return _scalar(cell) or _scalar(float(cell))


def csv_line(*rows) -> str:
    """Comma-separated cells, a line per row; an ndarray cell stands for its entries."""
    return "\n".join(
        ",".join(_cell(c) for c in cells if not (isinstance(c, np.ndarray) and not c.size))
        for cells in rows
    )


def render_table(header, rows) -> str:
    """Fixed-width table: first column left-justified, the rest right-justified.
    Every cell that is not a string is a number, or an ndarray whose entries
    take a column each."""
    numbers = [c for row in rows for c in row if not isinstance(c, str)]
    template = "\n".join([f"%.{PRETTY_DIGITS}g"] * sum(map(np.size, numbers)))
    filled = iter(_fill(template, numbers).split("\n"))
    text_rows = [list(header)] + [
        [t for c in row for t in ([c] if isinstance(c, str) else islice(filled, np.size(c)))]
        for row in rows
    ]
    widths = [max(map(len, col)) for col in zip(*text_rows)]
    line = "  ".join([f"%-{widths[0]}s"] + [f"%{w}s" for w in widths[1:]])
    return "\n".join((line % tuple(r)).rstrip() for r in text_rows)
