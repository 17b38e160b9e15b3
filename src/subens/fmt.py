"""Deterministic plain-text rendering: JSON, CSV lines, fixed-width tables.

JSON and CSV print each double as the shortest decimal that reads back as it
(Adams, "Ryū: fast float-to-string conversion", PLDI 2018), as orjson spells
it: fixed notation for 1e-5 <= |x| < 1e16, with ".0" on an integral value,
else d.ddde±N with no "+" and no leading exponent zeros (1e-7, 1e16, 5e-324);
-0.0 prints as 0.0. Each array is one orjson call, in JSON laid out by a replace
per axis, or one 6-digit ``%`` template in pretty output, over the finite doubles
of ``_doubles`` (orjson prints NaN as null). Only a float or complex array
with at least one axis and one entry prints; any other raises TypeError.
"""

from __future__ import annotations

import json
import math
from types import MappingProxyType

import numpy as np
import orjson

PRETTY_DIGITS = 6


def _doubles(a: np.ndarray) -> np.ndarray:
    """A float or complex array's entries as new C-contiguous finite doubles, a
    complex entry as a last [re, im] axis, -0.0 as 0.0; a non-finite double
    raises ValueError, any other dtype TypeError."""
    if a.dtype.kind not in "fc":
        raise TypeError(f"cannot serialize an array of {a.dtype}")
    if a.dtype.kind == "c":
        a = np.ascontiguousarray(a, dtype=complex)[..., None].view(float)
    a = np.ascontiguousarray(a, dtype=float)
    finite = np.isfinite(a)
    if not finite.all():
        raise ValueError(f"cannot serialize non-finite value {a[~finite][0]}")
    return a + 0.0  # + 0.0 folds -0.0


def _finite(x) -> float:
    """x as a finite float with -0.0 folded to 0.0; a non-finite x raises."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x}")
    return x + 0.0


def format_float(x) -> str:
    """One number as pretty output prints it, without the cost of an array."""
    return f"%.{PRETTY_DIGITS}g" % _finite(x)


def _fill(template: str, a: np.ndarray) -> str:
    """template % the doubles of a, in one pass; an empty a raises TypeError."""
    if not a.size:
        raise TypeError("cannot serialize an array with no entries")
    return template % tuple(_doubles(a).ravel().tolist())


def complex_cells(z) -> list:
    """Pretty text of each entry of a complex array: re, or re±im i when im
    is not 0, formatted in one pass."""
    z = np.asarray(z, dtype=complex).ravel()
    re, im = f"%.{PRETTY_DIGITS}g", f"%+.{PRETTY_DIGITS}gi"
    cells = np.where(z.imag != 0, re + im, re + "%.0s")  # "%.0s" prints none of an im of 0
    return _fill("\n".join(cells.tolist()), z).split("\n")


def _scalar(v) -> str:
    """A bool, an integer or a float, Python's or numpy's, as JSON and CSV print
    it; any other object raises TypeError."""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return orjson.dumps(_finite(v)).decode()
    raise TypeError(f"cannot serialize {type(v).__name__}")


def _array(write, a: np.ndarray, indent: int) -> None:
    """A real or complex array of at least one axis and one entry, laid out as
    ``_emit`` lays out nested lists: the last axis on one line, each other axis an
    entry per line, padded from indent; a complex entry as an [re, im] pair."""
    a = _doubles(a)
    head, tail, seps = "[", "]", {}
    for r in range(1, a.ndim):
        # head and tail open and close the last r axes; seps[r] lays out "]" * r + ", " + "[" * r
        pad = "\n" + "  " * (indent + a.ndim - 1 - r)
        seps[r] = f"{tail},{pad}  {head}".encode()
        head, tail = f"[{pad}  {head}", f"{tail}{pad}]"
    text = orjson.dumps(a, option=orjson.OPT_SERIALIZE_NUMPY).replace(b",", b", ")
    # orjson writes "]" * r + "," + "[" * r before an entry whose last r indices are 0,
    # and no number it writes holds "[", "]" or ","
    for r in range(a.ndim - 1, 0, -1):  # the longest first: "], [" is in "]], [["
        text = text.replace(b"]" * r + b", " + b"[" * r, seps[r])
    text = str(memoryview(text)[a.ndim : -a.ndim], "utf-8")  # frees the bytes: two copies at most
    write("".join((head, text, tail)))  # one copy: head + text + tail would make two


def _emit(obj, write, indent: int) -> None:
    """Write the JSON text of obj, nested lists and dicts indented from indent; a
    list of integers only, an empty one too, on one line."""
    pad = "  " * indent
    if isinstance(obj, (list, tuple)) and all(
        isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in obj
    ):
        write("[" + ", ".join(map(_scalar, obj)) + "]")
    elif isinstance(obj, np.ndarray) and obj.ndim and obj.size:
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
    elif isinstance(obj, str):
        write(json.dumps(obj))
    else:  # any other object, None and an array without an axis or an entry too, raises
        write(_scalar(obj))


def dumps(obj) -> str:
    """Serialize to JSON with 2-space indentation; the first non-finite number
    or object without JSON form, in document order, raises."""
    pieces = []
    _emit(obj, pieces.append, 0)
    return "".join(pieces)


def _cell(cell) -> str:
    """A CSV cell's text: a string as it is, the entries of an array of at least
    one axis and one entry, or a number; any other object raises TypeError."""
    if isinstance(cell, str):
        return cell
    if isinstance(cell, np.ndarray) and cell.ndim and cell.size:
        text = orjson.dumps(_doubles(cell).ravel(), option=orjson.OPT_SERIALIZE_NUMPY)
        return text[1:-1].decode()  # the entries, without the brackets
    return _scalar(cell)


def csv_line(*rows) -> str:
    """Comma-separated cells, a line per row; an ndarray cell stands for its doubles."""
    return "\n".join(",".join(map(_cell, cells)) for cells in rows)


def render_table(header, labels, grid) -> str:
    """Fixed-width table under header: each row's label left-justified, then that
    row of the real 2-D grid, an entry per column, right-justified."""
    row = "\t".join([f"%.{PRETTY_DIGITS}g"] * grid.shape[1])
    filled = _fill("\n".join([row] * len(grid)), grid).split("\n")
    text_rows = [list(header)] + [[label, *r.split("\t")] for label, r in zip(labels, filled)]
    widths = [max(map(len, col)) for col in zip(*text_rows)]
    line = "  ".join([f"%-{widths[0]}s"] + [f"%{w}s" for w in widths[1:]])
    return "\n".join((line % tuple(r)).rstrip() for r in text_rows)
