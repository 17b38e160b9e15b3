"""Deterministic plain-text rendering: JSON, CSV lines, fixed-width tables.

The JSON emitter exists because the stdlib encoder offers no control over
float formatting; it renders numpy arrays whole, without a list per row.
Machine formats use 17 significant digits (round-trip exact for doubles);
pretty output uses 6.
"""

from __future__ import annotations

import json
import math

import numpy as np

JSON_DIGITS = 17
PRETTY_DIGITS = 6


def format_float(x, digits: int = JSON_DIGITS) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x}")
    if x == 0.0:
        x = 0.0  # fold -0.0
    return format(x, f".{digits}g")


def format_complex(z) -> str:
    z = complex(z)
    if z.imag == 0.0:
        return format_float(z.real, PRETTY_DIGITS)
    re = format_float(z.real, PRETTY_DIGITS)
    im = format_float(z.imag, PRETTY_DIGITS)
    sign = "" if im.startswith("-") else "+"
    return f"{re}{sign}{im}i"


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _array_text(a: np.ndarray, indent: int) -> str:
    """A real or complex array laid out as ``_emit`` lays out nested lists, a
    complex entry as an [re, im] pair; every entry is formatted in one pass."""
    if np.iscomplexobj(a):
        a = np.stack((a.real, a.imag), axis=-1)
    finite = np.isfinite(a)
    if not finite.all():
        raise ValueError(f"cannot serialize non-finite value {a[~finite][0]}")
    # + 0.0 folds -0.0
    parts = list(map(f"{{:.{JSON_DIGITS}g}}".format, (a + 0.0).ravel().tolist()))
    # the innermost axis makes one-line rows, each outer axis a block of the level below
    for axis in reversed(range(a.ndim)):
        n = a.shape[axis]
        if axis == a.ndim - 1:
            head, sep, tail = "[", ", ", "]"
        else:
            pad = "  " * (indent + axis)
            head, sep, tail = f"[\n{pad}  ", f",\n{pad}  ", f"\n{pad}]"
        groups = [parts[i * n : (i + 1) * n] for i in range(math.prod(a.shape[:axis]))]
        parts = [head + sep.join(g) + tail if g else "[]" for g in groups]
    return parts[0]


def _emit(obj, out: list, indent: int) -> None:
    """Append the text of obj to out in pieces that ``dumps`` joins once, so
    no level copies the text of the arrays below it."""
    pad = "  " * indent
    if isinstance(obj, np.ndarray):
        out.append(_array_text(obj, indent))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            out.append(f"{pad}  {json.dumps(str(key))}: ")
            _emit(value, out, indent + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if all(_is_number(v) for v in obj):  # an empty list too
            out.append(_array_text(np.array(obj, dtype=float), indent))
            return
        out.append("[\n")
        for i, value in enumerate(obj):
            out.append(pad + "  ")
            _emit(value, out, indent + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "]")
    elif isinstance(obj, (bool, str)) or obj is None:
        out.append(json.dumps(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    """Serialize to JSON with fixed float formatting and 2-space indentation."""
    out: list = []
    _emit(obj, out, 0)
    return "".join(out)


def csv_line(cells) -> str:
    parts = []
    for cell in cells:
        if isinstance(cell, str):
            parts.append(cell)
        elif isinstance(cell, bool):
            parts.append(str(cell).lower())
        elif isinstance(cell, int):
            parts.append(str(cell))
        else:
            parts.append(format_float(cell))
    return ",".join(parts)


def labelled_rows(labels, values) -> list:
    """Rows for ``csv_line`` and ``render_table``: each label, then its row of
    the 2-D array ``values`` as floats."""
    return [[label, *row] for label, row in zip(labels, values.tolist())]


def render_table(header, rows) -> str:
    """Fixed-width table: first column left-justified, the rest right-justified."""
    text_rows = [list(header)]
    for row in rows:
        text_rows.append(
            [
                cell if isinstance(cell, str) else format_float(cell, PRETTY_DIGITS)
                for cell in row
            ]
        )
    widths = [
        max(len(r[col]) for r in text_rows) for col in range(len(text_rows[0]))
    ]
    lines = []
    for r in text_rows:
        cells = [r[0].ljust(widths[0])]
        cells += [r[col].rjust(widths[col]) for col in range(1, len(r))]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines)
