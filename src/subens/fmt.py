"""Deterministic plain-text rendering: JSON, CSV lines, fixed-width tables.

The JSON emitter exists because the stdlib encoder offers no control over
float formatting. Every renderer formats the numbers of a whole array at once,
as one format template filled in one pass. Machine formats use 17 significant
digits (round-trip exact for doubles); pretty output uses 6.
"""

from __future__ import annotations

import json
import math
from itertools import islice

import numpy as np

JSON_DIGITS = 17
PRETTY_DIGITS = 6


def format_float(x, digits: int = JSON_DIGITS) -> str:
    """One number by the rule of ``_fill``, without the cost of an array."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x}")
    return f"%.{digits}g" % (x + 0.0)  # + 0.0 folds -0.0


def _fill(template: str, cells) -> str:
    """template % the entries of the real cells, numbers and arrays, in one
    pass; a non-finite entry raises, and -0.0 prints as 0."""
    a = np.concatenate([np.ravel(c) for c in cells]) if cells else np.empty(0)
    finite = np.isfinite(a)
    if not finite.all():
        raise ValueError(f"cannot serialize non-finite value {a[~finite][0]}")
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


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _array_text(a: np.ndarray, indent: int) -> str:
    """A real or complex array laid out as ``_emit`` lays out nested lists, a
    complex entry as an [re, im] pair, filled into one template."""
    if np.iscomplexobj(a):
        a = np.stack((a.real, a.imag), axis=-1)
    # the innermost axis makes one-line rows, each outer axis a block of the
    # level below; every group at one level has the same text
    text = f"%.{JSON_DIGITS}g"
    for axis in reversed(range(a.ndim)):
        n = a.shape[axis]
        if axis == a.ndim - 1:
            head, sep, tail = "[", ", ", "]"
        else:
            pad = "  " * (indent + axis)
            head, sep, tail = f"[\n{pad}  ", f",\n{pad}  ", f"\n{pad}]"
        text = head + sep.join([text] * n) + tail if n else "[]"
    return _fill(text, [a])


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
    """Comma-separated cells; an ndarray cell stands for its entries."""
    parts = []
    for cell in cells:
        if isinstance(cell, str):
            parts.append(cell)
        elif isinstance(cell, bool):
            parts.append(str(cell).lower())
        elif isinstance(cell, int):
            parts.append(str(cell))
        elif not isinstance(cell, np.ndarray):
            parts.append(format_float(cell))
        elif cell.size:
            parts.append(_fill(",".join([f"%.{JSON_DIGITS}g"] * cell.size), [cell]))
    return ",".join(parts)


def labelled_rows(labels, values) -> list:
    """Rows for ``csv_line`` and ``render_table``: each label, then its row of
    the 2-D array ``values``."""
    return [[label, row] for label, row in zip(labels, values)]


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
    widths = [
        max(len(r[col]) for r in text_rows) for col in range(len(text_rows[0]))
    ]
    lines = []
    for r in text_rows:
        cells = [r[0].ljust(widths[0])]
        cells += [r[col].rjust(widths[col]) for col in range(1, len(r))]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines)
