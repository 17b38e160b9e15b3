"""Deterministic plain-text rendering: JSON, CSV lines, fixed-width tables.

The JSON emitter exists because the stdlib encoder offers no control over
float formatting. Machine formats use 17 significant digits (round-trip exact
for doubles); pretty output uses 6.
"""

from __future__ import annotations

import json
import math

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


def _emit(obj, out: list, indent: int) -> None:
    pad = "  " * indent
    if isinstance(obj, dict):
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
        items = list(obj)
        if not items:
            out.append("[]")
            return
        if all(_is_number(v) for v in items):
            cells = [
                format_float(v) if isinstance(v, float) else str(v) for v in items
            ]
            out.append("[" + ", ".join(cells) + "]")
            return
        out.append("[\n")
        for i, value in enumerate(items):
            out.append(pad + "  ")
            _emit(value, out, indent + 1)
            out.append(",\n" if i < len(items) - 1 else "\n")
        out.append(pad + "]")
    elif isinstance(obj, bool) or obj is None:
        out.append(json.dumps(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
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
