"""Deterministic plain-text rendering: JSON, CSV lines, fixed-width tables.

The JSON emitter exists because the stdlib encoder offers no control over
float formatting. Machine formats (JSON, CSV) print 17 significant digits,
round-trip exact for doubles, byte for byte as ``'%.17g' % x``, with -0.0 as
0; pretty output prints 6 digits and fills one ``%`` template per array.

``dumps`` and ``csv_line`` walk one document and gather its numbers and the
text between them. A document of fewer than ``CROSSOVER`` numbers fills one
``%`` template. A larger one goes through a vectorized kernel, in blocks of
at most ``_BLOCK`` numbers, which bounds its temporaries. The kernel scales
each |x| in (1e-290, 1e290) by 10^(16-e), held as a double-double, so that
the product is known within about 2^-47 (the approach of Adams, "Ryu
revisited: printf floating point conversion", OOPSLA 2019), and rounds it to
17 digits. A value within 2^-40 of a rounding tie, or outside that range, is
printed by ``%`` on its own. So every digit and exponent is the one the exact
binary value rounds to, as ``%`` gives it; a value on a decade boundary
prints the same text from either side of it. The text is laid out in a
NUL-padded byte matrix, a row per number after the text before it, and
compacted with one ``bytearray.translate``; no output byte differs from ``%``.
"""

from __future__ import annotations

import functools
import json
import math
from itertools import islice
from types import MappingProxyType

import numpy as np

PRETTY_DIGITS = 6

# Numbers in a document from which the kernel prints it faster than a % template;
# below it the kernel's fixed cost, about 0.25 ms, outweighs its gain.
CROSSOVER = 640
# Numbers per kernel pass: its temporaries stay near 1.3 MB whatever the document.
_BLOCK = 8192
# Widest text between two numbers laid into the matrix; a wider one is spliced in.
_MAX_GAP = 32
# Distance from a rounding tie below which the scaled value, about 2^-47 off, is not trusted.
_TIE = 2.0**-40
_KMIN = -275  # the scale 10^k, k = 16 - e, for decimal exponents e in [-292, 291]
_KMAX = 308


def _check_finite(a: np.ndarray) -> None:
    finite = np.isfinite(a)
    if not finite.all():
        raise ValueError(f"cannot serialize non-finite value {a[~finite][0]}")


def format_float(x) -> str:
    """One number as pretty output prints it, without the cost of an array."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x}")
    return f"%.{PRETTY_DIGITS}g" % (x + 0.0)  # + 0.0 folds -0.0


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


@functools.cache
def _tables():
    """The kernel's read-only tables, built on first use.

    10^k for k in [_KMIN, _KMAX] as a double-double hi + lo, with hi split into
    halves of 26 and 27 bits, whose products with a 26-bit half of x are exact;
    the four ASCII digits of 0..9999 as one uint32 each; 'e', the sign and the
    digits of each exponent in [-400, 400), the hundreds NUL below 100; and
    ``_layout``'s masks with the number of bytes each keeps.
    """
    hi, lo = [], []
    for k in range(_KMIN, _KMAX + 1):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        h = num / den  # correctly rounded
        a, b = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * b - a * den) / (den * b))  # the exact remainder, rounded
    hi = np.array(hi)
    hi_top = (hi.view(np.uint64) & np.uint64(2**64 - 2**27)).view(float)
    pow10 = (hi, hi_top, hi - hi_top, np.array(lo))

    n = np.arange(10000, dtype=np.uint16)  # small types keep the build's temporaries small
    four = (n[:, None] // np.array([1000, 100, 10, 1], np.uint16) % 10 + ord("0")).astype(np.uint8)
    exponents = np.zeros((800, 8), np.uint8)
    e = np.arange(-400, 400)
    exponents[:, 0] = ord("e")
    exponents[:, 1] = np.where(e < 0, ord("-"), ord("+"))
    exponents[:, 2:5] = four[np.abs(e), 1:]
    exponents[np.abs(e) < 100, 2] = 0
    zeros = np.zeros(10000, np.uint8)  # trailing zeros of a group of four digits, 4 for 0
    for z in (1, 2, 3, 4):
        zeros[n % 10**z == 0] = z

    masks = _layout()
    tables = (
        *pow10,
        four.view(np.uint32).ravel(),
        exponents.view(np.uint64).ravel(),
        zeros,
        masks.view(np.uint64),
        np.count_nonzero(masks, axis=1),  # bytes kept
    )
    for t in tables:
        t.setflags(write=False)
    return tables


# A number's text is laid out in 56 bytes, from which a mask keeps what it prints.
# Bytes 0-19 and 24-43 each take the 20 bytes "000" + the 17 digits; byte 0 is
# then the sign, 1 the "0" before a point, 3-19 the integer digits, 20 the point,
# 24-26 the zeros after it, 27-43 the fraction digits and 48-52 "e±hto".
_ROW = 56


def _layout() -> np.ndarray:
    """Masks over the bytes of a row but its sign, one per code = 18 * kind + t:
    255 keeps a byte, 0 drops it, and "." is the point itself.

    For a decimal exponent X and t significant digits left after the trailing
    zeros: kind X + 4 prints X in [-4, 16] in fixed notation, kinds 21 and 22
    an exponent of two and of three digits, as %g does at precision 17.
    """
    kind, t = np.divmod(np.arange(23 * 18), 18)
    x = np.where(kind <= 20, kind - 4, 0)  # the digits before the point, less one
    col = np.arange(_ROW)[None, :]
    x, t, kind = x[:, None], t[:, None], kind[:, None]
    small = kind < 4
    keep = (
        ((col == 1) & small)
        | ((col >= 3) & (col < 20) & (col - 3 <= x))
        | ((col == 20) & (t > x + 1))
        | ((col >= 24 + kind) & (col < 27) & small)
        | ((col >= 27) & (col < 44) & (col - 27 > x) & (col - 27 < t))
        | ((col >= 48) & (col < 53) & (kind >= 21) & ((col != 50) | (kind == 22)))
    )
    text = np.full(_ROW, 255, np.uint8)
    text[20] = ord(".")
    return np.vstack((keep * text, np.zeros(_ROW, np.uint8)))  # the last drops the whole row


def _scaled(a, e, pow10):
    """floor(a * 10^(16-e)) and the fraction past it, within about 2^-47."""
    k = 16 - e - _KMIN
    ph, phh, phl, pl = (np.take(p, k) for p in pow10)
    c = a * 134217729.0  # Dekker's split of a into 26-bit halves
    ah = c - (c - a)
    al = a - ah
    prod = a * ph
    err = (((ah * phh - prod) + ah * phl) + al * phh) + al * phl + a * pl
    s = prod + err  # an integer when the scale is right: s >= 1e16 > 2^53
    frac = err - (s - prod)
    below = np.floor(frac)
    return s.astype(np.int64) + below.astype(np.int64), frac - below


def _decimal(x):
    """Each x, -0.0 folded, as a row of _ROW bytes with its mask applied, the
    mask's code, and whether % prints it instead."""
    *pow10, four, exponents, zeros, masks, _ = _tables()
    a = np.abs(x)
    zero = a == 0
    slow = ((a <= 1e-290) | (a >= 1e290)) & ~zero
    a[slow | zero] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp)
    m, frac = _scaled(a, e, pow10)
    off = (m >= 10**17).astype(np.intp) - (m < 10**16)
    if off.any():  # log10 rounded across a power of ten
        r = np.flatnonzero(off)
        e[r] += off[r]
        m[r], frac[r] = _scaled(a[r], e[r], pow10)
    slow |= (np.abs(frac - 0.5) < _TIE) | (m < 10**16) | (m >= 10**17)
    m += frac > 0.5
    carry = m == 10**17
    m[carry] = 10**16
    e += carry
    m[slow] = 10**16  # any digits: % prints these rows
    e[slow] = 0

    top, low = np.divmod(m, 10**8)
    lead, top = np.divmod(top, 10**8)
    groups = np.divmod(top, 10**4) + np.divmod(low, 10**4)
    t = 17 - zeros[groups[3]]
    found = groups[3] != 0
    for i in (2, 1, 0):  # the last nonzero group of four sets t
        t = np.where(found, t, 5 + 4 * i - zeros[groups[i]])
        found |= groups[i] != 0
    kind = np.where((e < -4) | (e > 16), 21, e + 4) + (np.abs(e) >= 100)
    code = 18 * kind + t
    code[slow] = len(masks) - 1

    words = np.take(masks, code, axis=0)
    words[:, 6] &= np.take(exponents, e + 400)
    quarters = words.view(np.uint32)
    lead[zero] = 0
    for i, g in enumerate((lead, *groups)):  # "000" + lead, then the four groups
        d = np.take(four, g)
        quarters[:, i] &= d
        quarters[:, 6 + i] &= d
    return words.view(np.uint8), code, slow


def _block(x, before, gaps, width, gap_lengths, wide):
    """The text of one block: before[i] as row i of gaps, then x[i] by %.17g;
    a gap wider than width is spliced in from wide."""
    x = x + 0.0  # folds -0.0
    num, code, slow = _decimal(x)
    masks, mask_lengths = _tables()[-2:]
    neg = (x < 0) & ~slow
    num[:, 0] = neg * ord("-")
    # only the columns some row of the block prints, in runs of adjacent ones
    present = np.flatnonzero(np.bincount(code, minlength=len(masks)))
    used = np.bitwise_or.reduce(masks.view(np.uint8)[present], axis=0)
    used[0] = neg.any()
    used = np.flatnonzero(used)
    buf = bytearray(len(x) * (width + len(used)))
    rows = np.frombuffer(buf, np.uint8).reshape(len(x), width + len(used))
    rows[:, :width] = np.take(gaps, before, axis=0)
    at = width
    for run in np.split(used, np.flatnonzero(np.diff(used) > 1) + 1) if len(used) else []:
        rows[:, at : at + len(run)] = num[:, run[0] : run[-1] + 1]
        at += len(run)
    del num, rows
    text = buf.translate(None, b"\0")
    del buf

    spliced = np.take(gap_lengths > width, before)
    events = np.flatnonzero(spliced | slow)
    if not events.size:
        return text
    # each row's bytes in text: its gap unless spliced, and its number unless slow
    size = np.take(np.where(gap_lengths > width, 0, gap_lengths), before)
    size += np.take(mask_lengths, code) + neg
    end = np.cumsum(size)
    start = end - size
    # the slow numbers by the fill that prints a small document
    printed = _fill(",".join(["%.17g"] * np.count_nonzero(slow)), [x[slow]])
    printed = iter(printed.encode().split(b","))
    pieces, at = [], 0
    for r in events.tolist():
        if spliced[r]:
            pieces += [text[at : start[r]], wide[before[r]]]
            at = start[r]
        if slow[r]:
            pieces += [text[at : end[r]], next(printed)]
            at = end[r]
    pieces.append(text[at:])
    return b"".join(pieces)


def _gap_width(lengths, counts, n) -> int:
    """The row width for gaps that costs the least: a byte per row against
    about 300 for a gap spliced in."""
    widths = sorted({min(max(length, 1), _MAX_GAP) for length in lengths.tolist()})
    return min(widths, key=lambda w: n * w + 300 * counts[lengths > w].sum())


@functools.lru_cache(maxsize=64)
def _frame(layers: tuple) -> tuple:
    """The text before an array's first entry, the text before an entry whose
    last r indices are 0, for each r, and the text after its last entry, for
    layers, the (head, separator, tail) of each axis, outermost first."""
    heads = [h for h, _, _ in layers]
    tails = [t for _, _, t in layers]
    ndim = len(layers)
    between = [
        "".join(tails[ndim - r :][::-1]) + layers[ndim - 1 - r][1] + "".join(heads[ndim - r :])
        for r in range(ndim)
    ]
    return "".join(heads), between, "".join(tails[::-1])


def _template(shape, layers, entry: str = "%.17g") -> str:
    """The text of an array of the shape laid out by layers, with entry for each entry."""
    text = entry
    for (head, sep, tail), n in reversed(list(zip(layers, shape))):
        text = head + sep.join([text] * n) + tail if n else "[]"
    return text


def _print(x, before, gaps) -> list:
    """The text gaps[before[0]] x[0] gaps[before[1]] x[1] ..., by the kernel,
    in pieces of at most _BLOCK numbers."""
    wide = [g.encode() for g in gaps]
    # a gap holding NUL is always spliced in, since compaction would drop it
    lengths = np.array([len(g) if b"\0" not in g else 2**31 for g in wide])
    width = _gap_width(lengths, np.bincount(before, minlength=len(wide)), len(x))
    rows = zip(wide, lengths.tolist())
    table = b"".join(g.ljust(width, b"\0") if n <= width else bytes(width) for g, n in rows)
    table = np.frombuffer(table, np.uint8).reshape(len(wide), width)
    return [
        _block(x[i : i + _BLOCK], before[i : i + _BLOCK], table, width, lengths, wide).decode()
        for i in range(0, len(x), _BLOCK)
    ]


class _Document:
    """A document's text with its 17-digit numbers held apart, printed in one pass."""

    def __init__(self):
        self.text = []  # the pieces since the last number
        # (text before, a float or a non-empty array, the array's layers, its size)
        self.items = []
        self.count = 0  # numbers in the items

    def write(self, text: str) -> None:
        self.text.append(text)

    def _take(self) -> str:
        text = "".join(self.text)
        self.text.clear()
        return text

    def number(self, x: float) -> None:
        self.items.append((self._take(), x, (), 1))
        self.count += 1

    def array(self, a: np.ndarray, layers: tuple) -> None:
        """The entries of a non-empty array, each axis as the (head, separator,
        tail) of layers, outermost first."""
        self.items.append((self._take(), a, layers, a.size))
        self.count += a.size

    def _values(self) -> np.ndarray:
        """Every number of the document, in order."""
        if self.count >= CROSSOVER:
            x = np.concatenate([np.ravel(a) for _, a, _, _ in self.items])
            return x.astype(float, copy=False)
        values = []  # a few numbers convert faster through a list
        for _, a, layers, _ in self.items:
            if layers:
                values += a.ravel().tolist()
            else:
                values.append(a)
        return np.array(values, dtype=float)

    def refuse(self, obj):
        """Raise for obj, which has no text; a non-finite number before it is named first."""
        _check_finite(self._values())
        raise TypeError(f"cannot serialize {type(obj).__name__}")

    def getvalue(self) -> str:
        tail = self._take()
        x = self._values()
        if len(x) < CROSSOVER:  # one template, filled as pretty output is
            template = []
            for text, a, layers, _ in self.items:
                entries = _template(a.shape, layers) if layers else "%.17g"
                template += [text.replace("%", "%%"), entries]
            template.append(tail.replace("%", "%%"))
            return _fill("".join(template), [x])
        _check_finite(x)
        before, gaps, after = self._gaps(len(x))
        out = _print(x, before, gaps)
        del x, before  # before the text is joined
        out.append(after + tail)
        return "".join(out)

    def _gaps(self, n):
        """The index in gaps of the text before each number, gaps, and the text
        after the last array; the items are dropped, so that their copies go."""
        gaps = {}  # the text before a number, to its index
        before = np.empty(n, np.int32)
        at, after = 0, ""  # after: the tails of the last array
        for text, a, layers, size in self.items:
            heads, between, tails = _frame(layers)
            stride = 1
            for r, gap in enumerate(between):
                before[at : at + size : stride] = gaps.setdefault(gap, len(gaps))
                stride *= a.shape[-1 - r]
            before[at] = gaps.setdefault(after + text + heads, len(gaps))
            after = tails
            at += size
        self.items = []
        return before, list(gaps), after


def _scalar(doc: _Document, v) -> bool:
    """Write a bool, an integer or a float, Python's or numpy's, as JSON and CSV
    print it; False if v is none of these."""
    if isinstance(v, (bool, np.bool_)):
        doc.write("true" if v else "false")
    elif isinstance(v, (int, np.integer)):
        doc.write(str(int(v)))
    elif isinstance(v, (float, np.floating)):
        doc.number(float(v))
    else:
        return False
    return True


def _is_number(v) -> bool:
    return isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(
        v, (bool, np.bool_)
    )


def _array(doc: _Document, a: np.ndarray, indent: int) -> None:
    """A real or complex array laid out as ``_emit`` lays out nested lists, a
    complex entry as an [re, im] pair; the innermost axis makes one-line rows,
    each outer axis a block of the level below."""
    if np.iscomplexobj(a):
        a = np.stack((a.real, a.imag), axis=-1)
    layers = tuple(
        (f"[\n{pad}  ", f",\n{pad}  ", f"\n{pad}]")
        for pad in ("  " * (indent + axis) for axis in range(a.ndim - 1))
    ) + (("[", ", ", "]"),) * (a.ndim > 0)
    if a.size:
        doc.array(a, layers)
    else:
        doc.write(_template(a.shape, layers, ""))


def _emit(obj, doc: _Document, indent: int) -> None:
    """Write the JSON text of obj to doc, nested lists and dicts indented from indent."""
    pad = "  " * indent
    if isinstance(obj, np.ndarray):
        _array(doc, obj, indent)
    elif isinstance(obj, (dict, MappingProxyType)):
        if not obj:
            doc.write("{}")
            return
        doc.write("{\n")
        for i, (key, value) in enumerate(obj.items()):
            doc.write(f"{pad}  {json.dumps(str(key))}: ")
            _emit(value, doc, indent + 1)
            doc.write(",\n" if i < len(obj) - 1 else "\n")
        doc.write(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if all(_is_number(v) for v in obj):  # an empty list too
            _array(doc, np.array(obj, dtype=float), indent)
            return
        doc.write("[\n")
        for i, value in enumerate(obj):
            doc.write(pad + "  ")
            _emit(value, doc, indent + 1)
            doc.write(",\n" if i < len(obj) - 1 else "\n")
        doc.write(pad + "]")
    elif isinstance(obj, str) or obj is None:
        doc.write(json.dumps(obj))
    elif not _scalar(doc, obj):
        doc.refuse(obj)


def dumps(obj) -> str:
    """Serialize to JSON with fixed float formatting and 2-space indentation."""
    doc = _Document()
    _emit(obj, doc, 0)
    return doc.getvalue()


def csv_line(*rows) -> str:
    """Comma-separated cells, a line per row; an ndarray cell stands for its entries."""
    doc = _Document()
    write = doc.text.append
    for i, cells in enumerate(rows):
        sep = "\n" if i else ""
        for cell in cells:
            if isinstance(cell, np.ndarray) and not cell.size:
                continue
            write(sep)
            sep = ","
            if isinstance(cell, str):
                write(cell)
            elif isinstance(cell, np.ndarray):
                doc.array(np.ravel(cell), (("", ",", ""),))
            elif not _scalar(doc, cell):
                doc.number(float(cell))
    return doc.getvalue()


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
