"""Command-line interface exposing the library constructions as reports.

Exit codes: 0 success, 1 invariant-verification failure, 2 usage error,
3 malformed input file, 141 stdout closed by its reader. Diagnostics go to
stderr, data to stdout; output is byte-deterministic for a fixed invocation.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import sys
from contextlib import contextmanager

import numpy as np
import orjson

from . import __version__, fmt
from .operators import _complex_array, ket_from_json, matrix_from_json
from .operators import pauli_strings, projector_from_ket
from .scenario import (
    INPUT_PAIRS,
    OUTCOMES,
    ScenarioConsistencyError,
    contribution_table,
    eta_basis,
    outcome_probability,
    verify_paradox,
)
from .subensemble import basis_from_kets, decompose, mh_joint, named_basis

INPUT_CHOICES = tuple(a + b for a, b in INPUT_PAIRS)


class InputFileError(Exception):
    """A state or basis file could not be read or fails validation."""


@contextmanager
def _blame(where: str):
    """Report a ValueError raised in the block as a fault of a file, or of a part of one."""
    try:
        yield
    except ValueError as exc:
        raise InputFileError(f"{where}: {exc}") from exc


# the bytes of JSON numbers, NaN and Infinity, commas and whitespace
_NUMBERS = b"0123456789+-.eENaInfity, \t\n\r"


def _proven(data: bytes) -> bool:
    """Whether data, the bytes of a file, holds only numbers, commas, whitespace and
    brackets that balance within three levels, the depth of a valid state or basis
    file (rows, entries, [re, im]). Each pass deletes the innermost [] pairs, so
    only such a nesting is gone after three.

    Any document parsed from proven bytes holds nothing but lists, ints and floats,
    NaN and Infinity among them: a string, true, false, null or object needs another byte.
    """
    nesting = data.translate(None, _NUMBERS)
    for _ in range(3):
        nesting = nesting.replace(b"[]", b"")
    return not nesting


def _document(data: bytes, proven: bool):
    """The JSON document in data, the bytes of a file.

    Proven bytes are parsed by orjson, which reads each number to the double
    json gives, bit for bit; orjson never sees a deep document, on which it can
    crash. Anything else, and a proven one orjson refuses (a number past a double,
    NaN or Infinity), is parsed by json from the text open(..., encoding="utf-8")
    would give, so that a rejection keeps json's wording and positions.
    """
    if proven:
        try:
            return orjson.loads(data)
        except orjson.JSONDecodeError:
            pass
    with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8") as fh:
        return json.load(fh)


def _read(path: str, parse):
    """parse(document, proven) of the JSON file at path, as _proven and _document
    give them; a failure to open, decode or convert it is an InputFileError naming
    the path. The cyclic collector is paused meanwhile and restored as found: a
    JSON document holds no cycles, so its passes would free nothing, and the
    document never leaves this function."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        proven = _proven(data)
        try:
            document = _document(data, proven)
        except UnicodeDecodeError as exc:
            raise InputFileError(f"{path} is not UTF-8 text: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise InputFileError(f"{path} is not valid JSON: {exc}") from exc
        except ValueError as exc:  # an integer beyond sys.get_int_max_str_digits()
            raise InputFileError(f"{path}: number too large for a double") from exc
        except RecursionError as exc:
            raise InputFileError(f"{path} nests arrays too deeply to read") from exc
        with _blame(path):
            return parse(document, proven)
    except (OSError, ValueError) as exc:  # open raises ValueError on a NUL byte in path
        raise InputFileError(f"cannot read {path}: {exc}") from exc
    finally:
        if enabled:
            gc.enable()


def _state_from_json(data, proven: bool):
    """A ket if the first number lies two arrays deep, otherwise a matrix."""
    first, depth = data, 0
    while isinstance(first, list) and first:
        first, depth = first[0], depth + 1
    ndim, loader = (1, ket_from_json) if depth == 2 else (2, matrix_from_json)
    state = _complex_array(data, ndim) if proven else None
    # the loader's walk words the rejection of any other document, or checks it and converts
    return loader(data) if state is None else state


def _load_basis(source: str, dim: int):
    def parse(data, proven):
        if not isinstance(data, list):
            raise InputFileError(f"{source}: basis file must be an array of kets")
        kets = _complex_array(data, 2) if proven else None
        if kets is None:  # convert ket by ket, or word a rejection
            kets = []
            for i, k in enumerate(data):
                with _blame(f"{source}: basis ket {i}"):
                    kets.append(ket_from_json(k))
        return basis_from_kets(kets)

    basis = named_basis(source) if source in ("Z", "X") else _read(source, parse)
    if basis.dim != dim:
        raise InputFileError(
            f"{source}: basis dimension {basis.dim} does not match state dimension {dim}"
        )
    return basis


def _run_on_state(path: str, sources, kernel):
    """The bases named by sources, and kernel(rho, *bases) on the state file at path.

    Each basis is loaded against the parsed state's length before a ket becomes
    its d×d projector, so a ket too long for that projector to fit is rejected first.
    """
    state = _read(path, _state_from_json)
    bases = [_load_basis(source, len(state)) for source in sources]
    rho = projector_from_ket(state) if state.ndim == 1 else state
    with _blame(path):  # the kernel is the one check of the state, and rejects inf
        return bases, kernel(rho, *bases)


def _render(fmt_name: str, doc, rows, text) -> str:
    """One result in the requested format, building only that rendering.

    ``doc()`` gives the JSON document, ``rows()`` the CSV rows with the header
    first, and ``text()`` the pretty text.
    """
    if fmt_name == "json":
        return fmt.dumps(doc())
    if fmt_name == "csv":
        return fmt.csv_line(*rows())
    return text()


# The printed text of each scenario invocation, by the build's report, the command, its
# --input and its --format. Reports of two builds are equal only when both failed
# construction with one message, and then print the same text.
_TEXTS = {}


def _emit_scenario(args, doc, rows, text) -> None:
    """Print a scenario command's text: rendered on the first call for this build, then kept."""
    key = (verify_paradox(), args.command, getattr(args, "input", None), args.format)
    out = _TEXTS.get(key)
    if out is None:
        out = _TEXTS[key] = _render(args.format, doc, rows, text)
    print(out)


def _basis_doc(basis):
    """Name for the built-in bases, otherwise the kets, one per row."""
    return basis.name if basis.name is not None else basis.matrix.T


def _table_text(table) -> str:
    header = [f"input {table.first}{table.second}"] + [f"eta_{i}" for i in OUTCOMES]
    return fmt.render_table(header, table.row_labels, table.entries)


def _negative_rows(table, outcome: int) -> list:
    """Labels of the rows whose entry at the outcome is negative."""
    return [label for label, neg in zip(table.row_labels, table.negatives) if outcome in neg]


def _expansion_text(expansion) -> str:
    parts = []
    for s, c in expansion.coeffs.items():
        sign = "-" if c < 0 else "+"
        parts.append(f"{sign}{fmt.format_float(abs(c))} {s}")
    return " ".join(parts)


def _ket_text(ket) -> str:
    return "(" + ", ".join(fmt.complex_cells(ket)) + ")"


def _matrix_lines(m) -> list:
    cells = fmt.complex_cells(m)
    width = max(map(len, cells))
    cells = [c.rjust(width) for c in cells]
    return ["  " + "  ".join(cells[i : i + m.shape[1]]) for i in range(0, len(cells), m.shape[1])]


def _cmd_eta(args) -> None:
    basis = eta_basis()
    excluded = {str(i): "".join(basis.excluded_input[i]) for i in OUTCOMES}

    def text():
        lines = ["four-outcome entangled two-qubit measurement"]
        for i, e, k in zip(OUTCOMES, basis.expansions, basis.kets):
            lines.append(f"outcome {i}: excludes input {excluded[str(i)]}")
            lines.append(f"  expansion: {_expansion_text(e)}")
            lines.append(f"  ket: {_ket_text(k)}")
        return "\n".join(lines)

    def doc():
        return {
            "projectors": [{"n": e.n, "coeffs": e.coeffs} for e in basis.expansions],
            "kets": basis.kets,
            "excluded_input": excluded,
        }

    def rows():
        strings = list(pauli_strings(2))
        out = [["outcome"] + strings]
        for i, e in zip(OUTCOMES, basis.expansions):
            out.append([i] + [e.coeffs.get(s, 0.0) for s in strings])
        return out

    _emit_scenario(args, doc, rows, text)


def _cmd_prob(args) -> None:
    eta_basis()  # the checked measurement: raises if it failed construction
    first, second = args.input  # argparse has checked it against INPUT_CHOICES
    probs = np.array([outcome_probability(i, first, second) for i in OUTCOMES])

    def rows():
        return [["outcome", "probability"]] + [[i, p] for i, p in zip(OUTCOMES, probs)]

    def text():
        lines = [f"outcome probabilities for input {args.input}"]
        for i, p in zip(OUTCOMES, probs):
            lines.append(f"outcome {i}: {fmt.format_float(p)}")
        return "\n".join(lines)

    _emit_scenario(args, lambda: {"input": args.input, "probabilities": probs}, rows, text)


def _cmd_table(args) -> None:
    eta_basis()  # the checked measurement: raises if it failed construction
    table = contribution_table(*args.input)

    def doc():
        return {
            "input": args.input,
            "outcomes": list(OUTCOMES),
            "rows": list(table.row_labels),
            "entries": table.entries,
        }

    # the csv is the bare grid of entries, with neither header nor row labels
    _emit_scenario(args, doc, lambda: [[row] for row in table.entries], lambda: _table_text(table))


def _cmd_verify(args) -> None:
    report = verify_paradox()
    # empty when the measurement failed construction
    inputs = list(
        zip(INPUT_CHOICES, report.tables, report.excluded_outcomes, report.born_probabilities)
    )

    def doc():
        return {
            "passed": report.passed,
            "checks": [c._asdict() for c in report.checks],
            "inputs": [
                {
                    "input": label,
                    "excluded_outcome": outcome,
                    "born_probability": born,
                    "rows": [
                        {"label": row, "entries": entries, "negatives": negatives}
                        for row, entries, negatives in zip(
                            table.row_labels, table.entries, table.negatives
                        )
                    ],
                }
                for label, table, outcome, born in inputs
            ],
        }

    def rows():
        out = [["input", "excluded_outcome", "born_probability", "negative_rows"]]
        for label, table, outcome, born in inputs:
            out.append([label, outcome, born, "|".join(_negative_rows(table, outcome))])
        return out

    def text():
        lines = [f"scenario verification: {'PASS' if report.passed else 'FAIL'}"]
        for c in report.checks:
            mark = "ok" if c.passed else "FAIL"
            lines.append(f"  [{mark:>4}] {c.name}: {c.detail}")
        for label, table, outcome, born in inputs:
            lines.append("")
            lines.append(
                f"input {label}: excluded outcome {outcome}, "
                f"Born probability {fmt.format_float(born)}"
            )
            contributors = ", ".join(_negative_rows(table, outcome)) or "none"
            lines.append(f"  negative contributors to outcome {outcome}: {contributors}")
            lines += ["  " + line for line in _table_text(table).splitlines()]
        return "\n".join(lines)

    _emit_scenario(args, doc, rows, text)
    if not report.passed:
        failed = [c.name for c in report.checks if not c.passed]
        raise ScenarioConsistencyError(f"verification failed: {', '.join(failed)}")


def _cmd_decompose(args) -> None:
    (basis,), terms = _run_on_state(args.state, [args.basis], decompose)

    def doc():
        return {
            "basis": _basis_doc(basis),
            "terms": [
                {
                    "outcome": f,
                    "label": basis.labels[f],
                    "weight": t.weight,
                    "operator": t.operator,
                }
                for f, t in enumerate(terms)
            ],
        }

    def rows():
        cells = [f"r{i}c{j}" for i in range(basis.dim) for j in range(basis.dim)]
        out = [["outcome", "label", "weight"] + [f"{c}_{p}" for c in cells for p in ("re", "im")]]
        for f, t in enumerate(terms):
            out.append([f, basis.labels[f], t.weight, t.operator])
        return out

    def text():
        name = basis.name or "custom"
        lines = [f"sub-ensemble decomposition over basis {name} (dim {basis.dim})"]
        for f, t in enumerate(terms):
            lines.append(f"outcome {f} ({basis.labels[f]}): weight {fmt.format_float(t.weight)}")
            lines += _matrix_lines(t.operator)
        return "\n".join(lines)

    print(_render(args.format, doc, rows, text))


def _cmd_mh(args) -> None:
    (basis_a, basis_b), dist = _run_on_state(args.state, [args.basis_a, args.basis_b], mh_joint)
    labels_b = list(basis_b.labels)

    def doc():
        return {
            "basisA": _basis_doc(basis_a),
            "basisB": _basis_doc(basis_b),
            "q": dist.q,
        }

    def rows():
        return [[""] + labels_b] + [[label, row] for label, row in zip(basis_a.labels, dist.q)]

    def text():
        title = f"joint quasi-probability: rows {basis_a.name or 'A'}, columns {basis_b.name or 'B'}"
        return title + "\n" + fmt.render_table(["q(a,b)"] + labels_b, basis_a.labels, dist.q)

    print(_render(args.format, doc, rows, text))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subens",
        description=(
            "Sub-ensemble decompositions, joint quasi-probability tables, and the "
            "four-outcome two-qubit exclusion scenario."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.add_argument(
            "--format",
            choices=("json", "csv", "pretty"),
            default="pretty",
            help="output format (default: pretty)",
        )
        p.set_defaults(func=func)
        return p

    command("eta", _cmd_eta, "print the four-outcome entangled measurement")
    p = command("prob", _cmd_prob, "outcome probabilities for a product input")
    p.add_argument("--input", required=True, choices=INPUT_CHOICES)
    p = command("table", _cmd_table, "sub-ensemble contribution table for a product input")
    p.add_argument("--input", required=True, choices=INPUT_CHOICES)
    command("verify", _cmd_verify, "verify every exclusion invariant of the scenario")

    basis_help = "Z, X, or a JSON ket-list file"
    p = command("decompose", _cmd_decompose, "decompose a state file over a basis")
    p.add_argument("--state", required=True, help="JSON matrix or ket file")
    p.add_argument("--basis", required=True, help=basis_help)
    p = command("mh", _cmd_mh, "joint quasi-probability table of a state over two bases")
    p.add_argument("--state", required=True, help="JSON matrix or ket file")
    p.add_argument("--basis-a", required=True, help=basis_help)
    p.add_argument("--basis-b", required=True, help=basis_help)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        args.func(args)
    except (InputFileError, ScenarioConsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, InputFileError) else 1
    return 0


def entry() -> None:
    """Exit with main's status, or with 141 (as for SIGPIPE) when stdout's reader has gone."""
    try:
        status = main()
        sys.stdout.flush()  # a closed pipe fails here, not at exit
    except BrokenPipeError:
        # the rest of the buffer goes nowhere, so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 141
    sys.exit(status)
