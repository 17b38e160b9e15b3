"""Correctness oracle for every benchmark request; it never imports subens.

The reference values are recomputed here in plain numpy:

- ``mh``: q = Re(conj(Va^H Vb) * (Va^H rho Vb)), one column of V per ket;
- ``decompose``: each R_f = (u v^H + v u^H)/2 with u = rho v, the weight is
  the Born probability <v|rho|v>, and the terms must sum to rho;
- the scenario: the four projectors are synthesized from the paper's Pauli
  coefficient tables, and the contribution tables are built from the
  assignment operators. The model is checked against the paper's 16-entry
  table for input 00 at import;
- ``verify`` must report a pass and exit 0;
- the Pauli round trip must give back h.

Machine formats (json, csv) are compared at 1e-10 absolute plus 1e-9
relative, so a one-ulp change or a reordered sum passes. Pretty output has
6 significant digits and is compared at 1e-6 absolute plus 1e-5 relative.
A header row on ``table --format csv`` is accepted, as is a label column.
"""

from __future__ import annotations

import itertools
import json
import re

import numpy as np

from workloads import SCENARIO_INPUTS


class OracleError(Exception):
    """An output that disagrees with the reference."""


def _tol(pretty: bool):
    return (1e-6, 1e-5) if pretty else (1e-10, 1e-9)


def close(got, want, pretty: bool, what: str, scale: float = 1.0) -> None:
    """Elementwise comparison; scale widens the tolerance for sums of scale terms."""
    got = np.asarray(got)
    want = np.asarray(want)
    if got.shape != want.shape:
        raise OracleError(f"{what}: shape {got.shape}, expected {want.shape}")
    atol, rtol = (scale * t for t in _tol(pretty))
    bad = np.abs(got - want) > atol + rtol * np.abs(want)
    if np.any(bad):
        idx = tuple(int(i) for i in np.argwhere(bad)[0])
        raise OracleError(f"{what}: entry {idx} is {got[idx]!r}, expected {want[idx]!r}")


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise OracleError(what)


def _num(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise OracleError(f"not a number: {text!r}") from None


def _cplx(text: str) -> complex:
    """Parse the pretty form re, im i or re+imi."""
    try:
        return complex(text[:-1] + "j") if text.endswith("i") else complex(float(text))
    except ValueError:
        raise OracleError(f"not a complex number: {text!r}") from None


# ---------------------------------------------------------------------------
# The scenario model.
# ---------------------------------------------------------------------------

_P1 = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
PAULI2 = ["".join(p) for p in itertools.product("IXYZ", repeat=2)]

ETA = {
    1: {"II": 0.25, "XX": 0.25, "YY": 0.25, "ZZ": -0.25},
    2: {"II": 0.25, "XZ": 0.25, "YY": -0.25, "ZX": -0.25},
    3: {"II": 0.25, "XZ": -0.25, "YY": -0.25, "ZX": 0.25},
    4: {"II": 0.25, "XX": -0.25, "YY": 0.25, "ZZ": 0.25},
}
PAPER_TABLE_00 = np.array(
    [
        [0.25, 0.25, 0.25, 0.25],
        [-0.25, 0.75, -0.25, 0.75],
        [-0.25, -0.25, 0.75, 0.75],
        [0.25, 0.25, 0.25, 0.25],
    ]
)
_COMPONENTS = {"0": (("0", "+"), ("0", "-")), "+": (("0", "+"), ("1", "+"))}
_KETS = {"0": (1, 0), "1": (0, 1), "+": (2**-0.5, 2**-0.5), "-": (2**-0.5, -(2**-0.5))}


def _proj(label):
    k = np.array(_KETS[label], dtype=complex)
    return np.outer(k, k.conj())


def _assignment(z, x):
    a, b = _proj(z), _proj(x)
    sym = 0.5 * (a @ b + b @ a)
    return sym / np.trace(sym).real


PROJECTORS = {
    i: sum(c * np.kron(_P1[s[0]], _P1[s[1]]) for s, c in ETA[i].items()) for i in ETA
}
_PREP = {"0": _proj("0"), "+": _proj("+")}
BORN = {
    inp: np.array([np.trace(PROJECTORS[i] @ np.kron(_PREP[inp[0]], _PREP[inp[1]])).real for i in ETA])
    for inp in SCENARIO_INPUTS
}
EXCLUDED = {inp: int(np.argmin(np.abs(BORN[inp]))) + 1 for inp in SCENARIO_INPUTS}
TABLES = {}
for _inp in SCENARIO_INPUTS:
    _labels, _rows = [], []
    for _s in _COMPONENTS[_inp[0]]:
        for _t in _COMPONENTS[_inp[1]]:
            _labels.append(f"({''.join(_s)};{''.join(_t)})")
            _joint = np.kron(_assignment(*_s), _assignment(*_t))
            _rows.append([np.trace(PROJECTORS[i] @ _joint).real for i in ETA])
    TABLES[_inp] = (tuple(_labels), np.array(_rows))
assert np.allclose(TABLES["00"][1], PAPER_TABLE_00, atol=1e-12)
assert sorted(EXCLUDED.values()) == [1, 2, 3, 4] and EXCLUDED["00"] == 1


def _negative_rows(inp):
    labels, entries = TABLES[inp]
    col = EXCLUDED[inp] - 1
    return [lab for lab, row in zip(labels, entries) if row[col] < -1e-12]


def _check_eta(out, f):
    pretty = f == "pretty"
    if f == "json":
        doc = json.loads(out)
        for i, e in zip(ETA, doc["projectors"]):
            expect(e["n"] == 2, "eta: n != 2")
            got = [e["coeffs"].get(s, 0.0) for s in PAULI2]
            close(got, [ETA[i].get(s, 0.0) for s in PAULI2], False, f"eta {i} coeffs")
        kets = [np.array([complex(*z) for z in k]) for k in doc["kets"]]
        excluded = {int(k): v for k, v in doc["excluded_input"].items()}
    elif f == "csv":
        lines = out.splitlines()
        expect(lines[0].split(",") == ["outcome"] + PAULI2, "eta csv header")
        expect(len(lines) == 5, "eta csv: expected 4 rows")
        for i, line in zip(ETA, lines[1:]):
            cells = line.split(",")
            expect(cells[0] == str(i), f"eta csv row {i}")
            got = [_num(c) for c in cells[1:]]
            close(got, [ETA[i].get(s, 0.0) for s in PAULI2], False, f"eta {i} coeffs")
        return
    else:
        lines = out.splitlines()
        kets, excluded = [], {}
        for i in ETA:
            head, expansion, ket = lines[1 + 3 * (i - 1): 4 + 3 * (i - 1)]
            m = re.fullmatch(r"outcome (\d): excludes input (\S\S)", head)
            expect(m is not None and int(m.group(1)) == i, f"eta pretty outcome line {head!r}")
            excluded[i] = m.group(2)
            tokens = expansion.split()[1:]
            coeffs = {tokens[k + 1]: _num(tokens[k]) for k in range(0, len(tokens), 2)}
            got = [coeffs.get(s, 0.0) for s in PAULI2]
            close(got, [ETA[i].get(s, 0.0) for s in PAULI2], True, f"eta {i} expansion")
            body = ket.strip()
            expect(body.startswith("ket: (") and body.endswith(")"), f"eta pretty ket line {ket!r}")
            kets.append(np.array([_cplx(t.strip()) for t in body[6:-1].split(",")]))
    for i, k in zip(ETA, kets):
        close(np.outer(k, k.conj()), PROJECTORS[i], pretty, f"eta {i} ket")
    expect(excluded == {EXCLUDED[inp]: inp for inp in SCENARIO_INPUTS}, f"eta excluded inputs {excluded}")


def _check_prob(out, f, inp):
    want = BORN[inp]
    if f == "json":
        doc = json.loads(out)
        expect(doc["input"] == inp, "prob: wrong input")
        close(doc["probabilities"], want, False, "prob")
    elif f == "csv":
        lines = out.splitlines()
        expect(lines[0] == "outcome,probability" and len(lines) == 5, "prob csv layout")
        rows = [line.split(",") for line in lines[1:]]
        expect([r[0] for r in rows] == ["1", "2", "3", "4"], "prob csv outcomes")
        close([_num(r[1]) for r in rows], want, False, "prob")
    else:
        lines = out.splitlines()
        expect(lines[0] == f"outcome probabilities for input {inp}" and len(lines) == 5, "prob pretty layout")
        close([_num(line.split(":")[1]) for line in lines[1:]], want, True, "prob")


def _check_table(out, f, inp):
    labels, want = TABLES[inp]
    if f == "json":
        doc = json.loads(out)
        expect(doc["input"] == inp and doc["outcomes"] == [1, 2, 3, 4], "table json header")
        expect(tuple(doc["rows"]) == labels, "table json row labels")
        close(doc["entries"], want, False, "table")
        return
    if f == "csv":
        rows = [line.split(",") for line in out.splitlines()]
        try:
            float(rows[0][-1])
        except ValueError:
            rows = rows[1:]  # a header row
        expect(len(rows) == 4, "table csv: expected 4 data rows")
        for label, row in zip(labels, rows):
            expect(len(row) == 4 or (len(row) == 5 and row[0] == label), f"table csv row {row}")
        close([[_num(c) for c in row[-4:]] for row in rows], want, False, "table")
        return
    lines = out.splitlines()
    expect(lines[0].split() == ["input", inp, "eta_1", "eta_2", "eta_3", "eta_4"], "table pretty header")
    rows = [line.split() for line in lines[1:]]
    expect(len(rows) == 4 and tuple(r[0] for r in rows) == labels, "table pretty row labels")
    close([[_num(c) for c in r[1:]] for r in rows], want, True, "table")


def _check_verify(out, f):
    if f == "json":
        doc = json.loads(out)
        expect(doc["passed"] is True, "verify: passed is not true")
        expect(all(c["passed"] is True for c in doc["checks"]), "verify: a check failed")
        expect([r["input"] for r in doc["inputs"]] == list(SCENARIO_INPUTS), "verify inputs")
        for r in doc["inputs"]:
            inp = r["input"]
            expect(r["excluded_outcome"] == EXCLUDED[inp], f"verify {inp}: excluded outcome")
            close(r["born_probability"], 0.0, False, f"verify {inp}: Born probability")
            labels, want = TABLES[inp]
            expect(tuple(row["label"] for row in r["rows"]) == labels, f"verify {inp}: row labels")
            close([row["entries"] for row in r["rows"]], want, False, f"verify {inp} table")
            for row, entries in zip(r["rows"], want):
                negatives = [i + 1 for i, v in enumerate(entries) if v < -1e-12]
                expect(row["negatives"] == negatives, f"verify {inp} {row['label']}: negatives")
    elif f == "csv":
        lines = out.splitlines()
        expect(lines[0] == "input,excluded_outcome,born_probability,negative_rows", "verify csv header")
        expect(len(lines) == 5, "verify csv: expected 4 rows")
        for inp, line in zip(SCENARIO_INPUTS, lines[1:]):
            cells = line.split(",")
            expect(cells[0] == inp and int(cells[1]) == EXCLUDED[inp], f"verify csv row {line!r}")
            close(_num(cells[2]), 0.0, False, f"verify csv {inp} Born probability")
            expect(cells[3].split("|") == _negative_rows(inp), f"verify csv {inp} negative rows")
    else:
        lines = out.splitlines()
        expect(lines[0] == "scenario verification: PASS", "verify pretty: not PASS")
        expect("FAIL" not in out, "verify pretty: a check failed")
        heads = [
            i for i, line in enumerate(lines) if line.startswith("input ") and ": excluded outcome" in line
        ]
        expect(len(heads) == len(SCENARIO_INPUTS), "verify pretty: expected one block per input")
        for inp, i in zip(SCENARIO_INPUTS, heads):
            m = re.fullmatch(r"input (\S\S): excluded outcome (\d), Born probability (\S+)", lines[i])
            ok = m is not None and m.group(1) == inp and int(m.group(2)) == EXCLUDED[inp]
            expect(ok, f"verify pretty {lines[i]!r}")
            close(_num(m.group(3)), 0.0, True, f"verify pretty {inp} Born probability")
            negatives = lines[i + 1].split(":", 1)[1].strip().split(", ")
            expect(negatives == _negative_rows(inp), f"verify pretty {inp} negative contributors")
            labels, want = TABLES[inp]
            rows = [line.split() for line in lines[i + 3: i + 7]]
            expect(tuple(r[0] for r in rows) == labels, f"verify pretty {inp} row labels")
            close([[_num(c) for c in r[1:]] for r in rows], want, True, f"verify pretty {inp} table")


# ---------------------------------------------------------------------------
# File-driven commands.
# ---------------------------------------------------------------------------


def _csv_rows(out):
    return [line.split(",") for line in out.splitlines()]


def _check_mh(out, f, c):
    rho = c["rho"]
    va, labels_a, name_a = c["basis_a"]
    vb, labels_b, name_b = c["basis_b"]
    want = np.real(np.conj(va.conj().T @ vb) * (va.conj().T @ rho @ vb))
    pretty = f == "pretty"
    if f == "json":
        doc = json.loads(out)
        for key, v, name in (("basisA", va, name_a), ("basisB", vb, name_b)):
            if name is not None:
                expect(doc[key] == name, f"mh {key}: expected {name}")
            else:
                kets = np.array(doc[key], dtype=float)
                close(kets[..., 0] + 1j * kets[..., 1], v.T, False, f"mh {key}")
        got = doc["q"]
    elif f == "csv":
        rows = _csv_rows(out)
        expect(rows[0] == [""] + list(labels_b), "mh csv header")
        expect([r[0] for r in rows[1:]] == list(labels_a), "mh csv row labels")
        got = [[_num(x) for x in r[1:]] for r in rows[1:]]
    else:
        lines = out.splitlines()
        head = f"joint quasi-probability: rows {name_a or 'A'}, columns {name_b or 'B'}"
        expect(lines[0] == head, f"mh pretty title {lines[0]!r}")
        rows = [line.split() for line in lines[1:]]
        expect(rows[0] == ["q(a,b)"] + list(labels_b), "mh pretty header")
        expect([r[0] for r in rows[1:]] == list(labels_a), "mh pretty row labels")
        got = [[_num(x) for x in r[1:]] for r in rows[1:]]
    close(got, want, pretty, "mh q")


def _check_decompose(out, f, c):
    rho = c["rho"]
    v, labels, name = c["basis"]
    d = rho.shape[0]
    u = rho @ v
    want_ops = np.array(
        [0.5 * (np.outer(u[:, k], v[:, k].conj()) + np.outer(v[:, k], u[:, k].conj())) for k in range(d)]
    )
    want_w = np.real(np.einsum("ik,ik->k", v.conj(), u))
    pretty = f == "pretty"
    if f == "json":
        doc = json.loads(out)
        if name is not None:
            expect(doc["basis"] == name, f"decompose basis: expected {name}")
        else:
            kets = np.array(doc["basis"], dtype=float)
            close(kets[..., 0] + 1j * kets[..., 1], v.T, False, "decompose basis")
        terms = doc["terms"]
        expect([t["outcome"] for t in terms] == list(range(d)), "decompose outcomes")
        expect(tuple(t["label"] for t in terms) == labels, "decompose labels")
        weights = [t["weight"] for t in terms]
        ops = np.array([t["operator"] for t in terms], dtype=float)
        ops = ops[..., 0] + 1j * ops[..., 1]
    elif f == "csv":
        rows = _csv_rows(out)
        header_ok = rows[0][:3] == ["outcome", "label", "weight"] and len(rows[0]) == 3 + 2 * d * d
        expect(header_ok, "decompose csv header")
        body = rows[1:]
        expect([r[0] for r in body] == [str(k) for k in range(d)], "decompose csv outcomes")
        expect(tuple(r[1] for r in body) == labels, "decompose csv labels")
        weights = [_num(r[2]) for r in body]
        flat = np.array([[_num(x) for x in r[3:]] for r in body])
        ops = (flat[:, 0::2] + 1j * flat[:, 1::2]).reshape(len(body), d, d)
    else:
        lines = out.splitlines()
        title = f"sub-ensemble decomposition over basis {name or 'custom'} (dim {d})"
        expect(lines[0] == title, "decompose pretty title")
        weights, ops = [], []
        for k in range(d):
            block = lines[1 + k * (d + 1): 1 + (k + 1) * (d + 1)]
            m = re.fullmatch(r"outcome (\d+) \((\S+)\): weight (\S+)", block[0])
            ok = m is not None and m.group(1) == str(k) and m.group(2) == labels[k]
            expect(ok, f"decompose pretty term line {block[0]!r}")
            weights.append(_num(m.group(3)))
            ops.append([[_cplx(t) for t in line.split()] for line in block[1:]])
        ops = np.array(ops)
    close(weights, want_w, pretty, "decompose weights")
    close(ops, want_ops, pretty, "decompose terms")
    close(ops.sum(axis=0), rho, pretty, "decompose sum of terms vs rho", scale=d)


# ---------------------------------------------------------------------------


def check(req, code, out) -> None:
    """Raise OracleError unless (exit code, stdout) is right for req."""
    if req.matrix is not None:
        close(out, req.matrix, False, f"{req.kind} round trip")
        return
    expect(code == req.expect_exit, f"{req.kind}: exit {code}, expected {req.expect_exit}")
    if req.expect_exit != 0:
        expect(out == "", f"{req.kind}: rejected input wrote to stdout")
        return
    c = req.check
    cmd, f = c["cmd"], c["format"]
    if cmd == "eta":
        _check_eta(out, f)
    elif cmd == "prob":
        _check_prob(out, f, c["input"])
    elif cmd == "table":
        _check_table(out, f, c["input"])
    elif cmd == "verify":
        _check_verify(out, f)
    elif cmd == "mh":
        _check_mh(out, f, c)
    elif cmd == "decompose":
        _check_decompose(out, f, c)
    else:
        raise OracleError(f"no oracle for {cmd}")


def verdict(req, code, out):
    """None if the output is right, else a one-line reason."""
    try:
        check(req, code, out)
    except OracleError as exc:
        return str(exc)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        return f"{req.kind}: unparseable output ({type(exc).__name__}: {exc})"
    return None

