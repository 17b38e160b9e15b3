"""Seeded request generators for the benchmark workloads.

A workload is an endless sequence of fixed-size cycles. Each cycle holds one
request of every kind in the workload's mix, in a seeded order, so that
latency percentiles and per-cycle throughput compare like with like between
runs. Every request's inputs come from ``numpy.random.default_rng`` keyed on
(seed, cycle, position), so the same seed gives the same bytes whatever the
timing. File inputs are written with ``json.dumps``, whose float repr
round-trips exactly, and the generator keeps the exact arrays it wrote for
the correctness oracle.

The designated first request of each workload (``Workload.first``) is what
the fresh interpreters run for ``cold_request_ms``; it is a fixed kind with
seeded contents, so the cold figure compares the same work across seeds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

FORMATS = ("json", "csv", "pretty")
SCENARIO_INPUTS = ("00", "0+", "+0", "++")
INVALID_KINDS = ("nonhermitian", "trace", "negative", "nonorthonormal", "dimension")

_S = 1.0 / np.sqrt(2.0)
NAMED_BASES = {
    "Z": (np.eye(2, dtype=complex), ("0", "1")),
    "X": (np.array([[_S, _S], [_S, -_S]], dtype=complex), ("+", "-")),
}

@dataclass
class Request:
    """One client request and what the oracle needs to judge its output."""

    kind: str
    argv: list | None = None
    matrix: np.ndarray | None = None
    expect_exit: int = 0
    check: dict = field(default_factory=dict)
    files: list = field(default_factory=list)
    invalid: str | None = None

    def describe(self) -> dict:
        """JSON-able form for a fresh interpreter (matrix as [re, im] pairs)."""
        if self.argv is not None:
            return {"argv": self.argv}
        return {"matrix": _matrix_json(self.matrix)}

    def cleanup(self) -> None:
        for path in self.files:
            Path(path).unlink(missing_ok=True)


def _matrix_json(m) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _ket_json(v) -> list:
    return [[float(z.real), float(z.imag)] for z in v]


def _complex_normal(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def random_unitary(rng, d: int) -> np.ndarray:
    q, _ = np.linalg.qr(_complex_normal(rng, (d, d)))
    return q


def random_density(rng, d: int) -> np.ndarray:
    g = _complex_normal(rng, (d, d))
    w = g @ g.conj().T
    rho = 0.9 * w / np.trace(w).real + 0.1 * np.eye(d) / d
    return 0.5 * (rho + rho.conj().T)


def random_ket(rng, d: int) -> np.ndarray:
    v = _complex_normal(rng, d)
    return v / np.linalg.norm(v)


def random_hermitian(rng, d: int) -> np.ndarray:
    a = _complex_normal(rng, (d, d))
    return 0.5 * (a + a.conj().T)


def negative_density(rng, d: int) -> np.ndarray:
    """Hermitian, trace 1, lowest eigenvalue -0.2."""
    lam = rng.uniform(0.1, 1.0, size=d)
    lam[0] = 0.0
    lam *= 1.2 / lam.sum()
    lam[0] = -0.2
    u = random_unitary(rng, d)
    rho = (u * lam) @ u.conj().T
    return 0.5 * (rho + rho.conj().T)


class Workload:
    """Base: subclasses list their kinds and build one request per kind."""

    name = ""
    kinds: tuple = ()
    first_kind = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self._counter = 0

    def first(self) -> Request:
        return self.make(self.first_kind, np.random.default_rng([self.seed, 1 << 30]))

    def cycle(self, k: int) -> list:
        order = np.random.default_rng([self.seed, k]).permutation(len(self.kinds))
        return [
            self.make(self.kinds[i], np.random.default_rng([self.seed, k, int(j)]))
            for j, i in enumerate(order)
        ]

    def make(self, kind, rng) -> Request:
        raise NotImplementedError

    def _write(self, req: Request, role: str, data) -> str:
        self._counter += 1
        path = self.workdir / f"{self._counter}-{role}.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        req.files.append(str(path))
        return str(path)


class Scenario(Workload):
    name = "scenario"
    kinds = (
        tuple(("eta", None, f) for f in FORMATS)
        + tuple((c, i, f) for c in ("prob", "table") for i in SCENARIO_INPUTS for f in FORMATS)
        + tuple(("verify", None, f) for f in FORMATS for _ in range(2))
    )
    first_kind = ("verify", None, "json")

    def make(self, kind, rng) -> Request:
        cmd, inp, f = kind
        argv = [cmd] + (["--input", inp] if inp else []) + ["--format", f]
        label = ".".join(x for x in kind if x)
        return Request(kind=label, argv=argv, check={"cmd": cmd, "input": inp, "format": f})


class _FileWorkload(Workload):
    """mh / decompose requests on freshly written state and basis files."""

    def _state(self, req, rng, d, form, rho=None):
        if form == "ket":
            ket = random_ket(rng, d)
            rho = np.outer(ket, ket.conj())
            path = self._write(req, "ket", _ket_json(ket))
        else:
            rho = random_density(rng, d) if rho is None else rho
            path = self._write(req, "rho", _matrix_json(rho))
        req.check["rho"] = rho
        return path

    def _basis(self, req, rng, d, role, named, v=None):
        if named and v is None:
            name = "Z" if rng.random() < 0.5 else "X"
            v, labels = NAMED_BASES[name]
            req.check[role] = (v, labels, name)
            return name
        if v is None:
            v = random_unitary(rng, d)
        req.check[role] = (v, tuple(str(i) for i in range(v.shape[1])), None)
        return self._write(req, role, [_ket_json(v[:, k]) for k in range(v.shape[1])])

    def file_request(self, cmd, d, f, form, rng, named=False, invalid=None) -> Request:
        """A request on fresh files; form is "matrix" or "ket" for the state file."""
        req = Request(kind=f"{cmd}.d{d}.{f}.{form}", check={"cmd": cmd, "format": f})
        rho = None
        if invalid == "nonhermitian":
            rho = random_density(rng, d)
            rho[0, 1] += 0.1
        elif invalid == "trace":
            rho = 1.5 * random_density(rng, d)
        elif invalid == "negative":
            rho = negative_density(rng, d)
        if rho is not None:
            form = "matrix"
        bad_basis = None
        if invalid == "nonorthonormal":
            bad_basis = random_unitary(rng, d)
            bad_basis[:, 0] += 0.1 * bad_basis[:, 1]
        elif invalid == "dimension":
            other = 4 if d == 2 else 2
            bad_basis = random_unitary(rng, other)
        state = self._state(req, rng, d, form, rho)
        roles = ("basis_a", "basis_b") if cmd == "mh" else ("basis",)
        bad_role = roles[int(rng.integers(len(roles)))] if bad_basis is not None else None
        bases = [
            self._basis(req, rng, d, role, named, v=bad_basis if role == bad_role else None)
            for role in roles
        ]
        req.argv = [cmd, "--state", state]
        for role, src in zip(roles, bases):
            req.argv += ["--" + role.replace("_", "-"), src]
        req.argv += ["--format", f]
        if invalid:
            req.kind = f"invalid.{invalid}"
            req.invalid = invalid
            req.expect_exit = 3
        return req


class FilesSmall(_FileWorkload):
    name = "files-small"
    kinds = tuple(
        (c, d, f, form)
        for c in ("mh", "decompose")
        for d in (2, 4, 8)
        for f in FORMATS
        for form in ("matrix", "ket")
    ) + tuple(("invalid", j, None, None) for j in range(4))  # 4 of 40: 10 % invalid
    first_kind = ("mh", 4, "json", "matrix")

    def make(self, kind, rng) -> Request:
        cmd, d, f, form = kind
        if cmd != "invalid":
            # At d = 2 the ket-state requests name their bases (Z or X).
            return self.file_request(cmd, d, f, form, rng, named=(d == 2 and form == "ket"))
        which = INVALID_KINDS[int(rng.integers(len(INVALID_KINDS)))]
        cmd = "mh" if rng.random() < 0.5 else "decompose"
        dim = int(rng.choice((2, 4, 8)))
        fmt = FORMATS[int(rng.integers(3))]
        form = "ket" if rng.random() < 0.5 else "matrix"
        named = dim == 2 and rng.random() < 0.5
        return self.file_request(cmd, dim, fmt, form, rng, named=named, invalid=which)


class FilesLarge(_FileWorkload):
    name = "files-large"
    kinds = tuple(("mh", d, f) for d in (32, 64, 128) for f in FORMATS) + tuple(
        ("decompose", d, f) for d in (16, 32) for f in FORMATS
    )
    first_kind = ("mh", 64, "json")

    def make(self, kind, rng) -> Request:
        return self.file_request(*kind, "matrix", rng)


class Pauli(Workload):
    name = "pauli"
    kinds = (1, 2, 3, 4, 5)
    first_kind = 5

    def make(self, n, rng) -> Request:
        return Request(kind=f"pauli.n{n}", matrix=random_hermitian(rng, 2 ** n), check={"n": n})


WORKLOADS = {w.name: w for w in (Scenario, FilesSmall, FilesLarge, Pauli)}
