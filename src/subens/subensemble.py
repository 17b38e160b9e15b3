"""Sub-ensemble decomposition of density operators over measurement bases.

A state rho splits across any orthonormal rank-1 basis {|f>} into the
Hermitian terms

    R_f = (rho |f><f| + |f><f| rho) / 2,

which sum back to rho exactly and whose traces are the Born probabilities of
the outcomes. The terms are generally not positive semidefinite. Evaluating
the terms of one basis against the projectors of a second basis yields a
joint quasi-probability table: its two marginals are the genuine single-basis
outcome distributions, while individual entries can be negative whenever the
bases do not commute with the state.
"""

from __future__ import annotations

__all__ = [
    "JointQuasiDistribution",
    "MeasurementBasis",
    "SubensembleOperator",
    "assignment_operator",
    "basis_from_kets",
    "decompose",
    "mh_joint",
    "named_basis",
    "negativity",
    "validate_density",
    "x_basis",
    "z_basis",
]

import functools
from dataclasses import dataclass

import numpy as np

from .operators import (
    ATOL,
    _distance,
    _square,
    almost_equal,
    is_projector,
    symmetric_product,
)
from .states import standard_ket

# Eigenvalue slack when validating density matrices; looser than ATOL to
# absorb accumulation in small dense eigensolves.
POSITIVITY_ATOL = 1e-10


@dataclass(frozen=True, init=False, eq=False)
class MeasurementBasis:
    """Complete orthonormal set of rank-1 measurement outcomes.

    ``matrix`` is the read-only d×d unitary V whose column f is the ket of
    outcome f; ``vectors`` yields those kets. ``labels`` names the outcomes,
    "0" to "d-1" unless given. ``name`` is set for the built-in Z and X
    bases, which are built once per process, and None for ad-hoc bases.
    """

    matrix: np.ndarray
    labels: tuple
    name: str | None = None

    @np.errstate(over="ignore", invalid="ignore")  # overflow reads as a NaN or inf, rejected
    def __init__(self, vectors, labels=None, name: str | None = None):
        kets = [np.asarray(v, dtype=complex) for v in vectors]
        if not kets:
            raise ValueError("basis must contain at least one vector")
        dim = kets[0].shape[0] if kets[0].ndim == 1 else -1
        for k in kets:
            if k.ndim != 1 or k.shape[0] != dim:
                raise ValueError("basis vectors must be kets of a common dimension")
        if len(kets) != dim:
            raise ValueError(
                f"basis of dimension {dim} must have exactly {dim} vectors, got {len(kets)}"
            )
        v = np.stack(kets, axis=1)
        if not np.isfinite(v).all():
            raise ValueError("basis vectors have non-finite entries")
        vh = v.conj().T
        _check_distance("basis vectors are not orthonormal: max|V^H V - I|", vh @ v, np.eye(dim))
        _check_distance("basis is not complete: max|V V^H - I|", v @ vh, np.eye(dim))
        labels = tuple(str(s) for s in (range(dim) if labels is None else labels))
        if len(labels) != dim:
            raise ValueError("need one label per basis vector")
        v.setflags(write=False)
        object.__setattr__(self, "matrix", v)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "name", name)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def vectors(self) -> tuple:
        """The outcome kets, as read-only views of the columns of ``matrix``."""
        return tuple(self.matrix.T)


def _check_distance(defect: str, a: np.ndarray, b: np.ndarray) -> None:
    """Raise unless max|a - b| over the entries is within ATOL; the message
    is the defect, the distance and the tolerance. A NaN distance, from
    entries whose products overflow, is not within it."""
    distance = _distance(a, b)
    if not distance <= ATOL:
        raise ValueError(f"{defect} = {distance:.3g} exceeds tolerance {ATOL:g}")


def basis_from_kets(kets, labels=None, name: str | None = None) -> MeasurementBasis:
    return MeasurementBasis(vectors=kets, labels=labels, name=name)


@functools.cache
def z_basis() -> MeasurementBasis:
    return basis_from_kets([standard_ket("0"), standard_ket("1")], name="Z")


@functools.cache
def x_basis() -> MeasurementBasis:
    return basis_from_kets([standard_ket("+"), standard_ket("-")], labels=("+", "-"), name="X")


def named_basis(name: str) -> MeasurementBasis:
    if name == "Z":
        return z_basis()
    if name == "X":
        return x_basis()
    raise ValueError(f"unknown basis name {name!r}; expected Z or X")


@np.errstate(over="ignore", invalid="ignore")  # overflow reads as a NaN or inf, rejected
def validate_density(rho, dim: int | None = None) -> np.ndarray:
    """Return rho as an array, raising unless it is a valid density matrix."""
    rho = _square(rho, "density matrix")
    if not np.isfinite(rho).all():
        raise ValueError("density matrix has non-finite entries")
    if dim is not None and rho.shape[0] != dim:
        raise ValueError(f"density matrix has dimension {rho.shape[0]}, expected {dim}")
    _check_distance("density matrix is not Hermitian: max|rho - rho^H|", rho, rho.conj().T)
    _check_distance("density matrix trace is not 1: |tr rho - 1|", np.trace(rho), 1.0)
    lowest = float(np.linalg.eigvalsh(rho)[0])
    if not np.isfinite(lowest):
        raise ValueError(f"density matrix overflows the eigensolver: lowest eigenvalue {lowest}")
    if lowest < -POSITIVITY_ATOL:
        raise ValueError(f"density matrix has negative eigenvalue {lowest}")
    return rho


@dataclass(frozen=True, eq=False)
class SubensembleOperator:
    """Term f of ``decompose``: Hermitian, trace equal to the probability of outcome f."""

    operator: np.ndarray
    weight: float


def decompose(rho, basis: MeasurementBasis) -> list[SubensembleOperator]:
    """Split a density matrix over a basis into symmetric-product terms.

    The returned operators sum to rho exactly and their weights sum to 1;
    single terms may fail positive semidefiniteness, which is what makes the
    joint tables built from them quasi-probabilities. With u = rho V, each
    term is the rank-1 form (u_f v_f^H + v_f u_f^H)/2, since rho is Hermitian.
    """
    rho = validate_density(rho, dim=basis.dim)
    v = basis.matrix
    u = rho @ v
    vc = v.conj()
    weights = (vc * u).sum(axis=0).real
    terms = []
    for f in range(basis.dim):
        a = u[:, f, None] * vc[:, f]
        op = 0.5 * (a + a.conj().T)
        op.setflags(write=False)
        terms.append(SubensembleOperator(operator=op, weight=float(weights[f])))
    return terms


def assignment_operator(pa, pb) -> np.ndarray:
    """Trace-normalized symmetric product of two rank-1 projectors.

    Represents the simultaneous assignment of both outcomes. For a Z
    eigenstate paired with an X eigenstate this gives (I +- X +- Z)/2. The
    symmetric product of orthogonal projectors has trace zero and cannot be
    normalized, so that case raises instead of returning a silent zero.
    """
    pa = _square(pa, "pa")
    pb = _square(pb, "pb")
    if pa.shape != pb.shape:
        raise ValueError(f"dimension mismatch: {pa.shape[0]} vs {pb.shape[0]}")
    for name, p in (("pa", pa), ("pb", pb)):
        if not is_projector(p) or not almost_equal(np.trace(p), 1.0):
            raise ValueError(f"{name} is not a rank-1 projector")
    sym = symmetric_product(pa, pb)
    overlap = float(np.trace(sym).real)
    if overlap <= ATOL:
        raise ValueError("projectors are orthogonal; simultaneous assignment is undefined")
    return sym / overlap


@dataclass(frozen=True, eq=False)
class JointQuasiDistribution:
    """Real joint quasi-probability table over two measurement bases.

    Rows follow the outcomes of the first basis, columns those of the second.
    Both marginals reproduce the single-basis Born distributions; entries may
    be negative.
    """

    q: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        q.setflags(write=False)
        object.__setattr__(self, "q", q)

    def marginal_a(self) -> np.ndarray:
        return self.q.sum(axis=1)

    def marginal_b(self) -> np.ndarray:
        return self.q.sum(axis=0)

    def total(self) -> float:
        return float(self.q.sum())


def mh_joint(rho, basis_a: MeasurementBasis, basis_b: MeasurementBasis) -> JointQuasiDistribution:
    """Joint quasi-probability table q[a, b] = <b| R_a |b>.

    R_a are the decomposition terms of rho over basis_a; the result equals
    Re tr(P_b P_a rho) and is symmetric under exchanging the roles of the
    two bases. It is computed without forming the terms, as
    q = Re(conj(Va^H Vb) * (Va^H rho Vb)) elementwise.
    """
    if basis_a.dim != basis_b.dim:
        raise ValueError(f"basis dimensions differ: {basis_a.dim} vs {basis_b.dim}")
    rho = validate_density(rho, dim=basis_a.dim)
    vah = basis_a.matrix.conj().T
    overlap = vah @ basis_b.matrix
    q = (overlap.conj() * (vah @ rho @ basis_b.matrix)).real
    return JointQuasiDistribution(q=q)


def negativity(dist) -> float:
    """Total magnitude of the entries below -ATOL; zero for a true joint distribution.

    Entries in [-ATOL, 0) are rounding noise of a nonnegative table and count
    as zero. A non-finite entry raises.
    """
    if isinstance(dist, JointQuasiDistribution):
        q = dist.q
    else:
        q = np.asarray(dist, dtype=float)
    if not np.isfinite(q).all():
        raise ValueError("quasi-probability table has non-finite entries")
    with np.errstate(over="ignore"):  # overflow reads as inf, rejected
        total = np.abs(q[q < -ATOL]).sum()
    if not np.isfinite(total):
        raise ValueError("negativity overflows a double")
    return float(total)
