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
]

from dataclasses import dataclass

import numpy as np

from .operators import (
    ATOL,
    POSITIVITY_ATOL,
    _check_distance,
    _check_rank_one_projector,
    _square,
    symmetric_product,
)
from .states import standard_ket


@dataclass(frozen=True, init=False, eq=False)
class MeasurementBasis:
    """Complete orthonormal set of rank-1 measurement outcomes.

    ``matrix`` is the read-only d×d unitary V whose column f is the ket of
    outcome f; ``vectors`` yields those kets. ``labels`` names the outcomes,
    "0" to "d-1" unless given. ``name`` is set for the built-in Z and X
    bases, which are built at import, and None for ad-hoc bases.
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


def basis_from_kets(kets, labels=None, name: str | None = None) -> MeasurementBasis:
    return MeasurementBasis(vectors=kets, labels=labels, name=name)


_NAMED_BASES = {
    name: MeasurementBasis([standard_ket(s) for s in labels], labels, name)
    for name, labels in (("Z", ("0", "1")), ("X", ("+", "-")))
}


def named_basis(name: str) -> MeasurementBasis:
    """The built-in Z basis (outcomes 0, 1) or X basis (outcomes +, -), built at import."""
    if name not in ("Z", "X"):  # a list is no key of the table: it would raise TypeError
        raise ValueError(f"unknown basis name {name!r}; expected Z or X")
    return _NAMED_BASES[name]


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
        raise ValueError(
            f"density matrix has negative eigenvalue {lowest} beyond tolerance {POSITIVITY_ATOL:g}"
        )
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
    ops = u.T[:, :, None] * vc.T[:, None, :]  # ops[f] = u_f v_f^H
    ops += ops.conj().transpose(0, 2, 1)
    ops *= 0.5
    ops.setflags(write=False)
    return [SubensembleOperator(operator=op, weight=w) for op, w in zip(ops, weights.tolist())]


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
    _check_rank_one_projector(pa, "pa")
    _check_rank_one_projector(pb, "pb")
    sym = symmetric_product(pa, pb)
    overlap = float(np.trace(sym).real)
    if overlap <= ATOL:
        raise ValueError(
            f"projectors are orthogonal: tr(pa pb) = {overlap:.3g} is within tolerance "
            f"{ATOL:g}; simultaneous assignment is undefined"
        )
    return sym / overlap


@dataclass(frozen=True, eq=False)
class JointQuasiDistribution:
    """Real joint quasi-probability table over two measurement bases.

    Rows follow the outcomes of the first basis, columns those of the second.
    Both marginals reproduce the single-basis Born distributions; entries may
    be negative. A table that is not two-dimensional raises.
    """

    q: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q)
        if q.ndim != 2:
            raise ValueError(f"quasi-probability table must be a matrix, got shape {q.shape}")
        if np.iscomplexobj(q):  # a real table within ATOL reads as its real part
            _check_distance("quasi-probability table is not real: max|Im q|", q.imag, 0.0)
        q = np.array(q.real, dtype=float)  # a copy, so a caller's array stays writable
        q.setflags(write=False)
        object.__setattr__(self, "q", q)

    @np.errstate(over="ignore", invalid="ignore")  # an overflowing sum reads as inf or NaN
    def marginal_a(self) -> np.ndarray:
        return self.q.sum(axis=1)

    @np.errstate(over="ignore", invalid="ignore")
    def marginal_b(self) -> np.ndarray:
        return self.q.sum(axis=0)

    @np.errstate(over="ignore", invalid="ignore")
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

    dist is a JointQuasiDistribution or a real array of any shape. Entries in
    [-ATOL, 0) are rounding noise of a nonnegative table and count as zero. A
    non-finite entry, or an imaginary part beyond ATOL, raises.
    """
    if not isinstance(dist, JointQuasiDistribution):  # one row: no marginal is read
        dist = JointQuasiDistribution(np.reshape(dist, (1, -1)))
    q = dist.q
    if not np.isfinite(q).all():
        raise ValueError("quasi-probability table has non-finite entries")
    with np.errstate(over="ignore"):  # overflow reads as inf, rejected
        total = np.abs(q[q < -ATOL]).sum()
    if not np.isfinite(total):
        raise ValueError("negativity overflows a double")
    return float(total)
