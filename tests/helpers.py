"""Shared random-object generators for the property tests, and the JSON form
of a matrix for state files."""

import numpy as np

from subens import basis_from_kets


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (a + a.conj().T)


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_unitary(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(a)
    return q


def random_basis(rng, dim):
    q = random_unitary(rng, dim)
    return basis_from_kets([q[:, k] for k in range(dim)])


def matrix_to_json(m):
    """A complex matrix as the rows of [re, im] pairs that a state file holds."""
    m = np.asarray(m, dtype=complex)
    return np.stack((m.real, m.imag), axis=-1).tolist()
