import numpy as np
import pytest

from kraussphere import angle_count, channel_from_angles, generator_basis


def random_density(rng, dim):
    """Full-rank random density matrix (Ginibre, trace-normalized)."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return (rho + rho.conj().T) / 2.0


def pure_density(rng, dim):
    """Random pure state |v><v| (complex Gaussian direction)."""
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    vec /= np.linalg.norm(vec)
    return np.outer(vec, vec.conj())


def random_hermitian(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2.0


def random_channel(rng, d, m, basis=None, scale=0.7):
    """Random CPTP Kraus set reached by random angles from the identity."""
    angles = rng.normal(0.0, scale, angle_count(d, m))
    return channel_from_angles(d, m, angles, basis=basis)


@pytest.fixture(scope="session")
def basis_16():
    return generator_basis(16)


@pytest.fixture(scope="session")
def basis_8():
    return generator_basis(8)


@pytest.fixture(scope="session")
def basis_4():
    return generator_basis(4)
