import re

import numpy as np
import pytest

from kraussphere import (
    KrausSet,
    angle_count,
    channel_from_angles,
    generator_basis,
    transforms,
)


def exactly(message: str) -> str:
    """A ``pytest.raises`` pattern that matches ``message`` and nothing more."""
    return f"^{re.escape(message)}$"


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


def random_channel(rng, d, m, scale=0.7):
    """Random CPTP Kraus set reached by random angles from the identity."""
    angles = rng.normal(0.0, scale, angle_count(d, m))
    return channel_from_angles(d, m, angles)


def amplitude_damping(gamma):
    """The qubit amplitude-damping channel {[[1, 0], [0, sqrt(1 - gamma)]],
    [[0, sqrt(gamma)], [0, 0]]}: non-unital, so its best recovery is not
    unitary."""
    keep = np.diag([1.0, np.sqrt(1.0 - gamma)])
    decay = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]])
    return KrausSet([keep, decay])


def read_every_row(monkeypatch):
    """Make transforms.reverse_plan take every row of the stack as live,
    so a reverse sweep on a basis with no kept plan reads the candidates
    of every zero run."""
    plan = transforms.reverse_plan

    def every_row(basis, nonzero, live):
        return plan(basis, nonzero, np.ones_like(live))

    monkeypatch.setattr(transforms, "reverse_plan", every_row)


@pytest.fixture(scope="session")
def basis_16():
    return generator_basis(16)

