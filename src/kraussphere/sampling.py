"""Reproducible random mixed-state ensembles.

Three measures are available:

- ``bloch_ball_uniform``: single-qubit states uniform over the Bloch
  ball volume;
- ``hilbert_schmidt``: rho ~ G G†, trace-normalized, with G a square
  complex Ginibre matrix (Zyczkowski & Sommers, J. Phys. A 34, 7111,
  2001); the two-qubit acceptance runs use this ensemble;
- ``bures``: the Ginibre + Haar-unitary construction
  rho ~ (I + U) G G† (I + U)†, trace-normalized (Osipov, Sommers &
  Zyczkowski, J. Phys. A 43, 055302, 2010).

All randomness flows through numpy's counter-based Philox bit generator,
so a given (seed, count, dim) reproduces the same ensemble exactly on a
platform.  Each sampler returns one (count, dim, dim) array, drawn in a
single batch: per sample the Ginibre matrix comes first, then (Bures
only) the Gaussian matrix that is orthonormalized into the Haar unitary,
so the stream is the one a state-by-state loop would read.  The command
line writes states to disk with the bytes of
:func:`geometry.matrices_to_pairs` through ``json``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SAMPLE_MEASURES = ("bloch_ball_uniform", "hilbert_schmidt", "bures")


def philox_rng(seed: int) -> np.random.Generator:
    """Counter-based generator behind every random draw in the package."""
    return np.random.Generator(np.random.Philox(seed))


def sample_bloch_ball(seed: int, count: int) -> np.ndarray:
    """(count, 2, 2) mixed qubit states (I + r . sigma) / 2 uniform over
    the ball volume.

    Direction is uniform on the sphere; the radius is u^(1/3) with u
    uniform, which makes the density uniform in volume.
    """
    rng = _ensemble_rng(seed, count, 2)
    directions = rng.normal(size=(count, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    radii = rng.uniform(size=count) ** (1.0 / 3.0)
    x, y, z = (directions * radii[:, None]).T
    states = np.empty((count, 2, 2), dtype=complex)
    states[:, 0, 0], states[:, 0, 1] = 1.0 + z, x - 1j * y
    states[:, 1, 0], states[:, 1, 1] = x + 1j * y, 1.0 - z
    return 0.5 * states


def sample_hilbert_schmidt(seed: int, count: int, dim: int) -> np.ndarray:
    """(count, dim, dim) Hilbert-Schmidt-measure random density matrices
    G G† / Tr G G†."""
    rng = _ensemble_rng(seed, count, dim)
    return _normalized_gram(_ginibre(rng, count, 1, dim)[:, 0])


def sample_bures(seed: int, count: int, dim: int) -> np.ndarray:
    """(count, dim, dim) Bures-measure random density matrices."""
    rng = _ensemble_rng(seed, count, dim)
    g, h = _ginibre(rng, count, 2, dim).swapaxes(0, 1)
    return _normalized_gram((np.eye(dim) + _haar_from_ginibre(h)) @ g)


def _ensemble_rng(seed: int, count: int, dim: int) -> np.random.Generator:
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    return philox_rng(seed)


def _normalized_gram(a: np.ndarray) -> np.ndarray:
    """A A† / Tr A A† for a stack of matrices, symmetrized against the last
    rounding asymmetry."""
    rho = a @ a.conj().swapaxes(-1, -2)
    rho /= np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]
    return (rho + rho.conj().swapaxes(-1, -2)) / 2.0


def _ginibre(rng: np.random.Generator, count: int, per_state: int, dim: int):
    """(count, per_state, dim, dim) complex Ginibre matrices, each drawn as
    its real then its imaginary part, state after state."""
    parts = rng.normal(size=(count, per_state, 2, dim, dim))
    return parts[:, :, 0] + 1j * parts[:, :, 1]


def _haar_from_ginibre(g: np.ndarray) -> np.ndarray:
    """Q of the QR decomposition of each Ginibre matrix, with the phase
    convention that makes the diagonal of the triangular factor
    real-positive, which is what makes QR output Haar-distributed."""
    q, r = np.linalg.qr(g)
    phases = np.diagonal(r, axis1=-2, axis2=-1).copy()
    phases /= np.abs(phases)
    return q * phases[..., None, :]


@dataclass
class SampleConfig:
    """Which ensemble to draw: measure, size, and seed."""

    n_qubits: int
    count: int
    seed: int
    measure: str

    def __post_init__(self):
        if self.measure not in SAMPLE_MEASURES:
            raise ValueError(
                f"unknown measure {self.measure!r}; expected one of {SAMPLE_MEASURES}"
            )
        if self.measure == "bloch_ball_uniform" and self.n_qubits != 1:
            raise ValueError("bloch_ball_uniform sampling is single-qubit only")
        if self.n_qubits < 1 or self.count < 1:
            raise ValueError(
                f"need n_qubits >= 1 and count >= 1, got {self.n_qubits}, {self.count}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        # count * 4^n complex entries of 16 bytes, checked without forming 4^n
        largest = np.iinfo(np.intp).max
        if self.count * 16 > largest >> (2 * self.n_qubits):
            raise ValueError(
                f"sample.count {self.count} of {self.n_qubits}-qubit states "
                f"needs more than the {largest} bytes any array can hold"
            )

    @property
    def dim(self) -> int:
        return 2**self.n_qubits

    def draw(self, seed: int | None = None) -> np.ndarray:
        """Draw the (count, dim, dim) ensemble, optionally overriding the
        configured seed."""
        seed = self.seed if seed is None else seed
        if self.measure == "bloch_ball_uniform":
            return sample_bloch_ball(seed, self.count)
        if self.measure == "hilbert_schmidt":
            return sample_hilbert_schmidt(seed, self.count, self.dim)
        return sample_bures(seed, self.count, self.dim)
