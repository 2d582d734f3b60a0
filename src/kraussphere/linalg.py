"""Dense complex linear algebra used throughout the package.

Hermitian eigendecomposition, PSD matrix square roots, Uhlmann fidelity,
and a power-series matrix exponential kept around as an independent
reference for the closed-form frame transformations.
"""

from __future__ import annotations

import numpy as np

HERMITICITY_TOL = 1e-8
PSD_EIG_FLOOR = -1e-10
FIDELITY_BAND = 1e-8
EPS = np.finfo(float).eps


def hermitian_eig(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(w, v)`` with eigenvalues ``w`` ascending and eigenvectors
    as the columns of ``v``, so that ``matrix = v @ diag(w) @ v†``.

    Raises:
        ValueError: if the input is not square or deviates from
            Hermiticity by more than 1e-8 (max entrywise).
    """
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    deviation = float(np.max(np.abs(a - a.conj().T)))
    if deviation > HERMITICITY_TOL:
        raise ValueError(
            f"matrix is not Hermitian: max |A - A^dagger| = {deviation:.3e}"
        )
    return np.linalg.eigh(a)


def psd_sqrt(rho: np.ndarray) -> np.ndarray:
    """Hermitian square root of a positive semidefinite matrix.

    Eigenvalues under :func:`floor_eigenvalues` are treated as rounding
    noise and zeroed before the square root; one below -1e-10 raises.
    """
    w, v = hermitian_eig(rho)
    if w[0] < PSD_EIG_FLOOR:
        raise ValueError(f"matrix is not PSD: smallest eigenvalue {w[0]:.3e}")
    return (v * np.sqrt(floor_eigenvalues(w))) @ v.conj().T


def floor_eigenvalues(w: np.ndarray) -> np.ndarray:
    """Zero the eigenvalues at or below d * eps * (largest eigenvalue).

    Works along the last axis of ``w``, which holds the d eigenvalues of
    a PSD matrix.  Eigenvalues at that level are rounding noise: a pure
    state's zero eigenvalues come out near 1e-17, and their square roots
    (~3e-9 each) would otherwise push its fidelities past 1 + 1e-8.
    """
    w = np.asarray(w, dtype=float)
    top = np.clip(np.max(w, axis=-1, keepdims=True), 0.0, None)
    return np.where(w > w.shape[-1] * EPS * top, w, 0.0)


def qubit_dets(rho: np.ndarray) -> np.ndarray:
    """Determinants of (..., 2, 2) PSD matrices under the same floor.

    The smaller eigenvalue is det / top with top the larger one, so the
    determinant is zeroed exactly where floor_eigenvalues would zero the
    smaller eigenvalue.
    """
    det = (rho[..., 0, 0] * rho[..., 1, 1] - rho[..., 0, 1] * rho[..., 1, 0]).real
    half = (rho[..., 0, 0] + rho[..., 1, 1]).real / 2.0
    top = half + np.sqrt(np.clip(half**2 - det, 0.0, None))
    return np.where(det > 2.0 * EPS * top**2, det, 0.0)


def uhlmann_fidelity(rho_a: np.ndarray, rho_b: np.ndarray) -> float:
    """Uhlmann fidelity F = (Tr sqrt(sqrt(a) b sqrt(a)))^2.

    Symmetric in its arguments and clamped to [0, 1]; a value outside
    [-1e-8, 1 + 1e-8] indicates invalid inputs and raises instead of
    being clamped.
    """
    a = np.asarray(rho_a, dtype=complex)
    b = np.asarray(rho_b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    root = psd_sqrt(a)
    inner = root @ b @ root
    # symmetrize before eigvalsh: inner is Hermitian up to rounding
    w = floor_eigenvalues(np.linalg.eigvalsh((inner + inner.conj().T) / 2.0))
    fid = float(np.sum(np.sqrt(w)) ** 2)
    return clamp_fidelity(fid)


def clamp_fidelity(value: float) -> float:
    """Clamp a fidelity to [0, 1], allowing only rounding-level excess."""
    if value < -FIDELITY_BAND or value > 1.0 + FIDELITY_BAND:
        raise ValueError(f"fidelity {value!r} outside [0, 1] beyond tolerance")
    return min(max(value, 0.0), 1.0)


def matrix_exp_series(generator: np.ndarray, theta: float) -> np.ndarray:
    """exp(theta * generator) via scaling and squaring of the Taylor series.

    Reference implementation, independent of any closed form: the series
    is summed until the next term is negligible at relative 1e-16, far
    inside the 1e-12 contract.
    """
    a = np.asarray(generator, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    a = theta * a
    scale = float(np.linalg.norm(a, ord=np.inf))
    if not np.isfinite(scale):
        raise ValueError("non-finite entries in theta * generator")
    # halve until the norm is <= 0.5 so the series converges fast
    squarings = max(0, int(np.ceil(np.log2(scale / 0.5)))) if scale > 0.5 else 0
    a /= 2.0**squarings
    result = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    k = 1
    while True:
        term = term @ a / k
        result = result + term
        if np.max(np.abs(term)) <= 1e-16 * np.max(np.abs(result)):
            break
        k += 1
    for _ in range(squarings):
        result = result @ result
    return result


def validate_density_matrix(
    rho: np.ndarray,
    hermiticity_tol: float = 1e-10,
    trace_tol: float = 1e-10,
    eig_floor: float = PSD_EIG_FLOOR,
) -> None:
    """Raise ValueError unless rho is a valid density matrix.

    Checks Hermiticity, unit trace, and eigenvalues >= the rounding floor.
    """
    a = np.asarray(rho, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    herm = float(np.max(np.abs(a - a.conj().T)))
    if herm > hermiticity_tol:
        raise ValueError(f"not Hermitian: max |A - A^dagger| = {herm:.3e}")
    trace = complex(np.trace(a))
    if abs(trace - 1.0) > trace_tol:
        raise ValueError(f"trace {trace} is not 1 within {trace_tol}")
    smallest = float(np.linalg.eigvalsh(a)[0])
    if smallest < eig_floor:
        raise ValueError(f"not PSD: smallest eigenvalue {smallest:.3e}")
