"""Dense complex linear algebra used throughout the package.

Hermitian eigendecomposition, PSD matrix square roots, Uhlmann fidelity,
and the density-matrix check of state ensembles.
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


def validate_density_matrix(
    rho: np.ndarray,
    hermiticity_tol: float = 1e-10,
    trace_tol: float = 1e-10,
    eig_floor: float = PSD_EIG_FLOOR,
) -> None:
    """Raise ValueError unless every (..., d, d) matrix is a density matrix.

    Checks finite entries, Hermiticity, unit trace, and eigenvalues >=
    the rounding floor.  One error names the first bad matrix (its index
    when there are leading axes) and its first failed check.
    """
    a = np.asarray(rho, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {a.shape}")
    batch, d = a.shape[:-2], a.shape[-1]
    a = a.reshape(-1, d, d)
    finite = np.isfinite(a).all(axis=(1, 2))
    a = np.where(finite[:, None, None], a, np.eye(d) / d)
    herm = np.max(np.abs(a - a.conj().swapaxes(1, 2)), axis=(1, 2))
    trace = np.trace(a, axis1=1, axis2=2)
    if d == 2:  # closed form; spares qubit runs their only LAPACK call
        half = trace.real / 2.0
        det = (a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0]).real
        smallest = half - np.sqrt(np.clip(half**2 - det, 0.0, None))
    else:
        smallest = np.linalg.eigvalsh(a)[:, 0]
    checks = [
        (~finite, lambda i: "has non-finite entries"),
        (
            herm > hermiticity_tol,
            lambda i: f"not Hermitian: max |A - A^dagger| = {herm[i]:.3e}",
        ),
        (
            np.abs(trace - 1.0) > trace_tol,
            lambda i: f"trace {trace[i]} is not 1 within {trace_tol}",
        ),
        (
            smallest < eig_floor,
            lambda i: f"not PSD: smallest eigenvalue {smallest[i]:.3e}",
        ),
    ]
    bad = np.logical_or.reduce([failed for failed, _ in checks])
    if not bad.any():
        return
    i = int(np.argmax(bad))
    message = next(describe(i) for failed, describe in checks if failed[i])
    if batch:
        where = i if len(batch) == 1 else tuple(map(int, np.unravel_index(i, batch)))
        message = f"state {where}: {message}"
    raise ValueError(message)
