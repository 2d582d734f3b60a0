"""Dense complex linear algebra used throughout the package.

The batched Uhlmann fidelity and its cotangent (the package's only
fidelity code), the eigenvalue floor it applies, and the density-matrix
check of state ensembles.  For qubits the fidelity is a closed form on
the four flat entries of each state: the overlap is one dot product
with the originals' entries in transposed order, and the adjugate a
permutation and sign flip of the entries, so no per-call trace, eye or
matrix product is made.  The eigenvalue floor, 64 * d * eps of the
largest eigenvalue, sits clear of rounding noise, so the loss does not
jump between nearby angles.
"""

from __future__ import annotations

import numpy as np

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_EIG_FLOOR = -1e-10
FIDELITY_BAND = 1e-8
EPS = np.finfo(float).eps
EIGENVALUE_FLOOR = 64 * EPS  # per dimension, relative to the largest eigenvalue
_ADJUGATE_SIGNS = np.array([1.0, -1.0, -1.0, 1.0])


def floor_eigenvalues(w: np.ndarray) -> np.ndarray:
    """Zero the eigenvalues at or below 64 * d * eps * (largest eigenvalue).

    Works along the last axis of ``w``, which must hold the d eigenvalues
    of a PSD matrix in ascending order, as ``eigh`` returns them, so the
    largest is the last.  Eigenvalues at that level are rounding noise: a
    pure state's zero eigenvalues come out near 1e-17, and their square roots
    (~3e-9 each) would otherwise push its fidelities past 1 + 1e-8.  The
    noise eigenvalues of sqrt(o) a sqrt(o) for a pure o or a reach
    ~4e-16 * top, so a floor of d * eps * top would keep some and zero
    others, and the loss would jump by ~1e-8 between nearby angles; the
    factor 64 puts the floor clear of that noise.
    """
    w = np.asarray(w, dtype=float)
    top = np.clip(w[..., -1:], 0.0, None)
    return np.where(w > EIGENVALUE_FLOOR * w.shape[-1] * top, w, 0.0)


def qubit_dets(rho: np.ndarray) -> np.ndarray:
    """Determinants of (..., 2, 2) PSD matrices under the same floor.

    The smaller eigenvalue is det / top with top the larger one, so the
    determinant is zeroed exactly where floor_eigenvalues would zero the
    smaller eigenvalue.
    """
    det = (rho[..., 0, 0] * rho[..., 1, 1] - rho[..., 0, 1] * rho[..., 1, 0]).real
    half = (rho[..., 0, 0] + rho[..., 1, 1]).real / 2.0
    top = half + np.sqrt(np.clip(half**2 - det, 0.0, None))
    return np.where(det > EIGENVALUE_FLOOR * 2.0 * top**2, det, 0.0)


class UhlmannFidelity:
    """Uhlmann fidelities of recovered batches against fixed (N, d, d)
    originals.

    For qubits the closed form Tr(a o) + 2 sqrt(det a det o) avoids any
    per-call eigendecomposition; otherwise the square roots of the
    originals are precomputed once and a single batched eigh per call
    gives both the fidelities and their cotangent.  Both paths zero
    rounding-level eigenvalues with :func:`floor_eigenvalues`.
    """

    def __init__(self, originals: np.ndarray):
        self.originals = originals
        self.dim = originals.shape[-1]
        if self.dim == 2:
            self._dets = qubit_dets(originals)
            # Tr(a o) is the dot product of a's entries with o's, transposed
            self._transposed = originals.swapaxes(-1, -2).reshape(-1, 4)
        else:
            w, v = np.linalg.eigh(originals)
            w = floor_eigenvalues(w)
            self._sqrts = (v * np.sqrt(w)[..., None, :]) @ v.conj().swapaxes(-1, -2)

    def evaluate(self, recovered: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(..., N, d, d) recovered states a -> (..., N) fidelities F and the
        Hermitian Q with dF = Tr(Q da) per state.

        Qubits: Q = o + sqrt(det o / det a) adj(a), the square-root term
        dropped where det a is zero.  General d: with X = sqrt(o) a
        sqrt(o), Q = sqrt(F) sqrt(o) X^(-1/2) sqrt(o), where X^(-1/2) is a
        pseudo-inverse: eigenvalues zeroed by the floor contribute nothing.
        A fidelity outside [-1e-8, 1 + 1e-8] means invalid inputs and
        raises; the rest are clamped to [0, 1].  An empty batch gives
        empty arrays.
        """
        if self.dim == 2:
            a = recovered.reshape(*recovered.shape[:-2], 4)  # a00 a01 a10 a11
            dets = qubit_dets(recovered)
            overlap = np.einsum("...i,...i->...", a, self._transposed).real
            fid = overlap + 2.0 * np.sqrt(dets * self._dets)
            ratio = np.divide(
                self._dets, dets, out=np.zeros_like(dets), where=dets > 0.0
            )
            adj = a[..., [3, 1, 2, 0]] * _ADJUGATE_SIGNS  # (a11, -a01, -a10, a00)
            scaled = (np.sqrt(ratio)[..., None] * adj).reshape(recovered.shape)
            cotangent = self.originals + scaled
        else:
            # eigh reads one triangle, so X needs no symmetrizing
            w, v = np.linalg.eigh(self._sqrts @ recovered @ self._sqrts)
            roots = np.sqrt(floor_eigenvalues(w))
            total = roots.sum(axis=-1)
            fid = total**2
            scale = np.divide(  # sqrt(F) X^(-1/2)
                total[..., None], roots, out=np.zeros_like(roots), where=roots > 0.0
            )
            rotated = self._sqrts @ v
            adjoint = rotated.conj().swapaxes(-1, -2)
            cotangent = (rotated * scale[..., None, :]) @ adjoint
        if fid.size:  # an empty batch has no range to check
            low, high = fid.min(), fid.max()
            if low < -FIDELITY_BAND or high > 1.0 + FIDELITY_BAND:
                raise ValueError(
                    f"fidelity outside [0, 1] beyond tolerance: range [{low}, {high}]"
                )
        return np.clip(fid, 0.0, 1.0), cotangent


def uhlmann_fidelity(rho_a, rho_b) -> float | np.ndarray:
    """Uhlmann fidelity F = (Tr sqrt(sqrt(a) b sqrt(a)))^2 of each pair.

    ``rho_a`` and ``rho_b`` are (..., d, d) arrays of the same shape;
    pair i is (a[i], b[i]).  Returns a float for one pair of d x d
    matrices, otherwise an array over the leading axes.  Both arguments
    must be density matrices (finite, Hermitian, unit trace, PSD; see
    :func:`validate_density_matrix`), else ValueError names the first
    bad state.  Symmetric in its arguments up to rounding; computed by
    :class:`UhlmannFidelity`, the class the learner's loss uses.
    """
    a = np.asarray(rho_a, dtype=complex)
    b = np.asarray(rho_b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    validate_density_matrix(a)
    validate_density_matrix(b)
    d = a.shape[-1]
    fid, _ = UhlmannFidelity(a.reshape(-1, d, d)).evaluate(b.reshape(-1, d, d))
    return float(fid[0]) if a.ndim == 2 else fid.reshape(a.shape[:-2])


def validate_density_matrix(rho: np.ndarray) -> None:
    """Raise ValueError unless every (..., d, d) matrix is a density matrix.

    Checks finite entries, Hermiticity (max |A - A^dagger| <= 1e-10),
    unit trace (within 1e-10), and eigenvalues >= the -1e-10 floor.  One
    error names the first bad matrix (its index when there are leading
    axes) and its first failed check.
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
            herm > HERMITICITY_TOL,
            lambda i: f"not Hermitian: max |A - A^dagger| = {herm[i]:.3e}",
        ),
        (
            np.abs(trace - 1.0) > TRACE_TOL,
            lambda i: f"trace {trace[i]} is not 1 within {TRACE_TOL}",
        ),
        (
            smallest < PSD_EIG_FLOOR,
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
