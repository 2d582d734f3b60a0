"""Dense complex linear algebra used throughout the package.

The batched Uhlmann fidelity and its cotangent (one matrix path for
every d), the eigenvalue floor it applies, and the density-matrix check
of state ensembles.  The matrix path (:class:`UhlmannFidelity`) makes
every product with sqrt(o) a float64 product against a real 2d x 2d
form of sqrt(o), made once: the complex stacked products of numpy cost
several times the float ones at these sizes.  The eigenvalue floor,
64 * d * eps of the largest eigenvalue, sits clear of rounding noise, so
the loss does not jump between nearby angles.
"""

from __future__ import annotations

import numpy as np

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_EIG_FLOOR = -1e-10
FIDELITY_BAND = 1e-8
EPS = np.finfo(float).eps
EIGENVALUE_FLOOR = 64 * EPS  # per dimension, relative to the largest eigenvalue


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
    top = np.maximum(w[..., -1:], 0.0)
    return np.where(w > EIGENVALUE_FLOOR * w.shape[-1] * top, w, 0.0)


class UhlmannFidelity:
    """Uhlmann fidelities of recovered batches against fixed (N, d, d)
    originals, for any d.

    The square roots S of the originals are precomputed once, as the
    real (N, 2d, 2d) form of :func:`real_form`, and a single batched
    eigh per call gives both the fidelities and their cotangent, with
    rounding-level eigenvalues zeroed by :func:`floor_eigenvalues`.
    """

    def __init__(self, originals: np.ndarray):
        self.dim = originals.shape[-1]
        w, v = np.linalg.eigh(originals)
        w = floor_eigenvalues(w)
        sqrts = (v * np.sqrt(w)[..., None, :]) @ _adjoint(v)
        self._real_sqrts = real_form(sqrts)
        eye = np.eye(self.dim)
        self._read_off = np.vstack([real_form(eye), real_form(-1j * eye)])

    def evaluate(self, recovered: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(..., N, d, d) recovered states a -> (..., N) fidelities F and the
        Hermitian Q with dF = Tr(Q da) per state.

        With S = sqrt(o) and X = S a S, Q = sqrt(F) S X^(-1/2) S, where
        X^(-1/2) is a pseudo-inverse: eigenvalues zeroed by the floor
        contribute nothing.  Every product with S is one float64 product
        of a float view against S's real form: Y = a S, X = Y^H S (as S
        and a are Hermitian), and after eigh(X) = (w, V), Z = V^H S and
        Q = Z^H diag(sqrt(F / w)) Z, read off the real Gram matrix of Z's
        float view by one more float product.  A fidelity outside
        [-1e-8, 1 + 1e-8] means invalid inputs and raises; the rest are
        clamped to [0, 1].  An empty batch gives empty arrays.
        """
        a = np.asarray(recovered, dtype=complex)
        if a.strides[-1] != a.itemsize:  # a float view needs a unit-stride last axis
            a = a.copy()
        real_sqrts = self._real_sqrts
        y = (a.view(float) @ real_sqrts).view(complex)  # a S
        # eigh reads one triangle, so X needs no symmetrizing
        w, v = np.linalg.eigh((_adjoint(y).view(float) @ real_sqrts).view(complex))
        roots = np.sqrt(floor_eigenvalues(w))
        total = roots.sum(axis=-1)
        scale = np.divide(  # sqrt(F) / sqrt(w)
            total[..., None], roots, out=np.zeros_like(roots), where=roots > 0.0
        )
        z = _adjoint(v).view(float) @ real_sqrts  # V^H S as floats
        # Gram rows 2i, 2i + 1 sum Re Z_ki and Im Z_ki times scale_k Z_k over
        # k; as conj(Z_ki) = Re - i Im, [I; real form of -i] adds them into Q_i
        gram = z.swapaxes(-1, -2) @ (z * scale[..., None])
        cotangent = gram.reshape(-1, 4 * self.dim) @ self._read_off
        fid = total**2
        if fid.size:  # an empty batch has no range to check
            check_fidelity_band(fid.min(), fid.max())
        fid = np.minimum(np.maximum(fid, 0.0), 1.0)
        return fid, cotangent.view(complex).reshape(a.shape)


def real_form(s: np.ndarray) -> np.ndarray:
    """(..., d, d) complex S -> (..., 2d, 2d) float R with
    ``(A @ S).view(float) == A.view(float) @ R`` for complex A whose last
    axis has unit stride.

    Block (r, c) of R is [[Re S_rc, Im S_rc], [-Im S_rc, Re S_rc]]: row
    2r + p of R takes the real (p = 0) or imaginary (p = 1) part of
    A[:, r] to the interleaved real and imaginary parts of column c.
    """
    d = s.shape[-1]
    blocks = np.empty((*s.shape[:-2], d, 2, d, 2))
    blocks[..., 0, :, 0] = blocks[..., 1, :, 1] = s.real
    blocks[..., 0, :, 1] = s.imag
    blocks[..., 1, :, 0] = -s.imag
    return blocks.reshape(*s.shape[:-2], 2 * d, 2 * d)


def _adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transposes of (..., d, d) matrices, C-contiguous."""
    return np.conjugate(m.swapaxes(-1, -2), order="C")


def check_fidelity_band(low: float, high: float) -> None:
    """ValueError unless fidelities from ``low`` to ``high`` all lie in
    [-1e-8, 1 + 1e-8], the band that valid inputs round into."""
    if low < -FIDELITY_BAND or high > 1.0 + FIDELITY_BAND:
        raise ValueError(
            f"fidelity outside [0, 1] beyond tolerance: range [{low}, {high}]"
        )


def uhlmann_fidelity(rho_a, rho_b) -> float | np.ndarray:
    """Uhlmann fidelity F = (Tr sqrt(sqrt(a) b sqrt(a)))^2 of each pair.

    ``rho_a`` and ``rho_b`` are (..., d, d) arrays of the same shape;
    pair i is (a[i], b[i]).  Returns a float for one pair of d x d
    matrices, otherwise an array over the leading axes.  Both arguments
    must be density matrices (finite, Hermitian, unit trace, PSD; see
    :func:`validate_density_matrix`), else ValueError names the first
    bad state.  Symmetric in its arguments up to rounding; computed by
    :class:`UhlmannFidelity` for every d.
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
