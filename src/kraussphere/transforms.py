"""Constraint-preserving frame transformations.

The rotations of frame space that also preserve the symplectic pairing
are, under the interleaved real layout, exactly the real embeddings of
unitaries of the halved dimension.  Their generators are embedded
traceless anti-Hermitian matrices; excluding the trace direction drops
the unobservable global phase.  Every basis generator built here
satisfies J^3 = -J, which collapses the exponential series to the
closed form

    M(theta) = I + (cos(theta) - 1) * P + sin(theta) * J,   P = -J^2.

Composing these one-angle transformations and applying them to the
identity-channel frame parameterizes the space of CPTP channels by a
plain real angle vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import KrausFrame, KrausSet, frame_to_kraus, identity_frame


@dataclass
class Generator:
    """One basis element of the allowed infinitesimal transformations.

    ``matrix`` is real antisymmetric, commutes with the symplectic form,
    is trace-orthogonal to it, and cubes to its own negative.
    ``projector`` caches -matrix @ matrix, the idempotent that appears in
    the closed-form exponential.
    """

    dim: int
    matrix: np.ndarray
    projector: np.ndarray = field(init=False)

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=float)
        if self.matrix.shape != (self.dim, self.dim):
            raise ValueError(
                f"generator shape {self.matrix.shape}, expected ({self.dim}, {self.dim})"
            )
        self.projector = -(self.matrix @ self.matrix)


def generator_basis(dim: int) -> list[Generator]:
    """Deterministic generator basis for frame vectors of length ``dim``.

    Identifies R^dim with C^(dim/2) through the interleaved (x, y)
    layout and embeds the standard traceless anti-Hermitian basis: for
    each pair j < k the symmetric-imaginary element i(E_jk + E_kj) and
    the antisymmetric-real element E_jk - E_kj (each group in
    lexicographic (j, k) order), followed by the diagonal elements
    i(E_jj - E_{j+1,j+1}).  Returns (dim/2)^2 - 1 generators in exactly
    that order.
    """
    if dim % 2 != 0:
        raise ValueError(f"frame vector dimension must be even, got {dim}")
    n = dim // 2
    if n < 2:
        raise ValueError(
            f"dimension {dim} has no traceless generators (need dim >= 4)"
        )
    generators = []
    for j in range(n):
        for k in range(j + 1, n):
            h = np.zeros((n, n), dtype=complex)
            h[j, k] = 1j
            h[k, j] = 1j
            generators.append(Generator(dim, _embed_real(h)))
    for j in range(n):
        for k in range(j + 1, n):
            h = np.zeros((n, n), dtype=complex)
            h[j, k] = 1.0
            h[k, j] = -1.0
            generators.append(Generator(dim, _embed_real(h)))
    for j in range(n - 1):
        h = np.zeros((n, n), dtype=complex)
        h[j, j] = 1j
        h[j + 1, j + 1] = -1j
        generators.append(Generator(dim, _embed_real(h)))
    return generators


def generator_pairings(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """<J_a, left^T right> for every J_a of generator_basis(dim), in its order.

    ``left`` and ``right`` are (rows, dim) real arrays in the interleaved
    layout.  With c and f their complex rows and Z = c^T conj(f), the
    pairings are Im(Z_jk + Z_kj), then Re(Z_jk - Z_kj) for j < k, then
    Im(Z_jj - Z_{j+1,j+1}): every generator at once in O(rows * n^2)
    instead of one dense dim x dim product each.
    """
    c = left[:, 0::2] + 1j * left[:, 1::2]
    f = right[:, 0::2] + 1j * right[:, 1::2]
    z = c.T @ f.conj()
    j, k = np.triu_indices(z.shape[0], 1)
    diag = np.diagonal(z)
    return np.concatenate(
        [(z[j, k] + z[k, j]).imag, (z[j, k] - z[k, j]).real, (diag[:-1] - diag[1:]).imag]
    )


def _embed_real(h: np.ndarray) -> np.ndarray:
    """Complex n x n matrix -> real 2n x 2n with [[Re, -Im], [Im, Re]] blocks."""
    n = h.shape[0]
    out = np.zeros((2 * n, 2 * n))
    out[0::2, 0::2] = h.real
    out[0::2, 1::2] = -h.imag
    out[1::2, 0::2] = h.imag
    out[1::2, 1::2] = h.real
    return out


def finite_transform(gen: Generator, theta: float) -> np.ndarray:
    """Finite frame transformation I + (cos(theta) - 1) P + sin(theta) J.

    Orthogonal and symplectic-preserving for every angle; exactly the
    exponential exp(theta J) because J^3 = -J.
    """
    return (
        np.eye(gen.dim)
        + (np.cos(theta) - 1.0) * gen.projector
        + np.sin(theta) * gen.matrix
    )


def compose_transforms(basis: list[Generator], angles: np.ndarray) -> np.ndarray:
    """Product M_n ... M_2 M_1 of the one-angle transformations.

    Factor a is applied first (innermost); zero angles contribute the
    identity and are skipped.
    """
    angles = np.asarray(angles, dtype=float)
    if angles.shape != (len(basis),):
        raise ValueError(
            f"angle count {angles.shape} does not match basis size {len(basis)}"
        )
    if not np.all(np.isfinite(angles)):
        raise ValueError("angles must be finite")
    dim = basis[0].dim if basis else 0
    total = np.eye(dim)
    for gen, theta in zip(basis, angles):
        if theta != 0.0:
            total = finite_transform(gen, theta) @ total
    return total


def apply_angles(
    basis: list[Generator], angles: np.ndarray, frame: KrausFrame
) -> KrausFrame:
    """Transform every frame vector by the composed rotation.

    With all angles zero the frame is returned bit-identical.
    """
    angles = np.asarray(angles, dtype=float)
    if angles.shape != (len(basis),):
        raise ValueError(
            f"angle count {angles.shape} does not match basis size {len(basis)}"
        )
    if np.all(angles == 0.0):
        return KrausFrame(d=frame.d, m=frame.m, vectors=frame.vectors.copy())
    total = compose_transforms(basis, angles)
    return KrausFrame(d=frame.d, m=frame.m, vectors=frame.vectors @ total.T)


def angle_count(d: int, m: int) -> int:
    """Number of angles parameterizing channels with m Kraus operators."""
    return (m * d) ** 2 - 1


def channel_from_angles(
    d: int,
    m: int,
    angles: np.ndarray,
    basis: list[Generator] | None = None,
) -> KrausSet:
    """CPTP Kraus set reached from the identity channel by ``angles``.

    ``basis`` may be passed in to avoid rebuilding it across calls; it
    must be generator_basis(2 * m * d).
    """
    angles = np.asarray(angles, dtype=float)
    expected = angle_count(d, m)
    if angles.shape != (expected,):
        raise ValueError(
            f"expected {expected} angles for d={d}, m={m}, got {angles.shape}"
        )
    if basis is None:
        basis = generator_basis(2 * m * d)
    frame = apply_angles(basis, angles, identity_frame(d, m))
    return frame_to_kraus(frame)
