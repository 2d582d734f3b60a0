"""Constraint-preserving frame transformations in the two-coordinate chart.

Stacking a channel's Kraus operators gives the md x d isometry
W = [K^1; ...; K^m], whose columns are the complex forms of the frame
vectors of :mod:`geometry` (W[a*d + k, i] = K^a[k, i]).  The rotations of
frame space that keep unit length, orthogonality and the symplectic
pairing are exactly the unitaries of U(md) acting on W from the left.
Each basis generator of their traceless part acts on just two complex
coordinates j < k, as a 2 x 2 anti-Hermitian block J with J^2 = -I:
i(E_jk + E_kj), E_jk - E_kj, or i(E_jj - E_{j+1,j+1}).  The exponential
series therefore collapses to the closed form

    U(theta) = I + (cos(theta) - 1) * P + sin(theta) * J,   P = -J^2,

a Givens-type two-mode rotation that updates two rows of W.  Embedded in
the interleaved real layout, each block is a dense 2md x 2md real
generator commuting with the symplectic form; that dense chart is the
reference the tests check this one against.  Composing one transform
per nonzero angle, lowest index first, and applying the product to the
identity channel parameterizes the CPTP channels by a real angle vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .geometry import (
    KrausFrame,
    KrausSet,
    frame_to_kraus,
    identity_frame,
    operator_stack_to_vectors,
    vectors_to_operator_stack,
)

_SYMMETRIC = np.array([[0.0, 1j], [1j, 0.0]])
_ANTISYMMETRIC = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
_DIAGONAL = np.array([[1j, 0.0], [0.0, -1j]])
_IDENTITY = np.eye(2)
for _block in (_SYMMETRIC, _ANTISYMMETRIC, _DIAGONAL, _IDENTITY):
    _block.setflags(write=False)  # shared by every generator of a kind


@dataclass
class Generator:
    """One basis generator of the allowed infinitesimal transformations.

    ``matrix`` is the 2 x 2 anti-Hermitian block acting on the complex
    coordinates ``j < k`` of frame vectors of real length ``dim``; it
    squares to -I.  ``projector`` caches -matrix @ matrix (the 2 x 2
    identity), the idempotent of the closed-form exponential, and
    ``pair`` the row indices (j, k) of the md x d frame rows.
    """

    dim: int
    j: int
    k: int
    matrix: np.ndarray
    projector: np.ndarray = field(init=False)
    pair: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        if self.matrix.shape != (2, 2):
            raise ValueError(
                f"generator block shape {self.matrix.shape}, expected (2, 2)"
            )
        if not 0 <= self.j < self.k < self.dim // 2:
            raise ValueError(
                f"coordinates ({self.j}, {self.k}) outside 0 <= j < k < {self.dim // 2}"
            )
        self.projector = -(self.matrix @ self.matrix)
        self.pair = np.array([self.j, self.k])


def generator_basis(dim: int) -> list[Generator]:
    """Deterministic generator basis for frame vectors of length ``dim``.

    On the dim/2 complex coordinates: for each pair j < k the
    symmetric-imaginary element i(E_jk + E_kj) and the antisymmetric-real
    element E_jk - E_kj (each group in lexicographic (j, k) order),
    followed by the diagonal elements i(E_jj - E_{j+1,j+1}).  Returns
    (dim/2)^2 - 1 generators in exactly that order.
    """
    if dim % 2 != 0:
        raise ValueError(f"frame vector dimension must be even, got {dim}")
    n = dim // 2
    if n < 2:
        raise ValueError(
            f"dimension {dim} has no traceless generators (need dim >= 4)"
        )
    pairs = [(j, k) for j in range(n) for k in range(j + 1, n)]
    return (
        [Generator(dim, j, k, _SYMMETRIC) for j, k in pairs]
        + [Generator(dim, j, k, _ANTISYMMETRIC) for j, k in pairs]
        + [Generator(dim, j, j + 1, _DIAGONAL) for j in range(n - 1)]
    )


def generator_pairings(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Re Tr(left^† J_a right) for every J_a of generator_basis, in its order.

    ``left`` and ``right`` are (md, rows) complex arrays; in the dense
    real chart this is <J_a, L^T R> for their interleaved real forms.
    With Z = left right^†, the pairings are Im(Z_jk + Z_kj), then
    Re(Z_jk - Z_kj) for j < k, then Im(Z_jj - Z_{j+1,j+1}): every
    generator from one md x md product.
    """
    z = left @ right.conj().T
    jk, kj = _pair_offsets(z.shape[0])
    flat = z.ravel()
    upper, lower, diag = flat.take(jk), flat.take(kj), np.diagonal(z)
    return np.concatenate(
        [(upper + lower).imag, (upper - lower).real, (diag[:-1] - diag[1:]).imag]
    )


@lru_cache
def _pair_offsets(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat offsets of entries (j, k) and (k, j) of an n x n matrix, for the
    pairs j < k in generator_basis order."""
    j, k = np.triu_indices(n, 1)
    offsets = j * n + k, k * n + j
    for array in offsets:
        array.setflags(write=False)  # shared by every caller
    return offsets


def finite_transform(gen: Generator, theta: float) -> np.ndarray:
    """The 2 x 2 unitary I + (cos(theta) - 1) P + sin(theta) J.

    It acts on coordinates (gen.j, gen.k) and is exactly exp(theta J)
    because J^3 = -J; embedded in the real chart it is orthogonal and
    preserves the symplectic form for every angle.
    """
    return (
        _IDENTITY
        + (math.cos(theta) - 1.0) * gen.projector
        + math.sin(theta) * gen.matrix
    )


def forward_sweep(
    basis: list[Generator], angles: np.ndarray, rows: np.ndarray
) -> list[np.ndarray]:
    """Apply the transforms of the nonzero angles to ``rows``, lowest first.

    ``rows`` is an (md, d) complex frame, updated in place two rows at a
    time; zero angles are identity factors and are skipped.  Returns the
    2 x 2 unitaries in the order they were applied.
    """
    unitaries = []
    for a in np.flatnonzero(angles):
        gen = basis[a]
        u = finite_transform(gen, angles[a])
        rows[gen.pair] = u @ rows[gen.pair]
        unitaries.append(u)
    return unitaries


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
    if not np.all(np.isfinite(angles)):
        raise ValueError("angles must be finite")
    if not np.any(angles):
        return KrausFrame(d=frame.d, m=frame.m, vectors=frame.vectors.copy())
    d, m = frame.d, frame.m
    rows = vectors_to_operator_stack(frame.vectors, d, m).reshape(m * d, d)
    forward_sweep(basis, angles, rows)
    vectors = operator_stack_to_vectors(rows.reshape(m, d, d))
    return KrausFrame(d=d, m=m, vectors=vectors)


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
