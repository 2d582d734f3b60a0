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

a Givens-type two-mode rotation that updates two rows of W.  The basis
is therefore a table (GeneratorBasis): the row pair (j, k) of every
generator and a kind index into the three shared blocks, built in a few
array operations; Generator items exist only when the table is indexed.
A sweep makes the rotations of all its nonzero angles in one batched
finite_transform call and applies each in place to the strided view
W[j : k + 1 : k - j] of its two rows, a basic slice, so no row is
copied.  Embedded in the interleaved real layout, each block is a dense
2md x 2md real generator commuting with the symplectic form; that dense
chart is the reference the tests check this one against.  Composing one
transform per nonzero angle, lowest index first, and applying the
product to the identity channel parameterizes the CPTP channels by a
real angle vector.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import (
    FRAME_TOL_LOOSE,
    KrausFrame,
    KrausSet,
    operator_stack_to_vectors,
    vectors_to_operator_stack,
)

_BLOCKS = np.array(
    [
        [[0.0, 1j], [1j, 0.0]],  # symmetric-imaginary i(E_jk + E_kj)
        [[0.0, 1.0], [-1.0, 0.0]],  # antisymmetric-real E_jk - E_kj
        [[1j, 0.0], [0.0, -1j]],  # diagonal i(E_jj - E_{j+1,j+1})
    ]
)
_IDENTITY = np.eye(2)
_PROJECTOR = np.eye(2, dtype=complex)  # P = -J^2 of every block above
for _array in (_BLOCKS, _IDENTITY, _PROJECTOR):
    _array.setflags(write=False)  # shared by every generator


@dataclass
class Generator:
    """One basis generator of the allowed infinitesimal transformations.

    ``matrix`` is the 2 x 2 anti-Hermitian block of kind ``kind`` (an
    index into GeneratorBasis.blocks) acting on the complex coordinates
    ``j < k`` of frame vectors of real length ``dim``; it squares to -I.
    ``projector`` is -matrix @ matrix (the 2 x 2 identity), the
    idempotent of the closed-form exponential.  Both are shared and
    read-only; an item is a copy of its row of the basis table.
    """

    dim: int
    j: int
    k: int
    kind: int

    @property
    def matrix(self) -> np.ndarray:
        return _BLOCKS[self.kind]

    @property
    def projector(self) -> np.ndarray:
        return _PROJECTOR


class GeneratorBasis(Sequence):
    """The generators of generator_basis(dim) as a table.

    Generator ``a`` acts on the frame rows ``pairs[a] = (j, k)`` with the
    block ``blocks[kinds[a]]``; the three blocks are shared by the whole
    basis.  Indexing or iterating makes Generator items on demand; the
    sweeps read the arrays.
    """

    blocks = _BLOCKS

    def __init__(self, dim: int, pairs: np.ndarray, kinds: np.ndarray):
        self.dim, self.pairs, self.kinds = dim, pairs, kinds

    def __len__(self) -> int:
        return len(self.kinds)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[a] for a in range(*index.indices(len(self)))]
        j, k = self.pairs[index].tolist()
        return Generator(self.dim, j, k, int(self.kinds[index]))

    def __iter__(self):
        for (j, k), kind in zip(self.pairs.tolist(), self.kinds.tolist()):
            yield Generator(self.dim, j, k, kind)


def generator_basis(dim: int) -> GeneratorBasis:
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
    j, k = np.triu_indices(n, 1)
    diagonal = np.arange(n - 1)
    pairs = np.stack(
        [np.concatenate([j, j, diagonal]), np.concatenate([k, k, diagonal + 1])],
        axis=1,
    )
    kinds = np.repeat(np.arange(3, dtype=np.int8), [len(j), len(j), n - 1])
    for array in (pairs, kinds):
        array.setflags(write=False)
    return GeneratorBasis(dim, pairs, kinds)


def generator_pairings(
    left: np.ndarray, right: np.ndarray, start: int = 0, stop: int | None = None
) -> np.ndarray:
    """Re Tr(left^† J_a right) for the J_a of generator_basis, a in [start, stop).

    ``left`` and ``right`` are (md, rows) complex arrays; in the dense
    real chart this is <J_a, L^T R> for their interleaved real forms.
    With Z = left right^†, the pairings are Im(Z_jk + Z_kj), then
    Re(Z_jk - Z_kj) for j < k, then Im(Z_jj - Z_{j+1,j+1}): every
    generator from one md x md product, each a sum of two entries of
    its real and imaginary parts, read at precomputed offsets.
    """
    z = (left @ right.conj().T).astype(complex, copy=False)
    first, second, sign = _pairing_offsets(z.shape[0])
    part = slice(start, stop)
    parts = z.view(float).ravel()  # Re Z_00, Im Z_00, Re Z_01, ...
    return parts.take(first[part]) + sign[part] * parts.take(second[part])


@lru_cache
def _pairing_offsets(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Offsets into the interleaved real parts of an n x n complex matrix,
    and the sign of the second entry, for each generator of the basis."""
    basis = generator_basis(2 * n)
    j, k = basis.pairs.T
    kinds = basis.kinds
    diagonal = kinds == 2
    imaginary = kinds != 1  # the symmetric and diagonal pairings
    first = 2 * np.where(diagonal, j * n + j, j * n + k) + imaginary
    second = 2 * np.where(diagonal, k * n + k, k * n + j) + imaginary
    sign = np.where(kinds == 0, 1.0, -1.0)
    for array in (first, second, sign):
        array.setflags(write=False)  # shared by every caller
    return first, second, sign


def finite_transform(block: np.ndarray, theta) -> np.ndarray:
    """The 2 x 2 unitaries cos(theta) I + sin(theta) J.

    ``block`` holds generator blocks J, shape (..., 2, 2), and ``theta``
    the matching angles, shape (...).  This is the closed form
    I + (cos(theta) - 1) P + sin(theta) J with P = -J^2, which is the
    2 x 2 identity for every block of the basis.  Each result acts on its
    generator's coordinates (j, k) and is exactly exp(theta J) because
    J^3 = -J; embedded in the real chart it is orthogonal and preserves
    the symplectic form for every angle.
    """
    theta = np.asarray(theta, dtype=float)[..., None, None]
    return np.cos(theta) * _IDENTITY + np.sin(theta) * block


def forward_sweep(
    basis: GeneratorBasis, angles: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Apply the transforms of the nonzero angles to ``rows``, lowest first.

    ``rows`` is an (md, d) complex frame, updated in place two rows at a
    time; zero angles are identity factors and are skipped.  Rows j < k
    are the basic slice rows[j : k + 1 : k - j], a strided view, so each
    rotation reads them without a fancy-index copy and writes them back
    from one two-row buffer.  Returns the indices of the nonzero angles
    and their (K, 2, 2) unitaries, made in one finite_transform call, in
    the order they were applied.
    """
    nonzero = np.flatnonzero(angles)
    unitaries = finite_transform(basis.blocks[basis.kinds[nonzero]], angles[nonzero])
    moved = np.empty((2, rows.shape[1]), dtype=complex)
    for (j, k), u in zip(basis.pairs[nonzero].tolist(), unitaries):
        view = rows[j : k + 1 : k - j]
        view[...] = u.dot(view, out=moved)
    return nonzero, unitaries


def apply_angles(
    basis: GeneratorBasis, angles: np.ndarray, frame: KrausFrame
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
    basis: GeneratorBasis | None = None,
) -> KrausSet:
    """CPTP Kraus set reached from the identity channel by ``angles``.

    The forward sweep rotates the rows [I; 0; ...; 0] and the result is
    read as the operator stack, the same arithmetic as
    apply_angles on identity_frame(d, m) without the frame relabeling.
    ``basis`` may be passed in to avoid rebuilding it across calls; it
    must be generator_basis(2 * m * d).  A result off completeness by
    more than 1e-6 raises ValueError.
    """
    angles = np.asarray(angles, dtype=float)
    expected = angle_count(d, m)
    if angles.shape != (expected,):
        raise ValueError(
            f"expected {expected} angles for d={d}, m={m}, got {angles.shape}"
        )
    if not np.all(np.isfinite(angles)):
        raise ValueError("angles must be finite")
    if basis is None:
        basis = generator_basis(2 * m * d)
    rows = np.eye(m * d, d, dtype=complex)
    forward_sweep(basis, angles, rows)
    channel = KrausSet(d=d, m=m, operators=rows.reshape(m, d, d))
    deviation = channel.completeness_deviation()
    if deviation > FRAME_TOL_LOOSE:
        raise ValueError(f"swept channel violates completeness: {deviation:.3e}")
    return channel
