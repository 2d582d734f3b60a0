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
array operations; Generator items are made only by iterating it, for
the traced benchmark's byte count.  A sweep makes the rotations of all
its nonzero angles in one batched finite_transform call and applies
each in place to the strided view W[j : k + 1 : k - j] of its two rows,
a basic slice, so no row is copied.  forward_sweep composes the
rotations; reverse_sweep pulls a cotangent and the frame back through
them and returns the exact gradient.  Every generator's pairing
Re Tr(L^† J R) with two frame-shaped arrays is a signed sum of two
entries of L R^† (pairing_offsets gives their offsets), so the reverse
sweep reads a run of zero angles' pairings off one product by two takes.
It reads only those that can be nonzero: a row of the stack [C | W] is
live if it is nonzero when the sweep starts or a nonzero sym or anti
rotation touches it (diagonal rotations are phases and keep a zero row
zero); a zero sym or anti angle needs both of its rows live, a zero
diagonal one either.  reverse_plan lists those angles run by run, from
the live rows alone (its cost grows with their square, not with the
basis); reverse_sweep reads the live rows off its stack and keeps the
plan of the last pattern of nonzero angles and live rows on the basis.
A run with none of them forms no product.  From the identity K^2..K^m
stay zero, and a steady qubit step forms none.
Embedded in the interleaved real layout, each block is a dense
2md x 2md real generator commuting with the symplectic form; that dense
chart is the reference the tests check this one against.  Composing one
transform per nonzero angle, lowest index first, and applying the
product to the identity channel parameterizes the CPTP channels by a
real angle vector.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

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
    read-only.  Items are made only by iterating a GeneratorBasis, for
    the traced benchmark's byte count; the package reads the table.
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


class GeneratorBasis:
    """The generators of generator_basis(dim) as a table.

    Generator ``a`` acts on the frame rows ``pairs[a] = (j, k)`` with the
    block ``blocks[kinds[a]]``; the three blocks are shared by the whole
    basis.  The sweeps and the tests read these arrays; iterating makes
    Generator items, for the traced benchmark only.  ``plan`` is
    reverse_sweep's one mutable entry: the key and reverse_plan of its
    last pattern, so a basis is not meant to be shared across threads.
    """

    blocks = _BLOCKS

    def __init__(self, dim: int, pairs: np.ndarray, kinds: np.ndarray):
        self.dim, self.pairs, self.kinds = dim, pairs, kinds
        self.plan = None, None

    def __len__(self) -> int:
        return len(self.kinds)

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


def pairing_offsets(
    basis: GeneratorBasis, angles
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where the pairings of the generators ``angles`` sit in one product.

    Re Tr(L^† J_a R) for md x rows complex L and R, in the dense real
    chart <J_a, L^T R>, is a sum of two entries of Z = L R^†:
    Im(Z_jk + Z_kj), then Re(Z_jk - Z_kj) for j < k, then
    Im(Z_jj - Z_{j+1,j+1}).  Returns, per generator that ``angles`` (an
    index array or a slice) picks out of ``basis``, the offsets of those
    two entries into the interleaved real and imaginary parts of Z
    (Z.view(float).ravel()) and the sign of the second, so their
    pairings are ``parts.take(first) + sign * parts.take(second)``.
    """
    n = basis.dim // 2
    j, k = basis.pairs[angles].T
    kinds = basis.kinds[angles]
    diagonal = kinds == 2
    imaginary = kinds != 1  # the symmetric and diagonal pairings
    first = 2 * np.where(diagonal, j * n + j, j * n + k) + imaginary
    second = 2 * np.where(diagonal, k * n + k, k * n + j) + imaginary
    sign = np.where(kinds == 0, 1.0, -1.0)
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
) -> tuple[np.ndarray, list, np.ndarray, np.ndarray]:
    """Apply the transforms of the nonzero angles to ``rows``, lowest first.

    ``rows`` is an (md, d) complex frame, updated in place two rows at a
    time; zero angles are identity factors and are skipped.  Rows j < k
    are the basic slice rows[j : k + 1 : k - j], a strided view, so each
    rotation reads them without a fancy-index copy and writes them back
    from one two-row buffer.  Returns, in the order they were applied,
    the indices of the nonzero angles, their row pairs as a list of
    [j, k], their (K, 2, 2) generator blocks and their (K, 2, 2)
    unitaries, made in one finite_transform call, so a reverse sweep
    gathers none of them again.
    """
    nonzero = np.flatnonzero(angles)
    pairs = basis.pairs[nonzero].tolist()
    blocks = basis.blocks[basis.kinds[nonzero]]
    unitaries = finite_transform(blocks, angles[nonzero])
    moved = np.empty((2, rows.shape[1]), dtype=complex)
    for (j, k), u in zip(pairs, unitaries):
        view = rows[j : k + 1 : k - j]
        view[...] = u.dot(view, out=moved)
    return nonzero, pairs, blocks, unitaries


def reverse_plan(basis: GeneratorBasis, nonzero: np.ndarray, live: np.ndarray) -> dict:
    """The zero angles whose pairing a reverse sweep must read, run by run.

    ``nonzero`` holds the nonzero angles (ascending) and ``live`` marks
    the rows that are nonzero in the stack [C | W] when the reverse sweep
    starts.  The rows a nonzero sym or anti rotation touches are live
    too; a diagonal rotation only multiplies its two rows by phases, so
    every other row stays zero through the sweep.  A zero angle's pairing
    reads Z_jk and Z_kj of Z = C W^† (both rows must be live) for a sym
    or anti generator, Z_jj and Z_kk (either row) for a diagonal one; no
    other zero angle can pair to anything but 0.  Returns a dict that
    maps b, the number of nonzero angles below a run of zero angles, to
    that run's candidate angles and their pairing_offsets (first, second,
    sign); a run with no candidate is absent.  The candidates come from
    the live rows by the closed-form rank of (j, k) in generator_basis
    order, so the cost grows with the nonzero angles and the square of
    the live rows, not with the size of the basis.  The sets are small
    and a learn builds a plan only when its pattern changes, so they are
    Python lists: on the general two-qubit ansatz a build from a few
    dozen numpy calls on arrays this size took ~1.5x as long in a fresh
    process and 0.25 MB more peak memory.
    """
    n = basis.dim // 2
    count = n * (n - 1) // 2  # pairs j < k: the size of the sym and of the anti group
    rows = set(np.flatnonzero(live).tolist())
    for (j, k), kind in zip(basis.pairs[nonzero].tolist(), basis.kinds[nonzero].tolist()):
        if kind != 2:  # a sym or anti rotation mixes its rows, a phase does not
            rows.update((j, k))
    rows = sorted(rows)
    # the rank j (2n - j - 3) / 2 + k - 1 of each live pair j < k, ascending
    rank = [j * (2 * n - j - 3) // 2 + k - 1 for i, j in enumerate(rows) for k in rows[i + 1 :]]
    diagonal = sorted({r - 1 for r in rows if r > 0} | {r for r in rows if r < n - 1})
    ordered = nonzero.tolist()
    skip = set(ordered)
    runs = {}
    for a in [*rank, *(r + count for r in rank), *(i + 2 * count for i in diagonal)]:
        if a not in skip:  # keyed by the number of nonzero angles below a
            runs.setdefault(bisect_left(ordered, a), []).append(a)
    for below, angles in runs.items():
        angles = np.array(angles)
        runs[below] = angles, *pairing_offsets(basis, angles)
    return runs


def reverse_sweep(
    basis: GeneratorBasis,
    swept: tuple[np.ndarray, list, np.ndarray, np.ndarray],
    stack: np.ndarray,
) -> np.ndarray:
    """The gradient Re Tr(C_a^† J_a W_a) of every angle a, by the adjoint method.

    ``stack`` is the (md, 2d) complex [C | W] of a cotangent C_n = dL/dW_n
    and the rows W_n that forward_sweep left, and ``swept`` that sweep's
    outputs on ``basis``.  With W_a = U_a W_{a-1}, both move back by
    U_a^†: C_{a-1} = U_a^† C_a, W_{a-1} = U_a^† W_a.  The pull-back is
    exact, so no intermediate frame is stored: at each nonzero angle,
    highest first, its two rows of the stack are pulled back in place
    through the strided view stack[j : k + 1 : k - j] into one buffer.
    U_a commutes with J_a and is unitary, so the pairing is the same
    after the pull-back, and all nonzero angles are paired by one batched
    product after the sweep.  Zero angles are identity factors, so the
    candidates of each run of them that reverse_plan lists, for the
    nonzero angles and the stack's live rows, are read off one md x md
    product Z = C W^† by two takes; every other zero angle is 0.  The
    plan is kept on ``basis`` until the pattern changes.  The stack is
    left as [C_0 | W_0].
    """
    nonzero, pairs, blocks, unitaries = swept
    live = stack.any(axis=1)
    key = nonzero.tobytes(), live.tobytes()
    if basis.plan[0] != key:
        basis.plan = key, reverse_plan(basis, nonzero, live)
    runs = basis.plan[1]
    d = stack.shape[1] // 2
    cotangent, frame = stack[:, :d], stack[:, d:]  # views of the stack
    grad = np.zeros(len(basis))

    def read_run(below: int) -> None:
        if below in runs:
            angles, first, second, sign = runs[below]
            # two takes off Z = C W^† as floats
            parts = (cotangent @ frame.conj().T).view(float).ravel()
            grad[angles] = parts.take(first) + sign * parts.take(second)

    pulled = np.empty((len(pairs), 2, 2 * d), dtype=complex)  # rows j, k
    adjoints = unitaries.conj().swapaxes(-1, -2)
    reverse = enumerate(zip(pairs, adjoints, pulled))
    for below, ((j, k), u_adj, out) in reversed(list(reverse)):
        read_run(below + 1)  # the zero angles above this one
        touched = stack[j : k + 1 : k - j]  # rows j and k, a view
        touched[...] = u_adj.dot(touched, out=out)
    read_run(0)
    # Re Tr(C^† J W) on the two pulled-back rows, for all of them at once
    moved = blocks @ pulled[..., d:]  # J W
    # Re sum conj(c) x sums Re c Re x + Im c Im x over the float views
    paired = pulled[..., :d].view(float) * moved.view(float)
    grad[nonzero] = paired.reshape(len(pairs), 4 * d).sum(axis=1)
    return grad


def apply_angles(angles: np.ndarray, frame: KrausFrame) -> KrausFrame:
    """Transform every frame vector by the composed rotation.

    The angles are those of generator_basis(2 * m * d) for the frame's
    d and m, built here.  With all angles zero the frame is returned
    bit-identical.
    """
    d, m = frame.d, frame.m
    angles = checked_angles(angles, angle_count(d, m))
    rows = vectors_to_operator_stack(frame.vectors).reshape(m * d, d)
    forward_sweep(generator_basis(2 * m * d), angles, rows)
    return KrausFrame(operator_stack_to_vectors(rows.reshape(m, d, d)))


def angle_count(d: int, m: int) -> int:
    """Number of angles parameterizing channels with m Kraus operators."""
    return (m * d) ** 2 - 1


def checked_angles(angles, count: int) -> np.ndarray:
    """``angles`` as a float array, checked to be ``count`` finite angles.

    The one angle-vector check of the package; a wrong shape or a NaN
    or infinite angle raises ValueError.
    """
    angles = np.asarray(angles, dtype=float)
    if angles.shape != (count,):
        raise ValueError(
            f"angle count mismatch: expected {count} angles, got shape {angles.shape}"
        )
    if not np.isfinite(angles).all():
        raise ValueError("angles must be finite")
    return angles


def channel_from_angles(d: int, m: int, angles: np.ndarray) -> KrausSet:
    """CPTP Kraus set reached from the identity channel by ``angles``.

    The forward sweep rotates the rows [I; 0; ...; 0] and the result is
    read as the operator stack, the same arithmetic as
    apply_angles on identity_frame(d, m) without the frame relabeling.
    A result off completeness by more than 1e-6 raises ValueError.
    """
    angles = checked_angles(angles, angle_count(d, m))
    rows = np.eye(m * d, d, dtype=complex)
    forward_sweep(generator_basis(2 * m * d), angles, rows)
    channel = KrausSet(rows.reshape(m, d, d))
    deviation = channel.completeness_deviation()
    if deviation > FRAME_TOL_LOOSE:
        raise ValueError(f"swept channel violates completeness: {deviation:.3e}")
    return channel
