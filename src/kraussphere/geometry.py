"""Kraus-sphere geometry.

A channel with Kraus operators ``{K^a}`` (each d x d, a = 1..m) is
re-expressed as d real unit vectors of length ``2*m*d``: for column i,
vector ``v_i`` lists the pairs ``(Re K^a[k, i], Im K^a[k, i])`` with the
operator index a outermost and the row index k innermost.  The
symplectic form below relies on the (x, y) adjacency this layout
produces.

Collecting the vectors of all d columns gives a frame.  Unit norm,
mutual Euclidean orthogonality, and mutual symplectic orthogonality of
the frame vectors are together exactly the completeness relation
``sum_a (K^a)† K^a = I``, so valid frames and CPTP Kraus sets are in
bijection.  The frame is the documented equivalence; the package works
on ``KrausSet.operators``, one complex (m, d, d) array.

On disk, Kraus sets and state ensembles share one encoding
(:func:`matrices_to_pairs` / :func:`matrices_from_pairs`): each matrix
is a flat row-major list of ``[re, im]`` pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

COMPLETENESS_TOL = 1e-8
FRAME_TOL_LOOSE = 1e-6


@dataclass
class KrausSet:
    """Ordered set of ``m`` Kraus operators, each ``d x d`` complex, held
    as one (m, d, d) array; a list of matrices converts on construction.
    Operators with NaN or infinite entries raise ValueError naming them."""

    d: int
    m: int
    operators: np.ndarray

    def __post_init__(self):
        if self.d < 1 or self.m < 1:
            raise ValueError(f"invalid dimensions d={self.d}, m={self.m}")
        if self.m > self.d**2:
            raise ValueError(f"m={self.m} exceeds d^2={self.d ** 2}")
        self.operators = np.ascontiguousarray(self.operators, dtype=complex)
        expected = (self.m, self.d, self.d)
        if self.operators.shape != expected:
            raise ValueError(
                f"operators have shape {self.operators.shape}, expected {expected}"
            )
        # NaN fails every tolerance test, so no completeness check would catch it
        finite = np.isfinite(self.operators).all(axis=(1, 2))
        if not finite.all():
            bad = np.flatnonzero(~finite).tolist()
            raise ValueError(f"Kraus operators {bad} have non-finite entries")

    def completeness_deviation(self) -> float:
        """Max entrywise deviation of sum_a (K^a)† K^a from the identity."""
        ops = self.operators
        total = (ops.conj().swapaxes(1, 2) @ ops).sum(axis=0)
        return float(np.max(np.abs(total - np.eye(self.d))))

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "m": self.m,
            "operators": matrices_to_pairs(self.operators),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "KrausSet":
        """Inverse of :meth:`to_dict`; ``d`` and ``m`` must be JSON integers
        that agree with the decoded operators.  A missing field raises
        ValueError naming it."""
        json_value(data, dict, "Kraus set")
        for key in ("d", "m", "operators"):
            if key not in data:
                raise ValueError(f"Kraus set is missing required field {key!r}")
        return cls(
            d=json_value(data["d"], int, "d"),
            m=json_value(data["m"], int, "m"),
            operators=matrices_from_pairs(data["operators"]),
        )


def matrices_to_pairs(matrices) -> list[list[list[float]]]:
    """(count, n, n) complex matrices -> one flat row-major list of
    [re, im] pairs per matrix: the JSON form of Kraus sets and states."""
    matrices = np.ascontiguousarray(matrices, dtype=complex)
    return matrices.view(float).reshape(len(matrices), -1, 2).tolist()


def matrices_from_pairs(data) -> np.ndarray:
    """Inverse of :func:`matrices_to_pairs`: a (count, n, n) complex array.

    Raises ValueError on ragged lists, entries that are not [re, im]
    pairs, or an entry count that is not a square.
    """
    pairs = np.asarray(data, dtype=float)
    if pairs.ndim != 3 or pairs.shape[2] != 2:
        raise ValueError(
            f"expected [count][n*n][re, im] entries, got shape {pairs.shape}"
        )
    n = round(pairs.shape[1] ** 0.5)
    if n * n != pairs.shape[1]:
        raise ValueError(f"matrix entry count {pairs.shape[1]} is not a square")
    return np.ascontiguousarray(pairs).view(complex).reshape(len(pairs), n, n)


def json_value(value, kind: type, name: str):
    """``value`` if it is a JSON ``kind``, else TypeError naming ``name``.

    Nothing is coerced and nothing takes a boolean: int takes integers
    only (not 2.7, 2.0 or "2"); float takes any number, as a float.
    """
    number = kind is float
    accepted = (int, float) if number else kind
    if isinstance(value, bool) or not isinstance(value, accepted):
        what = "number" if number else kind.__name__
        raise TypeError(f"{name} must be a JSON {what}, got {value!r}")
    return float(value) if number else value


@dataclass
class KrausFrame:
    """d unit vectors on the Kraus sphere, stored as rows of ``vectors``."""

    d: int
    m: int
    vectors: np.ndarray  # shape (d, 2*m*d), real

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=float)
        expected = (self.d, 2 * self.m * self.d)
        if self.vectors.shape != expected:
            raise ValueError(
                f"vectors shape {self.vectors.shape}, expected {expected}"
            )

    def deviation(self) -> float:
        """Max entrywise deviation of the frame Gram matrix from identity."""
        return float(np.max(np.abs(completeness_gram(self) - np.eye(self.d))))


def symplectic_form(dim: int) -> np.ndarray:
    """The symplectic bilinear form I_{dim/2} kron [[0, 1], [-1, 0]].

    Antisymmetric with S @ S = -I; encodes the imaginary part of the
    complex inner product under the interleaved (x, y) layout.
    """
    if dim < 2 or dim % 2 != 0:
        raise ValueError(f"symplectic form needs an even dimension >= 2, got {dim}")
    block = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return np.kron(np.eye(dim // 2), block)


def symplectic_products(frame: KrausFrame) -> np.ndarray:
    """Matrix of pairings v_i . S v_j, computed blockwise.

    The diagonal vanishes exactly: each term x*y - y*x cancels bitwise.
    """
    even = frame.vectors[:, 0::2]
    odd = frame.vectors[:, 1::2]
    return even @ odd.T - odd @ even.T


def completeness_gram(frame: KrausFrame) -> np.ndarray:
    """Gram matrix with entries v_i . v_j + i (v_i . S v_j).

    Equals sum_a (K^a)† K^a of the corresponding Kraus set, so a valid
    frame returns the identity.
    """
    euclid = frame.vectors @ frame.vectors.T
    return euclid + 1j * symplectic_products(frame)


def kraus_to_frame(kraus: KrausSet) -> KrausFrame:
    """Relabel a Kraus set as a frame of real vectors (exact, no arithmetic).

    Raises ValueError when the completeness relation is violated beyond
    1e-8; the message carries the deviation.
    """
    deviation = kraus.completeness_deviation()
    if deviation > COMPLETENESS_TOL:
        raise ValueError(
            f"Kraus set violates completeness: max deviation {deviation:.3e}"
        )
    return KrausFrame(
        d=kraus.d, m=kraus.m, vectors=operator_stack_to_vectors(kraus.operators)
    )


def frame_to_kraus(frame: KrausFrame) -> KrausSet:
    """Exact inverse relabeling of :func:`kraus_to_frame`.

    Accepts frames that satisfy the frame constraints within the looser
    1e-6 tolerance, so channels produced by long transformation chains
    mid-optimization do not error spuriously.
    """
    deviation = frame.deviation()
    if deviation > FRAME_TOL_LOOSE:
        raise ValueError(
            f"frame violates unit/orthogonality constraints: "
            f"max Gram deviation {deviation:.3e}"
        )
    stack = vectors_to_operator_stack(frame.vectors, frame.d, frame.m)
    return KrausSet(d=frame.d, m=frame.m, operators=stack)


def identity_frame(d: int, m: int) -> KrausFrame:
    """Frame of the identity channel {I, 0, ..., 0} with m operators."""
    ops = np.zeros((m, d, d), dtype=complex)
    ops[0] = np.eye(d)
    return kraus_to_frame(KrausSet(d=d, m=m, operators=ops))


def operator_stack_to_vectors(stack: np.ndarray) -> np.ndarray:
    """(m, d, d) operator stack -> (d, 2*m*d) frame rows."""
    m, d, _ = stack.shape
    # columns[i, a, k] = K^a[k, i]; flatten a-major, k-minor per row
    columns = stack.transpose(2, 0, 1).reshape(d, m * d)
    vectors = np.empty((d, 2 * m * d))
    vectors[:, 0::2] = columns.real
    vectors[:, 1::2] = columns.imag
    return vectors


def vectors_to_operator_stack(vectors: np.ndarray, d: int, m: int) -> np.ndarray:
    """Frame rows (..., d, 2*m*d) -> operator stack (..., m, d, d).

    Exact inverse of the relabeling; leading batch axes pass through.
    """
    columns = np.empty(vectors.shape[:-1] + (m * d,), dtype=complex)
    columns.real = vectors[..., 0::2]
    columns.imag = vectors[..., 1::2]
    shaped = columns.reshape(vectors.shape[:-1] + (m, d))
    return np.moveaxis(shaped, -3, -1)
