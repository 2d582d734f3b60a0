"""Kraus-sphere geometry.

A channel with Kraus operators ``{K^a}`` (each d x d, a = 1..m) is
re-expressed as d real unit vectors of length ``2*m*d``: ``v_i`` is
column i of the stacked operators ``W = [K^1; ...; K^m]`` (md x d) read
as interleaved (Re, Im) floats.  The symplectic form below relies on the
(x, y) adjacency this layout produces.

Collecting the vectors of all d columns gives a frame.  Unit norm,
mutual Euclidean orthogonality, and mutual symplectic orthogonality of
the frame vectors are together exactly the completeness relation
``sum_a (K^a)† K^a = I``, so valid frames and CPTP Kraus sets are in
bijection.  The frame is the documented equivalence; the package works
on ``KrausSet.operators``, one complex (m, d, d) array.  Each record is
its array: ``d`` and ``m`` are read off its shape, and only a Kraus
file's ``d`` and ``m`` (:meth:`KrausSet.from_dict`) arrive beside it and
are checked against it.  A channel may have any number of operators;
the bound m <= d^2 belongs to the learner's ansatz, not to the channel.

On disk, Kraus sets and state ensembles share one encoding
(:func:`matrices_to_pairs` / :func:`matrices_from_pairs`): each matrix
is a flat row-major list of ``[re, im]`` pairs.

Every JSON input, a config and a Kraus file alike, is read by one typed
reader: :func:`json_section` reads a dataclass's fields from an object
and rejects unknown keys, :func:`json_field` reads one field by its
annotation, each list item by item into a new list, and
:func:`json_value` holds the rule for a single value
(nothing coerced, no booleans as numbers).  Errors name the field from
the document's root (``channel.custom_kraus.operators[1][2][0]`` in a
config, ``operators[1][2][0]`` in a Kraus file).
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields, is_dataclass
from typing import get_args, get_origin, get_type_hints

import numpy as np

COMPLETENESS_TOL = 1e-8
FRAME_TOL_LOOSE = 1e-6


@dataclass(eq=False)
class KrausSet:
    """Ordered set of ``m`` Kraus operators, each ``d x d`` complex, held
    as one (m, d, d) array; a list of matrices converts on construction.
    ``d`` and ``m`` are read off the array.  A stack that is not a
    non-empty run of square matrices raises ValueError naming its shape,
    and operators with NaN or infinite entries raise ValueError naming
    them.  ``==`` is identity; compare the ``operators`` arrays for
    equal channels."""

    operators: np.ndarray

    def __post_init__(self):
        self.operators = np.ascontiguousarray(self.operators, dtype=complex)
        shape = self.operators.shape
        if len(shape) != 3 or shape[1] != shape[2] or 0 in shape:
            raise ValueError(
                f"operators have shape {shape}, expected (m, d, d) with m, d >= 1"
            )
        # NaN fails every tolerance test, so no completeness check would catch it
        finite = np.isfinite(self.operators).all(axis=(1, 2))
        if not finite.all():
            bad = np.flatnonzero(~finite).tolist()
            raise ValueError(f"Kraus operators {bad} have non-finite entries")

    @property
    def d(self) -> int:
        return self.operators.shape[1]

    @property
    def m(self) -> int:
        return self.operators.shape[0]

    def completeness_deviation(self) -> float:
        """Max entrywise deviation of sum_a (K^a)† K^a from the identity."""
        ops = self.operators
        total = (ops.conj().swapaxes(1, 2) @ ops).sum(axis=0)
        return float(np.max(np.abs(total - np.eye(self.d))))

    def require_complete(self, tol: float, name: str) -> None:
        """ValueError naming ``name`` and the deviation when completeness
        is violated beyond ``tol``."""
        deviation = self.completeness_deviation()
        if deviation > tol:
            raise ValueError(
                f"{name} violates completeness: max deviation {deviation:.3e}"
            )

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "m": self.m,
            "operators": matrices_to_pairs(self.operators),
        }

    @classmethod
    def from_dict(cls, data: dict, where: str = "") -> "KrausSet":
        """Inverse of :meth:`to_dict`, the file's fields (:class:`_KrausFile`)
        read by :func:`json_section`.  Beyond their types, each operator
        must hold as many entries as the first, each entry must be an
        ``[re, im]`` pair, and the decoded operators must have the shape
        ``(m, d, d)``.  ``where`` is the set's place inside a config
        (``"channel.custom_kraus"``), from which its fields are named
        (``channel.custom_kraus.operators[1][2][0]``); a channel file's
        own fields are named from its root (``operators[1][2][0]``)."""
        document = "config" if where else "Kraus set"
        file = json_section(_KrausFile, data, where, document)
        name = f"{where}.operators" if where else "operators"
        for i, operator in enumerate(file.operators):
            if len(operator) != len(file.operators[0]):
                raise ValueError(f"{name}[{i}] and {name}[0] differ in length")
            for j, pair in enumerate(operator):
                if len(pair) != 2:
                    raise ValueError(f"{name}[{i}][{j}] is not an [re, im] pair")
        kraus = cls(matrices_from_pairs(file.operators))
        shape = (file.m, file.d, file.d)
        if kraus.operators.shape != shape:
            raise ValueError(
                f"{name} have shape {kraus.operators.shape}, expected {shape}"
            )
        return kraus


@dataclass
class _KrausFile:
    """The fields of a Kraus file, as :meth:`KrausSet.to_dict` writes them."""

    d: int
    m: int
    operators: list[list[list[float]]]


def matrices_to_pairs(matrices) -> list[list[list[float]]]:
    """(count, n, n) complex matrices -> one flat row-major list of
    [re, im] pairs per matrix: the JSON form of Kraus sets and states."""
    matrices = np.ascontiguousarray(matrices, dtype=complex)
    return matrices.view(float).reshape(len(matrices), -1, 2).tolist()


def matrices_from_pairs(data) -> np.ndarray:
    """Inverse of :func:`matrices_to_pairs`: a (count, n, n) complex array.

    Raises ValueError on ragged lists, entries that are not [re, im]
    pairs and an entry count that is not a square.  Nothing here names a
    field: :meth:`KrausSet.from_dict` checks a Kraus file's entries first.
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
    only (not 2.7, 2.0 or "2"); float takes any number, as a float, and
    an integer out of the float range raises ValueError naming ``name``.
    """
    number = kind is float
    accepted = (int, float) if number else kind
    if isinstance(value, bool) or not isinstance(value, accepted):
        what = "number" if number else kind.__name__
        raise TypeError(f"{name} must be a JSON {what}, got {value!r}")
    if not number:
        return value
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} is out of the float range") from None


def json_section(cls, data, where: str, document: str = "config"):
    """A ``cls`` read from the JSON object ``data``, each field by its
    annotation (:func:`json_field`); a field without a default is
    required, and a key that is not a field is rejected.  ``where`` is
    the section's path in the ``document`` ("" at its root), and its
    fields are named from there (``sample.count``)."""
    json_value(data, dict, where or document)
    declared = fields(cls)
    unknown = set(data) - {f.name for f in declared}
    if unknown:
        raise ValueError(f"unknown field(s) in {where or document}: {sorted(unknown)}")
    hints, values = get_type_hints(cls), {}
    for f in declared:
        name = f"{where}.{f.name}" if where else f.name
        if f.name in data:
            values[f.name] = json_field(data[f.name], hints[f.name], name)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ValueError(f"{document} is missing required field {name!r}")
    return cls(**values)


def json_field(value, hint, name: str):
    """``value`` read as the type ``hint``: an optional type takes null, a
    KrausSet is a Kraus file's dict, another dataclass a section of its
    own, a list is read item by item into a new list (an error names
    ``name[i]``), and anything else is one JSON value (:func:`json_value`)."""
    if type(None) in get_args(hint):
        if value is None:
            return None
        (hint,) = set(get_args(hint)) - {type(None)}
    if hint is KrausSet:
        return KrausSet.from_dict(value, name)
    if is_dataclass(hint):
        return json_section(hint, value, name)
    if get_origin(hint) is list:
        (item,) = get_args(hint)
        items = json_value(value, list, name)
        return [json_field(x, item, f"{name}[{i}]") for i, x in enumerate(items)]
    return json_value(value, hint, name)


@dataclass(eq=False)
class KrausFrame:
    """d unit vectors on the Kraus sphere, stored as the rows of the real
    (d, 2*m*d) array ``vectors``; ``d`` and ``m`` are read off its shape.
    Any other shape raises ValueError naming it.  ``==`` is identity, as
    for KrausSet."""

    vectors: np.ndarray

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=float)
        shape = self.vectors.shape
        if len(shape) != 2 or 0 in shape or shape[1] % (2 * shape[0]):
            raise ValueError(
                f"vectors have shape {shape}, expected (d, 2*m*d) with m, d >= 1"
            )

    @property
    def d(self) -> int:
        return self.vectors.shape[0]

    @property
    def m(self) -> int:
        return self.vectors.shape[1] // (2 * self.d)

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
    kraus.require_complete(COMPLETENESS_TOL, "Kraus set")
    return KrausFrame(operator_stack_to_vectors(kraus.operators))


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
    return KrausSet(vectors_to_operator_stack(frame.vectors))


def identity_frame(d: int, m: int) -> KrausFrame:
    """Frame of the identity channel {I, 0, ..., 0} with m operators."""
    ops = np.zeros((m, d, d), dtype=complex)
    ops[0] = np.eye(d)
    return kraus_to_frame(KrausSet(ops))


def operator_stack_to_vectors(stack: np.ndarray) -> np.ndarray:
    """Complex (m, d, d) operator stack -> (d, 2*m*d) frame rows: the
    float view of a copy of the columns of W = stack.reshape(m*d, d)."""
    m, d, _ = stack.shape
    return stack.reshape(m * d, d).T.copy().view(float)


def vectors_to_operator_stack(vectors: np.ndarray) -> np.ndarray:
    """(d, 2*m*d) frame rows -> (m, d, d) operator stack, a new array:
    the exact inverse of :func:`operator_stack_to_vectors`."""
    d = len(vectors)
    return np.ascontiguousarray(vectors).view(complex).T.copy().reshape(-1, d, d)
