"""The Pauli matrices, standard Pauli noise channels and channel application.

Single-qubit flip channels {sqrt(1-p) I, sqrt(p) P} with P one of X, Z,
Y; the depolarizing channel with the conventional p/3 Pauli weights; and
n-qubit flip noise built as all tensor products of the per-qubit Kraus
operators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import COMPLETENESS_TOL, KrausSet

PAULIS = np.array(
    [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]]
)  # sigma_0 = I, sigma_x, sigma_y, sigma_z
PAULIS.setflags(write=False)
PAULI_I, PAULI_X, PAULI_Y, PAULI_Z = PAULIS

FLIP_PAULIS = {
    "bit_flip": PAULI_X,
    "phase_flip": PAULI_Z,
    "bit_phase_flip": PAULI_Y,
}

CHANNEL_KINDS = ("bit_flip", "phase_flip", "bit_phase_flip", "depolarizing", "custom")


def _check_probability(p: float) -> float:
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"noise strength p={p} outside [0, 1]")
    return p


def flip_channel(kind: str, p: float) -> KrausSet:
    """Single-qubit flip channel {sqrt(1-p) I, sqrt(p) P}.

    ``kind`` selects the Pauli: bit_flip -> X, phase_flip -> Z,
    bit_phase_flip -> Y.
    """
    if kind not in FLIP_PAULIS:
        raise ValueError(f"unknown flip kind {kind!r}")
    p = _check_probability(p)
    ops = [np.sqrt(1.0 - p) * PAULI_I, np.sqrt(p) * FLIP_PAULIS[kind]]
    return KrausSet(ops)


def depolarizing_channel(p: float) -> KrausSet:
    """Single-qubit depolarizing channel with weights (1-p, p/3, p/3, p/3)."""
    p = _check_probability(p)
    ops = [
        np.sqrt(1.0 - p) * PAULI_I,
        np.sqrt(p / 3.0) * PAULI_X,
        np.sqrt(p / 3.0) * PAULI_Y,
        np.sqrt(p / 3.0) * PAULI_Z,
    ]
    return KrausSet(ops)


def tensor_flip_channel(kind: str, p: float, n_qubits: int) -> KrausSet:
    """Independent flip noise on every qubit of an n-qubit register.

    The 2^n Kraus operators are all tensor products of the per-qubit
    pair, ordered lexicographically by per-qubit operator index, so
    n_qubits=1 reduces exactly to :func:`flip_channel`.
    """
    if n_qubits < 1:
        raise ValueError(f"n_qubits must be >= 1, got {n_qubits}")
    ops = single = flip_channel(kind, p).operators
    for _ in range(n_qubits - 1):  # ops[2a + b] = kron(ops[a], single[b])
        d = 2 * ops.shape[-1]
        ops = np.kron(ops[:, None], single[None]).reshape(-1, d, d)
    return KrausSet(ops)


def apply_channel(kraus: KrausSet, rho: np.ndarray) -> np.ndarray:
    """sum_a K^a rho (K^a)† for one state."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (kraus.d, kraus.d):
        raise ValueError(
            f"state shape {rho.shape} does not match channel dimension {kraus.d}"
        )
    return apply_channel_batch(kraus.operators, rho[None])[0]


def apply_channel_batch(stack: np.ndarray, rhos: np.ndarray) -> np.ndarray:
    """Apply an (m, d, d) operator stack to a batch (..., d, d) of states."""
    return np.einsum("aij,...jk,alk->...il", stack, rhos, stack.conj(), optimize=True)


@dataclass
class ChannelSpec:
    """Declarative channel description used by configs and experiments."""

    kind: str
    p: float = 0.0
    n_qubits: int = 1
    custom_kraus: KrausSet | None = None

    def __post_init__(self):
        if self.kind not in CHANNEL_KINDS:
            raise ValueError(
                f"unknown channel kind {self.kind!r}; expected one of {CHANNEL_KINDS}"
            )
        _check_probability(self.p)
        if self.n_qubits < 1:
            raise ValueError(f"n_qubits must be >= 1, got {self.n_qubits}")
        if self.kind == "custom":
            if self.custom_kraus is None:
                raise ValueError("custom channel requires custom_kraus")
            if self.p != 0.0:
                raise ValueError(
                    f"channel.p={self.p} is ignored by kind 'custom', whose "
                    f"noise is custom_kraus; leave p out"
                )
            self.custom_kraus.require_complete(COMPLETENESS_TOL, "custom Kraus set")
            if self.custom_kraus.d != 2**self.n_qubits:
                raise ValueError(
                    f"custom_kraus acts on d={self.custom_kraus.d}, but "
                    f"n_qubits={self.n_qubits} needs d={2**self.n_qubits}"
                )
        elif self.custom_kraus is not None:
            raise ValueError("custom_kraus only valid with kind='custom'")
        if self.kind == "depolarizing" and self.n_qubits != 1:
            raise ValueError("depolarizing channel is single-qubit only")

    def build(self) -> KrausSet:
        if self.kind == "custom":
            return self.custom_kraus
        if self.kind == "depolarizing":
            return depolarizing_channel(self.p)
        return tensor_flip_channel(self.kind, self.p, self.n_qubits)
