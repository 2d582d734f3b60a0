"""Quasi-inverse channel learning.

The loss is 1 minus the ensemble-average Uhlmann fidelity between
original states and the states recovered by the angle-parameterized
channel.  Its exact gradient comes from one forward sweep of the 2 x 2
one-angle rotations over the md x d complex frame rows, the analytic
fidelity cotangent, and one reverse sweep (the adjoint method); the same
sweep gives the loss, so each descent step costs one ``(loss, grad)``
call.  The forward sweep makes the rotations of all nonzero angles in
one batched call and reads their row pairs from the generator table.
The reverse sweep stacks the cotangent beside the frame and pulls both
back through each nonzero angle's adjoint rotation, which touches two
rows, in place through a strided view as in the forward sweep;
every run of zero angles leaves the stack unchanged, so its gradient
entries all come from one md x md product, read for that run's slice of
angles only (:func:`generator_pairings`); the remaining nonzero angles
are paired together from one buffer of their two rows after the sweep.
For qubits no recovered state is formed: the swept rows give the real
4 x 4 Pauli transfer matrix of the channel, which maps the corrupted
states' Pauli coordinates to the recovered ones, and the fidelities and
the cotangent contraction are closed forms in those coordinates.
Plain fixed-rate descent follows.  Every angle vector corresponds to a
CPTP channel by construction, so no iterate ever leaves the physical set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import apply_channel_batch
from .geometry import KrausSet
from .linalg import (
    PAULI_SIGNS,
    PAULIS,
    UhlmannFidelity,
    pauli_coordinates,
    validate_density_matrix,
)
from .sampling import philox_rng
from .transforms import (
    GeneratorBasis,
    angle_count,
    channel_from_angles,
    finite_transform,  # noqa: F401  bench/spans.py hooks the sweep's transforms here
    forward_sweep,
    generator_basis,
    generator_pairings,
)

INIT_MODES = ("zeros", "small_random")
_PAULI_ROWS = PAULIS.reshape(4, 4)  # Pi: row alpha is vec(sigma_alpha)
_SIGNED_PAULI_ROWS = PAULI_SIGNS[:, None] * _PAULI_ROWS  # eta Pi


class NonFiniteLossError(RuntimeError):
    """Loss became NaN/Inf during optimization; carries the iteration."""

    def __init__(self, iteration: int, value: float):
        super().__init__(f"non-finite loss {value!r} at iteration {iteration}")
        self.iteration = iteration


@dataclass
class OptimizerConfig:
    """Gradient-descent settings; defaults follow the experiments."""

    eta0: float = 0.1
    max_iters: int = 500
    loss_tol: float = 1e-7
    patience: int = 25
    init: str = "zeros"
    init_scale: float = 0.1
    m: int | None = None  # ansatz Kraus count; None means d**2
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.eta0) and self.eta0 > 0):
            raise ValueError(f"eta0 must be finite and positive, got {self.eta0}")
        if self.init not in INIT_MODES:
            raise ValueError(
                f"unknown init {self.init!r}; expected one of {INIT_MODES}"
            )
        if not (math.isfinite(self.init_scale) and self.init_scale >= 0):
            raise ValueError(
                f"init_scale must be finite and >= 0, got {self.init_scale}"
            )
        if not (math.isfinite(self.loss_tol) and self.loss_tol >= 0):
            raise ValueError(f"loss_tol must be finite and >= 0, got {self.loss_tol}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")
        if self.m is not None and self.m < 1:
            raise ValueError(f"m must be >= 1 or null, got {self.m}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass
class TrainingRecord:
    iteration: int
    loss: float
    avg_fidelity: float
    grad_norm: float

    def to_dict(self) -> dict:
        return {
            "iteration": self.iteration,
            "loss": self.loss,
            "avg_fidelity": self.avg_fidelity,
            "grad_norm": self.grad_norm,
        }


@dataclass
class QuasiInverseResult:
    """Learned channel plus the full optimization trace."""

    channel: KrausSet
    angles: np.ndarray
    history: list[TrainingRecord]
    fidelity_before: float
    fidelity_after: float
    stop_reason: str  # "loss_tol", "patience" or "max_iters"
    best_iteration: int | None  # history index of ``angles``; None: identity

    @property
    def iterations_used(self) -> int:
        return len(self.history)

    def to_dict(self) -> dict:
        return {
            "channel": self.channel.to_dict(),
            "angles": [float(t) for t in self.angles],
            "history": [rec.to_dict() for rec in self.history],
            "fidelity_before": self.fidelity_before,
            "fidelity_after": self.fidelity_after,
            "stop_reason": self.stop_reason,
            "best_iteration": self.best_iteration,
        }


class LossContext:
    """Precomputed state for repeated loss and gradient evaluations.

    Holds the corrupted/original ensembles, the generator basis of the
    ansatz, and the fidelity machinery; immutable during a run.  Both
    ensemble contractions go through d^2 x d^2 matrices, so each is one
    matrix product over the N states whatever m is.  For qubits the
    states are held as real (N, 4) Pauli coordinates p (corrupted) and
    s (originals): the swept channel's transfer matrix becomes a real
    4 x 4 Pauli transfer matrix R, the recovered coordinates are p R,
    and no per-state matrix is made.
    """

    def __init__(self, corrupted, originals, d: int, m: int):
        self.d, self.m = d, m
        if len(corrupted) == 0 or len(originals) == 0:
            raise ValueError("state ensemble is empty")
        self.corrupted = np.asarray(corrupted, dtype=complex)
        self.originals = np.asarray(originals, dtype=complex)
        if self.corrupted.shape != self.originals.shape:
            raise ValueError(
                f"corrupted/original shapes differ: "
                f"{self.corrupted.shape} vs {self.originals.shape}"
            )
        if self.corrupted.ndim != 3 or self.corrupted.shape[1:] != (d, d):
            raise ValueError(
                f"expected states of shape (N, {d}, {d}), got {self.corrupted.shape}"
            )
        self.basis: GeneratorBasis = generator_basis(2 * m * d)
        self.n_angles = angle_count(d, m)
        self.base_rows = np.eye(m * d, d, dtype=complex)  # [I; 0; ...; 0]
        self._fidelity = UhlmannFidelity(self.originals)
        # the corrupted states as the contractions read them: (N, 4) Pauli
        # coordinates p for qubits, else (N, d^2) flat entries
        if d == 2:
            self._states = pauli_coordinates(self.corrupted)
            self._evaluate = self._fidelity.qubit
            # Pi^T (s^T p / 2) Pi / 2, the constant part of the contraction
            overlap = self._fidelity.coordinates.T @ self._states / 4.0
            self._overlap = _PAULI_ROWS.T @ overlap @ _PAULI_ROWS
        else:
            self._states = self.corrupted.reshape(len(self.corrupted), d * d)
            self._evaluate = self._fidelity.evaluate

    def loss(self, angles: np.ndarray) -> float:
        rows, _, _ = self._forward(self._check_angles(angles))
        fid, _ = self._evaluate(self._recover(rows))
        return float(1.0 - fid.mean())

    def gradient(self, angles: np.ndarray) -> tuple[float, np.ndarray]:
        """Loss and exact gradient: one forward and one reverse sweep.

        With frame rows W_a = U_a W_{a-1} and C_a = dL/dW_a, angle a
        contributes Re Tr(C_a^† J_a W_a), and both move back by
        U_a^†: C_{a-1} = U_a^† C_a, W_{a-1} = U_a^† W_a (the adjoint
        method).  C_n comes from the fidelity cotangent Q of each state:
        dL/dK_a = -(2/N) sum_n Q_n K_a sigma_n, sigma_n the corrupted
        states, stacked like the frame rows.

        The sweep keeps the stack [C | W] and pulls its two touched rows
        back at each nonzero angle; the pull-back is exact, so no
        intermediate frame is stored.  Zero angles are identity factors,
        so C and W stay fixed across each run of them and that run's
        entries, with the nonzero angle below it, all come from one
        generator_pairings call.  A nonzero angle with no zero run above
        it needs only its two rows of [C | W] before the pull-back; those
        are copied into one buffer and paired by one product after the
        sweep.  The loss is the one :meth:`loss` returns, from the same
        forward sweep and the same fidelities.
        """
        angles = self._check_angles(angles)
        rows, nonzero, unitaries = self._forward(angles)
        recovered = self._recover(rows)
        fid, aux = self._evaluate(recovered)
        d, n_states = self.d, len(self.corrupted)
        corr = self._contraction(recovered, aux).reshape(d, d, d, d)
        d_stack = np.einsum("ijkl,ajk->ail", corr, rows.reshape(self.m, d, d))
        cot = d_stack.reshape(rows.shape) * (-2.0 / n_states)
        sweep = np.concatenate([cot, rows], axis=1)
        grad = np.empty(self.n_angles)
        lone = []  # nonzero angles with no zero run above
        lone_rows = np.empty((len(nonzero), 2, 2 * d), dtype=complex)
        end = self.n_angles  # angles a+1 .. end-1 are zeros
        pairs = self.basis.pairs[nonzero].tolist()
        adjoints = unitaries.conj().swapaxes(-1, -2)
        reverse = zip(nonzero[::-1].tolist(), pairs[::-1], adjoints[::-1])
        for a, (j, k), u_adj in reverse:
            touched = sweep[j : k + 1 : k - j]  # rows j and k, a view
            if a + 1 < end:
                grad[a:end] = generator_pairings(sweep[:, :d], sweep[:, d:], a, end)
            else:
                lone_rows[len(lone)] = touched
                lone.append(a)
            touched[...] = u_adj @ touched
            end = a
        if end > 0:
            grad[:end] = generator_pairings(sweep[:, :d], sweep[:, d:], 0, end)
        if lone:
            # Re Tr(C^† J W) on the two touched rows, for all of them at once
            stacked = lone_rows[: len(lone)]
            blocks = self.basis.blocks[self.basis.kinds[lone]]
            moved = blocks @ stacked[..., d:]  # J W
            # Re sum conj(c) x sums Re c Re x + Im c Im x over the float views
            paired = stacked[..., :d].view(float) * moved.view(float)
            grad[lone] = paired.reshape(len(lone), -1).sum(axis=1)
        return float(1.0 - fid.mean()), grad

    def _forward(
        self, angles: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Final frame rows W_n, the nonzero angles and their 2 x 2 unitaries."""
        rows = self.base_rows.copy()
        return rows, *forward_sweep(self.basis, angles, rows)

    def _recover(self, rows: np.ndarray) -> np.ndarray:
        """Frame rows -> the recovered ensemble sum_a K_a sigma K_a^+.

        With the transfer matrix T[(j, k), (i, l)] = sum_a K_a[i, j]
        conj(K_a[l, k]), each flattened recovered state is vec(sigma) T.
        Qubits get their Pauli coordinates q = p R instead, with the real
        Pauli transfer matrix R = Re(Pi T Pi_t^T) / 2, Pi holding the
        vec(sigma_alpha) as rows and Pi_t the vec(sigma_alpha^T).
        """
        d = self.d
        stack = rows.reshape(self.m, d, d)
        transfer = np.einsum("aij,alk->jkil", stack, stack.conj()).reshape(d * d, d * d)
        if d == 2:
            pauli_transfer = (_PAULI_ROWS @ transfer @ _PAULI_ROWS.conj().T).real
            return self._states @ (pauli_transfer / 2.0)
        return (self._states @ transfer).reshape(self.corrupted.shape)

    def _contraction(self, recovered: np.ndarray, aux: np.ndarray) -> np.ndarray:
        """The d^2 x d^2 matrix sum_n vec(Q_n)^T vec(sigma_n) of the cotangents.

        Qubits: Q_n = g_n . sigma with g_n = s_n / 2 + (w_n / 2) eta q_n
        and vec(sigma_n) = p_n Pi / 2, so the sum is Pi^T G Pi / 2 with
        G = s^T p / 2 + (eta / 2) (w q)^T p; its first term is built once.
        """
        if self.d == 2:
            weighted = (aux[:, None] * recovered).T @ self._states
            return self._overlap + _SIGNED_PAULI_ROWS.T @ (weighted / 4.0) @ _PAULI_ROWS
        n_states = len(self.corrupted)
        return aux.reshape(n_states, self.d**2).T @ self._states

    def _check_angles(self, angles) -> np.ndarray:
        angles = np.asarray(angles, dtype=float)
        if angles.shape != (self.n_angles,):
            raise ValueError(
                f"expected {self.n_angles} angles, got shape {angles.shape}"
            )
        if not np.all(np.isfinite(angles)):
            raise ValueError("angles must be finite")
        return angles


def learn_quasi_inverse(
    channel: KrausSet, states, cfg: OptimizerConfig
) -> QuasiInverseResult:
    """Learn the quasi-inverse of ``channel`` on a state ensemble.

    ``states`` is an (N, d, d) array such as the samplers return (a list
    of d x d matrices also works).  They are corrupted once through the
    channel; descent then runs in the angle space of an m-operator
    ansatz acting on the corrupted states.  Returns the best angles seen
    (the identity start point always counts as a candidate, so the
    result never recovers worse than doing nothing), the corresponding
    channel, the full training history, why the descent stopped and
    which iterate was best.  Each iteration takes its loss and gradient
    from one ``ctx.gradient`` call.
    States that are not density matrices (non-finite, non-Hermitian,
    off unit trace or not PSD) raise one ValueError naming the first.
    """
    originals = np.asarray(states)
    if len(originals) == 0:
        raise ValueError("state ensemble is empty")
    deviation = channel.completeness_deviation()
    if deviation > 1e-6:
        raise ValueError(f"channel violates completeness: {deviation:.3e}")
    d = channel.d
    m = cfg.m if cfg.m is not None else d * d
    if m > d * d:
        raise ValueError(f"m={m} exceeds d^2={d * d}")
    validate_density_matrix(originals)
    corrupted = apply_channel_batch(channel.operators, originals)
    ctx = LossContext(corrupted, originals, d, m)

    zeros = np.zeros(ctx.n_angles)
    identity_loss = ctx.loss(zeros)
    fidelity_before = 1.0 - identity_loss
    if cfg.init == "zeros":
        theta = zeros.copy()
    else:
        rng = philox_rng(cfg.seed)
        theta = rng.normal(0.0, cfg.init_scale, ctx.n_angles)

    # the identity counts as a candidate; at a zeros start it is iterate 0
    best_theta, best_loss = zeros, identity_loss
    best_iteration = 0 if cfg.init == "zeros" else None
    history: list[TrainingRecord] = []
    prev_loss = None
    stalled = 0
    stop_reason = "max_iters"
    for iteration in range(cfg.max_iters):
        current, grad = ctx.gradient(theta)
        if not math.isfinite(current):
            raise NonFiniteLossError(iteration, current)
        squared = float(grad @ grad)  # not finite if any entry is not
        if not math.isfinite(squared):
            raise NonFiniteLossError(iteration, squared)
        history.append(
            TrainingRecord(
                iteration=iteration,
                loss=current,
                avg_fidelity=1.0 - current,
                grad_norm=math.sqrt(squared),
            )
        )
        if current < best_loss:
            best_loss = current
            best_theta = theta.copy()
            best_iteration = iteration
            stalled = 0
        else:
            stalled += 1
        if prev_loss is not None and abs(current - prev_loss) < cfg.loss_tol:
            stop_reason = "loss_tol"
            break
        if stalled >= cfg.patience:
            stop_reason = "patience"
            break
        prev_loss = current
        theta = theta - cfg.eta0 * grad

    learned = channel_from_angles(d, m, best_theta, basis=ctx.basis)
    return QuasiInverseResult(
        channel=learned,
        angles=best_theta,
        history=history,
        fidelity_before=fidelity_before,
        fidelity_after=1.0 - best_loss,
        stop_reason=stop_reason,
        best_iteration=best_iteration,
    )


def dominant_kraus_report(kraus: KrausSet) -> tuple[np.ndarray, bool]:
    """Per-operator weights Tr[(K^a)† K^a] / d and a unitarity verdict.

    A channel is reported effectively unitary when a single operator
    carries at least 99% of the weight.
    """
    deviation = kraus.completeness_deviation()
    if deviation > 1e-6:
        raise ValueError(f"channel violates completeness: {deviation:.3e}")
    ops = kraus.operators
    weights = np.trace(ops.conj().swapaxes(1, 2) @ ops, axis1=1, axis2=2).real / kraus.d
    return weights, bool(weights.max() >= 0.99)
