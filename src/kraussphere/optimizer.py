"""Quasi-inverse channel learning.

The loss is 1 minus the ensemble-average Uhlmann fidelity between
original states and the states recovered by the angle-parameterized
channel.  Its exact gradient comes from one forward sweep of the 2 x 2
one-angle rotations over the md x d complex frame rows, the analytic
fidelity cotangent, and one reverse sweep (the adjoint method); both
sweeps live in :mod:`transforms`, the one module that knows the chart's
layout.  The same forward sweep gives the loss, so each descent step
costs one ``(loss, grad)`` call.  Every constant of a step is made once
per LossContext.
The swept rows S (row a is vec(K_a)) enter both ensemble contractions
through their d^2 x d^2 Gram matrix G = S^T conj(S): the channel's
transfer matrix is a fixed permutation of G, and the cotangent rows are
S M for one d^2 x d^2 matrix M made from the fidelity cotangents by a
fixed map.
For qubits no recovered state is formed: one fixed real map takes G to
the real 4 x 4 Pauli transfer matrix of the channel, which maps the
corrupted states' Pauli coordinates to the recovered ones, and the
fidelities (:func:`linalg.qubit_fidelity`) and the cotangent
contraction are closed forms in those coordinates.  Only the context
knows their layout: the corrupted coordinates are held (4, N) and the
originals' column-major, so per-state work runs along contiguous
memory.  For d > 2 the recovered states are formed and
:class:`linalg.UhlmannFidelity`, the matrix fidelity for every d, makes
one batched eigh per call; its products with the originals' square
roots are float products against their real form
(:func:`linalg.real_form`).
A gradient at the angles of the preceding loss call starts from that
evaluation, so each iterate is evaluated once.
Plain fixed-rate descent follows.  Every angle vector corresponds to a
CPTP channel by construction, so no iterate ever leaves the physical set.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channels import apply_channel_batch
from .geometry import FRAME_TOL_LOOSE, KrausSet
from .linalg import (
    PAULI_SIGNS,
    PAULIS,
    UhlmannFidelity,
    pauli_coordinates,
    pauli_dets,
    qubit_fidelity,
    validate_density_matrix,
)
from .sampling import philox_rng
from .transforms import (
    angle_count,
    channel_from_angles,
    checked_angles,
    finite_transform,  # noqa: F401  bench/spans.py hooks the sweep's transforms here
    forward_sweep,
    generator_basis,
    reverse_sweep,
)

INIT_MODES = ("zeros", "small_random")


class NonFiniteLossError(RuntimeError):
    """Loss or gradient became NaN/Inf during optimization; carries the
    iteration.  ``quantity`` names what was not finite."""

    def __init__(self, iteration: int, value: float, quantity: str = "loss"):
        super().__init__(f"non-finite {quantity} {value!r} at iteration {iteration}")
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
    loss_evaluations: int  # forward sweep + fidelity passes
    gradient_evaluations: int  # reverse sweeps

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
            "loss_evaluations": self.loss_evaluations,
            "gradient_evaluations": self.gradient_evaluations,
        }


class LossContext:
    """Precomputed state for repeated loss and gradient evaluations.

    Holds the corrupted/original ensembles, both (N, d, d), which fix
    d, the generator basis of the ``m``-operator ansatz, the fidelity
    machinery and the fixed maps of both ensemble contractions.  Its
    mutable state is the point of the last :meth:`loss`, kept until the
    next :meth:`gradient`, and the counts of both kinds of evaluation
    (``loss_evaluations``: forward sweep and fidelity passes;
    ``gradient_evaluations``: reverse sweeps); the basis keeps the
    reverse sweep's plan (:func:`transforms.reverse_sweep`), so a
    context is not meant to be shared across threads.
    Every per-context constant is made here, so a step is one forward
    sweep, a short fixed list of 2-D products and one reverse sweep.
    Both contractions go through the d^2 x d^2 frame Gram matrix
    G = S^T conj(S), S = rows.reshape(m, d^2) (row a is vec(K_a)), so
    each is one product over the N states whatever m is.  For qubits
    the states are held as real Pauli coordinates p (corrupted, stored
    as its (4, N) transpose) and s (originals): G maps straight to the
    real 4 x 4 Pauli transfer matrix R, the recovered coordinates are
    p R, and no per-state matrix is made.
    """

    def __init__(self, corrupted, originals, m: int):
        if len(corrupted) == 0 or len(originals) == 0:
            raise ValueError("state ensemble is empty")
        self.corrupted = np.asarray(corrupted, dtype=complex)
        self.originals = np.asarray(originals, dtype=complex)
        if self.corrupted.shape != self.originals.shape:
            raise ValueError(
                f"corrupted/original shapes differ: "
                f"{self.corrupted.shape} vs {self.originals.shape}"
            )
        shape = self.corrupted.shape
        if len(shape) != 3 or shape[1] != shape[2]:
            raise ValueError(f"expected states of shape (N, d, d), got {shape}")
        d = shape[1]
        self.d, self.m = d, m
        self.basis = generator_basis(2 * m * d)
        self.n_angles = angle_count(d, m)
        self.base_rows = np.eye(m * d, d, dtype=complex)  # [I; 0; ...; 0]
        self._point = None  # (angles, evaluation) of the last loss call
        self.loss_evaluations = 0  # forward sweep + fidelity passes
        self.gradient_evaluations = 0  # reverse sweeps
        scale = -2.0 / len(self.corrupted)  # dL/dF_n
        if d == 2:
            # p^T, held (4, N) so that per-state work runs along rows, and
            # s column-major like the recovered coordinates q = (R^T p^T)^T
            self._states = pauli_coordinates(self.corrupted).T.copy()
            coordinates = np.asfortranarray(pauli_coordinates(self.originals))
            self._evaluate = functools.partial(
                qubit_fidelity,
                s=coordinates,
                sqrt_det_o=np.sqrt(pauli_dets(coordinates)),
            )
            # R^T[b, a] = Re sum Pi[a, (j, k)] T[(j, k), (i, l)] conj(Pi[b, (i, l)])
            # / 2 with Pi[a] = vec(sigma_a) is real-linear in G[(i, j), (l, k)];
            # rows 2g, 2g + 1 of the map take Re G_g, Im G_g (G's float view) to it
            transfer = np.einsum("ajk,bil->ijlkba", PAULIS, PAULIS.conj())
            transfer = transfer.reshape(16, 16) / 2.0
            self._transfer_map = np.stack([transfer.real, -transfer.imag], 1).reshape(
                32, 16
            )
            # M[(j, k), (i, l)] = -(2/N) X[(i, j), (k, l)] with
            # X = (eta Pi)^T Y Pi / 4 and Y = eta s^T p + (w q)^T p real
            # 4 x 4: the complex entries of M, as floats, are vec(Y) times
            # this map; its constant term eta s^T p is made here
            cotangent = np.einsum("a,aij,bkl->abjkil", PAULI_SIGNS, PAULIS, PAULIS)
            cotangent = cotangent.reshape(16, 16) * (scale / 4.0)
            self._cotangent_map = cotangent.view(float)
            self._overlap = PAULI_SIGNS[:, None] * (coordinates.T @ self._states.T)
        else:
            self._states = self.corrupted.reshape(len(self.corrupted), d * d)
            self._scaled_states = self._states * scale
            self._evaluate = UhlmannFidelity(self.originals).evaluate
            # flat orders of T[(j, k), (i, l)] = G[(i, j), (l, k)] and of
            # M[(j, k), (i, l)] = X[(i, j), (k, l)] (see _cotangent)
            axes = np.arange(d**4).reshape(d, d, d, d)
            self._transfer_order = axes.transpose(1, 3, 0, 2).ravel()
            self._cotangent_order = axes.transpose(1, 2, 0, 3).ravel()

    def loss(self, angles: np.ndarray) -> float:
        """Loss 1 - mean F at ``angles``: one forward sweep and one
        fidelity pass.

        The evaluated point (a copy of the angles and everything the
        reverse sweep needs) is kept until the next :meth:`gradient`,
        which starts from it if called at equal angles.
        """
        angles = checked_angles(angles, self.n_angles)
        point = self._evaluated(angles)
        self._point = angles.copy(), point
        return point[0]

    def gradient(self, angles: np.ndarray) -> tuple[float, np.ndarray]:
        """Loss and exact gradient: one forward and one reverse sweep.

        C_n = dL/dW_n comes from the fidelity cotangent Q of each state:
        dL/dK_a = -(2/N) sum_n Q_n K_a sigma_n, sigma_n the corrupted
        states, stacked like the frame rows; that is C = S M for one
        d^2 x d^2 matrix M (:meth:`_cotangent`), and the stack [C | W]
        goes through :func:`transforms.reverse_sweep`.  The loss is the
        one :meth:`loss` returns, from the same forward sweep and the same
        fidelities.
        Called at the angles of the last :meth:`loss`, it starts from
        that evaluation instead of repeating the forward sweep and the
        fidelities; either way it drops the point :meth:`loss` kept.
        """
        angles = checked_angles(angles, self.n_angles)
        kept, self._point = self._point, None
        if kept is not None and np.array_equal(kept[0], angles):
            point = kept[1]
        else:
            point = self._evaluated(angles)
        self.gradient_evaluations += 1
        loss, rows, swept, recovered, aux = point
        d = self.d
        stack = np.empty((len(rows), 2 * d), dtype=complex)  # [C | W]
        stack[:, d:] = rows
        stack[:, :d] = self._cotangent(rows, recovered, aux).reshape(-1, d)
        return loss, reverse_sweep(self.basis, swept, stack)

    def _evaluated(self, angles: np.ndarray) -> tuple:
        """The forward-and-fidelity half of a step at checked ``angles``:
        the loss, the final frame rows W_n, forward_sweep's outputs, the
        recovered states and their fidelity cotangent."""
        self.loss_evaluations += 1
        rows = self.base_rows.copy()
        swept = forward_sweep(self.basis, angles, rows)
        recovered = self._recover(rows)
        fid, aux = self._evaluate(recovered)
        return float(1.0 - fid.sum() / fid.size), rows, swept, recovered, aux

    def _recover(self, rows: np.ndarray) -> np.ndarray:
        """Frame rows -> the recovered ensemble sum_a K_a sigma K_a^+.

        With the transfer matrix T[(j, k), (i, l)] = sum_a K_a[i, j]
        conj(K_a[l, k]) = G[(i, j), (l, k)], a permutation of the frame
        Gram matrix G = S^T conj(S), each flattened recovered state is
        vec(sigma) T.  Qubits get their Pauli coordinates q = p R
        instead, with the real Pauli transfer matrix R = Re(Pi T Pi^H) / 2
        made from G's float view by one fixed real map; q is returned as
        the (N, 4) transpose of R^T p^T.
        """
        stack = rows.reshape(self.m, self.d**2)  # S
        gram = stack.T @ stack.conj()
        if self.d == 2:
            transfer = gram.view(float).ravel() @ self._transfer_map
            return (transfer.reshape(4, 4) @ self._states).T
        transfer = gram.ravel().take(self._transfer_order).reshape(gram.shape)
        return (self._states @ transfer).reshape(self.corrupted.shape)

    def _cotangent(
        self, rows: np.ndarray, recovered: np.ndarray, aux: np.ndarray
    ) -> np.ndarray:
        """The (m, d^2) cotangent rows C = S M, row a being vec(dL/dK_a).

        M[(j, k), (i, l)] = -(2/N) X[(i, j), (k, l)] with
        X = sum_n vec(Q_n)^T vec(sigma_n).  Qubits: Q_n = g_n . sigma with
        g_n = s_n / 2 + (w_n / 2) eta q_n and vec(sigma_n) = p_n Pi / 2, so
        X is a fixed linear map of the real 4 x 4 matrix
        eta s^T p + (w q)^T p, whose first term is built once.  General
        d: X is one product over the states, prescaled by -2/N, and M
        a fixed permutation of it.
        """
        stack = rows.reshape(self.m, self.d**2)  # S
        if self.d == 2:
            weighted = (recovered.T * aux) @ self._states.T + self._overlap
            entries = weighted.ravel() @ self._cotangent_map  # M as floats
            return stack @ entries.view(complex).reshape(4, 4)
        n_states = len(self.corrupted)
        moments = aux.reshape(n_states, self.d**2).T @ self._scaled_states
        return stack @ moments.ravel().take(self._cotangent_order).reshape(
            moments.shape
        )


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
    which iterate was best, and how many evaluations the descent made.
    Each iteration takes its loss and gradient from one ``ctx.gradient``
    call, and each iterate is evaluated once: the identity's loss, taken
    first for ``fidelity_before``, is also the start of a zeros start's
    first gradient, so such a learn makes ``iterations_used`` forward
    sweep and fidelity passes (one more from a ``small_random`` start).
    States that are not density matrices (non-finite, non-Hermitian,
    off unit trace or not PSD) raise one ValueError naming the first.
    """
    originals = np.asarray(states)
    if len(originals) == 0:
        raise ValueError("state ensemble is empty")
    deviation = channel.completeness_deviation()
    if deviation > FRAME_TOL_LOOSE:
        raise ValueError(f"channel violates completeness: {deviation:.3e}")
    d = channel.d
    m = cfg.m if cfg.m is not None else d * d
    if m > d * d:
        raise ValueError(f"m={m} exceeds d^2={d * d}")
    if originals.shape[1:] != (d, d):
        raise ValueError(
            f"the channel acts on {d} x {d} states, "
            f"got states of shape {originals.shape[1:]}"
        )
    validate_density_matrix(originals)
    corrupted = apply_channel_batch(channel.operators, originals)
    ctx = LossContext(corrupted, originals, m)

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
            raise NonFiniteLossError(iteration, squared, "gradient (squared norm)")
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

    learned = channel_from_angles(d, m, best_theta)
    return QuasiInverseResult(
        channel=learned,
        angles=best_theta,
        history=history,
        fidelity_before=fidelity_before,
        fidelity_after=1.0 - best_loss,
        stop_reason=stop_reason,
        best_iteration=best_iteration,
        loss_evaluations=ctx.loss_evaluations,
        gradient_evaluations=ctx.gradient_evaluations,
    )


def dominant_kraus_report(kraus: KrausSet) -> tuple[np.ndarray, bool]:
    """Per-operator weights Tr[(K^a)† K^a] / d and a unitarity verdict.

    A channel is reported effectively unitary when a single operator
    carries at least 99% of the weight.
    """
    deviation = kraus.completeness_deviation()
    if deviation > FRAME_TOL_LOOSE:
        raise ValueError(f"channel violates completeness: {deviation:.3e}")
    ops = kraus.operators
    weights = np.trace(ops.conj().swapaxes(1, 2) @ ops, axis1=1, axis2=2).real / kraus.d
    return weights, bool(weights.max() >= 0.99)
