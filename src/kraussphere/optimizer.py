"""Quasi-inverse channel learning.

The loss is 1 minus the ensemble-average Uhlmann fidelity between
original states and the states recovered by the angle-parameterized
channel.  One step at given angles is one forward sweep of the 2 x 2
one-angle rotations over the md x d complex frame rows, one batched
fidelity pass over the recovered states, which the frame's d^2 x d^2
Gram matrix fixes, the fidelity cotangents folded into one d^2 x d^2
matrix M, and one reverse sweep (the adjoint method) from M to the exact
gradient.  Both sweeps live in :mod:`transforms`, the one module that
knows the chart's layout; :class:`LossContext` makes every constant of a
step once and runs the rest.  The loss comes from the same forward
sweep, so each descent step costs one ``(loss, grad)`` call, and a
gradient at the angles of the preceding loss call starts from that
evaluation, so each iterate is evaluated once.
Plain fixed-rate descent follows.  Every angle vector corresponds to a
CPTP channel by construction, so no iterate ever leaves the physical set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .channels import apply_channel_batch
from .geometry import FRAME_TOL_LOOSE, KrausSet
from .linalg import (
    UhlmannFidelity,
    check_fidelity_band,
    floor_eigenvalues,
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
        """The fields in declaration order, shallow: only the channel, the
        angles and the history are converted (a record's ``vars`` are its
        fields in order)."""
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data.update(
            channel=self.channel.to_dict(),
            angles=[float(t) for t in self.angles],
            history=[vars(record).copy() for record in self.history],
        )
        return data


class LossContext:
    """Precomputed state for repeated loss and gradient evaluations.

    Built from the corrupted/original ensembles, both (N, d, d), which
    fix d, and the ``m``-operator ansatz.  A step at checked angles runs
    the forward sweep to the final frame rows W and takes the d^2 x d^2
    Gram matrix G = S^T conj(S) of S = rows.reshape(m, d^2) (row a is
    vec(K_a)).  With the transfer matrix T[(j, k), (i, l)] = sum_a
    K_a[i, j] conj(K_a[l, k]) = G[(i, j), (l, k)], a fixed permutation of
    G, each flattened recovered state is vec(sigma_n) T, and
    :class:`linalg.UhlmannFidelity` gives the fidelities and their
    cotangents Q_n by one batched eigh.  The loss is 1 - mean F, and
    M[(j, k), (i, l)] = X[(i, j), (k, l)], a fixed permutation of
    X = -(2/N) sum_n vec(Q_n)^T vec(sigma_n), is one product over the
    states against the prescaled rows vec(sigma_n), whatever m is; the
    cotangent rows are C = S M.  An evaluation is (loss, W, the forward
    sweep's outputs, C), and :meth:`gradient` sends the stack [C | W]
    through :func:`transforms.reverse_sweep`.
    At a unitary qubit point (d = 2 and every frame row below K^1
    exactly zero: always at m = 1, and every iterate of a zeros start)
    M is the fixed M0 of Q_n = o_n and the loss comes from C alone, so
    that step forms no G and no per-state array and does not scale with
    N.  a_n = U sigma_n U^H keeps det a_n = det sigma_n, so F_n = Tr(a_n
    o_n) + 2 sqrt(det sigma_n det o_n) (Jozsa 1994).  The first term is
    a quadratic form in S, and C = S M0 is the cotangent of -mean_n of
    it, so mean_n Tr(a_n o_n) = -1/2 Re <S, C> (Euler's relation for a
    quadratic form); the mean fidelity is that plus c = (2/N) sum_n
    sqrt(det sigma_n det o_n), clamped to [0, 1], each det the product
    of the eigenvalues under :func:`linalg.floor_eigenvalues`.  M0 is
    the whole of M there: a unitary point moves no det a_n to first order
    (a commutator has no trace against adj(a_n)), so the adj(a_n) term of
    Q_n pairs to 0.  Since no such iterate's fidelities are formed, every
    state's range over all unitaries, (1 -+ |r_sigma| |r_o|) / 2 + c_n
    with the Bloch radius |r| the gap of the two eigenvalues, is checked
    against the band at construction, raising the "outside" error of
    :func:`linalg.check_fidelity_band` if it leaves it.
    Every constant of a step is made at construction, save the per-state
    fidelity at d = 2, built from a copy of the originals at the first
    point off the unitaries, which a zeros start never reaches.  The
    mutable state is the point of the last :meth:`loss`, kept until the
    next :meth:`gradient`, and the counts of both kinds of evaluation
    (``loss_evaluations``: forward sweep and fidelity passes;
    ``gradient_evaluations``: reverse sweeps); the basis keeps the
    reverse sweep's plan (:func:`transforms.reverse_sweep`), so a
    context is not meant to be shared across threads.
    """

    def __init__(self, corrupted, originals, m: int):
        if len(corrupted) == 0 or len(originals) == 0:
            raise ValueError("state ensemble is empty")
        corrupted = np.asarray(corrupted, dtype=complex)
        originals = np.asarray(originals, dtype=complex)
        if corrupted.shape != originals.shape:
            raise ValueError(
                f"corrupted/original shapes differ: "
                f"{corrupted.shape} vs {originals.shape}"
            )
        shape = corrupted.shape
        if len(shape) != 3 or shape[1] != shape[2]:
            raise ValueError(f"expected states of shape (N, d, d), got {shape}")
        n_states, d = shape[:2]
        self.d, self.m = d, m
        self.basis = generator_basis(2 * m * d)
        self.n_angles = angle_count(d, m)
        self.base_rows = np.eye(m * d, d, dtype=complex)  # [I; 0; ...; 0]
        self._point = None  # (angles, evaluation) of the last loss call
        self.loss_evaluations = 0  # forward sweep + fidelity passes
        self.gradient_evaluations = 0  # reverse sweeps
        self._shape = shape
        self._states = corrupted.reshape(n_states, d * d)
        self._scaled_states = self._states * (-2.0 / n_states)
        # every d > 2 step is per-state; at d = 2 the fidelity is built at the
        # first per-state pass, which a zeros start never makes
        self._originals = originals.copy() if d == 2 else None
        self._fidelity = None if d == 2 else UhlmannFidelity(originals)
        # flat orders of T in G and of M in X
        axes = np.arange(d**4).reshape(d, d, d, d)
        self._transfer_order = axes.transpose(1, 3, 0, 2).ravel()
        self._cotangent_order = axes.transpose(1, 2, 0, 3).ravel()
        self._fixed_cotangent = None  # M0 of the unitary shortcut, d = 2 only
        if d == 2:
            w = np.linalg.eigvalsh(np.stack([corrupted, originals]))  # (2, N, 2)
            offsets = 2.0 * np.sqrt(floor_eigenvalues(w).prod(-1).prod(0))
            self._offset = offsets.sum() / n_states
            self._fixed_cotangent = self._cotangent_matrix(originals)  # M0
            # over every unitary Tr(a_n o_n) spans (1 -+ |r_sigma| |r_o|) / 2,
            # so no unitary iterate can leave the band if these bounds do not
            radii = w[..., 1] - w[..., 0]  # Bloch radii |r|
            centre, spread = 0.5 + offsets, radii[0] * radii[1] / 2.0
            check_fidelity_band((centre - spread).min(), (centre + spread).max())

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
        states, stacked like the frame rows; that is the evaluation's
        C = S M, and the stack [C | W] goes through
        :func:`transforms.reverse_sweep`.  The loss is the one
        :meth:`loss` returns, from the same forward sweep and the same
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
        loss, rows, swept, cotangent = point
        stack = np.concatenate([cotangent.reshape(rows.shape), rows], 1)  # [C | W]
        return loss, reverse_sweep(self.basis, swept, stack)

    def _evaluated(self, angles: np.ndarray) -> tuple:
        """(loss, rows, swept, C) at checked ``angles``: the loss, the
        final frame rows W, forward_sweep's outputs and the (m, d^2)
        cotangent rows C = S M (C = S M0 and the loss read off it at a
        unitary qubit point)."""
        self.loss_evaluations += 1
        rows = self.base_rows.copy()
        swept = forward_sweep(self.basis, angles, rows)
        stack = rows.reshape(self.m, self.d**2)  # S
        if self._fixed_cotangent is not None and not rows[self.d :].any():
            cotangent = stack @ self._fixed_cotangent
            mean = -0.5 * np.vdot(stack, cotangent).real + self._offset
            loss = 1.0 - min(max(float(mean), 0.0), 1.0)
            return loss, rows, swept, cotangent
        if self._fidelity is None:
            self._fidelity = UhlmannFidelity(self._originals)
        gram = stack.T @ stack.conj()
        transfer = gram.ravel().take(self._transfer_order).reshape(gram.shape)
        recovered = (self._states @ transfer).reshape(self._shape)
        fid, cotangents = self._fidelity.evaluate(recovered)
        loss = float(1.0 - fid.sum() / fid.size)
        return loss, rows, swept, stack @ self._cotangent_matrix(cotangents)

    def _cotangent_matrix(self, cotangents: np.ndarray) -> np.ndarray:
        """M from the (N, d, d) fidelity cotangents Q_n."""
        moments = cotangents.reshape(len(self._states), -1).T @ self._scaled_states
        return moments.ravel().take(self._cotangent_order).reshape(moments.shape)


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
    channel.require_complete(FRAME_TOL_LOOSE, "channel")
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


def dominant_kraus_report(kraus: KrausSet) -> tuple[np.ndarray, np.ndarray, bool]:
    """Per-operator weights Tr[(K^a)† K^a] / d, the Kraus-Gram spectrum and
    a unitarity verdict.

    The spectrum lists the eigenvalues of the m x m Kraus-Gram matrix
    Tr[(K^a)† K^b] / d, largest first; its diagonal holds the weights.
    They are the Choi matrix's nonzero eigenvalues over d, so they sum to
    1 and do not change under the unitary freedom K'^a = sum_b u_ab K^b
    of the Kraus set, while the weights do: a unitary U written as
    K^a = c_a U has weights |c_a|^2 and spectrum [1, 0, ..., 0].  A
    channel is reported effectively unitary when its largest eigenvalue
    is at least 0.99.
    """
    kraus.require_complete(FRAME_TOL_LOOSE, "channel")
    flat = kraus.operators.reshape(kraus.m, -1)
    gram = flat.conj() @ flat.T / kraus.d
    spectrum = np.linalg.eigvalsh(gram)[::-1]
    return gram.diagonal().real.copy(), spectrum, bool(spectrum[0] >= 0.99)
