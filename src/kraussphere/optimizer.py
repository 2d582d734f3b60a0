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
angles only (:func:`generator_pairings`).
Plain fixed-rate descent follows.  Every angle vector corresponds to a
CPTP channel by construction, so no iterate ever leaves the physical set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import apply_channel_batch
from .geometry import KrausSet
from .linalg import UhlmannFidelity, validate_density_matrix
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
    matrix product over the N states whatever m is.
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
        self._flat = self.corrupted.reshape(len(self.corrupted), d * d)

    def loss(self, angles: np.ndarray) -> float:
        rows, _, _ = self._forward(self._check_angles(angles))
        fid, _ = self._fidelity.evaluate(self._recover(rows))
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
        are copied and paired in one contraction after the sweep.  The loss
        is the one :meth:`loss` returns, from the same forward sweep and
        the same eigendecomposition.
        """
        angles = self._check_angles(angles)
        rows, nonzero, unitaries = self._forward(angles)
        recovered = self._recover(rows)
        fid, q = self._fidelity.evaluate(recovered)
        d, n_states = self.d, len(self.corrupted)
        # sum_n Q_n K_a sigma_n through C[i, j, k, l] = sum_n Q_n[i, j] sigma_n[k, l]
        corr = (q.reshape(n_states, d * d).T @ self._flat).reshape(d, d, d, d)
        d_stack = np.einsum("ijkl,ajk->ail", corr, rows.reshape(self.m, d, d))
        cot = d_stack.reshape(rows.shape) * (-2.0 / n_states)
        sweep = np.concatenate([cot, rows], axis=1)
        grad = np.empty(self.n_angles)
        lone, lone_rows = [], []  # nonzero angles with no zero run above
        end = self.n_angles  # angles a+1 .. end-1 are zeros
        pairs = self.basis.pairs[nonzero].tolist()
        adjoints = unitaries.conj().swapaxes(-1, -2)
        reverse = zip(nonzero[::-1].tolist(), pairs[::-1], adjoints[::-1])
        for a, (j, k), u_adj in reverse:
            touched = sweep[j : k + 1 : k - j]  # rows j and k, a view
            if a + 1 < end:
                grad[a:end] = generator_pairings(sweep[:, :d], sweep[:, d:], a, end)
            else:
                lone.append(a)
                lone_rows.append(touched.copy())
            touched[...] = u_adj @ touched
            end = a
        if end > 0:
            grad[:end] = generator_pairings(sweep[:, :d], sweep[:, d:], 0, end)
        if lone:
            # Re Tr(C^† J W) on the two touched rows, for all of them at once
            stacked = np.array(lone_rows)
            cots, frames = stacked[..., :d].conj(), stacked[..., d:]
            blocks = self.basis.blocks[self.basis.kinds[lone]]
            grad[lone] = np.einsum("apq,api,aqi->a", blocks, cots, frames).real
        return float(1.0 - fid.mean()), grad

    def _forward(
        self, angles: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Final frame rows W_n, the nonzero angles and their 2 x 2 unitaries."""
        rows = self.base_rows.copy()
        return rows, *forward_sweep(self.basis, angles, rows)

    def _recover(self, rows: np.ndarray) -> np.ndarray:
        """Frame rows -> recovered states sum_a K_a sigma K_a^+.

        With the transfer matrix T[(j, k), (i, l)] = sum_a K_a[i, j]
        conj(K_a[l, k]), each flattened recovered state is vec(sigma) T.
        """
        d = self.d
        stack = rows.reshape(self.m, d, d)
        transfer = np.einsum("aij,alk->jkil", stack, stack.conj()).reshape(d * d, d * d)
        return (self._flat @ transfer).reshape(self.corrupted.shape)

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
        if not np.isfinite(current):
            raise NonFiniteLossError(iteration, current)
        if not np.all(np.isfinite(grad)):
            raise NonFiniteLossError(iteration, float(np.sum(grad)))
        history.append(
            TrainingRecord(
                iteration=iteration,
                loss=current,
                avg_fidelity=1.0 - current,
                grad_norm=float(np.linalg.norm(grad)),
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
