"""Quasi-inverse channel learning.

The loss is 1 minus the ensemble-average Uhlmann fidelity between
original states and the states recovered by the angle-parameterized
channel.  Its exact gradient comes from one forward sweep of the
one-angle transforms over the d frame rows, the analytic fidelity
cotangent, and one reverse sweep (the adjoint method); the same sweep
gives the loss, so each descent step costs one ``(loss, grad)`` call.
The reverse sweep takes a dense step only at nonzero angles: every run
of zero angles leaves the cotangent and the frame unchanged, so its
gradient entries all come from one complex md x md product
(:func:`generator_pairings`).  Plain fixed-rate descent follows.  Every
angle vector corresponds to a CPTP channel by construction, so no
iterate ever leaves the physical set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import apply_channel_batch
from .geometry import (
    KrausSet,
    identity_frame,
    operator_stack_to_vectors,
    vectors_to_operator_stack,
)
from .linalg import FIDELITY_BAND, floor_eigenvalues, qubit_dets, uhlmann_fidelity
from .sampling import philox_rng
from .transforms import (
    Generator,
    angle_count,
    channel_from_angles,
    finite_transform,
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
        if self.eta0 <= 0:
            raise ValueError("eta0 must be positive")
        if self.init not in INIT_MODES:
            raise ValueError(
                f"unknown init {self.init!r}; expected one of {INIT_MODES}"
            )
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


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


def average_fidelity(pairs) -> float:
    """Mean Uhlmann fidelity over (recovered, original) pairs."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("average_fidelity needs at least one pair")
    return float(np.mean([uhlmann_fidelity(rec, orig) for rec, orig in pairs]))


class _EnsembleFidelity:
    """Uhlmann fidelities of recovered batches against fixed originals.

    For qubits the closed form Tr(a o) + 2 sqrt(det a det o) avoids any
    per-call eigendecomposition; otherwise the square roots of the
    originals are precomputed once and a single batched eigvalsh per
    call does the rest.  Either path equals uhlmann_fidelity to rounding
    (see the optimizer tests), and both zero rounding-level eigenvalues
    with :func:`floor_eigenvalues`.
    """

    def __init__(self, originals: np.ndarray):
        self.originals = originals
        self.dim = originals.shape[-1]
        if self.dim == 2:
            self._dets = qubit_dets(originals)
        else:
            w, v = np.linalg.eigh(originals)
            w = floor_eigenvalues(w)
            self._sqrts = (v * np.sqrt(w)[..., None, :]) @ v.conj().swapaxes(-1, -2)

    def __call__(self, recovered: np.ndarray) -> np.ndarray:
        """(..., N, d, d) recovered states -> (..., N) fidelities."""
        if self.dim == 2:
            overlap = np.einsum(
                "...nij,nji->...n", recovered, self.originals, optimize=True
            ).real
            fid = overlap + 2.0 * np.sqrt(qubit_dets(recovered) * self._dets)
        else:
            w = floor_eigenvalues(np.linalg.eigvalsh(self._inner(recovered)))
            fid = np.sum(np.sqrt(w), axis=-1) ** 2
        low, high = fid.min(), fid.max()
        if low < -FIDELITY_BAND or high > 1.0 + FIDELITY_BAND:
            raise ValueError(
                f"fidelity outside [0, 1] beyond tolerance: range [{low}, {high}]"
            )
        return np.clip(fid, 0.0, 1.0)

    def cotangent(self, recovered: np.ndarray) -> np.ndarray:
        """(N, d, d) recovered states a -> Hermitian Q with dF = Tr(Q da).

        Qubits: Q = o + sqrt(det o / det a) adj(a), the square-root term
        dropped where det a is zero.  General d: with X = sqrt(o) a
        sqrt(o), Q = sqrt(F) sqrt(o) X^(-1/2) sqrt(o), where X^(-1/2) is a
        pseudo-inverse: eigenvalues zeroed by the floor contribute nothing.
        """
        if self.dim == 2:
            dets = qubit_dets(recovered)
            ratio = np.divide(
                self._dets, dets, out=np.zeros_like(dets), where=dets > 0.0
            )
            # adj(a) = Tr(a) I - a for 2 x 2 matrices
            traces = np.trace(recovered, axis1=-2, axis2=-1)[:, None, None]
            adj = traces * np.eye(2) - recovered
            return self.originals + np.sqrt(ratio)[:, None, None] * adj
        w, v = np.linalg.eigh(self._inner(recovered))
        roots = np.sqrt(floor_eigenvalues(w))
        inverse_roots = np.divide(
            1.0, roots, out=np.zeros_like(roots), where=roots > 0.0
        )
        scale = roots.sum(axis=-1)[:, None] * inverse_roots  # sqrt(F) X^(-1/2)
        middle = (v * scale[:, None, :]) @ v.conj().swapaxes(-1, -2)
        return self._sqrts @ middle @ self._sqrts

    def _inner(self, recovered: np.ndarray) -> np.ndarray:
        inner = self._sqrts @ recovered @ self._sqrts
        return (inner + inner.conj().swapaxes(-1, -2)) / 2.0


class LossContext:
    """Precomputed state for repeated loss and gradient evaluations.

    Holds the corrupted/original ensembles, the generator basis of the
    ansatz, and the fidelity machinery; immutable during a run.
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
        self.basis: list[Generator] = generator_basis(2 * m * d)
        self.n_angles = angle_count(d, m)
        self.base_vectors = identity_frame(d, m).vectors
        self._fidelity = _EnsembleFidelity(self.originals)

    def loss(self, angles: np.ndarray) -> float:
        frames = self._forward(self._check_angles(angles))
        _, recovered = self._recover(frames[-1])
        return float(1.0 - self._fidelity(recovered).mean())

    def gradient(self, angles: np.ndarray) -> tuple[float, np.ndarray]:
        """Loss and exact gradient: one forward and one reverse sweep.

        With frame rows V_a = V_{a-1} M_a^T and C_a = dL/dV_a, angle a
        contributes <C_a, V_{a-1} dM_a^T>, dM_a = cos(theta) J - sin(theta) P,
        and the cotangent moves back as C_{a-1} = C_a M_a (the adjoint
        method).  C_n comes from the fidelity cotangent Q of each state:
        dL/dK_a = -(2/N) sum_n Q_n K_a sigma_n, sigma_n the corrupted
        states, relabeled to frame layout.

        Zero angles are identity factors, so C and V stay fixed across
        each run of them and that run's entries are <J_a, C^T V>, all read
        from one generator_pairings call; only nonzero angles take a dense
        step.  The loss is the one :meth:`loss` returns, from the same
        forward sweep.
        """
        angles = self._check_angles(angles)
        frames = self._forward(angles)
        stack, recovered = self._recover(frames[-1])
        loss = float(1.0 - self._fidelity(recovered).mean())
        q = self._fidelity.cotangent(recovered)
        d_stack = np.einsum("nij,ajk,nkl->ail", q, stack, self.corrupted, optimize=True)
        cot = operator_stack_to_vectors(d_stack * (-2.0 / len(self.corrupted)))
        grad = np.empty(self.n_angles)
        end = self.n_angles  # angles a+1 .. end-1 are zeros
        for a in np.flatnonzero(angles)[::-1]:
            if a + 1 < end:
                grad[a + 1 : end] = generator_pairings(cot, frames[a + 1])[a + 1 : end]
            gen, theta = self.basis[a], angles[a]
            cot_j, cot_p = cot @ gen.matrix, cot @ gen.projector
            cos, sin = np.cos(theta), np.sin(theta)
            grad[a] = np.sum((cos * cot_j - sin * cot_p) * frames[a])
            cot = cot + (cos - 1.0) * cot_p + sin * cot_j
            end = a
        if end > 0:
            grad[:end] = generator_pairings(cot, frames[0])[:end]
        return loss, grad

    def _forward(self, angles: np.ndarray) -> list[np.ndarray]:
        """Frame rows after each transform: frames[a] = V_a, frames[0] = V_0.

        Zero angles are identity factors and share the previous frame.
        """
        frames = [self.base_vectors]
        for gen, theta in zip(self.basis, angles):
            frame = frames[-1]
            if theta != 0.0:
                frame = frame @ finite_transform(gen, theta).T
            frames.append(frame)
        return frames

    def _recover(self, vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Frame rows -> (operator stack, recovered states sum_a K_a sigma K_a^+)."""
        stack = vectors_to_operator_stack(vectors, self.d, self.m)
        recovered = np.einsum(
            "aij,njk,alk->nil", stack, self.corrupted, stack.conj(), optimize=True
        )
        return stack, recovered

    def _check_angles(self, angles) -> np.ndarray:
        angles = np.asarray(angles, dtype=float)
        if angles.shape != (self.n_angles,):
            raise ValueError(
                f"expected {self.n_angles} angles, got shape {angles.shape}"
            )
        if not np.all(np.isfinite(angles)):
            raise ValueError("angles must be finite")
        return angles


def central_difference(func, x: np.ndarray, epsilon: float) -> np.ndarray:
    """Generic central-difference gradient [f(x+eps e_i) - f(x-eps e_i)] / 2eps.

    The reference the exact gradient of LossContext is tested against.
    """
    x = np.asarray(x, dtype=float)
    grad = np.empty_like(x)
    for i in range(x.size):
        shift = np.zeros_like(x)
        shift[i] = epsilon
        grad[i] = (func(x + shift) - func(x - shift)) / (2.0 * epsilon)
    return grad


def learn_quasi_inverse(
    channel: KrausSet, states, cfg: OptimizerConfig
) -> QuasiInverseResult:
    """Learn the quasi-inverse of ``channel`` on a state ensemble.

    States are corrupted once through the channel; descent then runs in
    the angle space of an m-operator ansatz acting on the corrupted
    states.  Returns the best angles seen (the identity start point
    always counts as a candidate, so the result never recovers worse
    than doing nothing), the corresponding channel, the full training
    history, why the descent stopped and which iterate was best.  Each
    iteration takes its loss and gradient from one ``ctx.gradient`` call.
    """
    states = list(states)
    if not states:
        raise ValueError("state ensemble is empty")
    deviation = channel.completeness_deviation()
    if deviation > 1e-6:
        raise ValueError(f"channel violates completeness: {deviation:.3e}")
    d = channel.d
    m = cfg.m if cfg.m is not None else d * d
    originals = np.stack(states)
    corrupted = apply_channel_batch(channel.stack(), originals)
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
    weights = np.array(
        [float(np.trace(op.conj().T @ op).real) / kraus.d for op in kraus.operators]
    )
    return weights, bool(weights.max() >= 0.99)
