"""Benchmark workloads: configs made from a seed, and checks on their outputs.

Every workload learns the quasi-inverse of a bit-flip channel with
p = 0.8 from the identity (zero angles) for a fixed number of
iterations (loss_tol 0, patience equal to the budget).  Runs to a loss
tolerance stop anywhere from 526 to 800 iterations on 100-state
two-qubit ensembles of different seeds, so their wall time measures the seed more
than the program; with a fixed budget it measures the cost of an
iteration, and fidelity_after still shows any loss of quality.  The
seed draws the state ensemble.

The checks read the files the CLI wrote and compare them with oracles
written here in plain numpy, independent of kraussphere: the noise
channel is rebuilt from Pauli matrices and fidelities come from singular
values, (Tr |sqrt(a) sqrt(b)|)^2, instead of the package's closed form
or eigenvalue path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Callable

import numpy as np

BIT_FLIP_P = 0.8
PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    n_qubits: int
    count: int
    measure: str
    m: int
    init: str
    budget: int
    check: Callable

    def config(self, seed: int, output_dir: str) -> dict:
        return {
            "format_version": 1,
            "channel": {"kind": "bit_flip", "p": BIT_FLIP_P, "n_qubits": self.n_qubits},
            "sample": {
                "n_qubits": self.n_qubits,
                "count": self.count,
                "seed": seed,
                "measure": self.measure,
            },
            "optimizer": {
                "m": self.m,
                "init": self.init,
                "seed": seed,
                "max_iters": self.budget,
                "loss_tol": 0.0,
                "patience": self.budget,
            },
            "output_dir": output_dir,
        }


def _near_unitary(out) -> list[str]:
    """Recovery of at least 0.95, by a channel that is effectively unitary:
    one learned operator K carries Tr(K^dagger K) / d >= 0.99 of the weight."""
    failures = []
    if out.result["fidelity_after"] < 0.95:
        failures.append(f"fidelity_after {out.result['fidelity_after']:.6f} < 0.95")
    weights = (np.abs(out.kraus) ** 2).sum(axis=(1, 2)) / out.kraus.shape[-1]
    if weights.max() < 0.99:
        failures.append(f"dominant Kraus weight {weights.max():.6f} < 0.99")
    return failures


def _beats_pauli_recovery(out) -> list[str]:
    flip = np.kron(PAULI_X, PAULI_X)
    exact = float(fidelities(flip @ out.corrupted @ flip, out.states).mean())
    if out.result["fidelity_after"] < exact - 1e-3:
        return [
            f"fidelity_after {out.result['fidelity_after']:.6f} below the exact "
            f"X(x)X recovery {exact:.6f} - 1e-3"
        ]
    return []


def _improves(out) -> list[str]:
    if out.result["fidelity_after"] <= out.result["fidelity_before"]:
        return ["fidelity_after does not exceed fidelity_before"]
    return []


WORKLOADS = {
    w.name: w
    for w in [
        # Criterion 1 (max_iters 500).
        Workload("bitflip_1q", 7, 1, 1000, "bloch_ball_uniform", 4, "zeros",
                 budget=500, check=_near_unitary),
        # Criterion 5 (100 Bures states, m=1, max_iters 800).  The descent
        # comes within 1e-3 of the X(x)X recovery after 295-441 iterations
        # on the 100-state ensembles of 10 seeds tried; on 25 states it took
        # 314-890, so 800 iterations did not reach it on every seed.
        Workload("bitflip_2q", 21, 2, 100, "bures", 1, "zeros",
                 budget=800, check=_beats_pauli_recovery),
        # Criterion 5's ensemble under the general 16-operator ansatz, 4095
        # angles; two iterations are the fewest after which the learned
        # channel can differ from the identity start.  It keeps 100 states:
        # after two iterations fidelity_after is still close to the
        # ensemble's fidelity_before, whose quartile spread over seeds 1-10
        # is 0.011 on 100 states but 0.080 on 20, above the 0.05 bound.
        Workload("general_2q", 21, 2, 100, "bures", 16, "zeros",
                 budget=2, check=_improves),
        # Tiny run for the benchmark's own smoke test; not a benchmark workload.
        Workload("smoke", 7, 1, 20, "bloch_ball_uniform", 1, "zeros",
                 budget=3, check=_improves),
    ]
}


def bit_flip_operators(p: float, n_qubits: int) -> list[np.ndarray]:
    single = [np.sqrt(1.0 - p) * PAULI_I, np.sqrt(p) * PAULI_X]
    ops = []
    for combo in product(single, repeat=n_qubits):
        op = np.eye(1, dtype=complex)
        for factor in combo:
            op = np.kron(op, factor)
        ops.append(op)
    return ops


def apply_operators(ops, states: np.ndarray) -> np.ndarray:
    return sum(op @ states @ op.conj().T for op in ops)


def psd_root(a: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(a)
    return (v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ v.conj().swapaxes(-1, -2)


def fidelities(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Uhlmann fidelities (Tr |sqrt(a) sqrt(b)|)^2 of two (N, d, d) batches."""
    nuclear = np.linalg.svd(psd_root(a) @ psd_root(b), compute_uv=False).sum(axis=-1)
    return nuclear**2


def _matrices(flat_list) -> np.ndarray:
    """[[re, im], ...] row-major entries per matrix -> (N, d, d) complex."""
    arr = np.asarray(flat_list, dtype=float)
    values = arr[..., 0] + 1j * arr[..., 1]
    dim = round(values.shape[-1] ** 0.5)
    return values.reshape(len(values), dim, dim)


@dataclass
class Outputs:
    """One learn's output files, decoded, with the oracle's corrupted states."""

    result: dict
    states: np.ndarray
    corrupted: np.ndarray
    kraus: np.ndarray


def check_run(workload: Workload, out_dir: Path) -> tuple[dict, list[str]]:
    """Check a learn's outputs; return the values read back and any failures."""
    result = json.loads((out_dir / "result.json").read_text())
    states = _matrices(json.loads((out_dir / "states.json").read_text()))
    kraus = _matrices(result["channel"]["operators"])
    d = states.shape[-1]
    corrupted = apply_operators(bit_flip_operators(BIT_FLIP_P, workload.n_qubits), states)
    out = Outputs(result=result, states=states, corrupted=corrupted, kraus=kraus)
    failures = []
    before = float(fidelities(corrupted, states).mean())
    if abs(before - result["fidelity_before"]) > 1e-9:
        failures.append(
            f"fidelity_before {result['fidelity_before']!r} != oracle {before!r}"
        )
    completeness = np.einsum("aji,ajk->ik", kraus.conj(), kraus)
    deviation = np.abs(completeness - np.eye(d)).max()
    if deviation > 1e-6:
        failures.append(f"learned channel completeness deviation {deviation:.3e}")
    after = float(fidelities(apply_operators(kraus, corrupted), states).mean())
    if abs(after - result["fidelity_after"]) > 1e-9:
        failures.append(
            f"fidelity_after {result['fidelity_after']!r} != learned channel's {after!r}"
        )
    losses = [record["loss"] for record in result["history"]]
    if len(losses) != workload.budget:
        failures.append(f"{len(losses)} iterations, budget is {workload.budget}")
    failures.extend(workload.check(out))
    values = {
        "iterations": len(losses),
        "fidelity_before": result["fidelity_before"],
        "fidelity_after": result["fidelity_after"],
        "useful_iter_ratio": (int(np.argmin(losses)) + 1) / len(losses),
    }
    return values, failures
