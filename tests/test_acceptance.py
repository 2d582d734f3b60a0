"""End-to-end acceptance gates.

Each test reproduces one quantitative or property-based claim at its
stated tolerance and prints one [PASS]/[FAIL] line (visible with
``pytest -s`` and in failure reports).  Criteria 1-7 are desk-scale
experiment reproductions; 8-12 are fast structural properties.

The heavy single-qubit runs use 1000 uniform-Bloch-ball states and the
general 4-operator ansatz; two-qubit runs use 100 Hilbert-Schmidt
states and the unitary ansatz.  Criterion 5's "before" targets are those
of the Hilbert-Schmidt ensemble; on Bures states (seed 21) they are
0.085-0.10 off and even the exact Pauli-tensor recovery stays under the
0.90 bar.  The two-qubit learns are also run on 100 Bures states, where
they are checked against that exact recovery instead.  All seeds are
fixed, so every number here is exactly reproducible.
"""

import numpy as np
import pytest

from kraussphere.channels import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    apply_channel,
    apply_channel_batch,
    depolarizing_channel,
    flip_channel,
    tensor_flip_channel,
)
from kraussphere.geometry import (
    completeness_gram,
    identity_frame,
    symplectic_form,
    symplectic_products,
)
from kraussphere.optimizer import (
    LossContext,
    OptimizerConfig,
    dominant_kraus_report,
    learn_quasi_inverse,
)
from kraussphere.sampling import (
    sample_bloch_ball,
    sample_bures,
    sample_hilbert_schmidt,
)
from kraussphere.transforms import (
    angle_count,
    apply_angles,
    channel_from_angles,
    finite_transform,
    generator_basis,
)

from conftest import amplitude_damping, random_density
from oracles import (
    best_unitary_qubit_fidelity,
    central_difference,
    dense_basis,
    dense_generator,
    embed_transform,
    hessian_spectrum,
    matrix_exp_series,
    optimality_gap,
    pauli_recovery_fidelity,
    petz_recovery,
    recovery_loss,
    reference_fidelity,
)

pytestmark = pytest.mark.acceptance

FLIP_CASES = {
    "bit_flip": (PAULI_X, 0.6989),
    "phase_flip": (PAULI_Z, 0.7051),
    "bit_phase_flip": (PAULI_Y, 0.7259),
}
TWO_QUBIT_BEFORE = {
    "bit_flip": 0.6884,
    "phase_flip": 0.6738,
    "bit_phase_flip": 0.6637,
}
TWO_QUBIT_ENSEMBLE = {"seed": 21, "count": 100, "dim": 4}
P_GRID = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
# the certified optimality gap of criteria 1-3 and 5, fixed before any gap
# of these learns was computed (1.45e-6 was the largest measured on 1-3)
GAP_TOLERANCE = 1e-5


def report(number, passed, detail):
    verdict = "PASS" if passed else "FAIL"
    print(f"[{verdict}] criterion {number}: {detail}")
    return passed


def mean_fidelity(rhos_a, rhos_b):
    return float(np.mean([reference_fidelity(a, b) for a, b in zip(rhos_a, rhos_b)]))


@pytest.fixture(scope="session")
def training_states():
    return sample_bloch_ball(seed=7, count=1000)


@pytest.fixture(scope="session")
def held_out_states():
    return sample_bloch_ball(seed=1007, count=100)


@pytest.fixture(scope="session")
def single_qubit_results(training_states):
    cfg = OptimizerConfig(init="zeros", m=4, max_iters=500)
    return {
        kind: learn_quasi_inverse(flip_channel(kind, 0.8), training_states, cfg)
        for kind in FLIP_CASES
    }


def _learn_two_qubit(states):
    cfg = OptimizerConfig(
        init="zeros", m=1, max_iters=800, loss_tol=1e-9, patience=80
    )
    return {
        kind: learn_quasi_inverse(tensor_flip_channel(kind, 0.8, 2), states, cfg)
        for kind in TWO_QUBIT_BEFORE
    }


@pytest.fixture(scope="session")
def two_qubit_states():
    return sample_hilbert_schmidt(**TWO_QUBIT_ENSEMBLE)


@pytest.fixture(scope="session")
def two_qubit_results(two_qubit_states):
    return _learn_two_qubit(two_qubit_states)


@pytest.fixture(scope="session")
def bures_two_qubit_states():
    return sample_bures(**TWO_QUBIT_ENSEMBLE)


@pytest.fixture(scope="session")
def bures_two_qubit_results(bures_two_qubit_states):
    return _learn_two_qubit(bures_two_qubit_states)


@pytest.fixture(scope="session")
def depolarizing_result(training_states):
    cfg = OptimizerConfig(init="zeros", m=4, max_iters=500)
    return learn_quasi_inverse(depolarizing_channel(0.8), training_states, cfg)


@pytest.fixture(scope="session")
def flip_curves(tmp_path_factory):
    from kraussphere.cli import config_from_dict, run_curve

    curves = {}
    for kind in FLIP_CASES:
        out = tmp_path_factory.mktemp(f"curve_{kind}")
        config = config_from_dict(
            {
                "format_version": 1,
                "channel": {"kind": kind, "p": 0.8, "n_qubits": 1},
                "sample": {
                    "n_qubits": 1,
                    "count": 200,
                    "seed": 40,
                    "measure": "bloch_ball_uniform",
                },
                "optimizer": {
                    "m": 4,
                    "max_iters": 800,
                    "loss_tol": 1e-9,
                    "patience": 80,
                    # random init breaks the symmetry of the p ~ 0.5 saddle,
                    # where the zeros start can stall on a flat plateau
                    "init": "small_random",
                    "init_scale": 0.1,
                    "seed": 1,
                },
                "p_grid": P_GRID,
                "output_dir": str(out),
            }
        )
        curves[kind] = (run_curve(config), out)
    return curves


def _single_qubit_criterion(number, kind, result, states):
    pauli, before_ref = FLIP_CASES[kind]
    before_ok = abs(result.fidelity_before - before_ref) <= 0.05
    after_ok = result.fidelity_after >= 0.95
    ok = report(
        number,
        before_ok and after_ok,
        f"{kind} p=0.8 before={result.fidelity_before:.4f} "
        f"(target {before_ref}+-0.05) after={result.fidelity_after:.4f} (>=0.95), "
        f"{result.iterations_used} iterations",
    )
    assert ok
    # the learn must also reach the exact Pauli recovery on its own states
    exact = pauli_recovery_fidelity(flip_channel(kind, 0.8), pauli, states)
    assert result.fidelity_after >= exact - 1e-3, (
        f"{kind}: after={result.fidelity_after:.6f} < exact {exact:.6f} - 1e-3"
    )


def test_criterion_01_bit_flip_recovery(single_qubit_results, training_states):
    _single_qubit_criterion(
        1, "bit_flip", single_qubit_results["bit_flip"], training_states
    )


def test_criterion_02_phase_flip_recovery(single_qubit_results, training_states):
    _single_qubit_criterion(
        2, "phase_flip", single_qubit_results["phase_flip"], training_states
    )


def test_criterion_03_bit_phase_flip_recovery(single_qubit_results, training_states):
    _single_qubit_criterion(
        3, "bit_phase_flip", single_qubit_results["bit_phase_flip"], training_states
    )


def test_criterion_04_learned_inverses_are_pauli_unitaries(
    single_qubit_results, held_out_states
):
    details = []
    ok = True
    held = np.stack(held_out_states)
    for kind, result in single_qubit_results.items():
        pauli, _ = FLIP_CASES[kind]
        # the Kraus-Gram spectrum's top value: the dominant weight in any gauge
        _, spectrum, unitary = dominant_kraus_report(result.channel)
        recovered = apply_channel_batch(result.channel.operators, held)
        pauli_action = np.einsum("ij,njk,lk->nil", pauli, held, pauli.conj())
        match = mean_fidelity(recovered, pauli_action)
        ok = ok and unitary and spectrum[0] >= 0.99 and match >= 0.99
        details.append(f"{kind}: weight={spectrum[0]:.4f} pauli_match={match:.4f}")
    assert report(4, ok, "; ".join(details) + " (thresholds 0.99)")


def test_criterion_05_two_qubit_recovery(two_qubit_results):
    details = []
    ok = True
    for kind, result in two_qubit_results.items():
        before_ref = TWO_QUBIT_BEFORE[kind]
        before_ok = abs(result.fidelity_before - before_ref) <= 0.06
        after_ok = result.fidelity_after >= 0.90
        ok = ok and before_ok and after_ok
        details.append(
            f"{kind}: before={result.fidelity_before:.4f} "
            f"(target {before_ref}+-0.06) after={result.fidelity_after:.4f} (>=0.90)"
        )
    assert report(5, ok, "; ".join(details))


def test_criterion_05_bures_learns_reach_pauli_recovery(
    bures_two_qubit_results, bures_two_qubit_states
):
    # the descent's optimality does not depend on the ensemble: on Bures
    # states it must still match the exact P(x)P recovery
    details = []
    ok = True
    for kind, result in bures_two_qubit_results.items():
        channel = tensor_flip_channel(kind, 0.8, 2)
        pauli, _ = FLIP_CASES[kind]
        exact = pauli_recovery_fidelity(channel, pauli, bures_two_qubit_states)
        ok = ok and result.fidelity_after >= exact - 1e-3
        details.append(
            f"{kind}: before={result.fidelity_before:.4f} "
            f"after={result.fidelity_after:.4f} (>= exact P(x)P {exact:.4f} - 1e-3)"
        )
    assert report("5-bures", ok, "; ".join(details))


@pytest.mark.parametrize("kind", list(FLIP_CASES))
def test_criteria_01_to_03_learns_are_certified_optimal(
    kind, single_qubit_results, training_states
):
    # no CPTP recovery of any Kraus rank beats these unitary learns by more
    # than the gap (every recovered state is full rank, so the bound holds)
    noise = flip_channel(kind, 0.8).operators
    recovery = single_qubit_results[kind].channel.operators
    gap = optimality_gap(noise, recovery, np.stack(training_states))
    assert gap <= GAP_TOLERANCE, f"{kind}: optimality gap {gap:.3e}"


@pytest.mark.parametrize("kind", list(FLIP_CASES))
def test_criteria_01_to_03_learns_reach_the_best_unitary(
    kind, single_qubit_results, training_states
):
    # the closed-form best unitary (Wahba's problem) bounds every unitary
    # recovery; the learns end 7e-7 to 9e-7 below it
    noise = flip_channel(kind, 0.8).operators
    best = best_unitary_qubit_fidelity(noise, np.stack(training_states))
    after = single_qubit_results[kind].fidelity_after
    assert after >= best - GAP_TOLERANCE, f"{kind}: {after:.7f} < {best:.7f} - 1e-5"


@pytest.fixture(scope="module")
def bit_flip_seed_8_saddle():
    """Criterion 1's config on Bloch-ball seed 8 (bit flip), where the
    zeros start stalls: the learn and the Hessian spectrum at its angles."""
    states = np.stack(sample_bloch_ball(seed=8, count=1000))
    channel = flip_channel("bit_flip", 0.8)
    result = learn_quasi_inverse(
        channel, states, OptimizerConfig(init="zeros", m=4, max_iters=500)
    )
    ctx = LossContext(apply_channel_batch(channel.operators, states), states, 4)
    eigenvalues, _ = hessian_spectrum(ctx, result.angles)
    return result, eigenvalues


def test_bit_flip_seed_8_stops_at_a_saddle(bit_flip_seed_8_saddle):
    # ROADMAP item 1's defect, pinned: the learn stops by loss_tol after 19
    # iterations at 0.720372 (gain 2.5e-6), at a point whose Hessian has
    # 19 eigenvalues below -1e-4, the lowest -0.4896
    result, eigenvalues = bit_flip_seed_8_saddle
    assert result.stop_reason == "loss_tol"
    assert result.fidelity_after - result.fidelity_before <= 1e-5
    assert eigenvalues[0] <= -0.4, f"lowest Hessian eigenvalue {eigenvalues[0]:.4f}"


@pytest.mark.xfail(
    strict=True,
    reason="the zeros start stops at a strict saddle; ROADMAP items 1 (the "
    "negative-curvature step) and 8 (the curvature gate)",
)
def test_bit_flip_seed_8_learn_has_no_negative_curvature(bit_flip_seed_8_saddle):
    # item 8's bound, one-sided: unused Kraus rows give zero eigenvalues
    _, eigenvalues = bit_flip_seed_8_saddle
    assert eigenvalues[0] >= -1e-4, f"lowest Hessian eigenvalue {eigenvalues[0]:.4f}"


@pytest.mark.parametrize(
    "kind",
    [
        "bit_flip",
        "phase_flip",
        pytest.param(
            "bit_phase_flip",
            marks=pytest.mark.xfail(
                strict=True,
                reason="the learn ends at its 800-iteration budget with gradient "
                "norm 4.4e-4 and a certified gap of 1.25e-4; see ROADMAP item 13",
            ),
        ),
    ],
)
def test_criterion_05_learns_are_certified_optimal(
    kind, two_qubit_results, two_qubit_states
):
    noise = tensor_flip_channel(kind, 0.8, 2).operators
    recovery = two_qubit_results[kind].channel.operators
    gap = optimality_gap(noise, recovery, np.stack(two_qubit_states))
    assert gap <= GAP_TOLERANCE, f"{kind}: optimality gap {gap:.3e}"


@pytest.mark.parametrize(
    "init",
    [
        pytest.param("small_random", id="small_random"),
        pytest.param(
            "zeros",
            id="zeros",
            marks=pytest.mark.xfail(
                strict=True,
                reason="the default start never leaves the unitaries: it stops "
                "by patience at iteration 1056 with 0.684078 against Petz "
                "0.842255; see ROADMAP item 14",
            ),
        ),
    ],
)
def test_amplitude_damping_ansatz_capacity(init):
    """The m = 4 ansatz can represent a non-unitary best recovery: the
    learn on amplitude damping gamma = 0.9 (a ``custom`` channel; 300
    Bloch-ball states of seed 7, optimizer seed 1, 3000 iterations,
    loss_tol 0) reaches the transpose-channel (Petz) recovery's fidelity
    and is certified optimal.  From a ``small_random`` start it checks
    capacity; from the default zeros start it is ROADMAP item 14's test,
    which fails until that start can leave the unitaries."""
    states = np.stack(sample_bloch_ball(seed=7, count=300))
    noise = amplitude_damping(0.9)
    cfg = OptimizerConfig(m=4, init=init, seed=1, max_iters=3000, loss_tol=0.0)
    result = learn_quasi_inverse(noise, states, cfg)
    petz = petz_recovery(noise.operators, states)
    petz_fidelity = 1.0 - recovery_loss(noise.operators, petz, states)
    gap = optimality_gap(noise.operators, result.channel.operators, states)
    assert result.fidelity_after >= petz_fidelity - 1e-3, (
        f"after={result.fidelity_after:.6f} < Petz {petz_fidelity:.6f} - 1e-3"
    )
    assert gap <= 1e-4, f"optimality gap {gap:.3e}"


def test_criterion_06_depolarizing_no_recovery(depolarizing_result, held_out_states):
    result = depolarizing_result
    delta = result.fidelity_after - result.fidelity_before
    held = np.stack(held_out_states)
    recovered = apply_channel_batch(result.channel.operators, held)
    identity_action = mean_fidelity(recovered, held)
    ok = delta <= 0.02 and identity_action >= 0.99
    assert report(
        6,
        ok,
        f"depolarizing p=0.8 after-before={delta:.2e} (<=0.02), "
        f"identity action fidelity={identity_action:.4f} (>=0.99)",
    )


def test_depolarizing_exact_x_recovery_beats_the_identity(training_states):
    # depolarizing p=0.8 maps a Bloch vector r to -r/15: past p = 3/4 the
    # state is inverted, and the pi rotation X undoes part of that.  On
    # criterion 6's training states X beats doing nothing by more than
    # its 0.02 bar; criterion 6 passes because its learn stops at the
    # identity
    channel = depolarizing_channel(0.8)
    identity = pauli_recovery_fidelity(channel, np.eye(2), training_states)
    flipped = pauli_recovery_fidelity(channel, PAULI_X, training_states)
    assert identity == pytest.approx(0.773696, abs=1e-6)
    assert flipped == pytest.approx(0.800613, abs=1e-6)
    assert flipped - identity > 0.02


def test_criterion_07_recovery_curves(flip_curves):
    details = []
    ok = True
    for kind, (rows, out_dir) in flip_curves.items():
        after = {row.p: row.fidelity_after for row in rows}
        gap = after[0.9] - after[0.5]
        dip = min(rows, key=lambda row: row.fidelity_after).p
        csv_lines = (out_dir / "curve.csv").read_text().splitlines()
        ok = ok and gap >= 0.1 and dip == 0.5 and len(csv_lines) == len(P_GRID) + 1
        details.append(f"{kind}: after(0.9)-after(0.5)={gap:.4f} dip at p={dip}")
    assert report(7, ok, "; ".join(details) + " (gap >= 0.1)")


@pytest.mark.parametrize("d,m", [(2, 1), (2, 4), (4, 1)])
def test_criterion_08_frame_invariants_under_transformations(d, m):
    rng = np.random.default_rng(80)
    frame = identity_frame(d, m)
    worst = 0.0
    for _ in range(100):
        frame = apply_angles(rng.normal(0.0, 1.0, angle_count(d, m)), frame)
        norms = np.abs(np.sum(frame.vectors**2, axis=1) - 1.0)
        euclid = np.abs(frame.vectors @ frame.vectors.T - np.eye(d))
        sympl = np.abs(symplectic_products(frame))
        gram = np.abs(completeness_gram(frame) - np.eye(d))
        worst = max(worst, norms.max(), euclid.max(), sympl.max(), gram.max())
    assert report(
        8, worst <= 1e-8, f"(d={d}, m={m}) worst frame deviation {worst:.2e} (<=1e-8)"
    ), f"worst deviation {worst}"


def test_criterion_09_closed_form_matches_series():
    # the package's 2 x 2 transform against the series of its own block,
    # and its embedding against the series of the dense real generator
    worst = 0.0
    for dim in (4, 16):
        basis = generator_basis(dim)
        for a, dense in enumerate(dense_basis(dim)):
            block = basis.blocks[basis.kinds[a]]
            for theta in (0.1, 1.0, np.pi, 5.0):
                closed = finite_transform(block, theta)
                compact_gap = np.abs(closed - matrix_exp_series(block, theta))
                dense_gap = np.abs(
                    embed_transform(basis, a, closed) - matrix_exp_series(dense, theta)
                )
                worst = max(worst, compact_gap.max(), dense_gap.max())
    assert report(9, worst <= 1e-10, f"max |closed form - series| = {worst:.2e}")


def test_criterion_10_generator_algebra():
    counts_ok = all(
        len(generator_basis(2 * m * d)) == (m * d) ** 2 - 1
        for d, m in [(2, 1), (2, 2), (2, 4), (4, 1)]
    )
    worst_comm = worst_trace = worst_cube = 0.0
    antisym_ok = True
    for dim in (4, 8, 16):
        s = symplectic_form(dim)
        basis = generator_basis(dim)
        for a in range(len(basis)):
            # the package's block on its two coordinates, in the real chart
            block = basis.blocks[basis.kinds[a]]
            j = dense_generator(basis, a)
            antisym_ok = antisym_ok and np.array_equal(block.conj().T, -block)
            antisym_ok = antisym_ok and np.array_equal(j.T, -j)
            worst_comm = max(worst_comm, np.max(np.abs(s @ j - j @ s)))
            worst_trace = max(worst_trace, abs(np.trace(s.T @ j)))
            worst_cube = max(worst_cube, np.max(np.abs(j @ j @ j + j)))
    ok = (
        counts_ok
        and antisym_ok
        and worst_comm <= 1e-12
        and worst_trace <= 1e-12
        and worst_cube <= 1e-10
    )
    assert report(
        10,
        ok,
        f"counts ok={counts_ok}, J^T=-J exact={antisym_ok}, "
        f"|[S,J]|={worst_comm:.1e}, |Tr S^T J|={worst_trace:.1e}, "
        f"|J^3+J|={worst_cube:.1e}",
    )


def test_criterion_11_all_channels_complete_and_trace_preserving(
    single_qubit_results,
    two_qubit_results,
    bures_two_qubit_results,
    depolarizing_result,
):
    rng = np.random.default_rng(81)
    worst_completeness = 0.0
    channels = [
        flip_channel("bit_flip", 0.35),
        flip_channel("phase_flip", 0.9),
        depolarizing_channel(0.8),
        tensor_flip_channel("bit_phase_flip", 0.8, 2),
        tensor_flip_channel("bit_flip", 0.4, 3),
    ]
    channels += [channel_from_angles(2, 4, rng.normal(0, 1, 63)) for _ in range(5)]
    channels += [res.channel for res in single_qubit_results.values()]
    channels += [res.channel for res in two_qubit_results.values()]
    channels += [res.channel for res in bures_two_qubit_results.values()]
    channels.append(depolarizing_result.channel)
    for channel in channels:
        worst_completeness = max(worst_completeness, channel.completeness_deviation())
    worst_trace = 0.0
    for _ in range(100):
        channel = channels[rng.integers(len(channels))]
        rho = random_density(rng, channel.d)
        out = apply_channel(channel, rho)
        worst_trace = max(worst_trace, abs(np.trace(out).real - 1.0))
    ok = worst_completeness <= 1e-6 and worst_trace <= 1e-8
    assert report(
        11,
        ok,
        f"max completeness deviation {worst_completeness:.2e} (<=1e-6), "
        f"max trace drift {worst_trace:.2e} (<=1e-8)",
    )


def test_criterion_12_gradient_oracle():
    quad = central_difference(lambda v: v[0] ** 2, np.array([1.0]), 1e-6)[0]
    sine = central_difference(lambda v: np.sin(v[0]), np.array([0.0]), 1e-6)[0]
    ok = abs(quad - 2.0) <= 1e-6 and abs(sine - 1.0) <= 1e-6
    assert report(
        12, ok, f"d(theta^2)/dtheta at 1 = {quad:.9f}, d(sin)/dtheta at 0 = {sine:.9f}"
    )


def test_optional_general_two_qubit_ansatz():
    """Criterion 5 thresholds under the full 16-operator ansatz (4095 angles),
    with criterion 5's budget of 800 iterations."""
    states = sample_hilbert_schmidt(**TWO_QUBIT_ENSEMBLE)
    cfg = OptimizerConfig(init="zeros", m=16, max_iters=800)
    result = learn_quasi_inverse(tensor_flip_channel("bit_flip", 0.8, 2), states, cfg)
    before_ok = abs(result.fidelity_before - TWO_QUBIT_BEFORE["bit_flip"]) <= 0.06
    after_ok = result.fidelity_after >= 0.90
    assert report(
        "5-optional",
        before_ok and after_ok,
        f"general ansatz before={result.fidelity_before:.4f} "
        f"after={result.fidelity_after:.4f}, {result.iterations_used} iterations",
    )


@pytest.fixture(scope="module")
def three_qubit_bit_flip():
    """Bit flip p=0.8 on three qubits (d=8, m=1, 63 angles), 100
    Hilbert-Schmidt states of seed 21: the channel, the states and the
    1300-iteration learn."""
    states = sample_hilbert_schmidt(seed=21, count=100, dim=8)
    channel = tensor_flip_channel("bit_flip", 0.8, 3)
    cfg = OptimizerConfig(m=1, max_iters=1300, loss_tol=0.0, patience=1300)
    return channel, states, learn_quasi_inverse(channel, states, cfg)


def test_three_qubit_bit_flip_reaches_pauli_recovery(three_qubit_bit_flip):
    """The multi-qubit claim beyond two qubits.  At the fixed step the
    learn first comes within 1e-3 of the exact X(x)X(x)X recovery at
    iteration 1237, so the budget is 1300."""
    channel, states, result = three_qubit_bit_flip
    exact = pauli_recovery_fidelity(channel, PAULI_X, states)
    assert report(
        "3-qubit",
        result.fidelity_after >= exact - 1e-3,
        f"bit flip before={result.fidelity_before:.4f} "
        f"after={result.fidelity_after:.6f} (>= exact X(x)X(x)X {exact:.6f} - 1e-3), "
        f"{result.iterations_used} iterations",
    )


@pytest.mark.xfail(
    strict=True,
    reason="the learn stops by max_iters (best iteration 1299) at 0.893140 "
    "with gradient norm 6.6e-3 and a certified gap of 1.86e-3; the fixed "
    "step is too slow at d = 8, see ROADMAP items 1 and 6",
)
def test_three_qubit_bit_flip_learn_is_certified_optimal(three_qubit_bit_flip):
    channel, states, result = three_qubit_bit_flip
    gap = optimality_gap(channel.operators, result.channel.operators, np.stack(states))
    assert gap <= GAP_TOLERANCE, f"optimality gap {gap:.3e}"
