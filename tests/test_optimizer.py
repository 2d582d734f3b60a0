import numpy as np
import pytest

from kraussphere.channels import (
    PAULI_X,
    apply_channel,
    apply_channel_batch,
    flip_channel,
    tensor_flip_channel,
)
from kraussphere.geometry import KrausSet
from kraussphere.linalg import uhlmann_fidelity
from kraussphere.optimizer import (
    LossContext,
    NonFiniteLossError,
    OptimizerConfig,
    _EnsembleFidelity,
    average_fidelity,
    central_difference,
    dominant_kraus_report,
    learn_quasi_inverse,
)
from kraussphere.sampling import sample_bloch_ball, sample_bures
from kraussphere.transforms import channel_from_angles

from conftest import pure_density, random_density

ZERO = np.diag([1.0, 0.0]).astype(complex)
ONE = np.diag([0.0, 1.0]).astype(complex)


def identity_kraus(d, m):
    ops = [np.eye(d, dtype=complex)]
    ops += [np.zeros((d, d), dtype=complex) for _ in range(m - 1)]
    return KrausSet(d=d, m=m, operators=ops)


class TestAverageFidelity:
    def test_identical_pairs(self):
        rho = random_density(np.random.default_rng(40), 2)
        assert average_fidelity([(rho, rho), (rho, rho)]) == pytest.approx(1.0)

    def test_mean_of_one_and_zero(self):
        pairs = [(ZERO, ZERO), (ZERO, ONE)]
        assert average_fidelity(pairs) == pytest.approx(0.5, abs=1e-10)

    def test_single_mixed_pair(self):
        assert average_fidelity([(np.eye(2) / 2, ZERO)]) == pytest.approx(
            0.5, abs=1e-10
        )

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            average_fidelity([])


class TestEnsembleFidelity:
    """The batched fidelity must agree with uhlmann_fidelity exactly."""

    @pytest.mark.parametrize("dim", [2, 4])
    def test_matches_uhlmann(self, dim):
        rng = np.random.default_rng(41)
        originals = np.stack([random_density(rng, dim) for _ in range(25)])
        recovered = np.stack([random_density(rng, dim) for _ in range(25)])
        batched = _EnsembleFidelity(originals)(recovered)
        direct = [
            uhlmann_fidelity(rec, orig) for rec, orig in zip(recovered, originals)
        ]
        assert np.max(np.abs(batched - direct)) <= 1e-11

    def test_extra_batch_axis(self):
        rng = np.random.default_rng(42)
        originals = np.stack([random_density(rng, 2) for _ in range(6)])
        fid = _EnsembleFidelity(originals)
        variants = np.stack([originals, originals])
        out = fid(variants)
        assert out.shape == (2, 6)
        assert np.allclose(out, 1.0)

    def test_rejects_garbage(self):
        originals = np.stack([ZERO, ONE])
        fid = _EnsembleFidelity(originals)
        with pytest.raises(ValueError, match="outside"):
            fid(np.stack([5.0 * ZERO, 5.0 * ONE]))


class TestLoss:
    def test_zero_angles_clean_states(self):
        rng = np.random.default_rng(43)
        states = [random_density(rng, 2) for _ in range(10)]
        ctx = LossContext(states, states, 2, 4)
        assert ctx.loss(np.zeros(63)) == pytest.approx(0.0, abs=1e-12)

    def test_bit_flip_identity_loss_in_band(self):
        states = sample_bloch_ball(seed=7, count=1000)
        corrupted = apply_channel_batch(
            flip_channel("bit_flip", 0.8).stack(), np.stack(states)
        )
        value = LossContext(corrupted, states, 2, 4).loss(np.zeros(63))
        assert 0.3011 - 0.05 <= value <= 0.3011 + 0.05

    def test_loss_bounded(self):
        rng = np.random.default_rng(44)
        states = [random_density(rng, 2) for _ in range(8)]
        corrupted = [random_density(rng, 2) for _ in range(8)]
        ctx = LossContext(corrupted, states, 2, 2)
        for _ in range(10):
            value = ctx.loss(rng.normal(0, 2, ctx.n_angles))
            assert 0.0 <= value <= 1.0

    def test_matches_full_pipeline(self):
        # dual route: fast context path vs explicit channel + uhlmann mean
        rng = np.random.default_rng(45)
        states = [random_density(rng, 2) for _ in range(12)]
        corrupted = [random_density(rng, 2) for _ in range(12)]
        ctx = LossContext(corrupted, states, 2, 4)
        for _ in range(5):
            angles = rng.normal(0, 1, 63)
            channel = channel_from_angles(2, 4, angles)
            direct = 1.0 - np.mean(
                [
                    uhlmann_fidelity(apply_channel(channel, c), o)
                    for c, o in zip(corrupted, states)
                ]
            )
            assert ctx.loss(angles) == pytest.approx(direct, abs=1e-10)

    def test_shape_validation(self):
        rng = np.random.default_rng(46)
        states = [random_density(rng, 2) for _ in range(3)]
        with pytest.raises(ValueError, match="expected 63 angles"):
            LossContext(states, states, 2, 4).loss(np.zeros(5))
        with pytest.raises(ValueError, match="empty"):
            LossContext([], [], 2, 4)
        with pytest.raises(ValueError, match="shapes differ"):
            LossContext(states, states[:2], 2, 4)


class TestCentralDifference:
    def test_quadratic(self):
        grad = central_difference(lambda v: v[0] ** 2, np.array([1.0]), 1e-6)
        assert grad[0] == pytest.approx(2.0, abs=1e-9)

    def test_sine_at_zero(self):
        grad = central_difference(lambda v: np.sin(v[0]), np.array([0.0]), 1e-6)
        assert grad[0] == pytest.approx(1.0, abs=1e-6)

    def test_multivariate(self):
        func = lambda v: v[0] ** 2 + 3.0 * v[1]
        grad = central_difference(func, np.array([2.0, -1.0]), 1e-6)
        assert np.allclose(grad, [4.0, 3.0], atol=1e-8)


class TestGradient:
    """The exact gradient against the central-difference oracle."""

    def _small_context(self, seed=47, count=8, d=2, m=2):
        rng = np.random.default_rng(seed)
        states = [random_density(rng, d) for _ in range(count)]
        corrupted = [random_density(rng, d) for _ in range(count)]
        return LossContext(corrupted, states, d, m), rng

    def _oracle_gap(self, ctx, angles):
        exact = ctx.gradient(angles)
        assert np.all(np.isfinite(exact))
        return np.max(np.abs(exact - central_difference(ctx.loss, angles, 1e-6)))

    def test_matches_generic_central_difference(self):
        for d in (2, 4):
            for m in (1, 2, 4):
                ctx, rng = self._small_context(d=d, m=m)
                for _ in range(2):
                    angles = rng.normal(0, 0.5, ctx.n_angles)
                    angles[::3] = 0.0  # zero angles are skipped going forward
                    assert self._oracle_gap(ctx, angles) <= 1e-7, (d, m)

    def test_one_sided_consistency(self):
        ctx, rng = self._small_context(seed=48)
        eps = 1e-6
        for _ in range(5):
            angles = rng.normal(0, 0.5, ctx.n_angles)
            grad = ctx.gradient(angles)
            base = ctx.loss(angles)
            for i in range(0, ctx.n_angles, 5):
                shift = np.zeros(ctx.n_angles)
                shift[i] = eps / 10
                one_sided = (ctx.loss(angles + shift) - base) / (eps / 10)
                assert abs(grad[i] - one_sided) <= 1e-3

    def test_stationary_at_clean_identity(self):
        rng = np.random.default_rng(49)
        states = [random_density(rng, 2) for _ in range(20)]
        ctx = LossContext(states, states, 2, 4)
        grad = ctx.gradient(np.zeros(63))
        assert np.linalg.norm(grad) <= 1e-4

    @pytest.mark.parametrize("d", [2, 4])
    @pytest.mark.parametrize(
        "case,m",
        [
            # unitary ansatz on pure states: every recovered state is pure
            ("pure_everywhere", 1),
            # full-rank originals, pure recovered states
            ("pure_recovered", 1),
            # pure originals, mixed recovered states
            ("pure_originals", 2),
        ],
    )
    def test_finite_and_exact_on_pure_inputs(self, d, case, m):
        rng = np.random.default_rng(59)
        pure = [pure_density(rng, d) for _ in range(8)]
        mixed = [random_density(rng, d) for _ in range(8)]
        corrupted = mixed if case == "pure_originals" else pure
        originals = mixed if case == "pure_recovered" else pure
        ctx = LossContext(corrupted, originals, d, m)
        assert self._oracle_gap(ctx, np.zeros(ctx.n_angles)) <= 1e-7
        for _ in range(2):
            assert self._oracle_gap(ctx, rng.normal(0, 0.5, ctx.n_angles)) <= 1e-7


class TestLearnQuasiInverse:
    def test_identity_channel_nothing_to_learn(self):
        states = sample_bloch_ball(seed=51, count=40)
        result = learn_quasi_inverse(
            identity_kraus(2, 4), states, OptimizerConfig(max_iters=50, m=4)
        )
        assert result.fidelity_after >= 0.999
        assert np.array_equal(result.channel.operators[0], np.eye(2))
        for op in result.channel.operators[1:]:
            assert np.max(np.abs(op)) <= 1e-3

    def test_bit_flip_recovery_small(self):
        states = sample_bloch_ball(seed=52, count=60)
        result = learn_quasi_inverse(
            flip_channel("bit_flip", 0.8),
            states,
            OptimizerConfig(max_iters=400, m=4),
        )
        assert result.fidelity_after >= 0.9
        assert result.fidelity_after > result.fidelity_before
        weights, unitary = dominant_kraus_report(result.channel)
        assert unitary and weights[0] >= 0.99

    def test_monotone_contract_random_init(self):
        # best-seen includes the identity start point, so even a random
        # init can never end below the do-nothing fidelity
        states = sample_bloch_ball(seed=53, count=30)
        cfg = OptimizerConfig(
            max_iters=5, m=4, init="small_random", init_scale=0.8, seed=3
        )
        result = learn_quasi_inverse(flip_channel("bit_flip", 0.4), states, cfg)
        assert result.fidelity_after >= result.fidelity_before - 1e-9

    def test_history_contract(self):
        states = sample_bloch_ball(seed=54, count=30)
        result = learn_quasi_inverse(
            flip_channel("phase_flip", 0.7),
            states,
            OptimizerConfig(max_iters=30, m=4),
        )
        first = result.history[0]
        assert first.iteration == 0
        assert first.avg_fidelity == pytest.approx(result.fidelity_before, abs=1e-12)
        for record in result.history:
            assert record.loss == pytest.approx(1.0 - record.avg_fidelity, abs=1e-12)
            assert record.grad_norm >= 0.0
        assert result.fidelity_after == pytest.approx(
            1.0 - min(r.loss for r in result.history), abs=1e-12
        )

    def test_learned_channel_is_cptp(self):
        states = sample_bloch_ball(seed=55, count=25)
        result = learn_quasi_inverse(
            flip_channel("bit_phase_flip", 0.6),
            states,
            OptimizerConfig(max_iters=60, m=4),
        )
        assert result.channel.completeness_deviation() <= 1e-6

    def test_two_qubit_converges_to_pauli_recovery(self):
        # the unitary-ansatz optimum for tensored bit flip noise is X (x) X;
        # check the learned channel reaches that plateau and stays unitary
        states = sample_bures(seed=56, count=40, dim=4)
        channel = tensor_flip_channel("bit_flip", 0.8, 2)
        result = learn_quasi_inverse(
            channel, states, OptimizerConfig(max_iters=600, m=1)
        )
        xx = np.kron(PAULI_X, PAULI_X)
        corrupted = apply_channel_batch(channel.stack(), np.stack(states))
        pauli_fid = np.mean(
            [
                uhlmann_fidelity(xx @ c @ xx.conj().T, o)
                for c, o in zip(corrupted, states)
            ]
        )
        assert result.fidelity_after >= pauli_fid - 0.005
        _, unitary = dominant_kraus_report(result.channel)
        assert unitary

    def test_pure_two_qubit_states_learn(self):
        # rounding-level eigenvalues of pure states must not push the
        # fidelity past 1 + 1e-8 and make the loss raise
        rng = np.random.default_rng(60)
        states = [pure_density(rng, 4) for _ in range(20)]
        result = learn_quasi_inverse(
            tensor_flip_channel("bit_flip", 0.0, 2),
            states,
            OptimizerConfig(max_iters=5, m=1),
        )
        assert result.fidelity_before == pytest.approx(1.0, abs=1e-12)
        assert result.fidelity_after == pytest.approx(1.0, abs=1e-12)

    def test_non_finite_loss_raises_with_iteration(self):
        bad = [np.full((2, 2), np.nan, dtype=complex)]
        with pytest.raises(NonFiniteLossError, match="iteration 0"):
            learn_quasi_inverse(
                identity_kraus(2, 4), bad, OptimizerConfig(max_iters=5, m=4)
            )

    def test_rejects_incomplete_channel(self):
        broken = KrausSet(d=2, m=1, operators=[0.5 * np.eye(2)])
        states = sample_bloch_ball(seed=57, count=5)
        with pytest.raises(ValueError, match="completeness"):
            learn_quasi_inverse(broken, states, OptimizerConfig(max_iters=5, m=1))

    def test_result_serializes(self):
        import json

        states = sample_bloch_ball(seed=58, count=10)
        result = learn_quasi_inverse(
            flip_channel("bit_flip", 0.3), states, OptimizerConfig(max_iters=5, m=1)
        )
        blob = json.dumps(result.to_dict())
        parsed = json.loads(blob)
        assert parsed["fidelity_before"] == result.fidelity_before
        assert len(parsed["history"]) == result.iterations_used


class TestDominantKrausReport:
    def test_identity_set(self):
        weights, unitary = dominant_kraus_report(identity_kraus(2, 4))
        assert np.array_equal(weights, [1.0, 0.0, 0.0, 0.0])
        assert unitary

    def test_bit_flip_not_unitary(self):
        weights, unitary = dominant_kraus_report(flip_channel("bit_flip", 0.8))
        assert np.allclose(weights, [0.2, 0.8])
        assert not unitary

    def test_rejects_incomplete(self):
        with pytest.raises(ValueError, match="completeness"):
            dominant_kraus_report(KrausSet(d=2, m=1, operators=[0.3 * np.eye(2)]))


class TestOptimizerConfig:
    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            OptimizerConfig(eta0=0.0)

    def test_rejects_unknown_init(self):
        with pytest.raises(ValueError, match="unknown init"):
            OptimizerConfig(init="warm")
