import numpy as np
import pytest

from kraussphere.channels import (
    PAULI_X,
    apply_channel,
    apply_channel_batch,
    depolarizing_channel,
    flip_channel,
    tensor_flip_channel,
)
from kraussphere.geometry import KrausSet
from kraussphere import optimizer, transforms
from kraussphere.linalg import UhlmannFidelity, pauli_coordinates, uhlmann_fidelity
from kraussphere.optimizer import (
    LossContext,
    NonFiniteLossError,
    OptimizerConfig,
    dominant_kraus_report,
    learn_quasi_inverse,
)
from kraussphere.sampling import sample_bloch_ball, sample_bures
from kraussphere.transforms import channel_from_angles, generator_basis, reverse_sweep

from conftest import pure_density, random_density, random_hermitian, read_every_row
from oracles import (
    average_fidelity,
    central_difference,
    dense_basis,
    dense_product,
    einsum_cotangent,
    einsum_transfer,
    pauli_contraction,
    pauli_sandwich,
    prefix_pairings,
    real_vectors,
    reference_fidelity,
)

ZERO = np.diag([1.0, 0.0]).astype(complex)
ONE = np.diag([0.0, 1.0]).astype(complex)


def identity_kraus(d, m):
    ops = [np.eye(d, dtype=complex)]
    ops += [np.zeros((d, d), dtype=complex) for _ in range(m - 1)]
    return KrausSet(ops)


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
    """The batched fidelity must agree with the per-pair reference."""

    @pytest.mark.parametrize("dim", [2, 4])
    def test_matches_uhlmann(self, dim):
        rng = np.random.default_rng(41)
        originals = np.stack([random_density(rng, dim) for _ in range(25)])
        recovered = np.stack([random_density(rng, dim) for _ in range(25)])
        batched, _ = UhlmannFidelity(originals).evaluate(recovered)
        direct = [
            reference_fidelity(rec, orig) for rec, orig in zip(recovered, originals)
        ]
        assert np.max(np.abs(batched - direct)) <= 1e-11

    def test_extra_batch_axis(self):
        rng = np.random.default_rng(42)
        originals = np.stack([random_density(rng, 2) for _ in range(6)])
        fid = UhlmannFidelity(originals)
        variants = np.stack([originals, originals])
        out, _ = fid.evaluate(variants)
        assert out.shape == (2, 6)
        assert np.allclose(out, 1.0)

    def test_qubit_flat_entries_match_reference(self):
        # pure and mixed states on both sides, an extra batch axis and a
        # recovered batch that is a strided, non-contiguous view
        rng = np.random.default_rng(62)
        mixed = [random_density(rng, 2) for _ in range(20)]
        pure = [pure_density(rng, 2) for _ in range(20)]
        originals = np.stack(mixed[:10] + pure[:10] + pure[10:])
        recovered = np.stack(pure[:10] + mixed[10:] + pure[10:])
        slots = np.empty(recovered.shape + (2,), dtype=complex)
        slots[..., 0] = recovered
        strided = slots[..., 0]
        assert not strided.flags.c_contiguous
        fid, _ = UhlmannFidelity(originals).evaluate(strided)
        expected = [reference_fidelity(a, o) for a, o in zip(recovered, originals)]
        assert np.max(np.abs(fid - expected)) <= 1e-12
        swapped, _ = UhlmannFidelity(recovered).evaluate(originals)
        assert np.max(np.abs(swapped - expected)) <= 1e-12
        batch, cotangent = UhlmannFidelity(originals).evaluate(
            np.stack([recovered, originals])
        )
        assert batch.shape == (2, 30) and cotangent.shape == (2, 30, 2, 2)
        assert np.max(np.abs(batch[0] - expected)) <= 1e-12
        assert np.max(np.abs(batch[1] - 1.0)) <= 1e-12

    @pytest.mark.parametrize("dim", [2, 4])
    def test_cotangent_matches_central_difference(self, dim):
        # dF = Tr(Q da) along a random Hermitian direction, per state
        rng = np.random.default_rng(63)
        originals = np.stack([random_density(rng, dim) for _ in range(10)])
        recovered = np.stack([random_density(rng, dim) for _ in range(10)])
        direction = np.stack([random_hermitian(rng, dim) for _ in range(10)])
        direction /= np.linalg.norm(direction, axis=(1, 2), keepdims=True)
        fidelity = UhlmannFidelity(originals)
        _, cotangent = fidelity.evaluate(recovered)
        eps = 1e-6
        plus, _ = fidelity.evaluate(recovered + eps * direction)
        minus, _ = fidelity.evaluate(recovered - eps * direction)
        exact = np.einsum("nij,nji->n", cotangent, direction).real
        assert np.max(np.abs(exact - (plus - minus) / (2 * eps))) <= 1e-7

    def test_rejects_garbage(self):
        originals = np.stack([ZERO, ONE])
        fid = UhlmannFidelity(originals)
        with pytest.raises(ValueError, match="outside"):
            fid.evaluate(np.stack([5.0 * ZERO, 5.0 * ONE]))


class TestLoss:
    def test_zero_angles_clean_states(self):
        rng = np.random.default_rng(43)
        states = [random_density(rng, 2) for _ in range(10)]
        ctx = LossContext(states, states, 4)
        assert ctx.loss(np.zeros(63)) == pytest.approx(0.0, abs=1e-12)

    def test_bit_flip_identity_loss_in_band(self):
        states = sample_bloch_ball(seed=7, count=1000)
        corrupted = apply_channel_batch(
            flip_channel("bit_flip", 0.8).operators, np.stack(states)
        )
        value = LossContext(corrupted, states, 4).loss(np.zeros(63))
        assert 0.3011 - 0.05 <= value <= 0.3011 + 0.05

    def test_loss_bounded(self):
        rng = np.random.default_rng(44)
        states = [random_density(rng, 2) for _ in range(8)]
        corrupted = [random_density(rng, 2) for _ in range(8)]
        ctx = LossContext(corrupted, states, 2)
        for _ in range(10):
            value = ctx.loss(rng.normal(0, 2, ctx.n_angles))
            assert 0.0 <= value <= 1.0

    def test_matches_full_pipeline(self):
        # dual route: fast context path vs explicit channel + uhlmann mean
        rng = np.random.default_rng(45)
        states = [random_density(rng, 2) for _ in range(12)]
        corrupted = [random_density(rng, 2) for _ in range(12)]
        ctx = LossContext(corrupted, states, 4)
        for _ in range(5):
            angles = rng.normal(0, 1, 63)
            channel = channel_from_angles(2, 4, angles)
            direct = 1.0 - np.mean(
                [
                    reference_fidelity(apply_channel(channel, c), o)
                    for c, o in zip(corrupted, states)
                ]
            )
            assert ctx.loss(angles) == pytest.approx(direct, abs=1e-10)

    def test_shape_validation(self):
        rng = np.random.default_rng(46)
        states = [random_density(rng, 2) for _ in range(3)]
        with pytest.raises(ValueError, match="expected 63 angles"):
            LossContext(states, states, 4).loss(np.zeros(5))
        with pytest.raises(ValueError, match="empty"):
            LossContext([], [], 4)
        with pytest.raises(ValueError, match="shapes differ"):
            LossContext(states, states[:2], 4)


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
        return LossContext(corrupted, states, m), rng

    def _oracle_gap(self, ctx, angles):
        loss, exact = ctx.gradient(angles)
        assert loss == ctx.loss(angles)
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

    @pytest.mark.parametrize(
        "m,d", [(1, 2), (1, 4), (2, 2), (2, 4), (4, 2), (4, 4), (1, 8)]
    )
    def test_sparse_sweep_on_zero_patterns(self, d, m):
        # runs of zero angles are read from one pairing matrix; check
        # every pattern of runs: all zeros, one nonzero angle at either
        # end or in the middle, mostly zeros, and none (at d=8 too, where
        # all 63 angles of the three-qubit unitary ansatz are nonzero)
        ctx, rng = self._small_context(seed=61, d=d, m=m)
        n = ctx.n_angles
        patterns = [np.zeros(n)]
        for index in (0, n // 2, n - 1):
            one = np.zeros(n)
            one[index] = 0.7
            patterns.append(one)
        sparse = rng.normal(0, 0.5, n)
        sparse[rng.random(n) < 0.9] = 0.0
        patterns += [sparse, rng.normal(0, 0.5, n)]
        for angles in patterns:
            assert self._oracle_gap(ctx, angles) <= 1e-7, np.flatnonzero(angles)

    def test_one_sided_consistency(self):
        ctx, rng = self._small_context(seed=48)
        eps = 1e-6
        for _ in range(5):
            angles = rng.normal(0, 0.5, ctx.n_angles)
            base, grad = ctx.gradient(angles)
            for i in range(0, ctx.n_angles, 5):
                shift = np.zeros(ctx.n_angles)
                shift[i] = eps / 10
                one_sided = (ctx.loss(angles + shift) - base) / (eps / 10)
                assert abs(grad[i] - one_sided) <= 1e-3

    def test_stationary_at_clean_identity(self):
        rng = np.random.default_rng(49)
        states = [random_density(rng, 2) for _ in range(20)]
        ctx = LossContext(states, states, 4)
        _, grad = ctx.gradient(np.zeros(63))
        assert np.linalg.norm(grad) <= 1e-4

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize(
        "case,m",
        [
            # unitary ansatz on pure states: every recovered state is pure
            ("pure_everywhere", 1),
            # full-rank originals, pure recovered states
            ("pure_recovered", 1),
            # pure originals, mixed recovered states
            ("pure_originals", 1),
            ("pure_originals", 2),
        ],
    )
    def test_finite_and_exact_on_pure_inputs(self, d, case, m):
        # 50 draws: with the eigenvalue floor inside rounding noise, a few
        # percent of draws at d = 3 and 4 missed the oracle by up to 2e-3
        rng = np.random.default_rng(59)
        pure = [pure_density(rng, d) for _ in range(8)]
        mixed = [random_density(rng, d) for _ in range(8)]
        corrupted = mixed if case == "pure_originals" else pure
        originals = mixed if case == "pure_recovered" else pure
        ctx = LossContext(corrupted, originals, m)
        assert self._oracle_gap(ctx, np.zeros(ctx.n_angles)) <= 1e-7
        for draw in range(50):
            angles = rng.normal(0, 0.5, ctx.n_angles)
            assert self._oracle_gap(ctx, angles) <= 1e-7, draw

    @pytest.mark.parametrize("m", [1, 4])
    def test_qubit_pauli_path_on_pure_states(self, m):
        # pure originals; the first corrupted state is pure, so under the
        # m = 1 ansatz, and at zero angles under m = 4, its recovered state
        # is pure and det a is floored to zero
        rng = np.random.default_rng(64)
        originals = [pure_density(rng, 2) for _ in range(6)]
        corrupted = [pure_density(rng, 2)] + [random_density(rng, 2) for _ in range(5)]
        ctx = LossContext(corrupted, originals, m)
        assert self._oracle_gap(ctx, np.zeros(ctx.n_angles)) <= 1e-7
        for _ in range(10):
            angles = rng.normal(0, 0.5, ctx.n_angles)
            angles[rng.random(ctx.n_angles) < 0.3] = 0.0
            assert self._oracle_gap(ctx, angles) <= 1e-7

    def test_qubit_gradient_skips_the_matrix_path(self, monkeypatch):
        # the d = 2 loss and gradient work on Pauli coordinates only
        ctx, rng = self._small_context(seed=65, m=4)

        def refuse(*args):
            raise AssertionError("matrix fidelity path used at d = 2")

        monkeypatch.setattr(UhlmannFidelity, "evaluate", refuse)
        angles = rng.normal(0, 0.5, ctx.n_angles)
        loss, grad = ctx.gradient(angles)
        assert loss == ctx.loss(angles) and grad.shape == (ctx.n_angles,)


class TestFixedProducts:
    """The context's fixed 2-D products against the einsum references."""

    @pytest.mark.parametrize(
        "d,m", [(2, 1), (2, 2), (2, 3), (2, 4), (4, 1), (4, 2), (4, 16), (8, 1)]
    )
    @pytest.mark.parametrize("pattern", ["zero", "sparse", "dense"])
    def test_transfer_and_cotangent_match_einsum(self, d, m, pattern):
        rng = np.random.default_rng(66 + d + m)
        count = 7
        originals = np.stack([random_density(rng, d) for _ in range(count)])
        corrupted = np.stack([random_density(rng, d) for _ in range(count)])
        ctx = LossContext(corrupted, originals, m)
        angles = np.zeros(ctx.n_angles)
        if pattern != "zero":
            angles = rng.normal(0.0, 0.7, ctx.n_angles)
        if pattern == "sparse":
            angles[rng.random(ctx.n_angles) < 0.9] = 0.0
        _, rows, _, recovered, aux = ctx._evaluated(angles)
        transfer = einsum_transfer(rows, d, m)
        if d == 2:
            states = pauli_coordinates(corrupted)
            expected = states @ pauli_sandwich(transfer)
            contraction = pauli_contraction(
                pauli_coordinates(originals), states, recovered, aux
            )
        else:
            flat = corrupted.reshape(count, d * d)
            expected = (flat @ transfer).reshape(count, d, d)
            contraction = aux.reshape(count, d * d).T @ flat
        assert np.max(np.abs(recovered - expected)) <= 1e-14
        cotangent = ctx._cotangent(rows, recovered, aux)
        reference = einsum_cotangent(contraction, rows, d, m, count)
        assert np.max(np.abs(cotangent - reference.reshape(m, d * d))) <= 1e-14


def plan_pattern(basis, d, name):
    """Nonzero angles: none, every generator inside K^1's rows, those plus
    the diagonal phase on rows (d - 1, d) that straddles K^1 and K^2, or
    all of them."""
    j, k = basis.pairs.T
    inside = np.flatnonzero(k < d)
    if name == "zeros":
        return []
    if name == "first_operator":
        return inside
    if name == "straddler":
        return sorted([*inside, *np.flatnonzero((basis.kinds == 2) & (j == d - 1))])
    return np.arange(len(basis))


PLAN_CASES = [
    (d, m, name)
    for d, m in [(2, 4), (4, 1), (4, 4), (8, 1)]
    for name in ["zeros", "first_operator", "straddler", "dense"]
    if m > 1 or name != "straddler"  # m = 1 has no row d
]


class TestReversePlan:
    """The context reads only the zero angles' pairings that can be nonzero."""

    @pytest.mark.parametrize("d,m,name", PLAN_CASES)
    def test_context_gradient_matches_dense_prefix_pairings(self, monkeypatch, d, m, name):
        rng = np.random.default_rng(91 + d + m)
        originals = np.stack([random_density(rng, d) for _ in range(5)])
        corrupted = np.stack([random_density(rng, d) for _ in range(5)])
        ctx = LossContext(corrupted, originals, m)
        angles = np.zeros(ctx.n_angles)
        chosen = plan_pattern(ctx.basis, d, name)
        angles[chosen] = rng.uniform(0.1, 1.5, len(chosen)) * rng.choice([-1, 1], len(chosen))
        _, grad = ctx.gradient(angles)
        # C_n from the same evaluation, pulled back to C_0 in the dense chart
        _, rows, swept, recovered, aux = ctx._evaluated(angles)
        cotangent = ctx._cotangent(rows, recovered, aux).reshape(m * d, d)
        dense = dense_basis(2 * m * d)
        left = real_vectors(cotangent) @ dense_product(dense, angles)
        right = real_vectors(ctx.base_rows)
        expected = prefix_pairings(dense, angles, left, right)
        assert np.max(np.abs(grad - expected)) <= 1e-12
        # and bit for bit what reading every zero run gives
        stack = np.concatenate([cotangent, rows], axis=1)
        read_every_row(monkeypatch)
        assert np.array_equal(grad, reverse_sweep(generator_basis(2 * m * d), swept, stack))

    def test_steady_qubit_step_forms_no_pairing_product(self, monkeypatch):
        # bitflip_1q's steady pattern [0, 28, 56, 57] moves only K^1's rows
        # 0 and 1 and the phase of row 2, so no zero angle can pair to
        # anything but 0 and the reverse sweep forms no 8 x 8 Z = C W^†
        states = np.stack(sample_bloch_ball(seed=7, count=50))
        channel = flip_channel("bit_flip", 0.8)
        corrupted = apply_channel_batch(channel.operators, states)
        theta = np.zeros(63)
        ctx = LossContext(corrupted, states, 4)
        for _ in range(3):
            theta = theta - 0.1 * ctx.gradient(theta)[1]
        assert np.flatnonzero(theta).tolist() == [0, 28, 56, 57]
        expected = ctx.gradient(theta)[1]

        products, builds = [], []

        class Counted(np.ndarray):
            """A view of the stack that records the products it starts."""

            def __matmul__(self, other):
                product = np.asarray(self) @ other
                products.append(product.shape)
                return product

        sweep, build = optimizer.reverse_sweep, transforms.reverse_plan

        def counted_sweep(basis, swept, stack):
            return sweep(basis, swept, stack.view(Counted))

        def counted_build(*args):
            builds.append(args)
            return build(*args)

        monkeypatch.setattr(optimizer, "reverse_sweep", counted_sweep)
        monkeypatch.setattr(transforms, "reverse_plan", counted_build)
        fresh = LossContext(corrupted, states, 4)
        fresh.gradient(np.zeros(63))  # the zeros start reads its one run
        assert (products, len(builds)) == ([(8, 8)], 1)
        products.clear()
        assert np.array_equal(fresh.gradient(theta)[1], expected)  # a new plan
        assert (products, len(builds)) == ([], 2)
        assert np.array_equal(fresh.gradient(theta)[1], expected)  # the kept one
        assert (products, len(builds)) == ([], 2)


class TestEvaluationReuse:
    """A gradient at the angles of the last loss starts from its evaluation."""

    CASES = [(2, 4, "zero"), (2, 4, "sparse"), (4, 1, "zero"), (4, 1, "sparse")]

    @staticmethod
    def _context(d, m):
        rng = np.random.default_rng(81 + d)
        originals = np.stack([random_density(rng, d) for _ in range(6)])
        corrupted = np.stack([random_density(rng, d) for _ in range(6)])
        return LossContext(corrupted, originals, m)

    @staticmethod
    def _angles(ctx, pattern, seed=0):
        angles = np.zeros(ctx.n_angles)
        if pattern == "sparse":
            rng = np.random.default_rng(seed)
            picked = rng.choice(ctx.n_angles, size=5, replace=False)
            angles[picked] = rng.normal(0.0, 0.5, 5)
        return angles

    def _fresh_gradient(self, ctx, angles):
        # a context that has made no loss call evaluates anew
        return self._context(ctx.d, ctx.m).gradient(angles)

    @staticmethod
    def _same(got, expected):
        (loss, grad), (expected_loss, expected_grad) = got, expected
        assert loss == expected_loss
        assert np.array_equal(grad, expected_grad)

    @pytest.mark.parametrize("d,m,pattern", CASES)
    def test_gradient_after_loss_reuses_the_point(self, d, m, pattern):
        ctx = self._context(d, m)
        angles = self._angles(ctx, pattern)
        fresh_step = self._fresh_gradient(ctx, angles)
        assert ctx.loss(angles) == fresh_step[0]
        self._same(ctx.gradient(angles), fresh_step)
        assert (ctx.loss_evaluations, ctx.gradient_evaluations) == (1, 1)

    @pytest.mark.parametrize("d,m,pattern", CASES)
    def test_gradient_at_other_angles_recomputes(self, d, m, pattern):
        ctx = self._context(d, m)
        angles = self._angles(ctx, pattern)
        other = self._angles(ctx, "sparse", seed=1)
        ctx.loss(angles)
        self._same(ctx.gradient(other), self._fresh_gradient(ctx, other))
        assert ctx.loss_evaluations == 2

    @pytest.mark.parametrize("d,m,pattern", CASES)
    def test_angles_changed_in_place_are_not_reused(self, d, m, pattern):
        ctx = self._context(d, m)
        angles = self._angles(ctx, pattern)
        ctx.loss(angles)
        angles[3] += 0.25
        self._same(ctx.gradient(angles), self._fresh_gradient(ctx, angles))
        assert ctx.loss_evaluations == 2

    @pytest.mark.parametrize("d,m,pattern", CASES)
    def test_second_gradient_recomputes(self, d, m, pattern):
        ctx = self._context(d, m)
        angles = self._angles(ctx, pattern)
        fresh_step = self._fresh_gradient(ctx, angles)
        ctx.loss(angles)
        self._same(ctx.gradient(angles), fresh_step)
        self._same(ctx.gradient(angles), fresh_step)
        assert (ctx.loss_evaluations, ctx.gradient_evaluations) == (2, 2)

    @pytest.mark.parametrize("d,m", [(2, 4), (4, 1)])
    def test_bad_angles_still_raise_after_a_loss(self, d, m):
        ctx = self._context(d, m)
        angles = self._angles(ctx, "zero")
        ctx.loss(angles)
        bad = angles.copy()
        bad[2] = np.nan
        for wrong in (bad, np.zeros(ctx.n_angles + 1), np.zeros(ctx.n_angles - 1)):
            with pytest.raises(ValueError):
                ctx.gradient(wrong)
        self._same(ctx.gradient(angles), self._fresh_gradient(ctx, angles))

    @pytest.mark.parametrize("d,m", [(2, 4), (4, 1)])
    @pytest.mark.parametrize("init", ["zeros", "small_random"])
    def test_learn_evaluates_each_iterate_once(self, monkeypatch, d, m, init):
        # count the fidelity passes through the evaluator the context binds
        calls = []
        if d == 2:
            owner, name = optimizer, "qubit_fidelity"
            states = sample_bloch_ball(seed=59, count=20)
            channel = flip_channel("bit_flip", 0.8)
        else:
            owner, name = UhlmannFidelity, "evaluate"
            states = sample_bures(seed=59, count=10, dim=4)
            channel = tensor_flip_channel("bit_flip", 0.8, 2)
        inner = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(None)
            return inner(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        cfg = OptimizerConfig(
            max_iters=7, m=m, loss_tol=0.0, patience=7, init=init, init_scale=0.1
        )
        result = learn_quasi_inverse(channel, states, cfg)
        used = result.iterations_used
        assert used == 7
        expected = used if init == "zeros" else used + 1
        assert len(calls) == result.loss_evaluations == expected
        assert result.gradient_evaluations == used


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

    @pytest.mark.parametrize(
        "channel,nonzero",
        [(flip_channel("phase_flip", 0.8), [0, 28, 56, 57]), (depolarizing_channel(0.8), [])],
        ids=["phase_flip", "depolarizing"],
    )
    def test_zeros_start_learns_one_operator(self, monkeypatch, channel, nonzero):
        # from the identity the rows of K^2..K^4 are zero, the cotangent
        # S M is zero on them, and only phases touch them: every iterate
        # moves inside angles 0, 28, 56, 57 and the result is one unitary
        visited = set()
        gradient = LossContext.gradient

        def recording(self, angles):
            visited.update(np.flatnonzero(angles).tolist())
            return gradient(self, angles)

        monkeypatch.setattr(LossContext, "gradient", recording)
        states = np.stack(sample_bloch_ball(seed=7, count=300))
        result = learn_quasi_inverse(channel, states, OptimizerConfig(max_iters=200, m=4))
        assert visited <= {0, 28, 56, 57}
        assert np.flatnonzero(result.angles).tolist() == nonzero
        assert not result.channel.operators[1:].any()

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

    def test_stops_at_max_iters_with_best_iterate(self):
        states = sample_bloch_ball(seed=54, count=30)
        cfg = OptimizerConfig(max_iters=6, m=1, loss_tol=0.0, patience=6)
        result = learn_quasi_inverse(flip_channel("bit_flip", 0.7), states, cfg)
        assert result.stop_reason == "max_iters" and result.iterations_used == 6
        best = result.history[result.best_iteration]
        assert best.loss == min(r.loss for r in result.history)
        assert result.fidelity_after == 1.0 - best.loss

    def test_stops_at_loss_tol(self):
        states = sample_bloch_ball(seed=54, count=30)
        cfg = OptimizerConfig(max_iters=50, m=1, loss_tol=1.0)
        result = learn_quasi_inverse(flip_channel("bit_flip", 0.7), states, cfg)
        assert result.stop_reason == "loss_tol" and result.iterations_used == 2
        assert result.best_iteration == 1

    def test_stops_at_patience_on_the_identity(self):
        # nothing beats the identity on a noiseless channel, so a zeros
        # start keeps iterate 0 and a random start falls back to the
        # identity, which is no iterate
        states = sample_bloch_ball(seed=54, count=30)
        for init, patience, best in (("zeros", 1, 0), ("small_random", 3, None)):
            cfg = OptimizerConfig(
                max_iters=50, m=2, loss_tol=0.0, patience=patience, init=init, seed=4
            )
            result = learn_quasi_inverse(identity_kraus(2, 2), states, cfg)
            assert result.stop_reason == "patience"
            assert result.iterations_used == patience
            assert result.best_iteration == best
            assert np.array_equal(result.angles, np.zeros(15))

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
        corrupted = apply_channel_batch(channel.operators, np.stack(states))
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

    def test_non_finite_loss_raises_with_iteration(self, monkeypatch):
        # valid states cannot make the loss NaN, so the gradient is forced
        # to; invalid states are refused up front (next test)
        calls = []

        def nan_after_one(ctx, angles):
            calls.append(1)
            value = 0.5 if len(calls) == 1 else np.nan
            return value, np.zeros(ctx.n_angles)

        monkeypatch.setattr(LossContext, "gradient", nan_after_one)
        states = sample_bloch_ball(seed=57, count=5)
        cfg = OptimizerConfig(max_iters=5, m=4, loss_tol=0.0)
        with pytest.raises(NonFiniteLossError, match="iteration 1") as caught:
            learn_quasi_inverse(identity_kraus(2, 4), states, cfg)
        assert caught.value.iteration == 1

    def test_non_finite_gradient_is_named(self, monkeypatch):
        # a finite loss with a NaN gradient used to read "non-finite loss"
        def nan_gradient(ctx, angles):
            return 0.5, np.full(ctx.n_angles, np.nan)

        monkeypatch.setattr(LossContext, "gradient", nan_gradient)
        states = sample_bloch_ball(seed=57, count=5)
        cfg = OptimizerConfig(max_iters=5, m=4)
        with pytest.raises(NonFiniteLossError, match="non-finite gradient") as caught:
            learn_quasi_inverse(identity_kraus(2, 4), states, cfg)
        assert caught.value.iteration == 0
        assert "loss" not in str(caught.value)

    @pytest.mark.parametrize(
        "bad,match",
        [
            (np.full((4, 4), np.nan), "has non-finite"),
            (np.triu(np.ones((4, 4))) / 4, "not Hermitian"),
            (np.eye(4) / 2, "trace"),
            (np.diag([1.0, 0.5, -0.25, -0.25]), "not PSD"),
        ],
        ids=["nan", "non_hermitian", "trace", "non_psd"],
    )
    def test_rejects_invalid_states(self, bad, match):
        rng = np.random.default_rng(62)
        states = [random_density(rng, 4) for _ in range(4)]
        states[2] = bad.astype(complex)
        channel = tensor_flip_channel("bit_flip", 0.8, 2)
        with pytest.raises(ValueError, match="state 2: " + match):
            learn_quasi_inverse(channel, states, OptimizerConfig(max_iters=5, m=1))

    def test_rejects_m_above_d_squared_before_corrupting(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("states corrupted before the m check")

        monkeypatch.setattr(optimizer, "apply_channel_batch", refuse)
        states = sample_bloch_ball(seed=57, count=5)
        cfg = OptimizerConfig(max_iters=5, m=5)
        with pytest.raises(ValueError, match=r"m=5 exceeds d\^2=4"):
            learn_quasi_inverse(flip_channel("bit_flip", 0.8), states, cfg)

    def test_rejects_states_of_another_dimension_before_corrupting(
        self, monkeypatch
    ):
        def refuse(*args):
            raise AssertionError("states corrupted before the dimension check")

        monkeypatch.setattr(optimizer, "apply_channel_batch", refuse)
        states = sample_bures(seed=1, count=3, dim=4)
        cfg = OptimizerConfig(max_iters=2)
        with pytest.raises(ValueError, match=r"2 x 2 states, .* shape \(4, 4\)"):
            learn_quasi_inverse(flip_channel("bit_flip", 0.2), states, cfg)

    def test_rejects_incomplete_channel(self):
        broken = KrausSet([0.5 * np.eye(2)])
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
        assert parsed["stop_reason"] == result.stop_reason == "max_iters"
        assert parsed["best_iteration"] == result.best_iteration
        assert parsed["loss_evaluations"] == result.loss_evaluations == 5
        assert parsed["gradient_evaluations"] == result.gradient_evaluations == 5


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
            dominant_kraus_report(KrausSet([0.3 * np.eye(2)]))


class TestOptimizerConfig:
    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            OptimizerConfig(eta0=0.0)

    def test_rejects_unknown_init(self):
        with pytest.raises(ValueError, match="unknown init"):
            OptimizerConfig(init="warm")
