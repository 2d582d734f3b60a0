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
from kraussphere.linalg import UhlmannFidelity, uhlmann_fidelity
from kraussphere.optimizer import (
    LossContext,
    NonFiniteLossError,
    OptimizerConfig,
    dominant_kraus_report,
    learn_quasi_inverse,
)
from kraussphere.sampling import sample_bloch_ball, sample_bures
from kraussphere.transforms import (
    channel_from_angles,
    forward_sweep,
    generator_basis,
    reverse_sweep,
)

from conftest import (
    amplitude_damping,
    exactly,
    pure_density,
    random_channel,
    random_density,
    random_hermitian,
    read_every_row,
)
from oracles import (
    average_fidelity,
    best_unitary_qubit_fidelity,
    central_difference,
    dense_basis,
    dense_product,
    einsum_cotangent,
    einsum_transfer,
    haar_unitary,
    hessian_spectrum,
    optimality_gap,
    per_state_qubit_step,
    petz_recovery,
    prefix_pairings,
    real_vectors,
    recovery_loss,
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
        message = "expected states of shape (N, d, d), got (3, 2, 3)"
        with pytest.raises(ValueError, match=exactly(message)):
            LossContext(np.zeros((3, 2, 3)), np.zeros((3, 2, 3)), 1)


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


def evaluated_with_pass(monkeypatch, ctx, angles) -> tuple:
    """``ctx._evaluated(angles)`` and the recovered states its fidelity
    pass was given with the cotangents Q_n it returned, None where it made
    no such pass (the unitary qubit shortcut)."""
    passes = []
    inner = UhlmannFidelity.evaluate

    def matrix_pass(self, recovered):
        fid, cotangents = inner(self, recovered)
        passes.append((recovered, cotangents))
        return fid, cotangents

    monkeypatch.setattr(UhlmannFidelity, "evaluate", matrix_pass)
    point = ctx._evaluated(angles)
    return point, (passes[0] if passes else None)


class TestFixedProducts:
    """The ensembles' fixed 2-D products against the einsum references
    and against each other."""

    @pytest.mark.parametrize(
        "d,m", [(2, 1), (2, 2), (2, 3), (2, 4), (4, 1), (4, 2), (4, 16), (8, 1)]
    )
    @pytest.mark.parametrize("pattern", ["zero", "sparse", "dense"])
    def test_transfer_and_cotangent_match_einsum(self, monkeypatch, d, m, pattern):
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
        point, fidelity_pass = evaluated_with_pass(monkeypatch, ctx, angles)
        _, rows, _, cotangent = point  # C = S M, (m, d^2)
        flat = corrupted.reshape(count, d * d)
        expected = (flat @ einsum_transfer(rows, d, m)).reshape(count, d, d)
        # the qubit shortcut (m = 1 or zero angles) forms no recovered
        # state, and its fixed M0 is the contraction of Q_n = o_n
        shortcut = d == 2 and (m == 1 or pattern == "zero")
        assert (fidelity_pass is None) == shortcut
        if shortcut:
            cotangents = originals
        else:
            recovered, cotangents = fidelity_pass
            assert np.max(np.abs(recovered - expected)) <= 1e-14
        contraction = cotangents.reshape(count, d * d).T @ flat
        reference = einsum_cotangent(contraction, rows, d, m, count)
        assert np.max(np.abs(cotangent - reference.reshape(m, d * d))) <= 1e-14

    @pytest.mark.parametrize("m", [1, 2, 4])
    @pytest.mark.parametrize("pattern", ["unitary", "sparse", "dense"])
    def test_qubit_and_matrix_ensembles_agree(self, monkeypatch, m, pattern):
        # at d = 2 the per-state matrix path agrees with the flat-entry
        # oracle, and at a unitary point the linear shortcut agrees with
        # both; pairs 0-2 have pure originals, pairs 2-4 pure corrupted
        # states
        rng = np.random.default_rng(71 + m)
        originals = [pure_density(rng, 2) for _ in range(3)]
        originals += [random_density(rng, 2) for _ in range(6)]
        corrupted = [random_density(rng, 2) for _ in range(2)]
        corrupted += [pure_density(rng, 2) for _ in range(3)]
        corrupted += [random_density(rng, 2) for _ in range(4)]
        originals, corrupted = np.stack(originals), np.stack(corrupted)
        ctx = LossContext(corrupted, originals, m)
        probe = LossContext(corrupted, originals, m)
        probe._fixed_cotangent = None  # no M0, no shortcut: per-state everywhere
        if pattern == "unitary":
            angles = unitary_angles(ctx, rng)
        else:
            angles = rng.normal(0.0, 0.7, ctx.n_angles)
        if pattern == "sparse":
            angles[rng.random(ctx.n_angles) < 0.8] = 0.0
        rows = ctx.base_rows.copy()
        forward_sweep(ctx.basis, angles, rows)
        unitary = not rows[2:].any()
        assert unitary == (m == 1 or pattern == "unitary")

        calls = count_fidelity_passes(monkeypatch)
        steps = [per_state_qubit_step(corrupted, originals, m, angles)]
        # a pure corrupted state stays pure at a unitary point, where
        # sqrt(det a) has no derivative: the paths take different finite M
        # there, which pair to the same gradient
        steps += [probe.gradient(angles), ctx.gradient(angles)]
        assert len(calls) == (1 if unitary else 2)
        (expected_loss, expected_grad), *paths = steps
        for loss, grad in paths:
            assert abs(loss - expected_loss) <= 1e-12
            assert np.max(np.abs(grad - expected_grad)) <= 1e-12


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


def count_stack_products(monkeypatch) -> list:
    """Run the context's reverse sweeps on a view of their stack that
    records the shape of every product it starts; returns the record."""
    products = []

    class Counted(np.ndarray):
        def __matmul__(self, other):
            product = np.asarray(self) @ other
            products.append(product.shape)
            return product

        def __rmatmul__(self, other):
            product = other @ np.asarray(self)
            products.append(product.shape)
            return product

    sweep = optimizer.reverse_sweep

    def counted_sweep(basis, swept, stack):
        return sweep(basis, swept, stack.view(Counted))

    monkeypatch.setattr(optimizer, "reverse_sweep", counted_sweep)
    return products


class TestReversePlan:
    """The context reads only the zero angles' pairings that can be nonzero,
    each from its own two rows of the stack."""

    @pytest.mark.parametrize("d,m,name", PLAN_CASES)
    def test_context_gradient_matches_dense_prefix_pairings(self, monkeypatch, d, m, name):
        rng = np.random.default_rng(91 + d + m)
        originals = np.stack([random_density(rng, d) for _ in range(5)])
        corrupted = np.stack([random_density(rng, d) for _ in range(5)])
        ctx = LossContext(corrupted, originals, m)
        angles = np.zeros(ctx.n_angles)
        chosen = plan_pattern(ctx.basis, d, name)
        angles[chosen] = rng.uniform(0.1, 1.5, len(chosen)) * rng.choice([-1, 1], len(chosen))
        products = count_stack_products(monkeypatch)
        _, grad = ctx.gradient(angles)
        assert products == []  # every angle paired from its own two rows
        # C_n from the same evaluation, pulled back to C_0 in the dense chart
        _, rows, swept, cotangent = ctx._evaluated(angles)
        cotangent = cotangent.reshape(m * d, d)
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
        # no reverse sweep starts a product on its stack: the zeros start
        # gathers its one run of candidates [0, 28, 56, 57] by one take,
        # and bitflip_1q's steady pattern [0, 28, 56, 57] moves only K^1's
        # rows 0 and 1 and the phase of row 2, so no zero angle can pair
        # to anything but 0 and the sweep reads none
        states = np.stack(sample_bloch_ball(seed=7, count=50))
        channel = flip_channel("bit_flip", 0.8)
        corrupted = apply_channel_batch(channel.operators, states)
        theta = np.zeros(63)
        ctx = LossContext(corrupted, states, 4)
        for _ in range(3):
            theta = theta - 0.1 * ctx.gradient(theta)[1]
        assert np.flatnonzero(theta).tolist() == [0, 28, 56, 57]
        expected = ctx.gradient(theta)[1]

        products, builds = count_stack_products(monkeypatch), []
        build = transforms.reverse_plan

        def counted_build(*args):
            builds.append(args)
            return build(*args)

        monkeypatch.setattr(transforms, "reverse_plan", counted_build)
        fresh = LossContext(corrupted, states, 4)
        fresh.gradient(np.zeros(63))  # the zeros start gathers its one run
        assert (products, len(builds)) == ([], 1)
        runs, angles, _ = fresh.basis.plan[1]
        assert list(runs) == [0] and angles.tolist() == [0, 28, 56, 57]
        assert np.array_equal(fresh.gradient(theta)[1], expected)  # a new plan
        assert (products, len(builds)) == ([], 2)
        runs, angles, _ = fresh.basis.plan[1]
        assert runs == {} and angles.tolist() == [0, 28, 56, 57]
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
    def test_gradient_after_loss_reuses_the_point(self, monkeypatch, d, m, pattern):
        ctx = self._context(d, m)
        angles = self._angles(ctx, pattern)
        fresh_step = self._fresh_gradient(ctx, angles)
        formed = []
        inner = LossContext._cotangent_matrix

        def counted(*args):
            formed.append(None)
            return inner(*args)

        monkeypatch.setattr(LossContext, "_cotangent_matrix", counted)
        assert ctx.loss(angles) == fresh_step[0]
        self._same(ctx.gradient(angles), fresh_step)
        assert (ctx.loss_evaluations, ctx.gradient_evaluations) == (1, 1)
        # M is formed once, by the loss; the qubit zero angles take the
        # M0 formed at construction
        assert len(formed) == (0 if (d, pattern) == (2, "zero") else 1)

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
        # count the context's evaluations (forward sweep and loss), whichever
        # path each takes: a zeros-start qubit learn forms no fidelities
        calls = []
        if d == 2:
            states = sample_bloch_ball(seed=59, count=20)
            channel = flip_channel("bit_flip", 0.8)
        else:
            states = sample_bures(seed=59, count=10, dim=4)
            channel = tensor_flip_channel("bit_flip", 0.8, 2)
        inner = LossContext._evaluated

        def counted(*args, **kwargs):
            calls.append(None)
            return inner(*args, **kwargs)

        monkeypatch.setattr(LossContext, "_evaluated", counted)
        cfg = OptimizerConfig(
            max_iters=7, m=m, loss_tol=0.0, patience=7, init=init, init_scale=0.1
        )
        result = learn_quasi_inverse(channel, states, cfg)
        used = result.iterations_used
        assert used == 7
        expected = used if init == "zeros" else used + 1
        assert len(calls) == result.loss_evaluations == expected
        assert result.gradient_evaluations == used


def unitary_angles(ctx, rng) -> np.ndarray:
    """Random angles that keep the channel unitary: every generator inside
    K^1's rows, plus (m > 1) the diagonal phase on rows (1, 2) that
    straddles K^1 and K^2 and keeps K^2's zero rows zero."""
    angles = np.zeros(ctx.n_angles)
    chosen = plan_pattern(ctx.basis, 2, "straddler" if ctx.m > 1 else "first_operator")
    angles[chosen] = rng.normal(0.0, 1.0, len(chosen))
    return angles


def count_fidelity_passes(monkeypatch) -> list:
    """Record every per-state fidelity pass (UhlmannFidelity.evaluate)."""
    calls = []
    inner = UhlmannFidelity.evaluate

    def counted(*args, **kwargs):
        calls.append(None)
        return inner(*args, **kwargs)

    monkeypatch.setattr(UhlmannFidelity, "evaluate", counted)
    return calls


def count_fidelity_builds(monkeypatch) -> list:
    """Record every UhlmannFidelity the optimizer builds."""
    builds = []

    class Counted(UhlmannFidelity):
        def __init__(self, originals):
            builds.append(None)
            super().__init__(originals)

    monkeypatch.setattr(optimizer, "UhlmannFidelity", Counted)
    return builds


class TestUnitaryPath:
    """At a unitary qubit point the loss is read off the cotangent rows
    C = S M0 and the context forms no Gram matrix and no per-state
    fidelity."""

    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_matches_the_per_state_path(self, monkeypatch, m):
        rng = np.random.default_rng(95 + m)
        calls = count_fidelity_passes(monkeypatch)
        for draw in range(20):
            # pure originals or corrupted states in some draws: det = 0
            pick = pure_density if draw % 3 == 0 else random_density
            originals = np.stack([pick(rng, 2) for _ in range(9)])
            pick = pure_density if draw % 4 == 1 else random_density
            corrupted = np.stack([pick(rng, 2) for _ in range(9)])
            ctx = LossContext(corrupted, originals, m)
            for angles in (np.zeros(ctx.n_angles), unitary_angles(ctx, rng)):
                loss, grad = ctx.gradient(angles)
                assert not calls
                expected_loss, expected_grad = per_state_qubit_step(
                    corrupted, originals, m, angles
                )
                assert abs(loss - expected_loss) <= 1e-12
                assert np.max(np.abs(grad - expected_grad)) <= 1e-12
                assert ctx.loss(angles) == loss

    def test_zeros_start_learn_forms_no_fidelity(self, monkeypatch):
        # it does not even build the per-state fidelity
        calls = count_fidelity_passes(monkeypatch)
        builds = count_fidelity_builds(monkeypatch)
        states = sample_bloch_ball(seed=59, count=50)
        cfg = OptimizerConfig(max_iters=30, m=4, loss_tol=0.0, patience=30)
        result = learn_quasi_inverse(flip_channel("bit_flip", 0.8), states, cfg)
        assert result.iterations_used == 30 and result.loss_evaluations == 30
        assert calls == [] and builds == []

    def test_small_random_learn_takes_the_per_state_path(self, monkeypatch):
        calls = count_fidelity_passes(monkeypatch)
        builds = count_fidelity_builds(monkeypatch)
        states = sample_bloch_ball(seed=59, count=50)
        cfg = OptimizerConfig(
            max_iters=5, m=4, loss_tol=0.0, patience=5, init="small_random"
        )
        result = learn_quasi_inverse(flip_channel("bit_flip", 0.8), states, cfg)
        # the identity's loss is a unitary point; every iterate is not, and
        # the first of them builds the per-state fidelity
        assert len(calls) == result.loss_evaluations - 1 == 5
        assert len(builds) == 1

    def test_spread_gauge_unitary_takes_the_per_state_path(self, monkeypatch):
        # a unitary W inside K^1 (its sym and anti rotations on rows 0, 1),
        # then E_02 - E_20 and E_13 - E_31 by one angle t, give
        # K^1 = cos(t) W, K^2 = -sin(t) W: the channel W in another Kraus
        # gauge, whose K^2 rows are not zero
        rng = np.random.default_rng(97)
        originals = np.stack([random_density(rng, 2) for _ in range(9)])
        corrupted = np.stack([random_density(rng, 2) for _ in range(9)])
        calls = count_fidelity_passes(monkeypatch)
        ctx = LossContext(corrupted, originals, 4)
        pairs, kinds = ctx.basis.pairs.tolist(), ctx.basis.kinds.tolist()
        index = {(kind, *pair): a for a, (pair, kind) in enumerate(zip(pairs, kinds))}
        angles = np.zeros(ctx.n_angles)
        angles[[index[0, 0, 1], index[1, 0, 1]]] = rng.normal(0.0, 1.0, 2)
        spread = angles.copy()
        spread[[index[1, 0, 2], index[1, 1, 3]]] = 0.6
        channel = channel_from_angles(2, 4, spread).operators
        assert np.allclose(channel[1], -np.tan(0.6) * channel[0])
        unitary_loss = ctx.loss(angles)
        assert calls == []
        spread_loss, grad = ctx.gradient(spread)
        assert len(calls) == 1
        assert abs(spread_loss - unitary_loss) <= 1e-12
        expected_loss, expected_grad = per_state_qubit_step(
            corrupted, originals, 4, spread
        )
        assert abs(spread_loss - expected_loss) <= 1e-12
        assert np.max(np.abs(grad - expected_grad)) <= 1e-12

    def test_any_nonzero_row_below_k1_takes_the_per_state_path(self, monkeypatch):
        # one rotation of row 0 into row 2 leaves rows 1 and 3 alone: only
        # the first row of K^2 is nonzero, and the channel is not unitary
        rng = np.random.default_rng(98)
        originals = np.stack([random_density(rng, 2) for _ in range(9)])
        corrupted = np.stack([random_density(rng, 2) for _ in range(9)])
        calls = count_fidelity_passes(monkeypatch)
        ctx = LossContext(corrupted, originals, 2)
        pairs, kinds = ctx.basis.pairs.tolist(), ctx.basis.kinds.tolist()
        angles = unitary_angles(ctx, rng)
        angles[[a for a, k in enumerate(kinds) if k == 1 and pairs[a] == [0, 2]]] = 0.6
        loss, grad = ctx.gradient(angles)
        assert len(calls) == 1
        expected_loss, expected_grad = per_state_qubit_step(
            corrupted, originals, 2, angles
        )
        assert abs(loss - expected_loss) <= 1e-12
        assert np.max(np.abs(grad - expected_grad)) <= 1e-12

    def test_band_is_checked_over_every_unitary_at_build(self):
        # sigma has |p_r| = 1.4 > 1 (not PSD): against |+><+| the identity
        # gives F = 0.5, in the band, but the unitary taking z to x gives
        # F = (1 + 1.4) / 2 = 1.2, so no learn on this pair may start
        plus = np.full((2, 2), 0.5, dtype=complex)
        bad = np.diag([1.2, -0.2]).astype(complex)
        originals, corrupted = np.stack([plus, plus]), np.stack([plus, bad])
        with pytest.raises(ValueError, match=r"outside .* range \[.*, 1\.2"):
            LossContext(corrupted, originals, 1)
        fid, _ = UhlmannFidelity(originals[:1]).evaluate(bad[None])
        assert fid == pytest.approx([0.5], abs=1e-12)  # the identity alone passes


class TestDeferredFidelity:
    """At d = 2 the per-state fidelity is built at the first per-state
    pass (see :class:`TestUnitaryPath` for the learns); at d > 2 every
    step is per-state and it is built with the context."""

    def test_two_qubit_context_builds_one_at_construction(self, monkeypatch):
        builds = count_fidelity_builds(monkeypatch)
        rng = np.random.default_rng(131)
        originals = np.stack([random_density(rng, 4) for _ in range(6)])
        corrupted = np.stack([random_density(rng, 4) for _ in range(6)])
        ctx = LossContext(corrupted, originals, 1)
        assert len(builds) == 1
        ctx.loss(np.zeros(ctx.n_angles))
        ctx.gradient(rng.normal(0.0, 0.3, ctx.n_angles))
        assert len(builds) == 1

    def test_qubit_context_holds_its_own_originals(self):
        # the fidelity is built after the caller has changed its array
        rng = np.random.default_rng(132)
        originals = np.stack([random_density(rng, 2) for _ in range(8)])
        corrupted = np.stack([random_density(rng, 2) for _ in range(8)])
        angles = rng.normal(0.0, 0.3, LossContext(corrupted, originals, 2).n_angles)
        expected = LossContext(corrupted, originals, 2).loss(angles)
        ctx = LossContext(corrupted, originals, 2)
        originals[:] = np.eye(2) / 2.0
        assert ctx.loss(angles) == expected


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
        weights, _, unitary = dominant_kraus_report(result.channel)
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
        *_, unitary = dominant_kraus_report(result.channel)
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

    def test_rejects_an_empty_ensemble(self):
        cfg = OptimizerConfig(max_iters=5, m=1)
        with pytest.raises(ValueError, match=exactly("state ensemble is empty")):
            learn_quasi_inverse(flip_channel("bit_flip", 0.8), [], cfg)

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


class TestOptimalityGap:
    """The certified bound on f(J) - min f over every CPTP recovery."""

    def test_exact_inverse_of_a_unitary_noise_has_no_gap(self):
        rng = np.random.default_rng(122)
        noise = channel_from_angles(2, 1, rng.normal(0.0, 1.0, 3))
        inverse = noise.operators.conj().transpose(0, 2, 1)
        states = np.stack([random_density(rng, 2) for _ in range(30)])
        assert optimality_gap(noise.operators, inverse, states) <= 1e-12

    def test_identity_on_strong_amplitude_damping_is_far_from_optimal(self):
        states = np.stack(sample_bloch_ball(seed=7, count=100))
        noise = amplitude_damping(0.9).operators
        assert optimality_gap(noise, np.eye(2)[None], states) > 0.1

    def test_petz_recovery_is_complete(self):
        states = np.stack(sample_bloch_ball(seed=7, count=100))
        petz = petz_recovery(amplitude_damping(0.6).operators, states)
        completeness = np.einsum("aji,ajk->ik", petz.conj(), petz)
        assert np.max(np.abs(completeness - np.eye(2))) <= 1e-12

    @pytest.mark.parametrize("gamma", [0.3, 0.6, 0.9])
    def test_bounds_the_gain_of_the_petz_recovery(self, gamma):
        # f(J) - f(J') <= gap(J) for every CPTP J', here J' the Petz
        # recovery and J the identity, the Petz recovery itself and random
        # channels of m = 1, 2 and 4 operators
        rng = np.random.default_rng(int(gamma * 10))
        states = np.stack(sample_bloch_ball(seed=7, count=100))
        noise = amplitude_damping(gamma).operators
        best = recovery_loss(noise, petz_recovery(noise, states), states)
        recoveries = [np.eye(2)[None], petz_recovery(noise, states)]
        recoveries += [random_channel(rng, 2, m).operators for m in (1, 2, 4)]
        for recovery in recoveries:
            gain = recovery_loss(noise, recovery, states) - best
            assert optimality_gap(noise, recovery, states) >= gain - 1e-12


class TestBestUnitaryQubitFidelity:
    """The closed-form best unitary recovery of a qubit ensemble."""

    def test_inverts_a_unitary_noise(self):
        rng = np.random.default_rng(133)
        noise = channel_from_angles(2, 1, rng.normal(0.0, 1.0, 3)).operators
        states = np.stack([random_density(rng, 2) for _ in range(30)])
        assert abs(best_unitary_qubit_fidelity(noise, states) - 1.0) <= 1e-12

    @pytest.mark.parametrize(
        "noise",
        [depolarizing_channel(0.8), amplitude_damping(0.6)],
        ids=["depolarizing", "amplitude_damping"],
    )
    def test_no_unitary_recovers_better(self, noise):
        # depolarizing p = 0.8 inverts every Bloch vector, which no
        # rotation undoes: there the det sign fix decides the value
        rng = np.random.default_rng(134)
        states = np.stack(sample_bloch_ball(seed=7, count=100))
        best = best_unitary_qubit_fidelity(noise.operators, states)
        unitaries = [haar_unitary(rng, 2) for _ in range(50)] + [PAULI_X, np.eye(2)]
        for unitary in unitaries:
            loss = recovery_loss(noise.operators, unitary[None], states)
            assert 1.0 - loss <= best + 1e-12


class TestHessianSpectrum:
    """The oracle Hessian against second differences of the loss."""

    @pytest.mark.parametrize("d,m", [(2, 2), (4, 1)])
    def test_matches_second_differences_of_the_loss(self, d, m):
        # tolerance fixed before the run: second differences at step 1e-3
        # carry ~1e-6 truncation and ~1e-10 rounding error
        rng = np.random.default_rng(135 + d)
        originals = np.stack([random_density(rng, d) for _ in range(12)])
        corrupted = np.stack([random_density(rng, d) for _ in range(12)])
        ctx = LossContext(corrupted, originals, m)
        angles = rng.normal(0.0, 0.3, ctx.n_angles)
        eigenvalues, hessian = hessian_spectrum(ctx, angles)
        step, n = 1e-3, ctx.n_angles
        shifts = step * np.eye(n)
        second = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                corners = [
                    ctx.loss(angles + a * shifts[i] + b * shifts[j])
                    for a, b in ((1, 1), (1, -1), (-1, 1), (-1, -1))
                ]
                second[i, j] = (corners[0] - corners[1] - corners[2] + corners[3]) / (
                    4.0 * step**2
                )
        assert np.max(np.abs(hessian - second)) <= 1e-5
        assert np.array_equal(hessian, hessian.T)
        assert np.allclose(eigenvalues, np.linalg.eigvalsh(second), atol=1e-5)
        assert np.all(np.diff(eigenvalues) >= 0.0)


class TestDominantKrausReport:
    def test_identity_set(self):
        weights, spectrum, unitary = dominant_kraus_report(identity_kraus(2, 4))
        assert np.array_equal(weights, [1.0, 0.0, 0.0, 0.0])
        assert np.array_equal(spectrum, [1.0, 0.0, 0.0, 0.0])
        assert unitary

    def test_bit_flip_not_unitary(self):
        weights, spectrum, unitary = dominant_kraus_report(
            flip_channel("bit_flip", 0.8)
        )
        assert np.allclose(weights, [0.2, 0.8])
        assert np.allclose(spectrum, [0.8, 0.2])
        assert not unitary

    @pytest.mark.parametrize("d,m", [(2, 4), (4, 3)])
    def test_unitary_in_a_spread_gauge(self, d, m):
        # K^a = c_a U, c a column of a random m x m unitary, is the unitary
        # channel U in another Kraus gauge: no operator dominates, but the
        # Kraus-Gram matrix c c^+ has the single eigenvalue |c|^2 = 1
        rng = np.random.default_rng(90)
        unitary = haar_unitary(rng, d)
        spread = haar_unitary(rng, m)[:, 0]
        kraus = KrausSet(spread[:, None, None] * unitary)
        weights, spectrum, verdict = dominant_kraus_report(kraus)
        assert np.allclose(weights, np.abs(spread) ** 2) and weights.max() < 0.99
        assert abs(spectrum[0] - 1.0) <= 1e-12
        assert np.abs(spectrum[1:]).max() <= 1e-12
        assert verdict

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
