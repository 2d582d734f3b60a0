import tracemalloc
from collections.abc import Sequence

import numpy as np
import pytest

from kraussphere import transforms
from kraussphere.channels import apply_channel
from kraussphere.geometry import (
    KrausFrame,
    completeness_gram,
    frame_to_kraus,
    identity_frame,
    symplectic_form,
    symplectic_products,
)
from kraussphere.transforms import (
    angle_count,
    apply_angles,
    channel_from_angles,
    finite_transform,
    forward_sweep,
    generator_basis,
    reverse_sweep,
)

from conftest import random_density, read_every_row
from oracles import (
    complex_rows,
    dense_basis,
    dense_generator,
    dense_product,
    embed_transform,
    fancy_index_rotations,
    matrix_exp_series,
    prefix_pairings,
    real_vectors,
)

THETAS = [0.1, 1.0, np.pi, 5.0]


class TestGeneratorBasis:
    @pytest.mark.parametrize("dim,count", [(4, 3), (8, 15), (16, 63)])
    def test_basis_size(self, dim, count):
        assert len(generator_basis(dim)) == count

    @pytest.mark.parametrize("d,m", [(2, 1), (2, 2), (2, 4), (4, 1)])
    def test_count_matches_ansatz(self, d, m):
        assert len(generator_basis(2 * m * d)) == angle_count(d, m) == (m * d) ** 2 - 1

    @pytest.mark.parametrize("dim", [4, 8, 16])
    def test_generator_algebra(self, dim):
        s = symplectic_form(dim)
        basis = generator_basis(dim)
        for a in range(len(basis)):
            block = basis.blocks[basis.kinds[a]]
            assert np.array_equal(block.conj().T, -block)
            assert np.array_equal(-(block @ block), np.eye(2))
            j = dense_generator(basis, a)
            assert np.array_equal(j.T, -j)
            assert np.max(np.abs(s @ j - j @ s)) <= 1e-12
            assert abs(np.trace(s.T @ j)) <= 1e-12
            assert np.max(np.abs(j @ j @ j + j)) <= 1e-10
            p = -(j @ j)
            assert np.max(np.abs(p @ p - p)) <= 1e-10

    @pytest.mark.parametrize("dim", [4, 16])
    def test_linear_independence(self, dim):
        basis = generator_basis(dim)
        flat = np.stack([dense_generator(basis, a).ravel() for a in range(len(basis))])
        assert np.linalg.matrix_rank(flat) == len(flat)

    def test_rejects_trivial_dims(self):
        with pytest.raises(ValueError):
            generator_basis(2)
        with pytest.raises(ValueError):
            generator_basis(6 + 1)

    @pytest.mark.parametrize("dim", [4, 16])
    def test_bracket_stays_in_centralizer(self, dim):
        s = symplectic_form(dim)
        basis = generator_basis(dim)
        for a in range(len(basis)):
            for b in range(a + 1, len(basis)):
                ja, jb = dense_generator(basis, a), dense_generator(basis, b)
                bracket = ja @ jb - jb @ ja
                assert np.max(np.abs(s @ bracket - bracket @ s)) <= 1e-10

    @pytest.mark.parametrize("dim", [4, 8, 16])
    def test_embeds_to_the_dense_chart_in_order(self, dim):
        dense = dense_basis(dim)
        basis = generator_basis(dim)
        assert len(basis) == len(dense)
        for a, j in enumerate(dense):
            assert np.array_equal(dense_generator(basis, a), j)

    def test_basis_memory_stays_compact(self):
        # the general two-qubit ansatz (d=4, m=16): 4095 generators
        basis = generator_basis(128)
        held = sum(g.matrix.nbytes + g.projector.nbytes for g in basis)
        assert len(basis) == 4095 and held < 2**20

    def test_table_makes_no_per_angle_objects(self, monkeypatch):
        # d=4, m=32: 16383 generators held as index arrays, no items
        def no_items(*args):
            raise AssertionError("generator_basis made a Generator item")

        monkeypatch.setattr(transforms, "Generator", no_items)
        tracemalloc.start()
        try:
            basis = generator_basis(256)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(basis) == 16383 and held < 2**20

    @pytest.mark.parametrize("dim", [4, 10, 16])
    def test_items_read_the_table(self, dim):
        # iteration, which the traced benchmark's byte count uses, is the
        # only way to make items; the table is a record, not a sequence
        basis = generator_basis(dim)
        items = list(basis)
        assert len(items) == len(basis) == len(basis.pairs) == len(basis.kinds)
        for gen, (j, k), kind in zip(items, basis.pairs, basis.kinds):
            assert (gen.dim, gen.j, gen.k) == (dim, j, k)
            assert gen.kind == kind
            assert np.array_equal(gen.matrix, basis.blocks[kind])
            assert np.array_equal(gen.projector, np.eye(2))
        assert not isinstance(basis, Sequence)


class TestGeneratorPairings:
    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    @pytest.mark.parametrize("rows", [1, 2, 4])
    def test_matches_dense_pairings_in_basis_order(self, n, rows):
        # at zero angles the reverse sweep's gradient is every generator's
        # pairing Re Tr(C^† J_a W), each read from its own two stack rows
        rng = np.random.default_rng(70 + n)
        left = rng.normal(size=(rows, 2 * n))
        right = rng.normal(size=(rows, 2 * n))
        dense = [np.sum(j * (left.T @ right)) for j in dense_basis(2 * n)]
        basis = generator_basis(2 * n)
        stack = np.concatenate([complex_rows(left), complex_rows(right)], axis=1)
        swept = forward_sweep(basis, np.zeros(len(basis)), stack)
        compact = reverse_sweep(basis, swept, stack)  # every row is live
        assert np.max(np.abs(compact - dense)) <= 1e-12


class TestFiniteTransform:
    def test_zero_angle_is_identity(self, basis_16):
        for block in basis_16.blocks[basis_16.kinds]:
            assert np.array_equal(finite_transform(block, 0.0), np.eye(2))

    def test_full_turn(self, basis_16):
        for block in basis_16.blocks[basis_16.kinds[:5]]:
            m = finite_transform(block, 2 * np.pi)
            assert np.max(np.abs(m - np.eye(2))) <= 1e-12

    @pytest.mark.parametrize("dim", [4, 16])
    def test_matches_exponential_series(self, dim):
        basis = generator_basis(dim)
        for a, j in enumerate(dense_basis(dim)):
            block = basis.blocks[basis.kinds[a]]
            for theta in THETAS:
                closed = finite_transform(block, theta)
                series = matrix_exp_series(block, theta)
                assert np.max(np.abs(closed - series)) <= 1e-10
                embedded = embed_transform(basis, a, closed)
                assert np.max(np.abs(embedded - matrix_exp_series(j, theta))) <= 1e-10

    @pytest.mark.parametrize("dim", [4, 16])
    def test_orthogonal_and_symplectic(self, dim):
        s = symplectic_form(dim)
        rng = np.random.default_rng(20)
        basis = generator_basis(dim)
        for a in range(len(basis)):
            theta = rng.uniform(-np.pi, np.pi)
            u = finite_transform(basis.blocks[basis.kinds[a]], theta)
            assert np.max(np.abs(u.conj().T @ u - np.eye(2))) <= 1e-12
            m = embed_transform(basis, a, u)
            assert np.max(np.abs(m.T @ m - np.eye(dim))) <= 1e-10
            assert np.max(np.abs(m.T @ s @ m - s)) <= 1e-10

    def test_batched_equals_per_angle(self):
        basis = generator_basis(16)
        rng = np.random.default_rng(25)
        kinds = rng.integers(0, 3, 200)
        thetas = np.concatenate([rng.normal(0.0, 1.0, 100), rng.uniform(-9, 9, 100)])
        batched = finite_transform(basis.blocks[kinds], thetas)
        for u, kind, theta in zip(batched, kinds, thetas):
            assert np.array_equal(u, finite_transform(basis.blocks[kind], float(theta)))
        stacked = finite_transform(basis.blocks[kinds.reshape(4, 50)], thetas.reshape(4, 50))
        assert np.array_equal(stacked.reshape(batched.shape), batched)

    def test_one_parameter_subgroup(self, basis_16):
        block = basis_16.blocks[basis_16.kinds[7]]
        lhs = finite_transform(block, 0.6) @ finite_transform(block, 1.7)
        rhs = finite_transform(block, 2.3)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10


class TestApplyAngles:
    def test_zero_angles_bit_exact(self):
        frame = identity_frame(2, 4)
        out = apply_angles(np.zeros(63), frame)
        assert np.array_equal(out.vectors, frame.vectors)

    def test_single_angle_preserves_gram(self):
        frame = identity_frame(2, 4)
        for index in (0, 17, 45, 62):
            angles = np.zeros(63)
            angles[index] = 0.83
            out = apply_angles(angles, frame)
            assert np.max(np.abs(completeness_gram(out) - np.eye(2))) <= 1e-8

    def test_composition_order_is_ascending(self):
        # generators 0 and 2 embed i(E01+E10) and i(E00-E11); their finite
        # transformations act on the m=1 operator as A0 = cos t I + i sin t X
        # and A2 = diag(exp(it), exp(-it)), applied lowest index first
        t0, t2 = 0.4, 1.1
        angles = np.array([t0, 0.0, t2])
        out = apply_angles(angles, identity_frame(2, 1))
        a0 = np.cos(t0) * np.eye(2) + 1j * np.sin(t0) * np.array([[0, 1], [1, 0]])
        a2 = np.diag([np.exp(1j * t2), np.exp(-1j * t2)])
        expected = a2 @ a0
        columns = out.vectors[:, 0::2] + 1j * out.vectors[:, 1::2]
        assert np.max(np.abs(columns.T - expected)) <= 1e-12

    def test_x_rotation_gives_flip_channel(self):
        angles = np.zeros(3)
        angles[0] = np.pi / 2  # i(E01+E10) direction, a quarter turn
        frame = apply_angles(angles, identity_frame(2, 1))
        channel = channel_from_angles(2, 1, angles)
        zero = np.diag([1.0, 0.0]).astype(complex)
        one = np.diag([0.0, 1.0]).astype(complex)
        assert np.max(np.abs(apply_channel(channel, zero) - one)) <= 1e-12
        assert np.max(np.abs(completeness_gram(frame) - np.eye(2))) <= 1e-12

    @pytest.mark.parametrize("d,m", [(2, 1), (2, 4), (4, 1)])
    def test_invariants_preserved_100_random(self, d, m):
        rng = np.random.default_rng(21)
        frame = identity_frame(d, m)
        for _ in range(100):
            angles = rng.normal(0.0, 1.0, angle_count(d, m))
            out = apply_angles(angles, frame)
            norms = np.sum(out.vectors**2, axis=1)
            assert np.max(np.abs(norms - 1.0)) <= 1e-8
            euclid = out.vectors @ out.vectors.T - np.eye(d)
            assert np.max(np.abs(euclid)) <= 1e-8
            assert np.max(np.abs(symplectic_products(out))) <= 1e-8
            assert np.max(np.abs(completeness_gram(out) - np.eye(d))) <= 1e-8
            frame = out  # chain transformations to accumulate error

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="angle count"):
            apply_angles(np.zeros(2), identity_frame(2, 1))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            apply_angles(np.array([0.0, np.nan, 0.0]), identity_frame(2, 1))

    def test_forward_sweep_skips_zero_angles(self, basis_16):
        rows = np.eye(8, 2, dtype=complex)
        nonzero, pairs, unitaries = forward_sweep(basis_16, np.zeros(63), rows)
        assert nonzero.size == 0 and pairs == []
        assert unitaries.shape == (0, 2, 2)
        assert np.array_equal(rows, np.eye(8, 2))
        angles = np.zeros(63)
        angles[[3, 40]] = 0.5, -1.2
        nonzero, pairs, unitaries = forward_sweep(basis_16, angles, rows)
        assert nonzero.tolist() == [3, 40]
        assert pairs == basis_16.pairs[[3, 40]].tolist()
        for a, u in zip(nonzero, unitaries):
            block = basis_16.blocks[basis_16.kinds[a]]
            assert np.array_equal(u, finite_transform(block, angles[a]))

    @pytest.mark.parametrize("d", [2, 4, 8])
    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_matches_dense_product(self, d, m):
        rng = np.random.default_rng(24)
        dense = dense_basis(2 * m * d)
        count = angle_count(d, m)
        angles = rng.normal(0.0, 1.0, count)
        angles[rng.random(count) < 0.3] = 0.0
        frame = identity_frame(d, m)
        reference = frame.vectors @ dense_product(dense, angles).T
        out = apply_angles(angles, frame)
        assert np.max(np.abs(out.vectors - reference)) <= 1e-12
        channel = channel_from_angles(d, m, angles)
        expected = frame_to_kraus(KrausFrame(reference))
        gap = np.abs(channel.operators - expected.operators)
        assert np.max(gap) <= 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_strided_views_match_fancy_index_loop(self, d, m):
        # sparse patterns with nonzero angles on adjacent (k = j + 1) and,
        # where md > 2, distant row pairs
        rng = np.random.default_rng(26)
        basis = generator_basis(2 * m * d)
        j, k = basis.pairs.T
        groups = [np.flatnonzero(k == j + 1), np.flatnonzero(k > j + 1)]
        for _ in range(3):
            angles = rng.normal(0.0, 1.0, len(basis))
            angles[rng.random(len(basis)) < 0.7] = 0.0
            for group in groups:
                if group.size:
                    angles[rng.choice(group)] = rng.uniform(0.1, 2.0)
            rows = rng.normal(size=(m * d, d)) + 1j * rng.normal(size=(m * d, d))
            expected = rows.copy()
            nonzero, _, unitaries = forward_sweep(basis, angles, rows)
            fancy_index_rotations(basis.pairs[nonzero], unitaries, expected)
            assert np.array_equal(rows, expected)
            identity = np.eye(m * d, d, dtype=complex)
            reference = fancy_index_rotations(basis.pairs[nonzero], unitaries, identity)
            channel = channel_from_angles(d, m, angles)
            assert np.array_equal(channel.operators, reference.reshape(m, d, d))


NONZERO_PATTERNS = {  # indices of the nonzero angles among n
    "all_zero": lambda n: [],
    "one_nonzero": lambda n: [n // 2],
    "consecutive": lambda n: [1, 2],
    "all_nonzero": lambda n: list(range(n)),
    "zero_runs_at_both_ends": lambda n: list(range(1, n - 1)),
}


class TestReverseSweep:
    @pytest.mark.parametrize("pattern", list(NONZERO_PATTERNS))
    @pytest.mark.parametrize("d,m", [(2, 1), (2, 4), (3, 1), (4, 1), (8, 1)])
    def test_matches_dense_prefix_pairings(self, d, m, pattern):
        # a random [C_0 | W_0], not from a loss: sweeping it forward gives
        # [C_n | W_n], and the reverse sweep must return every angle's
        # dense-chart pairing at its prefix and restore [C_0 | W_0]
        rng = np.random.default_rng(28)
        basis = generator_basis(2 * m * d)
        angles = np.zeros(len(basis))
        chosen = NONZERO_PATTERNS[pattern](len(basis))
        angles[chosen] = rng.uniform(0.1, 2.0, len(chosen)) * rng.choice([-1, 1], len(chosen))
        start = rng.normal(size=(m * d, 2 * d)) + 1j * rng.normal(size=(m * d, 2 * d))
        stack = start.copy()
        swept = forward_sweep(basis, angles, stack)
        grad = reverse_sweep(basis, swept, stack)  # a random stack has no zero row
        cotangent, frame = real_vectors(start[:, :d]), real_vectors(start[:, d:])
        expected = prefix_pairings(dense_basis(2 * m * d), angles, cotangent, frame)
        assert grad.shape == angles.shape
        assert np.max(np.abs(grad - expected)) <= 1e-12
        assert np.max(np.abs(stack - start)) <= 1e-12


    @pytest.mark.parametrize("mix", ["sym", "anti", "phase_only"])
    @pytest.mark.parametrize("d,m", [(2, 4), (4, 4)])
    def test_plan_of_a_stack_with_zero_rows(self, monkeypatch, d, m, mix):
        # the sweep starts from [C_n | W_n] with rows d.. zero; a sym or
        # anti angle on rows (1, d + 1) pulls row d + 1 in, so zero angles
        # below it on that row pair to nonzero values, while a diagonal
        # phase on rows (d, d + 1) leaves every zero angle there at 0
        rng = np.random.default_rng(29)
        basis = generator_basis(2 * m * d)
        j, k = basis.pairs.T
        kind = {"sym": 0, "anti": 1, "phase_only": 2}[mix]
        couple = (1, d + 1) if kind < 2 else (d, d + 1)
        chosen = [
            *np.flatnonzero(k < d)[::2],  # some rotations inside the first d rows
            np.flatnonzero((basis.kinds == kind) & (j == couple[0]) & (k == couple[1]))[0],
        ]
        angles = np.zeros(len(basis))
        angles[chosen] = rng.uniform(0.3, 1.5, len(chosen))
        swept = forward_sweep(basis, angles, np.zeros((m * d, 2 * d), dtype=complex))
        end = np.zeros((m * d, 2 * d), dtype=complex)
        end[:d] = rng.normal(size=(d, 2 * d)) + 1j * rng.normal(size=(d, 2 * d))
        grad = reverse_sweep(basis, swept, end.copy())
        read_every_row(monkeypatch)
        fresh = generator_basis(2 * m * d)  # keeps no plan yet
        assert np.array_equal(grad, reverse_sweep(fresh, swept, end.copy()))
        dense = dense_basis(2 * m * d)
        total = dense_product(dense, angles)  # [C_n | W_n] = [C_0 | W_0] moved by it
        cotangent = real_vectors(end[:, :d]) @ total
        frame = real_vectors(end[:, d:]) @ total
        expected = prefix_pairings(dense, angles, cotangent, frame)
        assert np.max(np.abs(grad - expected)) <= 1e-12
        on_row = ((j == d + 1) | (k == d + 1)) & (angles == 0)
        assert np.any(grad[on_row] != 0.0) == (kind < 2)


class TestChannelFromAngles:
    def test_zero_angles_identity_channel(self):
        channel = channel_from_angles(2, 4, np.zeros(63))
        assert np.array_equal(channel.operators[0], np.eye(2))
        for op in channel.operators[1:]:
            assert np.array_equal(op, np.zeros((2, 2)))

    def test_random_angles_complete(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            angles = rng.normal(0.0, 1.2, 63)
            channel = channel_from_angles(2, 4, angles)
            assert channel.completeness_deviation() <= 1e-6

    def test_trace_preserved_on_random_states(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            channel = channel_from_angles(2, 4, rng.normal(0, 1, 63))
            for _ in range(10):
                rho = random_density(rng, 2)
                out = apply_channel(channel, rho)
                assert abs(np.trace(out).real - 1.0) <= 1e-8

    def test_angle_count_check(self):
        with pytest.raises(ValueError, match="expected 63 angles"):
            channel_from_angles(2, 4, np.zeros(10))

    def test_rejects_non_finite(self):
        angles = np.zeros(63)
        angles[5] = np.inf
        with pytest.raises(ValueError, match="finite"):
            channel_from_angles(2, 4, angles)

    @pytest.mark.parametrize("d,m", [(2, 1), (2, 4), (4, 1), (4, 16)])
    def test_swept_rows_equal_the_frame_route(self, d, m):
        # channel_from_angles reads the swept rows as operators; the frame
        # route relabels them into real vectors and back, so it is the
        # same arithmetic and the operators must agree bit for bit
        rng = np.random.default_rng(27)
        count = angle_count(d, m)
        angles = rng.normal(0.0, 1.0, count)
        angles[rng.random(count) < 0.9] = 0.0
        channel = channel_from_angles(d, m, angles)
        frame = apply_angles(angles, identity_frame(d, m))
        assert np.array_equal(channel.operators, frame_to_kraus(frame).operators)
