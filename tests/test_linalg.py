import numpy as np
import pytest

from kraussphere.linalg import (
    EIGENVALUE_FLOOR,
    UhlmannFidelity,
    floor_eigenvalues,
    real_form,
    uhlmann_fidelity,
    validate_density_matrix,
)

from conftest import pure_density, random_density
from oracles import (
    complex_product_fidelity,
    flat_qubit_fidelity,
    matrix_exp_series,
    reference_fidelity,
)


def rotated_qubit(rng, low):
    """A qubit state with eigenvalues (1 - low, low) in a random basis."""
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    u, _ = np.linalg.qr(g)
    rho = (u * np.array([1.0 - low, low])) @ u.conj().T
    return (rho + rho.conj().T) / 2.0


# the level at which the floor zeroes a qubit's smaller eigenvalue
QUBIT_FLOOR = EIGENVALUE_FLOOR * 2


class TestUhlmannFidelity:
    def test_identical_states(self):
        rho = random_density(np.random.default_rng(3), 4)
        assert uhlmann_fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)

    def test_orthogonal_pure_states(self):
        zero = np.diag([1.0, 0.0]).astype(complex)
        one = np.diag([0.0, 1.0]).astype(complex)
        assert uhlmann_fidelity(zero, one) == pytest.approx(0.0, abs=1e-10)

    def test_rejects_unnormalized_blowup(self):
        rho = np.eye(2, dtype=complex)  # trace 2, fidelity would exceed 1
        with pytest.raises(ValueError, match="trace"):
            uhlmann_fidelity(rho, rho)

    def test_pure_vs_maximally_mixed(self):
        # commuting diagonal states: (sum sqrt(p_i q_i))^2 = 0.5
        zero = np.diag([1.0, 0.0]).astype(complex)
        assert uhlmann_fidelity(zero, np.eye(2) / 2) == pytest.approx(0.5, abs=1e-10)

    def test_symmetric_and_discriminates(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            dim = int(rng.integers(2, 5))
            a, b = random_density(rng, dim), random_density(rng, dim)
            fab, fba = uhlmann_fidelity(a, b), uhlmann_fidelity(b, a)
            assert abs(fab - fba) <= 1e-8
            assert 0.0 <= fab <= 1.0
            assert fab < 1.0 - 1e-8  # independent random states never coincide
            assert uhlmann_fidelity(a, a) >= 1.0 - 1e-8

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            uhlmann_fidelity(np.eye(2) / 2, np.eye(4) / 4)

    @pytest.mark.parametrize("dim", [2, 4])
    def test_pure_state_with_itself(self, dim):
        # its zero eigenvalues come out at rounding level; unfloored, their
        # square roots pushed the fidelity past 1 + 1e-8 and it raised
        rng = np.random.default_rng(5)
        for _ in range(20):
            psi = pure_density(rng, dim)
            assert uhlmann_fidelity(psi, psi) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("dim", [2, 3, 4, 8])
    def test_batch_matches_reference(self, dim):
        rng = np.random.default_rng(11)
        mixed = [random_density(rng, dim) for _ in range(30)]
        pure = [pure_density(rng, dim) for _ in range(30)]
        # mixed-mixed, pure-mixed, mixed-pure, pure-pure and pure-itself
        a = np.stack(mixed[:10] + pure[:10] + mixed[10:20] + pure[20:30] + pure[:10])
        b = np.stack(mixed[20:] + mixed[:10] + pure[10:20] + pure[:10] + pure[:10])
        expected = [reference_fidelity(x, y) for x, y in zip(a, b)]
        assert np.max(np.abs(uhlmann_fidelity(a, b) - expected)) <= 1e-11

    @pytest.mark.parametrize("dim", [2, 4])
    def test_empty_batch(self, dim):
        # the band check used to take the min of no fidelities and raise
        empty = np.zeros((0, dim, dim))
        assert uhlmann_fidelity(empty, empty).shape == (0,)

    def test_float_for_one_pair_array_for_a_batch(self):
        rng = np.random.default_rng(12)
        a = np.stack([random_density(rng, 4) for _ in range(6)]).reshape(2, 3, 4, 4)
        b = np.stack([random_density(rng, 4) for _ in range(6)]).reshape(2, 3, 4, 4)
        assert type(uhlmann_fidelity(a[0, 0], b[0, 0])) is float
        batch = uhlmann_fidelity(a, b)
        assert batch.shape == (2, 3)
        assert batch[1, 2] == uhlmann_fidelity(a[1, 2:], b[1, 2:])[0]

    @pytest.mark.parametrize("side", ["a", "b"])
    @pytest.mark.parametrize(
        "bad,match",
        [
            (np.array([[0.5, 0.1], [0.0, 0.5]]), "Hermitian"),
            (np.diag([1.5, -0.5]), "PSD"),
            (np.eye(2), "trace"),
            (np.full((2, 2), np.nan), "non-finite"),
            (np.zeros((2, 3)), "square"),
        ],
        ids=["non_hermitian", "non_psd", "unnormalized", "nan", "non_square"],
    )
    def test_rejects_invalid_argument(self, bad, match, side):
        good = np.eye(*bad.shape) / 2
        args = (bad, good) if side == "a" else (good, bad)
        with pytest.raises(ValueError, match=match):
            uhlmann_fidelity(*args)


class TestEigenvalueFloor:
    def test_zeroes_rounding_level_only(self):
        w = np.array([[-1e-17, 1e-17, 1e-3, 0.5], [0.0, 0.25, 0.25, 0.5]])
        assert np.array_equal(
            floor_eigenvalues(w), [[0.0, 0.0, 1e-3, 0.5], [0.0, 0.25, 0.25, 0.5]]
        )


class TestQubitPauliPath:
    """The matrix path at d = 2 against the qubit closed form on flat
    entries, F = Tr(a o) + 2 sqrt(det a det o) (Jozsa 1994)."""

    @staticmethod
    def ensemble(seed):
        # originals and recovered states pair pure, mixed and floor-boundary
        # states (smaller eigenvalue a quarter of the floor, so zeroed)
        rng = np.random.default_rng(seed)
        mixed = [random_density(rng, 2) for _ in range(20)]
        pure = [pure_density(rng, 2) for _ in range(20)]
        boundary = [rotated_qubit(rng, 0.25 * QUBIT_FLOOR) for _ in range(20)]
        originals = mixed[:10] + pure[:10] + boundary[:10] + pure[10:] + mixed[10:]
        recovered = pure[:10] + mixed[10:] + boundary[10:] + boundary[:10] + mixed[:10]
        return np.stack(originals), np.stack(recovered)

    @pytest.mark.parametrize("seed", [14, 15])
    def test_matrix_path_agrees_at_d2(self, seed):
        originals, recovered = self.ensemble(seed)
        fid, _ = UhlmannFidelity(originals).evaluate(recovered)
        closed, _ = flat_qubit_fidelity(originals, recovered)
        assert np.max(np.abs(fid - closed)) <= 1e-12


def spread_density(rng, dim):
    """A full-rank state with every eigenvalue at least 1 / (2 dim)."""
    return 0.5 * random_density(rng, dim) + 0.5 * np.eye(dim) / dim


def rank_two_density(rng, dim):
    """The equal mixture of two random orthogonal pure states."""
    g = rng.normal(size=(dim, 2)) + 1j * rng.normal(size=(dim, 2))
    q, _ = np.linalg.qr(g)
    rho = q @ q.conj().T / 2.0
    return (rho + rho.conj().T) / 2.0


class TestRealFormPath:
    """The d > 2 fidelity in real float products against complex ones."""

    @staticmethod
    def ensemble(seed, dim):
        # originals and recovered states pair full-rank, pure and rank-2
        # states, never a state with itself.  The nonzero eigenvalues of
        # X = sqrt(o) a sqrt(o) stay far from rounding: at ~1e-8 (two
        # Ginibre states with eigenvalues ~1e-4) they carry a relative
        # error ~1e-8 into Q in any arithmetic
        rng = np.random.default_rng(seed)
        full = [spread_density(rng, dim) for _ in range(20)]
        pure = [pure_density(rng, dim) for _ in range(20)]
        low = [rank_two_density(rng, dim) for _ in range(20)]
        originals = full[:10] + pure[:10] + low[:10] + pure[10:] + full[10:]
        recovered = pure[:10] + low[10:] + full[:10] + low[:10] + full[::-1][:10]
        return np.stack(originals), np.stack(recovered)

    @staticmethod
    def assert_matches(got, expected):
        (fid, cotangent), (ref_fid, ref_cotangent) = got, expected
        assert fid.shape == ref_fid.shape and cotangent.shape == ref_cotangent.shape
        assert np.max(np.abs(fid - ref_fid)) <= 1e-12
        gap = np.max(np.abs(cotangent - ref_cotangent))
        assert gap <= 1e-10 * np.max(np.abs(ref_cotangent))

    @pytest.mark.parametrize("dim", [3, 4, 8])
    def test_real_form_multiplies(self, dim):
        rng = np.random.default_rng(17)
        s = rng.normal(size=(5, dim, dim)) + 1j * rng.normal(size=(5, dim, dim))
        a = rng.normal(size=(2, 5, dim, dim)) + 1j * rng.normal(size=(2, 5, dim, dim))
        product = (a.view(float) @ real_form(s)).view(complex)
        assert np.max(np.abs(product - a @ s)) <= 1e-13

    @pytest.mark.parametrize("dim", [4, 8])
    def test_matches_complex_products(self, dim):
        originals, recovered = self.ensemble(18, dim)
        fidelity = UhlmannFidelity(originals)
        shifted = np.roll(recovered, 2, axis=0)  # still no state with itself
        for batch in (recovered, np.stack([recovered, shifted])):
            got = fidelity.evaluate(batch)
            self.assert_matches(got, complex_product_fidelity(originals, batch))
        fid, _ = fidelity.evaluate(originals)
        assert np.max(np.abs(fid - 1.0)) <= 1e-12

    @pytest.mark.parametrize("dim", [4, 8])
    def test_strided_recovered_batches(self, dim):
        # a non-unit stride on the last axis is copied once; one on the
        # state axis is read through the float view as it is
        originals, recovered = self.ensemble(19, dim)
        slots = np.empty(recovered.shape + (2,), dtype=complex)
        slots[..., 0] = recovered
        across = slots[..., 0]
        every_other = np.stack([recovered, recovered[::-1]], axis=1)[:, 0]
        assert not across.flags.c_contiguous and not every_other.flags.c_contiguous
        fidelity = UhlmannFidelity(originals)
        expected = complex_product_fidelity(originals, recovered)
        for strided in (across, every_other, across.swapaxes(-1, -2).conj()):
            self.assert_matches(fidelity.evaluate(strided), expected)

    def test_one_eigh_per_evaluate(self, monkeypatch):
        originals, recovered = self.ensemble(20, 4)
        fidelity = UhlmannFidelity(originals)
        inner, calls = np.linalg.eigh, []

        def counting(x):
            calls.append(x.shape)
            return inner(x)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        fidelity.evaluate(recovered)
        fidelity.evaluate(np.stack([recovered, originals]))
        assert calls == [(50, 4, 4), (2, 50, 4, 4)]


class TestMatrixExpSeries:
    def test_zero_angle(self):
        j = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert np.array_equal(matrix_exp_series(j, 0.0), np.eye(2))

    def test_quarter_turn(self):
        # 2x2 rotation closed form cos/sin at theta = pi/2
        j = np.array([[0.0, 1.0], [-1.0, 0.0]])
        expected = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert np.max(np.abs(matrix_exp_series(j, np.pi / 2) - expected)) <= 1e-12

    def test_inverse_property(self):
        rng = np.random.default_rng(5)
        raw = rng.normal(size=(6, 6))
        j = raw - raw.T
        forward = matrix_exp_series(j, 0.9)
        backward = matrix_exp_series(j, -0.9)
        assert np.max(np.abs(forward @ backward - np.eye(6))) <= 1e-10

    def test_rejects_non_finite(self):
        j = np.array([[0.0, np.inf], [-np.inf, 0.0]])
        with pytest.raises(ValueError, match="finite"):
            matrix_exp_series(j, 1.0)

    def test_additivity(self):
        rng = np.random.default_rng(6)
        raw = rng.normal(size=(5, 5))
        j = raw - raw.T
        lhs = matrix_exp_series(j, 0.7) @ matrix_exp_series(j, 1.9)
        rhs = matrix_exp_series(j, 2.6)
        assert np.max(np.abs(lhs - rhs)) <= 1e-9

    def test_complex_generator(self):
        # exp(theta i X) = cos(theta) I + i sin(theta) X
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        expected = np.cos(1.3) * np.eye(2) + 1j * np.sin(1.3) * x
        assert np.max(np.abs(matrix_exp_series(1j * x, 1.3) - expected)) <= 1e-12


class TestValidateDensityMatrix:
    def test_accepts_valid(self):
        validate_density_matrix(random_density(np.random.default_rng(7), 4))

    def test_rejects_trace(self):
        with pytest.raises(ValueError, match="trace"):
            validate_density_matrix(np.eye(2))

    def test_rejects_non_hermitian(self):
        bad = np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            validate_density_matrix(bad)

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="PSD"):
            validate_density_matrix(np.diag([1.5, -0.5]).astype(complex))

    def test_accepts_valid_batch(self):
        rng = np.random.default_rng(8)
        states = np.stack([random_density(rng, 4) for _ in range(5)])
        validate_density_matrix(states)
        validate_density_matrix(np.stack([states, states]))

    @pytest.mark.parametrize(
        "bad,match",
        [
            (np.full((2, 2), np.nan), "state 3: has non-finite"),
            (np.array([[0.5, 0.1], [0.0, 0.5]]), "state 3: not Hermitian"),
            (np.eye(2), "state 3: trace"),
            (np.diag([1.5, -0.5]), "state 3: not PSD"),
        ],
        ids=["nan", "non_hermitian", "trace", "non_psd"],
    )
    def test_names_the_first_bad_state(self, bad, match):
        rng = np.random.default_rng(9)
        states = np.stack([random_density(rng, 2) for _ in range(6)])
        states[3] = bad
        states[5] = np.full((2, 2), np.nan)
        with pytest.raises(ValueError, match=match):
            validate_density_matrix(states)

    def test_batch_index_is_a_tuple_beyond_one_axis(self):
        states = np.stack([np.eye(2) / 2] * 4).reshape(2, 2, 2, 2)
        states[1, 0] = np.eye(2)
        with pytest.raises(ValueError, match=r"state \(1, 0\): trace"):
            validate_density_matrix(states)

    @pytest.mark.parametrize("dim", [2, 4])
    def test_psd_floor_in_closed_form_and_eigvalsh(self, dim):
        # a rotated diagonal state whose smallest eigenvalue sits just
        # inside or just outside the -1e-10 floor
        rng = np.random.default_rng(10)
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        u, _ = np.linalg.qr(g)
        for low, ok in ((-0.5e-10, True), (-2e-10, False)):
            w = np.full(dim, 0.0)
            w[0], w[-1] = low, 1.0 - low
            rho = (u * w) @ u.conj().T
            rho = (rho + rho.conj().T) / 2.0
            if ok:
                validate_density_matrix(rho)
            else:
                with pytest.raises(ValueError, match="PSD"):
                    validate_density_matrix(rho)
