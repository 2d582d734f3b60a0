import numpy as np
import pytest

from kraussphere.linalg import (
    floor_eigenvalues,
    hermitian_eig,
    matrix_exp_series,
    psd_sqrt,
    qubit_dets,
    uhlmann_fidelity,
    validate_density_matrix,
)

from conftest import pure_density, random_density, random_hermitian


class TestHermitianEig:
    def test_diagonal(self):
        w, v = hermitian_eig(np.diag([1.0, 2.0]))
        assert np.allclose(w, [1.0, 2.0])
        assert np.allclose(np.abs(v), np.eye(2))

    def test_pauli_x(self):
        # characteristic polynomial lambda^2 - 1 = 0 by hand
        w, _ = hermitian_eig(np.array([[0, 1], [1, 0]], dtype=complex))
        assert np.allclose(w, [-1.0, 1.0])

    @pytest.mark.parametrize("dim", [2, 3, 5, 8])
    def test_identity(self, dim):
        w, _ = hermitian_eig(np.eye(dim))
        assert np.allclose(w, 1.0)

    def test_reconstruction_random(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            dim = rng.integers(2, 9)
            a = random_hermitian(rng, dim)
            w, v = hermitian_eig(a)
            assert np.max(np.abs(v @ np.diag(w) @ v.conj().T - a)) <= 1e-9
            assert np.max(np.abs(v.conj().T @ v - np.eye(dim))) <= 1e-9
            assert np.all(np.diff(w) >= 0)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            hermitian_eig(np.zeros((2, 3)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestPsdSqrt:
    def test_scaled_identity(self):
        root = psd_sqrt(np.eye(2) / 2)
        assert np.allclose(root, np.eye(2) / np.sqrt(2))

    def test_diagonal(self):
        root = psd_sqrt(np.diag([0.25, 0.75]))
        assert np.allclose(root, np.diag([0.5, np.sqrt(0.75)]))

    def test_projector_is_own_root(self):
        proj = np.diag([1.0, 0.0]).astype(complex)
        assert np.allclose(psd_sqrt(proj), proj)

    def test_squares_back(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            rho = random_density(rng, int(rng.integers(2, 9)))
            root = psd_sqrt(rho)
            assert np.max(np.abs(root @ root - rho)) <= 1e-9
            assert np.max(np.abs(root - root.conj().T)) <= 1e-9

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="not PSD"):
            psd_sqrt(np.diag([1.0, -1e-6]))


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
        with pytest.raises(ValueError, match="outside"):
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


class TestEigenvalueFloor:
    def test_zeroes_rounding_level_only(self):
        w = np.array([[-1e-17, 1e-17, 1e-3, 0.5], [0.0, 0.25, 0.25, 0.5]])
        assert np.array_equal(
            floor_eigenvalues(w), [[0.0, 0.0, 1e-3, 0.5], [0.0, 0.25, 0.25, 0.5]]
        )

    def test_qubit_dets_match_the_floor(self):
        rng = np.random.default_rng(6)
        pure, mixed = pure_density(rng, 2), random_density(rng, 2)
        dets = qubit_dets(np.stack([pure, mixed]))
        assert dets[0] == 0.0
        assert dets[1] == pytest.approx(np.linalg.det(mixed).real, rel=1e-12)


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
