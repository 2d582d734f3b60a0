import numpy as np
import pytest
from scipy import stats

from kraussphere.geometry import matrices_from_pairs, matrices_to_pairs
from kraussphere.linalg import validate_density_matrix
from kraussphere.sampling import (
    SAMPLE_MEASURES,
    SampleConfig,
    philox_rng,
    sample_bloch_ball,
    sample_bures,
    sample_hilbert_schmidt,
)

from conftest import exactly
from oracles import haar_unitary, sample_one_at_a_time


def bloch_radius(rho):
    x = 2 * rho[0, 1].real
    y = -2 * rho[0, 1].imag
    z = (rho[0, 0] - rho[1, 1]).real
    return np.sqrt(x * x + y * y + z * z)


class TestBlochBall:
    def test_states_are_valid(self):
        for rho in sample_bloch_ball(seed=1, count=200):
            validate_density_matrix(rho)
            assert bloch_radius(rho) <= 1.0 + 1e-12

    def test_mean_is_maximally_mixed(self):
        states = sample_bloch_ball(seed=2, count=10_000)
        mean = np.mean(states, axis=0)
        assert np.max(np.abs(mean - np.eye(2) / 2)) <= 0.02

    def test_deterministic(self):
        a = sample_bloch_ball(seed=3, count=50)
        b = sample_bloch_ball(seed=3, count=50)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_different_seeds_differ(self):
        a = sample_bloch_ball(seed=4, count=5)
        b = sample_bloch_ball(seed=5, count=5)
        assert not np.array_equal(a[0], b[0])

    def test_radius_distribution(self):
        # uniform over ball volume means CDF(r) = r^3
        states = sample_bloch_ball(seed=6, count=10_000)
        radii = np.array([bloch_radius(rho) for rho in states])
        ks = stats.kstest(radii, lambda r: np.clip(r, 0, 1) ** 3)
        assert ks.statistic <= 0.02

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError, match=exactly("count must be >= 1, got 0")):
            sample_bloch_ball(0, 0)


class TestBures:
    @pytest.mark.parametrize("dim", [2, 4])
    def test_states_are_valid(self, dim):
        for rho in sample_bures(seed=7, count=100, dim=dim):
            validate_density_matrix(rho)

    def test_mean_is_maximally_mixed(self):
        states = sample_bures(seed=8, count=10_000, dim=2)
        mean = np.mean(states, axis=0)
        assert np.max(np.abs(mean - np.eye(2) / 2)) <= 0.02

    def test_deterministic(self):
        a = sample_bures(seed=9, count=20, dim=4)
        b = sample_bures(seed=9, count=20, dim=4)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_qubit_radial_law(self):
        # single-qubit Bures density is proportional to r^2 / sqrt(1 - r^2);
        # empirical mean of r^2 should match the analytic 3/4
        states = sample_bures(seed=10, count=10_000, dim=2)
        mean_r2 = np.mean([bloch_radius(rho) ** 2 for rho in states])
        assert mean_r2 == pytest.approx(0.75, abs=0.02)

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            sample_bures(seed=1, count=1, dim=1)


class TestHilbertSchmidt:
    @pytest.mark.parametrize("dim", [2, 4])
    def test_states_are_valid(self, dim):
        for rho in sample_hilbert_schmidt(seed=7, count=100, dim=dim):
            validate_density_matrix(rho)

    def test_deterministic(self):
        a = sample_hilbert_schmidt(seed=9, count=20, dim=4)
        b = sample_hilbert_schmidt(seed=9, count=20, dim=4)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    @pytest.mark.parametrize("dim", [2, 4])
    def test_mean_is_maximally_mixed(self, dim):
        states = sample_hilbert_schmidt(seed=8, count=10_000, dim=dim)
        mean = np.mean(states, axis=0)
        assert np.max(np.abs(mean - np.eye(dim) / dim)) <= 0.02

    @pytest.mark.parametrize("dim", [2, 4])
    def test_mean_purity(self, dim):
        # E[Tr rho^2] = 2d / (d^2 + 1): 4/5 for a qubit (the uniform-ball
        # E[r^2] = 3/5) and 8/17 for two qubits; Bures gives 7/8 and 9/16
        states = sample_hilbert_schmidt(seed=10, count=10_000, dim=dim)
        purity = np.mean([np.trace(rho @ rho).real for rho in states])
        assert purity == pytest.approx(2 * dim / (dim**2 + 1), abs=0.01)

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            sample_hilbert_schmidt(seed=1, count=1, dim=1)


class TestHaarUnitary:
    def test_unitarity(self):
        rng = philox_rng(11)
        for dim in (2, 4, 8):
            u = haar_unitary(rng, dim)
            assert np.max(np.abs(u @ u.conj().T - np.eye(dim))) <= 1e-12

    def test_eigenphase_uniformity(self):
        # Haar eigenphases are uniform on the circle; a simple moment check
        rng = philox_rng(12)
        phases = []
        for _ in range(2000):
            phases.extend(np.angle(np.linalg.eigvals(haar_unitary(rng, 2))))
        phases = np.array(phases)
        assert abs(np.mean(np.exp(1j * phases))) <= 0.03


class TestSampleConfig:
    def test_draw_bloch(self):
        cfg = SampleConfig(n_qubits=1, count=10, seed=13, measure="bloch_ball_uniform")
        states = cfg.draw()
        assert len(states) == 10 and states[0].shape == (2, 2)

    def test_draw_bures_two_qubits(self):
        cfg = SampleConfig(n_qubits=2, count=4, seed=14, measure="bures")
        states = cfg.draw()
        assert states[0].shape == (4, 4)

    def test_draw_hilbert_schmidt_two_qubits(self):
        cfg = SampleConfig(n_qubits=2, count=4, seed=14, measure="hilbert_schmidt")
        states = cfg.draw()
        assert states[0].shape == (4, 4)
        for a, b in zip(states, sample_hilbert_schmidt(seed=14, count=4, dim=4)):
            assert np.array_equal(a, b)

    def test_seed_override(self):
        cfg = SampleConfig(n_qubits=1, count=3, seed=15, measure="bloch_ball_uniform")
        assert np.array_equal(cfg.draw(seed=15)[0], cfg.draw()[0])
        assert not np.array_equal(cfg.draw(seed=16)[0], cfg.draw()[0])

    def test_bloch_is_single_qubit_only(self):
        with pytest.raises(ValueError, match="single-qubit"):
            SampleConfig(n_qubits=2, count=1, seed=0, measure="bloch_ball_uniform")

    def test_rejects_unknown_measure(self):
        with pytest.raises(ValueError, match="unknown measure"):
            SampleConfig(n_qubits=1, count=1, seed=0, measure="not_a_measure")

    def test_rejects_an_empty_count(self):
        message = "need n_qubits >= 1 and count >= 1, got 1, 0"
        with pytest.raises(ValueError, match=exactly(message)):
            SampleConfig(n_qubits=1, count=0, seed=0, measure="hilbert_schmidt")

    @pytest.mark.parametrize("n_qubits", [1, 2, 3])
    def test_count_beyond_any_array(self, n_qubits):
        # count * 4^n * 16 bytes at the largest array numpy can index; one
        # more state is refused before any draw
        most = np.iinfo(np.intp).max // (16 * 4**n_qubits)
        SampleConfig(n_qubits=n_qubits, count=most, seed=0, measure="bures")
        with pytest.raises(ValueError, match=f"sample.count {most + 1} "):
            SampleConfig(n_qubits=n_qubits, count=most + 1, seed=0, measure="bures")


class TestBatchedDraws:
    @pytest.mark.parametrize("measure", SAMPLE_MEASURES)
    @pytest.mark.parametrize("seed", [21, 7, 9])
    def test_equal_to_drawing_one_state_at_a_time(self, measure, seed):
        for dim, count in ((2, 1), (2, 300), (4, 100), (8, 7)):
            if measure == "bloch_ball_uniform" and dim != 2:
                continue
            cfg = SampleConfig(dim.bit_length() - 1, count, seed, measure)
            states = cfg.draw()
            assert states.shape == (count, dim, dim) and states.dtype == complex
            reference = np.array(sample_one_at_a_time(measure, seed, count, dim))
            assert states.tobytes() == reference.tobytes()
            encoded = [
                [[float(z.real), float(z.imag)] for z in rho.ravel()]
                for rho in reference
            ]
            assert matrices_to_pairs(states) == encoded


class TestStateSerialization:
    def test_round_trip(self):
        states = sample_bures(seed=17, count=5, dim=4)
        back = matrices_from_pairs(matrices_to_pairs(states))
        assert back.shape == (5, 4, 4) and np.array_equal(states, back)
        assert matrices_to_pairs(list(states)) == matrices_to_pairs(states)

    def test_rejects_ragged(self):
        with pytest.raises(ValueError):
            matrices_from_pairs([[[1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]])

    def test_rejects_entries_that_are_not_pairs(self):
        message = "expected [count][n*n][re, im] entries, got shape (1, 2)"
        with pytest.raises(ValueError, match=exactly(message)):
            matrices_from_pairs([[1.0, 2.0]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            matrices_from_pairs([[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]])
