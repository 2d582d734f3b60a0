import numpy as np
import pytest

from kraussphere.channels import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    ChannelSpec,
    apply_channel,
    apply_channel_batch,
    depolarizing_channel,
    flip_channel,
    tensor_flip_channel,
)
from kraussphere.geometry import KrausSet

from conftest import exactly, random_channel, random_density

PLUS = np.full((2, 2), 0.5, dtype=complex)  # |+><+|
ZERO = np.diag([1.0, 0.0]).astype(complex)

KIND_PAULI = [
    ("bit_flip", PAULI_X),
    ("phase_flip", PAULI_Z),
    ("bit_phase_flip", PAULI_Y),
]


class TestFlipChannel:
    def test_bit_flip_kraus(self):
        channel = flip_channel("bit_flip", 0.8)
        assert np.allclose(channel.operators[0], np.sqrt(0.2) * np.eye(2), atol=1e-15)
        assert np.array_equal(channel.operators[1], np.sqrt(0.8) * PAULI_X)

    @pytest.mark.parametrize("kind", [k for k, _ in KIND_PAULI])
    def test_noiseless_is_identity(self, kind):
        channel = flip_channel(kind, 0.0)
        assert np.array_equal(channel.operators[0], np.eye(2))
        assert np.array_equal(channel.operators[1], np.zeros((2, 2)))

    def test_phase_flip_half_dephases(self):
        out = apply_channel(flip_channel("phase_flip", 0.5), PLUS)
        assert np.max(np.abs(out - np.eye(2) / 2)) <= 1e-12

    @pytest.mark.parametrize("kind", [k for k, _ in KIND_PAULI])
    @pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 1.0])
    def test_complete(self, kind, p):
        assert flip_channel(kind, p).completeness_deviation() <= 1e-12

    @pytest.mark.parametrize("p", [-0.1, 1.1])
    def test_rejects_bad_probability(self, p):
        with pytest.raises(ValueError, match="outside"):
            flip_channel("bit_flip", p)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown flip kind"):
            flip_channel("amplitude", 0.5)


class TestDepolarizing:
    def test_noiseless_is_identity(self):
        channel = depolarizing_channel(0.0)
        assert np.array_equal(channel.operators[0], np.eye(2))

    def test_three_quarters_sends_to_maximally_mixed(self):
        # twirl identity (rho + X rho X + Y rho Y + Z rho Z) / 4 = I/2
        channel = depolarizing_channel(0.75)
        rng = np.random.default_rng(30)
        for _ in range(10):
            out = apply_channel(channel, random_density(rng, 2))
            assert np.max(np.abs(out - np.eye(2) / 2)) <= 1e-12

    def test_action_on_ground_state(self):
        out = apply_channel(depolarizing_channel(0.8), ZERO)
        expected = np.diag([1 - 2 * 0.8 / 3, 2 * 0.8 / 3])
        assert np.max(np.abs(out - expected)) <= 1e-12

    def test_complete(self):
        assert depolarizing_channel(0.8).completeness_deviation() <= 1e-12


class TestTensorFlipChannel:
    def test_single_qubit_reduces_to_flip(self):
        a = tensor_flip_channel("phase_flip", 0.3, 1)
        b = flip_channel("phase_flip", 0.3)
        for x, y in zip(a.operators, b.operators):
            assert np.array_equal(x, y)

    def test_two_qubit_bit_flip_operators(self):
        channel = tensor_flip_channel("bit_flip", 0.8, 2)
        eye = np.eye(2)
        expected = [
            np.sqrt(0.04) * np.kron(eye, eye),
            np.sqrt(0.16) * np.kron(eye, PAULI_X),
            np.sqrt(0.16) * np.kron(PAULI_X, eye),
            np.sqrt(0.64) * np.kron(PAULI_X, PAULI_X),
        ]
        assert channel.m == 4 and channel.d == 4
        for op, want in zip(channel.operators, expected):
            assert np.max(np.abs(op - want)) <= 1e-15

    @pytest.mark.parametrize("kind", [k for k, _ in KIND_PAULI])
    @pytest.mark.parametrize("p", [0.2, 0.8])
    def test_two_qubit_complete(self, kind, p):
        assert tensor_flip_channel(kind, p, 2).completeness_deviation() <= 1e-12

    def test_three_qubit_shape(self):
        channel = tensor_flip_channel("bit_flip", 0.5, 3)
        assert channel.d == 8 and channel.m == 8
        assert channel.completeness_deviation() <= 1e-12

    @pytest.mark.parametrize(
        "build",
        [
            lambda: tensor_flip_channel("bit_flip", 0.1, 0),
            lambda: ChannelSpec("bit_flip", n_qubits=0),
        ],
        ids=["tensor_flip_channel", "ChannelSpec"],
    )
    def test_rejects_zero_qubits(self, build):
        with pytest.raises(ValueError, match=exactly("n_qubits must be >= 1, got 0")):
            build()


class TestApplyChannel:
    def test_identity_channel(self):
        rho = random_density(np.random.default_rng(31), 2)
        channel = KrausSet([np.eye(2, dtype=complex)])
        assert np.array_equal(apply_channel(channel, rho), rho)

    def test_bit_flip_on_ground_state(self):
        out = apply_channel(flip_channel("bit_flip", 0.8), ZERO)
        assert np.max(np.abs(out - np.diag([0.2, 0.8]))) <= 1e-12

    @pytest.mark.parametrize("p", [0.1, 0.4, 0.9])
    def test_phase_flip_scales_coherences(self, p):
        out = apply_channel(flip_channel("phase_flip", p), PLUS)
        assert out[0, 1] == pytest.approx(0.5 * (1 - 2 * p), abs=1e-12)
        assert out[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            apply_channel(flip_channel("bit_flip", 0.5), np.eye(4) / 4)

    def test_preserves_trace_and_hermiticity(self):
        rng = np.random.default_rng(32)
        for _ in range(100):
            channel = random_channel(rng, 2, 4)
            rho = random_density(rng, 2)
            out = apply_channel(channel, rho)
            assert abs(np.trace(out).real - 1.0) <= 1e-10
            assert np.max(np.abs(out - out.conj().T)) <= 1e-10

    def test_linearity(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            channel = random_channel(rng, 2, 3)
            rho1, rho2 = random_density(rng, 2), random_density(rng, 2)
            a = rng.uniform()
            mixed = apply_channel(channel, a * rho1 + (1 - a) * rho2)
            split = a * apply_channel(channel, rho1) + (1 - a) * apply_channel(
                channel, rho2
            )
            assert np.max(np.abs(mixed - split)) <= 1e-10

    @pytest.mark.parametrize("kind,pauli", KIND_PAULI)
    def test_flip_strength_reflection(self, kind, pauli):
        # E_p = (perfect Pauli) o E_{1-p}: flipping with 1-p then applying
        # the Pauli equals flipping with p
        rng = np.random.default_rng(34)
        p = 0.8
        strong = flip_channel(kind, p)
        weak = flip_channel(kind, 1 - p)
        for _ in range(20):
            rho = random_density(rng, 2)
            lhs = apply_channel(strong, rho)
            rhs = pauli @ apply_channel(weak, rho) @ pauli.conj().T
            assert np.max(np.abs(lhs - rhs)) <= 1e-10

    def test_batch_matches_single(self):
        rng = np.random.default_rng(35)
        channel = random_channel(rng, 2, 4)
        rhos = np.stack([random_density(rng, 2) for _ in range(7)])
        batch = apply_channel_batch(channel.operators, rhos)
        for i in range(7):
            assert np.max(np.abs(batch[i] - apply_channel(channel, rhos[i]))) <= 1e-14


class TestChannelSpec:
    def test_builds_flip(self):
        spec = ChannelSpec(kind="bit_flip", p=0.8, n_qubits=2)
        channel = spec.build()
        assert channel.d == 4 and channel.completeness_deviation() <= 1e-12

    def test_custom_requires_kraus(self):
        with pytest.raises(ValueError, match="custom_kraus"):
            ChannelSpec(kind="custom", p=0.0)

    def test_custom_kraus_needs_kind_custom(self):
        message = "custom_kraus only valid with kind='custom'"
        with pytest.raises(ValueError, match=exactly(message)):
            ChannelSpec("bit_flip", custom_kraus=flip_channel("bit_flip", 0.5))

    def test_custom_builds(self):
        kraus = flip_channel("bit_flip", 0.5)
        spec = ChannelSpec(kind="custom", p=0.0, custom_kraus=kraus)
        assert spec.build() is kraus

    @pytest.mark.parametrize("p", [0.3, 1.0])
    def test_custom_rejects_a_noise_strength(self, p):
        # the custom operators are the noise; a p would only be recorded
        with pytest.raises(ValueError, match="ignored by kind 'custom'"):
            ChannelSpec(kind="custom", p=p, custom_kraus=flip_channel("bit_flip", 0.5))

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown channel kind"):
            ChannelSpec(kind="amplitude_damping", p=0.1)

    def test_depolarizing_single_qubit_only(self):
        with pytest.raises(ValueError, match="single-qubit"):
            ChannelSpec(kind="depolarizing", p=0.5, n_qubits=2)
