import json

import numpy as np
import pytest

from kraussphere.channels import flip_channel
from kraussphere.geometry import (
    KrausFrame,
    KrausSet,
    completeness_gram,
    frame_to_kraus,
    identity_frame,
    kraus_to_frame,
    matrices_to_pairs,
    symplectic_form,
    symplectic_products,
)

from conftest import random_channel


def identity_kraus(d, m):
    ops = [np.eye(d, dtype=complex)]
    ops += [np.zeros((d, d), dtype=complex) for _ in range(m - 1)]
    return KrausSet(d=d, m=m, operators=ops)


class TestSymplecticForm:
    def test_single_block(self):
        assert np.array_equal(symplectic_form(2), [[0.0, 1.0], [-1.0, 0.0]])

    def test_sixteen_is_kron(self):
        block = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert np.array_equal(symplectic_form(16), np.kron(np.eye(8), block))

    @pytest.mark.parametrize("dim", [2, 4, 8, 16, 128])
    def test_structure(self, dim):
        s = symplectic_form(dim)
        assert np.array_equal(s.T, -s)
        assert np.array_equal(s @ s, -np.eye(dim))

    @pytest.mark.parametrize("dim", [0, 1, 3, 7])
    def test_rejects_bad_dim(self, dim):
        with pytest.raises(ValueError):
            symplectic_form(dim)


class TestKrausToFrame:
    def test_identity_channel_layout(self):
        frame = kraus_to_frame(identity_kraus(2, 4))
        v1 = np.zeros(16)
        v1[0] = 1.0  # x^1_11
        v2 = np.zeros(16)
        v2[2] = 1.0  # x^1_22
        assert np.array_equal(frame.vectors[0], v1)
        assert np.array_equal(frame.vectors[1], v2)

    def test_bit_flip_vector(self):
        # hand evaluation of the relabeling on K1 = sqrt(.2) I, K2 = sqrt(.8) X;
        # the relabeling itself is arithmetic-free, so entries match the
        # channel coefficients bitwise
        frame = kraus_to_frame(flip_channel("bit_flip", 0.8))
        expected = np.array([np.sqrt(1.0 - 0.8), 0, 0, 0, 0, 0, np.sqrt(0.8), 0])
        assert np.array_equal(frame.vectors[0], expected)
        assert np.allclose(
            frame.vectors[0], [np.sqrt(0.2), 0, 0, 0, 0, 0, np.sqrt(0.8), 0]
        )
        assert frame.vectors[0] @ frame.vectors[0] == pytest.approx(1.0)

    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            d, m = (2, 4) if rng.random() < 0.7 else (4, 2)
            kraus = random_channel(rng, d, m)
            back = frame_to_kraus(kraus_to_frame(kraus))
            for a, b in zip(kraus.operators, back.operators):
                assert np.array_equal(a, b)

    def test_frame_invariants_of_random_channels(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            frame = kraus_to_frame(random_channel(rng, 2, 4))
            norms = np.sum(frame.vectors**2, axis=1)
            assert np.max(np.abs(norms - 1.0)) <= 1e-8
            euclid = frame.vectors @ frame.vectors.T - np.eye(frame.d)
            assert np.max(np.abs(euclid)) <= 1e-8
            assert np.max(np.abs(symplectic_products(frame))) <= 1e-8

    def test_rejects_incomplete_with_deviation(self):
        bad = KrausSet(d=2, m=1, operators=[0.9 * np.eye(2)])
        with pytest.raises(ValueError, match="deviation 1.9"):
            kraus_to_frame(bad)


class TestFrameToKraus:
    def test_identity_frame_back(self):
        kraus = frame_to_kraus(identity_frame(2, 4))
        assert np.array_equal(kraus.operators[0], np.eye(2))
        for op in kraus.operators[1:]:
            assert np.array_equal(op, np.zeros((2, 2)))

    def test_single_unitary(self):
        # m=1: frame rows are the interleaved columns of one unitary
        u = np.array([[1, 1], [1j, -1j]], dtype=complex) / np.sqrt(2)
        frame = kraus_to_frame(KrausSet(d=2, m=1, operators=[u]))
        back = frame_to_kraus(frame)
        assert back.m == 1
        assert np.array_equal(back.operators[0], u)

    def test_output_complete(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            frame = kraus_to_frame(random_channel(rng, 2, 3))
            assert frame_to_kraus(frame).completeness_deviation() <= 1e-6

    def test_rejects_invalid_frame(self):
        vectors = identity_frame(2, 2).vectors.copy()
        vectors[1] = vectors[0]  # duplicated vector
        with pytest.raises(ValueError, match="frame violates"):
            frame_to_kraus(KrausFrame(d=2, m=2, vectors=vectors))


class TestCompletenessGram:
    def test_identity_frame(self):
        gram = completeness_gram(identity_frame(2, 4))
        assert np.max(np.abs(gram - np.eye(2))) == 0.0

    def test_detects_duplicate(self):
        vectors = identity_frame(2, 2).vectors.copy()
        vectors[1] = vectors[0]
        gram = completeness_gram(KrausFrame(d=2, m=2, vectors=vectors))
        assert gram[0, 1] == pytest.approx(1.0)

    def test_gram_equals_kraus_completeness(self):
        # the Gram matrix is sum_a (K^a)† K^a expressed in frame variables,
        # so the two completeness checks agree in both directions
        rng = np.random.default_rng(13)
        for _ in range(50):
            kraus = random_channel(rng, 2, 4)
            frame = kraus_to_frame(kraus)
            gram = completeness_gram(frame)
            acc = sum(op.conj().T @ op for op in kraus.operators)
            assert np.max(np.abs(gram - acc)) <= 1e-13
            assert np.max(np.abs(gram - np.eye(2))) <= 1e-8

    def test_deviation_matches_on_invalid_frame(self):
        vectors = identity_frame(2, 2).vectors.copy()
        vectors[0] = vectors[0] * (1.0 + 3e-7)  # norm off by ~6e-7
        frame = KrausFrame(d=2, m=2, vectors=vectors)
        gram_dev = float(np.max(np.abs(completeness_gram(frame) - np.eye(2))))
        kraus_dev = frame_to_kraus(frame).completeness_deviation()
        assert gram_dev > 1e-8
        assert abs(gram_dev - kraus_dev) <= 1e-13

    def test_diagonal_symplectic_pairing_exact_zero(self):
        rng = np.random.default_rng(14)
        frame = kraus_to_frame(random_channel(rng, 2, 4))
        assert np.array_equal(np.diag(symplectic_products(frame)), np.zeros(2))


class TestIdentityFrame:
    def test_gram_is_identity(self):
        gram = completeness_gram(identity_frame(2, 4))
        assert np.array_equal(gram, np.eye(2).astype(complex))

    def test_unitary_ansatz_layout(self):
        frame = identity_frame(2, 1)
        assert np.array_equal(frame.vectors[0], [1.0, 0.0, 0.0, 0.0])
        assert np.array_equal(frame.vectors[1], [0.0, 0.0, 1.0, 0.0])

    @pytest.mark.parametrize(
        "d,m,expected_dim", [(2, 4, 16), (2, 1, 4), (4, 16, 128)]
    )
    def test_vector_dimension(self, d, m, expected_dim):
        frame = identity_frame(d, m)
        assert frame.vectors.shape == (d, expected_dim)

    def test_full_rank_dim_scaling(self):
        # with m = d^2 the vector length is 2 d^3 = 2^(3n+1)
        for n_qubits in (1, 2):
            d = 2**n_qubits
            vectors = identity_frame(d, d * d).vectors
            assert vectors.shape[1] == 2 ** (3 * n_qubits + 1)


class TestKrausSet:
    @pytest.mark.parametrize("as_array", [False, True])
    def test_stores_one_complex_array(self, as_array):
        ops = [np.eye(2), np.zeros((2, 2)), np.diag([0.0, 1j])]
        kraus = KrausSet(d=2, m=3, operators=np.array(ops) if as_array else ops)
        assert isinstance(kraus.operators, np.ndarray)
        assert kraus.operators.shape == (3, 2, 2)
        assert kraus.operators.dtype == complex
        assert np.array_equal(kraus.operators, ops)

    def test_deviation_matches_the_per_operator_sum(self):
        rng = np.random.default_rng(17)
        kraus = random_channel(rng, 2, 3)
        kraus.operators[1] *= 1.1
        acc = sum(op.conj().T @ op for op in kraus.operators)
        expected = np.max(np.abs(acc - np.eye(2)))
        assert kraus.completeness_deviation() == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_rejects_non_finite_operators(self, value):
        # NaN fails every deviation > tol test, so the completeness checks
        # let such a set through to the learner
        ops = np.stack([np.eye(2), np.zeros((2, 2)), np.eye(2)]).astype(complex)
        ops[0, 1, 0] = ops[2, 0, 1] = value
        with pytest.raises(ValueError, match=r"operators \[0, 2\] have non-finite"):
            KrausSet(d=2, m=3, operators=ops)
        data = {"d": 2, "m": 3, "operators": matrices_to_pairs(ops)}
        with pytest.raises(ValueError, match="non-finite"):
            KrausSet.from_dict(data)


class TestSerialization:
    def test_kraus_round_trip(self):
        # bit-exact, through the one [re, im] codec
        rng = np.random.default_rng(15)
        for d, m in ((2, 1), (2, 4), (4, 16)):
            kraus = random_channel(rng, d, m)
            data = kraus.to_dict()
            assert data["operators"] == matrices_to_pairs(kraus.operators)
            back = KrausSet.from_dict(json.loads(json.dumps(data)))
            assert back.d == kraus.d and back.m == kraus.m
            assert back.operators.tobytes() == kraus.operators.tobytes()

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            KrausSet(d=2, m=2, operators=[np.eye(2)])
        with pytest.raises(ValueError):
            KrausFrame(d=2, m=2, vectors=np.zeros((2, 6)))
        with pytest.raises(ValueError):
            KrausSet(d=2, m=5, operators=[np.eye(2)] * 5)
        with pytest.raises(ValueError, match="shape"):
            KrausSet(d=2, m=2, operators=[np.eye(2), np.eye(3)])
        with pytest.raises(ValueError, match="shape"):
            KrausSet(d=2, m=1, operators=[np.eye(4)])
