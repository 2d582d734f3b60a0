"""Reference implementations the package is tested against.

The dense real chart: every generator as a real 2md x 2md matrix acting
on interleaved frame vectors, built here from scratch in the order of
``generator_basis``, with the closed-form transform
I + (cos t - 1) P + sin t J, the ordered product of one transform per
nonzero angle and every angle's pairing at its prefix of that product
(the reverse sweep's gradient entries).  The package's two-coordinate
chart, read through the basis table's pairs, kinds and blocks, must
agree with it, and its strided-view row updates with a fancy-index
loop.
Beside it: a Taylor-series matrix exponential independent of any closed
form, the central-difference gradient, a per-pair Uhlmann fidelity by
eigendecomposition and its mean over (recovered, original) pairs, the
qubit fidelity and cotangent as a closed form on the four flat matrix
entries (the reference of the package's Pauli-coordinate form), the
batched fidelity and cotangent by complex stacked products (the
reference of the package's real-form d > 2 path),
the transfer matrix, Pauli sandwich and loss cotangent of the learner's
contractions by einsum (the references of its fixed 2-D products),
generator pairings read off one product through the package's pairing
table (checked against the dense chart), and
the three samplers drawn one state at a time, which the batched samplers
must reproduce bit for bit, with the Haar-unitary draw of the Bures
sampler.
"""

import numpy as np

from kraussphere.linalg import PAULI_SIGNS, PAULIS
from kraussphere.transforms import generator_basis, pairing_offsets


def embed_real(h: np.ndarray) -> np.ndarray:
    """Complex n x n matrix -> real 2n x 2n with [[Re, -Im], [Im, Re]] blocks."""
    n = h.shape[0]
    out = np.zeros((2 * n, 2 * n))
    out[0::2, 0::2] = h.real
    out[0::2, 1::2] = -h.imag
    out[1::2, 0::2] = h.imag
    out[1::2, 1::2] = h.real
    return out


def dense_basis(dim: int) -> list[np.ndarray]:
    """The real embeddings of i(E_jk + E_kj), E_jk - E_kj (j < k) and
    i(E_jj - E_{j+1,j+1}) on C^(dim/2), in generator_basis order."""
    n = dim // 2
    pairs = [(j, k) for j in range(n) for k in range(j + 1, n)]
    out = []
    for entry_jk, entry_kj in ((1j, 1j), (1.0, -1.0)):
        for j, k in pairs:
            h = np.zeros((n, n), dtype=complex)
            h[j, k], h[k, j] = entry_jk, entry_kj
            out.append(embed_real(h))
    for j in range(n - 1):
        h = np.zeros((n, n), dtype=complex)
        h[j, j], h[j + 1, j + 1] = 1j, -1j
        out.append(embed_real(h))
    return out


def embed_block(dim: int, j: int, k: int, block: np.ndarray, fill: float) -> np.ndarray:
    """Real 2n x 2n embedding of ``block`` on complex coordinates (j, k);
    the other diagonal entries are ``fill`` (0 for a generator, 1 for a
    transform)."""
    h = fill * np.eye(dim // 2, dtype=complex)
    h[np.ix_([j, k], [j, k])] = block
    return embed_real(h)


def dense_generator(basis, a: int) -> np.ndarray:
    """The 2 x 2 block of the package's generator ``a`` in the dense real
    chart, read off the basis table."""
    j, k = basis.pairs[a]
    return embed_block(basis.dim, j, k, basis.blocks[basis.kinds[a]], 0.0)


def embed_transform(basis, a: int, u: np.ndarray) -> np.ndarray:
    """A 2 x 2 unitary on generator ``a``'s coordinates in the dense real
    chart."""
    j, k = basis.pairs[a]
    return embed_block(basis.dim, j, k, u, 1.0)


def dense_transform(j: np.ndarray, theta: float) -> np.ndarray:
    """Closed form I + (cos theta - 1) P + sin theta J, P = -J^2, of a dense J."""
    return np.eye(len(j)) + (np.cos(theta) - 1.0) * -(j @ j) + np.sin(theta) * j


def dense_product(dense: list[np.ndarray], angles: np.ndarray) -> np.ndarray:
    """M_n ... M_1 over the nonzero angles, factor 1 applied first."""
    total = np.eye(len(dense[0]))
    for j, theta in zip(dense, angles):
        if theta != 0.0:
            total = dense_transform(j, theta) @ total
    return total


def prefix_pairings(dense: list[np.ndarray], angles, left, right) -> np.ndarray:
    """<J_a, L_a^T R_a> for every angle a in the dense real chart, where
    L_a and R_a are the real (rows, 2n) vectors ``left`` and ``right``
    moved by the transforms of angles 1..a (M_a ... M_1, zeros skipped):
    the pairings Re Tr(C_a^† J_a W_a) of the adjoint gradient."""
    total = np.eye(len(dense[0]))
    out = np.empty(len(dense))
    for a, (j, theta) in enumerate(zip(dense, angles)):
        if theta != 0.0:
            total = dense_transform(j, theta) @ total
        out[a] = np.sum(j * ((left @ total.T).T @ (right @ total.T)))
    return out


def fancy_index_rotations(pairs, unitaries, rows: np.ndarray) -> np.ndarray:
    """rows[(j, k)] = u @ rows[(j, k)] for each pair and 2 x 2 unitary, in
    order, through fancy-index copies; updates ``rows`` in place and
    returns it.  The strided-view forward sweep must match it bit for bit.
    """
    for pair, u in zip(pairs, unitaries):
        rows[pair] = u @ rows[pair]
    return rows


def generator_pairings(left, right, start: int = 0, stop: int | None = None):
    """Re Tr(left^† J_a right) for the J_a of generator_basis, a in [start, stop).

    ``left`` and ``right`` are (md, rows) complex arrays; the entries are
    read off Z = left right^† at the package's pairing_offsets, as the
    gradient reads each zero run, so checking this against the dense
    chart checks the offsets.
    """
    basis = generator_basis(2 * left.shape[0])
    first, second, sign = pairing_offsets(basis, slice(start, stop))
    parts = (left @ right.conj().T).astype(complex, copy=False).view(float).ravel()
    return parts.take(first) + sign * parts.take(second)


def einsum_transfer(rows: np.ndarray, d: int, m: int) -> np.ndarray:
    """The d^2 x d^2 transfer matrix T[(j, k), (i, l)] = sum_a K_a[i, j]
    conj(K_a[l, k]) of the (md, d) frame rows [K_1; ...; K_m], by one
    einsum; each flattened recovered state is vec(sigma) T."""
    stack = rows.reshape(m, d, d)
    return np.einsum("aij,alk->jkil", stack, stack.conj()).reshape(d * d, d * d)


def pauli_sandwich(transfer: np.ndarray) -> np.ndarray:
    """Re(Pi T Pi^H) / 2 of a qubit transfer matrix T, Pi holding the
    vec(sigma_alpha) as rows: the real Pauli transfer matrix R with
    q = p R for Pauli coordinates p of a state and q of its image."""
    rows = PAULIS.reshape(4, 4)
    return (rows @ transfer @ rows.conj().T).real / 2.0


def pauli_contraction(originals, corrupted, recovered, weights) -> np.ndarray:
    """X = sum_n vec(Q_n)^T vec(sigma_n) for qubits by the Pauli sandwich
    Pi^T (s^T p / 4) Pi + (eta Pi)^T ((w q)^T p / 4) Pi, where s, p and q
    are the (N, 4) Pauli coordinates of the originals, corrupted and
    recovered states and w the weights sqrt(det o / det a)."""
    rows = PAULIS.reshape(4, 4)
    overlap = originals.T @ corrupted / 4.0
    weighted = (weights[:, None] * recovered).T @ corrupted / 4.0
    return rows.T @ overlap @ rows + (PAULI_SIGNS[:, None] * rows).T @ weighted @ rows


def einsum_cotangent(
    contraction: np.ndarray, rows: np.ndarray, d: int, m: int, n_states: int
) -> np.ndarray:
    """The (m, d, d) loss cotangents dL/dK_a[i, l] = -(2/N) sum_jk
    X[(i, j), (k, l)] K_a[j, k] of the frame rows, by one einsum over the
    contraction X = sum_n vec(Q_n)^T vec(sigma_n)."""
    return np.einsum(
        "ijkl,ajk->ail",
        contraction.reshape(d, d, d, d) * (-2.0 / n_states),
        rows.reshape(m, d, d),
    )


def complex_rows(vectors: np.ndarray) -> np.ndarray:
    """Real (rows, 2n) interleaved vectors -> their complex (n, rows) form."""
    return (vectors[:, 0::2] + 1j * vectors[:, 1::2]).T


def real_vectors(rows: np.ndarray) -> np.ndarray:
    """Complex (n, rows) form -> the real (rows, 2n) interleaved vectors;
    the inverse of complex_rows."""
    return np.stack([rows.T.real, rows.T.imag], axis=-1).reshape(rows.shape[1], -1)


def matrix_exp_series(generator: np.ndarray, theta: float) -> np.ndarray:
    """exp(theta * generator) via scaling and squaring of the Taylor series.

    Real or complex; independent of any closed form: the series is summed
    until the next term is negligible at relative 1e-16, far inside the
    1e-12 contract.
    """
    a = np.asarray(generator)
    a = a.astype(np.result_type(a.dtype, float))
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    a = theta * a
    scale = float(np.linalg.norm(a, ord=np.inf))
    if not np.isfinite(scale):
        raise ValueError("non-finite entries in theta * generator")
    # halve until the norm is <= 0.5 so the series converges fast
    squarings = max(0, int(np.ceil(np.log2(scale / 0.5)))) if scale > 0.5 else 0
    a /= 2.0**squarings
    result = np.eye(a.shape[0], dtype=a.dtype)
    term = np.eye(a.shape[0], dtype=a.dtype)
    k = 1
    while True:
        term = term @ a / k
        result = result + term
        if np.max(np.abs(term)) <= 1e-16 * np.max(np.abs(result)):
            break
        k += 1
    for _ in range(squarings):
        result = result @ result
    return result


def central_difference(func, x: np.ndarray, epsilon: float) -> np.ndarray:
    """Generic central-difference gradient [f(x+eps e_i) - f(x-eps e_i)] / 2eps.

    The reference the exact gradient of LossContext is tested against.
    """
    x = np.asarray(x, dtype=float)
    grad = np.empty_like(x)
    for i in range(x.size):
        shift = np.zeros_like(x)
        shift[i] = epsilon
        grad[i] = (func(x + shift) - func(x - shift)) / (2.0 * epsilon)
    return grad


def reference_fidelity(rho_a, rho_b) -> float:
    """Uhlmann fidelity (Tr sqrt(sqrt(a) b sqrt(a)))^2 of one pair.

    sqrt(a) comes from eigh, the inner trace from eigvalsh.  Eigenvalues
    at or below d * eps * (largest) are zeroed before each square root,
    and the result is clamped to [0, 1].
    """

    def floored(w):
        return np.where(w > len(w) * np.finfo(float).eps * max(w.max(), 0.0), w, 0.0)

    a = np.asarray(rho_a, dtype=complex)
    b = np.asarray(rho_b, dtype=complex)
    w, v = np.linalg.eigh(a)
    root = (v * np.sqrt(floored(w))) @ v.conj().T
    inner = root @ b @ root
    w = floored(np.linalg.eigvalsh((inner + inner.conj().T) / 2.0))
    return min(max(float(np.sum(np.sqrt(w)) ** 2), 0.0), 1.0)


def qubit_dets(rho: np.ndarray) -> np.ndarray:
    """Determinants of (..., 2, 2) PSD matrices from their flat entries,
    zeroed at or below 64 * 2 * eps * top^2, top the larger eigenvalue:
    exactly where the eigenvalue floor zeroes the smaller eigenvalue."""
    det = (rho[..., 0, 0] * rho[..., 1, 1] - rho[..., 0, 1] * rho[..., 1, 0]).real
    half = (rho[..., 0, 0] + rho[..., 1, 1]).real / 2.0
    top = half + np.sqrt(np.clip(half**2 - det, 0.0, None))
    return np.where(det > 64 * np.finfo(float).eps * 2.0 * top**2, det, 0.0)


def flat_qubit_fidelity(originals, recovered) -> tuple[np.ndarray, np.ndarray]:
    """Qubit fidelities Tr(a o) + 2 sqrt(det a det o) and their cotangents
    Q = o + sqrt(det o / det a) adj(a), from the four flat entries.

    ``originals`` o is (N, 2, 2), ``recovered`` a is (..., N, 2, 2).  The
    overlap is one dot product with o's entries in transposed order and
    the adjugate a permutation and sign flip of a's entries; the
    square-root term is dropped where det a is zero.  Not clamped.
    """
    a = recovered.reshape(*recovered.shape[:-2], 4)  # a00 a01 a10 a11
    transposed = originals.swapaxes(-1, -2).reshape(-1, 4)
    dets, original_dets = qubit_dets(recovered), qubit_dets(originals)
    overlap = np.einsum("...i,...i->...", a, transposed).real
    fid = overlap + 2.0 * np.sqrt(dets * original_dets)
    ratio = np.divide(
        original_dets, dets, out=np.zeros_like(dets), where=dets > 0.0
    )
    adj = a[..., [3, 1, 2, 0]] * np.array([1.0, -1.0, -1.0, 1.0])
    scaled = (np.sqrt(ratio)[..., None] * adj).reshape(recovered.shape)
    return fid, originals + scaled


def complex_product_fidelity(originals, recovered) -> tuple[np.ndarray, np.ndarray]:
    """Fidelities and cotangents of (..., N, d, d) recovered states a
    against (N, d, d) originals o by complex stacked products.

    With S = sqrt(o) and X = S a S: F = (Tr sqrt(X))^2 and
    Q = sqrt(F) S X^(-1/2) S, the inverse square root a pseudo-inverse.
    Eigenvalues at or below 64 * d * eps * (largest) are zeroed first,
    in S and in X, as the package's floor does.  Not clamped or checked.
    """

    def floored(w):
        top = np.maximum(w[..., -1:], 0.0)
        return np.where(w > 64 * np.finfo(float).eps * w.shape[-1] * top, w, 0.0)

    w, v = np.linalg.eigh(originals)
    sqrts = (v * np.sqrt(floored(w))[..., None, :]) @ v.conj().swapaxes(-1, -2)
    w, v = np.linalg.eigh(sqrts @ recovered @ sqrts)
    roots = np.sqrt(floored(w))
    total = roots.sum(axis=-1)
    scale = np.divide(
        total[..., None], roots, out=np.zeros_like(roots), where=roots > 0.0
    )
    rotated = sqrts @ v
    cotangent = (rotated * scale[..., None, :]) @ rotated.conj().swapaxes(-1, -2)
    return total**2, cotangent


def average_fidelity(pairs) -> float:
    """Mean reference fidelity over (recovered, original) pairs."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("average_fidelity needs at least one pair")
    return float(np.mean([reference_fidelity(rec, orig) for rec, orig in pairs]))


def sample_one_at_a_time(measure: str, seed: int, count: int, dim: int) -> list:
    """The package's samplers as per-state loops over the same Philox stream.

    Bloch ball: all directions, then all radii.  Ginibre measures: per
    state the real then the imaginary part of G, then (Bures only) of the
    Gaussian matrix whose QR gives the Haar unitary.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    if measure == "bloch_ball_uniform":
        directions = rng.normal(size=(count, 3))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        radii = rng.uniform(size=count) ** (1.0 / 3.0)
        return [
            0.5 * np.array([[1.0 + z, x - 1j * y], [x + 1j * y, 1.0 - z]], dtype=complex)
            for x, y, z in directions * radii[:, None]
        ]

    states = []
    for _ in range(count):
        a = ginibre(rng, dim)
        if measure == "bures":
            a = (np.eye(dim) + haar_unitary(rng, dim)) @ a
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        states.append((rho + rho.conj().T) / 2.0)
    return states


def ginibre(rng, dim: int) -> np.ndarray:
    """A dim x dim complex Ginibre matrix, drawn as its real then its
    imaginary part."""
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def haar_unitary(rng, dim: int) -> np.ndarray:
    """Haar-random unitary: Q of the QR decomposition of a Ginibre matrix,
    its columns rephased so that R has a real positive diagonal."""
    q, r = np.linalg.qr(ginibre(rng, dim))
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases
