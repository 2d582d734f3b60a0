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
entries and the batched fidelity and cotangent by complex stacked
products (the references of the package's real-form matrix path), the
transfer matrix and loss cotangent of the learner's contractions by
einsum (the references of its fixed 2-D products), the per-state qubit
loss and gradient built from them (the reference of the learner's
unitary shortcut), and
the three samplers drawn one state at a time, which the batched samplers
must reproduce bit for bit, with the Haar-unitary draw of the Bures
sampler.  Last, the bars a learned quasi-inverse has to reach on the
same states: the exact Pauli recovery of a noisy ensemble, the
transpose-channel (Petz) recovery, the best unitary qubit recovery in
closed form, and a certified bound on the gap to the best CPTP
recovery; and the loss Hessian's spectrum, the second-order check that
a learn did not stop at a saddle.
"""

import functools

import numpy as np

from kraussphere.channels import PAULIS, apply_channel_batch
from kraussphere.transforms import forward_sweep, generator_basis, reverse_sweep


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


def einsum_transfer(rows: np.ndarray, d: int, m: int) -> np.ndarray:
    """The d^2 x d^2 transfer matrix T[(j, k), (i, l)] = sum_a K_a[i, j]
    conj(K_a[l, k]) of the (md, d) frame rows [K_1; ...; K_m], by one
    einsum; each flattened recovered state is vec(sigma) T."""
    stack = rows.reshape(m, d, d)
    return np.einsum("aij,alk->jkil", stack, stack.conj()).reshape(d * d, d * d)


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


def per_state_qubit_step(corrupted, originals, m: int, angles) -> tuple:
    """Loss and gradient of a qubit ensemble by the per-state path at any
    angles: the swept rows' transfer matrix by :func:`einsum_transfer`,
    every state's fidelity and cotangent by :func:`flat_qubit_fidelity`
    (clamped to [0, 1]), their contraction X = sum_n vec(Q_n)^T
    vec(sigma_n), the cotangents by :func:`einsum_cotangent` and the
    package's reverse sweep."""
    basis = generator_basis(4 * m)
    rows = np.eye(2 * m, 2, dtype=complex)
    swept = forward_sweep(basis, angles, rows)
    flat = corrupted.reshape(-1, 4)
    recovered = (flat @ einsum_transfer(rows, 2, m)).reshape(corrupted.shape)
    fid, cotangents = flat_qubit_fidelity(originals, recovered)
    contraction = cotangents.reshape(-1, 4).T @ flat
    cotangent = einsum_cotangent(contraction, rows, 2, m, len(flat))
    stack = np.concatenate([cotangent.reshape(2 * m, 2), rows], axis=1)
    return 1.0 - np.clip(fid, 0.0, 1.0).mean(), reverse_sweep(basis, swept, stack)


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


def hessian_spectrum(ctx, angles, h: float = 1e-5) -> tuple[np.ndarray, np.ndarray]:
    """The ascending eigenvalues and the Hessian of ``ctx``'s loss at
    ``angles``: column i is the central difference
    [g(x + h e_i) - g(x - h e_i)] / 2h of the exact gradient g, and the
    result is symmetrized.  2 * n_angles gradient calls."""
    angles = np.asarray(angles, dtype=float)
    columns = []
    for i in range(angles.size):
        shift = np.zeros_like(angles)
        shift[i] = h
        _, ahead = ctx.gradient(angles + shift)
        _, behind = ctx.gradient(angles - shift)
        columns.append((ahead - behind) / (2.0 * h))
    hessian = np.array(columns)
    hessian = (hessian + hessian.T) / 2.0
    return np.linalg.eigvalsh(hessian), hessian


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


def pauli_recovery_fidelity(channel, pauli, states) -> float:
    """Mean reference fidelity of n-qubit ``states`` recovered from
    ``channel`` by the unitary P (x) ... (x) P, one single-qubit ``pauli``
    (or the identity) on each of the n qubits, n read off the states."""
    held = np.stack(states)
    n_qubits = held.shape[-1].bit_length() - 1
    unitary = functools.reduce(np.kron, [pauli] * n_qubits)
    noisy = apply_channel_batch(channel.operators, held)
    recovered = unitary @ noisy @ unitary.conj().T
    return average_fidelity(zip(recovered, held))


def petz_recovery(noise: np.ndarray, states) -> np.ndarray:
    """The transpose-channel (Petz) recovery of the (m, d, d) ``noise``
    operators K_a against the ensemble mean s of ``states``: the
    operators R_a = s^(1/2) K_a^H E(s)^(-1/2) (Barnum & Knill 2002), a
    CPTP recovery in closed form wherever E(s) has full rank."""
    mean = np.mean(states, axis=0)

    def power(h, exponent):
        w, v = np.linalg.eigh(h)
        return (v * w**exponent) @ v.conj().T

    root = power(mean, 0.5)
    inverse_root = power(apply_channel_batch(noise, mean[None])[0], -0.5)
    return np.stack([root @ k.conj().T @ inverse_root for k in noise])


def best_unitary_qubit_fidelity(noise: np.ndarray, states) -> float:
    """The mean fidelity of the best unitary recovery of qubit ``states``
    sent through the (m, 2, 2) ``noise`` operators, in closed form.

    A unitary turns the corrupted state's Bloch vector s_n by a rotation
    R, and F_n = (1 + p_n . R s_n) / 2 + 2 sqrt(det sigma_n det o_n),
    p_n the original's Bloch vector (Jozsa 1994).  So the best R
    maximizes Tr(R^T B), B = sum_n p_n s_n^T: Wahba's problem, solved by
    one SVD B = U diag(w) V^T as R = U diag(1, 1, det U det V) V^T
    (Markley 1988).  Each det is floored as :func:`qubit_dets` does.
    """
    originals = np.asarray(states, dtype=complex)
    corrupted = apply_channel_batch(noise, originals)

    def bloch(rho):
        return np.einsum("kji,nij->nk", PAULIS[1:], rho).real

    p, s = bloch(originals), bloch(corrupted)
    u, _, vt = np.linalg.svd(p.T @ s)
    rotation = u @ np.diag([1.0, 1.0, np.linalg.det(u @ vt)]) @ vt
    overlaps = np.einsum("ni,ij,nj->n", p, rotation, s)
    offsets = 2.0 * np.sqrt(qubit_dets(corrupted) * qubit_dets(originals))
    return float(np.mean((1.0 + overlaps) / 2.0 + offsets))


def recovery_loss(noise: np.ndarray, recovery: np.ndarray, states) -> float:
    """f = 1 - mean F of ``states`` sent through the (m, d, d) ``noise``
    operators, then the ``recovery`` operators, by the complex-product
    fidelity."""
    originals = np.asarray(states, dtype=complex)
    recovered = apply_channel_batch(recovery, apply_channel_batch(noise, originals))
    fid, _ = complex_product_fidelity(originals, recovered)
    return 1.0 - float(fid.mean())


def optimality_gap(noise: np.ndarray, recovery: np.ndarray, states) -> float:
    """An upper bound on f(J) - min f over every CPTP recovery, for the
    (m, d, d) ``recovery`` operators R_a of the (m', d, d) ``noise``
    operators on ``states``, with f = :func:`recovery_loss`.

    f is convex in the recovery's Choi matrix J = sum_a vec(R_a)
    vec(R_a)^H (row-major vec, so J[(i, j), (l, k)] is the coefficient
    of sigma[j, k] in tau[i, l]), as each F is concave in the recovered
    state tau_n, which is linear in J.  Its gradient is
    Z = -(1/N) sum_n Q_n (x) sigma_n^T, Q_n = dF/dtau at tau_n and
    sigma_n the corrupted states.  Every CPTP J' has Tr_out J' = I, so
    for any Hermitian Y on the input space, with S = Z - I (x) Y,
    f(J) - f(J') <= <S, J - J'> <= |Tr(S J)| + d max(0, -lambda_min(S))
    (Tr J' = d).  Y = Tr_out(Z J), Hermitian part, makes Tr(S J) vanish
    up to J's completeness error, and is the multiplier of the KKT
    point S >= 0, S J = 0 when J is optimal, where the bound is 0.
    Q_n is :func:`complex_product_fidelity`'s cotangent, in which the
    eigenvalue floor zeroes the terms of the eigenvalues it zeroes (a
    pseudo-inverse).  That Q_n is a supergradient of F where tau_n is
    full rank above the floor, or o_n is pure (F then linear in tau);
    at a singular tau_n against a mixed o_n, F has no finite
    supergradient and the bound is not claimed.
    """
    originals = np.asarray(states, dtype=complex)
    n_states, d = originals.shape[:2]
    corrupted = apply_channel_batch(noise, originals)
    recovered = apply_channel_batch(recovery, corrupted)
    _, cotangents = complex_product_fidelity(originals, recovered)
    gradient = -np.einsum("nil,nkj->ijlk", cotangents, corrupted) / n_states
    gradient = gradient.reshape(d * d, d * d)
    flat = recovery.reshape(len(recovery), d * d)
    choi = flat.T @ flat.conj()
    multiplier = np.einsum("ijik->jk", (gradient @ choi).reshape(d, d, d, d))
    multiplier = (multiplier + multiplier.conj().T) / 2.0
    slack = gradient - np.kron(np.eye(d), multiplier)
    lowest = np.linalg.eigvalsh(slack)[0]
    return d * max(0.0, -lowest) + abs(np.trace(slack @ choi))


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
