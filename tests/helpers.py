"""Independent reference implementations used as test oracles.

These deliberately avoid the package's lifting/exponential code paths:
operators are lifted by digit decoding and exponentials are computed by a
scaling-and-squaring Taylor series.
"""
from __future__ import annotations

import numpy as np


def digit(index, q: int, d: int):
    return (index // d**q) % d


def kron_lift(matrix: np.ndarray, targets, num_qudits: int, d: int) -> np.ndarray:
    """Embed a k-qudit matrix (targets[0] most significant) into the full space."""
    dim = d**num_qudits
    k = len(targets)
    idx = np.arange(dim)
    loc = np.zeros(dim, dtype=np.int64)
    for pos, t in enumerate(targets):
        loc += digit(idx, t, d) * d ** (k - 1 - pos)
    rest = np.zeros(dim, dtype=np.int64)
    weight = 1
    for q in range(num_qudits):
        if q not in targets:
            rest += digit(idx, q, d) * weight
            weight *= d
    full = np.zeros((dim, dim), dtype=complex)
    same_rest = rest[:, None] == rest[None, :]
    full[same_rest] = matrix[loc[:, None], loc[None, :]][same_rest]
    return full


def series_expm(a: np.ndarray) -> np.ndarray:
    """exp(a) by scaling and squaring with a Taylor series."""
    norm = np.linalg.norm(a, ord=np.inf)
    squarings = max(0, int(np.ceil(np.log2(max(norm, 1e-300)))) + 1)
    small = a / 2**squarings
    out = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, 40):
        term = term @ small / k
        out = out + term
        if np.max(np.abs(term)) < 1e-18:
            break
    for _ in range(squarings):
        out = out @ out
    return out


def random_state(dim: int, rng) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_hermitian(dim: int, rng) -> np.ndarray:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2.0


def hadamard_eom_reference(route, theta, psi0, kind: str, shots=None, seed: int = 0):
    """The Hadamard route's metric and vector, one element at a time: the reference for ``hadamard_eom``.

    A loop over the metric's upper triangle row by row, then the vector;
    each element draws its pair words row-major, then its left and then its
    right single words, from one generator, and adds its tests up one by
    one in that order.  It reads the word matrix of ``measure._read_words``,
    so with the same seed it must give the route's metric and vector bit
    for bit.
    """
    from quditgauge import measure
    from quditgauge.model import unitary_split

    circuit = route.circuit
    psi, words = measure._read_words(route, theta, psi0)
    nrows = 2 * len(circuit.gates)
    coefs = np.array([unitary_split(g.generator).norm / 2.0 for g in circuit.gates])
    ham = nrows + 1 + route.ham_col
    rng = np.random.default_rng(seed) if shots is not None else None

    def pieces(mu):  # u_p, then u_p^dag, for each gate p of slot mu
        pos = np.array(circuit.slot_positions(mu))
        return np.repeat(coefs[pos], 2), np.stack([2 * pos, 2 * pos + 1], axis=1).ravel()

    def values(w, alpha):  # Re<W> (alpha = 0) or Im<W> (alpha = pi/2)
        p = measure._maybe_binomial(measure._plus_probability(w, np.exp(1.0j * alpha)), shots, rng)
        return 2.0 * p - 1.0 if alpha == 0.0 else 1.0 - 2.0 * p

    def total(terms):
        out = 0.0
        for term in np.ravel(terms):
            out += term
        return out

    def element(label, mu, nu=None):
        c_left, own_left = pieces(mu)
        c_right, right = pieces(nu) if label == "M" else (route.ham_coefs, ham)
        alpha = np.pi / 2.0 if label == "VI" else 0.0
        pair = total(np.multiply.outer(c_left, c_right) * values(words[np.ix_(own_left ^ 1, right)], alpha))
        if label == "VI":
            return -2.0 * pair
        single_left = total(c_left * values(words[nrows, own_left], 0.0))
        single_right = total(c_right * values(words[nrows, right], 0.0))
        if label == "M":
            return pair - single_left * single_right
        return 2.0 * pair - 2.0 * single_left * single_right

    npar = circuit.num_params
    m = np.zeros((npar, npar))
    for mu in range(npar):
        for nu in range(mu, npar):
            m[mu, nu] = m[nu, mu] = element("M", mu, nu)
    label = {"imag": "VI", "real": "VR"}[kind]
    return psi, m, np.array([element(label, mu) for mu in range(npar)])


def dense_plaquette_loop(lattice, electric_offset: str, link_amplitude: str) -> np.ndarray:
    """The plaquette loop operator's matrix as a product of four dense lifts and a dense phase matrix.

    This is the construction ``model.plaquette_loop_op`` replaced; every
    entry of the model's operator must equal it exactly.
    """
    from quditgauge.model import electric_values, link_raise_op

    d = lattice.local_dim
    raise_mat = link_raise_op(d, link_amplitude).matrix
    prod = np.eye(d**4, dtype=complex)
    for link, dag in ((0, False), (1, False), (2, True), (3, True)):
        prod = prod @ kron_lift(raise_mat.conj().T if dag else raise_mat, (link,), 4, d)
    evals = electric_values(d, electric_offset)
    idx = np.arange(d**4)
    exponent = np.full(d**4, 2.0 * lattice.boundary)
    for link in (0, 1):
        exponent += evals[digit(idx, link, d)]
    return np.diag(np.exp(1.0j * np.pi * exponent)) @ prod


def dense_plaquette_hop_term(link: int, lattice, electric_offset: str, link_amplitude: str) -> np.ndarray:
    """One plaquette hopping term, P_1 sign U P_1 + h.c., as three dense products of lifted matrices.

    This is the construction ``model._plaquette_hop_term`` replaced; every
    entry of the model's term must equal it exactly.
    """
    from quditgauge.model import electric_values, gauss_projector, link_raise_op

    d = lattice.local_dim
    table = {0: (1, 0, 1, (0,)), 1: (2, 1, 3, (0, 1)), 2: (1, 2, 3, (2, 1)), 3: (2, 0, 2, (0, 3))}
    direction, site_a, site_b, marked = table[link]
    evals = electric_values(d, electric_offset)
    idx = np.arange(d**4)
    exponent = np.full(d**4, 0.0 - lattice.site_parity(site_b))
    for l in marked:
        exponent += evals[digit(idx, l, d)]
    sign = np.diag(np.exp(1.0j * np.pi * exponent))
    overall = 1.0 if direction == 1 else -1.0
    p_a, p_b = (
        kron_lift(op.matrix, op.targets, 4, d)
        for op in (gauss_projector(site, 1, lattice, electric_offset) for site in (site_a, site_b))
    )
    u = kron_lift(link_raise_op(d, link_amplitude).matrix, (link,), 4, d)
    half = overall * (p_a @ sign @ u @ p_b)
    return half + half.conj().T
