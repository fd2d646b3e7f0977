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
