"""Reference implementations and tools that only the tests use.

The first group deliberately avoids the package's lifting/exponential code
paths: operators are lifted by digit decoding and exponentials are computed
by a scaling-and-squaring Taylor series.  The second group (from
``rotation_gate`` on) is built on the package's own primitives: the
closed-form gate builders, a gate's matrix from its generator, exact
imaginary-time evolution, finite differences, sampling and the
single-element Fourier and randomized readings that the tests check the
program against.
"""
from __future__ import annotations

import tracemalloc
from typing import Callable, Sequence

import numpy as np

from quditgauge import fixtures, measure
from quditgauge.core import LocalOperator, QuditRegister, check_hermitian, hermitian_expm, inner, ms_generator
from quditgauge.model import electric_values, gauss_projector, link_raise_op, unitary_split
from quditgauge.oracle import Spectrum
from quditgauge.varsim import exact_eom, solve_flow


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
    circuit = route.circuit
    psi, words = measure._read_words(route, theta, psi0)
    nrows = 2 * len(circuit.gates)
    coefs = np.array([unitary_split(g.generator).norm / 2.0 for g in circuit.gates])
    ham = nrows + 1 + route.ham_col
    rng = np.random.default_rng(seed) if shots is not None else None

    order = route.rows.order  # each piece's sweep row, by its key

    def pieces(mu):  # u_p, then u_p^dag, for each gate p of slot mu: their rows, and their adjoints' rows
        pos = np.array(circuit.slot_positions(mu))
        keys = np.stack([2 * pos, 2 * pos + 1], axis=1).ravel()
        return np.repeat(coefs[pos], 2), order[keys], order[keys ^ 1]

    def values(w, alpha):  # Re<W> (alpha = 0) or Im<W> (alpha = pi/2)
        p = measure._maybe_binomial(measure._plus_probability(w, np.exp(1.0j * alpha)), shots, rng)
        return 2.0 * p - 1.0 if alpha == 0.0 else 1.0 - 2.0 * p

    def total(terms):
        out = 0.0
        for term in np.ravel(terms):
            out += term
        return out

    def element(label, mu, nu=None):
        c_left, own_left, adjoint_left = pieces(mu)
        c_right, right = pieces(nu)[:2] if label == "M" else (route.ham_coefs, ham)
        alpha = np.pi / 2.0 if label == "VI" else 0.0
        pair = total(np.multiply.outer(c_left, c_right) * values(words[np.ix_(adjoint_left, right)], alpha))
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


def rotation_gate(d: int, i: int, j: int, theta: float, phi: float) -> LocalOperator:
    """Two-level rotation exp(-i theta/2 (cos phi X + sin phi Y)) on levels (i, j)."""
    if not 0 <= i < j < d:
        raise ValueError(f"need 0 <= i < j < d, got i={i}, j={j}, d={d}")
    m = np.eye(d, dtype=complex)
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    m[i, i] = c
    m[j, j] = c
    m[i, j] = -1.0j * s * np.exp(-1.0j * phi)
    m[j, i] = -1.0j * s * np.exp(1.0j * phi)
    return LocalOperator(d, (0,), m)


def rz_gate(d: int, i: int, j: int, theta: float) -> LocalOperator:
    """Diagonal rotation exp(-i theta/2 Z) on levels (i, j)."""
    if not 0 <= i < j < d:
        raise ValueError(f"need 0 <= i < j < d, got i={i}, j={j}, d={d}")
    diag = np.ones(d, dtype=complex)
    diag[i] = np.exp(-1.0j * theta / 2.0)
    diag[j] = np.exp(1.0j * theta / 2.0)
    return LocalOperator(d, (0,), np.diag(diag))


def ms_gate(d: int, i: int, j: int, theta: float) -> LocalOperator:
    """Two-qudit Molmer-Sorensen gate on the (i, j) two-level subspace."""
    gen = ms_generator(d, i, j)
    if theta == 0.0:
        mat = np.eye(d * d, dtype=complex)
    else:
        mat = hermitian_expm(gen.matrix, -1.0j * theta)
    return LocalOperator(d, (0, 1), mat)


def crot_gate(theta: float, d: int = 3) -> LocalOperator:
    """Controlled rotation: exp(-i theta/2 X^{1,2}) on the target when the control is |2>."""
    if d != 3:
        raise ValueError("CROT is defined for qutrits (d = 3)")
    mat = np.eye(9, dtype=complex)
    mat[6:9, 6:9] = rotation_gate(3, 1, 2, theta, 0.0).matrix
    return LocalOperator(3, (0, 1), mat)


def plaquette_gate(theta: float, plaq_op: LocalOperator) -> LocalOperator:
    """Four-qudit entangler exp(-i theta S) generated by a Hermitian loop sum S."""
    check_hermitian(plaq_op.matrix, "plaquette generator", atol=1e-10)
    if theta == 0.0:
        mat = np.eye(plaq_op.matrix.shape[0], dtype=complex)
    else:
        mat = hermitian_expm(plaq_op.matrix, -1.0j * theta)
    return LocalOperator(plaq_op.local_dim, plaq_op.targets, mat)


def gate_matrix(gate, theta: float) -> np.ndarray:
    """exp(-i theta G) of an ``ansatz.Gate`` from its generator, exactly the identity at theta = 0."""
    if theta == 0.0:
        return np.eye(gate.generator.matrix.shape[0], dtype=complex)
    return hermitian_expm(gate.generator.matrix, -1.0j * theta)


def norm(state: QuditRegister) -> float:
    return float(np.linalg.norm(state.amplitudes))


def fidelity(a: QuditRegister, b: QuditRegister) -> float:
    return float(abs(inner(a, b)) ** 2)


def sample_counts(state: QuditRegister, shots: int, rng_seed: int) -> np.ndarray:
    """Multinomial basis-measurement histogram; deterministic for a fixed seed."""
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    probs = np.abs(state.amplitudes) ** 2
    probs = probs / probs.sum()
    rng = np.random.default_rng(rng_seed)
    return rng.multinomial(shots, probs)


def slot_tangents(circuit, theta, psi0, frame=None):
    """``Circuit.tangents`` with T's last axis put in slot order, so that T[:, mu] = d psi / d theta_mu."""
    psi, tang, ref = circuit.tangents(theta, psi0, frame)
    return psi, tang[..., circuit.tangent_plan.order], ref


def metric(circuit, theta, psi0: QuditRegister) -> np.ndarray:
    """The metric M alone: ``exact_eom`` with H = 0, as a zero dense matrix."""
    return exact_eom(circuit, theta, np.zeros((psi0.dim, psi0.dim)), psi0, "imag").m


def eom_peak_bundles(ctx, theta, kind: str) -> float:
    """The tracemalloc peak of one ``exact_eom`` and its ``solve_flow``, in tangent bundles of P·D·16 B.

    A first, untraced call builds the circuit's cached plans, as a run's
    first step does.
    """

    def eom_and_solve():
        eom = exact_eom(ctx.circuit, theta, ctx.spectrum, ctx.psi0, kind)
        solve_flow(eom.factor, eom.target, factor=True)

    eom_and_solve()
    tracemalloc.start()
    try:
        eom_and_solve()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (ctx.circuit.num_params * ctx.psi0.dim * 16)


def evolve_imag(spec: Spectrum, psi0: np.ndarray, tau: float) -> np.ndarray:
    """Normalized exp(-H tau) |psi0>; the spectrum is shifted for stability."""
    out = spec.apply(lambda w: np.exp(-(w - spec.ground_energy) * tau), psi0)
    length = np.linalg.norm(out)
    if length < 1e-300:
        raise ValueError("imaginary-time evolution annihilated the state")
    return out / length


def finite_difference(
    f: Callable[[np.ndarray], float],
    theta: np.ndarray,
    mu: int,
    order: int = 1,
    h: float = 1e-5,
) -> float:
    """Central difference of a scalar function along one coordinate."""
    if h <= 0:
        raise ValueError("step must be positive")
    theta = np.asarray(theta, dtype=float)
    up = theta.copy()
    dn = theta.copy()
    up[mu] += h
    dn[mu] -= h
    if order == 1:
        return (f(up) - f(dn)) / (2.0 * h)
    if order == 2:
        return (f(up) - 2.0 * f(theta) + f(dn)) / h**2
    raise ValueError(f"order must be 1 or 2, got {order}")


def oscillation_period(times: Sequence[float], values: Sequence[float]) -> float:
    """Peak-to-peak spacing of a sampled oscillating series."""
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    peaks = [i for i in range(1, len(v) - 1) if v[i] >= v[i - 1] and v[i] > v[i + 1]]
    if len(peaks) < 2:
        raise ValueError("fewer than two maxima in the series")
    return float(np.mean(np.diff(t[peaks])))


def fourier_value(plan, coeffs: np.ndarray, a: float) -> float:
    """The fitted Fourier sum of a ``measure.ShiftPlan`` at shift a."""
    return float(np.real(np.sum(coeffs * np.exp(1.0j * a * plan.frequencies))))


def randomized_connected_anticommutator(a: np.ndarray, b: np.ndarray, psi0: np.ndarray, samples: int, rng) -> float:
    """Connected anticommutator <{A, B}>_0 - 2<A>_0<B>_0 from ``samples`` random-unitary snapshots."""
    phi = measure._snapshot_draw(psi0.size, samples, rng)
    values = np.column_stack([np.einsum("si,ij,sj->s", phi.conj(), op, phi).real for op in (a, b)])
    mean0 = np.array([np.vdot(psi0, op @ psi0).real for op in (a, b)])
    traces = np.trace([a, b], axis1=1, axis2=2).real
    return float(measure._connected_anticommutators(values, mean0, traces, phi, psi0)[0, 1])


def fixture_value(name: str) -> float:
    return float(fixtures.load_fixtures()[name]["value"])
