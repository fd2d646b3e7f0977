"""Emulation of the hardware measurement routes for the metric and flow vectors.

Three routes are provided besides exact linear algebra:

* overlap/parameter-shift: circuit observables are finite Fourier sums in a
  parameter shift; sampling them on a full-rank point set and solving the
  linear system gives analytical derivatives at zero shift.  Each distinct
  shifted state is simulated once per theta, and every overlap and energy
  sample is read off that table.
* Hadamard tests: matrix and vector elements are (anti-)commutator
  expectations of Heisenberg-conjugated generators.  Each generator is
  split as c (u + u^dag) with u unitary, so an element sums tests on words
  of two unitary pieces (phase 0 for anticommutators, pi/2 for
  commutators).  The route's test program is laid out once: each test of
  an EOM, in draw order, is a word, a phase, a coefficient and the element
  it adds into.  No ancilla is simulated: per theta one stage sweep inserts
  u_p and u_p^dag after every gate p, one Gram of the sweep's rows and the
  Hamiltonian pieces' rows gives every noiseless word <W>, and one gather
  reads every test's P(+) = (1 + Re e^{i alpha} <W>)/2.
* global random unitaries: every connected anticommutator from the third
  Haar moment of one set of random-unitary snapshots, over the Heisenberg
  generators and H~, all made traceless; each tangent sweep reads them off
  a whole block of snapshots, and no D x D operator is formed.

Each route returns its ``EomQuantities`` at one theta: the state, M, one
flow vector and the energy <psi|H|psi>, read off values the route already
computes; ``varsim.make_estimator`` picks the route.  With shots set, one
generator per call replaces every elementary probability by a binomial draw
and every energy sample of the shift route's gradient by sampling the
Hamiltonian spectrum, in a fixed order; the reported energy stays noiseless.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import core
from .ansatz import Circuit, RowPlan
from .config import RANDOMIZED_MAX_DIM
from .core import LocalOperator, QuditRegister, apply, inner
from .model import unitary_split
from .oracle import Spectrum

RANK_COND_LIMIT = 1e8
_SNAPSHOT_BYTES = 16 * 2**20  # one sweep block of randomized snapshots, (P + 1) D 16 B each; measured in CHANGES.md


@dataclass(frozen=True)
class EomQuantities:
    """Metric and flow vector at theta, with the state and its energy <psi|H|psi>.

    ``factor`` is None, or F (P x n) such that M = F F^T, and ``target`` is
    then r (n entries) with F r = v.  ``varsim.exact_eom`` always returns
    the factor, with ``metric`` None; the estimator routes return M itself
    as ``metric``.  ``m`` reads the metric either way.
    """

    metric: np.ndarray | None
    v: np.ndarray
    psi: QuditRegister
    energy: float
    factor: np.ndarray | None = None
    target: np.ndarray | None = None

    @functools.cached_property
    def m(self) -> np.ndarray:
        """M: ``metric``, or F F^T formed from ``factor`` on first read."""
        return self.factor @ self.factor.T if self.metric is None else self.metric


@dataclass(frozen=True)
class ShiftPlan:
    """Frequencies, evaluation points, and the design matrix exp(i a_l w_r)."""

    frequencies: np.ndarray
    points: np.ndarray
    design: np.ndarray


def _shifted(theta: np.ndarray, mu: int, a: float) -> np.ndarray:
    out = np.asarray(theta, dtype=float).copy()
    out[mu] += a
    return out


# A word that is zero by symmetry gives P(+) = 1/2 up to roundoff, and numpy's
# binomial draws n - X for p above 1/2, so a 1-ulp change in the word would
# redraw its test.  Shot draws read P(+) this close to 1/2 as exactly 1/2.
_HALF_TOLERANCE = 4 * np.spacing(0.5)


def _maybe_binomial(p, shots: int | None, rng):
    p = np.clip(p, 0.0, 1.0)
    if shots is None:
        return p
    p = np.where(np.abs(p - 0.5) <= _HALF_TOLERANCE, 0.5, p)
    return rng.binomial(shots, p) / shots


def _dedupe(values: np.ndarray) -> np.ndarray:
    order = np.argsort(values)
    vals = values[order]
    keep = [vals[0]]
    for v in vals[1:]:
        if v - keep[-1] > 1e-12:
            keep.append(v)
    return np.array(keep)


def _slot_shift_sums(circuit: Circuit, mu: int) -> np.ndarray:
    """All eigenvalues of the combined shift generator of one slot.

    A shift of slot mu multiplies one exponential per gate position, so the
    reachable phase slopes are Minkowski sums of the per-gate generator
    spectra.
    """
    sums = np.zeros(1)
    for pos in circuit.slot_positions(mu):
        spec = np.linalg.eigvalsh(circuit.gates[pos].generator.matrix)
        sums = _dedupe((sums[:, None] + spec[None, :]).ravel())
    return sums


def _frequencies(circuit: Circuit, slots: tuple[int, ...]) -> np.ndarray:
    """Every frequency of the overlap function of one slot (p, v) or one slot pair (f)."""
    if len(slots) == 1:
        amp = _slot_shift_sums(circuit, slots[0])
    elif len(slots) == 2:
        a = _slot_shift_sums(circuit, slots[0])
        b = _slot_shift_sums(circuit, slots[1])
        amp = _dedupe((b[:, None] - a[None, :]).ravel())
    else:
        raise ValueError("plans cover one slot (p, v) or a slot pair (f)")
    return _dedupe((amp[:, None] - amp[None, :]).ravel())


def _full_rank(freqs: np.ndarray, points: np.ndarray) -> ShiftPlan | None:
    design = np.exp(1.0j * points[:, None] * freqs[None, :])
    return ShiftPlan(freqs, points, design) if np.linalg.cond(design) < RANK_COND_LIMIT else None


def _grid_plan(freqs: np.ndarray) -> ShiftPlan | None:
    """The plan on the first of two fixed grids that gives a full-rank design, if either does."""
    r = len(freqs)
    if r == 1:
        return ShiftPlan(freqs, np.zeros(1), np.ones((1, 1), dtype=complex))
    # The window must resolve the smallest frequency gap, not just the
    # largest frequency: a grid scaled by 1/wmax alone goes rank-deficient
    # as soon as the spectrum is finer than unit spacing.
    grid = (np.arange(r) + 0.5) / r * 2.0 * np.pi - np.pi
    for points in (grid / float(np.max(np.abs(freqs))), grid / float(np.min(np.diff(freqs)))):
        plan = _full_rank(freqs, points)
        if plan is not None:
            return plan
    return None


class ShiftPlans:
    """Frequency set and full-rank evaluation points for each overlap function of one circuit.

    ``plans(slots)`` plans a slot or slot pair once, on a fixed grid.  A
    frequency set that neither grid resolves is a numerical failure; no
    circuit the package builds has one.
    """

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        self._plans: dict[tuple[int, ...], ShiftPlan] = {}

    def __call__(self, slots: Sequence[int]) -> ShiftPlan:
        slots = tuple(slots)
        if slots not in self._plans:
            plan = _grid_plan(_frequencies(self.circuit, slots))
            if plan is None:
                raise RuntimeError(f"no full-rank shift design on either grid for slots {slots}")
            self._plans[slots] = plan
        return self._plans[slots]


def fit_fourier(plan: ShiftPlan, values: Sequence[float]) -> np.ndarray:
    """Solve the linear system for the Fourier coefficients (every plan has one point per frequency)."""
    values = np.asarray(values, dtype=float)
    if values.shape != plan.points.shape:
        raise ValueError("one sample per evaluation point is required")
    return np.linalg.solve(plan.design, values.astype(complex))


def fourier_value(plan: ShiftPlan, coeffs: np.ndarray, a: float) -> float:
    return float(np.real(np.sum(coeffs * np.exp(1.0j * a * plan.frequencies))))


def fourier_derivative(plan: ShiftPlan, coeffs: np.ndarray, order: int = 1) -> float:
    """Analytical derivative of the fitted sum at zero shift."""
    return float(np.real(np.sum(coeffs * (1.0j * plan.frequencies) ** order)))


class ShiftTable:
    """The states the shift route reads at one theta, each simulated once.

    ``state(mu, a)`` is psi(theta + a e_mu); slot None or shift 0 is the
    base state psi(theta).
    """

    def __init__(self, circuit: Circuit, theta, psi0: QuditRegister):
        self.circuit, self.psi0 = circuit, psi0
        self.theta = np.asarray(theta, dtype=float)
        self.base = circuit.state(self.theta, psi0)
        self._states: dict[tuple[int, float], np.ndarray] = {}

    def state(self, mu: int | None, a: float) -> np.ndarray:
        if mu is None or a == 0.0:
            return self.base.amplitudes
        key = (mu, float(a))
        if key not in self._states:
            self._states[key] = self.circuit.state(_shifted(self.theta, mu, a), self.psi0).amplitudes
        return self._states[key]

    def overlaps(self, mu: int, nu: int | None, points, shots: int | None = None, rng=None) -> np.ndarray:
        """|<psi(theta + a e_mu)|psi(theta + a e_nu)>|^2 at each shift a, drawn in order with shots."""
        p = np.array([abs(np.vdot(self.state(mu, a), self.state(nu, a))) ** 2 for a in points])
        return _maybe_binomial(p, shots, rng)

    def energies(self, mu: int | None, points, spectrum: Spectrum, shots: int | None = None, rng=None) -> list:
        """<H> at theta + a e_mu for each shift a, or its mean over ``shots`` spectrum draws."""
        vals = []
        for a in points:
            weights = spectrum.weights(self.state(mu, a))
            if shots is None:
                vals.append(float(np.sum(spectrum.eigenvalues * weights)))
            else:
                draws = rng.choice(spectrum.eigenvalues, size=shots, p=weights / weights.sum())
                vals.append(float(np.mean(draws)))
        return vals


def shift_eom(
    plans: ShiftPlans,
    theta,
    psi0: QuditRegister,
    spectrum: Spectrum,
    shots: int | None = None,
    seed: int = 0,
) -> EomQuantities:
    """State, metric, energy gradient and energy from samples at shifted parameters.

    The metric comes from overlap curvatures at zero shift: M_mumu =
    -p_mu''/2 and M_munu = [f_munu'' - p_mu'' - p_nu'']/4, with p_mu the
    overlap of psi(theta + a e_mu) with psi(theta) and f_munu that of
    psi(theta + a e_mu) with psi(theta + a e_nu); dE/dtheta_mu is the
    slope of the fitted energy curve, and the energy its noiseless value at
    zero shift.  Every sample reads one ``ShiftTable``.  With shots, one
    generator seeded by ``seed`` draws every sample: each slot's curvature
    and then its energies, then the pairs row by row.  ``plans`` holds the
    circuit and carries its plans over from earlier calls.
    """
    circuit = plans.circuit
    table = ShiftTable(circuit, theta, psi0)
    npar = circuit.num_params
    rng = np.random.default_rng(seed) if shots is not None else None

    def derivative(plan, samples, order):
        return fourier_derivative(plan, fit_fourier(plan, samples), order)

    d2p, v = np.empty(npar), np.empty(npar)
    for mu in range(npar):
        plan = plans((mu,))
        d2p[mu] = derivative(plan, table.overlaps(mu, None, plan.points, shots, rng), 2)
        v[mu] = derivative(plan, table.energies(mu, plan.points, spectrum, shots, rng), 1)
    m = np.diag(-0.5 * d2p)
    for mu in range(npar):
        for nu in range(mu + 1, npar):
            plan = plans((mu, nu))
            d2f = derivative(plan, table.overlaps(mu, nu, plan.points, shots, rng), 2)
            m[mu, nu] = m[nu, mu] = 0.25 * (d2f - d2p[mu] - d2p[nu])
    return EomQuantities(m, v, table.base, table.energies(None, [0.0], spectrum)[0])


def _plus_probability(words, phase):
    """P(+) = (1 + Re(e^{i alpha} <W>))/2 of the Hadamard test on each word W, given phase = e^{i alpha}."""
    return (1.0 + (phase * words).real) / 2.0


def hadamard_test(
    psi0: QuditRegister,
    steps: Sequence[tuple[LocalOperator, bool]],
    alpha: float = 0.0,
    shots: int | None = None,
    rng=None,
) -> float:
    """P(+) of the ancilla after the given (optionally controlled) word.

    The ancilla starts in (|0> + e^{i alpha} |1>)/sqrt(2).  Its |0> branch
    runs the uncontrolled steps and its |1> branch every step; <W> is the
    overlap of the two branches, and P(+) = (1 + Re(e^{i alpha} <W>))/2.
    """
    idle = word = psi0
    for op, controlled in steps:
        if not controlled:
            idle = apply(idle, op)
        elif not op.is_unitary(1e-10):
            raise ValueError("controlled operations must be unitary")
        word = apply(word, op)
    return float(_maybe_binomial(_plus_probability(inner(idle, word), np.exp(1.0j * alpha)), shots, rng))


@dataclass(frozen=True)
class HadamardTests:
    """The Hadamard tests of one EOM in draw order, each reading one entry of a word matrix.

    Test t reads entry ``word[t]`` of the flattened word matrix at phase
    ``phase[t]`` = e^{i alpha} and adds ``coef[t]`` (2 P(+) - 1) into term
    ``bins[t] % 3`` (0 pairs, 1 left singles, 2 right singles) of element
    ``bins[t] // 3``.  At alpha = pi/2 a test reads Im<W> as 1 - 2 P(+), so
    its coefficient carries the sign.
    """

    word: np.ndarray
    phase: np.ndarray
    coef: np.ndarray
    bins: np.ndarray
    elements: int

    def counts(self) -> np.ndarray:
        """The number of tests of each element."""
        return np.bincount(self.bins // 3, minlength=self.elements)

    def element(self, e: int) -> "HadamardTests":
        keep = self.bins // 3 == e
        return HadamardTests(self.word[keep], self.phase[keep], self.coef[keep], self.bins[keep] % 3, 1)


def _tests(parts, elements: int) -> HadamardTests:
    """Tests from (words, alpha, coefs, bins) parts, each listed in its draw order, merged element by element."""
    word, phase, coef, bins = (
        np.concatenate(col)
        for col in zip(*((w, np.full(w.size, np.exp(1.0j * a)), c if a == 0.0 else -c, b) for w, a, c, b in parts))
    )
    order = np.argsort(bins, kind="stable")
    return HadamardTests(word[order], phase[order], coef[order], bins[order], elements)


def _ragged(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Block and place in the block of each entry of consecutive blocks of the given sizes."""
    block = np.repeat(np.arange(counts.size), counts)
    return block, np.arange(block.size) - (np.cumsum(counts) - counts)[block]


def _programs(circuit: Circuit, coefs: np.ndarray, ham_coefs: np.ndarray, ham_col: np.ndarray) -> dict:
    """The tests of an EOM of each kind, 'imag' (M, then VI) and 'real' (M, then VR).

    The elements are the metric's upper triangle row by row, then the
    vector.  Each draws its pair words row-major, then its left and its
    right single words <psi|row>; slot mu's pieces are u_p, then u_p^dag,
    of each of its gates p in turn.
    """
    npar, nrows, b = circuit.num_params, 2 * coefs.size, ham_col.size
    width = nrows + 1 + b  # word-matrix columns: the rows, psi, the Hamiltonian rows
    single, ham = nrows * width, nrows + 1 + ham_col  # psi's word-matrix row; h_b psi's columns
    slots = np.repeat([g.slot for g in circuit.gates], 2)
    piece = np.argsort(slots, kind="stable")  # rows, slot by slot
    coef = coefs[piece // 2]
    size = np.bincount(slots, minlength=npar)
    start = np.cumsum(size) - size

    mus, nus = np.triu_indices(npar)
    e, k = _ragged(size[mus] * size[nus])
    left, right = start[mus[e]] + k // size[nus[e]], start[nus[e]] + k % size[nus[e]]
    e1, k1 = _ragged(size[mus])
    e2, k2 = _ragged(size[nus])
    lefts, rights = start[mus[e1]] + k1, start[nus[e2]] + k2
    metric = [
        ((piece[left] ^ 1) * width + piece[right], 0.0, coef[left] * coef[right], 3 * e),
        (single + piece[lefts], 0.0, coef[lefts], 3 * e1 + 1),
        (single + piece[rights], 0.0, coef[rights], 3 * e2 + 2),
    ]

    v = 3 * mus.size  # the vector's bins follow the metric's
    e, k = _ragged(size * b)
    left, h = start[e] + k // b, k % b  # empty without pieces
    words, prods, bins = (piece[left] ^ 1) * width + ham[h], coef[left] * ham_coefs[h], v + 3 * e
    e1, k1 = _ragged(size)
    e2, h2 = _ragged(np.full(npar, b))
    lefts = start[e1] + k1
    real = [
        (words, 0.0, prods, bins),
        (single + piece[lefts], 0.0, coef[lefts], v + 3 * e1 + 1),
        (single + ham[h2], 0.0, ham_coefs[h2], v + 3 * e2 + 2),
    ]
    elements = mus.size + npar
    imag = [(words, np.pi / 2.0, prods, bins)]
    return {"imag": _tests(metric + imag, elements), "real": _tests(metric + real, elements)}


@dataclass(frozen=True)
class HadamardRoute:
    """The Hadamard route of one circuit and one Hamiltonian: its sweep and its tests.

    Gate p of ``circuit`` has the generator c_p (u_p + u_p^dag); ``rows``
    inserts u_p (row 2p) and u_p^dag (row 2p + 1) after gate p, so a word
    <psi0| A~^dag B~ |psi0> of pieces conjugated up to their gates is
    <row(A)|row(B)>.  Hamiltonian piece b, c_b h_b with c_b = ``ham_coefs[b]``,
    acts at the end of the circuit: ``ham_kernels`` apply the pieces on one
    target set in one stacked call each, and h_b psi is output row
    ``ham_col[b]`` of those calls.  ``tests[kind]`` lays out one EOM of
    ``kind`` ('imag', 'real').
    """

    circuit: Circuit
    rows: RowPlan
    ham_coefs: np.ndarray
    ham_kernels: tuple
    ham_col: np.ndarray
    tests: dict


def hadamard_plan(circuit: Circuit, ham_pieces: Sequence[tuple[float, LocalOperator]] = ()) -> HadamardRoute:
    """Split every gate generator, plan the sweep that inserts u_p and u_p^dag, and lay out every test."""
    coefs, ops = [], []
    for p, g in enumerate(circuit.gates):
        split = unitary_split(g.generator)
        u = split.unitary.matrix
        coefs.append(split.norm / 2.0)
        ops.append(((2 * p, u), (2 * p + 1, u.conj().T)))
    targets: dict[tuple[int, ...], list[int]] = {}
    for b, (_, op) in enumerate(ham_pieces):
        targets.setdefault(op.targets, []).append(b)
    kernels = tuple(
        (core.batch_kernel(circuit.num_qudits, circuit.local_dim, t), np.stack([ham_pieces[b][1].matrix for b in bs]))
        for t, bs in targets.items()
    )
    ham_col = np.empty(len(ham_pieces), dtype=np.intp)
    ham_col[[b for bs in targets.values() for b in bs]] = np.arange(len(ham_pieces))
    coefs, ham_coefs = np.array(coefs), np.array([coef for coef, _ in ham_pieces], dtype=float)
    tests = _programs(circuit, coefs, ham_coefs, ham_col)
    return HadamardRoute(circuit, circuit.row_plan(ops), ham_coefs, kernels, ham_col, tests)


def _read_words(route: HadamardRoute, theta, psi0: QuditRegister) -> tuple[QuditRegister, np.ndarray]:
    """The state and the word matrix <L_x|R_y> of L = (rows, psi) and R = (rows, psi, h_b psi) at theta."""
    psi, rows, _ = route.circuit.sweep(theta, psi0, route.rows)
    r = rows.shape[0]
    right = np.empty((r + 1 + route.ham_col.size, psi.dim), dtype=complex)
    right[:r], right[r] = rows, psi.amplitudes
    at = r + 1
    for kernel, mats in route.ham_kernels:
        right[at : at + len(mats)] = kernel(right[r : r + 1], mats)
        at += len(mats)
    return psi, right[: r + 1].conj() @ right.T


def _term_sums(tests: HadamardTests, words: np.ndarray, shots, rng) -> np.ndarray:
    """Each element's pair, left-single and right-single sums; with shots, one binomial call draws every test."""
    p = _maybe_binomial(_plus_probability(words.take(tests.word), tests.phase), shots, rng)
    return np.bincount(tests.bins, tests.coef * (2.0 * p - 1.0), 3 * tests.elements).reshape(-1, 3)


def _element_values(kind: str, sums: np.ndarray) -> np.ndarray:
    pair, left, right = sums.T
    if kind == "M":
        return pair - left * right
    if kind == "VI":
        return -2.0 * pair
    return 2.0 * pair - 2.0 * left * right


def element_from_hadamard(
    kind: str,
    circuit: Circuit,
    theta,
    mu: int,
    nu: int | None = None,
    ham_pieces: Sequence[tuple[float, LocalOperator]] | None = None,
    psi0: QuditRegister | None = None,
    shots: int | None = None,
    seed: int = 0,
) -> float:
    """Assemble one matrix or vector element from Hadamard tests.

    kind 'M':  (1/2) <{G~_mu, G~_nu}>_0 - <G~_mu>_0 <G~_nu>_0
    kind 'VI': i <[G~_mu, H~]>_0
    kind 'VR': <{G~_mu, H~}>_0 - 2 <G~_mu>_0 <H~>_0

    It reads its own tests of the route's EOM; M (mu, nu) and (nu, mu) are one element.
    """
    if kind == "M":
        if nu is None:
            raise ValueError("metric elements need two slot indices")
    elif kind in ("VI", "VR"):
        if ham_pieces is None:
            raise ValueError("vector elements need the Hamiltonian as unitaries")
    else:
        raise ValueError(f"unknown element kind {kind!r}")
    npar = circuit.num_params
    for slot in (mu,) if nu is None else (mu, nu):
        if not 0 <= slot < npar:
            raise ValueError(f"slot {slot} out of range for {npar} parameters")
    if kind == "M":
        mu, nu = sorted((mu, nu))
        e = mu * npar - mu * (mu - 1) // 2 + nu - mu  # the upper triangle, row by row
    else:
        e = npar * (npar + 1) // 2 + mu
    route = hadamard_plan(circuit, ham_pieces or ())
    words = _read_words(route, theta, psi0)[1]
    rng = np.random.default_rng(seed) if shots is not None else None
    tests = route.tests["real" if kind == "VR" else "imag"].element(e)
    return float(_element_values(kind, _term_sums(tests, words, shots, rng))[0])


def hadamard_eom(
    route: HadamardRoute,
    theta,
    psi0: QuditRegister,
    kind: str,
    shots: int | None = None,
    seed: int = 0,
) -> EomQuantities:
    """State, metric, the vector of ``kind`` ('imag': VI, 'real': VR) and the energy from one stage sweep.

    ``route`` is ``hadamard_plan(circuit, ham_pieces)`` and reads H only as
    those pieces: the energy is sum_b c_b Re<psi|h_b psi>, psi's row of the
    word matrix at the pieces' columns (0 without pieces).  With shots, one
    generator draws the metric's upper triangle row by row, then the
    vector; the energy stays noiseless.
    """
    labels = {"imag": "VI", "real": "VR"}
    if kind not in labels:
        raise ValueError(f"kind must be 'imag' or 'real', got {kind!r}")
    psi, words = _read_words(route, theta, psi0)
    rng = np.random.default_rng(seed) if shots is not None else None
    sums = _term_sums(route.tests[kind], words, shots, rng)
    npar = route.circuit.num_params
    mus, nus = np.triu_indices(npar)
    m = np.empty((npar, npar))
    m[mus, nus] = m[nus, mus] = _element_values("M", sums[: mus.size])
    r = words.shape[0] - 1  # psi's row
    energy = float(route.ham_coefs @ words[r, r + 1 + route.ham_col].real)
    return EomQuantities(m, _element_values(labels[kind], sums[mus.size :]), psi, energy)


def _snapshot_draw(dim: int, samples: int, rng) -> np.ndarray:
    """``samples`` snapshots phi = U psi0 of Haar-random U: normalized complex Gaussian vectors."""
    if dim > RANDOMIZED_MAX_DIM:
        raise ValueError(f"randomized estimation is limited to dimension <= {RANDOMIZED_MAX_DIM}")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    phi = rng.standard_normal((samples, dim)) + 1.0j * rng.standard_normal((samples, dim))
    return phi / np.linalg.norm(phi, axis=1, keepdims=True)


def _connected_anticommutators(values, mean0, traces, phi: np.ndarray, psi0: np.ndarray) -> np.ndarray:
    """Connected anticommutators <{A_k, A_l}>_0 - 2<A_k>_0<A_l>_0 from one snapshot set.

    ``values[s, k]`` is <phi_s|A_k|phi_s>, ``mean0[k]`` <psi0|A_k|psi0> and
    ``traces[k]`` tr A_k.  Made traceless (the connected anticommutator does
    not change), the operators obey the third Haar moment <{A, B}>_0 =
    D (D + 1) E[<A>_phi <B>_phi ((D + 2) |<psi0|phi>|^2 - 1)].
    """
    samples, dim = phi.shape
    values, mean0 = values - traces / dim, mean0 - traces / dim
    weights = (dim + 2.0) * np.abs(phi @ psi0.conj()) ** 2 - 1.0
    return dim * (dim + 1.0) / samples * (values.T * weights) @ values - 2.0 * np.outer(mean0, mean0)


def randomized_connected_anticommutator(a: np.ndarray, b: np.ndarray, psi0: np.ndarray, samples: int, rng) -> float:
    """Connected anticommutator <{A, B}>_0 - 2<A>_0<B>_0 from ``samples`` random-unitary snapshots."""
    phi = _snapshot_draw(psi0.size, samples, rng)
    values = np.column_stack([np.einsum("si,ij,sj->s", phi.conj(), op, phi).real for op in (a, b)])
    mean0 = np.array([np.vdot(psi0, op @ psi0).real for op in (a, b)])
    traces = np.trace([a, b], axis1=1, axis2=2).real
    return float(_connected_anticommutators(values, mean0, traces, phi, psi0)[0, 1])


def randomized_eom(
    circuit: Circuit, theta, psi0: QuditRegister, spectrum: Spectrum, samples: int, seed: int
) -> EomQuantities:
    """State, metric, real-time vector and energy from one set of ``samples`` random-unitary snapshots.

    M = C[:P, :P] / 2 and v = C[:P, P] of the connected anticommutators C of
    the Heisenberg slot generators G~_mu and H~ = U^dag H U.  psi0 and blocks
    of snapshots phi enter the tangent sweep, whose rows are -i G~ phi carried
    with the state ref_0, so <phi|G~_mu|phi> = Re(i <ref_0|row_mu>) and
    <phi|H~|phi> = Re <ref_0|ref_1>; psi0's own value of the latter is the
    energy.  tr G~_mu sums tr G_p d^(n - |targets|) over slot mu's gates,
    and tr H~ the spectrum.
    """
    n, d, npar = circuit.num_qudits, circuit.local_dim, circuit.num_params
    phi = _snapshot_draw(psi0.dim, samples, np.random.default_rng(seed))
    gate_traces = [np.trace(g.generator.matrix).real * d ** (n - len(g.targets)) for g in circuit.gates]
    traces = np.append(np.bincount([g.slot for g in circuit.gates], gate_traces, npar), np.sum(spectrum.eigenvalues))

    def expectations(states):  # the output states, and every <A_k> of each input state
        psi, rows, ref = circuit.sweep(theta, states, circuit.tangent_plan, circuit.tangent_plan.middle, spectrum)
        bra = ref[0].conj()
        gens = -np.einsum("kd,rkd->kr", bra, rows).imag  # Re(i <ref_0|row_mu>)
        return psi, np.column_stack([gens, np.einsum("kd,kd->k", bra, ref[1]).real])

    psi, mean0 = expectations(psi0.amplitudes[None])
    block = max(1, _SNAPSHOT_BYTES // ((npar + 1) * psi0.dim * 16))
    values = np.concatenate([expectations(blk)[1] for blk in np.array_split(phi, -(-samples // block))])
    c = _connected_anticommutators(values, mean0[0], traces, phi, psi0.amplitudes)
    return EomQuantities(0.5 * c[:npar, :npar], c[:npar, npar], QuditRegister(n, d, psi[0]), float(mean0[0, npar]))
