"""McLachlan metric/vector computation, the estimator routes' factory, and the drivers.

Flow conventions, fixed once by requiring energy descent (imaginary time)
and reproduction of exact single-generator evolution (real time) with the
metric normalized as the real part of the quantum geometric tensor:

    imaginary time:  M theta_dot = -(1/2) dE/dtheta
    real time:       M theta_dot = +(1/2) V_real
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import measure, oracle
from . import model as model_mod
from .ansatz import Circuit, chain_circuit, plaquette_circuit, random_initial_params
from .config import EstimatorConfig, EvolutionConfig, RunConfig
from .core import QuditRegister, basis_state, check_hermitian, entanglement_entropy, local_index
from .measure import EomQuantities
from .model import DIM_CAP, CapError, HamiltonianSpec


@dataclass(frozen=True)
class SolveInfo:
    """What ``solve_flow`` kept of the metric's spectrum.

    ``rank`` counts the kept eigendirections and ``retained_cond`` is the
    ratio of the largest kept eigenvalue to the smallest (inf when none is
    kept).  The matrix diagonalized is M, or F^T F when M was given as its
    factor F; the nonzero eigenvalues of the two are the same, so neither
    depends on which was solved.
    """

    rank: int
    retained_cond: float


@dataclass(frozen=True)
class TrajectoryRecord:
    """One step of a run: its parameters and its output columns after step and time, in file order."""

    step: int
    time: float
    theta: np.ndarray
    columns: dict[str, float]


def exact_eom(
    circuit: Circuit, theta, ham: np.ndarray | oracle.Spectrum, psi0: QuditRegister, kind: str
) -> EomQuantities:
    """Metric and flow vector of ``kind``, as a factor and its preimage, from one tangent sweep.

    The metric is the real part of the quantum geometric tensor, kept as
    its factor: the tangents projected off psi, t_mu - <psi|t_mu> psi,
    whose float view F (P x 2D) has F F^T = M.  The flow vector's preimage
    r, with F r = v, is the float view of 2 (H - E) psi for ``kind='imag'``
    (v = dE/dtheta) and of -2i (H - E) psi for ``kind='real'``.  ``ham`` is
    a dense matrix or a ``Spectrum``.  Every inner product is read in the
    tangent plan's middle frame, where the sweep applies the fewest rows.
    """
    if kind not in ("imag", "real"):
        raise ValueError(f"kind must be 'imag' or 'real', got {kind!r}")
    if ham.shape[0] != psi0.dim:
        raise ValueError("Hamiltonian dimension does not match the register")
    psi, tang, ref = circuit.tangents(theta, psi0, circuit.tangent_plan.middle, ham)
    rows = tang.T  # the sweep's own gather, one row per slot
    energy = float(np.vdot(ref[0], ref[1]).real)
    rows -= (rows @ ref[0].conj())[:, None] * ref[0]  # <psi|t_mu> psi
    deriv = 2.0 * (ref[1] - energy * ref[0])
    if kind == "real":
        deriv *= -1.0j
    factor, target = rows.view(float), deriv.view(float)
    return EomQuantities(None, factor @ target, psi, energy, factor, target)


def solve_flow(
    m: np.ndarray,
    v: np.ndarray,
    cutoff: float = 1e-8,
    factor: bool = False,
) -> tuple[np.ndarray, SolveInfo]:
    """Least-squares solve of M theta_dot = v by spectral pseudo-inversion.

    Eigendirections below ``cutoff`` times the largest eigenvalue, and every
    one that is not positive, are discarded.  ``m`` and ``v`` are M (P x P)
    and v, or, with ``factor``, a factor F (P x n) of M = F F^T and r (n
    entries) with v = F r.  A factor with P <= n is solved as M = F F^T and
    v = F r.  With P > n the smaller F^T F = U W U^T is diagonalized: its
    nonzero eigenvalues are M's, with M's eigenvectors q = F u / sqrt(w), so
    the solution sum q q^T v / w over the kept directions is
    F U W^-1 U^T r, the least-squares fit of F^T theta_dot to r.  It reads
    r, not v = F r, which would square F's conditioning.
    """
    m = np.asarray(m, dtype=float)
    v = np.asarray(v, dtype=float)
    if m.ndim != 2 or m.shape[1] != v.size or not (factor or m.shape[0] == v.size):
        raise ValueError(f"shape mismatch: {'F' if factor else 'M'} is {m.shape}, v has {v.size} entries")
    if factor and m.shape[0] <= m.shape[1]:  # M = F F^T is the smaller matrix
        m, v, factor = m @ m.T, m @ v, False
    if factor:
        w, u = np.linalg.eigh(m.T @ m)
    else:
        check_hermitian(m, "metric", rtol=1e-8)
        w, q = np.linalg.eigh((m + m.T) / 2.0)
    keep = (w > 0.0) & (w >= cutoff * w[-1])
    kept = w[keep]
    if factor:
        uk = u[:, keep]
        theta_dot = m @ (uk @ ((uk.T @ v) / kept))
    else:
        inv = np.where(keep, 1.0 / np.where(keep, w, 1.0), 0.0)
        theta_dot = q @ (inv * (q.T @ v))
    cond = float(kept[-1] / kept[0]) if kept.size else float("inf")
    return theta_dot, SolveInfo(int(keep.sum()), cond)


def integrate_step(
    theta: np.ndarray,
    deriv: Callable[[np.ndarray], np.ndarray],
    dt: float,
    method: str = "euler",
    k1: np.ndarray | None = None,
) -> np.ndarray:
    """One explicit step of the parameter flow."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if method == "euler":
        if k1 is None:
            k1 = deriv(theta)
        return theta + dt * k1
    if method == "rk4":
        if k1 is None:
            k1 = deriv(theta)
        k2 = deriv(theta + 0.5 * dt * k1)
        k3 = deriv(theta + 0.5 * dt * k2)
        k4 = deriv(theta + dt * k3)
        return theta + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    raise ValueError(f"unknown integrator {method!r}")


def build_hamiltonian(cfg: RunConfig) -> HamiltonianSpec:
    m = cfg.model
    if m.dimension == 1:
        return model_mod.chain_hamiltonian(
            m.num_links, m.g, m.mass, m.electric_offset, m.link_amplitude, m.hopping_scale, m.boundary
        )
    return model_mod.plaquette_hamiltonian(
        m.g, m.mass, m.electric_offset, m.link_amplitude, m.hopping_scale, m.boundary
    )


def build_circuit(cfg: RunConfig) -> Circuit:
    a = cfg.ansatz
    mode = "imag" if cfg.evolution.mode == "vite" else "real"
    if a.family == "chain":
        return chain_circuit(cfg.model.num_links, a.layers, mode)
    return plaquette_circuit(
        a.layers,
        mode,
        a.include_plaquette_gate,
        cfg.model.electric_offset,
        cfg.model.link_amplitude,
        cfg.model.boundary,
    )


def entropy_cut(cfg: RunConfig) -> tuple[int, ...]:
    if cfg.model.dimension == 1:
        return tuple(range(cfg.model.num_links // 2))
    return (0, 1)


def designated_site(cfg: RunConfig) -> int:
    """Site whose occupation is tracked in quench runs."""
    if cfg.model.dimension == 1:
        return (cfg.model.num_links + 1) // 2
    return 0  # bottom-left corner


@dataclass
class RunContext:
    """Everything a driver reuses across steps."""

    ham_spec: HamiltonianSpec
    spectrum: oracle.Spectrum  # H as blocks of its sectors, with their eigenpairs
    circuit: Circuit
    psi0: QuditRegister
    n_diags: np.ndarray  # (num_sites, dim) real
    cut: tuple[int, ...]

    @classmethod
    def from_config(cls, cfg: RunConfig) -> "RunContext":
        dim = 3**cfg.model.num_links  # one qutrit per link
        if dim > DIM_CAP:
            raise CapError(f"dimension {dim} exceeds the cap {DIM_CAP}")
        ham_spec = build_hamiltonian(cfg)
        spectrum = oracle.sector_spectrum(ham_spec)
        circuit = build_circuit(cfg)
        n = ham_spec.num_qudits
        psi0 = basis_state(n, 3, [1] * n)
        sites = range(ham_spec.lattice.num_sites)
        gauss = [model_mod.gauss_diagonal(s, ham_spec.lattice, cfg.model.electric_offset) for s in sites]
        n_diags = np.stack([diag[local_index(targets, 3, n)] for targets, diag in gauss])
        return cls(ham_spec, spectrum, circuit, psi0, n_diags, entropy_cut(cfg))


def _state_columns(ctx: RunContext, state: QuditRegister, prefix: str = "") -> dict[str, float]:
    """The site numbers ``n_0``, ``n_1``, ... and the ``entropy`` of ``state``, each name after ``prefix``."""
    numbers = ctx.n_diags @ (np.abs(state.amplitudes) ** 2)
    columns = {f"{prefix}n_{s}": x for s, x in enumerate(numbers)}
    columns[f"{prefix}entropy"] = entanglement_entropy(state, ctx.cut)
    return columns


def exact_row(ctx: RunContext, step: int, t: float, prefix: str = "") -> tuple[np.ndarray, dict[str, float]]:
    """The exact state at time t and its site numbers and entanglement entropy, named after ``prefix``."""
    ref = oracle.evolve_real(ctx.spectrum, ctx.psi0.amplitudes, t)
    if not np.all(np.isfinite(ref)):
        raise RuntimeError(f"step {step}: non-finite exact state at t = {t:g}")
    return ref, _state_columns(ctx, QuditRegister(ctx.psi0.num_qudits, ctx.psi0.local_dim, ref), prefix)


def make_estimator(est_cfg: EstimatorConfig, ctx: RunContext):
    """(theta, kind) -> EomQuantities, the return of the route ``est_cfg.mode`` selects.

    A shot call and every randomized call draw from the next seed of
    SeedSequence([est_cfg.seed, call]); a noiseless call reads seed 0.
    Route set-up runs here, in the driver, not in ``RunContext.from_config``.
    """
    circuit, psi0, spectrum, shots = ctx.circuit, ctx.psi0, ctx.spectrum, est_cfg.shots
    calls = itertools.count(1)

    def seed(noisy: bool) -> int:
        return int(np.random.SeedSequence([est_cfg.seed, next(calls)]).generate_state(1)[0]) if noisy else 0

    if est_cfg.mode == "exact":
        return lambda theta, kind: exact_eom(circuit, theta, spectrum, psi0, kind)
    if est_cfg.mode == "shift":
        plans = measure.ShiftPlans(circuit)

        def est(theta, kind):
            if kind != "imag":
                raise ValueError("the shift route provides the metric and dE/dtheta only")
            return measure.shift_eom(plans, theta, psi0, spectrum, shots, seed(shots is not None))
    elif est_cfg.mode == "hadamard":
        plan = measure.hadamard_plan(circuit, model_mod.hamiltonian_unitary_pieces(ctx.ham_spec))

        def est(theta, kind):
            return measure.hadamard_eom(plan, theta, psi0, kind, shots, seed(shots is not None))
    elif est_cfg.mode == "randomized":
        def est(theta, kind):
            if kind != "real":
                raise ValueError("the randomized route only provides anticommutators")
            return measure.randomized_eom(circuit, theta, psi0, spectrum, est_cfg.samples, seed(True))
    else:
        raise ValueError(f"unknown estimator mode {est_cfg.mode!r}")
    return est


def snapshot(
    ctx: RunContext,
    theta: np.ndarray,
    step: int,
    time: float,
    reference: np.ndarray | None,
    eom: EomQuantities,
    info: SolveInfo,
    exact: dict[str, float] | None = None,
) -> TrajectoryRecord:
    """One trajectory row from the state and energy the step's EOM already holds.

    Fidelity is against ``reference``, or against the whole ground space
    when ``reference`` is None.  ``exact`` holds the exact state's columns,
    written after the variational site numbers.  A non-finite value in the
    row is a numerical failure of ``step``, named by its trajectory column.
    """
    amp = eom.psi.amplitudes
    if reference is None:
        fid = ctx.spectrum.ground_projector_overlap(amp)
    else:
        fid = float(min(abs(np.vdot(reference, amp)) ** 2, 1.0 + 1e-10))
    own = _state_columns(ctx, eom.psi)
    with np.errstate(over="ignore"):  # a norm past the float range is reported below
        grad_norm = float(np.linalg.norm(eom.v))
    columns = {
        "energy": eom.energy,
        "fidelity": fid,
        "entropy": own.pop("entropy"),
        **own,
        **(exact or {}),
        "grad_norm": grad_norm,
        "m_cond": info.retained_cond,
    }
    for name, value in columns.items():
        if not np.isfinite(value):
            raise RuntimeError(f"step {step}: non-finite {name}")
    return TrajectoryRecord(step, time, theta.copy(), columns)


_MAX_HALVINGS = 40


def _checked_flow(est, theta: np.ndarray, kind: str, sign: float, ev: EvolutionConfig, step: int):
    """EOM and flow at theta; a non-finite theta, M or v is a numerical failure of ``step``."""
    if not np.all(np.isfinite(theta)):
        raise RuntimeError(f"step {step}: non-finite parameters")
    eom = est(theta, kind)
    metric, rhs = (eom.m, eom.v) if eom.factor is None else (eom.factor, eom.target)
    for what, arr in (("metric", metric), ("flow vector", eom.v), ("flow vector", rhs)):
        if not np.all(np.isfinite(arr)):
            raise RuntimeError(f"step {step}: non-finite {what}")
    dot, info = solve_flow(metric, sign * rhs, ev.cutoff, eom.factor is not None)
    return eom, dot, info


def run_ground_search(cfg: RunConfig, ctx: RunContext | None = None):
    """Imaginary-time flow from a random start; records one row per step."""
    if cfg.evolution.mode != "vite":
        raise ValueError("ground search runs in vite mode")
    ctx = ctx or RunContext.from_config(cfg)
    est = make_estimator(cfg.estimator, ctx)
    ev = cfg.evolution
    theta = random_initial_params(ctx.circuit, cfg.ansatz.init_seed, cfg.ansatz.init_range)

    # A degenerate ground space has no single reference vector.
    ground = ctx.spectrum
    reference = ground.ground_vector if ground.ground_multiplicity() == 1 else None

    def deriv(th):  # k is the step being taken
        return _checked_flow(est, th, "imag", -0.5, ev, k)[1]

    records: list[TrajectoryRecord] = []
    tau = 0.0
    flow = _checked_flow(est, theta, "imag", -0.5, ev, 0)
    for k in range(ev.steps + 1):
        eom, dot, info = flow
        rec = snapshot(ctx, theta, k, tau, reference, eom, info)
        del eom, flow  # a held EOM would keep its tangent bundle alive through the next sweep
        records.append(rec)
        if k == ev.steps or rec.columns["grad_norm"] < ev.grad_tolerance:
            break
        # The continuous flow can only lower the energy, so a candidate step
        # that raises it, or leaves the finite numbers, has overshot: halve
        # the step until it descends.  The accepted candidate's EOM is the
        # next row's.
        dt = ev.dt
        for _ in range(_MAX_HALVINGS):
            candidate = integrate_step(theta, deriv, dt, ev.integrator, k1=dot)
            if np.all(np.isfinite(candidate)):
                flow = _checked_flow(est, candidate, "imag", -0.5, ev, k + 1)
                if flow[0].energy <= rec.columns["energy"] + 1e-9:
                    break
                del flow  # released before the next candidate's sweep
            dt /= 2.0
        else:
            raise RuntimeError(
                f"step {k}: the energy still rose after {_MAX_HALVINGS} halvings of dt = {ev.dt:g}"
            )
        theta = candidate
        tau += dt
    return records, ctx


def run_quench(cfg: RunConfig, ctx: RunContext | None = None):
    """Real-time flow from theta = 0; each record carries the exact state's columns as ``exact_*``."""
    if cfg.evolution.mode != "vrte":
        raise ValueError("quench runs in vrte mode")
    ctx = ctx or RunContext.from_config(cfg)
    est = make_estimator(cfg.estimator, ctx)
    ev = cfg.evolution
    theta = np.zeros(ctx.circuit.num_params)

    def deriv(th):  # k is the step being taken
        return _checked_flow(est, th, "real", 0.5, ev, k)[1]

    records: list[TrajectoryRecord] = []
    for k in range(ev.steps + 1):
        t = k * ev.dt
        ref, exact = exact_row(ctx, k, t, "exact_")
        eom, dot, info = _checked_flow(est, theta, "real", 0.5, ev, k)
        records.append(snapshot(ctx, theta, k, t, ref, eom, info, exact))
        del eom  # a held EOM would keep its tangent bundle alive through the next sweep
        if k == ev.steps:
            break
        theta = integrate_step(theta, deriv, ev.dt, ev.integrator, k1=dot)
    return records, ctx
