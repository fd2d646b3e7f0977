"""Metric/vector computation, flow solving, and the evolution drivers."""
import dataclasses
import tracemalloc

import numpy as np
import pytest

from quditgauge import core, varsim
from quditgauge.ansatz import (
    Circuit,
    Gate,
    _rotation_generator,
    chain_circuit,
    plaquette_circuit,
    random_initial_params,
)
from quditgauge.config import AnsatzConfig, EvolutionConfig, ModelConfig, RunConfig, parse_config
from quditgauge.core import LocalOperator, basis_state, embedded_pauli
from quditgauge.model import chain_hamiltonian, materialize
from quditgauge.oracle import Spectrum, evolve_real
from quditgauge.varsim import (
    RunContext,
    _checked_flow,
    exact_eom,
    integrate_step,
    make_estimator,
    run_ground_search,
    run_quench,
    solve_flow,
)

from helpers import (
    evolve_imag,
    finite_difference,
    gate_matrix,
    kron_lift,
    metric,
    oscillation_period,
    random_hermitian,
    random_state,
)


def vacuum(n):
    return basis_state(n, 3, [1] * n)


def single_gate_circuit(generator: LocalOperator, n: int) -> Circuit:
    gate = Gate("rotation", generator.targets, 0, generator, (1, 2), 0.0)
    # kind 'rotation' with levels (1,2), phi=0 has generator sigma_X^{12}/2
    return Circuit((gate,), 1, n, 3, 1, "toy")


class TestMetricExact:
    def test_single_parameter_variance_formula(self):
        # one gate exp(-i theta G): M = <G^2> - <G>^2 in the input state
        n = 1
        gen = LocalOperator(3, (0,), embedded_pauli(3, 1, 2, "X").matrix / 2.0, hermitian=True)
        circ = single_gate_circuit(gen, n)
        rng = np.random.default_rng(2)
        psi = random_state(3, rng)
        reg = basis_state(n, 3, [0]).__class__(n, 3, psi)
        theta = np.array([0.37])
        m = metric(circ, theta, reg)
        g = gen.matrix
        want = np.vdot(psi, g @ g @ psi).real - np.vdot(psi, g @ psi).real ** 2
        assert m[0, 0] == pytest.approx(want, abs=1e-12)

    def test_zero_tangents_zero_metric(self):
        # the 1,2 rotation annihilates nothing generally, so use a state the
        # generator kills: the sigma^{1,2} block acts trivially on |0>
        gen = LocalOperator(3, (0,), embedded_pauli(3, 1, 2, "X").matrix / 2.0, hermitian=True)
        circ = single_gate_circuit(gen, 1)
        reg = basis_state(1, 3, [0])
        m = metric(circ, np.array([0.9]), reg)
        assert abs(m[0, 0]) < 1e-14

    def test_matches_mixed_overlap_curvature(self):
        # M_{mu nu} = (1/2) d^2/da db |<psi(theta+a e_mu)|psi(theta+b e_nu)>|^2
        circ = chain_circuit(3, 1, "imag")
        psi0 = vacuum(3)
        rng = np.random.default_rng(4)
        theta = rng.uniform(-np.pi, np.pi, circ.num_params)
        m = metric(circ, theta, psi0)
        h = 1e-4

        def overlap(a, b, mu, nu):
            ta, tb = theta.copy(), theta.copy()
            ta[mu] += a
            tb[nu] += b
            return (
                abs(
                    np.vdot(
                        circ.state(ta, psi0).amplitudes, circ.state(tb, psi0).amplitudes
                    )
                )
                ** 2
            )

        for mu in range(0, circ.num_params, 3):
            for nu in range(0, circ.num_params, 4):
                mixed = (
                    overlap(h, h, mu, nu)
                    - overlap(h, -h, mu, nu)
                    - overlap(-h, h, mu, nu)
                    + overlap(-h, -h, mu, nu)
                ) / (4 * h * h)
                assert 0.5 * mixed == pytest.approx(m[mu, nu], abs=1e-6)

    def test_symmetric_psd(self):
        circ = plaquette_circuit(1, "imag")
        rng = np.random.default_rng(8)
        theta = rng.uniform(-np.pi, np.pi, circ.num_params)
        m = metric(circ, theta, vacuum(4))
        assert np.max(np.abs(m - m.T)) < 1e-10
        assert np.min(np.linalg.eigvalsh(m)) > -1e-9


FAMILIES = [
    ("chain imag", lambda: chain_circuit(3, 1, "imag"), 3),
    ("chain real", lambda: chain_circuit(3, 1, "real"), 3),
    ("plaquette imag", lambda: plaquette_circuit(1, "imag"), 4),
    ("plaquette gate", lambda: plaquette_circuit(1, "real", include_plaquette_gate=True), 4),
]


class TestMiddleFrame:
    """exact_eom reads M and v in the tangent plan's middle frame; they equal the end-frame formulas."""

    @pytest.mark.parametrize(
        "model",
        [
            {"model": {"dimension": 1, "num_links": 5}, "ansatz": {"family": "chain", "layers": 4}},
            {
                "model": {"dimension": 2, "num_links": 4},
                "ansatz": {"family": "plaquette", "layers": 5, "include_plaquette_gate": True},
            },
        ],
        ids=["chain-L5-N4", "plaquette-N5"],
    )
    def test_matches_end_frame_tangents(self, model):
        cfg = parse_config(dict(model, evolution={"mode": "vrte"}))
        ctx = RunContext.from_config(cfg)
        circ, psi0 = ctx.circuit, ctx.psi0
        assert 0 < circ.tangent_plan.middle < len(circ.stages)
        theta = np.random.default_rng(53).uniform(-np.pi, np.pi, circ.num_params)
        psi, tang, _ = circ.tangents(theta, psi0)
        amp = psi.amplitudes
        hpsi = ctx.spectrum @ amp
        energy = np.vdot(amp, hpsi).real
        ip, hp = tang.conj().T @ amp, tang.conj().T @ hpsi
        gram = (tang.conj().T @ tang).real - np.outer(ip, ip.conj()).real
        want_m = (gram + gram.T) / 2.0
        for kind, want_v in (("imag", 2.0 * hp.real), ("real", 2.0 * hp.imag + 2.0 * energy * ip.conj().imag)):
            eom = exact_eom(circ, theta, ctx.spectrum, psi0, kind)
            assert np.max(np.abs(eom.m - want_m)) < 1e-12
            assert np.max(np.abs(eom.v - want_v)) < 1e-12
            assert np.max(np.abs(eom.psi.amplitudes - amp)) < 1e-14
            assert eom.energy == pytest.approx(energy, abs=1e-12)


class TestGradients:
    @pytest.mark.parametrize("name,make,n", FAMILIES, ids=[f[0] for f in FAMILIES])
    def test_energy_gradient_matches_fd(self, name, make, n):
        circ = make()
        ham = materialize(chain_hamiltonian(n, 1.0, 0.1)) if n == 3 else None
        if ham is None:
            from quditgauge.model import plaquette_hamiltonian

            ham = materialize(plaquette_hamiltonian(1.0, 0.1))
        psi0 = vacuum(n)
        rng = np.random.default_rng(31)

        def energy(th):
            psi = circ.state(th, psi0)
            return float(np.vdot(psi.amplitudes, ham @ psi.amplitudes).real)

        for _ in range(2):
            theta = rng.uniform(-np.pi, np.pi, circ.num_params)
            grad = exact_eom(circ, theta, ham, psi0, "imag").v
            for mu in range(circ.num_params):
                fd = finite_difference(energy, theta, mu, order=1, h=1e-5)
                assert grad[mu] == pytest.approx(fd, abs=1e-7), (name, mu)

    def test_gradient_zero_for_identity_hamiltonian(self):
        circ = chain_circuit(3, 1, "imag")
        psi0 = vacuum(3)
        theta = np.random.default_rng(1).uniform(-1, 1, circ.num_params)
        grad = exact_eom(circ, theta, np.eye(27, dtype=complex), psi0, "imag").v
        assert np.max(np.abs(grad)) < 1e-12

    def test_gradient_zero_at_reachable_eigenstate(self):
        # theta = 0 leaves the vacuum invariant; use a Hamiltonian whose
        # eigenstate it is (the electric term alone)
        circ = chain_circuit(3, 1, "imag")
        psi0 = vacuum(3)
        ham = materialize(chain_hamiltonian(3, 1.0, 0.0, hopping_scale=0.0))
        grad = exact_eom(circ, np.zeros(circ.num_params), ham, psi0, "imag").v
        assert np.max(np.abs(grad)) < 1e-12


class TestRealTimeVector:
    def test_identity_hamiltonian(self):
        circ = chain_circuit(3, 1, "real")
        theta = np.random.default_rng(3).uniform(-1, 1, circ.num_params)
        v = exact_eom(circ, theta, np.eye(27, dtype=complex), vacuum(3), "real").v
        assert np.max(np.abs(v)) < 1e-10

    def test_consistency_identity(self):
        # V^R = 2 Im<d_mu psi|H|psi> + 2 Im<psi|d_mu psi> <H>
        circ = chain_circuit(3, 1, "imag")
        psi0 = vacuum(3)
        ham = materialize(chain_hamiltonian(3, 1.0, 0.1))
        theta = np.random.default_rng(5).uniform(-np.pi, np.pi, circ.num_params)
        v = exact_eom(circ, theta, ham, psi0, "real").v
        psi, tang, _ = circ.tangents(theta, psi0)
        hpsi = ham @ psi.amplitudes
        energy = np.vdot(psi.amplitudes, hpsi).real
        for mu in range(circ.num_params):
            w = np.vdot(tang[:, mu], hpsi)
            z = np.vdot(psi.amplitudes, tang[:, mu])
            want = 2 * w.imag + 2 * energy * z.imag
            assert v[mu] == pytest.approx(want, abs=1e-11)

    def test_matches_connected_anticommutator_oracle(self):
        # dense Heisenberg-picture evaluation through lifted gate products
        circ = chain_circuit(3, 1, "imag")
        psi0 = vacuum(3)
        ham = materialize(chain_hamiltonian(3, 1.0, 0.1))
        rng = np.random.default_rng(6)
        theta = rng.uniform(-np.pi, np.pi, circ.num_params)
        v = exact_eom(circ, theta, ham, psi0, "real").v
        full = np.eye(27, dtype=complex)
        prefixes = []
        for g in circ.gates:
            full = kron_lift(gate_matrix(g, theta[g.slot]), g.targets, 3, 3) @ full
            prefixes.append(full.copy())
        h_tilde = full.conj().T @ ham @ full
        amps = psi0.amplitudes
        for mu in range(circ.num_params):
            g_tilde = np.zeros((27, 27), dtype=complex)
            for pos in circ.slot_positions(mu):
                gen = kron_lift(circ.gates[pos].generator.matrix, circ.gates[pos].targets, 3, 3)
                g_tilde += prefixes[pos].conj().T @ gen @ prefixes[pos]
            anti = amps.conj() @ (g_tilde @ h_tilde + h_tilde @ g_tilde) @ amps
            conn = anti.real - 2 * (amps.conj() @ g_tilde @ amps).real * (
                amps.conj() @ h_tilde @ amps
            ).real
            assert v[mu] == pytest.approx(conn, abs=1e-10), mu


ESTIMATOR_MODELS = {
    "chain": ({"dimension": 1, "num_links": 3}, {"family": "chain", "layers": 1, "init_seed": 1}),
    "plaquette": ({"dimension": 2, "num_links": 4}, {"family": "plaquette", "layers": 1, "init_seed": 1}),
}
# the flow kinds each route provides, and one it refuses
ROUTE_KINDS = {
    "exact": (("imag", "real"), "sideways"),
    "shift": (("imag",), "real"),
    "hadamard": (("imag", "real"), "sideways"),
    "randomized": (("real",), "imag"),
}


class TestMakeEstimator:
    @pytest.mark.parametrize("model_name", sorted(ESTIMATOR_MODELS))
    @pytest.mark.parametrize("mode", sorted(ROUTE_KINDS))
    def test_route(self, model_name, mode):
        model_cfg, ansatz_cfg = ESTIMATOR_MODELS[model_name]
        cfg = parse_config(
            {
                "model": model_cfg,
                "ansatz": ansatz_cfg,
                "evolution": {"mode": "vrte" if mode == "randomized" else "vite"},
                "estimator": {"mode": mode, "samples": 1},
            }
        )
        ctx = RunContext.from_config(cfg)
        theta = np.random.default_rng(46).uniform(-np.pi, np.pi, ctx.circuit.num_params)
        kinds, refused = ROUTE_KINDS[mode]
        est = make_estimator(cfg.estimator, ctx)
        with pytest.raises(ValueError):
            est(theta, refused)
        if mode != "randomized":  # the only route without a noiseless estimate
            for kind in kinds:
                got, want = est(theta, kind), exact_eom(ctx.circuit, theta, ctx.spectrum, ctx.psi0, kind)
                assert np.max(np.abs(got.m - want.m)) < 1e-8, kind
                assert np.max(np.abs(got.v - want.v)) < 1e-8, kind
                assert np.array_equal(got.psi.amplitudes, want.psi.amplitudes), kind
                assert got.energy == pytest.approx(want.energy, abs=1e-12), kind
        else:  # a noisy M and v, but the state's own energy
            got, want = est(theta, "real"), exact_eom(ctx.circuit, theta, ctx.spectrum, ctx.psi0, "real")
            assert got.energy == pytest.approx(want.energy, abs=1e-12)
        if mode == "exact":
            return
        noisy = dataclasses.replace(cfg.estimator, shots=100, seed=5)
        runs = []
        for _ in range(2):
            est = make_estimator(noisy, ctx)
            runs.append([est(theta, kinds[0]) for _ in range(2)])
        for a, b in zip(*runs):
            assert a.m.tobytes() == b.m.tobytes() and a.v.tobytes() == b.v.tobytes()
        first, second = runs[0]
        assert not np.array_equal(first.m, second.m)  # each call draws from its own seed


class TestSolveFlow:
    def test_identity_metric(self):
        v = np.array([1.0, -2.0, 3.0])
        dot, info = solve_flow(np.eye(3), v)
        assert np.allclose(dot, v)
        assert info.rank == 3

    def test_singular_in_range(self):
        m = np.diag([1.0, 0.0, 2.0])
        v = np.array([3.0, 0.0, 4.0])
        dot, _ = solve_flow(m, v)
        assert np.max(np.abs(m @ dot - v)) < 1e-10
        assert dot[1] == 0.0  # minimum norm

    def test_zero_everything(self):
        dot, info = solve_flow(np.zeros((2, 2)), np.zeros(2))
        assert np.allclose(dot, 0)
        assert info.rank == 0

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            solve_flow(np.array([[1.0, 1.0], [0.0, 1.0]]), np.zeros(2))

    def test_cutoff_zero_drops_zero_eigenvalues(self):
        m = np.diag([1.0, 0.0, 2.0])
        dot, info = solve_flow(m, np.array([3.0, 5.0, 4.0]), cutoff=0.0)
        assert np.array_equal(dot, [3.0, 0.0, 2.0])
        assert info.rank == 2


def plaquette_n5_context() -> RunContext:
    return RunContext.from_config(
        parse_config(
            {
                "model": {"dimension": 2, "num_links": 4},
                "ansatz": {"family": "plaquette", "layers": 5, "include_plaquette_gate": True},
                "evolution": {"mode": "vrte"},
            }
        )
    )


def end_frame_metric(circ, theta, psi0):
    """M = Re(T^dag T) - Re(ip ip^dag) from the output-frame tangents, as a P x P matrix."""
    psi, tang, _ = circ.tangents(theta, psi0)
    ip = tang.conj().T @ psi.amplitudes
    m = (tang.conj().T @ tang).real - np.outer(ip, ip.conj()).real
    return (m + m.T) / 2.0


class TestFactorSolve:
    """exact_eom returns the metric's factor F; with P > 2D the flow is solved on the 2D side."""

    @pytest.mark.parametrize("seed", [None, 61], ids=["theta-zero", "seeded-theta"])
    def test_plaquette_matches_metric_solve(self, seed):
        ctx = plaquette_n5_context()
        circ, psi0 = ctx.circuit, ctx.psi0
        assert circ.num_params > 2 * psi0.dim  # 185 > 162
        theta = np.zeros(circ.num_params) if seed is None else np.random.default_rng(seed).uniform(-1, 1, circ.num_params)
        eom = exact_eom(circ, theta, ctx.spectrum, psi0, "real")
        assert eom.factor.shape == (circ.num_params, 2 * psi0.dim)
        assert np.max(np.abs(eom.factor @ eom.target - eom.v)) < 1e-12
        dot, info = solve_flow(eom.factor, 0.5 * eom.target, factor=True)
        want, want_info = solve_flow(end_frame_metric(circ, theta, psi0), 0.5 * eom.v)
        assert info.rank == want_info.rank
        if seed is None:
            assert info.rank == 17
        assert np.max(np.abs(dot - want)) < 1e-8 * np.max(np.abs(want))
        assert info.retained_cond == pytest.approx(want_info.retained_cond, rel=1e-6)

    def test_small_chain_matches_metric_solve(self):
        circ = chain_circuit(3, 4, "real")
        psi0 = vacuum(3)
        assert circ.num_params > 2 * psi0.dim  # 72 > 54
        ham = materialize(chain_hamiltonian(3, 1.0, 0.1))
        theta = np.random.default_rng(67).uniform(-1, 1, circ.num_params)
        for kind, sign in (("imag", -0.5), ("real", 0.5)):
            eom = exact_eom(circ, theta, ham, psi0, kind)
            assert np.max(np.abs(eom.factor @ eom.factor.T - end_frame_metric(circ, theta, psi0))) < 1e-12
            assert np.max(np.abs(eom.factor @ eom.target - eom.v)) < 1e-12, kind
            dot, info = solve_flow(eom.factor, sign * eom.target, factor=True)
            want, want_info = solve_flow(end_frame_metric(circ, theta, psi0), sign * eom.v)
            assert info.rank == want_info.rank, kind
            assert np.max(np.abs(dot - want)) < 1e-8 * np.max(np.abs(want)), kind
            assert info.retained_cond == pytest.approx(want_info.retained_cond, rel=1e-6), kind

    def test_at_most_2d_parameters_keep_the_metric_solve(self):
        # P <= 2D: the solve forms M = F F^T and v = F r and inverts the P x P metric
        circ = chain_circuit(3, 2, "real")
        psi0 = vacuum(3)
        assert circ.num_params <= 2 * psi0.dim
        ham = materialize(chain_hamiltonian(3, 1.0, 0.1))
        theta = np.random.default_rng(71).uniform(-1, 1, circ.num_params)
        eom = exact_eom(circ, theta, ham, psi0, "real")
        assert eom.factor.shape == (circ.num_params, 2 * psi0.dim)
        want, want_info = solve_flow(end_frame_metric(circ, theta, psi0), 0.5 * eom.v)
        _, dot, info = _checked_flow(lambda th, kind: eom, theta, "real", 0.5, EvolutionConfig(mode="vrte"), 0)
        assert info.rank == want_info.rank
        assert np.max(np.abs(dot - want)) < 1e-8 * np.max(np.abs(want))

    @pytest.mark.parametrize("kind", ["imag", "real"])
    def test_square_factor_at_2d_parameters(self, kind):
        # one qutrit and six slots: P = 2D, so F is square and only the caller
        # can say that it is a factor and not a metric
        gates = tuple(
            Gate("rotation", (0,), 2 * k + a, _rotation_generator(3, i, j, phi).on(0), (i, j), phi)
            for k, (i, j) in enumerate(((0, 1), (0, 2), (1, 2)))
            for a, phi in enumerate((0.0, np.pi / 2))
        )
        circ = Circuit(gates, 6, 1, 3, 1, "toy")
        rng = np.random.default_rng(73)
        psi0 = basis_state(1, 3, [0]).__class__(1, 3, random_state(3, rng))
        ham = random_hermitian(3, rng)
        theta = rng.uniform(-1, 1, 6)
        eom = exact_eom(circ, theta, ham, psi0, kind)
        assert eom.factor.shape == (6, 6)
        sign = -0.5 if kind == "imag" else 0.5
        ev = EvolutionConfig(mode="vite" if kind == "imag" else "vrte")
        _, dot, info = _checked_flow(lambda th, k: eom, theta, kind, sign, ev, 0)
        want, want_info = solve_flow(end_frame_metric(circ, theta, psi0), sign * eom.v)
        assert info.rank == want_info.rank == 4  # 2D less the norm and the global phase
        assert np.max(np.abs(dot - want)) < 1e-8 * np.max(np.abs(want))

    def test_metric_formed_only_when_read(self):
        circ = chain_circuit(3, 4, "real")
        eom = exact_eom(circ, np.zeros(circ.num_params), np.zeros((27, 27)), vacuum(3), "imag")
        assert eom.metric is None and "m" not in eom.__dict__
        m = eom.m
        assert m.shape == (circ.num_params, circ.num_params) and eom.m is m

    @pytest.mark.parametrize("shape,size", [((3, 4), 3), ((4, 3), 4), ((3, 3), 2)])
    def test_shape_mismatch_rejected(self, shape, size):
        with pytest.raises(ValueError):
            solve_flow(np.ones(shape), np.ones(size))


class TestIntegrateStep:
    def test_zero_derivative(self):
        theta = np.array([1.0, 2.0])
        for method in ("euler", "rk4"):
            out = integrate_step(theta, lambda t: np.zeros(2), 0.1, method)
            assert np.array_equal(out, theta)

    def test_constant_derivative_agreement(self):
        theta = np.zeros(2)
        k = np.array([1.0, -1.0])
        a = integrate_step(theta, lambda t: k, 0.2, "euler")
        b = integrate_step(theta, lambda t: k, 0.2, "rk4")
        assert np.allclose(a, b)

    def test_rk4_fourth_order_on_linear_system(self):
        # theta' = -theta, exact solution exp(-t)
        def run(dt, method):
            theta = np.array([1.0])
            t = 0.0
            while t < 1.0 - 1e-12:
                theta = integrate_step(theta, lambda x: -x, dt, method)
                t += dt
            return theta[0]

        errs = [abs(run(dt, "rk4") - np.exp(-1.0)) for dt in (0.1, 0.05, 0.025)]
        rates = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert all(r > 3.7 for r in rates)
        errs_e = [abs(run(dt, "euler") - np.exp(-1.0)) for dt in (0.1, 0.05)]
        assert 0.8 < np.log2(errs_e[0] / errs_e[1]) < 1.2


def small_vite_config(**kw):
    defaults = dict(
        model=ModelConfig(dimension=1, num_links=3),
        ansatz=AnsatzConfig(family="chain", layers=2, init_seed=2),
        evolution=EvolutionConfig(mode="vite", dt=0.02, steps=800),
    )
    defaults.update(kw)
    return RunConfig(**defaults)


SETUP_CONFIGS = {
    "L7": {"model": {"dimension": 1, "num_links": 7}, "ansatz": {"family": "chain", "layers": 3}},
    "N5": {
        "model": {"dimension": 2, "num_links": 4},
        "ansatz": {"family": "plaquette", "layers": 5, "include_plaquette_gate": True},
        "evolution": {"mode": "vrte"},
    },
}


class TestSetup:
    @pytest.mark.parametrize("name", SETUP_CONFIGS)
    def test_hermitian_checks_in_from_config(self, monkeypatch, name):
        # each distinct operator is checked once; when every gate re-checked
        # its own generator, set-up ran 259 checks on L7 and 490 on N5
        checked = []
        original = core.check_hermitian

        def counted(a, what, *args, **kwargs):
            checked.append(what)
            return original(a, what, *args, **kwargs)

        monkeypatch.setattr(core, "check_hermitian", counted)
        ctx = RunContext.from_config(parse_config(SETUP_CONFIGS[name]))
        assert len(checked) <= 40 < len(ctx.circuit.gates), checked


class TestGroundSearch:
    def test_step_releases_its_eom_before_the_next(self):
        # each EOM holds its factor, the P x D tangent bundle; a step that kept
        # its EOM through the next sweep would hold two (4.1 bundles at peak)
        cfg = RunConfig(
            model=ModelConfig(dimension=1, num_links=7, g=1.0, mass=0.1),
            ansatz=AnsatzConfig(family="chain", layers=3, init_seed=1),
            evolution=EvolutionConfig(mode="vite", dt=0.05, steps=4, integrator="euler"),
        )
        ctx = RunContext.from_config(cfg)
        run_ground_search(dataclasses.replace(cfg, evolution=dataclasses.replace(cfg.evolution, steps=1)), ctx)
        tracemalloc.start()
        try:
            recs, _ = run_ground_search(cfg, ctx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(recs) == 5
        bundle = ctx.circuit.num_params * ctx.psi0.dim * 16
        assert peak < 3.5 * bundle, peak / bundle

    def test_halved_step_releases_the_rejected_eom(self):
        # dt = 0.5 overshoots on this chain: steps 0 and 1 halve it once and
        # step 2 twice; each rejected candidate's EOM (with its tangent
        # bundle) must be gone before the next candidate's sweep (4.1 bundles
        # at peak when it is kept)
        cfg = RunConfig(
            model=ModelConfig(dimension=1, num_links=7, g=1.0, mass=0.1),
            ansatz=AnsatzConfig(family="chain", layers=3, init_seed=1),
            evolution=EvolutionConfig(mode="vite", dt=0.5, steps=3, integrator="euler"),
        )
        ctx = RunContext.from_config(cfg)
        run_ground_search(dataclasses.replace(cfg, evolution=dataclasses.replace(cfg.evolution, steps=1)), ctx)
        tracemalloc.start()
        try:
            recs, _ = run_ground_search(cfg, ctx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [r.time for r in recs] == [0.0, 0.25, 0.5, 0.625]
        energies = [r.columns["energy"] for r in recs]
        assert np.all(np.diff(energies) < 0.0)
        bundle = ctx.circuit.num_params * ctx.psi0.dim * 16
        assert peak < 3.5 * bundle, peak / bundle

    def test_non_finite_candidate_halves_the_step(self, monkeypatch):
        full = 0.02

        def step(theta, deriv, dt, method, k1=None):
            out = integrate_step(theta, deriv, dt, method, k1)
            return out * np.nan if dt == full else out

        monkeypatch.setattr(varsim, "integrate_step", step)
        recs, _ = run_ground_search(small_vite_config(evolution=EvolutionConfig(mode="vite", dt=full, steps=2)))
        assert [r.time for r in recs] == [0.0, 0.01, 0.02]

    def test_energy_monotone(self):
        recs, _ = run_ground_search(small_vite_config())
        energies = np.array([r.columns["energy"] for r in recs])
        assert np.all(np.diff(energies) < 1e-8)

    def test_small_chain_converges(self):
        cfg = small_vite_config()
        recs, ctx = run_ground_search(cfg)
        assert recs[-1].columns["fidelity"] > 0.99
        assert abs(recs[-1].columns["energy"] - ctx.spectrum.ground_energy) < 0.01

    def test_records_well_formed(self):
        recs, _ = run_ground_search(small_vite_config(evolution=EvolutionConfig(mode="vite", dt=0.05, steps=20)))
        for r in recs:
            assert 0.0 <= r.columns["fidelity"] <= 1.0 + 1e-10
            assert [name for name in r.columns if name.startswith("n_")] == ["n_0", "n_1", "n_2", "n_3"]
            assert np.isfinite(r.columns["energy"])

    @staticmethod
    def _check_degenerate_ground(second_level):
        """Lower one more eigenvalue onto E0 and compare each row's fidelity with the ground-space weight.

        ``second_level(ground_class, ground_block)`` picks the (class, block,
        column) of the lowered eigenvalue; the ground space is then spanned
        by the two eigenvectors read straight off their blocks.
        """
        cfg = small_vite_config(evolution=EvolutionConfig(mode="vite", dt=0.05, steps=3))
        ctx = RunContext.from_config(cfg)
        spec = ctx.spectrum
        ground = [
            (c, int(n), 0) for c, cls in enumerate(spec.classes) for n in np.flatnonzero(cls.eigenvalues[:, 0] == spec.ground_energy)
        ]
        assert len(ground) == 1
        classes, vectors = list(spec.classes), []
        for c, n, j in (ground[0], second_level(*ground[0][:2])):
            w = classes[c].eigenvalues.copy()
            w[n, j] = spec.ground_energy
            classes[c] = dataclasses.replace(classes[c], eigenvalues=w)
            vec = np.zeros(spec.dim, dtype=complex)
            vec[classes[c].indices[n]] = classes[c].eigenvectors[n, :, j]
            vectors.append(vec)
        ctx.spectrum = Spectrum(classes)
        assert ctx.spectrum.ground_multiplicity() == 2
        recs, _ = run_ground_search(cfg, ctx)
        ground_space = np.stack(vectors, axis=1)
        for r in recs:
            amp = ctx.circuit.state(r.theta, ctx.psi0).amplitudes
            assert r.columns["fidelity"] == pytest.approx(np.sum(np.abs(ground_space.conj().T @ amp) ** 2), abs=1e-12)

    def test_degenerate_ground_fidelity_is_ground_space_weight(self):
        # the ground block's second level joins the ground space
        self._check_degenerate_ground(lambda c, n: (c, n, 1))

    def test_degenerate_ground_across_two_sectors(self):
        # the first block of the smallest size, a sector apart from the ground's, joins it
        def other_sector(c, n):
            assert (c, n) != (0, 0)
            return (0, 0, 0)

        self._check_degenerate_ground(other_sector)

    def test_one_sweep_per_row_and_one_state_per_candidate(self, monkeypatch):
        calls = {"tangents": 0, "state": 0}
        for name in calls:
            original = getattr(Circuit, name)

            def counted(self, *args, _name=name, _original=original):
                calls[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(Circuit, name, counted)
        steps, dt = 6, 0.02
        recs, _ = run_ground_search(
            small_vite_config(evolution=EvolutionConfig(mode="vite", dt=dt, steps=steps))
        )
        assert len(recs) == steps + 1
        # no candidate was halved, so each step made one candidate, and the
        # candidate's own sweep both accepted it and gave the next row
        assert [r.time for r in recs] == pytest.approx(dt * np.arange(steps + 1))
        assert calls == {"tangents": steps + 1, "state": 0}


class TestNonFiniteFlow:
    @pytest.mark.parametrize("field", ["metric", "v"], ids=["m", "v"])
    def test_non_finite_eom_names_the_step(self, field):
        # the Hadamard route returns M itself (exact_eom returns its factor)
        cfg = parse_config(
            {
                "model": {"dimension": 1, "num_links": 3},
                "ansatz": {"family": "chain", "layers": 1},
                "estimator": {"mode": "hadamard"},
            }
        )
        ctx = RunContext.from_config(cfg)
        route = make_estimator(cfg.estimator, ctx)

        def est(theta, kind):
            eom = route(theta, kind)
            assert eom.factor is None
            bad = getattr(eom, field).copy()
            bad.flat[0] = np.nan
            return dataclasses.replace(eom, **{field: bad})

        ev = EvolutionConfig(mode="vite")
        with pytest.raises(RuntimeError, match="step 4: non-finite"):
            _checked_flow(est, np.zeros(ctx.circuit.num_params), "imag", -0.5, ev, 4)

    def test_non_finite_factor_names_the_step(self):
        circ = chain_circuit(3, 4, "real")

        def est(theta, kind):
            eom = exact_eom(circ, theta, np.zeros((27, 27)), vacuum(3), kind)
            bad = eom.factor.copy()
            bad[0, 0] = np.nan
            return dataclasses.replace(eom, factor=bad)

        with pytest.raises(RuntimeError, match="step 3: non-finite metric"):
            _checked_flow(est, np.zeros(circ.num_params), "real", 0.5, EvolutionConfig(mode="vrte"), 3)

    def test_non_finite_theta_names_the_step(self):
        def est(theta, kind):
            raise AssertionError("the EOM ran on non-finite parameters")

        theta = np.array([0.0, np.inf])
        with pytest.raises(RuntimeError, match="step 2: non-finite parameters"):
            _checked_flow(est, theta, "real", 0.5, EvolutionConfig(mode="vrte"), 2)


class TestQuench:
    def test_initial_row(self):
        cfg = RunConfig(
            model=ModelConfig(dimension=1, num_links=3),
            ansatz=AnsatzConfig(family="chain", layers=2),
            evolution=EvolutionConfig(mode="vrte", dt=0.05, steps=5, integrator="rk4"),
        )
        recs, _ = run_quench(cfg)
        assert recs[0].columns["fidelity"] == pytest.approx(1.0, abs=1e-12)
        assert recs[0].columns["entropy"] == pytest.approx(0.0, abs=1e-12)
        assert recs[0].columns["exact_entropy"] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("model_name", sorted(ESTIMATOR_MODELS))
    def test_cutoff_zero_from_theta_zero_stays_finite(self, model_name):
        # theta = 0 leaves exact zero eigenvalues in M (6 on the chain, 20 on
        # the plaquette), which a cutoff of 0 must still drop
        model_cfg, ansatz_cfg = ESTIMATOR_MODELS[model_name]
        cfg = parse_config(
            {
                "model": model_cfg,
                "ansatz": ansatz_cfg,
                "evolution": {"mode": "vrte", "dt": 0.02, "steps": 3, "integrator": "rk4", "cutoff": 0.0},
            }
        )
        with np.errstate(divide="raise", invalid="raise"):
            recs, _ = run_quench(cfg)
        assert len(recs) == 4
        assert all(np.all(np.isfinite(r.theta)) and np.isfinite(r.columns["fidelity"]) for r in recs)

    def test_single_generator_ansatz_reproduces_exact_flow(self):
        # H equals the gate generator, so theta(t) = t is the exact solution
        gen = LocalOperator(3, (0,), embedded_pauli(3, 1, 2, "X").matrix / 2.0, hermitian=True)
        circ = single_gate_circuit(gen, 1)
        rng = np.random.default_rng(12)
        psi = random_state(3, rng)
        reg = basis_state(1, 3, [0]).__class__(1, 3, psi)
        ham = gen.matrix.copy()
        theta = np.zeros(1)
        dt = 0.01
        from quditgauge.varsim import solve_flow as sf

        def deriv(th):
            eom = exact_eom(circ, th, ham, reg, "real")
            dot, _ = sf(eom.m, 0.5 * eom.v)
            return dot

        for _ in range(100):
            theta = integrate_step(theta, deriv, dt, "rk4")
        assert theta[0] == pytest.approx(1.0, abs=1e-8)

    def test_energy_conservation_improves_with_dt(self):
        # the continuous flow conserves <H> when the ansatz tracks it; the
        # residual step drift must shrink with the step size
        def drift(dt, steps):
            cfg = RunConfig(
                model=ModelConfig(dimension=1, num_links=3),
                ansatz=AnsatzConfig(family="chain", layers=2),
                evolution=EvolutionConfig(mode="vrte", dt=dt, steps=steps, integrator="euler"),
            )
            recs, _ = run_quench(cfg)
            return abs(recs[-1].columns["energy"] - recs[0].columns["energy"])

        d1 = drift(0.04, 25)
        d2 = drift(0.02, 50)
        assert d2 < 0.6 * d1  # at least first-order improvement to fixed time


class TestCompleteAnsatzConvergence:
    """On a complete ansatz the flow is exact, so only the integrator's error is left.

    The N=5 plaquette with the four-body gate spans every direction of its
    state space at a random theta (``test_ansatz.TestPlaquetteTangentRank``).
    From there, RK4's infidelity against exact evolution to t = 0.4 falls at
    its order: 4.85e-4 / 7.05e-6 / 3.24e-8 at dt 0.04 / 0.02 / 0.01 in real
    time, and 3.06e-3 / 1.04e-4 / 2.65e-7 in imaginary time.  There the
    parameter speed reaches 100-135, so dt 0.04 is not yet small and only
    the last ratio shows the order.
    """

    @staticmethod
    def rk4_infidelities(kind: str, sign: float, evolve) -> tuple[float, float]:
        """RK4 infidelity against ``evolve`` of the start to 0.4, at dt 0.02 and 0.01."""
        cfg = parse_config(
            {
                "model": {"dimension": 2, "num_links": 4},
                "ansatz": {"family": "plaquette", "layers": 5, "include_plaquette_gate": True},
                "evolution": {"mode": "vrte"},
            }
        )
        ctx = RunContext.from_config(cfg)
        theta0 = random_initial_params(ctx.circuit, 7, np.pi / 4)
        want = evolve(ctx.spectrum, ctx.circuit.state(theta0, ctx.psi0).amplitudes, 0.4)

        def deriv(theta):
            eom = exact_eom(ctx.circuit, theta, ctx.spectrum, ctx.psi0, kind)
            return solve_flow(eom.factor, sign * eom.target, cfg.evolution.cutoff, factor=True)[0]

        def infidelity(dt):
            theta = theta0
            for _ in range(round(0.4 / dt)):
                theta = integrate_step(theta, deriv, dt, "rk4")
            return 1.0 - abs(np.vdot(want, ctx.circuit.state(theta, ctx.psi0).amplitudes)) ** 2

        return infidelity(0.02), infidelity(0.01)

    def test_real_time_rk4_converges_at_its_order(self):
        coarse, fine = self.rk4_infidelities("real", 0.5, evolve_real)
        assert fine < 1e-7, fine
        assert coarse / fine >= 100.0, (coarse, fine)

    def test_imag_time_rk4_converges_at_its_order(self):
        coarse, fine = self.rk4_infidelities("imag", -0.5, evolve_imag)  # evolve_imag normalizes
        assert fine < 1e-6, fine
        assert coarse / fine >= 100.0, (coarse, fine)


class TestOscillationPeriod:
    def test_plain_cosine(self):
        t = np.linspace(0, 20, 2001)
        v = np.cos(2 * np.pi * t / 5.0)
        assert oscillation_period(t, v) == pytest.approx(5.0, abs=0.05)

    def test_needs_two_peaks(self):
        t = np.linspace(0, 1, 100)
        with pytest.raises(ValueError):
            oscillation_period(t, t)
