"""Shift-rule, Hadamard-test, and randomized measurement emulation."""
import ast
import itertools
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from quditgauge import measure
from quditgauge.ansatz import Circuit, chain_circuit, plaquette_circuit
from quditgauge.cli import main
from quditgauge.config import parse_config
from quditgauge.core import LocalOperator, QuditRegister, basis_state, embedded_pauli
from quditgauge.measure import (
    ShiftPlans,
    ShiftTable,
    element_from_hadamard,
    fit_fourier,
    fourier_derivative,
    fourier_value,
    hadamard_test,
    randomized_connected_anticommutator,
    shift_eom,
)
from quditgauge.model import (
    chain_hamiltonian,
    hamiltonian_unitary_pieces,
    materialize,
    plaquette_hamiltonian,
    unitary_split,
)
from quditgauge.oracle import eigendecompose
from quditgauge.varsim import RunContext, exact_eom, make_estimator

from helpers import hadamard_eom_reference, kron_lift, random_hermitian, random_state, series_expm
from test_ansatz import hand_built_circuit


def vacuum(n):
    return basis_state(n, 3, [1] * n)


@pytest.fixture(scope="module")
def small_chain():
    circ = chain_circuit(3, 1, "imag")
    ham = materialize(chain_hamiltonian(3, 1.0, 0.1))
    return circ, ham, vacuum(3)


class TestOverlaps:
    def test_zero_shift(self, small_chain):
        circ, _, psi0 = small_chain
        theta = np.random.default_rng(0).uniform(-1, 1, circ.num_params)
        table = ShiftTable(circ, theta, psi0)
        assert table.overlaps(2, None, [0.0])[0] == pytest.approx(1.0, abs=1e-12)
        assert table.overlaps(1, 4, [0.0])[0] == pytest.approx(1.0, abs=1e-12)

    def test_equal_slots_constant(self, small_chain):
        circ, _, psi0 = small_chain
        theta = np.random.default_rng(1).uniform(-1, 1, circ.num_params)
        table = ShiftTable(circ, theta, psi0)
        for a in (0.3, -1.1, 2.0):
            assert table.overlaps(3, 3, [a])[0] == pytest.approx(1.0, abs=1e-12)

    def test_matches_direct_statevector(self, small_chain):
        circ, _, psi0 = small_chain
        rng = np.random.default_rng(2)
        theta = rng.uniform(-np.pi, np.pi, circ.num_params)
        mu, nu, a = 0, 5, 0.63
        ta = theta.copy()
        ta[mu] += a
        tb = theta.copy()
        tb[nu] += a
        want = abs(np.vdot(circ.state(ta, psi0).amplitudes, circ.state(tb, psi0).amplitudes)) ** 2
        assert ShiftTable(circ, theta, psi0).overlaps(mu, nu, [a])[0] == pytest.approx(want, abs=1e-12)

    def test_shot_mode_is_binomial(self, small_chain):
        circ, _, psi0 = small_chain
        theta = np.zeros(circ.num_params)
        rng = np.random.default_rng(3)
        (val,) = ShiftTable(circ, theta, psi0).overlaps(0, None, [0.4], shots=1000, rng=rng)
        assert 0.0 <= val <= 1.0
        assert val * 1000 == pytest.approx(round(val * 1000))


class TestShotDrawsNearOneHalf:
    """A P(+) a few ulp from 1/2 (a word zero by symmetry, up to roundoff) draws as exactly 1/2."""

    def test_equal_seeds_draw_equal_counts(self):
        below, above = np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0)
        draws = [
            measure._maybe_binomial(np.full(200, p), 1000, np.random.default_rng(5))
            for p in (below, 0.5, above, 0.5 + 2 * np.spacing(0.5))
        ]
        for got in draws:
            assert np.array_equal(got, draws[1])

    def test_noiseless_values_unchanged(self):
        p = np.array([np.nextafter(0.5, 0.0), 0.5, np.nextafter(0.5, 1.0), 0.25])
        assert np.array_equal(measure._maybe_binomial(p, None, None), p)

    def test_other_probabilities_draw_as_before(self):
        p = np.array([0.1, 0.5 - 1e-6, 0.5 + 1e-6, 0.9])
        got = measure._maybe_binomial(p, 1000, np.random.default_rng(6))
        assert np.array_equal(got, np.random.default_rng(6).binomial(1000, p) / 1000)


class TestPlans:
    def test_single_rotation_slot_frequencies(self):
        # a slot driving rotations has shift-generator eigenvalues {0, +-1/2}
        # per gate; with k gates the overlap frequencies live on a half-integer
        # grid of radius k
        circ = chain_circuit(3, 1, "imag")
        for mu in range(6):
            plan = ShiftPlans(circ)((mu,))
            k = len(circ.slot_positions(mu))
            want = np.arange(-2 * k, 2 * k + 1) * 0.5
            assert np.allclose(np.sort(plan.frequencies), want)

    def test_ms_slot_frequencies_qubit_case(self):
        # for a two-level system the MS generator spectrum is {0, 1}
        from quditgauge.ansatz import Gate, Circuit
        from quditgauge.core import ms_generator

        gen = ms_generator(2, 0, 1)
        circ = Circuit((Gate("ms", (0, 1), 0, gen, (0, 1)),), 1, 2, 2, 1, "toy")
        plan = ShiftPlans(circ)((0,))
        assert np.allclose(np.sort(plan.frequencies), [-1, 0, 1])

    def test_ms_slot_frequencies_qutrit_case(self):
        # embedded in qutrits the spectrum gains 1/4, so the frequency set
        # is the honest enumeration, not the two-level one
        from quditgauge.ansatz import Gate, Circuit
        from quditgauge.core import ms_generator

        gen = ms_generator(3, 0, 1)
        circ = Circuit((Gate("ms", (0, 1), 0, gen, (0, 1)),), 1, 2, 3, 1, "toy")
        plan = ShiftPlans(circ)((0,))
        assert np.allclose(np.sort(plan.frequencies), [-1, -0.75, -0.25, 0, 0.25, 0.75, 1])

    def test_design_full_rank(self):
        circ = plaquette_circuit(1, "imag")
        for slots in [(0,), (3,), (0, 3), (8, 9)]:
            plan = ShiftPlans(circ)(slots)
            assert np.linalg.cond(plan.design) < 1e8
            assert len(plan.points) == len(plan.frequencies)

    def test_pair_symmetry(self):
        circ = chain_circuit(3, 1, "imag")
        plan = ShiftPlans(circ)((0, 0))
        assert np.allclose(np.sort(plan.frequencies), np.sort(-plan.frequencies))


    def test_estimator_plans_each_slot_set_once(self, monkeypatch):
        # one shift-route estimator plans the 8 slots and 28 slot pairs of the
        # L=3 N=1 chain once, over every theta and every per-step shot seed
        cfg = parse_config(
            {
                "model": {"dimension": 1, "num_links": 3},
                "ansatz": {"family": "chain", "layers": 1},
                "estimator": {"mode": "shift", "shots": 200},
            }
        )
        ctx = RunContext.from_config(cfg)
        planned = []
        original = measure._frequencies

        def counted(circuit, slots):
            planned.append(slots)
            return original(circuit, slots)

        monkeypatch.setattr(measure, "_frequencies", counted)
        est = make_estimator(cfg.estimator, ctx)
        rng = np.random.default_rng(45)
        for _ in range(2):
            est(rng.uniform(-1, 1, ctx.circuit.num_params), "imag")
        assert len(planned) == len(set(planned)) == 8 + 28

    def test_plan_off_the_grids_raises_naming_its_slots(self, monkeypatch, tmp_path, capsys):
        # a frequency set that neither fixed grid resolves is a numerical failure, exit 3 in the CLI
        monkeypatch.setattr(measure, "_grid_plan", lambda freqs: None)
        with pytest.raises(RuntimeError, match=r"slots \(2,\)"):
            measure.ShiftPlans(chain_circuit(3, 1, "imag"))((2,))
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "model": {"dimension": 1, "num_links": 3},
                    "ansatz": {"family": "chain", "layers": 1},
                    "evolution": {"mode": "vite", "steps": 2},
                    "estimator": {"mode": "shift"},
                }
            )
        )
        assert main(["ground", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 3
        assert "numerical failure: no full-rank shift design" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "circ",
        [chain_circuit(3, 1, "imag"), plaquette_circuit(1, "imag", True)],
        ids=["chain-L3", "plaquette-N1-gate"],
    )
    def test_every_plan_is_on_a_fixed_grid(self, circ):
        plans = ShiftPlans(circ)
        npar = circ.num_params
        for slots in [(mu,) for mu in range(npar)] + list(itertools.combinations(range(npar), 2)):
            plan = plans(slots)  # raises off both grids
            assert np.linalg.cond(plan.design) < measure.RANK_COND_LIMIT, slots


class TestFourierFit:
    def test_constant(self):
        circ = chain_circuit(3, 1, "imag")
        plan = ShiftPlans(circ)((0,))
        coeffs = fit_fourier(plan, np.ones(len(plan.points)))
        nonzero = np.abs(coeffs) > 1e-9
        assert nonzero.sum() == 1
        assert plan.frequencies[np.argmax(np.abs(coeffs))] == 0.0

    def test_pure_cosine(self):
        circ = chain_circuit(3, 1, "imag")
        plan = ShiftPlans(circ)((0,))
        vals = np.cos(plan.points)
        coeffs = fit_fourier(plan, vals)
        for freq, c in zip(plan.frequencies, coeffs):
            if abs(abs(freq) - 1.0) < 1e-12:
                assert c == pytest.approx(0.5, abs=1e-9)
            else:
                assert abs(c) < 1e-9

    def test_reconstruction_on_held_out_points(self, small_chain):
        circ, _, psi0 = small_chain
        rng = np.random.default_rng(11)
        theta = rng.uniform(-np.pi, np.pi, circ.num_params)
        mu = 2
        plan = ShiftPlans(circ)((mu,))
        table = ShiftTable(circ, theta, psi0)
        coeffs = fit_fourier(plan, table.overlaps(mu, None, plan.points))
        for a in rng.uniform(-2.0, 2.0, 20):
            (want,) = table.overlaps(mu, None, [a])
            assert fourier_value(plan, coeffs, a) == pytest.approx(want, abs=1e-8)


class TestMetricFromShifts:
    def test_matches_exact_random(self, small_chain):
        circ, ham, psi0 = small_chain
        spec = eigendecompose(ham)
        rng = np.random.default_rng(13)
        for _ in range(3):
            theta = rng.uniform(-np.pi, np.pi, circ.num_params)
            m_exact = exact_eom(circ, theta, None, psi0, "imag").m
            m = shift_eom(ShiftPlans(circ), theta, psi0, spec).m
            for mu, nu in [(0, 0), (2, 2), (0, 1), (2, 5), (4, 7)]:
                assert m[mu, nu] == pytest.approx(m_exact[mu, nu], abs=1e-8), (mu, nu)

    def test_full_matrix(self, small_chain):
        circ, ham, psi0 = small_chain
        theta = np.random.default_rng(14).uniform(-np.pi, np.pi, circ.num_params)
        got = shift_eom(ShiftPlans(circ), theta, psi0, eigendecompose(ham))
        want = exact_eom(circ, theta, None, psi0, "imag").m
        assert np.max(np.abs(got.m - want)) < 1e-8
        assert np.array_equal(got.psi.amplitudes, circ.state(theta, psi0).amplitudes)

    def test_diagonal_is_variance(self):
        # single-gate circuit: M_00 = Var(G) reproduced through p''(0)
        from quditgauge.ansatz import Gate, Circuit

        gen = LocalOperator(3, (0,), embedded_pauli(3, 1, 2, "X").matrix / 2.0, hermitian=True)
        circ = Circuit((Gate("rotation", (0,), 0, gen, (1, 2), 0.0),), 1, 1, 3, 1, "toy")
        rng = np.random.default_rng(15)
        psi = random_state(3, rng)
        reg = basis_state(1, 3, [0]).__class__(1, 3, psi)
        m = shift_eom(ShiftPlans(circ), np.array([0.2]), reg, eigendecompose(gen.matrix)).m
        g = gen.matrix
        want = np.vdot(psi, g @ g @ psi).real - np.vdot(psi, g @ psi).real ** 2
        assert m[0, 0] == pytest.approx(want, abs=1e-9)

    def test_unbiased_over_seeds(self, small_chain):
        # shot-mode estimates average to the exact value: linear estimator
        circ, ham, psi0 = small_chain
        spec = eigendecompose(ham)
        theta = np.random.default_rng(16).uniform(-1, 1, circ.num_params)
        exact = exact_eom(circ, theta, None, psi0, "imag").m[1, 1]
        shots, plans = 2000, ShiftPlans(circ)
        draws = np.array([shift_eom(plans, theta, psi0, spec, shots=shots, seed=s).m[1, 1] for s in range(100)])
        se = draws.std(ddof=1) / np.sqrt(len(draws))
        assert abs(draws.mean() - exact) < 3 * se + 1e-12


class TestGradientFromShifts:
    def test_matches_exact(self, small_chain):
        circ, ham, psi0 = small_chain
        spec = eigendecompose(ham)
        rng = np.random.default_rng(17)
        for _ in range(2):
            theta = rng.uniform(-np.pi, np.pi, circ.num_params)
            grad = exact_eom(circ, theta, ham, psi0, "imag").v
            got = shift_eom(ShiftPlans(circ), theta, psi0, spec).v
            for mu in range(circ.num_params):
                assert got[mu] == pytest.approx(grad[mu], abs=1e-8), mu

    def test_identity_hamiltonian_zero(self, small_chain):
        circ, _, psi0 = small_chain
        spec = eigendecompose(np.eye(27, dtype=complex))
        theta = np.random.default_rng(18).uniform(-1, 1, circ.num_params)
        assert shift_eom(ShiftPlans(circ), theta, psi0, spec).v[0] == pytest.approx(0.0, abs=1e-10)

    def test_error_scales_with_shots(self, small_chain):
        # slot 0's gradient from its energy samples alone, a generator per seed
        circ, ham, psi0 = small_chain
        spec = eigendecompose(ham)
        theta = np.random.default_rng(19).uniform(-1, 1, circ.num_params)
        exact = exact_eom(circ, theta, ham, psi0, "imag").v[0]
        table = ShiftTable(circ, theta, psi0)
        plan = ShiftPlans(circ)((0,))

        def gradient(shots, seed):
            samples = table.energies(0, plan.points, spec, shots, np.random.default_rng(seed))
            return fourier_derivative(plan, fit_fourier(plan, samples))

        def spread(shots, trials=30):
            vals = np.array([gradient(shots, s) for s in range(trials)])
            return np.sqrt(np.mean((vals - exact) ** 2))

        r = spread(1000) / spread(100000)
        assert 4.0 < r < 25.0  # ~ sqrt(100) with sampling noise


class TestHadamardTest:
    def test_identity_word(self):
        psi0 = vacuum(2)
        eye = LocalOperator(3, (0,), np.eye(3, dtype=complex))
        assert hadamard_test(psi0, [(eye, True)], 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_minus_identity(self):
        psi0 = vacuum(2)
        neg = LocalOperator(3, (0,), -np.eye(3, dtype=complex))
        assert hadamard_test(psi0, [(neg, True)], 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_random_unitary_real_and_imag_parts(self):
        rng = np.random.default_rng(20)
        psi = random_state(3, rng)
        reg = basis_state(1, 3, [0]).__class__(1, 3, psi)
        w = series_expm(1.0j * random_hermitian(3, rng))
        op = LocalOperator(3, (0,), w)
        expect = np.vdot(psi, w @ psi)
        p_re = hadamard_test(reg, [(op, True)], 0.0)
        p_im = hadamard_test(reg, [(op, True)], np.pi / 2)
        assert 2 * p_re - 1 == pytest.approx(expect.real, abs=1e-12)
        assert 1 - 2 * p_im == pytest.approx(expect.imag, abs=1e-12)

    def test_non_unitary_rejected(self):
        psi0 = vacuum(1)
        bad = LocalOperator(3, (0,), np.diag([1.0, 0.5, 1.0]).astype(complex))
        with pytest.raises(ValueError):
            hadamard_test(psi0, [(bad, True)], 0.0)

    def test_shot_mode(self):
        psi0 = vacuum(1)
        eye = LocalOperator(3, (0,), np.eye(3, dtype=complex))
        rng = np.random.default_rng(0)
        assert hadamard_test(psi0, [(eye, True)], 0.0, shots=100, rng=rng) == 1.0


class TestElementFromHadamard:
    def test_metric_elements_match_exact(self, small_chain):
        circ, _, psi0 = small_chain
        rng = np.random.default_rng(21)
        theta = rng.uniform(-np.pi, np.pi, circ.num_params)
        m = exact_eom(circ, theta, None, psi0, "imag").m
        for mu, nu in [(0, 0), (1, 3), (2, 6), (7, 7)]:
            got = element_from_hadamard("M", circ, theta, mu, nu, None, psi0)
            assert got == pytest.approx(m[mu, nu], abs=1e-8), (mu, nu)

    def test_vectors_match_exact(self, small_chain):
        circ, ham, psi0 = small_chain
        ham_spec = chain_hamiltonian(3, 1.0, 0.1)
        pieces = hamiltonian_unitary_pieces(ham_spec)
        rng = np.random.default_rng(22)
        theta = rng.uniform(-np.pi, np.pi, circ.num_params)
        vi = exact_eom(circ, theta, ham, psi0, "imag").v
        vr = exact_eom(circ, theta, ham, psi0, "real").v
        for mu in range(0, circ.num_params, 3):
            got_i = element_from_hadamard("VI", circ, theta, mu, None, pieces, psi0)
            got_r = element_from_hadamard("VR", circ, theta, mu, None, pieces, psi0)
            assert got_i == pytest.approx(vi[mu], abs=1e-8), mu
            assert got_r == pytest.approx(vr[mu], abs=1e-8), mu

    def test_identity_hamiltonian_gradient_zero(self, small_chain):
        circ, _, psi0 = small_chain
        pieces = [(0.5, LocalOperator(3, (0,), np.eye(3, dtype=complex))),
                  (0.5, LocalOperator(3, (0,), np.eye(3, dtype=complex)))]
        theta = np.random.default_rng(23).uniform(-1, 1, circ.num_params)
        got = element_from_hadamard("VI", circ, theta, 0, None, pieces, psi0)
        assert got == pytest.approx(0.0, abs=1e-10)

    def test_alpha_selects_commutator(self):
        # anticommutator via alpha=0, commutator via alpha=pi/2: check on a
        # single-gate circuit against dense algebra
        from quditgauge.ansatz import Gate, Circuit

        gen = LocalOperator(3, (0,), embedded_pauli(3, 0, 1, "X").matrix / 2.0, hermitian=True)
        circ = Circuit((Gate("rotation", (0,), 0, gen, (0, 1), 0.0),), 1, 1, 3, 1, "toy")
        rng = np.random.default_rng(24)
        psi = random_state(3, rng)
        reg = basis_state(1, 3, [0]).__class__(1, 3, psi)
        theta = np.array([0.83])
        h = embedded_pauli(3, 0, 2, "Z").matrix * 0.7
        from quditgauge.model import unitary_split

        split = unitary_split(LocalOperator(3, (0,), h, hermitian=True))
        pieces = [
            (split.norm / 2, split.unitary),
            (split.norm / 2, split.unitary.dagger()),
        ]
        u = circ.gates[0].matrix(theta[0])
        g_t = u.conj().T @ gen.matrix @ u
        h_t = u.conj().T @ h @ u
        want_comm = (1j * np.vdot(psi, (g_t @ h_t - h_t @ g_t) @ psi)).real
        got = element_from_hadamard("VI", circ, theta, 0, None, pieces, reg)
        assert got == pytest.approx(want_comm, abs=1e-10)
        want_anti = np.vdot(psi, (g_t @ h_t + h_t @ g_t) @ psi).real - 2 * np.vdot(
            psi, g_t @ psi
        ).real * np.vdot(psi, h_t @ psi).real
        got_r = element_from_hadamard("VR", circ, theta, 0, None, pieces, reg)
        assert got_r == pytest.approx(want_anti, abs=1e-10)

    def test_insertions_inside_fused_stages(self):
        # slot 2 spans two stages, slot 5 repeats inside one, the CROT is
        # non-adjacent, and the Hamiltonian piece sits on qudits (2, 0)
        circ = hand_built_circuit()
        rng = np.random.default_rng(42)
        psi0 = QuditRegister(3, 3, random_state(27, rng))
        h = LocalOperator(3, (2, 0), random_hermitian(9, rng), hermitian=True)
        split = unitary_split(h)
        pieces = [(split.norm / 2, split.unitary), (split.norm / 2, split.unitary.dagger())]
        ham = kron_lift(h.matrix, h.targets, 3, 3)
        theta = rng.uniform(-np.pi, np.pi, circ.num_params)
        imag = exact_eom(circ, theta, ham, psi0, "imag")
        real = exact_eom(circ, theta, ham, psi0, "real")
        for mu in range(circ.num_params):
            for nu in range(mu, circ.num_params):
                got = element_from_hadamard("M", circ, theta, mu, nu, None, psi0)
                assert abs(got - imag.m[mu, nu]) < 1e-12, (mu, nu)
            got_i = element_from_hadamard("VI", circ, theta, mu, None, pieces, psi0)
            got_r = element_from_hadamard("VR", circ, theta, mu, None, pieces, psi0)
            assert abs(got_i - imag.v[mu]) < 1e-12, mu
            assert abs(got_r - real.v[mu]) < 1e-12, mu

    def test_shot_mean_within_three_standard_errors(self, small_chain):
        circ, _, psi0 = small_chain
        theta = np.random.default_rng(43).uniform(-np.pi, np.pi, circ.num_params)
        exact = exact_eom(circ, theta, None, psi0, "imag").m[4, 5]  # two gates per slot: 16 pair words
        draws = np.array(
            [element_from_hadamard("M", circ, theta, 4, 5, None, psi0, shots=2000, seed=s) for s in range(200)]
        )
        se = draws.std(ddof=1) / np.sqrt(len(draws))
        assert se < abs(exact) / 10
        assert abs(draws.mean() - exact) < 3 * se


class TestShotNoiseIndependence:
    """The elements of one shot-noise estimate draw from one generator in turn, not from one stream each."""

    @staticmethod
    def largest_correlation(draws):
        corr = np.corrcoef(draws, rowvar=False)
        return np.max(np.abs(corr[~np.eye(len(corr), dtype=bool)]))

    def test_element_errors_are_uncorrelated(self, small_chain):
        # with every element seeded alike, pairs of elements read the same
        # binomial stream and their errors correlate up to |corr| = 1
        circ, ham, psi0 = small_chain
        spectrum = eigendecompose(ham)
        pieces = hamiltonian_unitary_pieces(chain_hamiltonian(3, 1.0, 0.1))
        theta = np.random.default_rng(16).uniform(-1, 1, circ.num_params)
        route, plans = measure.hadamard_plan(circ, pieces), ShiftPlans(circ)
        upper = np.triu_indices(circ.num_params)
        metric = np.array(
            [measure.hadamard_eom(route, theta, psi0, "imag", 1000, s).m[upper] for s in range(100)]
        )
        gradient = np.array([shift_eom(plans, theta, psi0, spectrum, 1000, s).v for s in range(60)])
        assert self.largest_correlation(metric) < 0.6
        assert self.largest_correlation(gradient) < 0.6


class TestHadamardEstimator:
    def test_one_sweep_and_no_state_per_call(self, monkeypatch):
        cfg = parse_config(
            {
                "model": {"dimension": 1, "num_links": 3},
                "ansatz": {"family": "chain", "layers": 1},
                "estimator": {"mode": "hadamard"},
            }
        )
        ctx = RunContext.from_config(cfg)
        calls = {"sweep": 0, "state": 0}

        def counted(name):
            original = getattr(Circuit, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(Circuit, "sweep", counted("sweep"))
        monkeypatch.setattr(Circuit, "state", counted("state"))
        est = make_estimator(cfg.estimator, ctx)
        theta = np.random.default_rng(44).uniform(-1, 1, ctx.circuit.num_params)
        for kind in ("imag", "real"):
            before = dict(calls)
            eom = est(theta, kind)
            assert calls["sweep"] - before["sweep"] == 1, kind
            assert calls["state"] == 0, kind
            exact = exact_eom(ctx.circuit, theta, ctx.spectrum, ctx.psi0, kind)
            assert np.max(np.abs(eom.m - exact.m)) < 1e-12
            assert np.max(np.abs(eom.v - exact.v)) < 1e-12
            assert np.max(np.abs(eom.psi.amplitudes - exact.psi.amplitudes)) < 1e-14



HADAMARD_MODELS = {
    "chain-L3-N1": ({"dimension": 1, "num_links": 3}, {"family": "chain", "layers": 1}),
    "chain-L3-N2": ({"dimension": 1, "num_links": 3}, {"family": "chain", "layers": 2}),
    "plaquette-N1": (
        {"dimension": 2, "num_links": 4},
        {"family": "plaquette", "layers": 1, "include_plaquette_gate": True},
    ),
}


def hadamard_route(name):
    model_cfg, ansatz_cfg = HADAMARD_MODELS[name]
    ctx = RunContext.from_config(parse_config({"model": model_cfg, "ansatz": ansatz_cfg}))
    pieces = hamiltonian_unitary_pieces(ctx.ham_spec)
    return ctx, pieces, measure.hadamard_plan(ctx.circuit, pieces)


class TestHadamardProgram:
    """One EOM reads every Hadamard test off one word matrix, in the per-element loop's draw order."""

    @pytest.mark.parametrize("name", ["chain-L3-N2", "plaquette-N1"])
    @pytest.mark.parametrize("kind", ["imag", "real"])
    def test_shots_match_per_element_loop_bitwise(self, name, kind):
        ctx, pieces, route = hadamard_route(name)
        theta = np.random.default_rng(45).uniform(-np.pi, np.pi, ctx.circuit.num_params)
        for seed in (0, 1):
            got = measure.hadamard_eom(route, theta, ctx.psi0, kind, 1000, seed)
            want = hadamard_eom_reference(route, theta, ctx.psi0, kind, 1000, seed)
            assert np.array_equal(got.m, want[1]) and np.array_equal(got.v, want[2]), seed

    @pytest.mark.parametrize("name", ["chain-L3-N2", "plaquette-N1"])
    def test_noiseless_matches_exact_and_per_element_loop(self, name):
        ctx, pieces, route = hadamard_route(name)
        theta = np.random.default_rng(46).uniform(-np.pi, np.pi, ctx.circuit.num_params)
        for kind in ("imag", "real"):
            got = measure.hadamard_eom(route, theta, ctx.psi0, kind)
            m, v = got.m, got.v
            _, m_ref, v_ref = hadamard_eom_reference(route, theta, ctx.psi0, kind)
            exact = exact_eom(ctx.circuit, theta, ctx.spectrum, ctx.psi0, kind)
            assert np.array_equal(m, m_ref) and np.array_equal(v, v_ref), kind
            assert np.max(np.abs(m - exact.m)) < 1e-12 and np.max(np.abs(v - exact.v)) < 1e-12, kind

    @pytest.mark.parametrize("name,totals", [("chain-L3-N1", (474, 440, 622)), ("plaquette-N1", (5624, 1924, 2960))])
    def test_tests_per_eom_match_hand_count(self, name, totals):
        # M: sum over mu <= nu of 4 g_mu g_nu pair words and 2 g_mu + 2 g_nu
        # singles; VI: 2 g_mu B pair words; VR: those and 2 g_mu + B singles
        ctx, pieces, route = hadamard_route(name)
        g = np.array([len(ctx.circuit.slot_positions(mu)) for mu in range(ctx.circuit.num_params)])
        b = len(pieces)
        mus, nus = np.triu_indices(g.size)
        metric = 4 * g[mus] * g[nus] + 2 * g[mus] + 2 * g[nus]
        hand = {"M": metric, "VI": 2 * g * b, "VR": 2 * g * b + 2 * g + b}
        assert route.tests["imag"].counts().tolist() == metric.tolist() + hand["VI"].tolist()
        assert route.tests["real"].counts().tolist() == metric.tolist() + hand["VR"].tolist()
        assert tuple(int(hand[kind].sum()) for kind in ("M", "VI", "VR")) == totals

    def test_element_reads_its_slice_of_the_eom(self):
        ctx, pieces, route = hadamard_route("chain-L3-N1")
        circ = ctx.circuit
        theta = np.random.default_rng(47).uniform(-np.pi, np.pi, circ.num_params)
        imag = measure.hadamard_eom(route, theta, ctx.psi0, "imag")
        m, vi = imag.m, imag.v
        vr = measure.hadamard_eom(route, theta, ctx.psi0, "real").v
        # with the same pieces the element reads the same word matrix
        for mu, nu in [(0, 0), (2, 5), (5, 2), (7, 7)]:
            assert element_from_hadamard("M", circ, theta, mu, nu, pieces, ctx.psi0) == m[mu, nu], (mu, nu)
        for mu in range(circ.num_params):
            assert element_from_hadamard("VI", circ, theta, mu, None, pieces, ctx.psi0) == vi[mu], mu
            assert element_from_hadamard("VR", circ, theta, mu, None, pieces, ctx.psi0) == vr[mu], mu


class TestRandomized:
    def test_commuting_diagonal_mean(self):
        # diagonal observables on a basis state: the connected value is known
        rng = np.random.default_rng(25)
        a = np.diag([1.0, -1.0, 0.5, 0.0, 2.0, -0.5, 1.5, 0.3, -2.0]).astype(complex)
        b = np.diag([0.5, 1.0, -1.0, 2.0, 0.0, 1.0, -0.5, 0.7, 0.2]).astype(complex)
        psi0 = np.zeros(9, dtype=complex)
        psi0[4] = 1.0
        want = (
            np.vdot(psi0, (a @ b + b @ a) @ psi0).real
            - 2 * np.vdot(psi0, a @ psi0).real * np.vdot(psi0, b @ psi0).real
        )
        trials = np.array(
            [
                randomized_connected_anticommutator(a, b, psi0, 64, np.random.default_rng(s))
                for s in range(200)
            ]
        )
        se = trials.std(ddof=1) / np.sqrt(len(trials))
        assert abs(trials.mean() - want) < 3 * se

    def test_has_power_to_reject_a_biased_estimator(self):
        # small dimension and many samples: the standard error is a small
        # fraction of the exact value, so a 20 % bias fails the same bound
        rng = np.random.default_rng(56)
        a = random_hermitian(3, rng)
        b = random_hermitian(3, rng)
        psi0 = random_state(3, rng)
        want = (
            np.vdot(psi0, (a @ b + b @ a) @ psi0).real
            - 2 * np.vdot(psi0, a @ psi0).real * np.vdot(psi0, b @ psi0).real
        )
        trials = np.array(
            [
                randomized_connected_anticommutator(a, b, psi0, 256, np.random.default_rng(s))
                for s in range(200)
            ]
        )

        def within_three_se(values):
            se = values.std(ddof=1) / np.sqrt(len(values))
            return abs(values.mean() - want) < 3 * se

        se = trials.std(ddof=1) / np.sqrt(len(trials))
        assert se < abs(want) / 10
        assert within_three_se(trials)
        assert not within_three_se(1.2 * trials)

    def test_zero_operator(self):
        rng = np.random.default_rng(26)
        b = np.diag([1.0, 2.0, 3.0]).astype(complex)
        psi0 = np.array([1.0, 0, 0], dtype=complex)
        got = randomized_connected_anticommutator(np.zeros((3, 3), complex), b, psi0, 10, rng)
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_error_scales_with_samples(self):
        rng = np.random.default_rng(27)
        a = np.diag([1.0, -1.0, 0.0]).astype(complex)
        b = np.diag([0.3, 0.9, -0.4]).astype(complex)
        psi0 = random_state(3, rng)
        want = (
            np.vdot(psi0, (a @ b + b @ a) @ psi0).real
            - 2 * np.vdot(psi0, a @ psi0).real * np.vdot(psi0, b @ psi0).real
        )

        def spread(samples, trials=40):
            vals = np.array(
                [
                    randomized_connected_anticommutator(a, b, psi0, samples, np.random.default_rng(s))
                    for s in range(trials)
                ]
            )
            return np.sqrt(np.mean((vals - want) ** 2))

        r = spread(20) / spread(2000)
        assert 4.0 < r < 25.0

    def test_dimension_cap(self):
        big = np.eye(243, dtype=complex)
        with pytest.raises(ValueError):
            randomized_connected_anticommutator(big, big, np.ones(243, complex), 1, np.random.default_rng(0))

    @pytest.mark.parametrize(
        "make",
        [hand_built_circuit, lambda: plaquette_circuit(1, "real", include_plaquette_gate=True)],
        ids=["hand built", "plaquette gate"],
    )
    def test_heisenberg_generators_match_dense_products(self, make):
        # the frame-0 tangents of U e_j are -i G~ e_j, so the D basis states,
        # swept as one block, give U and every G~_mu column by column
        circ = make()
        dim = circ.local_dim**circ.num_qudits
        theta = np.random.default_rng(57).uniform(-np.pi, np.pi, circ.num_params)
        u, gens = dense_heisenberg(circ, theta)
        psi, tang, _ = circ.tangents(theta, np.eye(dim, dtype=complex), 0)
        assert np.max(np.abs(psi.T - u)) < 1e-12
        assert np.max(np.abs((1.0j * tang).transpose(2, 0, 1) - gens)) < 1e-12


def dense_heisenberg(circ, theta):
    """U = M_K ... M_1 and G~_mu = sum over slot mu's gates of U_{p:1}^dag G_p U_{p:1}, from dense products."""
    n, d = circ.num_qudits, circ.local_dim
    prefix = np.eye(d**n, dtype=complex)
    gens = np.zeros((circ.num_params, d**n, d**n), dtype=complex)
    for g in circ.gates:
        gen = g.generator.matrix
        prefix = kron_lift(series_expm(-1.0j * theta[g.slot] * gen), g.targets, n, d) @ prefix
        gens[g.slot] += prefix.conj().T @ kron_lift(gen, g.targets, n, d) @ prefix
    return prefix, gens


def real_chain_context():
    cfg = parse_config(
        {
            "model": {"dimension": 1, "num_links": 3},
            "ansatz": {"family": "chain", "layers": 1},
            "evolution": {"mode": "vrte"},
            "estimator": {"mode": "randomized"},
        }
    )
    return cfg, RunContext.from_config(cfg)


class TestRandomizedEom:
    """The whole randomized route: one snapshot set per EOM on the L=3 N=1 real-time chain (P=14)."""

    def test_no_qr_and_no_state_simulation(self, monkeypatch):
        cfg, ctx = real_chain_context()

        def refuse(*args, **kwargs):
            raise AssertionError("called")

        monkeypatch.setattr(np.linalg, "qr", refuse)
        monkeypatch.setattr(Circuit, "state", refuse)
        theta = np.random.default_rng(47).uniform(-np.pi, np.pi, ctx.circuit.num_params)
        eom = make_estimator(cfg.estimator, ctx)(theta, "real")
        exact = exact_eom(ctx.circuit, theta, ctx.spectrum, ctx.psi0, "real")
        assert np.max(np.abs(eom.psi.amplitudes - exact.psi.amplitudes)) < 1e-14
        assert np.all(np.isfinite(eom.m)) and np.all(np.isfinite(eom.v))

    def test_elements_share_one_snapshot_set(self):
        # the pair estimator with the EOM's seed reads the same snapshots, so
        # it reproduces the EOM's elements up to roundoff
        _, ctx = real_chain_context()
        theta = np.random.default_rng(48).uniform(-np.pi, np.pi, ctx.circuit.num_params)
        eom = measure.randomized_eom(ctx.circuit, theta, ctx.psi0, ctx.spectrum, 50, 9)
        m, v = eom.m, eom.v
        u, gens = dense_heisenberg(ctx.circuit, theta)
        h_tilde = u.conj().T @ (ctx.spectrum @ u)
        amps = ctx.psi0.amplitudes

        def pair(a, b):
            return randomized_connected_anticommutator(a, b, amps, 50, np.random.default_rng(9))

        assert pair(gens[2], gens[5]) == pytest.approx(2 * m[2, 5], rel=1e-10, abs=1e-12)
        assert pair(gens[3], h_tilde) == pytest.approx(v[3], rel=1e-10, abs=1e-12)

    def test_no_dense_operator_allocated(self):
        # on the N=1 plaquette (P = 36, D = 81) one P x D x D stack of
        # operators would take 3.6 MB; the snapshot values come off the sweep
        cfg = parse_config(
            {
                "model": {"dimension": 2, "num_links": 4},
                "ansatz": {"family": "plaquette", "layers": 1},
                "evolution": {"mode": "vrte"},
                "estimator": {"mode": "randomized"},
            }
        )
        ctx = RunContext.from_config(cfg)
        circ, npar, dim = ctx.circuit, ctx.circuit.num_params, ctx.psi0.dim
        theta = np.random.default_rng(49).uniform(-np.pi, np.pi, npar)
        measure.randomized_eom(circ, theta, ctx.psi0, ctx.spectrum, 16, 1)  # builds the cached plans
        tracemalloc.start()
        try:
            measure.randomized_eom(circ, theta, ctx.psi0, ctx.spectrum, 16, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < npar * dim * dim * 16

    def test_slope_on_exact_is_one_with_power(self):
        # Per trial, the least-squares slope of the estimate (M's upper
        # triangle and v) on the exact values.  The elements of one trial are
        # correlated, but the trials are independent, so the standard error
        # of the mean slope holds.  No per-element check: the largest of 119
        # correlated, heavy-tailed per-element |z| values reads 3.2 over these
        # trials, so a 3-SE bound on every element would fail unbiased code.
        _, ctx = real_chain_context()
        theta = np.random.default_rng(46).uniform(-np.pi, np.pi, ctx.circuit.num_params)
        exact = exact_eom(ctx.circuit, theta, ctx.spectrum, ctx.psi0, "real")
        upper = np.triu_indices(ctx.circuit.num_params)
        want = np.concatenate([exact.m[upper], exact.v])
        slopes = []
        for s in range(80):
            eom = measure.randomized_eom(ctx.circuit, theta, ctx.psi0, ctx.spectrum, 2000, s)
            slopes.append(np.concatenate([eom.m[upper], eom.v]) @ want / (want @ want))
        slopes = np.array(slopes)

        def within_three_se(values):
            return abs(values.mean() - 1.0) < 3 * values.std(ddof=1) / np.sqrt(len(values))

        assert within_three_se(slopes)
        assert not within_three_se(1.2 * slopes)
        assert not within_three_se(0.8 * slopes)


class TestRouteContract:
    """Every estimator route returns its own EomQuantities, with the energy it reads itself."""

    def test_measure_does_not_import_varsim(self):
        # varsim imports measure, so the reverse import would close a cycle
        package = Path(measure.__file__).parent
        seen, todo = set(), ["measure"]
        while todo:
            name = todo.pop()
            seen.add(name)
            for node in ast.walk(ast.parse((package / f"{name}.py").read_text(encoding="utf-8"))):
                if isinstance(node, ast.ImportFrom) and node.level == 1:
                    found = [node.module] if node.module else [alias.name for alias in node.names]
                    todo += [m for m in found if m not in seen and (package / f"{m}.py").exists()]
        assert "varsim" not in seen, sorted(seen)

    @pytest.mark.parametrize("name", ["chain-L3-N1", "plaquette-N1"])
    @pytest.mark.parametrize(
        "mode,kind,shots",
        [
            ("shift", "imag", None),
            ("shift", "imag", 100),
            ("hadamard", "imag", None),
            ("hadamard", "real", 100),
            ("randomized", "real", None),
        ],
    )
    def test_energy_is_the_states_energy(self, name, mode, kind, shots):
        model_cfg, ansatz_cfg = HADAMARD_MODELS[name]
        cfg = parse_config(
            {
                "model": model_cfg,
                "ansatz": ansatz_cfg,
                "evolution": {"mode": "vite" if kind == "imag" else "vrte"},
                "estimator": {"mode": mode, "shots": shots, "samples": 2, "seed": 3},
            }
        )
        ctx = RunContext.from_config(cfg)
        theta = np.random.default_rng(50).uniform(-np.pi, np.pi, ctx.circuit.num_params)
        eom = make_estimator(cfg.estimator, ctx)(theta, kind)
        assert isinstance(eom, measure.EomQuantities)
        amp = ctx.circuit.state(theta, ctx.psi0).amplitudes
        assert np.max(np.abs(eom.psi.amplitudes - amp)) < 1e-12
        assert eom.energy == pytest.approx(np.vdot(amp, ctx.spectrum @ amp).real, abs=1e-12)

    def test_hadamard_route_without_pieces_reads_zero_energy(self, small_chain):
        circ, _, psi0 = small_chain
        theta = np.random.default_rng(51).uniform(-np.pi, np.pi, circ.num_params)
        assert measure.hadamard_eom(measure.hadamard_plan(circ), theta, psi0, "imag").energy == 0.0
