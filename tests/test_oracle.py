"""Reference spectra, exact evolution, finite differences."""
import dataclasses

import numpy as np
import pytest

from quditgauge.core import embedded_pauli
from quditgauge.model import CapError, chain_hamiltonian, gauss_charge, materialize, plaquette_hamiltonian
from quditgauge.oracle import Spectrum, eigendecompose, evolve_real, ground_state, sector_spectrum

from helpers import evolve_imag, finite_difference, fixture_value, random_hermitian, random_state


def eigenvector_matrix(spec):
    """Every eigenvector of a spectrum as a column, in merged order."""
    return np.stack([spec.eigenvector(k) for k in range(spec.dim)], axis=1)


class TestEigendecompose:
    def test_diagonal(self):
        spec = eigendecompose(np.diag([3.0, -1.0, 2.0]).astype(complex))
        assert np.allclose(spec.eigenvalues, [-1, 2, 3])

    def test_pauli_x(self):
        spec = eigendecompose(np.array([[0, 1], [1, 0]], dtype=complex))
        assert np.allclose(spec.eigenvalues, [-1, 1])

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(1)
        h = random_hermitian(50, rng)
        spec = eigendecompose(h)
        vecs = eigenvector_matrix(spec)
        recon = (vecs * spec.eigenvalues) @ vecs.conj().T
        assert np.max(np.abs(recon - h)) < 1e-9 * np.max(np.abs(h))
        gram = vecs.conj().T @ vecs
        assert np.max(np.abs(gram - np.eye(50))) < 1e-10

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            eigendecompose(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_degenerate_multiplicity(self):
        h = np.diag([1.0, 1.0, 2.0]).astype(complex)
        energy, _, mult = ground_state(h)
        assert energy == 1.0 and mult == 2

    def test_model_ground_energies(self):
        h = materialize(chain_hamiltonian(7, 1.0, 0.1))
        energy, _, _ = ground_state(h)
        assert energy == pytest.approx(fixture_value("chain_L7_ground_energy"), abs=1e-9)


SECTOR_MODELS = [
    ("chain L3", lambda: chain_hamiltonian(3, 1.0, 0.1)),
    ("chain L5", lambda: chain_hamiltonian(5, 1.0, 0.1)),
    ("chain L7", lambda: chain_hamiltonian(7, 1.0, 0.1)),
    ("plaquette", lambda: plaquette_hamiltonian(1.0, 0.1)),
    ("chain as_printed", lambda: chain_hamiltonian(5, 1.0, 0.1, electric_offset="as_printed")),
    ("chain paper_u", lambda: chain_hamiltonian(5, 1.0, 0.1, link_amplitude="paper_u")),
    ("chain boundary", lambda: chain_hamiltonian(5, 1.0, 0.1, boundary=0.5)),
    ("chain hopping_scale", lambda: chain_hamiltonian(5, 1.0, 0.1, hopping_scale=1.7)),
    ("chain large mass", lambda: chain_hamiltonian(5, 1.0, 10.0)),
    ("plaquette as_printed", lambda: plaquette_hamiltonian(1.0, 0.1, electric_offset="as_printed")),
    ("plaquette paper_u", lambda: plaquette_hamiltonian(1.3, 0.1, link_amplitude="paper_u")),
    ("plaquette boundary", lambda: plaquette_hamiltonian(1.0, 0.1, boundary=0.5)),
    ("plaquette hopping_scale", lambda: plaquette_hamiltonian(1.0, 0.1, hopping_scale=0.6)),
    ("plaquette large mass", lambda: plaquette_hamiltonian(1.0, 10.0)),
]


class TestSectorSpectrum:
    """The sector build against the materialized matrix and its dense eigh."""

    @pytest.mark.parametrize("name,make", SECTOR_MODELS, ids=[m[0] for m in SECTOR_MODELS])
    def test_matches_dense(self, name, make):
        ham = make()
        h = materialize(ham)
        dense = eigendecompose(h)
        spec = sector_spectrum(ham)
        dim = h.shape[0]
        assert spec.shape == h.shape
        assert np.max(np.abs(spec.eigenvalues - dense.eigenvalues)) < 1e-10
        assert spec.ground_multiplicity() == dense.ground_multiplicity()
        rng = np.random.default_rng(21)
        psi = random_state(dim, rng)
        u = rng.standard_normal((dim, 5)) + 1j * rng.standard_normal((dim, 5))
        assert np.max(np.abs(spec @ psi - h @ psi)) < 1e-12
        assert np.max(np.abs(spec @ u - h @ u)) < 1e-12
        for t in (0.3, 2.0):
            assert np.max(np.abs(evolve_real(spec, psi, t) - evolve_real(dense, psi, t))) < 1e-10
        assert spec.ground_projector_overlap(psi) == pytest.approx(dense.ground_projector_overlap(psi), abs=1e-12)
        # every eigenvector is one: H v = w v
        for k in (0, dim // 2, dim - 1):
            v = spec.eigenvector(k)
            assert np.max(np.abs(h @ v - spec.eigenvalues[k] * v)) < 1e-10
        assert spec.weights(psi).sum() == pytest.approx(1.0, abs=1e-12)

    def test_other_term_shapes_match_dense(self):
        # a two-qudit diagonal term and a one-qudit off-diagonal one (which merges sectors)
        ham = chain_hamiltonian(3, 1.0, 0.1)
        extra = ((0.7, gauss_charge(1, ham.lattice)), (0.3, embedded_pauli(3, 0, 2, "X").on(1)))
        ham = dataclasses.replace(ham, terms=ham.terms + extra)
        h = materialize(ham)
        spec = sector_spectrum(ham)
        psi = random_state(27, np.random.default_rng(22))
        assert np.max(np.abs(spec.eigenvalues - eigendecompose(h).eigenvalues)) < 1e-10
        assert np.max(np.abs(spec @ psi - h @ psi)) < 1e-12

    def test_components_are_small(self):
        # Gauss's law: 1,465 components of at most 19 states at L=7, 52 of at most 13 on the plaquette
        for ham, count, largest in ((chain_hamiltonian(7, 1.0, 0.1), 1465, 19), (plaquette_hamiltonian(1.0, 0.1), 52, 13)):
            spec = sector_spectrum(ham)
            assert sum(c.indices.shape[0] for c in spec.classes) == count
            assert max(c.indices.shape[1] for c in spec.classes) == largest

    def test_non_hermitian_term_rejected(self):
        ham = chain_hamiltonian(3, 1.0, 0.1)
        coef, op = ham.terms[-1]
        skewed = dataclasses.replace(op, matrix=np.triu(op.matrix), hermitian=False)
        with pytest.raises(ValueError):
            sector_spectrum(dataclasses.replace(ham, terms=ham.terms[:-1] + ((coef, skewed),)))


class TestEvolution:
    @pytest.fixture()
    def spec(self):
        rng = np.random.default_rng(2)
        return eigendecompose(random_hermitian(30, rng))

    def test_zero_time(self, spec):
        rng = np.random.default_rng(3)
        psi = random_state(30, rng)
        assert np.allclose(evolve_real(spec, psi, 0.0), psi)
        assert np.allclose(evolve_imag(spec, psi, 0.0), psi)

    def test_eigenstate_phase_only(self, spec):
        psi = spec.eigenvector(4)
        out = evolve_real(spec, psi, 2.3)
        assert abs(np.vdot(psi, out)) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_norm_and_energy_conserved(self, spec):
        rng = np.random.default_rng(4)
        psi = random_state(30, rng)
        vecs = eigenvector_matrix(spec)
        h = (vecs * spec.eigenvalues) @ vecs.conj().T
        e0 = np.vdot(psi, h @ psi).real
        for t in (0.5, 5.0, 50.0):
            out = evolve_real(spec, psi, t)
            assert abs(np.linalg.norm(out) - 1.0) < 1e-10
            assert abs(np.vdot(out, h @ out).real - e0) < 1e-9

    def test_long_imaginary_time_projects_to_ground(self, spec):
        rng = np.random.default_rng(5)
        psi = random_state(30, rng)
        out = evolve_imag(spec, psi, 50.0)
        assert abs(np.vdot(spec.ground_vector, out)) ** 2 > 1.0 - 1e-8

    def test_energy_decreases_along_imaginary_time(self, spec):
        rng = np.random.default_rng(6)
        psi = random_state(30, rng)
        vecs = eigenvector_matrix(spec)
        h = (vecs * spec.eigenvalues) @ vecs.conj().T
        energies = []
        for tau in (0.0, 0.3, 1.0, 3.0, 10.0):
            out = evolve_imag(spec, psi, tau)
            energies.append(np.vdot(out, h @ out).real)
        assert all(b < a + 1e-12 for a, b in zip(energies, energies[1:]))


class TestFiniteDifference:
    def test_linear_exact(self):
        f = lambda t: 3.0 * t[0] - 2.0 * t[1]
        assert finite_difference(f, np.array([0.3, 0.7]), 0, 1, 1e-4) == pytest.approx(3.0, abs=1e-9)

    def test_quadratic_second_derivative(self):
        f = lambda t: 2.5 * t[0] ** 2
        assert finite_difference(f, np.array([0.4]), 0, 2, 1e-4) == pytest.approx(5.0, abs=1e-6)

    def test_cross_module_energy_gradient(self):
        from quditgauge.ansatz import chain_circuit
        from quditgauge.core import basis_state
        from quditgauge.varsim import exact_eom

        circ = chain_circuit(3, 1, "imag")
        psi0 = basis_state(3, 3, [1, 1, 1])
        ham = materialize(chain_hamiltonian(3, 1.0, 0.1))
        theta = np.random.default_rng(7).uniform(-1, 1, circ.num_params)

        def energy(th):
            amp = circ.state(th, psi0).amplitudes
            return float(np.vdot(amp, ham @ amp).real)

        grad = exact_eom(circ, theta, ham, psi0, "imag").v
        for mu in range(circ.num_params):
            assert grad[mu] == pytest.approx(finite_difference(energy, theta, mu, 1, 1e-5), abs=1e-7)

    def test_invalid_step(self):
        with pytest.raises(ValueError):
            finite_difference(lambda t: 0.0, np.zeros(1), 0, 1, 0.0)
