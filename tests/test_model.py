"""Gauge-model builders, charges, and unitary decompositions."""
import numpy as np
import pytest

from quditgauge.core import LocalOperator, basis_state, lift_diagonal, lift_operator
from quditgauge.fixtures import fixture_value
from quditgauge.model import (
    CapError,
    chain_hamiltonian,
    chain_lattice,
    electric_op,
    electric_values,
    fermion_number_ops,
    gauss_charge,
    gauss_diagonal,
    gauss_projector,
    hamiltonian_unitary_pieces,
    hopping_sign,
    hopping_term,
    hopping_unitary_terms,
    link_raise_op,
    materialize,
    plaquette_hamiltonian,
    plaquette_lattice,
    plaquette_loop_op,
    unitary_split,
)
from quditgauge.oracle import ground_state

from helpers import dense_plaquette_hop_term, dense_plaquette_loop, kron_lift, random_hermitian


def physical_mask(lattice, num_qudits):
    """Basis states whose every site charge is 0 or 1."""
    sites = range(lattice.num_sites) if lattice.dimension == 1 else range(4)
    charges = np.array(
        [lift_diagonal(gauss_charge(s, lattice), num_qudits).real for s in sites]
    )
    return np.all((np.abs(charges) < 1e-9) | (np.abs(charges - 1) < 1e-9), axis=0), charges


class TestElectricAndLink:
    def test_as_printed_diag(self):
        assert np.allclose(np.diag(electric_op(3, "as_printed").matrix), [-3, -2, -1])

    def test_symmetric_diag(self):
        assert np.allclose(np.diag(electric_op(3, "symmetric").matrix), [-1, 0, 1])
        assert np.allclose(np.diag(electric_op(2, "symmetric").matrix), [-0.5, 0.5])

    def test_paper_amplitudes(self):
        u = link_raise_op(3, "paper_u").matrix
        assert u[1, 0] == pytest.approx(np.sqrt(6))
        assert u[2, 1] == pytest.approx(np.sqrt(10))

    def test_unit_raise_matches_pauli_sum(self):
        u = link_raise_op(3, "unit").matrix
        from quditgauge.core import embedded_pauli

        want = embedded_pauli(3, 0, 1, "X").matrix + embedded_pauli(3, 1, 2, "X").matrix
        assert np.array_equal(u + u.conj().T, want)

    def test_annihilates_top_level(self):
        for amp in ("unit", "paper_u"):
            u = link_raise_op(3, amp).matrix
            top = np.zeros(3)
            top[2] = 1
            assert np.allclose(u @ top, 0)


class TestGaussCharge:
    def test_even_site_zero_field(self):
        lat = chain_lattice(5)
        op = gauss_charge(2, lat)
        assert op.targets == (1, 2)
        diag = np.diag(op.matrix)
        assert diag[1 * 3 + 1].real == pytest.approx(0.0)  # both links at level 1

    def test_odd_site_zero_field(self):
        lat = chain_lattice(5)
        diag = np.diag(gauss_charge(3, lat).matrix)
        assert diag[4].real == pytest.approx(1.0)  # both links at level 1

    def test_plaquette_enumeration_oracle(self):
        # direct first-principles enumeration of g = div E + s on all 81 states
        lat = plaquette_lattice()
        evals = electric_values(3, "symmetric")
        idx = np.arange(81)
        e = [evals[(idx // 3**l) % 3] for l in range(4)]
        want = {
            0: e[0] + e[3],
            1: e[1] - e[0] + 1,
            2: e[2] - e[3] + 1,
            3: -e[2] - e[1],
        }
        for site in range(4):
            got = lift_diagonal(gauss_charge(site, lat), 4).real
            assert np.allclose(got, want[site]), site

    def test_boundary_value_enters(self):
        lat = chain_lattice(3, boundary=1.0)
        _, diag = gauss_diagonal(0, lat)
        # site 0: E_0 - boundary + 0
        assert np.allclose(diag, electric_values(3, "symmetric") - 1.0)

    def test_invalid_site(self):
        with pytest.raises(ValueError):
            gauss_charge(9, chain_lattice(3))


class TestGaussProjector:
    def test_spectral_resolution(self):
        lat = chain_lattice(5)
        p0 = gauss_projector(2, 0, lat).matrix
        p1 = gauss_projector(2, 1, lat).matrix
        diag = np.diag(gauss_charge(2, lat).matrix)
        rest = np.diag(
            (~(np.isclose(diag, 0) | np.isclose(diag, 1))).astype(complex)
        )
        assert np.allclose(p0 + p1 + rest, np.eye(9))
        for p in (p0, p1):
            assert np.allclose(p @ p, p)
            assert np.allclose(p, p.conj().T)

    def test_p1_kills_even_vacuum(self):
        lat = chain_lattice(5)
        p1 = gauss_projector(2, 1, lat)
        vac = basis_state(2, 3, [1, 1]).amplitudes  # local pair state
        assert np.allclose(p1.matrix @ vac, 0)

    def test_rank_counts_from_enumeration(self):
        lat = chain_lattice(5)
        # even interior site: g = l_x - l_{x-1}; eigenvalue 1 on (0,1) and (1,2)
        assert np.trace(gauss_projector(2, 1, lat).matrix).real == pytest.approx(2)
        # odd interior site: g = l_x - l_{x-1} + 1; eigenvalue 1 on equal levels
        assert np.trace(gauss_projector(3, 1, lat).matrix).real == pytest.approx(3)

    def test_invalid_value(self):
        with pytest.raises(ValueError):
            gauss_projector(1, 2, chain_lattice(3))


class TestChainHamiltonian:
    def test_term_counts_l3(self):
        ham = chain_hamiltonian(3, 1.0, 0.1)
        assert sum(1 for _, op in ham.terms if len(op.targets) == 3) == 1
        assert sum(1 for _, op in ham.terms if len(op.targets) == 1) == 6

    def test_hermitian(self):
        for L in (3, 4, 5):
            h = materialize(chain_hamiltonian(L, 1.3, 0.2))
            assert np.max(np.abs(h - h.conj().T)) < 1e-12

    def test_matches_printed_equation_oracle(self):
        # oracle: P_1 (-1)^{E_{x+1}} U_x P_1 + h.c. built from raw diagonals
        L = 4
        lat = chain_lattice(L)
        evals = electric_values(3, "symmetric")
        idx = np.arange(3**L)

        def ediag(link):
            return evals[(idx // 3**link) % 3]

        def site_charge(site):
            s = site % 2
            if site == 0:
                return ediag(0) + s
            if site == L:
                return -ediag(L - 1) + s
            return ediag(site) - ediag(site - 1) + s

        hop_ref = np.zeros((3**L, 3**L), dtype=complex)
        for x in range(1, L - 1):
            pa = np.diag(np.isclose(site_charge(x), 1).astype(complex))
            pb = np.diag(np.isclose(site_charge(x + 1), 1).astype(complex))
            sign = np.diag(np.cos(np.pi * ediag(x + 1)).astype(complex))
            u = kron_lift(link_raise_op(3).matrix, (x,), L, 3)
            t = pa @ sign @ u @ pb
            hop_ref += 0.5 * (t + t.conj().T)
        got = np.zeros_like(hop_ref)
        for c, op in chain_hamiltonian(L, 1.0, 0.1).terms:
            if len(op.targets) == 3:
                got += c * kron_lift(op.matrix, op.targets, L, 3)
        assert np.max(np.abs(got - hop_ref)) < 1e-12

    def test_gauge_sector_structure(self):
        # hopping moves charge between adjacent sites, so the conserved data
        # are the frozen unphysical charges and the total interior charge
        L = 4
        lat = chain_lattice(L)
        h = materialize(chain_hamiltonian(L, 1.0, 0.1))
        phys, charges = physical_mask(lat, L)
        assert np.max(np.abs(h[np.ix_(phys, ~phys)])) < 1e-12
        total = charges[1:L].sum(axis=0)
        assert np.max(np.abs(h * (total[None, :] - total[:, None]))) < 1e-12

    def test_ground_energy_fixture(self):
        h = materialize(chain_hamiltonian(5, 1.0, 0.1))
        energy, _, _ = ground_state(h)
        assert energy == pytest.approx(fixture_value("chain_L5_ground_energy"), abs=1e-9)

    def test_requires_three_links(self):
        with pytest.raises(ValueError):
            chain_hamiltonian(2, 1.0, 0.1)


class TestHoppingSign:
    def test_zero_fields(self):
        assert hopping_sign(1, [0, 0]) == 1
        assert hopping_sign(2, [0, 0, 0, 0]) == 1

    def test_single_unit_field(self):
        assert hopping_sign(1, [1, 0]) == -1

    def test_even_parity(self):
        assert hopping_sign(2, [1, 1, 0, 0]) == 1

    def test_arity_checks(self):
        with pytest.raises(ValueError):
            hopping_sign(1, [1, 0, 0])
        with pytest.raises(ValueError):
            hopping_sign(3, [0, 0])


class TestPlaquetteLoop:
    def test_adjoint_is_reversed_orientation(self):
        lat = plaquette_lattice()
        loop = plaquette_loop_op(lat).matrix
        # oracle: build the reversed-orientation product with the conjugate phase
        evals = electric_values(3, "symmetric")
        idx = np.arange(81)
        raise_mat = link_raise_op(3).matrix
        prod = np.eye(81, dtype=complex)
        for link, dag in ((3, False), (2, False), (1, True), (0, True)):
            mat = raise_mat.conj().T if dag else raise_mat
            prod = prod @ kron_lift(mat, (link,), 4, 3)
        expo = evals[(idx // 1) % 3] + evals[(idx // 3) % 3]
        want = prod @ np.diag(np.exp(-1j * np.pi * expo))
        assert np.max(np.abs(loop.conj().T - want)) < 1e-12

    def test_action_on_vacuum(self):
        # all-|1>: lower top and left to |0>, raise bottom and right to |2>
        lat = plaquette_lattice()
        loop = plaquette_loop_op(lat).matrix
        vac = basis_state(4, 3, [1, 1, 1, 1]).amplitudes
        out = loop @ vac
        target = basis_state(4, 3, [2, 2, 0, 0]).amplitudes
        assert np.allclose(out, target)

    def test_loop_sum_hermitian(self):
        loop = plaquette_loop_op(plaquette_lattice()).matrix
        s = loop + loop.conj().T
        assert np.max(np.abs(s - s.conj().T)) < 1e-14


PLAQUETTE_VARIANTS = [
    (offset, amplitude, boundary)
    for offset in ("symmetric", "as_printed")
    for amplitude in ("unit", "paper_u")
    for boundary in (0.0, 0.5)
]


class TestPlaquetteDenseReference:
    """The loop and hopping terms scale the rows and columns of one lift.

    Each entry of the dense products they replace has one nonzero term, so
    every entry of the two builds must be equal; only the sign of a zero
    entry may differ.
    """

    @pytest.mark.parametrize("offset,amplitude,boundary", PLAQUETTE_VARIANTS)
    def test_four_body_terms_equal_the_dense_products(self, offset, amplitude, boundary):
        lat = plaquette_lattice(3, boundary)
        loop = dense_plaquette_loop(lat, offset, amplitude)
        assert np.array_equal(plaquette_loop_op(lat, offset, amplitude).matrix, loop)
        ham = plaquette_hamiltonian(1.0, 0.1, offset, amplitude, 1.0, boundary)
        got = [op.matrix for _, op in ham.terms if len(op.targets) == 4]
        want = [loop + loop.conj().T] + [dense_plaquette_hop_term(link, lat, offset, amplitude) for link in range(4)]
        assert len(got) == len(want)
        for term, (a, b) in enumerate(zip(got, want)):
            assert np.array_equal(a, b), term


class TestPlaquetteHamiltonian:
    def test_hermitian(self):
        h = materialize(plaquette_hamiltonian(1.0, 0.1))
        assert h.shape == (81, 81)
        assert np.max(np.abs(h - h.conj().T)) < 1e-12

    def test_ground_energy_fixture(self):
        h = materialize(plaquette_hamiltonian(1.0, 0.1))
        energy, _, _ = ground_state(h)
        assert energy == pytest.approx(fixture_value("plaquette_ground_energy"), abs=1e-9)

    def test_gauge_sector_structure(self):
        lat = plaquette_lattice()
        h = materialize(plaquette_hamiltonian(1.0, 0.1))
        phys, charges = physical_mask(lat, 4)
        assert np.max(np.abs(h[np.ix_(phys, ~phys)])) < 1e-12
        total = charges.sum(axis=0)
        assert np.max(np.abs(h * (total[None, :] - total[:, None]))) < 1e-12

    def test_heavy_mass_vacuum_in_physical_sector(self):
        # At large mass the physical-sector ground state is dominated by the
        # all-|1> vacuum; the magnetic term keeps mixing in loop states at a
        # mass-independent rate, which caps the overlap below one.
        lat = plaquette_lattice()
        h = materialize(plaquette_hamiltonian(1.0, 1e3))
        phys, _ = physical_mask(lat, 4)
        idx = np.where(phys)[0]
        _, vec, _ = ground_state(h[np.ix_(idx, idx)])
        amps = np.zeros(81, dtype=complex)
        amps[idx] = vec
        vac = basis_state(4, 3, [1, 1, 1, 1]).amplitudes
        fid = abs(np.vdot(vac, amps)) ** 2
        assert fid > 0.85
        assert fid == pytest.approx(0.9082650760, abs=1e-6)

    def test_heavy_mass_vacuum_1d(self):
        # same statement for the chain, where no magnetic term exists and the
        # overlap does approach one
        L = 5
        lat = chain_lattice(L)
        h = materialize(chain_hamiltonian(L, 1.0, 1e3))
        phys, _ = physical_mask(lat, L)
        idx = np.where(phys)[0]
        _, vec, _ = ground_state(h[np.ix_(idx, idx)])
        amps = np.zeros(3**L, dtype=complex)
        amps[idx] = vec
        vac = basis_state(L, 3, [1] * L).amplitudes
        assert abs(np.vdot(vac, amps)) ** 2 > 0.99


class TestFermionNumbers:
    def test_vacuum_pattern(self):
        L = 5
        lat = chain_lattice(L)
        ops = fermion_number_ops(lat)
        vac = basis_state(L, 3, [1] * L).amplitudes
        probs = np.abs(vac) ** 2
        values = [float(lift_diagonal(op, L).real @ probs) for op in ops]
        assert values == [s % 2 for s in range(L + 1)]

    def test_expectation_matches_weighted_sum(self):
        rng = np.random.default_rng(6)
        L = 4
        lat = chain_lattice(L)
        psi = rng.standard_normal(3**L) + 1j * rng.standard_normal(3**L)
        psi /= np.linalg.norm(psi)
        op = fermion_number_ops(lat)[2]
        dense = kron_lift(op.matrix, op.targets, L, 3)
        want = np.vdot(psi, dense @ psi).real
        got = float(lift_diagonal(op, L).real @ (np.abs(psi) ** 2))
        assert got == pytest.approx(want, abs=1e-12)


class TestUnitarySplit:
    def test_identity(self):
        split = unitary_split(LocalOperator(3, (0,), np.eye(3, dtype=complex), hermitian=True))
        assert split.norm == pytest.approx(1.0)
        assert np.allclose(split.unitary.matrix, np.eye(3))

    def test_pauli_x_block(self):
        from quditgauge.core import embedded_pauli

        op = embedded_pauli(2, 0, 1, "X")
        split = unitary_split(op)
        assert split.norm == pytest.approx(1.0)
        recon = split.norm / 2.0 * (split.unitary.matrix + split.unitary.matrix.conj().T)
        assert np.allclose(recon, op.matrix, atol=1e-12)

    def test_projector_by_hand(self):
        op = LocalOperator(2, (0,), np.diag([1.0, 0.0]).astype(complex), hermitian=True)
        split = unitary_split(op)
        assert np.allclose(split.unitary.matrix, np.diag([1.0, 1.0j]), atol=1e-12)
        recon = 0.5 * (split.unitary.matrix + split.unitary.matrix.conj().T)
        assert np.allclose(recon, op.matrix, atol=1e-12)

    def test_roundtrip_random(self):
        rng = np.random.default_rng(13)
        eye_err = lambda u: np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0])))
        for _ in range(100):
            dim = int(rng.choice([2, 3, 9, 27, 81]))
            s = random_hermitian(dim, rng)
            split = unitary_split(LocalOperator(dim, (0,), s))
            u = split.unitary.matrix
            assert eye_err(u) < 1e-10
            recon = split.norm / 2.0 * (u + u.conj().T)
            assert np.max(np.abs(recon - s)) < 1e-10

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            unitary_split(LocalOperator(3, (0,), np.zeros((3, 3), dtype=complex)))


class TestHoppingUnitaryTerms:
    @pytest.mark.parametrize("x", [1, 2, 3])
    def test_unitarity_and_reconstruction(self, x):
        lat = chain_lattice(5)
        terms = hopping_unitary_terms(x, lat)
        assert len(terms) == 8
        recon = np.zeros((27, 27), dtype=complex)
        for coef, op in terms:
            assert op.is_unitary(1e-12)
            recon += coef * op.matrix
        want = hopping_term(x, lat).matrix
        assert np.max(np.abs(recon - want)) < 1e-12

    def test_even_site_flip_completion(self):
        # the (1,2) flip completed by i|0><0| is the printed unitary piece
        lat = chain_lattice(5)
        terms = hopping_unitary_terms(2, lat)
        from quditgauge.core import embedded_pauli

        v = embedded_pauli(3, 1, 2, "X").matrix + 1j * np.diag([1.0, 0, 0])
        assert np.allclose(v @ v.conj().T, np.eye(3), atol=1e-12)
        assert np.allclose(v + v.conj().T, 2 * embedded_pauli(3, 1, 2, "X").matrix)
        # and it appears (lifted) among the returned unitaries
        lifted = kron_lift(v, (1,), 3, 3)
        w = np.full(9, 1j, dtype=complex)
        w[4] = 1.0
        wlift = kron_lift(np.diag(w), (0, 2), 3, 3)
        prod = lifted @ wlift
        found = any(np.allclose(op.matrix, prod, atol=1e-12) for _, op in terms)
        assert found

    def test_edge_rejected(self):
        with pytest.raises(ValueError):
            hopping_unitary_terms(0, chain_lattice(5))


class TestHamiltonianPieces:
    @pytest.mark.parametrize("builder", ["chain", "plaquette"])
    def test_pieces_rebuild_hamiltonian(self, builder):
        if builder == "chain":
            ham = chain_hamiltonian(3, 1.0, 0.1)
            dim, n = 27, 3
        else:
            ham = plaquette_hamiltonian(1.0, 0.1)
            dim, n = 81, 4
        pieces = hamiltonian_unitary_pieces(ham)
        recon = np.zeros((dim, dim), dtype=complex)
        for coef, op in pieces:
            assert op.is_unitary(1e-10)
            recon += coef * lift_operator(op, n)
        assert np.max(np.abs(recon - materialize(ham))) < 1e-10


class TestMaterialize:
    def test_trace_fixture(self):
        h = materialize(chain_hamiltonian(5, 1.0, 0.1))
        # analytic oracle: only the electric term is traceful; per link the
        # level sum of E^2 is 2, each with 3^(L-1) companions
        want = 5 * 0.5 * 2 * 3**4
        assert np.trace(h).real == pytest.approx(want, abs=1e-9)
        assert np.trace(h).real == pytest.approx(fixture_value("chain_L5_trace"), abs=1e-9)

    def test_single_diagonal_term(self):
        ham = chain_hamiltonian(3, 1.0, 0.0)
        diag_terms = [(c, op) for c, op in ham.terms if len(op.targets) == 1]
        c, op = diag_terms[0]
        dense = c * lift_operator(op, 3)
        assert np.max(np.abs(dense - np.diag(np.diag(dense)))) == 0

    def test_dimension_cap(self):
        with pytest.raises(CapError):
            materialize(chain_hamiltonian(9, 1.0, 0.1))
