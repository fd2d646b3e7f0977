"""Register, gate, and observable primitives."""
import numpy as np
import pytest

from quditgauge.core import (
    LocalOperator,
    apply,
    basis_state,
    batch_kernel,
    check_hermitian,
    embedded_pauli,
    entanglement_entropy,
    inner,
    lift_diagonal,
    lift_operator,
    ms_generator,
    reduced_density_matrix,
)
from quditgauge.model import plaquette_lattice, plaquette_loop_op

from helpers import (
    crot_gate,
    digit,
    fidelity,
    kron_lift,
    ms_gate,
    norm,
    plaquette_gate,
    random_state,
    rotation_gate,
    rz_gate,
    sample_counts,
    series_expm,
)


class TestBasisState:
    def test_single_qutrit(self):
        s = basis_state(1, 3, [1])
        assert np.argmax(np.abs(s.amplitudes)) == 1
        assert norm(s) == pytest.approx(1.0)

    def test_two_qutrits_little_endian(self):
        s = basis_state(2, 3, [1, 1])
        assert np.argmax(np.abs(s.amplitudes)) == 4  # 1 + 3*1

    def test_seven_ones(self):
        s = basis_state(7, 3, [1] * 7)
        assert np.argmax(np.abs(s.amplitudes)) == (3**7 - 1) // 2  # 1093

    def test_errors(self):
        with pytest.raises(ValueError):
            basis_state(2, 3, [1])
        with pytest.raises(ValueError):
            basis_state(2, 3, [1, 3])


class TestEmbeddedPauli:
    def test_x_01(self):
        m = embedded_pauli(3, 0, 1, "X").matrix
        want = np.zeros((3, 3))
        want[0, 1] = want[1, 0] = 1
        assert np.array_equal(m, want)

    def test_y_12(self):
        m = embedded_pauli(3, 1, 2, "Y").matrix
        assert m[1, 2] == -1j and m[2, 1] == 1j
        assert np.count_nonzero(m) == 2

    def test_z_02(self):
        m = embedded_pauli(3, 0, 2, "Z").matrix
        assert np.array_equal(np.diag(m), [1, 0, -1])

    def test_invalid_levels(self):
        with pytest.raises(ValueError):
            embedded_pauli(3, 1, 1, "X")
        with pytest.raises(ValueError):
            embedded_pauli(3, 2, 1, "X")

    def test_squares_to_block_projector(self):
        for axis in "XYZ":
            for (i, j) in ((0, 1), (0, 2), (1, 2)):
                m = embedded_pauli(3, i, j, axis).matrix
                proj = np.zeros((3, 3))
                proj[i, i] = proj[j, j] = 1
                assert np.allclose(m @ m, proj)

    def test_traceless_x_y(self):
        for axis in "XY":
            assert abs(np.trace(embedded_pauli(4, 1, 3, axis).matrix)) == 0


class TestRotationGates:
    def test_zero_angle_identity(self):
        assert np.array_equal(rotation_gate(3, 0, 1, 0.0, 0.3).matrix, np.eye(3))
        assert np.array_equal(rz_gate(3, 0, 1, 0.0).matrix, np.eye(3))

    def test_pi_x_rotation(self):
        # closed form: cos(pi/2) I - i sin(pi/2) sigma_X on the block
        m = rotation_gate(3, 0, 1, np.pi, 0.0).matrix
        want = np.eye(3, dtype=complex)
        want[0, 0] = want[1, 1] = 0
        want[0, 1] = want[1, 0] = -1j
        assert np.allclose(m, want, atol=1e-15)
        assert m[2, 2] == 1

    def test_half_pi_y_rotation(self):
        m = rotation_gate(3, 1, 2, np.pi / 2, np.pi / 2).matrix
        c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)
        want = np.eye(3, dtype=complex)
        want[1, 1] = want[2, 2] = c
        want[1, 2] = -1j * s * (-1j)
        want[2, 1] = -1j * s * (1j)
        assert np.allclose(m, want, atol=1e-15)

    def test_rz_examples(self):
        assert np.allclose(np.diag(rz_gate(3, 0, 1, np.pi).matrix), [-1j, 1j, 1], atol=1e-15)
        assert np.allclose(np.diag(rz_gate(3, 0, 2, 2 * np.pi).matrix), [-1, 1, -1], atol=1e-15)

    def test_matches_series_exponential(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            theta, phi = rng.uniform(-np.pi, np.pi, 2)
            sig = np.cos(phi) * embedded_pauli(3, 0, 2, "X").matrix + np.sin(phi) * embedded_pauli(
                3, 0, 2, "Y"
            ).matrix
            want = series_expm(-0.5j * theta * sig)
            assert np.allclose(rotation_gate(3, 0, 2, theta, phi).matrix, want, atol=1e-13)


class TestMsGate:
    def test_zero_identity(self):
        assert np.array_equal(ms_gate(3, 0, 1, 0.0).matrix, np.eye(9))

    def test_unitary_random_angles(self):
        rng = np.random.default_rng(0)
        for theta in rng.uniform(-2 * np.pi, 2 * np.pi, 10):
            m = ms_gate(3, 0, 1, theta).matrix
            assert np.max(np.abs(m @ m.conj().T - np.eye(9))) < 1e-12

    def test_matrix_against_series_oracle(self):
        sx = embedded_pauli(3, 0, 1, "X").matrix
        s = np.kron(sx, np.eye(3)) + np.kron(np.eye(3), sx)
        want = series_expm(-1j * (np.pi / 2) / 4 * (s @ s))
        assert np.allclose(ms_gate(3, 0, 1, np.pi / 2).matrix, want, atol=1e-12)

    def test_generator_spectrum(self):
        w = np.linalg.eigvalsh(ms_generator(2, 0, 1).matrix)
        assert np.allclose(np.unique(np.round(w, 12)), [0, 1])
        w3 = np.linalg.eigvalsh(ms_generator(3, 0, 1).matrix)
        assert np.allclose(np.unique(np.round(w3, 12)), [0, 0.25, 1])


class TestCrotGate:
    def test_zero_identity(self):
        assert np.array_equal(crot_gate(0.0).matrix, np.eye(9))

    def test_pi_on_control_two(self):
        state = basis_state(2, 3, [2, 1])  # control qudit 0, target qudit 1
        out = apply(state, crot_gate(np.pi).on(0, 1))
        want = basis_state(2, 3, [2, 2]).amplitudes * (-1j)
        assert np.allclose(out.amplitudes, want, atol=1e-15)

    def test_identity_on_low_control(self):
        for ctrl in (0, 1):
            for lvl in range(3):
                state = basis_state(2, 3, [ctrl, lvl])
                out = apply(state, crot_gate(1.234).on(0, 1))
                assert np.allclose(out.amplitudes, state.amplitudes)

    def test_requires_qutrits(self):
        with pytest.raises(ValueError):
            crot_gate(1.0, d=4)


@pytest.fixture(scope="module")
def loop_sum():
    loop = plaquette_loop_op(plaquette_lattice())
    return LocalOperator(3, (0, 1, 2, 3), loop.matrix + loop.matrix.conj().T, hermitian=True)


class TestPlaquetteGate:

    def test_zero_identity(self, loop_sum):
        assert np.array_equal(plaquette_gate(0.0, loop_sum).matrix, np.eye(81))

    def test_matches_series_oracle(self, loop_sum):
        want = series_expm(-0.3j * loop_sum.matrix)
        assert np.allclose(plaquette_gate(0.3, loop_sum).matrix, want, atol=1e-12)

    def test_commutes_with_generator(self, loop_sum):
        u = plaquette_gate(0.7, loop_sum).matrix
        assert np.max(np.abs(u @ loop_sum.matrix - loop_sum.matrix @ u)) < 1e-10

    def test_rejects_non_hermitian(self):
        bad = plaquette_loop_op(plaquette_lattice())
        with pytest.raises(ValueError):
            plaquette_gate(0.1, bad)


class TestApply:
    def test_identity(self):
        s = basis_state(3, 3, [0, 1, 2])
        out = apply(s, LocalOperator(3, (1,), np.eye(3, dtype=complex)))
        assert np.array_equal(out.amplitudes, s.amplitudes)

    def test_x_permutation(self):
        s = basis_state(2, 3, [1, 1])
        out = apply(s, embedded_pauli(3, 0, 1, "X").on(0))
        assert np.argmax(np.abs(out.amplitudes)) == 3  # |0,1>

    def test_against_kron_oracle_random(self):
        rng = np.random.default_rng(7)
        d, n = 3, 3
        psi = random_state(d**n, rng)
        for targets in [(0,), (1,), (2,), (0, 1), (1, 2), (0, 2), (2, 0), (0, 1, 2), (2, 1, 0)]:
            k = len(targets)
            mat = rng.standard_normal((d**k, d**k)) + 1j * rng.standard_normal((d**k, d**k))
            op = LocalOperator(d, targets, mat)
            got = apply(
                basis_state(n, d, [0] * n).__class__(n, d, psi.copy()), op
            ).amplitudes
            want = kron_lift(mat, targets, n, d) @ psi
            assert np.allclose(got, want, atol=1e-12), targets

    def test_norm_preserved_by_unitaries(self):
        rng = np.random.default_rng(11)
        s = basis_state(2, 3, [0, 0]).__class__(2, 3, random_state(9, rng))
        for _ in range(100):
            theta, phi = rng.uniform(-np.pi, np.pi, 2)
            kind = rng.integers(3)
            if kind == 0:
                op = rotation_gate(3, 0, 2, theta, phi).on(int(rng.integers(2)))
            elif kind == 1:
                op = ms_gate(3, 1, 2, theta).on(0, 1)
            else:
                op = crot_gate(theta).on(1, 0)
            s = apply(s, op)
            assert abs(norm(s) - 1.0) < 1e-12

    def test_target_out_of_range(self):
        s = basis_state(2, 3, [0, 0])
        with pytest.raises(ValueError):
            apply(s, embedded_pauli(3, 0, 1, "X").on(5))


# On five qutrits the qudits below a single or an adjacent pair number 0..4,
# so the trailing axis runs 1, 3, 9, 27, 81 and the lifted block
# d^k * 3^t falls on both sides of the one-GEMM bound.  The other target
# sets (descending, non-adjacent, three qudits, the whole register) take
# the gather path.
FIVE_QUDIT_TARGETS = (
    [(t,) for t in range(5)]
    + [(t, t + 1) for t in range(4)]
    + [(3, 1), (0, 2), (1, 2, 3), (4, 2, 0, 1, 3)]
)


class TestBatchKernel:
    @pytest.mark.parametrize(
        "batch, stack", [(1, None), (7, None), (1, 3), (7, 3)], ids=["1", "7", "1-stack3", "7-stack3"]
    )
    @pytest.mark.parametrize("targets", FIVE_QUDIT_TARGETS, ids=str)
    def test_every_branch_against_kron_oracle(self, targets, batch, stack):
        d, n = 3, 5
        rng = np.random.default_rng(13)
        size = d ** len(targets)
        shape = (size, size) if stack is None else (stack, size, size)
        mat = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        rows = rng.standard_normal((batch, d**n)) + 1j * rng.standard_normal((batch, d**n))
        got = batch_kernel(n, d, targets)(rows, mat)
        # A stack returns every matrix's rows in turn, matrix-major.
        want = np.concatenate([rows @ kron_lift(m, targets, n, d).T for m in mat.reshape(-1, size, size)])
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) < 1e-12


class TestLift:
    def test_matches_kron_oracle(self):
        rng = np.random.default_rng(3)
        d, n = 3, 4
        for targets in [(2,), (0, 3), (3, 1), (1, 2, 3), (0, 1, 2, 3), (3, 2, 1, 0)]:
            k = len(targets)
            mat = rng.standard_normal((d**k, d**k)) + 1j * rng.standard_normal((d**k, d**k))
            got = lift_operator(LocalOperator(d, targets, mat), n)
            want = kron_lift(mat, targets, n, d)
            # A lift only places the matrix's entries, so it is exact.
            assert np.array_equal(got, want), targets

    def test_lift_diagonal(self):
        rng = np.random.default_rng(4)
        diag = rng.standard_normal(9)
        op = LocalOperator(3, (0, 2), np.diag(diag).astype(complex))
        got = lift_diagonal(op, 3)
        want = np.diag(kron_lift(np.diag(diag).astype(complex), (0, 2), 3, 3))
        assert np.allclose(got, want)


class TestCheckHermitian:
    def test_exactly_hermitian_passes_at_default_tolerances(self):
        check_hermitian(np.eye(3), "x")

    def test_any_asymmetry_fails_at_default_tolerances(self):
        a = np.eye(3, dtype=complex)
        a[0, 1] = 1e-300
        with pytest.raises(ValueError, match="x is not Hermitian"):
            check_hermitian(a, "x")

    def test_error_at_the_bound_passes(self):
        a = np.eye(2, dtype=complex)
        a[0, 1] = 0.5
        check_hermitian(a, "x", atol=0.5)
        with pytest.raises(ValueError):
            check_hermitian(a, "x", atol=0.25)


class TestOverlaps:
    def test_self_fidelity(self):
        rng = np.random.default_rng(0)
        s = basis_state(2, 3, [0, 0]).__class__(2, 3, random_state(9, rng))
        assert fidelity(s, s) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        a = basis_state(1, 3, [0])
        b = basis_state(1, 3, [1])
        assert fidelity(a, b) == 0.0

    def test_random_matches_direct_sum(self):
        rng = np.random.default_rng(1)
        a = random_state(27, rng)
        b = random_state(27, rng)
        ra = basis_state(3, 3, [0] * 3).__class__(3, 3, a)
        rb = basis_state(3, 3, [0] * 3).__class__(3, 3, b)
        assert inner(ra, rb) == pytest.approx(np.sum(a.conj() * b))
        assert fidelity(ra, rb) == pytest.approx(abs(np.sum(a.conj() * b)) ** 2)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            inner(basis_state(1, 3, [0]), basis_state(2, 3, [0, 0]))


class TestEntropy:
    def test_product_state(self):
        assert entanglement_entropy(basis_state(4, 3, [1] * 4), [0, 1]) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_entangled_qutrits(self):
        amps = np.zeros(9, dtype=complex)
        amps[[0, 4, 8]] = 1 / np.sqrt(3)
        s = basis_state(2, 3, [0, 0]).__class__(2, 3, amps)
        assert entanglement_entropy(s, [0]) == pytest.approx(np.log(3), abs=1e-12)

    def test_random_state_vs_dense_oracle(self):
        rng = np.random.default_rng(9)
        psi = random_state(81, rng)
        s = basis_state(4, 3, [0] * 4).__class__(4, 3, psi)
        # oracle: subsystem = qudit 3, the most significant factor, so the
        # bipartition is a plain (3, 27) reshape of the amplitudes
        block = psi.reshape(3, 27)
        lam = np.linalg.eigvalsh(block @ block.conj().T)
        lam = lam[lam > 1e-14]
        want = -np.sum(lam * np.log(lam))
        assert entanglement_entropy(s, [3]) == pytest.approx(want, abs=1e-10)

    def test_swap_symmetry(self):
        rng = np.random.default_rng(10)
        psi = random_state(243, rng)
        s = basis_state(5, 3, [0] * 5).__class__(5, 3, psi)
        sa = entanglement_entropy(s, [0, 1])
        sb = entanglement_entropy(s, [2, 3, 4])
        assert sa == pytest.approx(sb, abs=1e-10)

    def test_rdm_properties(self):
        rng = np.random.default_rng(12)
        psi = random_state(27, rng)
        s = basis_state(3, 3, [0] * 3).__class__(3, 3, psi)
        rho = reduced_density_matrix(s, [0, 2])
        # Explicit partial trace over qudit 1: the subset's lower qudit is
        # the more significant local digit, and rho_ij = sum psi_i psi_j^*.
        idx = np.arange(27)
        local, traced = digit(idx, 0, 3) * 3 + digit(idx, 2, 3), digit(idx, 1, 3)
        want = np.zeros((9, 9), dtype=complex)
        for a in idx:
            for b in idx[traced == traced[a]]:
                want[local[a], local[b]] += psi[a] * np.conj(psi[b])
        assert np.max(np.abs(rho - want)) < 1e-15
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
        assert np.min(np.linalg.eigvalsh(rho)) > -1e-12
        with pytest.raises(ValueError):
            reduced_density_matrix(s, [0, 1, 2])


class TestSampleCounts:
    def test_basis_state_single_outcome(self):
        counts = sample_counts(basis_state(2, 3, [2, 1]), 500, rng_seed=0)
        assert counts[5] == 500 and counts.sum() == 500

    def test_uniform_two_outcome_within_bands(self):
        amps = np.zeros(3, dtype=complex)
        amps[[0, 2]] = 1 / np.sqrt(2)
        s = basis_state(1, 3, [0]).__class__(1, 3, amps)
        shots = 10**6
        counts = sample_counts(s, shots, rng_seed=42)
        sigma = np.sqrt(shots * 0.25)
        assert abs(counts[0] - shots / 2) < 5 * sigma
        assert abs(counts[2] - shots / 2) < 5 * sigma

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        s = basis_state(2, 3, [0, 0]).__class__(2, 3, random_state(9, rng))
        a = sample_counts(s, 1000, rng_seed=7)
        b = sample_counts(s, 1000, rng_seed=7)
        assert np.array_equal(a, b)

    def test_invalid_shots(self):
        with pytest.raises(ValueError):
            sample_counts(basis_state(1, 3, [0]), 0, rng_seed=0)

