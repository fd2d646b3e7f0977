"""Circuit construction, parameter sharing, and tangent vectors."""
import numpy as np
import pytest

from quditgauge.ansatz import (
    Circuit,
    Gate,
    _rotation_generator,
    _rz_generator,
    chain_circuit,
    plaquette_circuit,
    random_initial_params,
)
from quditgauge.core import (
    QuditRegister,
    basis_state,
    crot_gate,
    crot_generator,
    embedded_pauli,
    ms_gate,
    ms_generator,
    plaquette_gate,
    rotation_gate,
    rz_gate,
)
from quditgauge.model import plaquette_lattice

from helpers import dense_plaquette_loop, kron_lift, random_hermitian, random_state


def vacuum(num_qudits):
    return basis_state(num_qudits, 3, [1] * num_qudits)


class TestChainCounts:
    def test_l7_n3_shallow(self):
        c = chain_circuit(7, 3, "imag")
        assert c.num_params == 33
        assert c.entangling_count() == 18

    def test_entanglers_per_layer(self):
        for L in (3, 5, 7):
            c = chain_circuit(L, 1, "imag")
            assert c.entangling_count() == L - 1

    def test_l5_n4_deep(self):
        c = chain_circuit(5, 4, "real")
        assert c.num_params == 88

    def test_l3_groups_collapse(self):
        # no even-interior links on a 3-chain: 2 groups of rotations remain
        c = chain_circuit(3, 1, "imag")
        assert c.num_params == 3 * 2 + 2

    def test_min_length(self):
        with pytest.raises(ValueError):
            chain_circuit(2, 1, "imag")


class TestPlaquetteCounts:
    def test_entanglers(self):
        for n_layers in (1, 2):
            c = plaquette_circuit(n_layers, "imag")
            assert c.entangling_count() == 4 * n_layers

    def test_plaquette_gate_adds_one_param_per_layer(self):
        base = plaquette_circuit(4, "real")
        extended = plaquette_circuit(4, "real", include_plaquette_gate=True)
        assert extended.num_params == base.num_params + 4
        assert extended.entangling_count() == base.entangling_count() + 4


class TestStateEvaluation:
    def test_zero_parameters_identity(self):
        for circ, n in [
            (chain_circuit(5, 2, "imag"), 5),
            (chain_circuit(3, 1, "real"), 3),
            (plaquette_circuit(1, "real", include_plaquette_gate=True), 4),
        ]:
            psi0 = vacuum(n)
            out = circ.state(np.zeros(circ.num_params), psi0)
            assert np.array_equal(out.amplitudes, psi0.amplitudes)

    def test_matches_dense_product_oracle(self):
        circ = chain_circuit(3, 1, "imag")
        psi0 = vacuum(3)
        rng = np.random.default_rng(21)
        theta = rng.uniform(-np.pi, np.pi, circ.num_params)
        full = np.eye(27, dtype=complex)
        for g in circ.gates:
            full = kron_lift(g.matrix(theta[g.slot]), g.targets, 3, 3) @ full
        want = full @ psi0.amplitudes
        got = circ.state(theta, psi0).amplitudes
        assert np.max(np.abs(got - want)) < 1e-12

    def test_unit_norm(self):
        circ = plaquette_circuit(2, "real", include_plaquette_gate=True)
        rng = np.random.default_rng(3)
        theta = rng.uniform(-np.pi, np.pi, circ.num_params)
        assert circ.state(theta, vacuum(4)).norm() == pytest.approx(1.0, abs=1e-12)

    def test_parameter_count_checked(self):
        circ = chain_circuit(3, 1, "imag")
        with pytest.raises(ValueError):
            circ.state(np.zeros(circ.num_params + 1), vacuum(3))


ALL_FAMILIES = [
    ("chain imag", lambda: chain_circuit(3, 1, "imag"), 3),
    ("chain deep", lambda: chain_circuit(3, 1, "real"), 3),
    ("chain imag L5", lambda: chain_circuit(5, 2, "imag"), 5),
    ("plaquette", lambda: plaquette_circuit(1, "imag"), 4),
    ("plaquette gate", lambda: plaquette_circuit(1, "real", include_plaquette_gate=True), 4),
]


def closed_form(gate, theta):
    """The gate's matrix from the closed-form builder of its kind."""
    if gate.kind == "rotation":
        return rotation_gate(3, *gate.levels, theta, gate.phi).matrix
    if gate.kind == "rz":
        return rz_gate(3, *gate.levels, theta).matrix
    if gate.kind == "ms":
        return ms_gate(3, *gate.levels, theta).matrix
    if gate.kind == "crot":
        return crot_gate(theta).matrix
    return plaquette_gate(theta, gate.generator).matrix


class TestGateMatrices:
    def test_families_cover_every_kind(self):
        kinds = {g.kind for _, make, _ in ALL_FAMILIES for g in make().gates}
        assert kinds == {"rotation", "rz", "ms", "crot", "plaq"}

    @pytest.mark.parametrize("name,make,n", ALL_FAMILIES, ids=[f[0] for f in ALL_FAMILIES])
    def test_generator_matches_closed_form(self, name, make, n):
        circ = make()
        rng = np.random.default_rng(37)
        for g in circ.gates:
            for theta in rng.uniform(-np.pi, np.pi, 3):
                err = np.max(np.abs(g.matrix(theta) - closed_form(g, theta)))
                assert err < 1e-13, (name, g.kind, g.targets, theta)
            dim = g.generator.matrix.shape[0]
            assert np.array_equal(g.matrix(0.0), np.eye(dim)), (name, g.kind, g.targets)


GROUP_CIRCUITS = {
    "L3": lambda: chain_circuit(3, 1, "imag"),
    "L7": lambda: chain_circuit(7, 3, "imag"),
    "N5-gate": lambda: plaquette_circuit(5, "real", include_plaquette_gate=True),
}


def fresh_generator(gate) -> np.ndarray:
    """The gate's generator built anew for this gate alone, as the circuits once built each one."""
    if gate.kind == "rotation":
        x, y = (embedded_pauli(3, *gate.levels, axis).matrix for axis in "XY")
        return (np.cos(gate.phi) * x + np.sin(gate.phi) * y) / 2.0
    if gate.kind == "rz":
        return embedded_pauli(3, *gate.levels, "Z").matrix / 2.0
    if gate.kind == "ms":
        return ms_generator(3, *gate.levels).matrix
    if gate.kind == "crot":
        return crot_generator(3).matrix
    loop = dense_plaquette_loop(plaquette_lattice(), "symmetric", "unit")
    return loop + loop.conj().T


SETUP_CIRCUITS = {
    "L7": (lambda: chain_circuit(7, 3, "imag"), 4),
    "N5-gate": (lambda: plaquette_circuit(5, "real", include_plaquette_gate=True), 10),
}


class TestSharedGenerators:
    @pytest.mark.parametrize("name", SETUP_CIRCUITS)
    def test_each_distinct_generator_is_built_once(self, name):
        make, distinct = SETUP_CIRCUITS[name]
        circ = make()
        for g in circ.gates:
            assert g.generator.targets == g.targets
            assert np.array_equal(g.generator.matrix, fresh_generator(g)), (g.kind, g.targets)
        assert len({id(g.generator.matrix) for g in circ.gates}) == distinct

    @pytest.mark.parametrize("name", SETUP_CIRCUITS)
    def test_shared_generators_are_read_only(self, name):
        circ = SETUP_CIRCUITS[name][0]()
        assert not any(g.generator.matrix.flags.writeable for g in circ.gates)
        first = circ.gates[0]
        sharing = [g for g in circ.gates[1:] if g.generator.matrix is first.generator.matrix]
        assert sharing
        before = first.generator.matrix.copy()
        with pytest.raises(ValueError):
            first.generator.matrix[0, 0] = 1.0
        assert all(np.array_equal(g.generator.matrix, before) for g in sharing)


def stage_product(circ, stage, theta):
    """A stage's unitary as the product of its gates' matrices, each on the stage's targets."""
    b = 3 ** len(stage.targets)
    out = np.eye(b, dtype=complex)
    for p in stage.positions:
        gate = circ.gates[p]
        m = gate.matrix(theta[gate.slot])
        if gate.targets != stage.targets:
            m = np.kron(m, np.eye(3)) if gate.targets[0] == stage.targets[0] else np.kron(np.eye(3), m)
        out = m @ out
    return out


class TestGroupGateTable:
    """Every stage group builds its gates in one product with one table of spectral projectors."""

    def test_four_body_gates_share_one_table(self):
        circ = plaquette_circuit(5, "real", include_plaquette_gate=True)
        group = next(g for g in circ.stage_groups if len(circ.stages[g.stages[0]].targets) == 4)
        # five gates, one generator: its four nonzero levels {+-1, +-sqrt 2} stored once
        assert len(group.stages) == 5 and group.projectors.shape == (4, 81, 81)
        assert np.allclose(np.sort(group.levels), [-np.sqrt(2), -1.0, 1.0, np.sqrt(2)])
        assert group.cell.size == 20 and sorted(group.level.tolist()) == sorted(5 * [0, 1, 2, 3])

    @pytest.mark.parametrize("name", sorted(GROUP_CIRCUITS))
    def test_stage_unitaries_match_gate_products(self, name):
        circ = GROUP_CIRCUITS[name]()
        theta = np.random.default_rng(41).uniform(-np.pi, np.pi, circ.num_params)
        for group in circ.stage_groups:
            after = group.suffixes(theta)
            for i, s in enumerate(group.stages):
                err = np.max(np.abs(after[0, i] - stage_product(circ, circ.stages[s], theta)))
                assert err < 1e-13, (name, s, err)

    @pytest.mark.parametrize("name", sorted(GROUP_CIRCUITS))
    def test_zero_slots_give_exact_identities(self, name):
        circ = GROUP_CIRCUITS[name]()
        for group in circ.stage_groups:
            theta = np.random.default_rng(43).uniform(-np.pi, np.pi, circ.num_params)
            theta[group.slots] = 0.0
            after = group.suffixes(theta)
            assert np.array_equal(after, np.broadcast_to(np.eye(after.shape[-1]), after.shape)), name


def dense_tangents(circ, theta, psi0):
    """Product-rule reference: the dense circuit with -iG inserted after each gate, summed per slot."""
    n, d = circ.num_qudits, circ.local_dim
    lifted = [kron_lift(g.matrix(theta[g.slot]), g.targets, n, d) for g in circ.gates]
    tang = np.zeros((psi0.dim, circ.num_params), dtype=complex)
    state = psi0.amplitudes
    for p, g in enumerate(circ.gates):
        state = lifted[p] @ state
        branch = -1j * kron_lift(g.generator.matrix, g.targets, n, d) @ state
        for later in lifted[p + 1 :]:
            branch = later @ branch
        tang[:, g.slot] += branch
    return state, tang


def hand_built_circuit() -> Circuit:
    """Three qutrits, six slots, first touched in the order 2, 0, 4, 1, 3, 5.

    Slot 2 is shared by gates in two stages; the run of gates on qudit 1 is
    split by a gate on qudit 2, and only its second part folds into the MS
    stage; slot 5 is shared inside one stage; the CROT on (2, 0) takes the
    kernel's non-adjacent path.
    """
    d = 3
    gates = (
        Gate("rotation", (1,), 2, _rotation_generator(d, 0, 1, 0.0).on(1), (0, 1)),
        Gate("rz", (1,), 0, _rz_generator(d, 0, 2).on(1), (0, 2)),
        Gate("rotation", (2,), 4, _rotation_generator(d, 1, 2, 0.0).on(2), (1, 2)),
        Gate("rotation", (1,), 2, _rotation_generator(d, 0, 2, np.pi / 2).on(1), (0, 2), np.pi / 2),
        Gate("ms", (0, 1), 1, ms_generator(d, 1, 2).on(0, 1), (1, 2)),
        Gate("crot", (2, 0), 3, crot_generator(d).on(2, 0)),
        Gate("rotation", (0,), 5, _rotation_generator(d, 1, 2, np.pi / 2).on(0), (1, 2), np.pi / 2),
        Gate("rz", (0,), 5, _rz_generator(d, 0, 1).on(0), (0, 1)),
    )
    return Circuit(gates, 6, 3, d, 1, "hand")


def four_qudit_circuit(specs) -> Circuit:
    """Four qutrits, one slot per gate: ("rot", q), ("rz", q), ("ms", a, b), ("crot", a, b) or ("plaq",)."""
    d = 3
    loop = plaquette_circuit(1, "real", include_plaquette_gate=True).gates[-1].generator
    gates = []
    for slot, (kind, *qs) in enumerate(specs):
        if kind == "rot":
            gen = _rotation_generator(d, 0, 2, np.pi / 2).on(qs[0])
        elif kind == "rz":
            gen = _rz_generator(d, 1, 2).on(qs[0])
        elif kind == "ms":
            gen = ms_generator(d, 1, 2).on(*qs)
        elif kind == "crot":
            gen = crot_generator(d).on(*qs)
        else:
            gen = loop
        gates.append(Gate("rotation" if kind == "rot" else kind, gen.targets, slot, gen))
    return Circuit(tuple(gates), len(gates), 4, d, 1, "hand")


def selected_rows(sel):
    """The bundle rows a stage selection names, without the state row 0."""
    if sel is None:
        return []
    if isinstance(sel, slice):
        return list(range(sel.start - 1, sel.stop - 1))
    return [int(r) - 1 for r in sel]


class TestStagePlan:
    def test_stage_boundaries_and_rows(self):
        # runs (1,) (2,) (1,) (0, 1) (2, 0) (0,): the second run on qudit 1
        # folds into the MS pair; the first meets another single run, the
        # run on qudit 2 the non-adjacent CROT, and the last run no stage
        circ = hand_built_circuit()
        assert [st.targets for st in circ.stages] == [(1,), (2,), (0, 1), (2, 0), (0,)]
        assert [st.positions for st in circ.stages] == [(0, 1), (2,), (3, 4), (5,), (6, 7)]
        plan = circ.tangent_plan
        # stages touch slots [2, 0], [4], [2, 1], [3], [5] (slot 5 twice, summed)
        assert [selected_rows(sel) for sel in plan.fwd] == [[0, 1], [2], [0, 3], [4], [5]]
        assert list(plan.fwd_live) == [0, 2, 3, 4, 5, 6]
        assert list(plan.order) == [1, 3, 0, 4, 2, 5]
        assert [selected_rows(sel) for sel in plan.bwd] == [[2, 5], [4], [2, 3], [1], [0]]
        assert list(plan.bwd_live) == [6, 5, 4, 2, 1, 0]
        # backward rows hold keys [5, 3, 2, 1, 4, 0]
        assert list(plan.meet) == [5, 4, 0, 3, 2, 1]
        # single-qudit stages 0, 1, 4 right-aligned in two places, pair stages 2, 3 likewise
        assert [g.stages for g in circ.stage_groups] == [(0, 1, 4), (2, 3)]
        single, pair = plan.groups
        assert single.spans == ((0, 0, 2), (1, 2, 3), (4, 3, 4))
        assert list(single.starts) == [0, 1, 2, 3]
        assert list(single.inner) == [0, 3] and list(single.place) == [1, 1] and list(single.stage) == [0, 2]
        assert pair.spans == ((2, 0, 2), (3, 2, 3)) and pair.starts is None
        assert list(pair.inner) == [0] and list(pair.place) == [1] and list(pair.stage) == [0]

    def test_chain_fuses_each_rotation_block(self):
        # per layer: each link's 3-gate block folds into the MS gate after it,
        # the block of link 0 and link 1 both into MS (0, 1)
        circ = chain_circuit(7, 3, "imag")
        assert len(circ.gates) == 81
        assert len(circ.stages) == 18
        assert sum(len(st.positions) for st in circ.stages) == 81
        assert all(st.targets == (q, q + 1) for st, q in zip(circ.stages, [0, 1, 2, 3, 4, 5] * 3))

    @pytest.mark.parametrize(
        "gates,targets",
        [
            # a gate on qudit 0 before its pair (0, 1)
            pytest.param(
                (("rot", 0), ("rz", 0), ("crot", 2, 0), ("ms", 0, 1)), [(0,), (2, 0), (0, 1)], id="overlap-before-pair"
            ),
            pytest.param((("rot", 3), ("rz", 3), ("crot", 3, 0)), [(3,), (3, 0)], id="non-adjacent-crot"),
            pytest.param((("rot", 0), ("ms", 2, 3), ("plaq",)), [(0,), (2, 3), (0, 1, 2, 3)], id="four-body-gate"),
            pytest.param((("ms", 0, 1), ("rot", 1), ("rz", 1)), [(0, 1), (1,)], id="end-of-circuit"),
            # the contrast: a pair on other qudits between a run and its pair
            pytest.param((("rot", 1), ("ms", 2, 3), ("ms", 1, 2)), [(2, 3), (1, 2)], id="fold-past-disjoint-pair"),
        ],
    )
    def test_fold_cases_match_dense_reference(self, gates, targets):
        circ = four_qudit_circuit(gates)
        assert [st.targets for st in circ.stages] == targets
        psi0 = vacuum(4)
        theta = np.random.default_rng(43).uniform(-np.pi, np.pi, circ.num_params)
        want_psi, want = dense_tangents(circ, theta, psi0)
        psi, tang, _ = circ.tangents(theta, psi0)
        assert np.max(np.abs(tang - want)) < 1e-12
        assert np.max(np.abs(psi.amplitudes - want_psi)) < 1e-14

    def test_matches_dense_reference(self):
        circ = hand_built_circuit()
        psi0 = vacuum(3)
        rng = np.random.default_rng(41)
        for _ in range(3):
            theta = rng.uniform(-np.pi, np.pi, circ.num_params)
            want_psi, want = dense_tangents(circ, theta, psi0)
            psi, tang, _ = circ.tangents(theta, psi0)
            assert np.max(np.abs(tang - want)) < 1e-12
            assert np.max(np.abs(psi.amplitudes - want_psi)) < 1e-14
            assert np.max(np.abs(circ.state(theta, psi0).amplitudes - want_psi)) < 1e-14


def every_stage_kind_circuit() -> Circuit:
    """Four qutrits, every stage kind: six stages (2, 3), (1, 2), (3, 0), (0,), (0, 1, 2, 3), (3,).

    The run on qudit 1 folds past the disjoint MS (2, 3) into MS (1, 2);
    the CROT (3, 0) takes the non-adjacent kernel; gates 5 and 6 share slot
    5 inside the single-qudit stage (0,); the four-body gate is a stage of
    its own; gate 8 reuses slot 0 in the last stage (3,).
    """
    d = 3
    loop = plaquette_circuit(1, "real", include_plaquette_gate=True).gates[-1].generator
    gens = [
        (_rotation_generator(d, 0, 2, np.pi / 2).on(1), 0),
        (_rz_generator(d, 1, 2).on(1), 1),
        (ms_generator(d, 1, 2).on(2, 3), 2),
        (ms_generator(d, 1, 2).on(1, 2), 3),
        (crot_generator(d).on(3, 0), 4),
        (_rotation_generator(d, 0, 1, 0.0).on(0), 5),
        (_rz_generator(d, 0, 1).on(0), 5),
        (loop, 6),
        (_rotation_generator(d, 1, 2, 0.0).on(3), 0),
        (_rz_generator(d, 0, 2).on(3), 7),
    ]
    gates = tuple(Gate("rotation", gen.targets, slot, gen) for gen, slot in gens)
    return Circuit(gates, 8, 4, d, 1, "hand")


class TestSweepFrames:
    """Rows of a plan whose inserts do not commute with their gates, in every frame, against dense products."""

    # (gate, key) of every insert: key 0 twice inside stage (1, 2), key 5 twice
    # inside stage (0,), keys 2 and 3 in two stages each
    INSERTS = [(0, 0), (0, 1), (1, 2), (2, 3), (3, 0), (4, 4), (5, 5), (6, 5), (7, 6), (7, 3), (8, 2), (9, 7)]

    def test_every_frame_matches_dense_reference(self):
        circ = every_stage_kind_circuit()
        assert [st.targets for st in circ.stages] == [(2, 3), (1, 2), (3, 0), (0,), (0, 1, 2, 3), (3,)]
        n, d, dim = 4, 3, 81
        rng = np.random.default_rng(47)
        ops = [[] for _ in circ.gates]
        for p, key in self.INSERTS:
            size = circ.gates[p].generator.matrix.shape[0]  # 3, 9 or 81
            ops[p].append((key, rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))))
        plan = circ.row_plan(ops)
        theta = rng.uniform(-np.pi, np.pi, circ.num_params)
        theta[[1, 4]] = 0.0
        psi0 = QuditRegister(n, d, random_state(dim, rng))
        block = np.stack([random_state(dim, rng) for _ in range(3)])  # k = 3 input states, swept together
        ham = random_hermitian(dim, rng)
        gate = [kron_lift(g.matrix(theta[g.slot]), g.targets, n, d) for g in circ.gates]
        # rows at the output as maps of the input, in gate order: the circuit with O inserted after gate p
        branches = np.zeros((8, dim, dim), dtype=complex)
        for p, inserted in enumerate(ops):
            for key, op in inserted:
                branch = kron_lift(op, circ.gates[p].targets, n, d) @ np.linalg.multi_dot([np.eye(dim)] + gate[p::-1])
                branches[key] += np.linalg.multi_dot([np.eye(dim)] + gate[:p:-1] + [branch])
        total = np.linalg.multi_dot([np.eye(dim)] + gate[::-1])
        before = np.eye(dim, dtype=complex)  # the stages before frame m, in stage order
        for m in range(len(circ.stages) + 1):
            pull = before @ total.conj().T
            for inputs, states in ((psi0, psi0.amplitudes[None]), (block, block)):
                out = states @ total.T
                want = np.einsum("rij,kj->rki", branches, states)
                for h, want_ref in ((ham, np.stack([out, out @ ham.T])), (None, out[None])):
                    psi, rows, ref = circ.sweep(theta, inputs, plan, m, h)
                    if inputs is psi0:  # a register is the block of one state
                        psi, rows, ref = psi.amplitudes[None], rows[:, None], ref[:, None]
                    assert np.max(np.abs(psi - out)) < 1e-13, m
                    assert np.max(np.abs(rows - want @ pull.T)) < 1e-12, m
                    assert np.max(np.abs(ref - want_ref @ pull.T)) < 1e-12, m
            if m < len(circ.stages):
                for p in circ.stages[m].positions:
                    before = gate[p] @ before
        assert 0 < plan.middle < len(circ.stages)
        psi, rows, ref = circ.sweep(theta, psi0, plan)
        assert np.max(np.abs(rows - branches @ psi0.amplitudes)) < 1e-12
        assert np.array_equal(ref, psi.amplitudes[None])
        psi, rows, ref = circ.sweep(theta, block, plan)
        assert np.array_equal(ref, psi[None])
        for frame in (-1, len(circ.stages) + 1):
            with pytest.raises(ValueError):
                circ.sweep(theta, psi0, plan, frame)


class TestTangents:
    @pytest.mark.parametrize("name,make,n", ALL_FAMILIES, ids=[f[0] for f in ALL_FAMILIES])
    def test_matches_dense_product_rule(self, name, make, n):
        circ = make()
        psi0 = vacuum(n)
        rng = np.random.default_rng(29)
        for _ in range(2):
            theta = rng.uniform(-np.pi, np.pi, circ.num_params)
            _, want = dense_tangents(circ, theta, psi0)
            psi, tang, _ = circ.tangents(theta, psi0)
            assert np.max(np.abs(tang - want)) < 1e-12, name
            assert np.max(np.abs(psi.amplitudes - circ.state(theta, psi0).amplitudes)) < 1e-14, name

    @pytest.mark.parametrize("name,make,n", ALL_FAMILIES, ids=[f[0] for f in ALL_FAMILIES])
    def test_matches_finite_difference(self, name, make, n):
        circ = make()
        psi0 = vacuum(n)
        rng = np.random.default_rng(17)
        h = 1e-5
        for _ in range(3):
            theta = rng.uniform(-np.pi, np.pi, circ.num_params)
            _, tang, _ = circ.tangents(theta, psi0)
            for mu in range(circ.num_params):
                up = theta.copy()
                dn = theta.copy()
                up[mu] += h
                dn[mu] -= h
                fd = (circ.state(up, psi0).amplitudes - circ.state(dn, psi0).amplitudes) / (2 * h)
                assert np.max(np.abs(tang[:, mu] - fd)) < 1e-8, (name, mu)

    def test_single_gate_product_rule(self):
        # the tangent of a shared slot is the sum over its gates of the
        # circuit with -iG inserted after that gate
        circ = chain_circuit(3, 1, "imag")
        psi0 = vacuum(3)
        theta = np.full(circ.num_params, 0.3)
        mu = 3  # first rotation of the block the two edge links share
        positions = circ.slot_positions(mu)
        assert len(positions) > 1
        total = np.zeros(27, dtype=complex)
        for pos in positions:
            state = psi0.amplitudes
            for p, g in enumerate(circ.gates):
                state = kron_lift(g.matrix(theta[g.slot]), g.targets, 3, 3) @ state
                if p == pos:
                    state = -1j * kron_lift(g.generator.matrix, g.targets, 3, 3) @ state
            total += state
        _, tang, _ = circ.tangents(theta, psi0)
        assert np.max(np.abs(total - tang[:, mu])) < 1e-12

    def test_slot_out_of_range(self):
        circ = chain_circuit(3, 1, "imag")
        for mu in (-1, circ.num_params):
            with pytest.raises(ValueError):
                circ.slot_positions(mu)

    def test_norm_matches_fd_across_draws(self):
        circ = chain_circuit(5, 1, "imag")
        psi0 = vacuum(5)
        rng = np.random.default_rng(23)
        h = 1e-5
        for _ in range(10):
            theta = rng.uniform(-np.pi / 2, np.pi / 2, circ.num_params)
            _, tang, _ = circ.tangents(theta, psi0)
            mu = int(rng.integers(circ.num_params))
            up, dn = theta.copy(), theta.copy()
            up[mu] += h
            dn[mu] -= h
            fd = (circ.state(up, psi0).amplitudes - circ.state(dn, psi0).amplitudes) / (2 * h)
            assert abs(np.linalg.norm(tang[:, mu]) - np.linalg.norm(fd)) < 1e-7


class TestPlaquetteTangentRank:
    """Real rank of the tangents projected orthogonal to the state.

    The projectively distinct directions of four qutrits number 2*81 - 2 =
    160; the McLachlan flow can follow an arbitrary -i(H - E)|psi> only
    where the circuit spans all of them.
    """

    @staticmethod
    def projected_rank(circ):
        theta = np.random.default_rng(31).uniform(-np.pi, np.pi, circ.num_params)
        psi, tang, _ = circ.tangents(theta, vacuum(4))
        amp = psi.amplitudes
        proj = tang - np.outer(amp, amp.conj() @ tang)
        s = np.linalg.svd(np.vstack([proj.real, proj.imag]), compute_uv=False)
        return int(np.sum(s > 1e-10 * s[0]))

    @pytest.mark.parametrize(
        "layers,gate,rank", [(5, True, 160), (5, False, 148), (4, True, 132)]
    )
    def test_rank(self, layers, gate, rank):
        circ = plaquette_circuit(layers, "real", include_plaquette_gate=gate)
        assert self.projected_rank(circ) == rank


class TestSharingSymmetry:
    def test_reflection_maps_family_onto_itself(self):
        # reflecting the odd-length chain preserves the rotation groups and
        # swaps the two bond-parity classes, so the reflected state is the
        # circuit at relabeled parameters
        L, N = 5, 2
        circ = chain_circuit(L, N, "imag")
        psi0 = vacuum(L)
        rng = np.random.default_rng(29)
        theta = rng.uniform(-np.pi, np.pi, circ.num_params)
        swapped = theta.copy()
        per_layer = circ.num_params // N
        for layer in range(N):
            base = layer * per_layer
            ms_even, ms_odd = base + per_layer - 2, base + per_layer - 1
            swapped[[ms_even, ms_odd]] = swapped[[ms_odd, ms_even]]
        out = circ.state(theta, psi0).amplitudes
        out_swapped = circ.state(swapped, psi0).amplitudes
        # reflection permutation on amplitudes
        dim = 3**L
        idx = np.arange(dim)
        perm = np.zeros(dim, dtype=int)
        for q in range(L):
            perm += ((idx // 3**q) % 3) * 3 ** (L - 1 - q)
        assert np.max(np.abs(out[perm] - out_swapped)) < 1e-12

    def test_every_slot_used(self):
        for make in (lambda: chain_circuit(4, 2, "real"), lambda: plaquette_circuit(3, "imag")):
            circ = make()
            used = {g.slot for g in circ.gates}
            assert used == set(range(circ.num_params))


class TestInitialParams:
    def test_range_and_determinism(self):
        circ = chain_circuit(5, 2, "imag")
        a = random_initial_params(circ, 11)
        b = random_initial_params(circ, 11)
        assert np.array_equal(a, b)
        assert np.all(np.abs(a) <= np.pi / 4)
        c = random_initial_params(circ, 12)
        assert not np.array_equal(a, c)
