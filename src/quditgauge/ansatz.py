"""Layered parametrized qutrit circuits with symmetry-based parameter sharing.

Two families: open chains (nearest-neighbour MS entanglers, rotation blocks
shared over even/odd interior and edge links) and the single plaquette
(CROT ring, blocks shared by sublattice parity, optional four-body
entangler generated by the plaquette loop sum).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from typing import Callable, Sequence

import numpy as np

from . import core
from .core import (
    LocalOperator,
    QuditRegister,
    crot_generator,
    embedded_pauli,
    ms_generator,
)
from .model import plaquette_lattice, plaquette_loop_op

_HALF_PI = np.pi / 2.0


@dataclass(frozen=True)
class Gate:
    """One parametrized gate: exp(-i theta G) driven by parameter slot ``slot``.

    ``kind``, ``levels`` and ``phi`` only label the gate; its matrix comes
    from ``generator`` alone.
    """

    kind: str  # rotation | rz | ms | crot | plaq
    targets: tuple[int, ...]
    slot: int
    generator: LocalOperator
    levels: tuple[int, int] | None = None
    phi: float = 0.0

    def matrix(self, theta: float) -> np.ndarray:
        """exp(-i theta G), exactly the identity at theta = 0."""
        if theta == 0.0:
            return np.eye(self.generator.matrix.shape[0], dtype=complex)
        return core.hermitian_expm(self.generator.matrix, -1.0j * theta)


def _is_adjacent_pair(targets: tuple[int, ...]) -> bool:
    return len(targets) == 2 and targets[1] == targets[0] + 1


def _lift(a: np.ndarray, targets: tuple[int, ...], stage_targets: tuple[int, ...], d: int) -> np.ndarray:
    """A matrix (or a diagonal) on ``targets`` as the same factor on ``stage_targets``.

    ``targets`` is ``stage_targets`` itself or one qudit of an adjacent pair;
    ``stage_targets[0]`` is the more significant factor.
    """
    if targets == stage_targets:
        return a
    one = np.eye(d) if a.ndim == 2 else np.ones(d)
    return np.kron(a, one) if targets[0] == stage_targets[0] else np.kron(one, a)


@dataclass(frozen=True)
class Stage:
    """Gates applied in turn on ``targets`` as one matrix.

    ``positions`` index the circuit's gates in application order and
    ``slots`` holds their parameter slots.  ``eigvals[k]`` and
    ``eigvecs[k]`` are the eigenbasis of gate k's generator, lifted to
    ``targets``, so one batched exponential builds every gate matrix.
    """

    targets: tuple[int, ...]
    positions: tuple[int, ...]
    slots: np.ndarray
    eigvals: np.ndarray
    eigvecs: np.ndarray
    kernel: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def unitaries(self, theta: np.ndarray) -> np.ndarray:
        """exp(-i theta G_k) of every gate k, exactly the identity where theta = 0."""
        t = theta[self.slots]
        phases = np.exp(-1.0j * t[:, None] * self.eigvals)
        mats = (self.eigvecs * phases[:, None, :]) @ self.eigvecs.conj().swapaxes(1, 2)
        zero = t == 0.0
        if zero.any():
            mats[zero] = np.eye(self.eigvals.shape[1])
        return mats

    def derivatives(
        self, theta: np.ndarray, inserts: Sequence[tuple[int, np.ndarray]]
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """U = M_K ... M_1 and, for each (k, O) in ``inserts``, (M_K ... M_{k+1}) O (M_k ... M_1)."""
        mats = self.unitaries(theta)
        prefix = [mats[0]]
        for m in mats[1:]:
            prefix.append(m @ prefix[-1])
        suffix = [None] * len(mats)  # M_K ... M_{k+1}; None while it is the identity
        if inserts:
            for k in range(len(mats) - 2, -1, -1):
                after = suffix[k + 1]
                suffix[k] = mats[k + 1] if after is None else after @ mats[k + 1]
        ders = []
        for k, op in inserts:
            der = op @ prefix[k]
            ders.append(der if suffix[k] is None else suffix[k] @ der)
        return prefix[-1], ders


@dataclass(frozen=True)
class RowPlan:
    """Local matrices inserted after gates, each feeding one bundle row of a sweep.

    ``inserts[s]`` lists (k, O) for stage s: O, lifted to the stage's
    targets, goes in after the stage's gate k and feeds bundle row
    ``rows[s][i]``, i its place in the list.  Rows are numbered in the order
    insertions first touch them; ``active[s]`` counts the rows in use when
    stage s starts, and ``order[key]`` is the row of key ``key``.
    """

    inserts: tuple[tuple[tuple[int, np.ndarray], ...], ...]
    rows: tuple[tuple[int, ...], ...]
    active: tuple[int, ...]
    order: np.ndarray


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list over shared parameter slots, run as fused stages."""

    gates: tuple[Gate, ...]
    num_params: int
    num_qudits: int
    local_dim: int
    layers: int
    family: str

    def __post_init__(self):
        used = {g.slot for g in self.gates}
        if used != set(range(self.num_params)):
            missing = sorted(set(range(self.num_params)) - used)
            raise ValueError(f"parameter slots without gates: {missing}")

    def slot_positions(self, mu: int) -> list[int]:
        if not 0 <= mu < self.num_params:
            raise ValueError(f"slot {mu} out of range for {self.num_params} parameters")
        return [p for p, g in enumerate(self.gates) if g.slot == mu]

    def entangling_count(self) -> int:
        return sum(1 for g in self.gates if g.kind in ("ms", "crot", "plaq"))

    def _check_theta(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.num_params,):
            raise ValueError(f"expected {self.num_params} parameters, got shape {theta.shape}")
        return theta

    @cached_property
    def stages(self) -> tuple[Stage, ...]:
        """The stage plan, built on first use.

        Consecutive gates on the same targets form a run.  A single-qudit
        run folds forward into the next run that touches its qudit when
        that run is an adjacent pair: the runs in between act on other
        qudits, so the run's gates, and anything inserted after them,
        commute past them.
        """
        runs = [
            (targets, [p for p, _ in run])
            for targets, run in groupby(enumerate(self.gates), key=lambda pg: pg[1].targets)
        ]
        folded: list[list[int]] = [[] for _ in runs]
        stages = []
        for i, (targets, positions) in enumerate(runs):
            positions = folded[i] + positions
            if len(targets) == 1:
                j = next((j for j in range(i + 1, len(runs)) if targets[0] in runs[j][0]), None)
                if j is not None and _is_adjacent_pair(runs[j][0]):
                    folded[j] += positions
                    continue
            stages.append(self._stage(targets, positions))
        return tuple(stages)

    def _stage(self, targets: tuple[int, ...], positions: list[int]) -> Stage:
        d = self.local_dim
        eigvals, eigvecs = [], []
        for p in positions:
            w, v = np.linalg.eigh(self.gates[p].generator.matrix)
            eigvals.append(_lift(w, self.gates[p].targets, targets, d))
            eigvecs.append(_lift(v, self.gates[p].targets, targets, d))
        return Stage(
            targets,
            tuple(positions),
            np.array([self.gates[p].slot for p in positions]),
            np.stack(eigvals),
            np.stack(eigvecs),
            core.batch_kernel(self.num_qudits, d, targets),
        )

    def row_plan(self, ops: Sequence[Sequence[tuple[int, np.ndarray]]]) -> RowPlan:
        """Plan a sweep that inserts each (key, O) of ``ops[p]`` after gate p.

        O acts on gate p's targets.  Keys must be 0 .. R-1; they get bundle
        rows in the order the insertions first touch them.
        """
        row_of: dict[int, int] = {}
        inserts, rows, active = [], [], []
        for st in self.stages:
            active.append(len(row_of))
            here = [(k, p, key, op) for k, p in enumerate(st.positions) for key, op in ops[p]]
            inserts.append(
                tuple((k, _lift(op, self.gates[p].targets, st.targets, self.local_dim)) for k, p, _, op in here)
            )
            rows.append(tuple(row_of.setdefault(key, len(row_of)) for _, _, key, _ in here))
        order = np.empty(len(row_of), dtype=np.intp)
        for key, row in row_of.items():
            order[key] = row
        return RowPlan(tuple(inserts), tuple(rows), tuple(active), order)

    @cached_property
    def tangent_plan(self) -> RowPlan:
        """-iG inserted after every gate, one bundle row per parameter slot."""
        return self.row_plan([[(g.slot, -1.0j * g.generator.matrix)] for g in self.gates])

    def sweep(self, theta: Sequence[float], psi0: QuditRegister, plan: RowPlan | None = None):
        """State and every row of ``plan`` in one pass over the stages.

        Returns (psi, rows) where rows[key] sums, over the insertions with
        that key, the circuit run from psi0 with O inserted after its gate.
        Each stage pushes the rows already in use through its unitary once,
        then adds each inserted D applied to the state before the stage into
        its row, so at most R rows are in flight.  With no plan, rows is empty.
        """
        theta = self._check_theta(theta)
        if plan is None:
            plan = self._no_rows
        bundle = np.zeros((plan.order.size, psi0.dim), dtype=complex)
        phi = psi0.amplitudes.reshape(1, -1)
        for st, inserts, rows, active in zip(self.stages, plan.inserts, plan.rows, plan.active):
            u, ders = st.derivatives(theta, inserts)
            if active:
                bundle[:active] = st.kernel(bundle[:active], u)
            for row, der in zip(rows, ders):
                bundle[row] += st.kernel(phi, der)[0]
            phi = st.kernel(phi, u)
        return QuditRegister(psi0.num_qudits, self.local_dim, phi.reshape(-1)), bundle[plan.order]

    @cached_property
    def _no_rows(self) -> RowPlan:
        return self.row_plan([()] * len(self.gates))

    def state(self, theta: Sequence[float], psi0: QuditRegister) -> QuditRegister:
        return self.sweep(theta, psi0)[0]

    def tangents(self, theta: Sequence[float], psi0: QuditRegister):
        """State and all tangent vectors in one sweep.

        Returns (psi, T) where T[:, mu] = d|psi>/d theta_mu, the sum over the
        gates sharing slot mu of the product rule.
        """
        psi, rows = self.sweep(theta, psi0, self.tangent_plan)
        return psi, rows.T

    def describe(self) -> str:
        lines = [
            f"family={self.family} qudits={self.num_qudits} d={self.local_dim} "
            f"layers={self.layers} params={self.num_params} "
            f"entangling={self.entangling_count()}"
        ]
        for p, g in enumerate(self.gates):
            lev = f" levels={g.levels}" if g.levels else ""
            phi = f" phi={g.phi:g}" if g.kind == "rotation" else ""
            lines.append(f"  [{p:3d}] {g.kind:8s} targets={g.targets} slot={g.slot}{lev}{phi}")
        return "\n".join(lines)


def _rotation_generator(d: int, i: int, j: int, phi: float, target: int) -> LocalOperator:
    sigma = np.cos(phi) * embedded_pauli(d, i, j, "X").matrix + np.sin(phi) * embedded_pauli(
        d, i, j, "Y"
    ).matrix
    return LocalOperator(d, (target,), sigma / 2.0, hermitian=True)


def _rz_generator(d: int, i: int, j: int, target: int) -> LocalOperator:
    return LocalOperator(d, (target,), embedded_pauli(d, i, j, "Z").matrix / 2.0, hermitian=True)


# Rotation blocks, listed in application order (rightmost factor first).
_SHALLOW_BLOCK = [((1, 2), _HALF_PI), ((0, 2), 0.0), ((0, 1), 0.0)]
_DEEP_BLOCK = [
    ("rz", (0, 2)),
    ("rz", (0, 1)),
    ("rot", (1, 2), _HALF_PI),
    ("rot", (1, 2), 0.0),
    ("rot", (0, 2), _HALF_PI),
    ("rot", (0, 2), 0.0),
    ("rot", (0, 1), _HALF_PI),
    ("rot", (0, 1), 0.0),
]
_DEEP_EDGE_BLOCK = _DEEP_BLOCK[:4]


def _chain_groups(num_links: int) -> dict[str, list[int]]:
    groups = {"even": [], "odd": [], "edge": [0, num_links - 1]}
    for q in range(1, num_links - 1):
        groups["even" if q % 2 == 0 else "odd"].append(q)
    return {name: qs for name, qs in groups.items() if qs}


def _append_shallow_blocks(gates, groups, d, next_slot):
    slots = {}
    for name in groups:
        slots[name] = [next_slot + k for k in range(3)]
        next_slot += 3
    for name, qudits in groups.items():
        for q in qudits:
            for k, ((i, j), phi) in enumerate(_SHALLOW_BLOCK):
                gates.append(
                    Gate("rotation", (q,), slots[name][k], _rotation_generator(d, i, j, phi, q), (i, j), phi)
                )
    return next_slot


def _append_deep_blocks(gates, groups, edge_names, d, next_slot):
    slots = {}
    for name in groups:
        width = 4 if name in edge_names else 8
        slots[name] = [next_slot + k for k in range(width)]
        next_slot += width
    for name, qudits in groups.items():
        block = _DEEP_EDGE_BLOCK if name in edge_names else _DEEP_BLOCK
        for q in qudits:
            for k, spec in enumerate(block):
                if spec[0] == "rz":
                    i, j = spec[1]
                    gates.append(Gate("rz", (q,), slots[name][k], _rz_generator(d, i, j, q), (i, j)))
                else:
                    _, (i, j), phi = spec
                    gates.append(
                        Gate("rotation", (q,), slots[name][k], _rotation_generator(d, i, j, phi, q), (i, j), phi)
                    )
    return next_slot


def chain_circuit(num_links: int, layers: int, mode: str) -> Circuit:
    """Layered ansatz for the open chain.

    ``mode='imag'`` uses the three-rotation blocks, ``mode='real'`` the
    eight-rotation blocks (four on edge links).  Every layer ends with the
    nearest-neighbour MS chain, parameters shared by bond parity.
    """
    if num_links < 3:
        raise ValueError("chain ansatz needs at least 3 links")
    if mode not in ("imag", "real"):
        raise ValueError(f"mode must be 'imag' or 'real', got {mode!r}")
    d = 3
    groups = _chain_groups(num_links)
    gates: list[Gate] = []
    next_slot = 0
    # Entangling on the (1, 2) subspace: from the all-|1> vacuum this is the
    # transition the projected hopping drives, and it is what lets the
    # shallow circuits reach the reported ground-state fidelities.
    ms_levels = (1, 2)
    ms_gen = ms_generator(d, *ms_levels)
    for _ in range(layers):
        if mode == "imag":
            next_slot = _append_shallow_blocks(gates, groups, d, next_slot)
        else:
            next_slot = _append_deep_blocks(gates, groups, {"edge"}, d, next_slot)
        bond_slots = {0: next_slot, 1: next_slot + 1}
        next_slot += 2
        for q in range(num_links - 1):
            gates.append(
                Gate("ms", (q, q + 1), bond_slots[q % 2], ms_gen.on(q, q + 1), ms_levels)
            )
    return Circuit(tuple(gates), next_slot, num_links, d, layers, f"chain_{mode}")


def plaquette_circuit(
    layers: int,
    mode: str,
    include_plaquette_gate: bool = False,
    electric_offset: str = "symmetric",
    link_amplitude: str = "unit",
    boundary: float = 0.0,
) -> Circuit:
    """Layered ansatz for the four-link plaquette with a CROT ring.

    Every gate carries its own parameter and every link gets the full
    eight-rotation block; shallow shared blocks cap the reachable
    ground-state fidelity near 75% at one layer, well below the reported
    values, so both evolution modes use the expressive form here.
    """
    if mode not in ("imag", "real"):
        raise ValueError(f"mode must be 'imag' or 'real', got {mode!r}")
    d = 3
    groups = {f"link{q}": [q] for q in range(4)}
    gates: list[Gate] = []
    next_slot = 0
    loop_gen = None
    if include_plaquette_gate:
        lattice = plaquette_lattice(d, boundary)
        loop = plaquette_loop_op(lattice, electric_offset, link_amplitude)
        loop_gen = LocalOperator(d, (0, 1, 2, 3), loop.matrix + loop.matrix.conj().T, hermitian=True)
    crot_gen = crot_generator(d)
    for _ in range(layers):
        next_slot = _append_deep_blocks(gates, groups, set(), d, next_slot)
        for a, b in ((0, 1), (1, 2), (2, 3), (3, 0)):
            gates.append(Gate("crot", (a, b), next_slot, crot_gen.on(a, b)))
            next_slot += 1
        if include_plaquette_gate:
            gates.append(Gate("plaq", (0, 1, 2, 3), next_slot, loop_gen))
            next_slot += 1
    return Circuit(tuple(gates), next_slot, 4, d, layers, f"plaquette_{mode}")


def random_initial_params(circuit: Circuit, seed: int, halfwidth: float = np.pi / 4.0) -> np.ndarray:
    """Uniform draw over [-halfwidth, halfwidth] for every slot."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-halfwidth, halfwidth, circuit.num_params)
