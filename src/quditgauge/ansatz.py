"""Layered parametrized qutrit circuits with symmetry-based parameter sharing.

Two families: open chains (nearest-neighbour MS entanglers, rotation blocks
shared over even/odd interior and edge links) and the single plaquette
(CROT ring, blocks shared by sublattice parity, optional four-body
entangler generated by the plaquette loop sum).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
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


def _is_adjacent_pair(targets: tuple[int, ...]) -> bool:
    return len(targets) == 2 and targets[1] == targets[0] + 1


def _lift(a: np.ndarray, targets: tuple[int, ...], stage_targets: tuple[int, ...], d: int) -> np.ndarray:
    """A matrix on ``targets`` as the same factor on ``stage_targets``.

    ``targets`` is ``stage_targets`` itself or one qudit of an adjacent pair;
    ``stage_targets[0]`` is the more significant factor.
    """
    if targets == stage_targets:
        return a
    return np.kron(a, np.eye(d)) if targets[0] == stage_targets[0] else np.kron(np.eye(d), a)


@dataclass(frozen=True)
class Stage:
    """Gates applied in turn on ``targets`` as one matrix.

    ``positions`` index the circuit's gates in application order.
    """

    targets: tuple[int, ...]
    positions: tuple[int, ...]
    kernel: Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class StageGroup:
    """The stages of one block size, right-aligned so that one product builds all their matrices.

    ``stages`` index ``Circuit.stages``.  Stage i's gates fill the last of
    the ``width`` places of its column in the group's grid; the others hold
    identities.  A gate exp(-i t G) is 1 + sum_k (e^{-i t w_k} - 1) P_k
    over the nonzero levels w_k of G lifted to the stage's targets.
    ``levels`` and ``projectors`` list each distinct lifted generator's
    nonzero levels and spectral projectors once.  Entry e pairs a gate with
    one level of its own: grid cell ``cell[e]`` (place * stages + stage)
    gets that level's term, with t read from parameter slot ``slots[e]``
    and w_k at ``levels[level[e]]``.
    """

    stages: tuple[int, ...]
    width: int
    cell: np.ndarray
    slots: np.ndarray
    level: np.ndarray
    levels: np.ndarray
    projectors: np.ndarray

    def suffixes(self, theta: np.ndarray) -> np.ndarray:
        """after[j, i] = M_w ... M_j of stage i's place matrices M.

        after[0] holds the stage unitaries, and after[j + 1] carries a matrix
        inserted after place j to the stage's output.  An empty place and a
        gate at theta = 0 are exactly the identity, as expm1(0) = 0.
        """
        k, b = self.projectors.shape[:2]
        coef = np.zeros((self.width * len(self.stages), k), dtype=complex)
        coef[self.cell, self.level] = np.expm1(-1.0j * theta[self.slots] * self.levels[self.level])
        after = (coef @ self.projectors.reshape(k, b * b)).reshape(self.width, len(self.stages), b, b)
        after.reshape(-1, b * b)[:, :: b + 1] += 1.0
        for j in range(self.width - 2, -1, -1):
            np.matmul(after[j + 1], after[j], out=after[j])
        return after


@dataclass(frozen=True)
class GroupInserts:
    """One plan's inserted matrices on one stage group, each pushed to its stage's output.

    An insert O after place j becomes B = S O S^dag with S = after[j + 1],
    so that B applied to the stage's output state is O inserted after its
    gate.  ``ops`` are the lifted O's, sorted by stage and then by the
    stage's rows in first-touch order; ``inner`` indexes those not after
    their stage's last gate (the others have S = 1), read at
    after[``place``, ``stage``].  Inserts that feed one row of one stage sum
    into one B: ``starts`` begins each sum (None when every sum has one
    term), and stage s applies sums ``lo:hi`` for each (s, lo, hi) in
    ``spans``.
    """

    ops: np.ndarray
    inner: np.ndarray
    place: np.ndarray
    stage: np.ndarray
    starts: np.ndarray | None
    spans: tuple[tuple[int, int, int], ...]

    def matrices(self, after: np.ndarray) -> np.ndarray:
        ops = self.ops
        if self.inner.size:
            s = after[self.place, self.stage]
            ops = ops.copy()
            ops[self.inner] = s @ self.ops[self.inner] @ s.conj().swapaxes(-1, -2)
        return ops if self.starts is None else np.add.reduceat(ops, self.starts)


def _selection(places: list[int]):
    """Buffer places as a slice where they run in steps of one either way, else as an index array."""
    if not places:
        return None
    step = 1 if len(places) == 1 or places[1] > places[0] else -1
    if places == list(range(places[0], places[0] + step * len(places), step)):
        return slice(places[0], places[0] + step * len(places), step)
    return np.array(places)


@dataclass(frozen=True)
class RowPlan:
    """Local matrices inserted after gates, each feeding one row of a sweep's buffer.

    ``groups[g]`` holds the inserts on the circuit's stage group g.  Rows
    are numbered twice: forward, in the order the stages first touch them
    from the circuit's start, and backward, from its end.  ``fwd_live[s]``
    counts the rows touched before stage s and ``bwd_live[s]`` those
    touched at stage s or later.  A sweep's buffer holds the state, then
    forward row f at place 1 + f, and from its back H psi (last), then
    backward row j at place -2 - j; ``fwd[s]`` and ``bwd[s]`` select stage
    s's places (None when it has none).  ``order[key]`` is the forward row
    of key ``key``, and the row a sweep returns it in; ``meet[j]`` is that
    of backward row j.  ``middle`` is the frame that needs the fewest row
    applications for a sweep that also pulls H psi back.  ``held[m]``
    counts the rows per input state that a sweep in frame m holds at its
    peak.
    """

    groups: tuple[GroupInserts, ...]
    fwd: tuple
    bwd: tuple
    fwd_live: tuple[int, ...]
    bwd_live: tuple[int, ...]
    order: np.ndarray
    meet: np.ndarray
    middle: int
    held: tuple[int, ...]


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
            stages.append(Stage(targets, tuple(positions), core.batch_kernel(self.num_qudits, self.local_dim, targets)))
        return tuple(stages)

    @cached_property
    def stage_groups(self) -> tuple[StageGroup, ...]:
        """The stages grouped by block size, built on first use."""
        by_size: dict[int, list[int]] = {}
        for s, st in enumerate(self.stages):
            by_size.setdefault(len(st.targets), []).append(s)
        return tuple(self._group(idx) for idx in by_size.values())

    def _group(self, idx: list[int]) -> StageGroup:
        d = self.local_dim
        members = [self.stages[s] for s in idx]
        width = max(len(st.positions) for st in members)
        levels, projectors, cell, slots, level = [], [], [], [], []
        owned: dict[bytes, list[int]] = {}  # each distinct lifted generator's levels
        for i, st in enumerate(members):
            for j, p in enumerate(st.positions, start=width - len(st.positions)):
                gate = self.gates[p]
                g = _lift(gate.generator.matrix, gate.targets, st.targets, d)
                own = owned.setdefault(g.tobytes(), [])
                if not own:
                    w, v = np.linalg.eigh(g)
                    gap = 1e-9 * np.abs(w).max()
                    for block in np.split(np.arange(w.size), np.flatnonzero(np.diff(w) > gap) + 1):
                        if abs(w[block].mean()) > gap:
                            own.append(len(levels))
                            levels.append(w[block].mean())
                            projectors.append(v[:, block] @ v[:, block].conj().T)
                cell += [j * len(idx) + i] * len(own)
                slots += [gate.slot] * len(own)
                level += own
        return StageGroup(
            tuple(idx),
            width,
            np.array(cell, dtype=np.intp),
            np.array(slots, dtype=np.intp),
            np.array(level, dtype=np.intp),
            np.array(levels),
            np.array(projectors, dtype=complex),
        )

    def row_plan(self, ops: Sequence[Sequence[tuple[int, np.ndarray]]]) -> RowPlan:
        """Plan a sweep that inserts each (key, O) of ``ops[p]`` after gate p.

        O acts on gate p's targets.  Keys must be 0 .. R-1.  ``middle``
        minimizes the rows the kernels apply: a stage before the frame
        pushes the state and its live rows and applies one matrix per row
        it touches; a stage from the frame on pushes the state, applies its
        matrices, and pulls H psi and its live rows back.
        """
        d = self.local_dim
        touched = []  # per stage: key -> [(place in the stage, lifted O)], in first-touch order
        for st in self.stages:
            here: dict[int, list] = {}
            for k, p in enumerate(st.positions):
                for key, op in ops[p]:
                    here.setdefault(key, []).append((k, _lift(op, self.gates[p].targets, st.targets, d)))
            touched.append(here)
        last = len(touched)
        fwd_row: dict[int, int] = {}
        fwd_live = []
        for here in touched:
            fwd_live.append(len(fwd_row))
            for key in here:
                fwd_row.setdefault(key, len(fwd_row))
        fwd_live.append(len(fwd_row))
        bwd_row: dict[int, int] = {}
        bwd_live = [0] * (last + 1)
        for s in range(last - 1, -1, -1):
            for key in touched[s]:
                bwd_row.setdefault(key, len(bwd_row))
            bwd_live[s] = len(bwd_row)
        count = [len(here) for here in touched]
        ahead = np.cumsum([0] + [1 + fwd_live[s] + count[s] for s in range(last)])
        behind = np.cumsum([0] + [2 + bwd_live[s] + count[s] for s in range(last - 1, -1, -1)])[::-1]
        held = [  # the buffer, and on top of it the widest kernel output or the gather that closes its gap
            2 + fwd_live[m] + bwd_live[m]
            + max(count + fwd_live[:m] + [1 + live for live in bwd_live[m:last]] + [len(fwd_row) - fwd_live[m]])
            for m in range(last + 1)
        ]
        return RowPlan(
            tuple(self._group_inserts(group, touched) for group in self.stage_groups),
            tuple(_selection([1 + fwd_row[key] for key in here]) for here in touched),
            tuple(_selection([-2 - bwd_row[key] for key in here]) for here in touched),
            tuple(fwd_live),
            tuple(bwd_live),
            np.array([fwd_row[key] for key in sorted(fwd_row)], dtype=np.intp),
            np.array([fwd_row[key] for key in bwd_row], dtype=np.intp),
            int(np.argmin(ahead + behind)),
            tuple(held),
        )

    def _group_inserts(self, group: StageGroup, touched: list[dict]) -> GroupInserts:
        width, b = group.width, self.local_dim ** len(self.stages[group.stages[0]].targets)
        ops, inner, place, stage, starts, spans = [], [], [], [], [], []
        for i, s in enumerate(group.stages):
            offset = width - len(self.stages[s].positions)
            lo = len(starts)
            for entries in touched[s].values():
                starts.append(len(ops))
                for k, op in entries:
                    if offset + k < width - 1:
                        inner.append(len(ops))
                        place.append(offset + k + 1)
                        stage.append(i)
                    ops.append(op)
            if len(starts) > lo:
                spans.append((s, lo, len(starts)))
        return GroupInserts(
            np.array(ops, dtype=complex).reshape(-1, b, b),
            np.array(inner, dtype=np.intp),
            np.array(place, dtype=np.intp),
            np.array(stage, dtype=np.intp),
            None if len(starts) == len(ops) else np.array(starts, dtype=np.intp),
            tuple(spans),
        )

    @cached_property
    def tangent_plan(self) -> RowPlan:
        """-iG inserted after every gate, one bundle row per parameter slot."""
        return self.row_plan([[(g.slot, -1.0j * g.generator.matrix)] for g in self.gates])

    def _stage_matrices(self, theta: np.ndarray, plan: RowPlan) -> tuple[list, list]:
        """Every stage's unitary and its stacked inserts pushed to its output (None without inserts)."""
        us, bs = [None] * len(self.stages), [None] * len(self.stages)
        for group, inserts in zip(self.stage_groups, plan.groups):
            after = group.suffixes(theta)
            for i, s in enumerate(group.stages):
                us[s] = after[0, i]
            if inserts.spans:
                pushed = inserts.matrices(after)
                for s, lo, hi in inserts.spans:
                    bs[s] = pushed[lo:hi]
        return us, bs

    def sweep(
        self,
        theta: Sequence[float],
        psi0: QuditRegister | np.ndarray,
        plan: RowPlan | None = None,
        frame: int | None = None,
        ham=None,
    ):
        """State and every row of ``plan``, in the frame before stage ``frame``.

        Returns (psi, rows, ref).  psi is the circuit's output state.
        rows[plan.order[key]] sums, over the insertions with that key, the
        circuit run from psi0 with O inserted after its gate, pulled back
        through the stages from ``frame`` on (by default none: the output
        frame).  ref stacks the state in that frame and, given ``ham``
        (anything with ``@``), H psi pulled back with the rows; inner
        products do not depend on the frame.  ``psi0`` is a register or a
        (k, D) block of inputs, carried together by every kernel call: psi,
        rows and ref then gain a k axis.

        Every row lives in one buffer, laid out as ``RowPlan`` says.  The
        stages before the frame run forward: each pushes the state, and the
        rows in use in a second kernel call, through its unitary, then adds
        its stacked inserts, applied to the new state in one call, into its
        rows.  The state runs on to the end.  The stages from the frame on
        then run backward: each adds its inserts, applied to its output
        state, into its rows and pulls H psi and the rows in use back in one
        call.  A row touched on both sides then adds its backward part into
        its forward row, and the rows touched only from the frame on close
        the gap.  With no plan, rows is empty.
        """
        theta = self._check_theta(theta)
        if plan is None:
            plan = self._no_rows
        stages, last = self.stages, len(self.stages)
        m = last if frame is None else frame
        if not 0 <= m <= last:
            raise ValueError(f"frame {m} out of range for {last} stages")
        block = psi0.amplitudes[None] if isinstance(psi0, QuditRegister) else np.asarray(psi0)
        k, dim = block.shape
        us, bs = self._stage_matrices(theta, plan)
        front, back = plan.fwd_live[m], plan.bwd_live[m]
        buf = np.zeros((2 + front + back, k, dim), dtype=complex)
        end = len(buf) - 1  # H psi's place
        buf[0] = block
        for s in range(m):
            kernel, live = stages[s].kernel, 1 + plan.fwd_live[s]
            buf[0] = kernel(buf[0], us[s])  # alone, so every sweep gives the same state bit for bit
            if live > 1:
                buf[1:live] = kernel(buf[1:live].reshape(-1, dim), us[s]).reshape(-1, k, dim)
            if bs[s] is not None:
                buf[plan.fwd[s]] += kernel(buf[0], bs[s]).reshape(-1, k, dim)
        outs = [buf[0]]
        for s in range(m, last):
            outs.append(stages[s].kernel(outs[-1], us[s]))
        psi = outs[-1].copy()
        stop = end
        if ham is not None:
            buf[end], stop = (ham @ psi.T).T, end + 1
        for s in range(last - 1, m - 1, -1):
            kernel, live, out = stages[s].kernel, end - plan.bwd_live[s], outs.pop()
            if bs[s] is not None:
                buf[plan.bwd[s]] += kernel(out, bs[s]).reshape(-1, k, dim)
            if live < stop:
                buf[live:stop] = kernel(buf[live:stop].reshape(-1, dim), us[s].conj().T).reshape(-1, k, dim)
        meet = plan.meet[:back]
        for j in np.flatnonzero(meet < front):
            buf[1 + meet[j]] += buf[end - 1 - j]
        after = np.flatnonzero(meet >= front)
        buf[1 + meet[after]] = buf[end - 1 - after]  # gathered first: the sources overlap the places
        ref = buf[[0] if ham is None else [0, end]]
        rows = buf[1 : 1 + plan.order.size]
        if isinstance(psi0, QuditRegister):
            return QuditRegister(psi0.num_qudits, self.local_dim, psi[0]), rows[:, 0], ref[:, 0]
        return psi, rows, ref

    @cached_property
    def _no_rows(self) -> RowPlan:
        return self.row_plan([()] * len(self.gates))

    def state(self, theta: Sequence[float], psi0: QuditRegister) -> QuditRegister:
        return self.sweep(theta, psi0)[0]

    def tangents(self, theta: Sequence[float], psi0: QuditRegister | np.ndarray, frame: int | None = None, ham=None):
        """State and all tangent vectors in one sweep.

        Returns (psi, T, ref) where T[:, order[mu]] = d|psi>/d theta_mu,
        with ``order`` = ``tangent_plan.order``, the sum over the gates
        sharing slot mu of the product rule, in the frame before stage
        ``frame``; ``psi0``, ``frame`` and ``ham`` act as in ``sweep``, and
        for a block T[:, j, order[mu]] is input state j's tangent.
        """
        psi, rows, ref = self.sweep(theta, psi0, self.tangent_plan, frame, ham)
        return psi, rows.T, ref

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


@cache
def _rotation_generator(d: int, i: int, j: int, phi: float) -> LocalOperator:
    """(cos phi X + sin phi Y) / 2 on levels (i, j), built once and placed on each qudit with ``on``."""
    sigma = np.cos(phi) * embedded_pauli(d, i, j, "X").matrix + np.sin(phi) * embedded_pauli(
        d, i, j, "Y"
    ).matrix
    return LocalOperator(d, (0,), sigma / 2.0, hermitian=True)


@cache
def _rz_generator(d: int, i: int, j: int) -> LocalOperator:
    return LocalOperator(d, (0,), embedded_pauli(d, i, j, "Z").matrix / 2.0, hermitian=True)


# Rotation blocks, listed in application order (rightmost factor first).
_SHALLOW_BLOCK = [("rot", (1, 2), _HALF_PI), ("rot", (0, 2), 0.0), ("rot", (0, 1), 0.0)]
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


def _append_blocks(gates, blocks, d, next_slot):
    """Append one layer's rotation blocks, group by group; ``blocks`` pairs each group's qudits with its block.

    A group's qudits share one slot per block entry.
    """
    for qudits, block in blocks:
        for q in qudits:
            for k, spec in enumerate(block):
                if spec[0] == "rz":
                    i, j = spec[1]
                    gates.append(Gate("rz", (q,), next_slot + k, _rz_generator(d, i, j).on(q), (i, j)))
                else:
                    _, (i, j), phi = spec
                    gates.append(
                        Gate("rotation", (q,), next_slot + k, _rotation_generator(d, i, j, phi).on(q), (i, j), phi)
                    )
        next_slot += len(block)
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
    if mode == "imag":
        blocks = [(qudits, _SHALLOW_BLOCK) for qudits in groups.values()]
    else:
        blocks = [(qudits, _DEEP_EDGE_BLOCK if name == "edge" else _DEEP_BLOCK) for name, qudits in groups.items()]
    gates: list[Gate] = []
    next_slot = 0
    # Entangling on the (1, 2) subspace: from the all-|1> vacuum this is the
    # transition the projected hopping drives, and it is what lets the
    # shallow circuits reach the reported ground-state fidelities.
    ms_levels = (1, 2)
    ms_gen = ms_generator(d, *ms_levels)
    for _ in range(layers):
        next_slot = _append_blocks(gates, blocks, d, next_slot)
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
    blocks = [([q], _DEEP_BLOCK) for q in range(4)]
    gates: list[Gate] = []
    next_slot = 0
    loop_gen = None
    if include_plaquette_gate:
        lattice = plaquette_lattice(d, boundary)
        loop = plaquette_loop_op(lattice, electric_offset, link_amplitude)
        loop_gen = LocalOperator(d, (0, 1, 2, 3), loop.matrix + loop.matrix.conj().T, hermitian=True)
    crot_gen = crot_generator(d)
    for _ in range(layers):
        next_slot = _append_blocks(gates, blocks, d, next_slot)
        for a, b in ((0, 1), (1, 2), (2, 3), (3, 0)):
            gates.append(Gate("crot", (a, b), next_slot, crot_gen.on(a, b)))
            next_slot += 1
        if include_plaquette_gate:
            gates.append(Gate("plaq", (0, 1, 2, 3), next_slot, loop_gen.on(0, 1, 2, 3)))
            next_slot += 1
    return Circuit(tuple(gates), next_slot, 4, d, layers, f"plaquette_{mode}")


def random_initial_params(circuit: Circuit, seed: int, halfwidth: float = np.pi / 4.0) -> np.ndarray:
    """Uniform draw over [-halfwidth, halfwidth] for every slot."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-halfwidth, halfwidth, circuit.num_params)
