"""Exact references built apart from the program's dense path.

The Hamiltonian comes from the model's term list, lifted to the full space
by digit decoding; the ground energy and exp(-iHt)|psi0> come from
numpy.linalg.  Neither ``model.materialize``, ``core.lift_operator`` nor
``oracle`` is used, so a change to those leaves the reference unchanged.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _index_table(targets, num_qudits: int, d: int) -> np.ndarray:
    """idx[r, l]: full index of local configuration l on ``targets`` and rest r.

    The local index puts targets[0] most significant; the full index is
    little-endian (qudit 0 varies fastest).
    """
    k = len(targets)
    rest = [q for q in range(num_qudits) if q not in targets]
    local = np.arange(d**k)
    others = np.arange(d ** len(rest))
    idx = np.zeros((others.size, local.size), dtype=np.int64)
    for pos, t in enumerate(targets):
        idx += ((local // d ** (k - 1 - pos)) % d)[None, :] * d**t
    for pos, q in enumerate(rest):
        idx += ((others // d**pos) % d)[:, None] * d**q
    return idx


def lift_terms(terms, num_qudits: int, d: int) -> np.ndarray:
    """Dense sum of coef * (local operator lifted by digit decoding)."""
    dim = d**num_qudits
    h = np.zeros((dim, dim), dtype=complex)
    for coef, op in terms:
        idx = _index_table(op.targets, num_qudits, d)
        h[idx[:, :, None], idx[:, None, :]] += coef * op.matrix[None, :, :]
    return h


def lift_diagonal(op, num_qudits: int, d: int) -> np.ndarray:
    """Diagonal of a lifted diagonal local operator."""
    idx = _index_table(op.targets, num_qudits, d)
    out = np.zeros(d**num_qudits)
    out[idx] = np.diag(op.matrix).real[None, :]
    return out


@dataclass(frozen=True)
class Reference:
    ground_energy: float
    eigenvalues: np.ndarray | None  # full spectrum, only when evolution is needed
    eigenvectors: np.ndarray | None
    psi0: np.ndarray
    n_diags: np.ndarray  # (num_sites, dim) site occupations

    def evolve(self, t: float) -> np.ndarray:
        coeffs = self.eigenvectors.conj().T @ self.psi0
        return self.eigenvectors @ (np.exp(-1.0j * self.eigenvalues * t) * coeffs)

    def occupations(self, t: float) -> np.ndarray:
        return self.n_diags @ (np.abs(self.evolve(t)) ** 2)


def build(model_cfg: dict, evolution: bool) -> Reference:
    """Reference for a config's ``model`` section (defaults as in the program)."""
    from quditgauge import model

    g, mass = model_cfg.get("g", 1.0), model_cfg.get("mass", 0.1)
    if model_cfg.get("dimension", 1) == 1:
        spec = model.chain_hamiltonian(model_cfg["num_links"], g, mass)
    else:
        spec = model.plaquette_hamiltonian(g, mass)
    n, d = spec.num_qudits, spec.lattice.local_dim
    h = lift_terms(spec.terms, n, d)
    if np.max(np.abs(h - h.conj().T)) > 1e-12:
        raise ValueError("reference Hamiltonian is not Hermitian")
    if evolution:
        w, v = np.linalg.eigh(h)
    else:
        w, v = np.linalg.eigvalsh(h), None
    psi0 = np.zeros(d**n, dtype=complex)
    psi0[sum(d**q for q in range(n))] = 1.0  # every link in level 1
    ops = model.fermion_number_ops(spec.lattice, spec.electric_offset)
    n_diags = np.stack([lift_diagonal(op, n, d) for op in ops])
    return Reference(float(w[0]), w if evolution else None, v, psi0, n_diags)
