"""Exact reference computations: block spectra and exact time evolution.

Gauss's law splits the Hamiltonian's nonzero pattern into small connected
components of the basis, since the hopping conserves the local charges.
``sector_spectrum`` lifts every term's nonzero local entries to global
indices, finds the components, and diagonalizes all components of one size
with one batched ``eigh``, so the whole spectrum costs about the sum of b^3
over blocks of size b, not D^3.  ``eigendecompose`` is the one-block case of
the same ``Spectrum`` for a dense matrix.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import check_hermitian
from .model import DIM_CAP, CapError, HamiltonianSpec

DEGENERACY_ATOL = 1e-10


@dataclass(frozen=True)
class SizeClass:
    """All blocks of one size b: global indices (n, b), H blocks (n, b, b) and their eigenpairs."""

    indices: np.ndarray
    blocks: np.ndarray
    eigenvalues: np.ndarray  # (n, b), ascending within each block
    eigenvectors: np.ndarray  # (n, b, b), one eigenvector per column

    @classmethod
    def diagonalize(cls, indices: np.ndarray, blocks: np.ndarray) -> "SizeClass":
        check_hermitian(blocks, "Hamiltonian", rtol=1e-10)
        if blocks.shape[1] == 1:
            return cls(indices, blocks, blocks[:, :, 0].real, np.ones_like(blocks))
        w, v = np.linalg.eigh(blocks)
        return cls(indices, blocks, w, v)

    def coefficients(self, psi: np.ndarray) -> np.ndarray:
        """<v|psi> for every eigenvector v of every block, shape (n, b)."""
        return np.einsum("nji,nj->ni", self.eigenvectors.conj(), psi[self.indices])


class Spectrum:
    """Block-diagonal Hermitian H with the eigenpairs of every block.

    ``eigenvalues`` ascend over all blocks; every other per-eigenvector
    quantity uses that merged order.  ``H @ x`` applies the blocks to a
    vector or to each column of a D x k matrix.
    """

    def __init__(self, classes: Sequence[SizeClass]):
        self.classes = tuple(classes)
        self.dim = sum(c.indices.size for c in self.classes)
        flat = np.concatenate([c.eigenvalues.ravel() for c in self.classes])
        self._order = np.argsort(flat, kind="stable")
        self.eigenvalues = flat[self._order]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.dim, self.dim)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        out = np.empty(x.shape, dtype=np.result_type(x, complex))
        for c in self.classes:
            out[c.indices] = np.einsum("nij,nj...->ni...", c.blocks, x[c.indices])
        return out

    @property
    def ground_energy(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def ground_vector(self) -> np.ndarray:
        return self.eigenvector(0)

    def eigenvector(self, k: int) -> np.ndarray:
        """The k-th eigenvector in merged order, as a full-length vector."""
        p = int(self._order[k])
        for c in self.classes:
            if p < c.eigenvalues.size:
                n, j = divmod(p, c.eigenvalues.shape[1])
                out = np.zeros(self.dim, dtype=complex)
                out[c.indices[n]] = c.eigenvectors[n, :, j]
                return out
            p -= c.eigenvalues.size
        raise IndexError(f"eigenvector {k} of {self.dim}")

    def weights(self, psi: np.ndarray) -> np.ndarray:
        """|<v_k|psi>|^2 for every eigenvector v_k, in merged order."""
        flat = np.concatenate([np.abs(c.coefficients(psi)).ravel() ** 2 for c in self.classes])
        return flat[self._order]

    def apply(self, f: Callable[[np.ndarray], np.ndarray], psi: np.ndarray) -> np.ndarray:
        """f(H) |psi> for a function f of the eigenvalues."""
        out = np.empty(psi.shape, dtype=complex)
        for c in self.classes:
            out[c.indices] = np.einsum("nij,nj->ni", c.eigenvectors, f(c.eigenvalues) * c.coefficients(psi))
        return out

    def ground_multiplicity(self) -> int:
        w = self.eigenvalues
        scale = max(1.0, float(np.max(np.abs(w))))
        return int(np.sum(w - w[0] < DEGENERACY_ATOL * scale))

    def ground_projector_overlap(self, psi: np.ndarray) -> float:
        """Squared overlap with the (possibly degenerate) ground space."""
        return float(np.sum(self.weights(psi)[: self.ground_multiplicity()]))


def _offsets(d: int, qudits: Sequence[int]) -> np.ndarray:
    """Global index of every configuration of ``qudits``, qudits[0] most significant, the rest at level 0."""
    out = np.zeros(1, dtype=np.int64)
    for q in qudits:
        out = (out[:, None] + d**q * np.arange(d)).ravel()
    return out


def _entries(ham: HamiltonianSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Global (row, col, value) of every nonzero of H.

    The single-qudit diagonal terms (electric and mass) come first, summed
    per qudit and broadcast into one entry per basis state; then every other
    term's nonzero local entries, in term order.  A local index puts
    targets[0] most significant; a global index is little-endian.
    """
    n, d = ham.num_qudits, ham.lattice.local_dim
    on_site = np.zeros((n, d), dtype=complex)
    rows, cols, vals = [np.arange(d**n)], [np.arange(d**n)], []
    for coef, op in ham.terms:
        i, j = np.nonzero(op.matrix)
        if len(op.targets) == 1 and (i == j).all():
            on_site[op.targets[0]] += coef * op.matrix.diagonal()
            continue
        # Every state with the targets at level 0, plus the offset of each local configuration.
        rest = _offsets(d, [q for q in range(n) if q not in op.targets])
        offset = _offsets(d, op.targets)
        rows.append((rest[:, None] + offset[i]).ravel())
        cols.append((rest[:, None] + offset[j]).ravel())
        vals.append((np.zeros((rest.size, 1)) + coef * op.matrix[i, j]).ravel())
    diag = np.zeros((d,) * n, dtype=complex)
    for q in range(n):  # qudit q is axis n-1-q of the C-ordered state array
        diag += on_site[q].reshape((d,) + (1,) * q)
    return np.concatenate(rows), np.concatenate(cols), np.concatenate([diag.ravel(), *vals])


def _components(dim: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The smallest basis index in the connected component of each basis index.

    Label propagation along the edges, with pointer jumping: every label is
    an index of the same component, so label[label] is one too.
    """
    label = np.arange(dim)
    while True:
        new = label.copy()
        np.minimum.at(new, rows, label[cols])
        np.minimum.at(new, cols, label[rows])
        new = new[new]
        if (new == label).all():
            return label
        label = new


def sector_spectrum(ham: HamiltonianSpec) -> Spectrum:
    """Spectrum of H from its connected components, one batched eigh per block size."""
    rows, cols, vals = _entries(ham)
    dim = ham.lattice.local_dim**ham.num_qudits
    off = rows != cols
    label = _components(dim, rows[off], cols[off])
    # Basis states sorted by component size, then component; each component in ascending order.
    node_size = np.bincount(label, minlength=dim)[label]
    order = np.argsort(node_size * dim + label, kind="stable")
    sorted_size = node_size[order]
    # Each state's flat offset in its class's stacked blocks: start of its block, and its row there.
    start, pos = np.empty(dim, dtype=np.int64), np.empty(dim, dtype=np.int64)
    groups, base = [], 0
    for b in np.flatnonzero(np.bincount(sorted_size)):
        idx = order[sorted_size == b].reshape(-1, b)
        pos[idx] = np.arange(b)
        start[idx] = base + b * b * np.arange(idx.shape[0])[:, None]
        groups.append((idx, base))
        base += idx.size * b
    flat = start[rows] + pos[rows] * node_size[rows] + pos[cols]
    buf = np.empty(base, dtype=complex)
    buf.real = np.bincount(flat, vals.real, base)
    buf.imag = np.bincount(flat, vals.imag, base)
    classes = []
    for idx, at in groups:
        b = idx.shape[1]
        classes.append(SizeClass.diagonalize(idx, buf[at : at + idx.size * b].reshape(-1, b, b)))
    return Spectrum(classes)


def eigendecompose(h: np.ndarray) -> Spectrum:
    """Spectrum of a dense Hermitian matrix, as one block.

    The fixture bootstrap reads it through ``ground_state``, and the
    benchmark's tracer wraps it by name.
    """
    if h.shape[0] > DIM_CAP:
        raise CapError(f"dimension {h.shape[0]} exceeds the dense cap {DIM_CAP}")
    return Spectrum([SizeClass.diagonalize(np.arange(h.shape[0])[None, :], h[None])])


def ground_state(h: np.ndarray) -> tuple[float, np.ndarray, int]:
    """Lowest eigenpair and the ground-space multiplicity."""
    spec = eigendecompose(h)
    return spec.ground_energy, spec.ground_vector, spec.ground_multiplicity()


def evolve_real(spec: Spectrum, psi0: np.ndarray, t: float) -> np.ndarray:
    """exp(-i H t) |psi0> from a precomputed spectrum."""
    return spec.apply(lambda w: np.exp(-1.0j * w * t), psi0)
