"""Dense statevector backend for small registers of d-level systems.

Amplitude indexing is little-endian: qudit 0 varies fastest, so a basis
state with levels (l_0, ..., l_{n-1}) sits at index sum_k l_k * d**k.
"""
from __future__ import annotations

import copy
import functools
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

HERMITIAN_ATOL = 1e-12
ENTROPY_EIG_FLOOR = 1e-14


def check_hermitian(a: np.ndarray, what: str, atol: float = 0.0, rtol: float = 0.0) -> None:
    """Raise ValueError unless max|A - A^dag| <= atol + rtol * max(1, max|A|); A may be a stack of matrices."""
    err = float(np.max(np.abs(a - a.conj().swapaxes(-1, -2))))
    bound = atol + (rtol * max(1.0, float(np.max(np.abs(a)))) if rtol else 0.0)
    if err > bound:
        raise ValueError(f"{what} is not Hermitian: ||A - A^dag||_max = {err:.3e}")


@dataclass(frozen=True)
class QuditRegister:
    """Complex amplitude vector over ``num_qudits`` qudits of dimension ``local_dim``."""

    num_qudits: int
    local_dim: int
    amplitudes: np.ndarray

    def __post_init__(self):
        expected = self.local_dim**self.num_qudits
        if self.amplitudes.shape != (expected,):
            raise ValueError(
                f"amplitude vector has length {self.amplitudes.shape}, expected ({expected},)"
            )

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def tensor_view(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per qudit, qudit 0 last."""
        return self.amplitudes.reshape((self.local_dim,) * self.num_qudits)

    def qudit_axis(self, q: int) -> int:
        # C-order reshape puts the fastest-varying (qudit 0) index last.
        return self.num_qudits - 1 - q


def _check_distinct(targets: tuple[int, ...]) -> None:
    if len(set(targets)) != len(targets):
        raise ValueError(f"duplicate target indices: {tuple(targets)}")


@dataclass(frozen=True)
class LocalOperator:
    """Dense operator on a few qudits.

    ``matrix`` is indexed with ``targets[0]`` as the most significant local
    factor, i.e. it equals the Kronecker product of single-qudit factors in
    list order.
    """

    local_dim: int
    targets: tuple[int, ...]
    matrix: np.ndarray
    hermitian: bool = False

    def __post_init__(self):
        k = len(self.targets)
        _check_distinct(self.targets)
        dim = self.local_dim**k
        if self.matrix.shape != (dim, dim):
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not match {k} targets of dim {self.local_dim}"
            )
        if self.hermitian:
            check_hermitian(self.matrix, "flagged operator", atol=HERMITIAN_ATOL)

    def on(self, *targets: int) -> "LocalOperator":
        """The same operator on new target qudits.

        The two share one matrix, already checked, which is made read-only.
        """
        if len(targets) != len(self.targets):
            raise ValueError(f"expected {len(self.targets)} targets, got {len(targets)}")
        _check_distinct(targets)
        self.matrix.flags.writeable = False
        op = copy.copy(self)
        object.__setattr__(op, "targets", tuple(targets))
        return op

    def dagger(self) -> "LocalOperator":
        return replace(self, matrix=self.matrix.conj().T)

    def is_unitary(self, atol: float = 1e-10) -> bool:
        eye = np.eye(self.matrix.shape[0])
        return bool(np.max(np.abs(self.matrix @ self.matrix.conj().T - eye)) < atol)


def basis_state(num_qudits: int, local_dim: int, levels: Sequence[int]) -> QuditRegister:
    """Computational basis state with the given level on each qudit."""
    if len(levels) != num_qudits:
        raise ValueError(f"got {len(levels)} levels for {num_qudits} qudits")
    index = 0
    for k, level in enumerate(levels):
        if not 0 <= level < local_dim:
            raise ValueError(f"level {level} out of range for local_dim {local_dim}")
        index += level * local_dim**k
    amps = np.zeros(local_dim**num_qudits, dtype=complex)
    amps[index] = 1.0
    return QuditRegister(num_qudits, local_dim, amps)


def embedded_pauli(d: int, i: int, j: int, axis: str) -> LocalOperator:
    """Two-level Pauli matrix on levels (i, j) of a d-level system."""
    if not 0 <= i < j < d:
        raise ValueError(f"need 0 <= i < j < d, got i={i}, j={j}, d={d}")
    m = np.zeros((d, d), dtype=complex)
    if axis == "X":
        m[i, j] = m[j, i] = 1.0
    elif axis == "Y":
        m[i, j] = -1.0j
        m[j, i] = 1.0j
    elif axis == "Z":
        m[i, i] = 1.0
        m[j, j] = -1.0
    else:
        raise ValueError(f"unknown axis {axis!r}")
    return LocalOperator(d, (0,), m, hermitian=True)


def level_projector(d: int, m: int) -> LocalOperator:
    """Projector |m><m| on a single qudit."""
    if not 0 <= m < d:
        raise ValueError(f"level {m} out of range for d={d}")
    mat = np.zeros((d, d), dtype=complex)
    mat[m, m] = 1.0
    return LocalOperator(d, (0,), mat, hermitian=True)


def ms_generator(d: int, i: int, j: int) -> LocalOperator:
    """Hermitian generator (X (x) 1 + 1 (x) X)^2 / 4 of the MS gate."""
    sx = embedded_pauli(d, i, j, "X").matrix
    eye = np.eye(d)
    s = np.kron(sx, eye) + np.kron(eye, sx)
    return LocalOperator(d, (0, 1), (s @ s) / 4.0, hermitian=True)


def crot_generator(d: int = 3) -> LocalOperator:
    if d != 3:
        raise ValueError("CROT is defined for qutrits (d = 3)")
    gen = np.zeros((9, 9), dtype=complex)
    gen[6:9, 6:9] = embedded_pauli(3, 1, 2, "X").matrix / 2.0
    return LocalOperator(3, (0, 1), gen, hermitian=True)


_ONE_GEMM_BLOCK = 27  # widest lifted block a single or adjacent-pair kernel applies as one GEMM


@functools.cache
def _block_index(d: int, k: int, lift: int) -> np.ndarray:
    """Read-only flat index into [matrix.ravel(), 0] of kron(matrix in amplitude order, I_lift).

    ``matrix`` acts on one qudit (k = 1) or an ascending adjacent pair
    (k = 2), whose amplitude blocks are indexed (l_{t+1}, l_t) while the
    matrix carries targets[0] major.
    """
    m = d**k
    perm = np.arange(d) if k == 1 else (np.arange(m) % d) * d + np.arange(m) // d
    index = np.full((m, lift, m, lift), m * m)
    index[:, range(lift), :, range(lift)] = perm[:, None] * m + perm
    index = index.reshape(m * lift, m * lift)
    index.flags.writeable = False
    return index


def batch_kernel(num_qudits: int, d: int, targets: Sequence[int]):
    """Plan for applying a target-local matrix to batches of amplitude rows.

    Rows factor as (d,)*n in C order with qudit 0 last.  Single qudits and
    ascending adjacent pairs act on a contiguous block of d^k levels followed
    by ``post`` faster-varying amplitudes.  When d^k * post <= _ONE_GEMM_BLOCK
    the matrix is lifted to kron(matrix, I_post) and applied to all rows as
    one GEMM; otherwise as a batched matmul over the ``post`` axis.  The full
    register is one GEMM against the matrix permuted into amplitude order;
    anything else falls back to a moveaxis contraction.

    A stack of n matrices applies each one to every row and returns their
    n * batch rows, matrix-major, from the same single call.
    """
    targets = tuple(targets)
    k = len(targets)
    axes = tuple(num_qudits - 1 - t for t in targets)

    if k == 1 or (k == 2 and targets[1] == targets[0] + 1):
        m = d**k
        post = d ** targets[0]
        lift = post if m * post <= _ONE_GEMM_BLOCK else 1
        rest = post // lift
        index = _block_index(d, k, lift)

        def run(rows: np.ndarray, matrix: np.ndarray) -> np.ndarray:
            flat = np.zeros(matrix.shape[:-2] + (m * m + 1,), dtype=complex)
            flat[..., :-1] = matrix.reshape(flat.shape[:-1] + (m * m,))
            mat = flat.take(index, axis=-1)
            if rest == 1:
                out = rows.reshape(-1, m * lift) @ mat.swapaxes(-1, -2)
            else:
                out = np.matmul(mat[..., None, :, :], rows.reshape(-1, m, rest))
            return out.reshape(-1, rows.shape[1])

        return run

    if k == num_qudits:
        dim = d**num_qudits
        loc = local_index(targets, d, num_qudits)
        index = loc[:, None] * dim + loc[None, :]

        def run(rows: np.ndarray, matrix: np.ndarray) -> np.ndarray:
            mat = matrix.reshape(matrix.shape[:-2] + (-1,)).take(index, axis=-1)
            return (rows @ mat.swapaxes(-1, -2)).reshape(-1, rows.shape[1])

        return run

    def run(rows: np.ndarray, matrix: np.ndarray) -> np.ndarray:
        batch, lead = rows.shape[0], matrix.shape[:-2]
        tensor = rows.reshape((batch,) + (d,) * num_qudits)
        moved = np.moveaxis(tensor, [a + 1 for a in axes], range(1, k + 1))
        out = np.matmul(matrix[..., None, :, :], moved.reshape(batch, d**k, -1)).reshape(lead + moved.shape)
        first = len(lead) + 1
        back = np.moveaxis(out, range(first, first + k), [a + first for a in axes])
        return back.reshape(-1, rows.shape[1])

    return run


# apply's one caller, measure.hadamard_test, runs in no command; both stay
# because the benchmark's tracer (perfbench/child.py) wraps them by name.
def apply(state: QuditRegister, op: LocalOperator) -> QuditRegister:
    """Apply a local operator by strided contraction over its target qudits."""
    if op.local_dim != state.local_dim:
        raise ValueError(f"operator dim {op.local_dim} != register dim {state.local_dim}")
    for t in op.targets:
        if not 0 <= t < state.num_qudits:
            raise ValueError(f"target qudit {t} out of range for {state.num_qudits} qudits")
    kernel = batch_kernel(state.num_qudits, state.local_dim, op.targets)
    out = kernel(state.amplitudes.reshape(1, -1), op.matrix)
    return replace(state, amplitudes=out.reshape(-1))


def inner(a: QuditRegister, b: QuditRegister) -> complex:
    """Hilbert inner product <a|b>."""
    if a.amplitudes.shape != b.amplitudes.shape:
        raise ValueError("register shapes differ")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def reduced_density_matrix(state: QuditRegister, subset: Sequence[int]) -> np.ndarray:
    """The density matrix of ``subset``: trace out its complement."""
    subset = tuple(sorted(set(subset)))
    if not subset or len(subset) >= state.num_qudits:
        raise ValueError(f"subset must be nonempty and proper, got {subset}")
    if subset[0] < 0 or subset[-1] >= state.num_qudits:
        raise ValueError(f"subset {subset} out of range")
    d = state.local_dim
    axes_a = [state.qudit_axis(q) for q in subset]
    tensor = np.moveaxis(state.tensor_view(), axes_a, range(len(subset)))
    psi = tensor.reshape(d ** len(subset), -1)
    return psi @ psi.conj().T


def entanglement_entropy(state: QuditRegister, cut: Sequence[int]) -> float:
    """Von Neumann entropy (nats) of the reduced state on ``cut``."""
    cut = tuple(sorted(set(cut)))
    # Trace over the larger side; the spectrum is shared between both.
    if len(cut) > state.num_qudits - len(cut):
        cut = tuple(q for q in range(state.num_qudits) if q not in cut)
    lam = np.linalg.eigvalsh(reduced_density_matrix(state, cut))
    lam = lam[lam > ENTROPY_EIG_FLOOR]
    return float(-np.sum(lam * np.log(lam)))


# No run path calls hermitian_expm: it stays because the benchmark's tracer
# (perfbench/child.py) wraps it by name, and the tests' gate references use it.
def hermitian_expm(a: np.ndarray, factor: complex) -> np.ndarray:
    """exp(factor * a) for Hermitian ``a`` through its eigendecomposition."""
    w, v = np.linalg.eigh(a)
    return (v * np.exp(factor * w)) @ v.conj().T


def lift_operator(op: LocalOperator, num_qudits: int, local_dim: int | None = None) -> np.ndarray:
    """Kronecker-lift a local operator to the full register space."""
    d = local_dim if local_dim is not None else op.local_dim
    if d != op.local_dim:
        raise ValueError("local dimension mismatch")
    for t in op.targets:
        if not 0 <= t < num_qudits:
            raise ValueError(f"target {t} out of range for {num_qudits} qudits")
    k = len(op.targets)
    rest = num_qudits - k
    big = np.kron(op.matrix, np.eye(d**rest, dtype=complex))
    if rest == 0 and op.targets == tuple(range(num_qudits - 1, -1, -1)):
        return big
    # Row/column axes of `big` follow the sequence [targets..., remaining desc];
    # permute into canonical order (qudit n-1 first, qudit 0 last).
    others = [q for q in range(num_qudits - 1, -1, -1) if q not in op.targets]
    seq = list(op.targets) + others
    perm = [seq.index(q) for q in range(num_qudits - 1, -1, -1)]
    tensor = big.reshape((d,) * (2 * num_qudits))
    tensor = tensor.transpose(perm + [p + num_qudits for p in perm])
    dim = d**num_qudits
    return tensor.reshape(dim, dim)


def local_index(targets: Sequence[int], d: int, num_qudits: int) -> np.ndarray:
    """Each register basis state's row in a matrix on ``targets`` (targets[0] most significant).

    A diagonal ``local`` on ``targets`` lifts to the register as ``local[local_index(...)]``.
    """
    idx = np.arange(d**num_qudits)
    k = len(targets)
    loc = np.zeros(idx.size, dtype=np.int64)
    for pos, t in enumerate(targets):
        loc += ((idx // d**t) % d) * d ** (k - 1 - pos)
    return loc


def lift_diagonal(op: LocalOperator, num_qudits: int) -> np.ndarray:
    """Diagonal of the lifted operator, for operators that are diagonal already."""
    offdiag = op.matrix - np.diag(np.diag(op.matrix))
    if np.max(np.abs(offdiag)) > 1e-14:
        raise ValueError("operator is not diagonal")
    return np.diag(op.matrix)[local_index(op.targets, op.local_dim, num_qudits)]
