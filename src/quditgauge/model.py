"""U(1) gauge-field Hamiltonians on qudit registers.

Matter degrees of freedom are already integrated out: the builders here
produce the purely link-field Hamiltonians for an open chain of L links
and for a single four-link plaquette, together with the local charge
(Gauss) observables and the unitary decompositions needed by the
ancilla-based measurement emulation.

Electric-field conventions: ``symmetric`` places the levels at
E = l - (d-1)/2 so the all-|1> qutrit state is the zero-field vacuum;
``as_printed`` uses E = l - d.  Link amplitudes: ``unit`` makes the raise
operator a bare shift, ``paper_u`` weights it with
u_l = sqrt(d(d+1) - (l-d)(l-d+1)).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    LocalOperator,
    check_hermitian,
    embedded_pauli,
    level_projector,
    lift_diagonal,
    lift_operator,
)

DIM_CAP = 6561


class CapError(ValueError):
    """Raised when a model or a dense matrix exceeds the supported dimension."""


@dataclass(frozen=True)
class LatticeSpec:
    """Geometry of the link register.

    1D: ``num_links`` qudits on an open chain, sites 0..L between and around
    them.  2D: a single plaquette whose four links map to qudits
    0 = bottom, 1 = right, 2 = top, 3 = left; the corner sites are
    (0,0), (1,0), (0,1), (1,1) in that order.  Fields outside the lattice
    are frozen at ``boundary``.
    """

    dimension: int
    num_links: int
    local_dim: int = 3
    boundary: float = 0.0

    def __post_init__(self):
        if self.dimension == 1:
            if self.num_links < 3:
                raise ValueError("chain needs at least 3 links for a hopping term")
        elif self.dimension == 2:
            if self.num_links != 4:
                raise ValueError("2D support is a single plaquette with 4 links")
        else:
            raise ValueError(f"unsupported dimension {self.dimension}")

    @property
    def num_sites(self) -> int:
        return self.num_links + 1 if self.dimension == 1 else 4

    def site_parity(self, site: int) -> int:
        """Staggered charge s_x: 0 on even sites, 1 on odd sites."""
        if self.dimension == 1:
            return site % 2
        return sum(_PLAQ_SITES[site]) % 2


def chain_lattice(num_links: int, local_dim: int = 3, boundary: float = 0.0) -> LatticeSpec:
    return LatticeSpec(1, num_links, local_dim, boundary)


def plaquette_lattice(local_dim: int = 3, boundary: float = 0.0) -> LatticeSpec:
    return LatticeSpec(2, 4, local_dim, boundary)


_PLAQ_SITES = [(0, 0), (1, 0), (0, 1), (1, 1)]
# (site, signed links): g_x = sum_i [E_out - E_in] + s_x on the plaquette,
# with out-of-lattice fields contributing `boundary` times the net count.
_PLAQ_GAUSS = {
    0: (((0, +1), (3, +1)), -2),
    1: (((1, +1), (0, -1)), 0),
    2: (((2, +1), (3, -1)), 0),
    3: (((2, -1), (1, -1)), +2),
}
# Mass-term sign (-1)^x of the site each link starts from: bottom/left at
# (0,0), right at (1,0), top at (0,1).
_PLAQ_MASS_SIGN = [+1, -1, -1, +1]


@dataclass(frozen=True)
class HamiltonianSpec:
    """Weighted sum of few-qudit Hermitian terms plus model metadata."""

    terms: tuple[tuple[float, LocalOperator], ...]
    coupling: float
    mass: float
    lattice: LatticeSpec
    electric_offset: str = "symmetric"
    link_amplitude: str = "unit"
    hopping_scale: float = 1.0

    @property
    def num_qudits(self) -> int:
        return self.lattice.num_links


@dataclass(frozen=True)
class UnitarySplit:
    """Hermitian S written as (norm/2) (U + U^dag) with unitary U."""

    norm: float
    unitary: LocalOperator


def electric_values(d: int, convention: str) -> np.ndarray:
    levels = np.arange(d, dtype=float)
    if convention == "symmetric":
        return levels - (d - 1) / 2.0
    if convention == "as_printed":
        return levels - d
    raise ValueError(f"unknown electric convention {convention!r}")


def electric_op(d: int, convention: str = "symmetric") -> LocalOperator:
    """Diagonal electric-field operator on one link."""
    return LocalOperator(d, (0,), np.diag(electric_values(d, convention)).astype(complex), hermitian=True)


def link_amplitudes(d: int, amplitude: str) -> np.ndarray:
    if amplitude == "unit":
        return np.ones(d - 1)
    if amplitude == "paper_u":
        l = np.arange(d - 1, dtype=float)
        return np.sqrt(d * (d + 1) - (l - d) * (l - d + 1))
    raise ValueError(f"unknown link amplitude {amplitude!r}")


def link_raise_op(d: int, amplitude: str = "unit") -> LocalOperator:
    """Lower-shift matrix taking |l> to u_l |l+1>; annihilates the top level."""
    u = link_amplitudes(d, amplitude)
    mat = np.zeros((d, d), dtype=complex)
    for l in range(d - 1):
        mat[l + 1, l] = u[l]
    return LocalOperator(d, (0,), mat)


def _chain_gauss_parts(site: int, lattice: LatticeSpec):
    """(targets, signs, scalar) such that g = sum signs*E_target + scalar."""
    L = lattice.num_links
    b = lattice.boundary
    s = lattice.site_parity(site)
    if site == 0:
        return (0,), (+1,), s - b
    if site == L:
        return (L - 1,), (-1,), s + b
    return (site - 1, site), (-1, +1), float(s)


def _plaq_gauss_parts(site: int, lattice: LatticeSpec):
    links, bcount = _PLAQ_GAUSS[site]
    targets = tuple(l for l, _ in links)
    signs = tuple(sign for _, sign in links)
    scalar = lattice.site_parity(site) + bcount * lattice.boundary
    return targets, signs, scalar


def gauss_diagonal(site, lattice: LatticeSpec, convention: str = "symmetric"):
    """Targets and diagonal values of the local charge operator at a site."""
    if lattice.dimension == 1:
        if not 0 <= site <= lattice.num_links:
            raise ValueError(f"site {site} outside chain with {lattice.num_links} links")
        targets, signs, scalar = _chain_gauss_parts(site, lattice)
    else:
        if not 0 <= site < 4:
            raise ValueError(f"plaquette site index {site} out of range")
        targets, signs, scalar = _plaq_gauss_parts(site, lattice)
    d = lattice.local_dim
    evals = electric_values(d, convention)
    k = len(targets)
    dim = d**k
    diag = np.full(dim, scalar, dtype=float)
    idx = np.arange(dim)
    for pos, sign in enumerate(signs):
        digit = (idx // d ** (k - 1 - pos)) % d
        diag += sign * evals[digit]
    return targets, diag


def gauss_charge(site, lattice: LatticeSpec, convention: str = "symmetric") -> LocalOperator:
    """Local charge g_x = div E + s_x as a diagonal operator on the adjacent links."""
    targets, diag = gauss_diagonal(site, lattice, convention)
    return LocalOperator(lattice.local_dim, targets, np.diag(diag).astype(complex), hermitian=True)


def gauss_projector(site, value: int, lattice: LatticeSpec, convention: str = "symmetric") -> LocalOperator:
    """Orthogonal projector onto the g = 0 or g = 1 eigenspace of the local charge."""
    if value not in (0, 1):
        raise ValueError(f"projector defined for g in {{0, 1}}, got {value}")
    targets, diag = gauss_diagonal(site, lattice, convention)
    mask = np.isclose(diag, value, atol=1e-9).astype(complex)
    return LocalOperator(lattice.local_dim, targets, np.diag(mask), hermitian=True)


def fermion_number_ops(lattice: LatticeSpec, convention: str = "symmetric") -> list[LocalOperator]:
    """Per-site charge observables; on physical states these are the matter occupations."""
    if lattice.dimension == 1:
        sites = range(lattice.num_sites)
    else:
        sites = range(4)
    return [gauss_charge(site, lattice, convention) for site in sites]


def hopping_sign(direction: int, e_values: Sequence[float]) -> int:
    """Direction-dependent +-1 prefactor from the marked electric fields."""
    if direction == 1:
        if len(e_values) != 2:
            raise ValueError("horizontal hopping marks two fields")
    elif direction == 2:
        if len(e_values) != 4:
            raise ValueError("vertical hopping marks four fields")
    else:
        raise ValueError(f"direction must be 1 or 2, got {direction}")
    total = int(round(float(sum(e_values))))
    return 1 if total % 2 == 0 else -1


def _hop_pieces(parity: int, d: int, amplitude: str):
    """Signed (weight, neighbor level, (i, j)) pieces of one hopping triple.

    Derived from P_1 (-1)^E U P_1 + h.c. on qutrits: for a link whose left
    site is even the nonzero blocks are +u_1 on neighbors |1> flipping
    levels (1,2) and -u_0 on neighbors |0> flipping (0,1); the odd case is
    the parity image.
    """
    if d != 3:
        raise ValueError("the qutrit hopping form requires d = 3")
    u = link_amplitudes(d, amplitude)
    if parity == 0:
        return [(+u[1], 1, (1, 2)), (-u[0], 0, (0, 1))]
    return [(+u[0], 1, (0, 1)), (-u[1], 2, (1, 2))]


def hopping_term(x: int, lattice: LatticeSpec, link_amplitude: str = "unit") -> LocalOperator:
    """Hermitian three-link hopping term centered on interior link x."""
    L = lattice.num_links
    if not 1 <= x <= L - 2:
        raise ValueError(f"link {x} has no interior triple in a chain of {L} links")
    d = lattice.local_dim
    mat = np.zeros((d**3, d**3), dtype=complex)
    for weight, m, (i, j) in _hop_pieces(x % 2, d, link_amplitude):
        p = level_projector(d, m).matrix
        sig = embedded_pauli(d, i, j, "X").matrix
        mat += weight * np.kron(np.kron(p, sig), p)
    return LocalOperator(d, (x - 1, x, x + 1), mat, hermitian=True)


def chain_hamiltonian(
    num_links: int,
    coupling: float,
    mass: float,
    electric_offset: str = "symmetric",
    link_amplitude: str = "unit",
    hopping_scale: float = 1.0,
    boundary: float = 0.0,
) -> HamiltonianSpec:
    """Open-chain gauge Hamiltonian: electric + staggered mass + projected hopping.

    The hopping enters with the 1/2 prefactor the matter elimination
    produces (and which the two-dimensional form carries explicitly);
    ``hopping_scale`` multiplies it.
    """
    lattice = chain_lattice(num_links, 3, boundary)
    evals = np.diag(electric_op(3, electric_offset).matrix)
    e_op = LocalOperator(3, (0,), np.diag(evals), hermitian=True)
    e2_op = LocalOperator(3, (0,), np.diag(evals**2), hermitian=True)
    terms: list[tuple[float, LocalOperator]] = []
    for x in range(num_links):
        terms.append((coupling**2 / 2.0, e2_op.on(x)))
        terms.append((2.0 * mass * (-1.0) ** x, e_op.on(x)))
    for x in range(1, num_links - 1):
        terms.append((0.5 * hopping_scale, hopping_term(x, lattice, link_amplitude)))
    return HamiltonianSpec(
        tuple(terms), coupling, mass, lattice, electric_offset, link_amplitude, hopping_scale
    )


def plaquette_loop_op(
    lattice: LatticeSpec,
    electric_offset: str = "symmetric",
    link_amplitude: str = "unit",
) -> LocalOperator:
    """Transformed loop operator: field-dependent sign times U_0 U_1 U_2^dag U_3^dag."""
    if lattice.dimension != 2:
        raise ValueError("the loop operator lives on the plaquette lattice")
    d = lattice.local_dim
    up = link_raise_op(d, link_amplitude).matrix
    down = up.conj().T
    # One factor per link in register order, qudit 3 most significant, nested
    # so that each entry multiplies its four factors in the order of the
    # product U_0 U_1 U_2^dag U_3^dag.
    prod = np.kron(down, np.kron(down, np.kron(up, up)))
    # Phase marks E on the bottom and right links; the two out-of-lattice
    # fields in the printed exponent contribute the boundary value.
    evals = electric_values(d, electric_offset)
    dim = d**4
    idx = np.arange(dim)
    exponent = np.full(dim, 2.0 * lattice.boundary)
    for link in (0, 1):
        exponent += evals[(idx // d**link) % d]
    phase = np.exp(1.0j * np.pi * exponent)
    return LocalOperator(d, (0, 1, 2, 3), phase[:, None] * prod)


def _plaquette_hop_term(
    link: int,
    lattice: LatticeSpec,
    electric_offset: str,
    link_amplitude: str,
) -> LocalOperator:
    """One projected hopping term of the plaquette, as printed: P_1 sign U P_1 + h.c."""
    d = lattice.local_dim
    # (direction, from-site, to-site, marked fields as (link, boundary-count))
    table = {
        0: (1, 0, 1, ((0,), 0)),
        1: (2, 1, 3, ((0, 1), 0)),
        2: (1, 2, 3, ((2, 1), 0)),
        3: (2, 0, 2, ((0, 3), 0)),
    }
    direction, site_a, site_b, (marked, bcount) = table[link]
    evals = electric_values(d, electric_offset)
    dim = d**4
    idx = np.arange(dim)
    exponent = np.full(dim, bcount * lattice.boundary - lattice.site_parity(site_b))
    for l in marked:
        exponent += evals[(idx // d**l) % d]
    overall = 1.0 if direction == 1 else -1.0
    p_a, p_b = (
        lift_diagonal(gauss_projector(site, 1, lattice, electric_offset), 4) for site in (site_a, site_b)
    )
    u = lift_operator(LocalOperator(d, (link,), link_raise_op(d, link_amplitude).matrix), 4)
    # P_a sign U P_b with diagonal P_a, sign and P_b: a row and a column scaling of U.
    half = (overall * p_a * np.exp(1.0j * np.pi * exponent))[:, None] * u * p_b
    return LocalOperator(d, (0, 1, 2, 3), half + half.conj().T, hermitian=True)


def plaquette_hamiltonian(
    coupling: float,
    mass: float,
    electric_offset: str = "symmetric",
    link_amplitude: str = "unit",
    hopping_scale: float = 1.0,
    boundary: float = 0.0,
) -> HamiltonianSpec:
    """Single-plaquette Hamiltonian: electric + magnetic + mass + projected hopping."""
    lattice = plaquette_lattice(3, boundary)
    d = lattice.local_dim
    evals = electric_values(d, electric_offset)
    e_op = LocalOperator(d, (0,), np.diag(evals).astype(complex), hermitian=True)
    e2_op = LocalOperator(d, (0,), np.diag(evals**2).astype(complex), hermitian=True)
    terms: list[tuple[float, LocalOperator]] = []
    for link in range(4):
        terms.append((coupling**2 / 2.0, e2_op.on(link)))
        terms.append((2.0 * mass * _PLAQ_MASS_SIGN[link], e_op.on(link)))
    loop = plaquette_loop_op(lattice, electric_offset, link_amplitude)
    magnetic = LocalOperator(d, (0, 1, 2, 3), loop.matrix + loop.matrix.conj().T, hermitian=True)
    terms.append((-1.0 / (2.0 * coupling**2), magnetic))
    for link in range(4):
        terms.append(
            (0.5 * hopping_scale, _plaquette_hop_term(link, lattice, electric_offset, link_amplitude))
        )
    return HamiltonianSpec(
        tuple(terms), coupling, mass, lattice, electric_offset, link_amplitude, hopping_scale
    )


def unitary_split(op: LocalOperator) -> UnitarySplit:
    """Write Hermitian S as (||S||/2)(U + U^dag) with U unitary.

    Diagonalize S, rescale to spectral radius one, and complete each
    eigenvalue to the unit circle: U = V (D + i sqrt(1 - D^2)) V^dag.
    """
    check_hermitian(op.matrix, "split operator", atol=1e-10)
    w, v = np.linalg.eigh(op.matrix)
    norm = float(np.max(np.abs(w)))
    if norm < 1e-14:
        raise ValueError("cannot split the zero operator")
    scaled = w / norm
    diag = scaled + 1.0j * np.sqrt(np.clip(1.0 - scaled**2, 0.0, None))
    unitary = (v * diag) @ v.conj().T
    return UnitarySplit(norm, LocalOperator(op.local_dim, op.targets, unitary))


def hopping_unitary_terms(
    x: int,
    lattice: LatticeSpec,
    link_amplitude: str = "unit",
    hopping_scale: float = 1.0,
) -> list[tuple[float, LocalOperator]]:
    """Unitary-product decomposition of one hopping triple.

    Each signed block w P_m sigma P_m splits as (w/4)(V W + V W^dag + h.c.)
    with V the two-level flip completed by i on the leftover level and W the
    diagonal pair unitary equal to 1 on |mm> and i elsewhere.
    """
    L = lattice.num_links
    if not 1 <= x <= L - 2:
        raise ValueError(f"link {x} has no interior triple in a chain of {L} links")
    d = lattice.local_dim
    targets = (x - 1, x, x + 1)
    out: list[tuple[float, LocalOperator]] = []
    for weight, m, (i, j) in _hop_pieces(x % 2, d, link_amplitude):
        flip = embedded_pauli(d, i, j, "X").matrix.astype(complex)
        for k in range(d):
            if k not in (i, j):
                flip[k, k] = 1.0j
        pair = np.full(d * d, 1.0j, dtype=complex)
        pair[m * d + m] = 1.0
        v_full = lift_operator(LocalOperator(d, (1,), flip), 3)
        w_full = lift_operator(LocalOperator(d, (0, 2), np.diag(pair)), 3)
        coef = hopping_scale * weight / 4.0
        for left in (v_full, v_full.conj().T):
            for right in (w_full, w_full.conj().T):
                out.append((coef, LocalOperator(d, targets, left @ right)))
    return out


def hamiltonian_unitary_pieces(ham: HamiltonianSpec) -> list[tuple[float, LocalOperator]]:
    """All Hamiltonian terms as weighted unitaries, for Hadamard-test assembly."""
    pieces: list[tuple[float, LocalOperator]] = []
    lattice = ham.lattice
    for coef, op in ham.terms:
        if abs(coef) < 1e-14:
            continue
        is_1d_hop = (
            lattice.dimension == 1
            and len(op.targets) == 3
            and op.targets[1] - op.targets[0] == 1
        )
        if is_1d_hop:
            pieces.extend(
                hopping_unitary_terms(op.targets[1], lattice, ham.link_amplitude, coef)
            )
        else:
            split = unitary_split(op)
            half = coef * split.norm / 2.0
            pieces.append((half, split.unitary))
            pieces.append((half, split.unitary.dagger()))
    return pieces


def materialize(ham: HamiltonianSpec) -> np.ndarray:
    """Dense matrix of the full Hamiltonian.

    The run path uses `oracle.sector_spectrum`; this build is the independent
    reference the tests and the fixture bootstrap check it against.
    """
    n = ham.num_qudits
    d = ham.lattice.local_dim
    dim = d**n
    if dim > DIM_CAP:
        raise CapError(f"dimension {dim} exceeds the dense cap {DIM_CAP}")
    total = np.zeros((dim, dim), dtype=complex)
    for coef, op in ham.terms:
        total += coef * lift_operator(op, n)
    return total
