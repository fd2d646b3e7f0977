"""Exact reference computations: dense spectra, exact time evolution, finite differences."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import check_hermitian
from .model import DIM_CAP, CapError

DEGENERACY_ATOL = 1e-10


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition with ascending eigenvalues and orthonormal columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def ground_energy(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def ground_vector(self) -> np.ndarray:
        return self.eigenvectors[:, 0]

    def ground_multiplicity(self) -> int:
        w = self.eigenvalues
        scale = max(1.0, float(np.max(np.abs(w))))
        return int(np.sum(w - w[0] < DEGENERACY_ATOL * scale))

    def ground_projector_overlap(self, psi: np.ndarray) -> float:
        """Squared overlap with the (possibly degenerate) ground space."""
        m = self.ground_multiplicity()
        coeffs = self.eigenvectors[:, :m].conj().T @ psi
        return float(np.sum(np.abs(coeffs) ** 2))


def eigendecompose(h: np.ndarray) -> Spectrum:
    if h.shape[0] > DIM_CAP:
        raise CapError(f"dimension {h.shape[0]} exceeds the dense cap {DIM_CAP}")
    check_hermitian(h, "Hamiltonian", rtol=1e-10)
    w, v = np.linalg.eigh(h)
    return Spectrum(w, v)


def ground_state(h: np.ndarray) -> tuple[float, np.ndarray, int]:
    """Lowest eigenpair and the ground-space multiplicity."""
    spec = eigendecompose(h)
    return spec.ground_energy, spec.ground_vector, spec.ground_multiplicity()


def evolve_real(spec: Spectrum, psi0: np.ndarray, t: float) -> np.ndarray:
    """exp(-i H t) |psi0> from a precomputed spectrum."""
    coeffs = spec.eigenvectors.conj().T @ psi0
    return spec.eigenvectors @ (np.exp(-1.0j * spec.eigenvalues * t) * coeffs)


def evolve_imag(spec: Spectrum, psi0: np.ndarray, tau: float) -> np.ndarray:
    """Normalized exp(-H tau) |psi0>; the spectrum is shifted for stability."""
    coeffs = spec.eigenvectors.conj().T @ psi0
    weights = np.exp(-(spec.eigenvalues - spec.eigenvalues[0]) * tau)
    out = spec.eigenvectors @ (weights * coeffs)
    norm = np.linalg.norm(out)
    if norm < 1e-300:
        raise ValueError("imaginary-time evolution annihilated the state")
    return out / norm


def finite_difference(
    f: Callable[[np.ndarray], float],
    theta: np.ndarray,
    mu: int,
    order: int = 1,
    h: float = 1e-5,
) -> float:
    """Central difference of a scalar function along one coordinate."""
    if h <= 0:
        raise ValueError("step must be positive")
    theta = np.asarray(theta, dtype=float)
    up = theta.copy()
    dn = theta.copy()
    up[mu] += h
    dn[mu] -= h
    if order == 1:
        return (f(up) - f(dn)) / (2.0 * h)
    if order == 2:
        return (f(up) - 2.0 * f(theta) + f(dn)) / h**2
    raise ValueError(f"order must be 1 or 2, got {order}")
