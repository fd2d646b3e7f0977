"""Qudit statevector simulation and variational time evolution for U(1) gauge models."""

__version__ = "0.1.0"

from .core import (
    LocalOperator,
    QuditRegister,
    apply,
    basis_state,
    embedded_pauli,
    entanglement_entropy,
    fidelity,
    inner,
    reduced_density_matrix,
)
from .model import (
    HamiltonianSpec,
    LatticeSpec,
    UnitarySplit,
    chain_hamiltonian,
    electric_op,
    fermion_number_ops,
    gauss_charge,
    gauss_projector,
    hopping_unitary_terms,
    link_raise_op,
    materialize,
    plaquette_hamiltonian,
    plaquette_loop_op,
    unitary_split,
)
from .ansatz import Circuit, Gate, chain_circuit, plaquette_circuit, random_initial_params
from .varsim import (
    EomQuantities,
    TrajectoryRecord,
    integrate_step,
    run_ground_search,
    run_quench,
    solve_flow,
)
from .oracle import Spectrum, eigendecompose, evolve_real, ground_state, sector_spectrum
from .config import RunConfig, config_hash, load_config, parse_config
