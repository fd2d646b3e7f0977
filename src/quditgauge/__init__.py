"""Qudit statevector simulation and variational time evolution for U(1) gauge models."""

__version__ = "0.1.0"

from .core import (
    DensityMatrix,
    LocalOperator,
    QuditRegister,
    apply,
    basis_state,
    crot_gate,
    embedded_pauli,
    entanglement_entropy,
    fidelity,
    inner,
    ms_gate,
    plaquette_gate,
    reduced_density_matrix,
    rotation_gate,
    rz_gate,
    sample_counts,
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
    hopping_sign,
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
from .oracle import Spectrum, eigendecompose, evolve_imag, evolve_real, finite_difference, ground_state, sector_spectrum
from .config import RunConfig, config_hash, load_config, parse_config
