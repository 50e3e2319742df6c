"""Thermal generators for commuting-Pauli models and their spectral gaps."""

from .pauli import (PauliString, PauliSum, commutes, commutant_dimension,
                    write_coo_text)
from .models import (ModelSpec, SnakeCombPartition, ModelReport,
                     build_ising_ring, build_toric_code, lattice_symmetries,
                     verify_model)
from .basis import StabilizerFrame, build_frame
from .davies import (ThermalParams, JumpComponent, SuperOperatorRep,
                     build_generator, liouville_matrix, default_couplings,
                     detailed_balance_residual, dissipativity_identity_check,
                     stationarity_residual, reconstruction_residual)
from .master import (BlockLabel, BlockOrbits, ChargeBlocks, XBlockSpec,
                     block_label_of, block_orbits,
                     sign_flip_restriction)
from .spectral import (GapReport, gap, gap_from_blocks, analytic_bounds,
                       xy_gap, abelian_chain_hamiltonian, abelian_chain_form,
                       abelian_chain_kernel,
                       bond_pair_block, lemma1_check, lemma2_bound,
                       lemma3_bound, certify, sweep, write_sweep_csv)
from .dynamics import (AutocorrelationTrace, autocorrelation, relaxation_time,
                       fit_decay_rate)

__all__ = [name for name in dir() if not name.startswith("_")]
