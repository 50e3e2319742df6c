"""Joint eigenbasis of all stabilizers and diagonal logical operators.

States are labeled (logical bits, syndrome bits) and ordered as
index = logical_bits * 2**k + syndrome_bits, with k independent stabilizers
(the kx x-type ones first, then the z-type ones).  Eigenvector u is the
group average

    |u> = 2^{-kx/2} sum_a (-1)^{a . xs(u)} |ref(u) ^ M a>

over the x-type generators M, with xs(u) the x-syndrome bits of u and ref(u)
a reference bitstring carrying the z-type labels of u (z syndrome, then the
logical bits).  No vector is ever stored: in this basis every Pauli string is
a generalized permutation (one unimodular entry per column) whose action
follows from its bit masks, which keeps the superoperator assembly sparse and
the block structure index-computable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .models import ModelSpec, ModelError
from .pauli import _PHASE_VALUES, gf2_solve_many, gf2_span, mask_arrays, parity_bits


@dataclass
class StabilizerFrame:
    model: ModelSpec
    indep: list                # indices of independent stabilizers
    x_masks: list              # x masks M of the independent x-type stabilizers
    z_rows: list               # z masks of the z-type stabilizers, then Z logicals
    x_duals: list              # masks w_j with parity(w_j & M_i) = delta_ij
    ref: np.ndarray            # reference bitstring per z-type label
    stab_signs: np.ndarray = field(init=False)    # (n_stab, dim) +-1 per stabilizer
    logical_bits: np.ndarray = field(init=False)  # (n_log, dim) Z-logical eigenvalue (-1)^bit
    energies: np.ndarray = field(init=False)      # (dim,)
    x_perm: np.ndarray = field(init=False)        # (n_log, dim) int; X-logical permutation
    x_phase: np.ndarray = field(init=False)       # (n_log, dim) complex unimodular

    @property
    def dim(self) -> int:
        return 1 << self.model.n_sites

    @property
    def n_indep(self) -> int:
        return len(self.indep)

    @property
    def n_logical(self) -> int:
        return self.model.n_logical

    # -- label arithmetic ----------------------------------------------------

    def state_index(self, syndrome: int, logical: int) -> int:
        return (logical << self.n_indep) | syndrome

    # -- thermal weights ------------------------------------------------------

    def gibbs(self, beta: float) -> np.ndarray:
        w = np.exp(-beta * (self.energies - self.energies.min()))
        return w / w.sum()

    # -- operators in the eigenbasis -------------------------------------------

    def genperm_of(self, x_mask, z_mask, phase):
        """Permutations and phases of a stack of Pauli strings i^phase X(x_mask)
        Z(z_mask), given as integer arrays of one shape s (scalars for one
        string): p|u> = phase[..., u] |perm[..., u]>, both of shape s + (dim,).

        For p = i^phi X^x Z^z, p|u> = i^phi (-1)^{z.ref(u)} (-1)^{b.xs(u')} |u'>:
        u' has the z-type labels of ref(u) ^ x and the x syndrome xs(u) ^ t,
        with t the anticommutation pattern of p with M, and b solves
        ref(u) ^ x ^ ref(u') = M b.
        """
        kx = len(self.x_masks)
        u = np.arange(self.dim, dtype=np.int64)
        x, z, phi = (np.asarray(a, dtype=np.int64)[..., None] for a in (x_mask, z_mask, phase))
        ref = self.ref[u >> kx]
        moved = ref ^ x
        z_labels = parity_bits(moved, self.z_rows)
        x_synd = (u & ((1 << kx) - 1)) ^ parity_bits(z, self.x_masks)
        b = parity_bits(moved ^ self.ref[z_labels], self.x_duals)
        sign = (np.bitwise_count(ref & z) + np.bitwise_count(b & x_synd)) & 1
        return (z_labels << kx) | x_synd, np.array(_PHASE_VALUES)[phi & 3] * (1.0 - 2.0 * sign)


def build_frame(model: ModelSpec) -> StabilizerFrame:
    if model.n_sites > 14:
        raise ModelError("frame construction capped at 14 sites")
    n = model.n_sites
    indep = model.independent_stabilizers()
    x_gens = [model.stabilizers[i] for i in indep if model.stabilizers[i].z_mask == 0]
    z_gens = [model.stabilizers[i] for i in indep if model.stabilizers[i].x_mask == 0]
    if len(x_gens) + len(z_gens) != len(indep):
        raise ModelError("frame construction needs pure-x/pure-z stabilizers")
    if len(indep) + model.n_logical != n:
        raise ModelError("stabilizers plus logicals do not label the full space")

    # z-type label constraints: independent plaquettes, then Z-logicals
    z_rows = [g.z_mask for g in z_gens] + [lz.z_mask for _, lz in model.logicals]
    x_masks = [g.x_mask for g in x_gens]
    # the system is linear, so ref of a label is the XOR of its bits' solutions
    ref = gf2_span(_unit_solutions(z_rows, n, "z-type label system"))
    frame = StabilizerFrame(model=model, indep=indep, x_masks=x_masks, z_rows=z_rows,
                            x_duals=_unit_solutions(x_masks, n, "x-type generators"),
                            ref=ref)

    # one stacked action: the stabilizers and Z logicals (diagonal), then the X logicals
    diagonal = list(model.stabilizers) + [lz for _, lz in model.logicals]
    perm, phase = frame.genperm_of(*mask_arrays(diagonal + [lx for lx, _ in model.logicals]))
    nd, ns = len(diagonal), len(model.stabilizers)
    off = (perm[:nd] != np.arange(frame.dim)).any(axis=1) | phase[:nd].imag.any(axis=1)
    if off.any():
        raise ModelError(f"{diagonal[np.argmax(off)].to_label()} is not diagonal in the frame")
    signs = phase[:nd].real.astype(np.int64)
    frame.stab_signs, frame.logical_bits = signs[:ns], (1 - signs[ns:]) // 2
    frame.energies = -np.einsum("b,bu->u", np.asarray(model.coefficients, dtype=float),
                                frame.stab_signs.astype(float))
    frame.x_perm, frame.x_phase = perm[nd:], phase[nd:]
    _check_labels(frame)
    return frame


def _unit_solutions(rows, nvars: int, what: str) -> list:
    """x_j with parity(rows[i] & x_j) = delta_ij, one per row."""
    sols = gf2_solve_many(rows, [1 << j for j in range(len(rows))], nvars)
    if None in sols:
        raise ModelError(f"{what} inconsistent")
    return sols


def _check_labels(frame: StabilizerFrame) -> None:
    """Syndrome bits must reproduce independent stabilizer signs by index."""
    k = frame.n_indep
    bits = (np.arange(frame.dim) >> np.arange(k + frame.n_logical)[:, None]) & 1
    if not np.array_equal(frame.stab_signs[frame.indep], 1 - 2 * bits[:k]):
        raise ModelError("syndrome labeling out of order")
    if not np.array_equal(frame.logical_bits, bits[k:]):
        raise ModelError("logical labeling out of order")
