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
import scipy.sparse as sp

from .models import ModelSpec, ModelError
from .pauli import PauliString, PauliSum, genperm_sum, gf2_solve


def _labels(values: np.ndarray, masks) -> np.ndarray:
    """sum_i parity(values & masks[i]) << i, elementwise."""
    out = np.zeros_like(values)
    for i, mask in enumerate(masks):
        out |= (np.bitwise_count(values & mask) & 1).astype(values.dtype) << i
    return out


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

    def matrix_of(self, op) -> sp.csr_matrix:
        """op in the eigenbasis: one COO build of sum_c c * genperm over its terms."""
        if isinstance(op, PauliString):
            op = PauliSum(op.n, [(1.0, op)])
        return genperm_sum(self.dim, [(c, *self.genperm_of(p)) for c, p in op.terms])

    def genperm_of(self, p: PauliString):
        """Permutation and phases of a single Pauli string: p|u> = c_u |perm_u>.

        For p = i^phi X^x Z^z, p|u> = i^phi (-1)^{z.ref(u)} (-1)^{b.xs(u')} |u'>:
        u' has the z-type labels of ref(u) ^ x and the x syndrome xs(u) ^ t,
        with t the anticommutation pattern of p with M, and b solves
        ref(u) ^ x ^ ref(u') = M b.
        """
        kx = len(self.x_masks)
        u = np.arange(self.dim, dtype=np.int64)
        ref = self.ref[u >> kx]
        moved = ref ^ p.x_mask
        t = sum(((p.z_mask & m).bit_count() & 1) << i for i, m in enumerate(self.x_masks))
        z_labels = _labels(moved, self.z_rows)
        x_synd = (u & ((1 << kx) - 1)) ^ t
        b = _labels(moved ^ self.ref[z_labels], self.x_duals)
        sign = (np.bitwise_count(ref & p.z_mask) + np.bitwise_count(b & x_synd)) & 1
        return (z_labels << kx) | x_synd, complex(p.phase_value) * (1.0 - 2.0 * sign)


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
    ref = np.zeros(1 << len(z_rows), dtype=np.int64)
    for j, sol in enumerate(_unit_solutions(z_rows, n, "z-type label system")):
        ref[1 << j: 2 << j] = ref[:1 << j] ^ sol
    frame = StabilizerFrame(model=model, indep=indep, x_masks=x_masks, z_rows=z_rows,
                            x_duals=_unit_solutions(x_masks, n, "x-type generators"),
                            ref=ref)

    frame.stab_signs = np.array([_eigenvalues(frame, s) for s in model.stabilizers])
    z_signs = np.array([_eigenvalues(frame, lz) for _, lz in model.logicals])
    frame.logical_bits = (1 - z_signs) // 2
    frame.energies = -np.einsum("b,bu->u", np.asarray(model.coefficients, dtype=float),
                                frame.stab_signs.astype(float))
    x_perm, x_phase = zip(*(frame.genperm_of(lx) for lx, _ in model.logicals))
    frame.x_perm, frame.x_phase = np.array(x_perm), np.array(x_phase)
    _check_labels(frame)
    return frame


def _unit_solutions(rows, nvars: int, what: str) -> list:
    """x_j with parity(rows[i] & x_j) = delta_ij, one per row."""
    sols = [gf2_solve(rows, [int(i == j) for i in range(len(rows))], nvars)
            for j in range(len(rows))]
    if None in sols:
        raise ModelError(f"{what} inconsistent")
    return sols


def _eigenvalues(frame: StabilizerFrame, pauli: PauliString) -> np.ndarray:
    perm, phase = frame.genperm_of(pauli)
    if not np.array_equal(perm, np.arange(frame.dim)) or phase.imag.any():
        raise ModelError(f"{pauli.to_label()} is not diagonal in the frame")
    return phase.real.astype(np.int64)


def _check_labels(frame: StabilizerFrame) -> None:
    """Syndrome bits must reproduce independent stabilizer signs by index."""
    k = frame.n_indep
    dim = frame.dim
    u = np.arange(dim)
    for pos, stab_idx in enumerate(frame.indep):
        bits = (u >> pos) & 1
        want = 1 - 2 * bits
        if not np.array_equal(frame.stab_signs[stab_idx], want):
            raise ModelError("syndrome labeling out of order")
    for i in range(frame.n_logical):
        bits = u >> k
        if not np.array_equal(frame.logical_bits[i], (bits >> i) & 1):
            raise ModelError("logical labeling out of order")
