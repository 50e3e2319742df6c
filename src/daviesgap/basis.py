"""Joint eigenbasis of all stabilizers and diagonal logical operators.

States are labeled (logical bits, syndrome bits) and ordered as
index = logical_bits * 2**k + syndrome_bits, with k independent stabilizers.
In this basis the Hamiltonian is diagonal and every Pauli string acts as a
generalized permutation (one unimodular entry per column), which keeps the
superoperator assembly sparse and the block structure index-computable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .models import ModelSpec, ModelError
from .pauli import PauliString, PauliSum, gf2_solve

_SNAP = 1e-10


@dataclass
class StabilizerFrame:
    model: ModelSpec
    vectors: np.ndarray        # (dim, dim) unitary; column u = eigenvector u
    indep: list                # indices of independent stabilizers
    stab_signs: np.ndarray     # (n_stab, dim) +-1 eigenvalue per stabilizer
    logical_bits: np.ndarray   # (n_log, dim) 0/1; Z-logical eigenvalue (-1)^bit
    energies: np.ndarray       # (dim,)
    x_perm: np.ndarray         # (n_log, dim) int; X-logical permutation
    x_phase: np.ndarray        # (n_log, dim) complex unimodular

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]

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
        """V^dag op V with tiny numerical dust snapped away."""
        if isinstance(op, PauliString):
            op = PauliSum(op.n, [(1.0, op)])
        m = op.matrix() @ self.vectors
        m = self.vectors.conj().T @ m
        m[np.abs(m) < _SNAP] = 0.0
        return sp.csr_matrix(m)

    def genperm_of(self, p: PauliString):
        """Permutation and phases of a single Pauli string: p|u> = c_u |perm_u>."""
        m = self.matrix_of(p).tocsc()
        dim = self.dim
        perm = np.full(dim, -1, dtype=np.int64)
        phase = np.zeros(dim, dtype=complex)
        for u in range(dim):
            lo, hi = m.indptr[u], m.indptr[u + 1]
            if hi - lo != 1:
                raise ModelError("Pauli string is not a generalized permutation "
                                 "in this frame (basis construction broken)")
            perm[u] = m.indices[lo]
            c = m.data[lo]
            if abs(abs(c) - 1.0) > 1e-9:
                raise ModelError("non-unimodular Pauli action in frame")
            phase[u] = _snap_unimodular(c)
        return perm, phase


def _snap_unimodular(c: complex) -> complex:
    for cand in (1.0, -1.0, 1.0j, -1.0j):
        if abs(c - cand) < 1e-7:
            return cand
    return c / abs(c)


def build_frame(model: ModelSpec) -> StabilizerFrame:
    if model.n_sites > 14:
        raise ModelError("frame construction capped at 14 sites")
    indep = model.independent_stabilizers()
    if model.kind == "ising":
        vectors = _ising_vectors(model, indep)
    else:
        vectors = _stabilizer_vectors(model, indep)

    err = np.abs(vectors.conj().T @ vectors - np.eye(vectors.shape[0])).max()
    if err > 1e-10:
        raise ModelError(f"eigenbasis not unitary (defect {err:.2e})")

    stab_signs = np.array([_diagonal_signs(vectors, s) for s in model.stabilizers])
    logical_bits = np.array(
        [(1 - _diagonal_signs(vectors, lz)) // 2 for _, lz in model.logicals],
        dtype=np.int64).reshape(model.n_logical, -1)
    energies = -np.einsum("b,bu->u", np.asarray(model.coefficients, dtype=float),
                          stab_signs.astype(float))

    frame = StabilizerFrame(model=model, vectors=vectors, indep=indep,
                            stab_signs=stab_signs, logical_bits=logical_bits,
                            energies=energies,
                            x_perm=np.zeros((model.n_logical, vectors.shape[0]), dtype=np.int64),
                            x_phase=np.zeros((model.n_logical, vectors.shape[0]), dtype=complex))
    for i, (lx, _) in enumerate(model.logicals):
        perm, phase = frame.genperm_of(lx)
        frame.x_perm[i] = perm
        frame.x_phase[i] = phase
    _check_labels(frame)
    return frame


def _diagonal_signs(vectors, pauli: PauliString) -> np.ndarray:
    m = pauli.matrix() @ vectors
    vals = np.einsum("iu,iu->u", vectors.conj(), m)
    if np.abs(np.abs(vals) - 1.0).max() > 1e-9 or np.abs(vals.imag).max() > 1e-9:
        raise ModelError(f"{pauli.to_label()} is not diagonal in the frame")
    return np.where(vals.real > 0, 1, -1).astype(np.int64)


def _ising_vectors(model: ModelSpec, indep) -> np.ndarray:
    """Computational basis relabeled: spin bits from (logical, bond syndrome)."""
    n = model.n_sites
    dim = 1 << n
    k = len(indep)
    vectors = np.zeros((dim, dim), dtype=complex)
    for u in range(dim):
        synd = u & ((1 << k) - 1)
        q = u >> k
        bits = q & 1
        state = bits
        for j in range(n - 1):
            bits ^= (synd >> j) & 1
            state |= bits << (j + 1)
        vectors[state, u] = 1.0
    return vectors


def _stabilizer_vectors(model: ModelSpec, indep) -> np.ndarray:
    """Group-averaged joint eigenvectors for a CSS model (x and z stabilizers)."""
    n = model.n_sites
    dim = 1 << n
    x_gens = [model.stabilizers[i] for i in indep if model.stabilizers[i].z_mask == 0]
    z_gens = [model.stabilizers[i] for i in indep if model.stabilizers[i].x_mask == 0]
    if len(x_gens) + len(z_gens) != len(indep):
        raise ModelError("frame construction needs pure-x/pure-z stabilizers")
    kx, kz = len(x_gens), len(z_gens)
    n_log = model.n_logical
    if kx + kz + n_log != n:
        raise ModelError("stabilizers plus logicals do not label the full space")

    # z-type label constraints: independent plaquettes, then Z-logicals
    z_rows = [g.z_mask for g in z_gens] + [lz.z_mask for _, lz in model.logicals]
    x_masks = [g.x_mask for g in x_gens]
    group = []  # (flip mask, membership bits) for every x-subgroup element
    for a in range(1 << kx):
        mask = 0
        for i in range(kx):
            if (a >> i) & 1:
                mask ^= x_masks[i]
        group.append((mask, a))
    norm = 2.0 ** (-kx / 2.0)

    vectors = np.zeros((dim, dim), dtype=complex)
    for u in range(dim):
        synd = u & ((1 << (kx + kz)) - 1)
        x_synd = synd & ((1 << kx) - 1)
        z_synd = synd >> kx
        q = u >> (kx + kz)
        rhs = [(z_synd >> i) & 1 for i in range(kz)] + \
              [(q >> i) & 1 for i in range(n_log)]
        eps = gf2_solve(z_rows, rhs, n)
        if eps is None:
            raise ModelError("z-type label system inconsistent")
        for mask, a in group:
            sign = 1.0 - 2.0 * ((a & x_synd).bit_count() & 1)
            vectors[eps ^ mask, u] = sign * norm
    return vectors


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
