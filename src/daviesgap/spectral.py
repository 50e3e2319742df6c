"""Spectral gaps, analytic lower bounds, and certification.

The gap of a positive semidefinite operator is its smallest eigenvalue above
the kernel.  Both gap paths split the operator exactly into invariant sparse
blocks and solve them densely on their pieces (``_piece_spectra``), under one
size limit, the dense cap on a piece: ``gap`` the connected components of
its nonzero pattern, each folded into its even and odd blocks under an
involutive index symmetry the operator declares (the bond chain splits by
parity, then by reversal), ``gap_from_blocks`` the charge blocks of a
generator, one block per lattice-symmetry orbit.  Each piece is factored by
one eigensolver call only: the gap's residual comes from inverse iteration
on the piece that holds it, shifted by the gap.  Certification takes the
generator gap as the exact minimum over its charge blocks, asserts
gap >= exp(-8*beta*J)/3 and reports the margin.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .basis import build_frame
from .davies import (SuperOperatorRep, ThermalParams, build_generator,
                     default_couplings, GeneratorError)
from .master import ChargeBlocks, block_labels, block_orbits
from .models import ModelSpec
from .pauli import commutant_dimension

DENSE_DIM_CAP = 4096
_BATCH_NODES = 1 << 15  # gap_from_blocks solves its blocks in batches of this many nodes
KERNEL_RTOL = 1e-10


class SolverConvergenceError(RuntimeError):
    pass


class KernelMismatchError(RuntimeError):
    pass


class BoundViolationError(RuntimeError):
    pass


class LemmaCheckError(RuntimeError):
    pass


@dataclass
class GapReport:
    kernel_dim: int
    gap: float
    analytic_bound: float = float("nan")
    bound_name: str = ""
    solver: str = "dense"
    residual: float = 0.0
    elapsed: float = 0.0
    near_threshold: tuple = (float("nan"), float("nan"))
    extras: dict = field(default_factory=dict)

    @property
    def margin(self) -> float:
        return self.gap - self.analytic_bound

    def to_json_dict(self) -> dict:
        d = {"kernel_dim": self.kernel_dim, "gap": self.gap,
             "analytic_bound": self.analytic_bound, "bound_name": self.bound_name,
             "solver": self.solver, "residual": self.residual,
             "elapsed": self.elapsed,
             "near_threshold": list(self.near_threshold)}
        d.update(self.extras)
        return d


def _as_matrix(rep):
    if isinstance(rep, SuperOperatorRep):
        if rep.space != "hilbert-schmidt":
            raise GeneratorError("gap needs a Hermitian (Hilbert-Schmidt) operator")
        return rep.matrix
    return rep


def gap(rep, expected_kernel=None, kernel_basis=None, dense_cap=DENSE_DIM_CAP,
        seed: int = 0) -> GapReport:
    """Kernel dimension and smallest nonzero eigenvalue of a PSD operator.

    The operator splits exactly into the connected components of its nonzero
    pattern.  An operator may declare an involutive index symmetry p,
    ``meta["symmetry"]`` (the bond chain declares bit reversal), under which
    it must be exactly invariant, ``A[p][:, p] == A``; each component then
    splits again into its even and odd blocks under p (``_symmetry_blocks``).
    Without a declared symmetry p is the identity and the blocks are the
    components.  The blocks are solved on their pieces (``_piece_spectra``);
    one above ``dense_cap`` raises ValueError before any eigensolve.
    Eigenvalues below KERNEL_RTOL times the largest one count as kernel.
    Every vector v of ``kernel_basis`` must satisfy ||A v|| <= KERNEL_RTOL *
    lambda_max * ||v||, checked on the whole operator.  ``seed`` is unused.
    ``extras`` counts the components, symmetry blocks and pieces and gives
    the dimensions of the largest ones and of those holding the gap;
    ``stages`` gives the seconds of the split (components, symmetry fold and
    their block-diagonal union), of the piece eigensolve and of the gap's
    residual (``_residual``).
    """
    t0, t_split = time.time(), time.perf_counter()
    matrix = sp.csr_matrix(_as_matrix(rep))
    # the nonzero pattern, with no cast to real: an imaginary entry is an edge
    n_comp, comp = connected_components(matrix != 0, directed=False)
    sizes = np.bincount(comp)
    meta = getattr(rep, "meta", None) or {}
    perm = meta.get("symmetry")
    perm = np.arange(len(comp)) if perm is None else _checked_symmetry(matrix, perm)
    group, blocks = _symmetry_blocks(matrix, comp, perm)
    # the block-diagonal union from CSR arrays: sp.block_diag goes through COO
    dims = np.array([b.shape[0] for b in blocks])
    shift, nnz = np.cumsum(dims) - dims, np.cumsum([0] + [b.nnz for b in blocks])
    union = sp.csr_matrix((np.concatenate([b.data for b in blocks]),
                           np.concatenate([b.indices + i for b, i in zip(blocks, shift)]),
                           np.concatenate([[0]] + [b.indptr[1:] + i for b, i in zip(blocks, nnz)])),
                          shape=(dims.sum(),) * 2)
    t_solve = time.perf_counter()
    vals, first, pieces = _piece_spectra(union, dims, dense_cap)
    t_residual = time.perf_counter()
    report, win, _, _ = _kernel_and_gap(
        vals, shift, first, lambda i, node: _piece_of(blocks[i], node), expected_kernel)
    t_end = time.perf_counter()
    if kernel_basis is not None and len(kernel_basis) > 0:
        res = [np.linalg.norm(matrix @ v) / (vals.max() * np.linalg.norm(v))
               for v in kernel_basis]
        worst = int(np.argmax(res))
        if res[worst] > KERNEL_RTOL:
            raise KernelMismatchError(
                f"kernel_basis vector {worst} has ||A v|| / (lambda_max ||v||) "
                f"= {res[worst]:.3e}, above {KERNEL_RTOL:g}")
    report.elapsed = time.time() - t0
    report.extras.update({"components": int(n_comp),
                          "largest_component": int(sizes.max()),
                          "min_component_dim": int(sizes[group[win]]),
                          "symmetry_blocks": len(blocks),
                          "largest_block": int(dims.max()),
                          "min_block_dim": int(dims[win]), **pieces,
                          "stages": {"split_s": t_solve - t_split,
                                     "eigensolve_s": t_residual - t_solve,
                                     "residual_s": t_end - t_residual}})
    return report


def _checked_symmetry(matrix, perm) -> np.ndarray:
    """The declared index symmetry, once it is an involution leaving ``matrix``
    exactly invariant; ValueError otherwise, naming the mismatches."""
    dim = matrix.shape[0]
    perm = np.asarray(perm)
    if perm.shape != (dim,) or perm.min() < 0 or perm.max() >= dim:
        raise ValueError(f"declared symmetry must map the {dim} indices into "
                         f"range(0, {dim})")
    moved = np.flatnonzero(perm[perm] != np.arange(dim))
    if moved.size:
        raise ValueError(f"declared symmetry is not an involution: "
                         f"p[p[i]] != i at {moved.size} of {dim} indices, "
                         f"largest |p[p[i]] - i| = "
                         f"{np.abs(perm[perm[moved]] - moved).max()}")
    image = matrix[perm][:, perm]
    mismatched = (image != matrix).nnz
    if mismatched:
        raise ValueError(f"operator is not invariant under its declared "
                         f"symmetry: {mismatched} entries of A[p][:, p] differ "
                         f"from A, largest deviation "
                         f"{abs(image - matrix).max():.3e}")
    return perm


# entry weights of the even block by the number of fixed points among its row
# and column representatives: e_r for a fixed point, (e_r + e_p(r))/sqrt(2)
# otherwise; with none moving every weight is the exact 1/2 of A + A
_EVEN_WEIGHTS = np.array([1.0, 1.0 / np.sqrt(2.0), 0.5])


def _symmetry_blocks(matrix, comp, perm):
    """Even and odd blocks of ``matrix`` under the involution ``perm``, per
    connected component (or per pair of components that ``perm`` swaps).

    On the representatives r <= p(r) of a component, taken in ascending order,
    the even block is A[r][:, r] + A[r][:, p(r)] weighted by ``_EVEN_WEIGHTS``,
    and the odd block is A[m][:, m] - A[m][:, p(m)] on the moving
    representatives m < p(m).  Returns each block's component label and the
    nonempty blocks as sparse matrices, even before odd, in component order.
    With the identity the blocks are the components, bit for bit.
    """
    reps = np.flatnonzero(np.arange(perm.size) <= perm)
    group = np.minimum(comp, comp[perm])[reps]
    order = np.argsort(group, kind="stable")
    labels, blocks = [], []
    for idx in np.split(order, np.flatnonzero(np.diff(group[order])) + 1):
        r = reps[idx]
        fix = (r == perm[r]).astype(int)
        even = (matrix[r][:, r] + matrix[r][:, perm[r]]).tocoo()
        even.data = even.data * _EVEN_WEIGHTS[fix[even.row] + fix[even.col]]
        m = r[fix == 0]
        parts = [even] if not m.size else [even, matrix[m][:, m] - matrix[m][:, perm[m]]]
        labels += [group[idx[0]]] * len(parts)
        blocks += [sp.csr_matrix(b) for b in parts]
    return np.array(labels), blocks


def _piece_spectra(union, dims, cap) -> tuple:
    """The ascending spectrum of each block of the sparse block-diagonal
    ``union``, whose diagonal blocks have dimensions ``dims``, solved on
    their pieces.

    A piece, a connected component of the nonzero pattern (an imaginary entry
    is an edge) with its nodes in ascending order, is an exact invariant
    subspace; one above ``cap`` raises ValueError before any eigensolve.
    Pieces of one size share a stacked ``eigvalsh``; no stack holds more
    entries than the largest piece or 256^2.  Stored zeros of ``union`` are
    dropped.  Returns the concatenated spectra, each eigenvalue's piece as
    its first node in the block, and the piece count and largest piece.
    """
    shift = np.cumsum(dims) - dims
    union.eliminate_zeros()
    n_pieces, piece = connected_components(union != 0, directed=False)
    size = np.bincount(piece)
    largest = int(size.max())
    if largest > cap:
        raise ValueError(f"largest invariant piece has dimension {largest}, "
                         f"above the dense cap {cap}")
    # nodes by piece size, then piece: the nodes of each piece in ascending order
    nodes = np.lexsort((piece, size[piece]))
    slot = np.argsort(nodes)
    entries = union.tocoo()
    order = np.argsort(slot[entries.row], kind="stable")
    row, col, data = slot[entries.row][order], slot[entries.col][order], entries.data[order]
    spectrum, a = np.empty(nodes.size), 0
    for d, count in zip(*np.unique(size, return_counts=True)):
        per = max(1, max(largest, 256) ** 2 // d ** 2)  # few calls for small pieces
        for c in range(0, count, per):
            b = a + min(per, count - c) * d
            lo, hi = np.searchsorted(row, [a, b])
            stack = np.zeros(((b - a) // d, d, d), dtype=union.dtype)
            stack[(row[lo:hi] - a) // d, (row[lo:hi] - a) % d, (col[lo:hi] - a) % d] = data[lo:hi]
            if np.iscomplexobj(stack) and not stack.imag.any():
                stack = stack.real
            spectrum[a:b], a = np.linalg.eigvalsh(stack).ravel(), b
            del stack  # before the next one is allocated: peak memory is one stack
    # eigenvalue j of a piece sits on its node j; sort within each block
    vals = spectrum[slot]
    offset = np.repeat(shift, dims)
    order = np.lexsort((vals, offset))
    first = np.unique(piece, return_index=True)[1][piece] - offset
    return vals[order], first[order], {"pieces": int(n_pieces), "largest_piece": largest}


def _piece_of(block, node: int):
    """The sparse piece of the sparse ``block`` that holds ``node``."""
    _, piece = connected_components(block != 0, directed=False)
    idx = np.flatnonzero(piece == piece[node])
    return block[idx][:, idx]


def _residual(piece, g: float, scale: float) -> float:
    """||B v - g v|| / ``scale`` for the sparse Hermitian piece B and the
    vector v of two inverse-iteration steps at the shift g.

    One symmetric-indefinite (Bunch-Kaufman LDL^H) factorization of B - g I,
    of a Fortran-ordered dense copy in place; an exactly zero 1x1 pivot (g an
    exact eigenvalue) is replaced by eps * ``scale``, as LAPACK's inverse
    iteration does.  The residual is taken from the sparse B.  For unit v,
    some eigenvalue of B lies within the returned value times ``scale`` of g.
    """
    a = piece.toarray(order="F")
    a[np.diag_indices_from(a)] -= g
    factor, solve = sla.get_lapack_funcs(
        ("hetrf", "hetrs") if np.iscomplexobj(a) else ("sytrf", "sytrs"), (a,))
    # 32 columns of workspace: blocked, yet touching far fewer BLAS buffer
    # pages than LAPACK's default block of 64 (or than getrf)
    ldu, ipiv, info = factor(a, lwork=32 * len(a), overwrite_a=True)
    if info < 0:
        raise ValueError(f"LDL^H factorization rejected argument {-info}")
    zero = np.flatnonzero((ldu.diagonal() == 0) & (ipiv > 0))
    ldu[zero, zero] = np.finfo(ldu.dtype).eps * scale
    v = np.random.default_rng(0).standard_normal(len(ldu)).astype(ldu.dtype)
    for _ in range(2):
        v, info = solve(ldu, ipiv, v)
        v /= np.linalg.norm(v)
    return float(np.linalg.norm(piece @ v - g * v) / scale)


def _kernel_and_gap(vals, starts, first, piece, expected_kernel, of=None):
    """Kernel count and gap from the ascending spectra of the solved blocks,
    solved block r at ``vals[starts[r]:]``; block i has the spectrum of solved
    block ``of[i]`` (default i).  Returns the report, the first block within
    1e-14*scale of the minimum, and each block's gap and kernel count.  The
    residual is that of the reported gap g on the sparse piece
    ``piece(r, first[j])`` that holds it (``_residual``): no eigensolver runs
    again."""
    scale = max(abs(vals.max()), 1e-300)
    above = vals >= KERNEL_RTOL * scale
    solved_gaps = np.minimum.reduceat(np.where(above, vals, np.inf), starts)
    solved_counts = np.add.reduceat(~above, starts)
    of = np.arange(len(starts)) if of is None else of
    block_gaps, kernel_counts = solved_gaps[of], solved_counts[of]
    if np.isinf(block_gaps).all():
        raise SolverConvergenceError("no spectrum above the kernel")
    kdim = int(kernel_counts.sum())
    g = float(block_gaps.min())
    near = (float(vals[~above].max()) if kdim else float("-inf"), g)
    if expected_kernel is not None and kdim != expected_kernel:
        raise KernelMismatchError(
            f"kernel dimension {kdim} != expected {expected_kernel} "
            f"(eigenvalues around threshold: {near})")

    win = int(np.flatnonzero(block_gaps - g < 1e-14 * scale)[0])
    r = of[win]
    residual = _residual(piece(r, first[starts[r] + solved_counts[r]]), g, scale)
    return (GapReport(kernel_dim=kdim, gap=g, residual=residual, near_threshold=near),
            win, block_gaps, kernel_counts)


# ---------------------------------------------------------------------------
# Analytic lower bounds
# ---------------------------------------------------------------------------

def analytic_bounds(model_kind: str, tp: ThermalParams) -> dict:
    """The certified lower bounds evaluated at the model's thermal constants."""
    g = tp.gamma
    return {
        "generator_gap": g ** 4 / 3.0,          # exp(-8*beta*J)/3
        "reduced_generator_gap": tp.h_minus / 2.0,
        "abelian_chain_gap": g ** 2 / (1.0 + g ** 2),
    }


# ---------------------------------------------------------------------------
# Abelian bond chain
# ---------------------------------------------------------------------------

def bond_pair_block(gamma: float) -> np.ndarray:
    """The 4x4 projector coupling two neighboring bond variables.

    Basis order (++, +-, -+, --); spectrum is exactly {0, 1}.
    """
    d = 1.0 + gamma ** 2
    return np.array([
        [gamma ** 2 / d, 0.0, 0.0, -gamma / d],
        [0.0, 0.5, -0.5, 0.0],
        [0.0, -0.5, 0.5, 0.0],
        [-gamma / d, 0.0, 0.0, 1.0 / d],
    ])


def abelian_chain_hamiltonian(n: int, tp: ThermalParams) -> SuperOperatorRep:
    """Sum of pair blocks along an open chain of n bond variables.

    Acts on the 2^n-dimensional diagonal space, bond j on bit n-1-j of the
    index with 0 for '+'; sites 2..n of the ring each contribute the block on
    bond pair (j-1, j).  Built from the bond labels: the diagonal is
    (#'++' pairs)*gamma^2/d + (#'--' pairs)/d + (#mixed pairs)/2 with
    d = 1 + gamma^2, and flipping both bonds of an adjacent pair gives one
    entry, -gamma/d on an equal pair and -1/2 on a mixed one.  Every entry
    depends on the pair counts only, so the matrix is exactly invariant under
    reversing the chain, and ``meta["symmetry"]`` declares that bit reversal.
    """
    if n < 3:
        raise GeneratorError("chain needs at least 3 bonds")
    gamma = tp.gamma
    d = 1.0 + gamma ** 2
    index = np.arange(1 << n)
    pairs = (index[:, None] >> np.arange(n - 1)) & 3
    plus, minus = pairs == 0, pairs == 3
    n_plus, n_minus = plus.sum(axis=1), minus.sum(axis=1)
    diagonal = n_plus * (gamma ** 2 / d) + n_minus * (1.0 / d) \
        + (n - 1 - n_plus - n_minus) * 0.5
    flipped = index[:, None] ^ (3 << np.arange(n - 1))
    rows = np.concatenate([index, np.repeat(index, n - 1)])
    cols = np.concatenate([index, flipped.ravel()])
    data = np.concatenate([diagonal, np.where(plus | minus, -gamma / d, -0.5).ravel()])
    matrix = sp.csr_matrix((data, (rows, cols)), shape=(1 << n, 1 << n))
    reversal = sum(((index >> j) & 1) << (n - 1 - j) for j in range(n))
    return SuperOperatorRep(matrix=matrix, space="hilbert-schmidt", beta=tp.beta,
                            meta={"chain_bonds": n, "gamma": gamma,
                                  "symmetry": reversal})


def abelian_chain_kernel(n: int, gamma: float) -> list:
    """The two known kernel vectors: parity-restricted thermal weights."""
    bits = np.arange(1 << n)
    weight = gamma ** (np.bitwise_count(bits.astype(np.uint64)).astype(float) / 2.0)
    parity = np.bitwise_count(bits.astype(np.uint64)) & 1
    out = []
    for p in (0, 1):
        v = np.where(parity == p, weight, 0.0)
        out.append(v / np.linalg.norm(v))
    return out


# ---------------------------------------------------------------------------
# Gap lemma checkers
# ---------------------------------------------------------------------------

def _dense_of(rep) -> np.ndarray:
    m = _as_matrix(rep)
    return m.toarray() if sp.issparse(m) else np.asarray(m)


def lemma1_check(rep, g: float) -> bool:
    """True iff A^2 - g*A is positive semidefinite (then Gap(A) >= g)."""
    a = _dense_of(rep)
    vals = np.linalg.eigvalsh(a)
    scale = max(abs(vals[-1]), 1e-300)
    if vals[0] > KERNEL_RTOL * scale:
        raise LemmaCheckError("operator has trivial kernel")
    m = a @ a - g * a
    return bool(np.linalg.eigvalsh(m)[0] >= -1e-10 * scale ** 2)


def lemma2_bound(a_rep, b_rep, verify: bool = True) -> float:
    """g_A*g_B / (g_A + ||B||) lower bound for A + B.

    A must be PSD with nontrivial kernel and gap g_A; g_B is the smallest
    expectation of B on normalized kernel vectors of A and must be positive.
    """
    a = _dense_of(a_rep)
    b = _dense_of(b_rep)
    vals, vecs = np.linalg.eigh(a)
    scale = max(abs(vals[-1]), 1e-300)
    thr = KERNEL_RTOL * scale
    kdim = int(np.sum(vals < thr))
    if kdim == 0:
        raise LemmaCheckError("A has trivial kernel")
    if kdim == len(vals):
        raise LemmaCheckError("A vanishes")
    g_a = float(vals[kdim])
    kernel = vecs[:, :kdim]
    restricted = kernel.conj().T @ b @ kernel
    g_b = float(np.linalg.eigvalsh((restricted + restricted.conj().T) / 2.0)[0])
    if g_b <= 0.0:
        raise LemmaCheckError(f"kernel expectation of B is {g_b:.3e}, not positive")
    norm_b = float(np.linalg.norm(b, 2))
    bound = g_a * g_b / (g_a + norm_b)
    if verify:
        floor = float(np.linalg.eigvalsh(a + b)[0])
        if floor < bound - 1e-10 * max(1.0, norm_b):
            raise LemmaCheckError(
                f"bound {bound:.6g} exceeds the actual minimum {floor:.6g}")
    return bound


def lemma3_bound(y: float, x: complex, z: float, u: float,
                 verify: bool = True) -> float:
    """y*u / (u + ||C'||) lower bound for the smaller eigenvalue of
    [[y, x], [conj(x), z + u]], given u > 0 and C' = [[y, x], [conj(x), z]] PSD."""
    if u <= 0:
        raise LemmaCheckError("u must be positive")
    c_prime = np.array([[y, x], [np.conjugate(x), z]])
    vals = np.linalg.eigvalsh(c_prime)
    if vals[0] < -1e-12 * max(1.0, abs(vals[-1])):
        raise LemmaCheckError("C' is not positive semidefinite")
    bound = y * u / (u + float(vals[-1]))
    if verify:
        c = np.array([[y, x], [np.conjugate(x), z + u]])
        eps = float(np.linalg.eigvalsh(c)[0])
        if eps < bound - 1e-12 * max(1.0, u):
            raise LemmaCheckError(
                f"bound {bound:.6g} exceeds the smaller eigenvalue {eps:.6g}")
    return bound


# ---------------------------------------------------------------------------
# Certification
# ---------------------------------------------------------------------------

def gap_from_blocks(lrep: SuperOperatorRep, expected_kernel=None,
                    inventory: bool = False) -> GapReport:
    """Full-spectrum gap via the charge-sector blocks (exact partition).

    Blocks in one lattice-symmetry orbit (``block_orbits``) share their
    spectrum exactly, so only the first block of each orbit is assembled,
    sparse, from the jump components of ``lrep``: ``ChargeBlocks.union``
    writes each batch of _BATCH_NODES nodes straight into one block-diagonal
    matrix, which ``_piece_spectra`` solves on its pieces (a piece above
    DENSE_DIM_CAP raises ValueError before its batch is solved).  ``extras``
    counts the blocks solved and in total, the symmetry generators kept and
    the pieces, gives the largest piece and names the ``min_block`` holding
    the gap; ``stages`` gives the seconds of assembling charge blocks
    (``ChargeBlocks`` and the batch unions), of grouping them into orbits, of
    the piece eigensolve and of the gap's residual (``_residual``, on the
    piece that holds the gap).  With ``inventory`` the report carries one
    entry per block (label, dimension, kernel count, smallest eigenvalue
    above the kernel).
    """
    t0 = time.perf_counter()
    frame = lrep.frame
    charge = ChargeBlocks(lrep)
    t_charge = time.perf_counter()
    labels = block_labels(frame)
    orbits = block_orbits(lrep)
    reps = np.unique(orbits.rep)
    t_orbits = time.perf_counter()
    dim = labels[0].dim
    per = max(1, _BATCH_NODES // dim)
    unions = [charge.union(reps[i:i + per]) for i in range(0, reps.size, per)]
    t_solve = time.perf_counter()
    vals, first, info = zip(*(_piece_spectra(u, np.full(u.shape[0] // dim, dim), DENSE_DIM_CAP)
                              for u in unions))
    t_residual = time.perf_counter()

    def piece(r, node):
        a = r % per * dim
        return _piece_of(unions[r // per][a:a + dim, a:a + dim], node)

    report, win, block_gaps, kernel_counts = _kernel_and_gap(
        np.concatenate(vals), np.arange(reps.size) * dim, np.concatenate(first), piece,
        expected_kernel, of=np.searchsorted(reps, orbits.rep))
    report.solver = "blocks"
    report.elapsed = time.perf_counter() - t0
    report.extras.update({"min_block": labels[win].describe(),
                          "blocks_solved": int(reps.size),
                          "blocks_total": len(labels),
                          "symmetry_generators": len(orbits.generators),
                          "pieces": sum(i["pieces"] for i in info),
                          "largest_piece": max(i["largest_piece"] for i in info),
                          "stages": {"charge_blocks_s": t_charge - t0 + t_solve - t_orbits,
                                     "orbits_s": t_orbits - t_charge,
                                     "eigensolve_s": t_residual - t_solve,
                                     "residual_s": time.perf_counter() - t_residual}})
    if inventory:
        report.extras["blocks"] = [
            {"flip": lab.flip, "sector": lab.sector, "dim": lab.dim,
             "kernel_dim": int(kd), "gap": float(bg)}
            for lab, kd, bg in zip(labels, kernel_counts, block_gaps)]
    return report


def certify(model: ModelSpec, tp: ThermalParams, couplings=None, frame=None,
            inventory: bool = False) -> GapReport:
    """Compute the generator gap and assert the exp(-8*beta*J)/3 lower bound.

    The gap is the exact minimum over the charge blocks (``gap_from_blocks``),
    with the kernel dimension required to equal the commutant's.  The one
    size limit is the piece cap of ``gap_from_blocks``, DENSE_DIM_CAP.  A
    bound violation raises; it is never downgraded to a warning.
    ``extras["stages"]`` adds the seconds of ``build_generator``
    (``generator_s``) to the stages of ``gap_from_blocks``.
    """
    t0 = time.time()
    if couplings is None:
        couplings = default_couplings(model)
    if frame is None:
        frame = build_frame(model)
    t_generator = time.perf_counter()
    lrep = build_generator(model, couplings=couplings, tp=tp, frame=frame)
    t_generator = time.perf_counter() - t_generator
    expected = commutant_dimension(couplings, model.hamiltonian())

    report = gap_from_blocks(lrep, expected_kernel=expected, inventory=inventory)
    report.extras["stages"] = {"generator_s": t_generator, **report.extras["stages"]}

    bound = analytic_bounds(model.kind, tp)["generator_gap"]
    report.analytic_bound = bound
    report.bound_name = f"{model.kind}_generator_gap"
    report.elapsed = time.time() - t0
    report.extras.update({"model": model.kind, "size": _model_size(model),
                          "betaJ": tp.beta * tp.coupling, "method": "blocks"})
    if report.gap < bound:
        raise BoundViolationError(
            f"gap {report.gap:.6g} violates the certified bound {bound:.6g} "
            f"({model.kind}, betaJ={tp.beta * tp.coupling})")
    return report


def _model_size(model: ModelSpec) -> int:
    if model.kind == "toric":
        return model.geometry["L"]
    return model.n_sites


# ---------------------------------------------------------------------------
# Batch sweeps
# ---------------------------------------------------------------------------

def sweep(model_kind: str, sizes, betaJs, coupling: float = 1.0,
          coupling_letters: str = None) -> list:
    """Gap certification over a (size x betaJ) grid; deterministic order."""
    reports = []
    for size in sizes:
        model = build_ising_or_toric(model_kind, size, coupling)
        frame = build_frame(model)
        couplings = default_couplings(model, coupling_letters)
        for betaJ in betaJs:
            tp = ThermalParams.from_betaJ(betaJ, coupling)
            reports.append(certify(model, tp, couplings=couplings, frame=frame))
    return reports


def build_ising_or_toric(kind: str, size: int, coupling: float = 1.0) -> ModelSpec:
    from .models import build_ising_ring, build_toric_code
    if kind == "ising":
        return build_ising_ring(size, coupling)
    if kind == "toric":
        return build_toric_code(size, coupling)
    raise ValueError(f"unknown model kind {kind!r}")


SWEEP_COLUMNS = ["model", "N_or_L", "betaJ", "gap", "bound", "margin",
                 "kernel_dim", "solver", "seconds"]


def write_sweep_csv(reports, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_COLUMNS)
        for r in reports:
            writer.writerow([
                r.extras.get("model", ""), r.extras.get("size", ""),
                f"{r.extras.get('betaJ', float('nan')):.6g}",
                f"{r.gap:.12g}", f"{r.analytic_bound:.12g}",
                f"{r.margin:.12g}", r.kernel_dim, r.solver,
                f"{r.elapsed:.3f}"])
