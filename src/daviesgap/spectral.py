"""Spectral gaps, analytic lower bounds, and certification.

The gap of a positive semidefinite operator is its smallest eigenvalue above
the kernel.  Both gap paths split the operator exactly into invariant sparse
blocks and solve them densely on their pieces (``_piece_spectra``), under one
size limit, the dense cap on a piece: ``gap`` the operator itself,
``gap_from_blocks`` the charge blocks of a generator, one block per
lattice-symmetry orbit, and only those whose sector's Gershgorin bounds can
hold the kernel, the gap or the largest eigenvalue.  Each piece is factored
by one eigensolver call only: the gap's residual comes from one step of
inverse iteration, one LU solve, on the piece that holds it, shifted by the
gap.  An operator that declares an
open XY chain form, as the bond chain does, skips the eigensolve: ``gap``
checks the form against every entry and reads the spectrum from its
free-fermion modes (``xy_gap``).
Certification takes the generator gap as the exact minimum over its charge
blocks, asserts gap >= exp(-8*beta*J)/3 and reports the margin.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field

import numpy as np

from .basis import build_frame
from .davies import (SuperOperatorRep, ThermalParams, build_generator,
                     default_couplings, GeneratorError)
from .master import (BlockLabel, ChargeBlocks, SparseMatrix, _components, block_orbits,
                     block_sectors)
from .models import ModelSpec, build_ising_ring, build_toric_code
from .pauli import commutant_dimension

DENSE_DIM_CAP = 4096
_BATCH_NODES = 1 << 15  # gap_from_blocks solves its blocks in batches of this many nodes
KERNEL_RTOL = 1e-10
_MAX_SUBSET_MODES = 20  # xy_gap lists the 2^z subset sums of at most this many modes


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

    ``rep`` is a square operator: a dense array, a ``SparseMatrix``, any
    object with ``tocoo()`` (a scipy.sparse matrix, read without importing
    scipy) or a Hilbert-Schmidt ``SuperOperatorRep`` holding one.  It is read
    in the canonical form of ``SparseMatrix.of``; an operator that is not a
    square matrix raises ValueError, naming its shape, before any solve.
    Eigenvalues below KERNEL_RTOL times the largest one count as kernel.
    Every vector v of ``kernel_basis`` must be nonzero and satisfy
    ||A v|| <= KERNEL_RTOL * lambda_max * ||v||, checked on the whole
    operator; KernelMismatchError names the first vector that is zero or has
    a residual that is not finite, else the worst one above the bound.
    ``seed`` is unused.

    An operator that declares an open XY chain form, ``meta["xy_form"]`` (the
    bond chain does), has its spectrum read from the form (``xy_gap``) and
    the form checked against every entry (``_checked_form``): no eigensolver
    runs on it and ``dense_cap`` does not apply.  ``residual`` is the form's
    error bound ``form_error`` over lambda_max; ``stages`` gives the seconds
    of the SVD and of the form check.  Any other operator is solved on its
    pieces, the connected components of its nonzero pattern
    (``_piece_spectra``); one above ``dense_cap`` raises ValueError before
    any eigensolve.  ``extras`` then counts the pieces and gives the
    dimensions of the largest one and of the one holding the gap; ``stages``
    gives the seconds of reading the operator, of the piece eigensolve and of
    the gap's residual (``_residual``, one LU solve on the piece holding it).
    """
    t0, t_split = time.time(), time.perf_counter()
    matrix = SparseMatrix.of(_as_matrix(rep))
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise ValueError(f"gap needs a square operator, got shape {matrix.shape}")
    form = (getattr(rep, "meta", None) or {}).get("xy_form")
    t_solve = time.perf_counter()
    if form is not None:
        report = xy_gap(form)
        top = report.extras["lambda_max"]
        t_check = time.perf_counter()
        delta = _checked_form(matrix, form, top)
        _check_kernel(report.kernel_dim, expected_kernel, report.near_threshold)
        report.residual = delta / top
        report.extras.update({"form_error": delta,
                              "stages": {"svd_s": t_check - t_solve,
                                         "form_check_s": time.perf_counter() - t_check}})
    else:
        vals, owner, labels, pieces = _piece_spectra(matrix, [n], dense_cap)
        t_residual = time.perf_counter()
        report, *_ = _kernel_and_gap(
            vals, [0], owner, lambda r, p: _piece(matrix, labels, p), expected_kernel)
        top = vals.max()
        holder = owner[report.kernel_dim]  # the piece of the first eigenvalue above the kernel
        report.extras.update({**pieces,
                              "min_piece_dim": int(np.count_nonzero(labels == holder)),
                              "stages": {"split_s": t_solve - t_split,
                                         "eigensolve_s": t_residual - t_solve,
                                         "residual_s": time.perf_counter() - t_residual}})
    if kernel_basis is not None and len(kernel_basis) > 0:
        res = []
        for i, v in enumerate(kernel_basis):
            norm = np.linalg.norm(v)
            if norm == 0:
                raise KernelMismatchError(f"kernel_basis vector {i} is zero")
            res.append(np.linalg.norm(matrix @ v) / (top * norm))
            if not np.isfinite(res[i]):
                raise KernelMismatchError(f"kernel_basis vector {i} has ||A v|| / "
                                          f"(lambda_max ||v||) = {res[i]}, not finite")
        worst = int(np.argmax(res))
        if res[worst] > KERNEL_RTOL:
            raise KernelMismatchError(
                f"kernel_basis vector {worst} has ||A v|| / (lambda_max ||v||) "
                f"= {res[worst]:.3e}, above {KERNEL_RTOL:g}")
    report.elapsed = time.time() - t0
    return report


def xy_gap(form) -> GapReport:
    """Kernel dimension and gap of the open XY chain ``form`` = (c, h, a, b),
    c + sum_j h_j Z_j + sum_j (a_j X_j X_j+1 + b_j Y_j Y_j+1), from the form
    alone.  Its spectrum is E0 plus the subset sums of the mode energies
    eps = 2 svd(T), T tridiagonal with diagonal -h, subdiagonal a and
    superdiagonal b, and E0 = c - sum(eps)/2 (Jordan-Wigner; Lieb, Schultz &
    Mattis, Ann. Phys. 16 (1961) 407).  Only the z modes with E0 + eps_k
    below KERNEL_RTOL * lambda_max can enter the kernel.  If their sum is
    below it too, every subset is kernel: the kernel is 2^z and the gap
    E0 + eps_z, with no subset listed.  Otherwise it counts their subset sums
    below that, and the gap is the smallest of E0 + eps_z and their subset
    sums above it; more than 20 such modes raise ValueError, naming z, before
    any is listed.  ``extras`` gives lambda_max = c + sum(eps)/2.
    """
    c, h, a, b = (np.asarray(x, dtype=float) for x in form)
    eps = 2.0 * np.linalg.svd(np.diag(-h) + np.diag(a, -1) + np.diag(b, 1),
                              compute_uv=False)[::-1]
    e0, top = c - eps.sum() / 2.0, c + eps.sum() / 2.0
    threshold = KERNEL_RTOL * max(abs(top), 1e-300)
    z = int(np.count_nonzero(e0 + eps < threshold))
    largest = e0 + eps[:z].sum()
    if largest < threshold:  # every subset sum of the z modes is kernel
        if z == eps.size:
            raise SolverConvergenceError("no spectrum above the kernel")
        kdim, near = 1 << z, (float(largest), float(e0 + eps[z]))
    else:
        if z > _MAX_SUBSET_MODES:
            raise ValueError(f"{z} modes can enter the kernel of the xy_form, above "
                             f"{_MAX_SUBSET_MODES}: too many subset sums to list")
        vals = np.sort(np.append(e0 + ((np.arange(1 << z)[:, None] >> np.arange(z)) & 1)
                                 @ eps[:z], e0 + eps[z:z + 1]))
        kdim = int(np.searchsorted(vals, threshold))
        near = (float(vals[kdim - 1]) if kdim else float("-inf"), float(vals[kdim]))
    return GapReport(kernel_dim=kdim, gap=near[1], solver="xy_form", near_threshold=near,
                     extras={"lambda_max": float(top)})


def _checked_form(matrix: SparseMatrix, form, top: float) -> float:
    """delta, the largest row sum of |A - Q| for the canonical ``matrix`` A
    and the matrix Q of the XY ``form``, bond j on bit n-1-j, in the chain's
    layout (``_chain_entries``): diagonal c + sum_j h_j (1 - 2 bit_j), built
    by the same doubling, flip u ^ (3 << k) a + b on a mixed pair and a - b
    on an equal one.  delta bounds ||A - Q||_2, so by Weyl every eigenvalue
    of A lies within delta of one of Q's.  Where the patterns of A and Q
    differ, delta is taken over their union: a float64 form cannot write
    entries below its own rounding, such as the chain's (n - 1) gamma^2 / d
    for gamma < 1e-8.  ValueError unless delta <= KERNEL_RTOL * ``top``
    (lambda_max).  When A has the layout's pattern, whatever Q's values,
    its rows are checked on the (2^n, n) layout, row u at u*n onward, and
    |A - Q| is written over Q: only Q's columns and values are held at full
    size.  On the bond chain, with one BLAS thread on 2 cores, that takes
    0.8-0.9 ms at N = 12 and 0.09 s at N = 18.  Otherwise A's cells are
    found among the layout's sorted keys, no sort, and A's entries outside
    the layout add to their rows."""
    c, h, a, b = form
    n = len(h)
    size = 1 << n
    if matrix.shape != (size, size):
        raise ValueError(f"an xy_form of {n} bonds needs shape {(size, size)}, "
                         f"got {matrix.shape}")
    # pair k moves the bits k and k + 1, that is bonds n-2-k and n-1-k
    col, data, diag_at = _chain_entries(n, np.subtract(a, b)[::-1].tolist(),
                                        np.add(a, b)[::-1].tolist())
    diagonal = np.full(1, c, dtype=float)
    for field in np.asarray(h, dtype=float)[::-1]:  # bit m, bond n-1-m, clear then set
        diagonal = np.concatenate([diagonal + field, diagonal - field])
    data[diag_at] = diagonal
    if (np.array_equal(col, matrix.col)
            and (matrix.row.reshape(size, n) == np.arange(size)[:, None]).all()):
        # A has the layout's pattern: row u holds its entries u*n .. u*n + n - 1
        if np.iscomplexobj(matrix.data):
            deviation = np.abs(matrix.data - data)
        else:
            deviation = np.abs(np.subtract(matrix.data, data, out=data), out=data)
        # row sums on the (2^n, n) view by one matrix-vector product, which
        # takes a tenth of the time of .sum(axis=1) at N = 12
        delta = (deviation.reshape(size, n) @ np.ones(n)).max()
    else:  # A's cells found among the layout's keys, those outside it added to their rows
        key = np.repeat(np.arange(size) * size, n) + col
        cell = matrix.row * size + matrix.col
        at = np.minimum(np.searchsorted(key, cell), key.size - 1)
        inside = key[at] == cell
        diff = data.astype(np.result_type(data, matrix.data))
        np.subtract.at(diff, at[inside], matrix.data[inside])
        within, outside = np.abs(diff), np.abs(matrix.data[~inside])
        deviation = np.concatenate([within, outside])
        delta = (within.reshape(size, n) @ np.ones(n)
                 + np.bincount(matrix.row[~inside], outside, minlength=size)).max()
    if delta <= KERNEL_RTOL * top:
        return float(delta)
    bad = np.count_nonzero(deviation > KERNEL_RTOL * top)
    raise ValueError(f"operator does not have its declared xy_form: {bad} entries differ "
                     f"by more than {KERNEL_RTOL:g} * lambda_max, largest deviation "
                     f"{deviation.max(initial=0.0):.3e}, row-sum bound {delta:.3e}")


def _piece_spectra(union: SparseMatrix, dims, cap) -> tuple:
    """The ascending spectrum of each block of the block-diagonal ``union``,
    whose diagonal blocks have dimensions ``dims``, solved on their pieces.

    A piece, a connected component of the nonzero pattern (an imaginary entry
    is an edge) with its nodes in ascending order, is an exact invariant
    subspace; one above ``cap`` raises ValueError before any eigensolve.
    Pieces of one size share a stacked ``eigvalsh``; no stack holds more
    entries than the largest piece or 256^2.  Returns the concatenated
    spectra, each eigenvalue's piece label, each node's piece label
    (``_piece`` reads a piece by its label), and the piece count and largest
    piece.
    """
    shift = np.cumsum(dims) - dims
    n_pieces, piece = _components(union.shape[0], union.row, union.col)
    size = np.bincount(piece)
    largest = int(size.max())
    if largest > cap:
        raise ValueError(f"largest invariant piece has dimension {largest}, "
                         f"above the dense cap {cap}")
    # nodes by piece size, then piece: the nodes of each piece in ascending order
    nodes = np.lexsort((piece, size[piece]))
    slot = np.argsort(nodes)
    order = np.argsort(slot[union.row], kind="stable")
    row, col, data = slot[union.row][order], slot[union.col][order], union.data[order]
    spectrum, a = np.empty(nodes.size), 0
    for d, count in zip(*np.unique(size, return_counts=True)):
        per = max(1, max(largest, 256) ** 2 // d ** 2)  # few calls for small pieces
        for c in range(0, count, per):
            b = a + min(per, count - c) * d
            lo, hi = np.searchsorted(row, [a, b])
            stack = np.zeros(((b - a) // d, d, d), dtype=data.dtype)
            stack[(row[lo:hi] - a) // d, (row[lo:hi] - a) % d, (col[lo:hi] - a) % d] = data[lo:hi]
            if np.iscomplexobj(stack) and not stack.imag.any():
                stack = stack.real
            spectrum[a:b], a = np.linalg.eigvalsh(stack).ravel(), b
            del stack  # before the next one is allocated: peak memory is one stack
    # eigenvalue j of a piece sits on its node j; sort within each block
    vals = spectrum[slot]
    order = np.lexsort((vals, np.repeat(shift, dims)))
    return vals[order], piece[order], piece, {"pieces": int(n_pieces), "largest_piece": largest}


def _piece(union: SparseMatrix, piece, label) -> SparseMatrix:
    """The piece of ``union`` whose nodes carry ``label`` in ``piece``: its
    rows, with their rows and columns renumbered, as a component's rows reach
    no other node."""
    member = piece == label
    keep, index = member[union.row], np.cumsum(member) - 1
    return SparseMatrix((int(member.sum()),) * 2, index[union.row[keep]],
                        index[union.col[keep]], union.data[keep])


def _residual(piece: SparseMatrix, g: float, scale: float) -> float:
    """||B v - g v|| / ``scale`` for the sparse Hermitian piece B and the
    vector v of one inverse-iteration step at the shift g, from a fixed
    pseudo-random start (splitmix64), so no ``numpy.random`` is loaded.

    One LU solve (``np.linalg.solve``) of B - g I.  If B - g I is exactly
    singular (g an exact eigenvalue), its diagonal moves by a further
    eps * ``scale``, as LAPACK's inverse iteration replaces a zero pivot, and
    v takes two steps.  The residual is taken from the sparse B.  For unit v,
    some eigenvalue of B lies within the returned value times ``scale`` of g.
    """
    a = piece.toarray(order="F")  # the layout LAPACK reads: no transposed copy
    a[np.diag_indices_from(a)] -= g
    # splitmix64 of 1, 2, ... in [-1/2, 1/2); a plain Weyl sequence k * phi mod 1
    # is one plane wave and left ring 11's residual ten times larger
    z = np.arange(1, len(a) + 1, dtype=np.uint64) * 0x9E3779B97F4A7C15
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9
    z = (z ^ z >> 27) * 0x94D049BB133111EB
    v = (((z ^ z >> 31) >> 11) * 2.0 ** -53 - 0.5).astype(a.dtype)
    try:
        v = np.linalg.solve(a, v)
    except np.linalg.LinAlgError:
        a[np.diag_indices_from(a)] -= np.finfo(a.dtype).eps * scale
        for _ in range(2):
            v = np.linalg.solve(a, v / np.linalg.norm(v))
    v /= np.linalg.norm(v)
    return float(np.linalg.norm(piece @ v - g * v) / scale)


def _kernel_and_gap(vals, starts, owner, piece, expected_kernel, of=None):
    """Kernel count and gap from the ascending spectra of the solved blocks,
    solved block r at ``vals[starts[r]:]``; block i has the spectrum of solved
    block ``of[i]`` (default i), or, where ``of[i]`` is -1, is a screened block,
    with gap +inf and no kernel.  Returns the report, the first block within
    1e-14*scale of the minimum, and each block's gap and kernel count.  The
    residual is that of the reported gap g, eigenvalue j, on the sparse piece
    ``piece(r, owner[j])`` that holds it (``_residual``): no eigensolver runs
    again."""
    scale = max(abs(vals.max()), 1e-300)
    above = vals >= KERNEL_RTOL * scale
    # a screened block reads the last entry, of = -1
    solved_gaps = np.append(np.minimum.reduceat(np.where(above, vals, np.inf), starts), np.inf)
    solved_counts = np.append(np.add.reduceat(~above, starts), 0)
    of = np.arange(len(starts)) if of is None else of
    block_gaps, kernel_counts = solved_gaps[of], solved_counts[of]
    if np.isinf(block_gaps).all():
        raise SolverConvergenceError("no spectrum above the kernel")
    kdim = int(kernel_counts.sum())
    g = float(block_gaps.min())
    near = (float(vals[~above].max()) if kdim else float("-inf"), g)
    _check_kernel(kdim, expected_kernel, near)
    win = int(np.flatnonzero(block_gaps - g < 1e-14 * scale)[0])
    r = of[win]
    residual = _residual(piece(r, owner[starts[r] + solved_counts[r]]), g, scale)
    return (GapReport(kernel_dim=kdim, gap=g, residual=residual, near_threshold=near),
            win, block_gaps, kernel_counts)


def _check_kernel(kdim, expected_kernel, near) -> None:
    if expected_kernel is not None and kdim != expected_kernel:
        raise KernelMismatchError(
            f"kernel dimension {kdim} != expected {expected_kernel} "
            f"(eigenvalues around threshold: {near})")


# ---------------------------------------------------------------------------
# Analytic lower bounds
# ---------------------------------------------------------------------------

def analytic_bounds(tp: ThermalParams) -> dict:
    """The certified lower bounds at ``tp``; the ring and the torus share them."""
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
    """Sum of pair blocks along an open chain of n bond variables, on the
    2^n-dimensional diagonal space, bond j on bit n-1-j of the index with 0
    for '+'; sites 2..n of the ring each contribute the block on bond pair
    (j-1, j).  Written in canonical order into the layout of
    ``_chain_entries``, with no sort: the diagonal is
    (#'++' pairs)*gamma^2/d + (#'--' pairs)/d + (#mixed pairs)/2 with
    d = 1 + gamma^2, and flipping both bonds of an adjacent pair gives -gamma/d
    on an equal pair, -1/2 on a mixed one.  With one BLAS thread on 2 cores
    it takes 0.7-0.8 ms at N = 12 and 0.07 s at N = 18.
    ``meta["xy_form"]`` declares ``abelian_chain_form``."""
    if n < 3:
        raise GeneratorError("chain needs at least 3 bonds")
    gamma = tp.gamma
    d = 1.0 + gamma ** 2
    cols, data, diag_at = _chain_entries(n, [-gamma / d] * (n - 1), [-0.5] * (n - 1))
    index = np.arange(1 << n)
    rows = np.repeat(index, n)
    # bit k of these marks a '++' and a '--' pair (k, k + 1)
    n_plus = np.bitwise_count(~(index | index >> 1) & ((1 << (n - 1)) - 1))
    n_minus = np.bitwise_count(index & index >> 1)
    data[diag_at] = n_plus * (gamma ** 2 / d) + n_minus * (1.0 / d) \
        + (n - 1 - n_plus - n_minus) * 0.5
    keep = data != 0
    if not keep.all():  # gamma = 0
        rows, cols, data = rows[keep], cols[keep], data[keep]
    matrix = SparseMatrix((1 << n, 1 << n), rows, cols, data)
    return SuperOperatorRep(matrix=matrix, space="hilbert-schmidt", beta=tp.beta,
                            meta={"chain_bonds": n, "gamma": gamma,
                                  "xy_form": abelian_chain_form(n, gamma)})


def abelian_chain_form(n: int, gamma: float) -> tuple:
    """The bond chain as the XY form (c, h, a, b) of ``xy_gap``: the pair
    block is 1/2 + h (ZI + IZ) + a XX + b YY with d = 1 + gamma^2,
    h = -(1 - gamma^2)/(4d), a = -(1 + gamma)^2/(4d), b = -(1 - gamma)^2/(4d),
    so c = (n - 1)/2 and a bond's field is 2h inside the chain, h at its ends.
    """
    d = 1.0 + gamma ** 2
    field = np.full(n, -(1.0 - gamma ** 2) / (2.0 * d))
    field[[0, -1]] /= 2.0
    return ((n - 1) / 2.0, field, np.full(n - 1, -(1.0 + gamma) ** 2 / (4.0 * d)),
            np.full(n - 1, -(1.0 - gamma) ** 2 / (4.0 * d)))


def _chain_entries(n: int, equal, mixed) -> tuple:
    """Columns and flip values of an n-bond chain, row u's diagonal and
    flips u ^ (3 << k) at u*n onward in column order, and the diagonals'
    positions, their values left to the caller; a flip is ``equal[k]`` on an
    equal pair k, ``mixed[k]`` on a mixed one.  Built by doubling, with no
    sort and no bit table: adding bit m (pair m - 1), a row without it puts
    its new flip, which sets bit m, last; a row with it puts its new flip
    first, then the entries of the row without it, bit m set."""
    size = 1 << n
    cols = np.empty((size, n), dtype=np.int64)
    data = np.empty((size, n))
    diag_at = np.zeros(size, dtype=np.int64)
    cols[:2, 0] = (0, 1)  # one bond: the diagonal only
    for m in range(1, n):
        half, low = 1 << m, 1 << (m - 1)
        index = np.arange(half)
        np.bitwise_or(cols[:half, :m], half, out=cols[half:2 * half, 1:m + 1])
        data[half:2 * half, 1:m + 1] = data[:half, :m]
        diag_at[half:2 * half] = diag_at[:half] + 1
        cols[:half, m] = index ^ low | half
        cols[half:2 * half, 0] = index ^ low
        # the pair (bit m, bit m - 1) runs 00, 01, 10, 11 down the rows
        block = np.repeat([equal[m - 1], mixed[m - 1], mixed[m - 1], equal[m - 1]], low)
        data[:half, m], data[half:2 * half, 0] = block[:half], block[half:]
    return cols.ravel(), data.ravel(), np.arange(0, n << n, n) + diag_at


def abelian_chain_kernel(n: int, gamma: float) -> list:
    """The two known kernel vectors: parity-restricted thermal weights, a
    state of w '-' bonds weighing gamma^((w - w_min)/2) against the lightest
    states of its parity, w_min = 0 or 1 (0^0 = 1), so gamma = 0 gives the
    limiting vectors.  ValueError for a gamma that is negative, NaN or above
    1."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"chain kernel needs 0 <= gamma <= 1, got gamma={gamma!r}")
    w = np.bitwise_count(np.arange(1 << n, dtype=np.uint64))
    weight = gamma ** (w >> 1)  # (w - w_min) / 2 for either parity
    out = []
    for p in (0, 1):
        v = np.where(w & 1 == p, weight, 0.0)
        out.append(v / np.linalg.norm(v))
    return out


# ---------------------------------------------------------------------------
# Gap lemma checkers
# ---------------------------------------------------------------------------

def _dense_of(rep) -> np.ndarray:
    m = _as_matrix(rep)
    return m.toarray() if hasattr(m, "toarray") else np.asarray(m)


def lemma1_check(rep, g: float) -> bool:
    """True iff A^2 - g*A is positive semidefinite (then Gap(A) >= g)."""
    a = _dense_of(rep)
    vals = np.linalg.eigvalsh(a)
    scale = max(abs(vals[-1]), 1e-300)
    if vals[0] > KERNEL_RTOL * scale:
        raise LemmaCheckError("operator has trivial kernel")
    m = a @ a - g * a
    return bool(np.linalg.eigvalsh(m)[0] >= -1e-10 * scale ** 2)


def lemma2_bound(a_rep, b_rep) -> float:
    """g_A*g_B / (g_A + ||B||) lower bound for A + B.

    A must be PSD with nontrivial kernel and gap g_A; g_B is the smallest
    expectation of B on normalized kernel vectors of A and must be positive.
    The bound is checked against the smallest eigenvalue of A + B.
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
    floor = float(np.linalg.eigvalsh(a + b)[0])
    if floor < bound - 1e-10 * max(1.0, norm_b):
        raise LemmaCheckError(f"bound {bound:.6g} exceeds the actual minimum {floor:.6g}")
    return bound


def lemma3_bound(y: float, x: complex, z: float, u: float) -> float:
    """y*u / (u + ||C'||) lower bound for the smaller eigenvalue of
    [[y, x], [conj(x), z + u]], given u > 0 and C' = [[y, x], [conj(x), z]] PSD;
    checked against that eigenvalue."""
    if u <= 0:
        raise LemmaCheckError("u must be positive")
    c_prime = np.array([[y, x], [np.conjugate(x), z]])
    vals = np.linalg.eigvalsh(c_prime)
    if vals[0] < -1e-12 * max(1.0, abs(vals[-1])):
        raise LemmaCheckError("C' is not positive semidefinite")
    bound = y * u / (u + float(vals[-1]))
    eps = float(np.linalg.eigvalsh(np.array([[y, x], [np.conjugate(x), z + u]]))[0])
    if eps < bound - 1e-12 * max(1.0, u):
        raise LemmaCheckError(f"bound {bound:.6g} exceeds the smaller eigenvalue {eps:.6g}")
    return bound


# ---------------------------------------------------------------------------
# Certification
# ---------------------------------------------------------------------------

def gap_from_blocks(lrep: SuperOperatorRep, expected_kernel=None,
                    inventory: bool = False) -> GapReport:
    """Full-spectrum gap via the charge-sector blocks (exact partition).

    Blocks in one lattice-symmetry orbit (``block_orbits``) share their
    spectrum exactly, so only the first block of each orbit, its
    representative, can need solving.  Each distinct sector of the
    representatives is first bounded by its Gershgorin discs, all sectors
    in a few passes (``ChargeBlocks.sector_bounds``: [lo, hi] holds every
    block of the sector), and sectors are solved in rounds, with tau =
    KERNEL_RTOL times Lambda, the largest hi.  Round 1 solves the sector of
    least lo and that of greatest hi (every sector with ``inventory``).
    After each round, with M the largest eigenvalue solved and g the gap of
    the solved blocks at the kernel threshold KERNEL_RTOL * M, the rule keeps
    every unsolved sector with lo <= g + tau or hi >= M - tau.  Before they
    are solved, the bounds of the kept sectors are narrowed by a diagonal
    similarity (``ChargeBlocks.narrowed_bounds``), once per sector, and the
    rule is applied again; the next round solves what it keeps.  None kept,
    the rest are screened.  A screened block's computed eigenvalues lie
    within about dim * eps * Lambda (at most 1e-12 * Lambda at
    DENSE_DIM_CAP) of its [lo, hi], so they are all below M and above g,
    and the report is the one of solving every representative, bit for bit.

    Each round's representatives are assembled, sparse, from the jump
    components of ``lrep``: ``ChargeBlocks.union`` writes each batch of
    _BATCH_NODES nodes straight into one block-diagonal matrix, which
    ``_piece_spectra`` solves on its pieces (a piece above DENSE_DIM_CAP
    raises ValueError before its batch is solved).  Besides the batch being
    solved, only the one holding the least eigenvalue above the kernel so far
    is kept, for the residual, which builds the gap's batch again only if
    that is not it (a later batch raised lambda_max past it).

    ``extras`` counts the blocks solved (diagonalized), screened and in
    total, the symmetry generators kept and the pieces solved, gives the
    largest piece, names the ``min_block`` holding the gap and gives
    ``screen_margin``, the least of lo - g and M - hi over the screened
    sectors over Lambda (above KERNEL_RTOL; None when none is screened),
    ``screen_rounds``, the rounds solved, and ``top_slack``, (Lambda - M) / M
    for the bounds used at the end; ``stages`` gives the seconds of
    assembling charge blocks (``ChargeBlocks`` and the batch unions), of
    grouping them into orbits, of the sector bounds and their narrowing, of
    the piece eigensolve and of the gap's residual (``_residual``, on the
    piece that holds the gap, with any rebuild).  With ``inventory``
    the report carries one entry per block (label, dimension, kernel count,
    smallest eigenvalue above the kernel).
    """
    t0 = time.perf_counter()
    frame = lrep.frame
    charge = ChargeBlocks(lrep)
    t_charge = time.perf_counter()
    orbits = block_orbits(lrep)
    reps = np.unique(orbits.rep)
    t_orbits = time.perf_counter()
    dim = 1 << frame.n_indep
    deltas, sector_of, _ = block_sectors(frame, reps)
    lo, hi = charge.sector_bounds(deltas)
    bounds_s = time.perf_counter() - t_orbits
    per = max(1, _BATCH_NODES // dim)
    narrowed, solved = np.zeros((2, deltas.size), dtype=bool)
    batches, spectra, held, rounds = [], [], (-1, None), 0
    charge_s, solve_s, top, least = t_charge - t0, 0.0, -np.inf, np.inf
    todo = np.full(deltas.size, inventory)
    todo[[lo.argmin(), hi.argmax()]] = True
    while todo.any():
        solved |= todo
        rounds += 1
        round_reps = reps[todo[sector_of]]
        for batch in np.split(round_reps, np.arange(per, round_reps.size, per)):
            t_build = time.perf_counter()
            union = None  # drop the previous batch before the next is built
            union = charge.union(batch)
            t_solve = time.perf_counter()
            batches.append(batch)
            spectra.append(_piece_spectra(union, np.full(batch.size, dim), DENSE_DIM_CAP))
            charge_s += t_solve - t_build
            solve_s += time.perf_counter() - t_solve
            # hold for the residual the batch of the least eigenvalue above the
            # kernel so far; a tie within _kernel_and_gap's 1e-14 * scale keeps
            # the earlier batch, as _kernel_and_gap picks the earlier block
            batch_vals = spectra[-1][0]
            top = max(top, batch_vals.max())
            low = batch_vals[batch_vals >= KERNEL_RTOL * max(abs(top), 1e-300)].min(initial=np.inf)
            if low < least - 1e-14 * top:
                least, held = low, (len(batches) - 1, union)
        vals = np.concatenate([s[0] for s in spectra])
        g = vals[vals >= KERNEL_RTOL * max(abs(top), 1e-300)].min(initial=np.inf)
        tau = KERNEL_RTOL * hi.max()
        todo = ~solved & ((lo <= g + tau) | (hi >= top - tau))
        fresh = todo & ~narrowed
        if fresh.any():  # narrow the plain discs that keep a sector, then screen again
            t_narrow = time.perf_counter()
            lo[fresh], hi[fresh] = charge.narrowed_bounds(deltas[fresh])
            narrowed |= fresh
            tau = KERNEL_RTOL * hi.max()
            todo &= (lo <= g + tau) | (hi >= top - tau)
            bounds_s += time.perf_counter() - t_narrow
    vals, owner, labels, info = zip(*spectra)
    order = np.concatenate(batches)  # the solved representatives, in solve order
    at = np.full(reps.size, -1)
    at[np.searchsorted(reps, order)] = np.arange(order.size)
    batch_of = np.repeat(np.arange(len(batches)), [b.size for b in batches])
    t_residual = time.perf_counter()
    report, win, block_gaps, kernel_counts = _kernel_and_gap(
        np.concatenate(vals), np.arange(order.size) * dim, np.concatenate(owner),
        lambda r, p: _piece(held[1] if batch_of[r] == held[0]
                            else charge.union(batches[batch_of[r]]), labels[batch_of[r]], p),
        expected_kernel, of=at[np.searchsorted(reps, orbits.rep)])
    screened = ~solved
    margin = float(np.minimum(lo[screened] - report.gap, top - hi[screened]).min()
                   / hi.max()) if screened.any() else None
    report.solver = "blocks"
    report.elapsed = time.perf_counter() - t0
    report.extras.update({"min_block": BlockLabel.at(frame, win).describe(),
                          "blocks_solved": int(order.size),
                          "blocks_screened": int(reps.size - order.size),
                          "blocks_total": int(orbits.rep.size),
                          "screen_margin": margin,
                          "screen_rounds": rounds,
                          "top_slack": float((hi.max() - top) / top),
                          "symmetry_generators": len(orbits.generators),
                          "pieces": sum(i["pieces"] for i in info),
                          "largest_piece": max(i["largest_piece"] for i in info),
                          "stages": {"charge_blocks_s": charge_s,
                                     "orbits_s": t_orbits - t_charge,
                                     "bounds_s": bounds_s,
                                     "eigensolve_s": solve_s,
                                     "residual_s": time.perf_counter() - t_residual}})
    if inventory:
        report.extras["blocks"] = [
            {**BlockLabel.at(frame, i).describe(), "kernel_dim": int(kd), "gap": float(bg)}
            for i, (kd, bg) in enumerate(zip(kernel_counts, block_gaps))]
    return report


def certify(model: ModelSpec, tp: ThermalParams, couplings=None, frame=None,
            inventory: bool = False) -> GapReport:
    """Compute the generator gap and assert the exp(-8*beta*J)/3 lower bound.

    The gap is the exact minimum over the charge blocks (``gap_from_blocks``,
    which diagonalizes only the sectors that their Gershgorin bounds cannot
    rule out, with the result of solving them all), with the kernel
    dimension required to equal the commutant's.  The one
    size limit is the piece cap of ``gap_from_blocks``, DENSE_DIM_CAP.  A
    bound violation raises; it is never downgraded to a warning.
    ``extras`` counts the blocks solved and screened; ``extras["stages"]``
    adds the seconds of ``build_frame`` (``frame_s``,
    about 0 when a frame is passed in) and of ``build_generator``
    (``generator_s``) to the stages of ``gap_from_blocks``.
    """
    t0 = time.time()
    if couplings is None:
        couplings = default_couplings(model)
    t_frame = time.perf_counter()
    frame = build_frame(model) if frame is None else frame
    t_generator = time.perf_counter()
    lrep = build_generator(model, couplings=couplings, tp=tp, frame=frame)
    t_end = time.perf_counter()
    expected = commutant_dimension(couplings, model.hamiltonian())

    report = gap_from_blocks(lrep, expected_kernel=expected, inventory=inventory)
    report.extras["stages"] = {"frame_s": t_generator - t_frame,
                               "generator_s": t_end - t_generator, **report.extras["stages"]}

    bound = analytic_bounds(tp)["generator_gap"]
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
