"""Full-space reference operators and eigensolvers for the tests.

``to_master`` assembles the whole 4^n-dimensional master operator K from
the jump components with sparse Kronecker products, and
``kron_liouville_matrix`` assembles -L the same way, the reference for
``liouville_matrix``, which the package builds from flip weights.  The
package itself certifies gaps on charge blocks only; the tests compare those
blocks, their spectra and the dynamics built from them against this K.  ``dense_gap``
(one ``eigh`` of the whole matrix) and ``iterative_gap`` (shift-inverted
Lanczos) solve a matrix without splitting it, as references for
``spectral.gap`` and ``gap_from_blocks``.  ``block_spectra`` and
``unreduced_block_gap`` diagonalize every charge block, with no symmetry
reduction, as references for the orbit reduction of ``gap_from_blocks``.
``kron_chain_hamiltonian`` sums the bond chain's pair blocks by Kronecker
products, the reference for the label-built ``abelian_chain_hamiltonian``,
and ``kron_xy_form`` sums an open XY chain's Pauli terms, the reference for
its free-fermion spectrum and form check in ``spectral``;
``cumsum_chain_layout`` places the chain's entries from its pair table, and
``layout_chain_hamiltonian`` and ``layout_form_error`` build and check the
chain in that layout, the bit-for-bit references for the doubled layout of
``abelian_chain_hamiltonian`` and ``_checked_form``;
``commutant_basis`` lists the commutant's Pauli strings, the reference for
``commutant_dimension``.  ``fourier_decompose`` expands each jump component
into a ``PauliSum`` of stabilizer products times the coupling, and
``reference_components`` reads their frame matrices as (flip, weights): the
reference for the label-built components of ``build_generator``;
``frequency_masks`` builds one coupling's components on its own, the
bit-for-bit reference for the stacked pass of ``build_generator``, and
``reference_block_orbits`` moves and labels one string at a time, the
reference for ``block_orbits``.  ``gf2_solve_reference``,
``gf2_rank_reference`` and ``independent_rows_reference`` solve, rank and
pick rows of a GF(2) system one row at a time, the references for the
single elimination of ``gf2_solve_many``, ``gf2_rank`` and
``gf2_independent`` in ``pauli``.  ``projected_traces`` evolves the observable's
4^n-dimensional Hilbert-Schmidt images, projected onto each block by
``block_basis``, the reference for the label-read block coordinates of
``autocorrelation``.  The rest are helpers only the tests use: an operator's
frame matrix ``matrix_of``, a jump component's matrix ``component_matrix``,
the operator-space positions ``sector_index`` of a charge sector, the dense
charge-sector isometries ``sector_isometries``, one coupling's generator
action ``apply_component``, the operator-space diagonals ``gram_diag`` and
``delta_diagonal``, the label parser ``pauli_from_label``, the ``PauliSum``
algebra (``sum_add``, ``sum_sub``, ``sum_mul``, ``sum_adjoint``), the reader
``read_coo_text`` of the coordinate-text export and ``csr``, which takes any
matrix into scipy.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from daviesgap.davies import (SuperOperatorRep, GeneratorError, ThermalParams,
                              _component_pairs, _generator_action)
from daviesgap.basis import _unit_solutions
from daviesgap.dynamics import BlockPropagator
from daviesgap.master import (BlockLabel, ChargeBlocks, SparseMatrix, _g_weight, _x_phases,
                              block_label_of)
from daviesgap.models import ModelSpec, lattice_symmetries
from daviesgap.pauli import (PauliError, PauliString, PauliSum, _parity, commutes, genperm_sum,
                             gf2_nullspace, mask_arrays, permute_masks)
from daviesgap.spectral import (KERNEL_RTOL, GapReport, KernelMismatchError,
                                SolverConvergenceError, _kernel_and_gap,
                                bond_pair_block)


def csr(matrix) -> sp.csr_matrix:
    """A dense array, ``SparseMatrix`` or scipy matrix as scipy CSR: the one
    route by which the tests take the package's matrices into scipy algebra.

    A ``SparseMatrix`` must be canonical (cells strictly increasing by row,
    then column, none zero); its arrays become the CSR arrays as they stand,
    with no sorting or summing, so a comparison of ``indptr``, ``indices``
    and ``data`` sees its layout."""
    if isinstance(matrix, SparseMatrix):
        key = matrix.row * matrix.shape[1] + matrix.col
        assert (key[1:] > key[:-1]).all() and (matrix.data != 0).all(), \
            "SparseMatrix entries out of order, repeated or zero"
        indptr = np.searchsorted(matrix.row, np.arange(matrix.shape[0] + 1))
        return sp.csr_matrix((matrix.data, matrix.col, indptr), shape=matrix.shape)
    return sp.csr_matrix(matrix)


def pauli_from_label(label: str) -> PauliString:
    """Parse text like ``+XIZY`` or ``-iZZ`` (site 0 = leftmost letter), the
    inverse of ``PauliString.to_label``; sigma_y = i * X * Z."""
    body, sign = label, 0
    for prefix, k in (("+i", 1), ("-i", 3), ("+", 0), ("-", 2)):
        if label.startswith(prefix):
            body, sign = label[len(prefix):], k
            break
    if not body or any(c not in "IXYZ" for c in body):
        raise PauliError(f"bad Pauli label {label!r}")
    x = sum(1 << j for j, c in enumerate(body) if c in "XY")
    z = sum(1 << j for j, c in enumerate(body) if c in "YZ")
    return PauliString(len(body), x, z, sign + body.count("Y"))


def sum_add(a: PauliSum, b: PauliSum) -> PauliSum:
    return PauliSum(a.n, list(a.terms) + list(b.terms))


def sum_sub(a: PauliSum, b: PauliSum) -> PauliSum:
    return PauliSum(a.n, list(a.terms) + [(-c, op) for c, op in b.terms])


def sum_mul(a: PauliSum, b) -> PauliSum:
    """The product a * b of a PauliSum and a PauliSum or PauliString."""
    if isinstance(b, PauliString):
        b = PauliSum(a.n, [(1.0, b)])
    return PauliSum(a.n, [(ca * cb, oa * ob) for ca, oa in a.terms for cb, ob in b.terms])


def sum_adjoint(a: PauliSum) -> PauliSum:
    return PauliSum(a.n, [(c, op.adjoint()) for c, op in a.terms])


def permuted(p: PauliString, perm) -> PauliString:
    """The string with its factor on site j moved to site perm[j]."""
    x, z = permute_masks([p.x_mask, p.z_mask], perm).tolist()
    return PauliString(p.n, x, z, p.phase)


def block_labels(frame) -> list:
    """Every charge block's label, in block index order."""
    return [BlockLabel.at(frame, i)
            for i in range(1 << (frame.n_indep + 2 * frame.n_logical))]


def matrix_of(frame, op) -> SparseMatrix:
    """op in the frame's eigenbasis: one build of sum_c c * genperm over its terms."""
    terms = op.terms if isinstance(op, PauliSum) else [(1.0, op)]
    perm, phase = frame.genperm_of(*mask_arrays(p for _, p in terms))
    return genperm_sum(frame.dim, list(zip((c for c, _ in terms), perm, phase)))


def sector_index(frame, flip: int, mu: int) -> np.ndarray:
    """Operator-space positions u + dim * (u ^ delta) of the sector's matrix
    units |u><u ^ delta|, delta = state_index(flip, mu), in ket order u."""
    u = np.arange(frame.dim)
    return u + frame.dim * (u ^ frame.state_index(flip, mu))


def _sector_isometry_entries(frame, flip: int, mu: int) -> np.ndarray:
    """v[nu, u] of one sector, every nu, unnormalized: X_S's phase on the
    matrix unit of ket u = S * 2^k + sigma, times the logical-Z charge
    (-1)^|S & nu|, each a unit."""
    x_phase = _x_phases(frame)
    s = np.arange(len(x_phase))
    sigma = np.arange(1 << frame.n_indep)
    phase = x_phase[:, sigma] * x_phase[:, frame.state_index(sigma ^ flip, mu)].conj()
    signs = 1.0 - 2.0 * (np.bitwise_count(s[:, None] & s[None, :]) & 1)
    return (signs[:, :, None] * phase[None]).reshape(len(s), -1)


def sector_isometries(frame, flip: int, mu: int) -> np.ndarray:
    """W[nu], the columns of one sector's matrix units that block nu spans,
    as a dense (dim, 2^k) array per nu."""
    v = _sector_isometry_entries(frame, flip, mu) / np.sqrt(1 << frame.n_logical)
    u = np.arange(frame.dim)
    w = np.zeros(v.shape + (1 << frame.n_indep,), dtype=complex)
    w[:, u, u % w.shape[2]] = v
    return w


def block_basis(frame, label) -> sp.csr_matrix:
    """The block's isometry into operator space (column-major matrix units):
    ``sector_isometries`` placed at the sector's ``sector_index`` rows."""
    w = sp.coo_matrix(sector_isometries(frame, label.flip, label.mu)[label.nu])
    return sp.csr_matrix((w.data, (sector_index(frame, label.flip, label.mu)[w.row], w.col)),
                         shape=(frame.dim ** 2, label.dim))


def projected_traces(lrep: SuperOperatorRep, observable, times) -> tuple:
    """Both autocorrelation traces of a mean-zero observable from its dense
    4^n-dimensional images A^dag rho^{1/2} (evolved) and A rho^{1/2} (probe),
    projected onto every block that holds a term, each evolved by its
    ``BlockPropagator``; the projections must capture the evolved image."""
    frame, rho = lrep.frame, lrep.rho
    a = matrix_of(frame, observable).toarray()
    a = a / math.sqrt(abs(np.sum((a.conj() * a) * rho[None, :])))
    sqrt_rho = np.sqrt(rho)[None, :]
    x_vec = (a.conj().T * sqrt_rho).reshape(-1, order="F")
    y_vec = (a * sqrt_rho).reshape(-1, order="F")
    terms = observable.terms if isinstance(observable, PauliSum) else [(1.0, observable)]
    charge = ChargeBlocks(lrep)
    times = np.asarray(times, dtype=float)
    full, dissip, captured = np.zeros(times.size, dtype=complex), np.zeros(times.size), 0.0
    for label in dict.fromkeys(block_label_of(frame, p) for _, p in terms):
        prop, basis = BlockPropagator.of(charge, label), block_basis(frame, label)
        x, y = basis.conj().T @ x_vec, basis.conj().T @ y_vec
        captured += np.vdot(x, x).real
        w = prop.propagate(x, times)
        dissip += (y.conj() @ w).real
        full += y.conj() @ (np.exp(1j * np.multiply.outer(prop.delta, times)) * w)
    assert abs(captured - np.vdot(x_vec, x_vec).real) < 1e-12
    return full, dissip


def sector_blocks(charge: ChargeBlocks, flip: int, mu: int) -> list:
    """W[nu]^dag K_delta W[nu] for every nu, one sector at a time, each block
    real when its imaginary part vanishes exactly: the reference for
    ``ChargeBlocks.union``, with the same arithmetic in the same order.

    Each logical slot's columns give 1/2^l of the block; formed with the
    unnormalized isometry entries, the 2^l slot blocks must be bit-identical
    (the X logicals commute with K and every phase is a unit), and slot 0's
    is returned, the one that ``union`` forms."""
    frame = charge.frame
    u = np.arange(frame.dim)
    ud = u ^ frame.state_index(flip, mu)
    rows, data = [u], [charge.diagonal + charge.diagonal[ud]]
    groups = charge._firsts[1:]
    for d, weights, s in zip(charge._flips, np.split(charge._weights, groups),
                             np.split(charge._conj.conj(), groups)):
        p = weights @ (s * s[:, ud].conj())
        rows.append(u ^ d)
        data.append(-(p + p[u ^ d].conj()))
    rows, cols, data = np.concatenate(rows), np.tile(u, len(rows)), np.concatenate(data)
    rows, cols, data = rows[data != 0], cols[data != 0], data[data != 0]
    v = _sector_isometry_entries(frame, flip, mu)
    nk = 1 << frame.n_indep
    slots = []
    for slot in range(1 << frame.n_logical):
        r, c, x = (a[cols // nk == slot] for a in (rows, cols, data))
        key = (r % nk) * nk + c % nk
        order = np.argsort(key, kind="stable")
        heads = np.flatnonzero(np.diff(key[order], prepend=-1))
        key = key[order][heads]
        blocks = []
        for entries in np.add.reduceat((v[:, r].conj() * x * v[:, c])[:, order], heads, axis=1):
            at, entries = key[entries != 0], entries[entries != 0]
            blocks.append(sp.csr_matrix(
                (entries if entries.imag.any() else entries.real.copy(), at % nk,
                 np.searchsorted(at, np.arange(0, nk * nk + 1, nk))), shape=(nk, nk)))
        slots.append(blocks)
    for blocks in slots[1:]:
        for got, ref in zip(blocks, slots[0]):
            assert got.dtype == ref.dtype and all(
                np.array_equal(getattr(got, f), getattr(ref, f))
                for f in ("indptr", "indices", "data")), f"slot blocks differ in sector {flip, mu}"
    return slots[0]


def read_coo_text(path) -> sp.csr_matrix:
    """The matrix ``pauli.write_coo_text`` wrote."""
    with open(path) as fh:
        dim, nnz = (int(t) for t in fh.readline().split())
        rows, cols, vals = [], [], []
        for _ in range(nnz):
            r, c, re, im = fh.readline().split()
            rows.append(int(r))
            cols.append(int(c))
            vals.append(float(re) + 1j * float(im))
    return sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim))


def component_matrix(comp) -> SparseMatrix:
    """A ``JumpComponent`` as its matrix: weights[u] at (u ^ flip, u)."""
    u = np.arange(comp.weights.size)
    return SparseMatrix.from_entries((u.size, u.size), u ^ comp.flip, u, comp.weights)


def kron_liouville_matrix(rep: SuperOperatorRep) -> sp.csr_matrix:
    """-L as a scipy.sparse 4^n x 4^n CSR matrix on column-major vectorized
    operators, summed component by component from Kronecker products."""
    if rep.space != "liouville":
        raise GeneratorError("liouville_matrix expects a Liouville-space generator")
    dim = rep.frame.dim
    ident = sp.identity(dim, format="csr", dtype=complex)
    neg_l = sp.csr_matrix((dim * dim, dim * dim), dtype=complex)
    for comp in rep.components:
        m = component_matrix(comp)
        a = sp.csr_matrix((m.data, (m.row, m.col)), shape=m.shape)
        ad = a.conj().T.tocsr()
        ada = (ad @ a).tocsr()
        # column-major vec:  vec(PXQ) = (Q^T kron P) vec(X)
        dissip = sp.kron(a.T, ad, format="csr") \
            - 0.5 * (sp.kron(ident, ada, format="csr")
                     + sp.kron(ada.T, ident, format="csr"))
        neg_l = neg_l - comp.rate * dissip
    return neg_l.tocsr()


def _component_k(matrix: sp.csr_matrix, eta: float) -> sp.csr_matrix:
    """(S_L - eta S_R)*(S_L - eta S_R) + (Sd_R - eta Sd_L)*(Sd_R - eta Sd_L).

    Both factors annihilate rho^{1/2}: S rho^{1/2} = eta rho^{1/2} S and
    Sd rho^{1/2} = eta^{-1} rho^{1/2} Sd for a component at frequency w.
    """
    dim = matrix.shape[0]
    ident = sp.identity(dim, format="csr", dtype=complex)
    adj = matrix.conj().T.tocsr()
    a = sp.kron(ident, matrix, format="csr") - eta * sp.kron(matrix.T, ident, format="csr")
    b = sp.kron(matrix.conj(), ident, format="csr") - eta * sp.kron(ident, adj, format="csr")
    return (a.conj().T @ a + b.conj().T @ b).tocsr()


@dataclass
class MasterHamiltonian:
    rep: SuperOperatorRep
    kernel_witness: np.ndarray
    components: list = field(default_factory=list)  # positive-frequency JumpComponents

    @property
    def matrix(self):
        return self.rep.matrix

    @property
    def component_index(self) -> list:
        """(coupling_index, omega) of each positive-frequency summand of K."""
        return [(c.coupling_index, c.omega) for c in self.components]

    def component(self, i: int) -> sp.csr_matrix:
        """Materialize one positive-frequency summand of K."""
        comp = self.components[i]
        eta = math.exp(-self.rep.beta * comp.omega / 2.0)
        return _g_weight(comp.rate, comp.omega) * _component_k(csr(component_matrix(comp)), eta)

    def kernel_residual(self) -> float:
        v = self.kernel_witness
        return float(np.linalg.norm(self.matrix @ v))


def to_master(lrep: SuperOperatorRep) -> MasterHamiltonian:
    """Unitarily transport -L to Hilbert-Schmidt space via X -> X rho^{1/2}."""
    if lrep.space != "liouville":
        raise GeneratorError("to_master expects a Liouville-space generator")
    if lrep.rho is None or lrep.frame is None:
        raise GeneratorError("generator lacks Gibbs weights or basis frame")
    dim = lrep.frame.dim
    k = sp.csr_matrix((dim * dim, dim * dim), dtype=complex)
    # negative frequencies are covered by the adjoint of the positive ones
    comps = [c for c in lrep.components if c.omega >= -1e-12]
    for comp in comps:
        eta = math.exp(-lrep.beta * comp.omega / 2.0)
        k = k + _g_weight(comp.rate, comp.omega) * _component_k(csr(component_matrix(comp)), eta)

    witness = np.zeros(dim * dim, dtype=complex)
    witness[np.arange(dim) * (dim + 1)] = np.sqrt(lrep.rho)
    rep = SuperOperatorRep(matrix=k.tocsr(), space="hilbert-schmidt",
                           beta=lrep.beta, frame=lrep.frame, rho=lrep.rho,
                           components=lrep.components, meta=dict(lrep.meta))
    return MasterHamiltonian(rep=rep, kernel_witness=witness, components=comps)


def apply_component(rep: SuperOperatorRep, coupling_index: int, x: np.ndarray,
                    omega=None) -> np.ndarray:
    """L_{alpha w}(X) for one positive frequency (or the whole coupling)."""
    comps = [c for pair in _component_pairs(rep, coupling_index, omega)
             for c in pair if c is not None]
    return _generator_action(comps)(x)


def gram_diag(rep: SuperOperatorRep) -> np.ndarray:
    """Diagonal of the beta inner product over matrix units (column-major)."""
    return np.repeat(rep.rho, rep.frame.dim)


def delta_diagonal(rep: SuperOperatorRep) -> np.ndarray:
    """Eigenvalues E_u - E_v of the Hamiltonian derivation, column-major."""
    e, d = rep.frame.energies, rep.frame.dim
    return np.tile(e, d) - np.repeat(e, d)


def full_space_gap(lrep: SuperOperatorRep, expected_kernel=None,
                   iterative: bool = False) -> GapReport:
    """Gap of the full K: dense ``eigh``, or shift-invert Lanczos with ``iterative``."""
    t0 = time.time()
    matrix = to_master(lrep).matrix
    report = iterative_gap(matrix) if iterative else dense_gap(matrix)
    report.elapsed = time.time() - t0
    if expected_kernel is not None and report.kernel_dim != expected_kernel:
        raise KernelMismatchError(
            f"kernel dimension {report.kernel_dim} != expected {expected_kernel} "
            f"(eigenvalues around threshold: {report.near_threshold})")
    return report


def sector_discs(charge: ChargeBlocks, deltas) -> tuple:
    """The plain Gershgorin bounds (lo, hi) of K on each sector of
    ``deltas``, from its dense ``sector_matrix``: the least diagonal entry
    minus its row's sum of |K| off the diagonal, and the greatest plus."""
    nk = 1 << charge.frame.n_indep
    sectors, of = np.unique(np.asarray(deltas), return_inverse=True)
    lo, hi = np.empty(sectors.size), np.empty(sectors.size)
    for i, delta in enumerate(sectors.tolist()):
        k = charge.sector_matrix(delta % nk, delta // nk).toarray()
        radius = np.abs(k).sum(axis=1) - np.abs(k.diagonal())
        lo[i], hi[i] = (k.diagonal().real - radius).min(), (k.diagonal().real + radius).max()
    return lo[of], hi[of]


def block_spectra(lrep: SuperOperatorRep, signs=None) -> np.ndarray:
    """Ascending eigenvalues of every charge block, one row per block in
    ``block_labels`` order, each block assembled (with the per-site cross
    ``signs`` of ``ChargeBlocks``, if given) and solved."""
    frame = lrep.frame
    charge = ChargeBlocks(lrep, signs=signs)
    m, nk = 1 << frame.n_logical, 1 << frame.n_indep
    # each sector's nu blocks from one union, taken off its block diagonal
    return np.concatenate([np.linalg.eigvalsh(
        charge.union(np.arange(sector * m, (sector + 1) * m)).toarray()
        .reshape(m, nk, m, nk)[np.arange(m), :, np.arange(m)])
        for sector in range(1 << (frame.n_indep + frame.n_logical))])


def unreduced_block_gap(lrep: SuperOperatorRep, expected_kernel=None) -> GapReport:
    """``gap_from_blocks`` with no symmetry reduction: every block solved."""
    labels = block_labels(lrep.frame)
    spectra = block_spectra(lrep)
    charge = ChargeBlocks(lrep)
    # each whole block is one piece, with first node 0
    report, win, _, _ = _kernel_and_gap(
        spectra.ravel(), np.arange(len(labels)) * spectra.shape[1],
        np.zeros(spectra.size, dtype=int),
        lambda i, node: charge.block(labels[i]), expected_kernel)
    report.solver = "blocks"
    report.extras["min_block"] = labels[win].describe()
    return report


def dense_gap(matrix) -> GapReport:
    """Kernel dimension and gap from one ``eigh`` of the whole matrix."""
    dense = csr(matrix).toarray()
    if np.abs(dense.imag).max(initial=0.0) < 1e-14:
        dense = dense.real
    vals, vecs = np.linalg.eigh(dense)
    scale = max(abs(vals[-1]), 1e-300)
    thr = KERNEL_RTOL * scale
    kdim = int(np.sum(vals < thr))
    if kdim == len(vals):
        raise SolverConvergenceError("operator has no spectrum above the kernel")
    g = float(vals[kdim])
    v = vecs[:, kdim]
    residual = float(np.linalg.norm(dense @ v - g * v) / scale)
    near = (float(vals[kdim - 1]) if kdim else float("-inf"), g)
    return GapReport(kernel_dim=kdim, gap=g, solver="dense", residual=residual,
                     near_threshold=near)


def _rank(columns) -> int:
    r = np.linalg.qr(np.column_stack(columns), mode="r")
    return int(np.sum(np.abs(np.diagonal(r)) > 1e-12))


def iterative_gap(matrix, kernel_basis=None, seed=0, n_eigs=8) -> GapReport:
    """Kernel dimension and gap by shift-inverted Lanczos (ARPACK) below zero.

    Asks for the rank of ``kernel_basis`` (1 without it) plus ``n_eigs``
    eigenpairs from starts drawn from ``seed``; two independent starts must
    agree on the gap, and non-convergence is raised.
    """
    dim = matrix.shape[0]
    matrix = csr(matrix)
    maxiter = int(10 * math.sqrt(dim)) + 200
    # a seeded start: the norm sets sigma, so an unseeded one would change
    # the gap's last bits from call to call
    v0 = np.random.default_rng(seed).standard_normal(dim)
    try:
        lam_max = float(spla.eigsh(matrix, k=1, which="LA", tol=1e-6, v0=v0,
                                   maxiter=maxiter, return_eigenvectors=False)[0])
    except spla.ArpackNoConvergence as exc:
        raise SolverConvergenceError("norm estimation did not converge") from exc
    thr = KERNEL_RTOL * lam_max
    n_kernel = 1
    if kernel_basis is not None and len(kernel_basis) > 0:
        n_kernel = _rank(kernel_basis)

    # Shift-inverted Lanczos around zero is the only variant that finds a
    # clustered lowest eigenvalue reliably here (plain smallest-algebraic
    # restarts can lose the whole cluster); the factorization is cheap
    # because the matrix graph splits into small charge blocks.  Two
    # independent starts must still agree on the minimum.
    tol = max(1e-9 * lam_max, 1e-12)
    results = []
    for attempt in range(5):
        results.append(_bottom_spectrum_pass(matrix, n_kernel, lam_max, thr,
                                             maxiter, seed + 101 * attempt, n_eigs))
        best = min(results, key=lambda r: r.gap)
        confirmations = sum(abs(r.gap - best.gap) <= tol for r in results)
        if confirmations >= 2:
            return best
    raise SolverConvergenceError(
        "independent runs never agreed on the smallest nonzero eigenvalue: "
        + ", ".join(f"{r.gap:.12g}" for r in results))


def _bottom_spectrum_pass(matrix, n_kernel, lam_max, thr, maxiter, seed,
                          n_eigs) -> GapReport:
    dim = matrix.shape[0]
    v0 = np.random.default_rng(seed).standard_normal(dim)
    k = min(n_kernel + n_eigs, dim - 2)
    try:
        # small enough to keep the spectral contrast of the inverse, but
        # far above the numerical dust of a PSD matrix, so A - sigma is PD
        sigma = -1e-8 * lam_max
        vals, vecs = spla.eigsh(matrix.tocsc(), k=k, sigma=sigma, which="LM",
                                tol=1e-11, maxiter=maxiter, v0=v0)
    except spla.ArpackNoConvergence as exc:
        raise SolverConvergenceError(
            f"shift-invert Lanczos did not converge (dim {dim}, k {k}, "
            f"seed {seed})") from exc

    extra = int(np.sum(vals < thr))
    if extra >= len(vals):
        raise SolverConvergenceError("all computed eigenvalues sit in the kernel; "
                                     "increase n_eigs")
    g = float(vals[extra])
    v = vecs[:, extra]
    residual = float(np.linalg.norm(matrix @ v - g * v) / lam_max)
    if residual > 1e-8:
        raise SolverConvergenceError(
            f"eigenpair residual {residual:.3e} above tolerance")
    near = (float(vals[extra - 1]) if extra else float("-inf"), g)
    return GapReport(kernel_dim=extra, gap=g, solver="iterative", residual=residual,
                     near_threshold=near)


def kron_chain_hamiltonian(n: int, gamma: float) -> sp.csr_matrix:
    """The bond chain as the sum over j of I_{2^j} (x) pair block (x) I_{2^(n-2-j)}."""
    k = sp.csr_matrix(bond_pair_block(gamma))
    total = sp.csr_matrix((1 << n, 1 << n))
    for j in range(n - 1):
        left = sp.identity(1 << j, format="csr")
        right = sp.identity(1 << (n - 2 - j), format="csr")
        total = total + sp.kron(sp.kron(left, k, format="csr"), right, format="csr")
    return total.tocsr()


def kron_xy_form(c, h, a, b) -> sp.csr_matrix:
    """The open XY chain c + sum_j h_j Z_j + sum_j (a_j X_j X_j+1 + b_j Y_j Y_j+1),
    bond j the j-th Kronecker factor (bit n-1-j), as a sum of Kronecker
    products: the reference for ``spectral.xy_gap`` and ``_checked_form``."""
    n = len(h)
    z, xx = sp.csr_matrix(np.diag([1.0, -1.0])), sp.csr_matrix(np.fliplr(np.eye(4)))
    yy = sp.csr_matrix(np.diag([-1.0, 1.0, 1.0, -1.0])[::-1])  # Y (x) Y, real

    def at(j, op):
        return sp.kron(sp.kron(sp.identity(1 << j), op), sp.identity(1 << (n - j - op.shape[0] // 2)))

    total = c * sp.identity(1 << n, format="csr")
    for j in range(n):
        total = total + h[j] * at(j, z)
    for j in range(n - 1):
        total = total + a[j] * at(j, xx) + b[j] * at(j, yy)
    return total.tocsr()


def cumsum_chain_layout(n: int) -> tuple:
    """The bond chain's entry layout from its pair table: the pairs
    (u >> k) & 3, the positions of the diagonals and of the flips
    u ^ (3 << k), and every position's row and column, row u's entries at
    u*n onward in column order.  Flipping pair k changes bit k + 1 last, so
    the flips that clear it lie below the diagonal, highest k first, and the
    rest above it: the positions are cumulative counts of those flips.  The
    reference for the doubled layout of ``spectral._chain_entries``."""
    index = np.arange(1 << n)
    pairs = (index[:, None] >> np.arange(n - 1)) & 3
    lower = pairs >= 2
    diag_at = index * n + lower.sum(axis=1)
    flip_at = diag_at[:, None] - np.cumsum(lower, axis=1) + np.where(lower, 0, np.arange(1, n))
    cols = np.empty(n << n, dtype=np.int64)
    cols[diag_at] = index
    cols[flip_at] = index[:, None] ^ (3 << np.arange(n - 1))
    return pairs, diag_at, flip_at, np.repeat(index, n), cols


def layout_chain_hamiltonian(n: int, gamma: float) -> SparseMatrix:
    """The bond chain written into ``cumsum_chain_layout``, its diagonal by
    the pair counts of the pair table: the bit-for-bit reference for
    ``abelian_chain_hamiltonian``."""
    d = 1.0 + gamma ** 2
    pairs, diag_at, flip_at, rows, cols = cumsum_chain_layout(n)
    plus, minus = pairs == 0, pairs == 3
    n_plus, n_minus = plus.sum(axis=1), minus.sum(axis=1)
    data = np.empty(n << n)
    data[diag_at] = n_plus * (gamma ** 2 / d) + n_minus * (1.0 / d) \
        + (n - 1 - n_plus - n_minus) * 0.5
    data[flip_at] = np.where(plus | minus, -gamma / d, -0.5)
    return SparseMatrix.from_entries((1 << n, 1 << n), rows, cols, data)


def layout_form_error(matrix: SparseMatrix, form) -> float:
    """The largest row sum of |A - Q| for the canonical ``matrix`` A and the
    matrix Q of the XY ``form`` written into ``cumsum_chain_layout``, its
    diagonal c + sum_j h_j (1 - 2 bit_j) from a table of bits, taken by
    scipy over the union of both patterns where they differ.  The reference
    for ``spectral._checked_form``."""
    c, h, a, b = form
    n = len(h)
    pairs, diag_at, flip_at, row, col = cumsum_chain_layout(n)
    index = np.arange(1 << n)
    data = np.empty(col.size)
    data[diag_at] = c + (1 - 2 * ((index[:, None] >> np.arange(n)) & 1)) @ np.asarray(h)[::-1]
    data[flip_at] = np.where((pairs == 1) | (pairs == 2), np.add(a, b)[::-1],
                             np.subtract(a, b)[::-1])
    keep = data != 0
    row, col, data = row[keep], col[keep], data[keep]
    if not (np.array_equal(row, matrix.row) and np.array_equal(col, matrix.col)):
        a = sp.csr_array((matrix.data, (matrix.row, matrix.col)), shape=matrix.shape)
        return float(abs(a - sp.csr_array((data, (row, col)), shape=matrix.shape))
                     .sum(axis=1).max())
    return float(np.bincount(row, np.abs(matrix.data - data)).max())


def commutant_basis(generators, model: ModelSpec) -> list:
    """Pauli strings commuting with all generators and Hamiltonian terms.

    The span of the GF(2) nullspace of the symplectic rows, with each string
    encoded as x_mask | z_mask << n and listed in increasing order.
    """
    n = model.n_sites
    ops = list(generators) + list(model.stabilizers)
    rows = [op.z_mask | (op.x_mask << n) for op in ops]
    span = np.zeros(1, dtype=np.int64)
    for vec in gf2_nullspace(rows, 2 * n):
        span = np.concatenate([span, span ^ vec])
    full = (1 << n) - 1
    return [PauliString(n, int(v) & full, int(v) >> n, 0) for v in np.sort(span)]


@dataclass
class JumpOperatorSet:
    """The frequency components of one coupling operator."""

    coupling: PauliString
    components: list  # [(omega, PauliSum)], sorted by omega

    def frequencies(self):
        return [w for w, _ in self.components]

    def component(self, omega: float, tol: float = 1e-9):
        for w, op in self.components:
            if abs(w - omega) <= tol:
                return op
        raise KeyError(f"no component at frequency {omega}")

    def sum_rule_defect(self) -> int:
        """Terms left after subtracting the coupling from the component sum."""
        total = PauliSum(self.coupling.n, [])
        for _, op in self.components:
            total = sum_add(total, op)
        return len(sum_sub(total, PauliSum(self.coupling.n, [(1.0, self.coupling)])).terms)


def fourier_decompose(coupling: PauliString, model: ModelSpec,
                      freq_tol: float = None) -> JumpOperatorSet:
    """Split a Pauli coupling into eigenoperators of the model Hamiltonian.

    With T the stabilizers anticommuting with the coupling, the component at
    omega = 2 * sum_{b in T} J_b * eps_b collects the projector onto the
    joint eigenvalue pattern eps, expanded over the 2^|T| stabilizer
    products and multiplied (from the left) into the coupling.
    """
    if coupling.n != model.n_sites:
        raise GeneratorError("coupling acts outside the model register")
    if freq_tol is None:
        freq_tol = 1e-9 * model.coupling
    flips = [i for i, s in enumerate(model.stabilizers) if not commutes(coupling, s)]
    if len(flips) > 12:
        raise GeneratorError("coupling anticommutes with too many stabilizers")

    n = model.n_sites
    groups: dict = {}
    for pattern in range(1 << len(flips)):
        omega = 0.0
        for pos, i in enumerate(flips):
            eps = 1.0 - 2.0 * ((pattern >> pos) & 1)
            omega += 2.0 * model.coefficients[i] * eps
        for key in groups:
            if abs(key - omega) <= freq_tol:
                omega = key
                break
        # projector Prod (1 + eps_b S_b)/2 expanded over stabilizer subsets
        terms = []
        for subset in range(1 << len(flips)):
            sign = 1.0
            op = PauliString.identity(n)
            for pos, i in enumerate(flips):
                if (subset >> pos) & 1:
                    op = op * model.stabilizers[i]
                    if (pattern >> pos) & 1:
                        sign = -sign
            terms.append((sign / (1 << len(flips)), op * coupling))
        groups.setdefault(omega, []).extend(terms)

    components = [(w, PauliSum(n, terms)) for w, terms in sorted(groups.items())]
    return JumpOperatorSet(coupling=coupling, components=components)


def masked_permutation(matrix) -> tuple:
    """(d, s) with matrix |u> = s_u |u ^ d>; raises unless that is its shape."""
    m = csr(matrix).tocsc()
    m.eliminate_zeros()
    counts = np.diff(m.indptr)
    if counts.max(initial=0) > 1:
        raise GeneratorError("matrix has a column with more than one nonzero")
    cols = np.repeat(np.arange(m.shape[1]), counts)
    flips = np.unique(m.indices ^ cols)
    if flips.size > 1:
        raise GeneratorError(f"matrix flips {flips.size} different patterns")
    s = np.zeros(m.shape[1], dtype=complex)
    s[cols] = m.data
    return (int(flips[0]) if flips.size else 0), s


def reference_components(model: ModelSpec, couplings, frame, tp: ThermalParams,
                         rates: dict = None) -> list:
    """(coupling_index, omega, rate, flip, weights, matrix) per jump component:
    ``fourier_decompose`` -> ``matrix_of``, in ``build_generator`` order."""
    out = []
    for alpha, coupling in enumerate(couplings):
        for omega, op in fourier_decompose(coupling, model).components:
            rate = tp.rate(omega)
            if rates is not None:
                rate = rates.get((alpha, omega), rate)
            matrix = matrix_of(frame, op)
            out.append((alpha, omega, rate, *masked_permutation(matrix), matrix))
    return out


def frequency_masks(alpha: int, coupling: PauliString, frame,
                    freq_tol: float) -> tuple:
    """(d, [(omega, weights)]) of one coupling, sorted by omega: the
    per-coupling construction that ``build_generator`` stacks over all
    couplings, its bit-for-bit reference.

    The coupling acts as S|u> = c_u |u ^ d>.  With T the stabilizers it
    anticommutes with, the component at omega = 2 * sum_{b in T} J_b * eps_b
    is S followed by the projector onto the sign pattern eps on T, so its
    weights are c_u where the image u ^ d carries a pattern of that
    frequency and 0 elsewhere.  Patterns within ``freq_tol`` of an earlier
    one join its frequency.
    """
    model = frame.model
    flips = [i for i, s in enumerate(model.stabilizers) if not commutes(coupling, s)]
    perm, phase = frame.genperm_of(coupling.x_mask, coupling.z_mask, coupling.phase)
    u = np.arange(frame.dim)
    d = int(perm[0])
    if np.count_nonzero(perm != u ^ d):
        raise GeneratorError(f"coupling {alpha} does not flip one label pattern")
    # bit pos of pattern[u] is set where the image of u has sign -1 on flips[pos]
    bits = (1 - frame.stab_signs[flips][:, perm]) // 2
    pattern = (bits << np.arange(len(flips))[:, None]).sum(axis=0)

    keys, group = [], np.empty(1 << len(flips), dtype=np.int64)
    for p in range(group.size):
        omega = 0.0
        for pos, i in enumerate(flips):
            eps = 1.0 - 2.0 * ((p >> pos) & 1)
            omega += 2.0 * model.coefficients[i] * eps
        group[p] = next((k for k, key in enumerate(keys)
                         if abs(key - omega) <= freq_tol), len(keys))
        if group[p] == len(keys):
            keys.append(omega)
    which = group[pattern]
    return d, [(keys[k], np.where(which == k, phase, 0))
               for k in sorted(range(len(keys)), key=keys.__getitem__)]


def _reference_is_symmetry(lrep: SuperOperatorRep, perm) -> bool:
    """``master._is_symmetry`` one string at a time with ``permuted``."""
    model = lrep.frame.model
    coeff = dict(zip(model.stabilizers, model.coefficients))
    if any(coeff.get(permuted(s, perm)) != c for s, c in coeff.items()):
        return False

    def keys(moved):
        return sorted((p.x_mask, p.z_mask, p.phase, c.omega, c.rate)
                      for p, c in zip(moved, lrep.components))

    freq_tol = 1e-9 * model.coupling
    return all(a[:3] == b[:3] and abs(a[3] - b[3]) <= freq_tol
               and math.isclose(a[4], b[4], rel_tol=1e-12)
               for a, b in zip(keys(c.coupling for c in lrep.components),
                               keys(permuted(c.coupling, perm) for c in lrep.components)))


def reference_block_orbits(lrep: SuperOperatorRep) -> tuple:
    """(generators, images, rep) of ``master.block_orbits`` one string at a
    time: each unit string moved by ``permuted`` and labeled by
    ``block_label_of``."""
    frame = lrep.frame
    model = frame.model
    n = model.n_sites
    kept = [perm for perm in lattice_symmetries(model) if _reference_is_symmetry(lrep, perm)]
    ops = ([lx for lx, _ in model.logicals] + [lz for _, lz in model.logicals]
           + [model.stabilizers[s] for s in frame.indep])
    units = [PauliString(n, sol & ((1 << n) - 1), sol >> n)
             for sol in _unit_solutions([op.z_mask | (op.x_mask << n) for op in ops],
                                        2 * n, "charge label system")]
    index = np.arange(1 << (frame.n_indep + 2 * frame.n_logical))
    images = np.zeros((len(kept), index.size), dtype=np.int64)
    for g, perm in enumerate(kept):
        for b, unit in enumerate(units):
            image = block_label_of(frame, permuted(unit, perm)).index
            images[g] ^= np.where((index >> b) & 1, image, 0)
    graph = sp.csr_matrix((np.ones(images.size),
                           (np.tile(index, len(kept)), images.ravel())),
                          shape=(index.size, index.size))
    orbit = connected_components(graph, directed=False)[1]
    first = np.unique(orbit, return_index=True)[1]
    return kept, images, first[orbit]


def gf2_rank_reference(rows) -> int:
    """GF(2) rank by a sorted basis, one row at a time: the reference for
    ``pauli.gf2_rank``."""
    rank = 0
    basis = []
    for row in rows:
        r = row
        for b in basis:
            r = min(r, r ^ b)
        if r:
            basis.append(r)
            basis.sort(reverse=True)
            rank += 1
    return rank


def gf2_solve_reference(rows, rhs, nvars: int):
    """Solve parity(rows[i] & x) == rhs[i] for an nvars-bit x by elimination
    and back substitution with the free bits 0: the reference for
    ``pauli.gf2_solve`` and ``pauli.gf2_solve_many``.

    Returns a solution mask, or None if the system is inconsistent.
    """
    # augmented rows: unknown bits 0..nvars-1, rhs in bit nvars
    aug = [row | (int(b) << nvars) for row, b in zip(rows, rhs)]
    pivots = []  # (pivot_bit, row)
    for row in aug:
        r = row
        for pbit, prow in pivots:
            if (r >> pbit) & 1:
                r ^= prow
        body = r & ((1 << nvars) - 1)
        if body == 0:
            if r >> nvars:
                return None
            continue
        pbit = body.bit_length() - 1
        pivots.append((pbit, r))
        pivots.sort(reverse=True)
    x = 0
    # back substitution: pivots are in decreasing pivot-bit order
    for pbit, row in sorted(pivots):
        val = (row >> nvars) & 1
        val ^= _parity(row & ((1 << nvars) - 1) & x & ~(1 << pbit))
        if val:
            x |= 1 << pbit
    return x


def independent_rows_reference(rows) -> list:
    """Indices of the rows that raise the rank of the rows picked before
    them, one rank per row: the reference for ``pauli.gf2_independent`` and
    ``ModelSpec.independent_stabilizers``."""
    picked = []
    for i, row in enumerate(rows):
        if gf2_rank_reference([rows[j] for j in picked] + [row]) > len(picked):
            picked.append(i)
    return picked
