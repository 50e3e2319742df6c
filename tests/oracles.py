"""Full-space reference operators and eigensolvers for the tests.

``to_master`` assembles the whole 4^n-dimensional master operator K from
the jump components with sparse Kronecker products.  The package itself
certifies gaps on charge blocks only; the tests compare those blocks, their
spectra and the dynamics built from them against this K.  ``dense_gap``
(one ``eigh`` of the whole matrix) and ``iterative_gap`` (shift-inverted
Lanczos) solve a matrix without splitting it, as references for
``spectral.gap`` and ``gap_from_blocks``.  ``block_spectra`` and
``unreduced_block_gap`` diagonalize every charge block, with no symmetry
reduction, as references for the orbit reduction of ``gap_from_blocks``.
``kron_chain_hamiltonian`` sums the bond chain's pair blocks by Kronecker
products, the reference for the label-built ``abelian_chain_hamiltonian``;
``commutant_basis`` lists the commutant's Pauli strings, the reference for
``commutant_dimension``.  ``fourier_decompose`` expands each jump component
into a ``PauliSum`` of stabilizer products times the coupling, and
``reference_components`` reads their frame matrices as (flip, weights): the
reference for the label-built components of ``build_generator``.  The rest
are helpers only the tests use: the dense charge-sector isometries
``sector_isometries``, one coupling's generator action ``apply_component``,
the operator-space diagonals ``gram_diag`` and ``delta_diagonal``, the
label parser ``pauli_from_label`` and the reader ``read_coo_text`` of the
coordinate-text export.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from daviesgap.davies import (SuperOperatorRep, GeneratorError, ThermalParams,
                              _component_pairs, _generator_action)
from daviesgap.master import ChargeBlocks, _g_weight, _x_phases, block_labels
from daviesgap.models import ModelSpec
from daviesgap.pauli import PauliError, PauliString, PauliSum, commutes, gf2_nullspace
from daviesgap.spectral import (KERNEL_RTOL, GapReport, KernelMismatchError,
                                SolverConvergenceError, _kernel_and_gap,
                                bond_pair_block)


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


def _sector_isometry_entries(frame, x_phase, flip: int, mu: int) -> np.ndarray:
    """v[nu, u] of one sector, every nu: ``master._isometry_entries`` one
    sector at a time."""
    s = np.arange(len(x_phase))
    sigma = np.arange(1 << frame.n_indep)
    phase = x_phase[:, sigma] * x_phase[:, frame.state_index(sigma ^ flip, mu)].conj()
    signs = 1.0 - 2.0 * (np.bitwise_count(s[:, None] & s[None, :]) & 1)
    return (signs[:, :, None] * phase[None]).reshape(len(s), -1) / np.sqrt(len(s))


def sector_isometries(frame, flip: int, mu: int) -> np.ndarray:
    """W[nu] of ``master._isometry_entries`` as a dense (dim, 2^k) array per nu."""
    v = _sector_isometry_entries(frame, _x_phases(frame), flip, mu)
    u = np.arange(frame.dim)
    w = np.zeros(v.shape + (1 << frame.n_indep,), dtype=complex)
    w[:, u, u % w.shape[2]] = v
    return w


def sector_blocks(charge: ChargeBlocks, flip: int, mu: int) -> list:
    """W[nu]^dag K_delta W[nu] for every nu, one sector at a time, each block
    real when its imaginary part vanishes exactly: the reference for
    ``ChargeBlocks.union``, with the same arithmetic in the same order."""
    frame = charge.frame
    u = np.arange(frame.dim)
    ud = u ^ frame.state_index(flip, mu)
    rows, data = [u], [charge.diagonal + charge.diagonal[ud]]
    for d, weights, s in charge._cross:
        p = weights @ (s * s[:, ud].conj())
        rows.append(u ^ d)
        data.append(-(p + p[u ^ d].conj()))
    rows, cols, data = np.concatenate(rows), np.tile(u, len(rows)), np.concatenate(data)
    rows, cols, data = rows[data != 0], cols[data != 0], data[data != 0]
    v = _sector_isometry_entries(frame, charge._x_phase, flip, mu)
    nk = 1 << frame.n_indep
    key = (rows % nk) * nk + cols % nk
    order = np.argsort(key, kind="stable")
    heads = np.flatnonzero(np.diff(key[order], prepend=-1))
    key = key[order][heads]
    blocks = []
    for entries in np.add.reduceat((v[:, rows].conj() * data * v[:, cols])[:, order],
                                   heads, axis=1):
        at, entries = key[entries != 0], entries[entries != 0]
        blocks.append(sp.csr_matrix(
            (entries if entries.imag.any() else entries.real.copy(), at % nk,
             np.searchsorted(at, np.arange(0, nk * nk + 1, nk))), shape=(nk, nk)))
    return blocks


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
        return _g_weight(comp.rate, comp.omega) * _component_k(comp.matrix, eta)

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
        k = k + _g_weight(comp.rate, comp.omega) * _component_k(comp.matrix, eta)

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


def block_spectra(lrep: SuperOperatorRep) -> np.ndarray:
    """Ascending eigenvalues of every charge block, one row per block in
    ``block_labels`` order, each block assembled and solved."""
    frame = lrep.frame
    charge = ChargeBlocks(lrep)
    return np.concatenate([np.linalg.eigvalsh(np.array([b.toarray() for b in
                                                        charge.sector_blocks(flip, mu)]))
                           for flip in range(1 << frame.n_indep)
                           for mu in range(1 << frame.n_logical)])


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
    dense = matrix.toarray() if sp.issparse(matrix) else np.asarray(matrix)
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
    if not sp.issparse(matrix):
        matrix = sp.csr_matrix(matrix)
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
            total = total + op
        return len(total - PauliSum(self.coupling.n, [(1.0, self.coupling)]))


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
    m = sp.csc_matrix(matrix)
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
    ``fourier_decompose`` -> ``frame.matrix_of``, in ``build_generator`` order."""
    out = []
    for alpha, coupling in enumerate(couplings):
        for omega, op in fourier_decompose(coupling, model).components:
            rate = tp.rate(omega)
            if rates is not None:
                rate = rates.get((alpha, omega), rate)
            matrix = frame.matrix_of(op)
            out.append((alpha, omega, rate, *masked_permutation(matrix), matrix))
    return out
