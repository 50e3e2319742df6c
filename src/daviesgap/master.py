"""Positive master Hamiltonian on Hilbert-Schmidt space and its blocks.

The unitary map X -> X rho^{1/2} turns minus the generator into the Hermitian
positive semidefinite operator

    K = sum_{alpha, w >= 0} g(w) [ (S_L - eta S_R)*(S_L - eta S_R)
                                 + (Sd_R - eta Sd_L)*(Sd_R - eta Sd_L) ],

with S = S_alpha(w), Sd its adjoint, eta = exp(-beta*w/2), and
g(w) = rate(w)/2 for w > 0, rate(0)/4 at w = 0.  K and -L share their
spectrum; the identity survives as the kernel vector rho^{1/2}.

Blocks: conjugation by any stabilizer or logical operator commutes with the
generator, so operator space splits into joint charge sectors labeled by a
stabilizer flip pattern and a logical sector.  Every block is K-invariant and
small (2^k with k independent stabilizers); ``ChargeBlocks`` assembles them
sparse, straight from the jump components; no code here builds the full
4^n-dimensional K or a dense sector matrix.  A lattice symmetry of the model
(``lattice_symmetries``) that leaves H and the jump components unchanged
carries each block unitarily onto another; ``block_orbits`` checks each
symmetry against the generator and groups the blocks into orbits of equal
spectrum.  The torus sign-flip restriction is read from sign-flipped charge
blocks and checked against the unsigned ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import block_diag
from scipy.sparse.csgraph import connected_components

from .basis import StabilizerFrame, _unit_solutions
from .davies import SuperOperatorRep, GeneratorError
from .models import ModelSpec, lattice_symmetries
from .pauli import PauliString, gf2_solve

_PASS_ENTRIES = 1 << 12  # ChargeBlocks.union stacks sectors up to about this many products


def _g_weight(rate: float, omega: float, tol: float = 1e-12) -> float:
    return rate / 2.0 if omega > tol else rate / 4.0


# ---------------------------------------------------------------------------
# Charge-sector blocks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlockLabel:
    """One joint charge sector: stabilizer flip pattern plus logical sector.

    flip: bits over independent stabilizers (bra/ket syndrome difference);
    mu:   bits over logical pairs whose X operator is present in the sector;
    nu:   bits over logical pairs whose Z operator is present.
    """

    flip: int
    mu: int
    nu: int
    n_indep: int
    n_logical: int

    @property
    def dim(self) -> int:
        return 1 << self.n_indep

    @property
    def index(self) -> int:
        """Position in ``block_labels`` order: the bits nu, then mu, then flip."""
        return (((self.flip << self.n_logical) | self.mu) << self.n_logical) | self.nu

    @property
    def sector(self) -> str:
        if self.n_logical == 1:
            return {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}[(self.mu, self.nu)]
        parts = [f"Z{i + 1}" for i in range(self.n_logical) if (self.nu >> i) & 1]
        parts += [f"X{i + 1}" for i in range(self.n_logical) if (self.mu >> i) & 1]
        return "".join(parts) or "I"

    def describe(self) -> dict:
        return {"flip": self.flip, "sector": self.sector, "dim": self.dim}


def block_labels(frame: StabilizerFrame) -> list:
    k, ell = frame.n_indep, frame.n_logical
    return [BlockLabel(flip=f, mu=mu, nu=nu, n_indep=k, n_logical=ell)
            for f in range(1 << k) for mu in range(1 << ell) for nu in range(1 << ell)]


def block_label_of(frame: StabilizerFrame, pauli: PauliString) -> BlockLabel:
    """The block holding every operator proportional to ``pauli``.

    Read off the anticommutation pattern: flip bit j with the independent
    stabilizer ``frame.indep[j]``, mu bit i with logical Z_i (the string moves
    logical bit i) and nu bit i with logical X_i (conjugation by X_i flips
    its sign).
    """
    model = frame.model
    flip = sum(1 << j for j, s in enumerate(frame.indep)
               if not pauli.commutes_with(model.stabilizers[s]))
    mu = sum(1 << i for i, (_, lz) in enumerate(model.logicals)
             if not pauli.commutes_with(lz))
    nu = sum(1 << i for i, (lx, _) in enumerate(model.logicals)
             if not pauli.commutes_with(lx))
    return BlockLabel(flip=flip, mu=mu, nu=nu, n_indep=frame.n_indep,
                      n_logical=frame.n_logical)


# ---------------------------------------------------------------------------
# Symmetry orbits of the charge blocks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlockOrbits:
    """The charge blocks grouped by the lattice symmetries of one generator.

    generators: the site permutations of ``lattice_symmetries`` that leave the
                Hamiltonian and the jump components unchanged;
    images:     images[g, i], the index of the block that generators[g] maps
                block i onto (indices in ``block_labels`` order);
    rep:        rep[i], the first block of block i's orbit in that order.
    """

    generators: list
    images: np.ndarray
    rep: np.ndarray


def _is_symmetry(lrep: SuperOperatorRep, perm) -> bool:
    """True if ``perm`` maps every stabilizer onto one with an equal
    coefficient and the jump components onto themselves: the permuted
    coupling, the same frequency within the default grouping tolerance of
    ``build_generator`` and the same rate."""
    model = lrep.frame.model
    coeff = dict(zip(model.stabilizers, model.coefficients))
    if any(coeff.get(s.permuted(perm)) != c for s, c in coeff.items()):
        return False

    moved = {c.coupling: c.coupling.permuted(perm) for c in lrep.components}

    def keys(coupling_of):
        out = []
        for c in lrep.components:
            p = coupling_of(c.coupling)
            out.append((p.x_mask, p.z_mask, p.phase, c.omega, c.rate))
        return sorted(out)

    freq_tol = 1e-9 * model.coupling
    return all(a[:3] == b[:3] and abs(a[3] - b[3]) <= freq_tol
               and math.isclose(a[4], b[4], rel_tol=1e-12)
               for a, b in zip(keys(lambda p: p), keys(moved.__getitem__)))


def block_orbits(lrep: SuperOperatorRep) -> BlockOrbits:
    """Orbits of the charge blocks under the lattice symmetries of ``lrep``.

    A site permutation that leaves H and the jump components unchanged
    commutes with K and carries each charge block unitarily onto another, so
    blocks in one orbit share their spectrum exactly.  The label map of a
    kept permutation is GF(2)-linear: it is read off the blocks of the
    permuted images of k + 2*ell strings with unit labels, found with
    ``gf2_solve`` against the symplectic rows of the X logicals, the Z
    logicals and the independent stabilizers.
    """
    frame = lrep.frame
    model = frame.model
    n, ell = model.n_sites, frame.n_logical
    kept = [perm for perm in lattice_symmetries(model) if _is_symmetry(lrep, perm)]
    # bit b of a block index (nu bits, then mu, then flip) is set by
    # anticommuting with ops[b]; units[b] anticommutes with ops[b] alone
    ops = ([lx for lx, _ in model.logicals] + [lz for _, lz in model.logicals]
           + [model.stabilizers[s] for s in frame.indep])
    units = [PauliString(n, sol & ((1 << n) - 1), sol >> n)
             for sol in _unit_solutions([op.z_mask | (op.x_mask << n) for op in ops],
                                        2 * n, "charge label system")]
    index = np.arange(1 << (frame.n_indep + 2 * ell))
    images = np.zeros((len(kept), index.size), dtype=np.int64)
    for g, perm in enumerate(kept):
        for b, unit in enumerate(units):
            image = block_label_of(frame, unit.permuted(perm)).index
            images[g] ^= np.where((index >> b) & 1, image, 0)
    graph = sp.csr_matrix((np.ones(images.size),
                           (np.tile(index, len(kept)), images.ravel())),
                          shape=(index.size, index.size))
    orbit = connected_components(graph, directed=False)[1]
    first = np.unique(orbit, return_index=True)[1]
    return BlockOrbits(generators=kept, images=images, rep=first[orbit])


def _x_phases(frame: StabilizerFrame) -> np.ndarray:
    """phase[S, u] with X_S |u> = phase[S, u] |u ^ (S << k)>, X_S applying the
    X logicals in the bit set S in index order; each X logical must flip
    exactly its own logical bit."""
    k, u = frame.n_indep, np.arange(frame.dim)
    phase = np.ones((1 << frame.n_logical, frame.dim), dtype=complex)
    for subset in range(1, len(phase)):
        i = subset.bit_length() - 1
        rest = subset ^ (1 << i)
        if not np.array_equal(frame.x_perm[i], u ^ (1 << (k + i))):
            raise GeneratorError(f"X logical {i + 1} does not flip logical bit {i + 1}")
        phase[subset] = phase[rest] * frame.x_phase[i][u ^ (rest << k)]
    return phase


def _isometry_entries(frame: StabilizerFrame, x_phase: np.ndarray, flip, mu,
                      nu) -> np.ndarray:
    """v[i, u]: the one entry, in column u mod 2^k, of row u of W[nu[i]] in the
    sector (flip[i], mu[i]), for 1-d integer arrays flip, mu and nu.

    The (dim, 2^k) isometries W[nu], one per logical-Z sector nu and together
    a unitary in ``sector_index`` coordinates, symmetrise |sigma, 0><sigma ^
    flip, mu| over its X-logical images: row u = S * 2^k + sigma holds the
    X_S-image with its phase and the logical-Z charge (-1)^|S & nu|."""
    s = np.arange(len(x_phase))
    sigma = np.arange(1 << frame.n_indep)
    image = frame.state_index(sigma ^ np.asarray(flip)[:, None], np.asarray(mu)[:, None])
    phase = (x_phase[:, None, sigma] * x_phase[:, image].conj()).swapaxes(0, 1)
    signs = 1.0 - 2.0 * (np.bitwise_count(np.asarray(nu)[:, None] & s) & 1)
    return (signs[:, :, None] * phase).reshape(len(signs), -1) / np.sqrt(len(s))


def sector_index(frame: StabilizerFrame, flip: int, mu: int) -> np.ndarray:
    """Operator-space positions u + dim * (u ^ delta) of the sector's matrix
    units |u><u ^ delta|, delta = state_index(flip, mu), in ket order u."""
    u = np.arange(frame.dim)
    return u + frame.dim * (u ^ frame.state_index(flip, mu))


class ChargeBlocks:
    """The charge blocks of K, assembled from the jump components of -L.

    In the stabilizer frame every positive-frequency component is a masked
    generalized permutation S|u> = s_u |u ^ d>, so K maps the matrix units
    |u><u ^ delta| of one sector delta into the same sector.  The sector
    matrix has the diagonal g (D_u + D_{u^delta}), D = |s|^2 + eta^2 |s[. ^ d]|^2,
    and one cross term -2 eta g (conj(s_{u^d}) s_{u^delta^d} + s_u conj(s_{u^delta}))
    at row u ^ d of column u; the isometries W[nu] (``_isometry_entries``)
    split it into the sparse (flip, mu, nu) blocks.  ``union`` is the one
    assembly routine: ``gap_from_blocks``, ``sector_blocks`` and ``block``
    all call it.  The entries' positions depend on the flip patterns d only,
    never on delta, so its scatter plan (each entry's position in its block
    and their stable sort) is computed once here and serves every sector;
    only the entries' values and the isometry entries are formed per
    sector.  Optional per-site ``signs`` multiply each cross weight by the
    sign of its component's site (every coupling must then act on one site):
    the sign-flipped operator of ``sign_flip_restriction``.
    """

    def __init__(self, lrep: SuperOperatorRep, signs: np.ndarray = None):
        if lrep.space != "liouville":
            raise GeneratorError("charge blocks are assembled from a Liouville-space generator")
        frame = self.frame = lrep.frame
        self._u = np.arange(frame.dim)
        self._x_phase = _x_phases(frame)
        self.diagonal = np.zeros(frame.dim)
        cross: dict = {}
        for comp in lrep.components:
            if comp.omega < -1e-12:
                continue  # covered by the adjoint of the positive-frequency term
            d, s = comp.flip, comp.weights
            eta = math.exp(-lrep.beta * comp.omega / 2.0)
            g = _g_weight(comp.rate, comp.omega)
            self.diagonal += g * (np.abs(s) ** 2 + eta ** 2 * np.abs(s[self._u ^ d]) ** 2)
            weight = 2.0 * eta * g
            if signs is not None:
                site = comp.coupling.support()
                if len(site) != 1:
                    raise GeneratorError("sign-flip rule needs single-site couplings")
                weight *= signs[site[0]]
            cross.setdefault(d, []).append((weight, s))
        self._cross = [(d, np.array([w for w, _ in terms]), np.array([s for _, s in terms]))
                       for d, terms in cross.items()]
        # entries at rows u (the diagonal), then u ^ d per flip pattern, of columns u
        u, nk = self._u, 1 << frame.n_indep
        self._rows = np.concatenate([u] + [u ^ d for d, _, _ in self._cross])
        self._cols = np.tile(u, 1 + len(self._cross))
        # every cross term, grouped by flip pattern: weight * s, conj(s), each
        # pattern's first term and its rows u ^ d
        weights = np.concatenate([w for _, w, _ in self._cross] or [[]])
        stacked = np.concatenate([s for _, _, s in self._cross] or [np.zeros((0, u.size))])
        self._weighted, self._conj = (weights[:, None] * stacked)[:, None], stacked.conj()
        self._firsts = np.cumsum([0] + [len(w) for _, w, _ in self._cross])[:-1]
        self._moved = self._rows[u.size:].reshape(len(self._cross), 1, u.size)
        key = (self._rows % nk) * nk + self._cols % nk
        self._order = np.argsort(key, kind="stable")
        self._key = key[self._order]

    def _sector_data(self, deltas: np.ndarray) -> np.ndarray:
        """K's entries at (``_rows``, ``_cols``) on the sectors ``deltas``, one row each.

        No BLAS call: a gemv over stacked sectors crosses OpenBLAS's threading
        threshold, and threaded calls this small stall in some processes."""
        ud = self._u ^ deltas[:, None]
        data = np.empty((len(deltas), 1 + len(self._cross), self._u.size), dtype=complex)
        data[:, 0] = self.diagonal + self.diagonal[ud]
        if self._cross:
            terms = self._conj[:, ud]
            np.multiply(self._weighted, terms, out=terms)
            p = np.add.reduceat(terms, self._firsts, axis=0)
            data[:, 1:] = -(p + np.take_along_axis(p, self._moved, axis=2).conj()).swapaxes(0, 1)
        return data.reshape(len(deltas), -1)

    def sector_matrix(self, flip: int, mu: int) -> sp.csr_matrix:
        """K on the sector's matrix units, with no stored zeros."""
        data = self._sector_data(np.array([self.frame.state_index(flip, mu)]))[0]
        keep = data != 0
        m = sp.csr_matrix((data[keep], (self._rows[keep], self._cols[keep])),
                          shape=(self._u.size,) * 2)
        m.eliminate_zeros()
        return m

    def union(self, index) -> sp.csr_matrix:
        """The blocks W[nu]^dag K_delta W[nu] with ``block_labels`` indices
        ``index``, in that order, as one block-diagonal sparse matrix.

        The sector entry K[r, c] adds conj(v[nu, r]) K[r, c] v[nu, c] at
        (r mod 2^k, c mod 2^k).  Sectors are stacked in passes of about
        _PASS_ENTRIES products, a sector's blocks in one pass; a pass drops
        the entries zero on all its sectors and writes its nonzero sums
        straight into the union's CSR arrays.  The union is real when its
        imaginary part vanishes exactly (faster eigensolvers)."""
        frame, nk = self.frame, 1 << self.frame.n_indep
        ell = frame.n_logical
        index = np.asarray(index)
        nu, sector = index & ((1 << ell) - 1), index >> ell
        flip, mu = sector >> ell, sector & ((1 << ell) - 1)
        rows, cols = self._rows[self._order], self._cols[self._order]
        # pass boundaries: the first pair of each run of one sector, counted
        # in groups of _PASS_ENTRIES // len(rows) pairs, so no run is split
        run_start = np.maximum.accumulate(
            np.where(np.diff(sector, prepend=-1) != 0, np.arange(index.size), 0))
        group = run_start // max(1, _PASS_ENTRIES // rows.size)
        bounds = np.append(np.flatnonzero(np.diff(group, prepend=-1)), index.size)
        data, indices, counts = [], [], []
        for a, b in zip(bounds[:-1], bounds[1:]):
            deltas, at = np.unique(frame.state_index(flip[a:b], mu[a:b]), return_inverse=True)
            values = self._sector_data(deltas)[:, self._order]
            live = values.any(axis=0)  # an entry zero on every sector of the pass adds nothing
            key = self._key[live]
            heads = np.flatnonzero(np.diff(key, prepend=-1))
            v = _isometry_entries(frame, self._x_phase, flip[a:b], mu[a:b], nu[a:b])
            products = v.conj()[:, rows[live]]
            products *= values[:, live][at]
            products *= v[:, cols[live]]
            sums = np.add.reduceat(products, heads, axis=1)
            pair, at = np.nonzero(sums)
            key = key[heads[at]]
            data.append(sums[pair, at])
            indices.append((a + pair) * nk + key % nk)
            counts.append(np.bincount(pair * nk + key // nk, minlength=(b - a) * nk))
        data = np.concatenate(data)
        return sp.csr_matrix(
            (data if data.imag.any() else data.real.copy(), np.concatenate(indices),
             np.concatenate([[0], np.cumsum(np.concatenate(counts))])),
            shape=(index.size * nk,) * 2)

    def sector_blocks(self, flip: int, mu: int) -> list:
        """The sector's blocks for every nu, each assembled by ``union``."""
        first = ((flip << self.frame.n_logical) | mu) << self.frame.n_logical
        return [self.union([i]) for i in range(first, first + (1 << self.frame.n_logical))]

    def block(self, label: BlockLabel) -> sp.csr_matrix:
        return self.union([label.index])


# ---------------------------------------------------------------------------
# Sign-flipped restriction for the torus x-type generator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class XBlockSpec:
    """Fine block of the sigma_x generator on the torus.

    star_flip_sites: comb sites carrying sigma_z in the star-flip operator;
    nu / mu: logical sector bits as in BlockLabel.
    """

    star_flip_sites: tuple = ()
    nu: int = 0
    mu: int = 0


def _flip_mask(model: ModelSpec, block: XBlockSpec) -> int:
    """z mask of F = Z_F Z_L^nu: the star-flip string times the block's Z logicals."""
    zmask = 0
    for j in block.star_flip_sites:
        zmask ^= 1 << j
    for i in range(model.n_logical):
        if (block.nu >> i) & 1:
            zmask ^= model.logicals[i][1].z_mask
    return zmask


def _sandwich_signs(model: ModelSpec, block: XBlockSpec) -> np.ndarray:
    """-1 on the sites of F (where sigma_x anticommutes with F), +1 elsewhere."""
    return 1.0 - 2.0 * ((_flip_mask(model, block) >> np.arange(model.n_sites)) & 1)


def _snake_strings(frame: StabilizerFrame) -> list:
    """sigma_x on a subset of the snake, one string per flip pattern p of the
    independent plaquettes (bit i of p flips the i-th one)."""
    model = frame.model
    snake = list(model.partition.snake)
    plaquettes = [model.stabilizers[i] for i in frame.indep
                  if model.stabilizers[i].x_mask == 0]
    rows = [sum(1 << pos for pos, j in enumerate(snake)
                if not PauliString.single(model.n_sites, j, "X").commutes_with(plaq))
            for plaq in plaquettes]
    out = []
    for p in range(1 << len(plaquettes)):
        subset = gf2_solve(rows, [(p >> i) & 1 for i in range(len(plaquettes))],
                           len(snake))
        if subset is None:
            raise GeneratorError("snake does not span the requested flip")
        out.append(PauliString.from_sites(
            model.n_sites, "X", [j for pos, j in enumerate(snake) if (subset >> pos) & 1]))
    return out


def sign_flip_restriction(lrep: SuperOperatorRep, block: XBlockSpec,
                          check: bool = True, atol: float = 1e-12) -> SuperOperatorRep:
    """Restriction of the torus sigma_x master operator to one fine block.

    The fine block is spanned by F P_star P_plaq U(p) X_L^mu, with
    F = Z_F Z_L^nu (``_flip_mask``) and U(p) the snake string flipping
    plaquette pattern p.  K(F X) = F K^sigma(X), where K^sigma has its
    sandwich (cross) terms sign-flipped on the sites of F; and on the charge
    block of U(p) X_L^mu, K^sigma is kron(b_p, I) with the identity on the
    star bits.  The result is the direct sum of the b_p, read from the signed
    charge blocks; no 4^n-dimensional operator is built.  With ``check`` both
    identities are verified entry by entry, on the sparse forms, on every
    sector of the fine block and must hold to ``atol``.
    """
    frame = lrep.frame
    model = frame.model
    if model.kind != "toric" or model.partition is None:
        raise GeneratorError("x-type blocks require a toric model")
    signed = ChargeBlocks(lrep, signs=_sandwich_signs(model, block))
    x_mu = PauliString.identity(model.n_sites)
    for i in range(model.n_logical):
        if (block.mu >> i) & 1:
            x_mu = x_mu * model.logicals[i][0]
    n_star = 1 << len(frame.x_masks)
    if check:
        charge = ChargeBlocks(lrep)
        # F|u> = phi_u |perm_u> carries sector delta onto delta ^ (F's label)
        flip_string = PauliString(model.n_sites, 0, _flip_mask(model, block))
        perm, phi = frame.genperm_of(flip_string)
        moved = block_label_of(frame, flip_string)

    parts = []
    for p, snake in enumerate(_snake_strings(frame)):
        label = block_label_of(frame, snake * x_mu)
        signed_block = signed.block(label)
        b_p = signed_block[::n_star, ::n_star].toarray()
        parts.append(b_p)
        if not check:
            continue
        target = charge.sector_matrix(label.flip ^ moved.flip, label.mu ^ moved.mu)
        defect = abs(target[perm][:, perm] @ sp.diags(phi)
                     - sp.diags(phi) @ signed.sector_matrix(label.flip, label.mu)).max()
        if defect > atol:
            raise GeneratorError(f"sign-flip intertwining defect {defect:.3e} exceeds "
                                 f"{atol:.1e} (plaquette flip {p})")
        defect = abs(signed_block - sp.kron(b_p, sp.identity(n_star))).max()
        if defect > atol:
            raise GeneratorError(f"signed block differs from kron(b_p, I) by {defect:.3e}, "
                                 f"above {atol:.1e} (plaquette flip {p})")

    return SuperOperatorRep(matrix=block_diag(*parts), space="hilbert-schmidt",
                            beta=lrep.beta, frame=frame, rho=lrep.rho,
                            meta={"x_block": {"star_flip_sites": list(block.star_flip_sites),
                                              "nu": block.nu, "mu": block.mu}})
