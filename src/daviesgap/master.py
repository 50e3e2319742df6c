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
sparse, straight from the labels of the jump components, which it checks
against the phase structure of a Pauli coupling, and owns the 2^l logical
slots of a sector: one phase table gives the blocks from logical slot 0 and
a vector's block coordinates.  No code here builds the full
4^n-dimensional K or a dense sector matrix.  A lattice symmetry of the
model (``lattice_symmetries``) that leaves H and the jump components unchanged
carries each block unitarily onto another; ``block_orbits`` checks each
symmetry against the generator and groups the blocks into orbits of equal
spectrum.  The torus sign-flip restriction is read from sign-flipped charge
blocks and checked against the unsigned ones.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .basis import StabilizerFrame, _unit_solutions
from .davies import SuperOperatorRep, GeneratorError
from .models import ModelSpec, lattice_symmetries
from .pauli import (PauliString, anticommutation_bits, gf2_solve_many, gf2_span, mask_arrays,
                    parity_bits, permute_masks)

# cells, sectors x (1 + flip patterns) x 2^k, that ChargeBlocks.union forms per pass, each
# once; bigger passes save little and raise peak RSS (2^14: +1.3 MB over three certify sweeps)
_PASS_ENTRIES = 1 << 13
# bytes of one ChargeBlocks._discs pass, 24 per flip pattern, sector and column;
# 2^21 was no faster on rings 10 and 12 and raised peak RSS (+0.4 MB over two certify sweeps)
_BOUNDS_PASS_BYTES = 1 << 19
# power steps of ChargeBlocks.narrowed_bounds; more did not narrow the torus's bounds further
_NARROW_STEPS = 2


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

    @classmethod
    def at(cls, frame: StabilizerFrame, index: int) -> "BlockLabel":
        """The label at block index ``index`` (see ``index``)."""
        ell, low = frame.n_logical, (1 << frame.n_logical) - 1
        return cls(index >> (2 * ell), (index >> ell) & low, index & low, frame.n_indep, ell)

    @property
    def dim(self) -> int:
        return 1 << self.n_indep

    @property
    def index(self) -> int:
        """The block index: the bits nu, then mu, then flip."""
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


def _charge_ops(frame: StabilizerFrame) -> list:
    """The strings that set the bits of a block index, in order: the X
    logicals (nu), the Z logicals (mu), the independent stabilizers (flip)."""
    model = frame.model
    return ([lx for lx, _ in model.logicals] + [lz for _, lz in model.logicals]
            + [model.stabilizers[s] for s in frame.indep])


def block_label_of(frame: StabilizerFrame, pauli: PauliString) -> BlockLabel:
    """The block holding every operator proportional to ``pauli``: flip bit j
    is set if it anticommutes with the independent stabilizer ``frame.indep[j]``,
    mu bit i with logical Z_i (the string moves logical bit i) and nu bit i
    with logical X_i (conjugation by X_i flips its sign): bit b of the block
    index is set where it anticommutes with ``_charge_ops``[b]."""
    return BlockLabel.at(frame, int(anticommutation_bits(pauli.x_mask, pauli.z_mask,
                                                         _charge_ops(frame))))


def block_sectors(frame: StabilizerFrame, index) -> tuple:
    """The distinct sectors of the block indices ``index`` as delta =
    state_index(flip, mu), in order of (flip, mu); each index's position
    among them; each index's nu."""
    ell, low, index = frame.n_logical, (1 << frame.n_logical) - 1, np.asarray(index)
    sectors, of = np.unique(index >> ell, return_inverse=True)
    return frame.state_index(sectors >> ell, sectors & low), of, index & low


# ---------------------------------------------------------------------------
# Symmetry orbits of the charge blocks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlockOrbits:
    """The charge blocks grouped by the lattice symmetries of one generator.

    generators: the site permutations of ``lattice_symmetries`` that leave the
                Hamiltonian and the jump components unchanged;
    images:     images[g, i], the index of the block that generators[g] maps
                block i onto (block indices, ``BlockLabel.index``);
    rep:        rep[i], the block of least index in block i's orbit.
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
    stabs = mask_arrays(model.stabilizers)
    coeff = dict(zip(map(tuple, stabs.T.tolist()), model.coefficients))
    moved = zip(*permute_masks(stabs[:2], perm).tolist(), stabs[2].tolist())
    if any(coeff.get(key) != c for key, c in zip(moved, model.coefficients)):
        return False

    x, z, phase = mask_arrays(c.coupling for c in lrep.components)
    rest = np.array([(c.omega, c.rate) for c in lrep.components]).reshape(-1, 2).T

    def keys(x, z):  # rows x, z, phase, omega, rate; columns sorted as tuples
        k = np.vstack([x, z, phase, rest])
        return k[:, np.lexsort(k[::-1])]

    a, b = keys(x, z), keys(*permute_masks([x, z], perm))
    return bool((a[:3] == b[:3]).all() and (abs(a[3] - b[3]) <= 1e-9 * model.coupling).all()
                and (abs(a[4] - b[4]) <= 1e-12 * np.maximum(abs(a[4]), abs(b[4]))).all())


def block_orbits(lrep: SuperOperatorRep) -> BlockOrbits:
    """Orbits of the charge blocks under the lattice symmetries of ``lrep``.

    A site permutation that leaves H and the jump components unchanged
    commutes with K and carries each charge block unitarily onto another, so
    blocks in one orbit share their spectrum exactly.  The label map of a
    kept permutation is GF(2)-linear: it is read off the blocks of the
    permuted images of k + 2*ell strings with unit labels, found in one solve
    against the symplectic rows of ``_charge_ops``, and spanned by
    ``gf2_span``; each permutation moves their masks in one bit-gather.
    """
    frame = lrep.frame
    n = frame.model.n_sites
    kept = [perm for perm in lattice_symmetries(frame.model) if _is_symmetry(lrep, perm)]
    # the unit string b anticommutes with ops[b] alone
    ops = _charge_ops(frame)
    units = np.array(_unit_solutions([op.z_mask | (op.x_mask << n) for op in ops],
                                     2 * n, "charge label system"), dtype=np.int64)
    units = np.stack([units & ((1 << n) - 1), units >> n])
    index = np.arange(1 << (frame.n_indep + 2 * frame.n_logical))
    images = np.zeros((len(kept), index.size), dtype=np.int64)
    for g, perm in enumerate(kept):
        images[g] = gf2_span(anticommutation_bits(*permute_masks(units, perm), ops))
    orbit = _components(index.size, np.tile(index, len(kept)), images.ravel())[1]
    first = np.unique(orbit, return_index=True)[1]
    return BlockOrbits(generators=kept, images=images, rep=first[orbit])


@dataclass(frozen=True, eq=False)
class SparseMatrix:
    """A sparse matrix in canonical coordinate form: its entries sorted by
    row, then column, one per cell and none zero.

    ``from_entries`` builds it from any entry list; ``of`` from a dense
    array or any object with ``tocoo()``.  Construct it directly only from
    arrays already in this form.
    """

    shape: tuple
    row: np.ndarray
    col: np.ndarray
    data: np.ndarray

    @classmethod
    def from_entries(cls, shape, row, col, data) -> "SparseMatrix":
        """The entries (row[i], col[i], data[i]), the duplicates of one cell
        summed one after another in their input order, zeros dropped."""
        shape = tuple(int(d) for d in shape)
        row, col = (np.asarray(x, dtype=np.int64).ravel() for x in (row, col))
        data = np.asarray(data).ravel()
        if row.size and (min(row.min(), col.min()) < 0 or row.max() >= shape[0]
                         or col.max() >= shape[1]):
            raise ValueError(f"entry index outside the shape {shape}")
        key = row * shape[1] + col
        if key.size and (key[1:] < key[:-1]).any():
            order = np.argsort(key, kind="stable")
            key, data = key[order], data[order]
        new = _new_run(key)
        if not new.all():
            cell = np.cumsum(new) - 1
            key, summed = key[new], data[new]
            np.add.at(summed, cell[~new], data[~new])
            data = summed
        keep = data != 0
        return cls(shape, key[keep] // shape[1], key[keep] % shape[1], data[keep])

    @classmethod
    def of(cls, matrix) -> "SparseMatrix":
        """``matrix`` itself, or the canonical form of a 2-d array or of any
        object with ``tocoo()``, such as a scipy.sparse matrix."""
        if isinstance(matrix, cls):
            return matrix
        if hasattr(matrix, "tocoo"):
            coo = matrix.tocoo()
            return cls.from_entries(coo.shape, coo.row, coo.col, coo.data)
        dense = np.asarray(matrix)
        if dense.ndim != 2:
            raise ValueError(f"need a 2-d matrix, got shape {dense.shape}")
        row, col = np.nonzero(dense)
        return cls(dense.shape, row, col, dense[row, col])

    @property
    def nnz(self) -> int:
        return self.data.size

    def toarray(self, order: str = "C") -> np.ndarray:
        """The dense matrix; each entry is added onto a zero, so a -0.0 part
        of a complex entry reads +0.0, as in scipy's."""
        dense = np.zeros(self.shape, dtype=self.data.dtype, order=order)
        dense[self.row, self.col] += self.data
        return dense

    def tocoo(self) -> "SparseMatrix":
        return self

    def __matmul__(self, vector) -> np.ndarray:
        """The matrix times a vector, each row summed in column order."""
        vector = np.asarray(vector)
        if vector.shape != self.shape[1:]:
            raise ValueError(f"cannot multiply a {self.shape} matrix by shape {vector.shape}")
        out = np.zeros(self.shape[0], dtype=np.result_type(self.data, vector))
        np.add.at(out, self.row, self.data * vector[self.col])
        return out


def _components(n: int, a, b) -> tuple:
    """The connected components of the undirected graph on ``n`` nodes with
    the edges (a[i], b[i]): their count and each node's label.  Labels are
    numbered by each component's smallest node, as ``scipy.sparse.csgraph``
    numbers them.

    Min-label hooking with pointer jumping: each node first hooks onto the
    least node it has an edge to, if smaller; then each round jumps every
    node to its root, the smallest node of its tree, and hooks the larger
    root of every edge that still joins two trees onto the other."""
    node = np.arange(n)
    a, b = np.asarray(a, dtype=np.intp), np.asarray(b, dtype=np.intp)
    root = node.copy()
    np.minimum.at(root, a, b)
    while True:
        jumped = root[root]
        while not np.array_equal(jumped, root):
            root, jumped = jumped, jumped[jumped]
        ra, rb = root[a], root[b]
        apart = ra != rb
        if not apart.any():
            break
        a, b, ra, rb = a[apart], b[apart], ra[apart], rb[apart]
        root[np.maximum(ra, rb)] = np.minimum(ra, rb)
    first = root == node
    return int(first.sum()), (np.cumsum(first) - 1)[root]


def _x_phases(frame: StabilizerFrame) -> np.ndarray:
    """phase[S, u] with X_S |u> = phase[S, u] |u ^ (S << k)>, X_S applying the
    X logicals in the bit set S in index order; each X logical must flip
    exactly its own logical bit."""
    k, u = frame.n_indep, np.arange(frame.dim)
    phase = np.ones((1, frame.dim), dtype=complex)
    for i, (perm, x) in enumerate(zip(frame.x_perm, frame.x_phase)):
        if not np.array_equal(perm, u ^ (1 << (k + i))):
            raise GeneratorError(f"X logical {i + 1} does not flip logical bit {i + 1}")
        # X_{S + 2^i} = X_i X_S for the sets S below 2^i
        phase = np.concatenate([phase, phase * x[u ^ (np.arange(len(phase))[:, None] << k)]])
    return phase


def _collatz_max(centre: np.ndarray, cross: np.ndarray, moved: np.ndarray) -> np.ndarray:
    """Per row of ``centre`` (..., rows, n), max_i (C x)_i / x_i for x =
    C^_NARROW_STEPS 1, where (C x)_i = centre_i x_i + sum_d cross[row, d, i]
    x[moved[d, i]]; where C x is 0 (a zero row of C), x_i stays 1."""
    def product(x):
        return centre * x + (cross * np.take(x, moved, axis=-1)).sum(axis=-2)

    x = np.ones_like(centre)
    for _ in range(_NARROW_STEPS):
        x = product(x)
        x[x == 0] = 1.0
    return (product(x) / x).max(axis=-1)


def _new_run(keys: np.ndarray) -> np.ndarray:
    """True where a run of equal keys starts."""
    return np.concatenate(([True], keys[1:] != keys[:-1]))[:keys.size]


class ChargeBlocks:
    """The charge blocks of K, assembled from the jump components of -L.

    In the stabilizer frame every positive-frequency component is a masked
    generalized permutation S|u> = s_u |u ^ d>, so K maps the matrix units
    |u><u ^ delta| of one sector delta into the same sector.  The sector
    matrix has the diagonal g (D_u + D_{u^delta}), D = |s|^2 + eta^2 |s[. ^ d]|^2,
    and one cross term -2 eta g (conj(s_{u^d}) s_{u^delta^d} + s_u conj(s_{u^delta}))
    at row u ^ d of column u; the isometries W[nu], one per logical-Z sector
    nu, split it into the sparse (flip, mu, nu) blocks: W[nu] sums the X_S
    images of the slot-0 matrix units, each with its phase (``_slot_phases``,
    the table ``union`` and ``coordinates`` read) and sign (-1)^|nu & S|,
    over sqrt(2^l).  One method reads K,
    ``_sector_entries``: in the stabilizer frame a cross term's products are
    one sign per sector on a support set by syndrome bits (``_disc_terms``
    checks this once, and raises GeneratorError where it fails), so the
    reader gathers labels and no complex weight, covers many sectors at once
    and finds K_delta real and equal on every logical slot.  ``union`` is the
    one assembly routine (``gap_from_blocks`` and ``block`` call it); it and
    ``sector_matrix`` lay out the reader's entries of logical slot 0.  The
    entries' positions depend on the flip patterns d only: the cells, their
    stable key order and the runs of one key are laid out once here, and
    only values are formed per sector.  The bounds that ``gap_from_blocks``
    screens sectors by, ``sector_bounds`` (Gershgorin discs) and
    ``narrowed_bounds`` (discs of a diagonal similarity), read the same
    entries per column through ``_discs``.
    Optional per-site ``signs`` multiply each cross weight by the sign of its
    component's site (every coupling must then act on one site): the
    sign-flipped operator of ``sign_flip_restriction``.
    """

    def __init__(self, lrep: SuperOperatorRep, signs: np.ndarray = None):
        if lrep.space != "liouville":
            raise GeneratorError("charge blocks are assembled from a Liouville-space generator")
        frame = self.frame = lrep.frame
        u = self._u = np.arange(frame.dim)
        self._x_phase = _x_phases(frame)
        # negative frequencies are covered by the adjoints of the positive-frequency terms
        comps = [c for c in lrep.components if c.omega >= -1e-12]
        s = np.array([c.weights for c in comps], dtype=complex).reshape(len(comps), u.size)
        d = np.array([c.flip for c in comps], dtype=np.int64)
        eta = [math.exp(-lrep.beta * c.omega / 2.0) for c in comps]
        g, eta2 = np.array([(_g_weight(c.rate, c.omega), e ** 2)
                            for c, e in zip(comps, eta)]).reshape(-1, 2).T
        moved = s.ravel()[(np.arange(d.size) * u.size)[:, None] + (u ^ d[:, None])]
        self.diagonal = (g[:, None] * (np.abs(s) ** 2
                                       + eta2[:, None] * np.abs(moved) ** 2)).sum(axis=0)
        weight = 2.0 * np.array(eta) * g
        if signs is not None:
            sites = np.bitwise_or(*mask_arrays(c.coupling for c in comps)[:2])
            if (np.bitwise_count(sites) != 1).any():
                raise GeneratorError("sign-flip rule needs single-site couplings")
            weight = weight * signs[np.bitwise_count(sites - 1)]
        # the cross terms grouped by flip pattern, the patterns in order of first appearance
        _, at, inverse = np.unique(d, return_index=True, return_inverse=True)
        order = np.argsort(at[inverse], kind="stable")
        new = _new_run(at[inverse][order])
        self._firsts, self._group = np.flatnonzero(new), np.cumsum(new) - 1
        self._flips, self._weights, terms = d[order][self._firsts], weight[order], s[order]
        # every component, and the coupling of each term, for _disc_terms
        self._components = lrep.components
        self._coupling = np.array([c.coupling_index for c in comps], dtype=np.int64)[order]
        # every cross term, grouped by flip pattern: conj(s) and its support
        self._conj, self._support = terms.conj(), terms != 0
        # the cells: rows sigma (the diagonal), then sigma ^ d per flip pattern, of the
        # columns sigma of logical slot 0, in the stable order of their keys; the runs
        # of one key, each summed into one block entry
        nk, sigma = 1 << frame.n_indep, u[:1 << frame.n_indep]
        rows = np.concatenate([sigma, (sigma ^ self._flips[:, None]).ravel()])
        key = (rows % nk) * nk + np.tile(sigma, 1 + self._flips.size)
        self._order = np.argsort(key, kind="stable")
        self._key, self._rows, self._cols = key[self._order], rows[self._order], self._order % nk
        self._start = np.flatnonzero(_new_run(self._key))

    @functools.cached_property
    def _disc_terms(self) -> tuple:
        """The cross terms as ``_sector_entries`` reads them, checked once
        per generator: a[t], the sign character of term t; ``by``, the terms
        in order of their support within their flip pattern, and the
        ``starts`` of each support; labels[g, sigma], the support of flip
        pattern g that holds syndrome state sigma (-1 for none).

        A Pauli coupling acts in the stabilizer frame as a unit phase c times
        a sign character (-1)^|a & u|, and its frequency components split it
        by the signs of the stabilizers it flips.  So the components of a
        coupling, at all frequencies, add up to c on state 0 and to +-c on
        each unit state, which fixes c and a; each term's weights must be
        c (-1)^|a & u| on a support set by the syndrome bits of u alone; and
        two terms of one flip pattern must share their support or not meet.
        Then w s_u conj(s_{u ^ delta}) = w (-1)^|a & delta| wherever both
        factors are nonzero: K_delta is real, and a term's product on column
        u of any slot is the one on column u mod 2^k."""
        nk, n = 1 << self.frame.n_indep, self.frame.model.n_sites
        # each coupling's phase on state 0 and the unit states: its components' sum
        states = np.append(0, 1 << np.arange(n))
        index = np.array([c.coupling_index for c in self._components])
        phase = np.zeros((index.max() + 1, states.size), dtype=complex)
        np.add.at(phase, index, [c.weights[states] for c in self._components])
        phase = phase[self._coupling]
        a = ((phase[:, 1:] != phase[:, :1]) << np.arange(n)).sum(axis=1)
        char = phase[:, :1].conj() * (1.0 - 2.0 * (np.bitwise_count(a[:, None] & self._u) & 1))
        # the supports of each flip pattern, keyed by their first state
        keys, first, of = np.unique(self._group * nk + self._support[:, :nk].argmax(axis=1),
                                    return_index=True, return_inverse=True)
        pair, state = np.nonzero(self._support[first, :nk])
        labels = np.full((self._flips.size, nk), -1, dtype=np.int32)
        labels[keys[pair] // nk, state] = pair
        slots = self._support.reshape(len(a), -1, nk)
        bad = ~((self._conj == np.where(self._support, char, 0)).all(axis=1)
                & (abs(phase[:, 0]) == 1)
                & (slots == (labels[self._group] == of[:, None])[:, None]).all(axis=(1, 2)))
        if bad.any():
            t = int(np.argmax(bad))
            raise GeneratorError(f"cross term {t} (flip pattern {self._flips[self._group[t]]}) is "
                                 "not a phase times a sign character on a syndrome-set support "
                                 "that each other term of its flip pattern shares or misses")
        by = np.argsort(of, kind="stable")
        return a, by, np.flatnonzero(_new_run(of[by])), labels

    def _sector_entries(self, deltas: np.ndarray) -> np.ndarray:
        """K's entries on the columns sigma of logical slot 0 of the sectors
        ``deltas``, real and shaped (sectors, 1 + flip patterns, 2^k): the
        diagonal D[sigma] + D[sigma ^ delta], then the rows sigma ^ d of each
        flip pattern d, by column sigma; ``self._order`` puts a sector's
        entries in key order.

        By ``_disc_terms`` no weight is gathered: the terms of one support
        add c = sum w (-1)^|a & delta| on each column sigma where the support
        holds both sigma and sigma ^ delta, and the sum P over a flip
        pattern's supports gives K[sigma ^ d, sigma] = -(P[sigma] +
        P[sigma ^ d]).  A row sigma ^ d in another logical slot (d flips
        logical bits) reads P at sigma ^ (d mod 2^k), as a term's product is
        the same on every slot."""
        a, by, starts, labels = self._disc_terms
        nk = labels.shape[1]
        sigma = self._u[:nk]
        weight = self._weights * (1.0 - 2.0 * (np.bitwise_count(a & deltas[:, None]) & 1))
        c = np.zeros((deltas.size, starts.size + 1))  # column -1: no support
        c[:, :-1] = np.add.reduceat(weight[:, by], starts, axis=1)
        met = np.take(labels, sigma ^ deltas[:, None] % nk, axis=1).swapaxes(0, 1) == labels
        p = np.where(met, np.take(c, labels, axis=1), 0.0)
        # column sigma ^ d of row d in P's rows
        moved = np.arange(self._flips.size)[:, None] * nk + (sigma ^ self._flips[:, None] % nk)
        entries = np.empty((deltas.size, 1 + self._flips.size, nk))
        entries[:, 0] = self.diagonal[sigma] + self.diagonal[sigma ^ deltas[:, None]]
        entries[:, 1:] = -(p + np.take(p.reshape(deltas.size, -1), moved, axis=1))
        return entries

    def _discs(self, deltas: np.ndarray):
        """Per pass of at most _BOUNDS_PASS_BYTES, the sectors' slice of
        ``deltas`` and their ``_sector_entries`` as discs: the diagonal
        (sectors, 2^k), which the rows of flip pattern 0 add to, and |K| at
        the rows sigma ^ d (sectors, flip patterns d != 0, 2^k)."""
        zero = np.flatnonzero(self._flips == 0) + 1
        off = np.flatnonzero(self._flips != 0) + 1
        per = max(1, _BOUNDS_PASS_BYTES // (24 * self._flips.size << self.frame.n_indep))
        for start in range(0, deltas.size, per):
            entries = self._sector_entries(deltas[start:start + per])
            yield (slice(start, start + per), entries[:, 0] + entries[:, zero].sum(axis=1),
                   np.abs(entries[:, off]))

    def sector_bounds(self, deltas) -> tuple:
        """Gershgorin bounds (lo, hi) on the spectrum of K on each sector of
        ``deltas``, many sectors per ``_discs`` pass.

        Column sigma of logical slot 0 has the diagonal K[sigma, sigma], with
        the cross terms of flip pattern 0 (the Z couplings of the ring), and
        the radius R, the sum of |K| over its other flip patterns, including
        those lifted into another logical slot.  Conjugation by the X
        logicals commutes with K and maps every slot onto slot 0, so these
        discs cover every column of K_delta, and every (flip, mu, nu) block of
        the sector has its spectrum in [min(diag - R), max(diag + R)]
        (S. Gershgorin, 1931)."""
        deltas = np.asarray(deltas)
        lo, hi = np.empty(deltas.size), np.empty(deltas.size)
        for at, diag, cross in self._discs(deltas):
            radius = cross.sum(axis=1)
            lo[at], hi[at] = (diag - radius).min(axis=1), (diag + radius).max(axis=1)
        return lo, hi

    def narrowed_bounds(self, deltas) -> tuple:
        """The bounds of ``sector_bounds`` narrowed by diagonal similarities
        D^-1 K_delta D, which keep the spectrum (R. S. Varga, Gersgorin and
        His Circles, 2004, ch. 1-2).

        With C = diag + |off| (K's diagonal is >= 0, so C >= 0), the discs of
        D^-1 K D with D = diag(x), x > 0, give hi = max_i (C x)_i / x_i; lo
        mirrors it with (m - diag) + |off|, m the largest diagonal entry.  x
        takes _NARROW_STEPS power steps from ones, which gives the plain
        discs; each step can only narrow them (Collatz-Wielandt).  C commutes
        with the X-logical slot map and ones is invariant under it, so x
        lives on the 2^k columns of slot 0.  Where C x vanishes, a column
        with no off-diagonal entry, x stays 1."""
        nk = 1 << self.frame.n_indep
        moved = self._u[:nk] ^ self._flips[self._flips != 0, None] % nk
        deltas = np.asarray(deltas)
        lo, hi = np.empty(deltas.size), np.empty(deltas.size)
        for at, diag, cross in self._discs(deltas):
            top = diag.max(axis=1, keepdims=True)
            hi[at], lo[at] = _collatz_max(np.stack([diag, top - diag]), cross, moved)
            lo[at] = top[:, 0] - lo[at]
        return lo, hi

    def sector_matrix(self, flip: int, mu: int) -> SparseMatrix:
        """K on the sector's matrix units: the entries of logical slot 0 in
        every slot, as ``_disc_terms`` makes them equal."""
        slots, delta = 1 << self.frame.n_logical, np.array([self.frame.state_index(flip, mu)])
        data = self._sector_entries(delta).ravel()[self._order]
        slot = np.repeat(np.arange(slots) << self.frame.n_indep, self._key.size)
        return SparseMatrix.from_entries((self._u.size,) * 2, np.tile(self._rows, slots) ^ slot,
                                         np.tile(self._cols, slots) ^ slot, np.tile(data, slots))

    def _slot_phases(self, deltas: np.ndarray, nu: np.ndarray) -> np.ndarray:
        """psi[i, u] = (-1)^|nu[i] & S| conj(p[S, sigma]) p[S, sigma ^ deltas[i]]
        at u = S * 2^k + sigma, p of ``_x_phases``: column sigma of W[nu[i]] is
        the sum over S of conj(psi[i, u]) |u><u ^ delta| over sqrt(2^l)."""
        slot, sigma = np.divmod(self._u, 1 << self.frame.n_indep)
        signs, x = 1.0 - 2.0 * (np.bitwise_count(nu[:, None] & slot) & 1), self._x_phase
        return signs * (x[slot, sigma].conj() * x[slot, sigma ^ deltas[:, None]])

    def coordinates(self, index, z) -> np.ndarray:
        """W[nu]^dag z[..., i] for the blocks with indices ``index``, shaped
        (..., blocks, 2^k): z[..., i, u] is a vector of block i's sector at the
        matrix unit |u><u ^ delta|, by ket u."""
        deltas, of, nu = block_sectors(self.frame, index)
        w = self._slot_phases(deltas[of], nu) / math.sqrt(1 << self.frame.n_logical)
        return (w * z).reshape(*np.shape(z)[:-1], -1, 1 << self.frame.n_indep).sum(axis=-2)

    def union(self, index) -> SparseMatrix:
        """The blocks W[nu]^dag K_delta W[nu] with block indices
        ``index``, in that order, as one block-diagonal sparse matrix.

        Conjugation by the X logicals commutes with K, so each of the 2^l
        logical slots of W[nu] gives the block the same share: the block is
        the slot-0 cells alone, K[r, sigma] psi[r] at (r mod 2^k, sigma), psi
        (``_slot_phases``) the phase and charge sign of the row's slot r >> k,
        with no 1/2^l to cancel.  Each distinct sector is
        read once from ``_sector_entries``, in passes of at most
        _PASS_ENTRIES cells or one sector, and each of its cells is
        multiplied once per block by its phase and sign; the label check raises
        GeneratorError for a generator off the phase structure.  A run of
        one key is summed in stable key order with its zero entries; the
        per-sector reference drops them, which changes a sum only if the
        run's first cell vanishes before two nonzero ones or a run of more
        than 9 entries holds a zero, and no coupling set here does either (a
        run's cells flip the same stabilizers).  The union is real when its
        imaginary part vanishes exactly (faster eigensolvers)."""
        nk, cells, runs = 1 << self.frame.n_indep, self._key.size, self._start.size
        deltas, of, nu = block_sectors(self.frame, index)
        by = np.argsort(of, kind="stable")  # the positions of index, grouped by sector
        per = max(1, _PASS_ENTRIES // cells)
        data, rows, cols = [], [], []
        for a, pos in zip(range(0, deltas.size, per),
                          np.split(by, np.searchsorted(of[by], np.arange(per, deltas.size, per)))):
            part = deltas[a:a + per]
            base = self._sector_entries(part).reshape(part.size, -1)[:, self._order]
            s = of[pos] - a  # each position's cells, times their phase and sign
            products = base[s] * np.take(self._slot_phases(part[s], nu[pos]), self._rows, axis=1)
            heads = self._start + cells * np.arange(s.size)[:, None]
            sums = np.add.reduceat(products.ravel(), heads.ravel())
            at = np.flatnonzero(sums != 0)
            p, run = np.divmod(at, runs)
            key = self._key[self._start[run]]
            data.append(sums[at])
            rows.append(pos[p] * nk + key // nk)
            cols.append(pos[p] * nk + key % nk)
        data, rows, cols = (np.concatenate(x) for x in (data, rows, cols))
        if (np.diff(by) < 0).any():  # index not grouped by sector: put the rows in order
            order = np.argsort(rows, kind="stable")
            data, rows, cols = data[order], rows[order], cols[order]
        return SparseMatrix((of.size * nk,) * 2, rows, cols,
                            data if data.imag.any() else data.real.copy())

    def block(self, label: BlockLabel) -> SparseMatrix:
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
    zmask = int(gf2_span([lz.z_mask for _, lz in model.logicals])[block.nu])
    for j in block.star_flip_sites:
        zmask ^= 1 << j
    return zmask


def _sandwich_signs(model: ModelSpec, block: XBlockSpec) -> np.ndarray:
    """-1 on the sites of F (where sigma_x anticommutes with F), +1 elsewhere."""
    return 1.0 - 2.0 * ((_flip_mask(model, block) >> np.arange(model.n_sites)) & 1)


def _snake_strings(frame: StabilizerFrame) -> list:
    """sigma_x on a subset of the snake, one string per flip pattern p of the
    independent plaquettes (bit i of p flips the i-th one): the span of the
    strings that flip one plaquette each."""
    model = frame.model
    snake = np.array(model.partition.snake)
    plaquettes = np.array(frame.z_rows[:len(frame.z_rows) - model.n_logical], dtype=np.int64)
    # bit pos of rows[i] is set where sigma_x on snake[pos] flips plaquette i
    rows = parity_bits(plaquettes, 1 << snake).tolist()
    units = gf2_solve_many(rows, [1 << i for i in range(len(rows))], snake.size)
    if None in units:
        raise GeneratorError(f"snake does not span the flip of plaquette {units.index(None)}")
    return [PauliString(model.n_sites, int(x), 0) for x in gf2_span(permute_masks(units, snake))]


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
    identities are verified entry by entry on every sector of the fine block
    and must hold to ``atol``.
    """
    frame = lrep.frame
    model = frame.model
    if model.kind != "toric" or model.partition is None:
        raise GeneratorError("x-type blocks require a toric model")
    sectors = 1 << model.n_logical
    for name, values, bound in (("nu", [block.nu], sectors), ("mu", [block.mu], sectors),
                                ("star_flip_sites", block.star_flip_sites, model.n_sites)):
        for value in values:
            if not 0 <= value < bound:
                raise GeneratorError(f"XBlockSpec.{name} holds {value}, outside 0..{bound - 1}")
    signed = ChargeBlocks(lrep, signs=_sandwich_signs(model, block))
    x_mu = PauliString(model.n_sites,
                       int(gf2_span([lx.x_mask for lx, _ in model.logicals])[block.mu]), 0)
    n_star = 1 << len(frame.x_masks)
    if check:
        charge = ChargeBlocks(lrep)
        # F|u> = phi_u |perm_u> carries sector delta onto delta ^ (F's label)
        flip_string = PauliString(model.n_sites, 0, _flip_mask(model, block))
        perm, phi = frame.genperm_of(0, flip_string.z_mask, 0)
        moved = block_label_of(frame, flip_string)

    parts = []
    for p, snake in enumerate(_snake_strings(frame)):
        label = block_label_of(frame, snake * x_mu)
        signed_block = signed.block(label).toarray()
        b_p = signed_block[::n_star, ::n_star]
        parts.append(b_p)
        if not check:
            continue
        target = charge.sector_matrix(label.flip ^ moved.flip, label.mu ^ moved.mu).toarray()
        defect = abs(target[perm][:, perm] * phi
                     - phi[:, None] * signed.sector_matrix(label.flip, label.mu).toarray()).max()
        if defect > atol:
            raise GeneratorError(f"sign-flip intertwining defect {defect:.3e} exceeds "
                                 f"{atol:.1e} (plaquette flip {p})")
        defect = abs(signed_block - np.kron(b_p, np.eye(n_star))).max()
        if defect > atol:
            raise GeneratorError(f"signed block differs from kron(b_p, I) by {defect:.3e}, "
                                 f"above {atol:.1e} (plaquette flip {p})")

    size = sum(len(b) for b in parts)
    matrix = np.zeros((size, size), dtype=np.result_type(*parts))
    start = 0
    for b in parts:
        matrix[start:start + len(b), start:start + len(b)] = b
        start += len(b)
    return SuperOperatorRep(matrix=matrix, space="hilbert-schmidt",
                            beta=lrep.beta, frame=frame, rho=lrep.rho,
                            meta={"x_block": {"star_flip_sites": list(block.star_flip_sites),
                                              "nu": block.nu, "mu": block.mu}})
