"""Exact n-qubit Pauli-string algebra in the symplectic (bit-mask) picture.

A Pauli string is stored as two n-bit masks plus a global phase exponent,
representing the operator

    i**phase * X(x_mask) * Z(z_mask),

where X(x) applies sigma_x on every site in x and Z(z) applies sigma_z on
every site in z.  Site j corresponds to bit j of the basis-state index and
sigma_z |0> = +|0>.  All products and phases are exact integer arithmetic,
so long stabilizer products never accumulate floating-point drift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Largest site count for which matrices are materialized (2**14 = 16384).
MATRIX_SITE_CAP = 14

_PHASE_VALUES = (1.0, 1.0j, -1.0, -1.0j)
_PHASE_LABELS = {0: "+", 1: "+i", 2: "-", 3: "-i"}
_LETTER_OF_BITS = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
# sigma_y = i * X * Z, hence the phase exponent 1 attached to "Y".
_BITS_OF_LETTER = {"I": (0, 0, 0), "X": (1, 0, 0), "Y": (1, 1, 1), "Z": (0, 1, 0)}


class PauliError(ValueError):
    pass


def _parity(mask: int) -> int:
    return mask.bit_count() & 1


@dataclass(frozen=True)
class PauliString:
    """A phased Pauli operator on ``n`` sites."""

    n: int
    x_mask: int
    z_mask: int
    phase: int = 0  # exponent of i, mod 4

    def __post_init__(self):
        if self.n < 1:
            raise PauliError("need at least one site")
        full = (1 << self.n) - 1
        if self.x_mask & ~full or self.z_mask & ~full:
            raise PauliError("mask exceeds site count")
        object.__setattr__(self, "phase", self.phase % 4)

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(n, 0, 0, 0)

    @classmethod
    def single(cls, n: int, site: int, kind: str) -> "PauliString":
        """sigma_{kind} acting on one site of an n-site register."""
        if not 0 <= site < n:
            raise PauliError(f"site {site} outside register of {n}")
        if kind.upper() not in _BITS_OF_LETTER:
            raise PauliError(f"unknown Pauli letter {kind!r}; allowed: I, X, Y, Z")
        x, z, p = _BITS_OF_LETTER[kind.upper()]
        return cls(n, x << site, z << site, p)

    @classmethod
    def from_sites(cls, n: int, kind: str, sites) -> "PauliString":
        """Product of identical single-site factors, e.g. a stabilizer."""
        op = cls.identity(n)
        for s in sites:
            op = op * cls.single(n, s, kind)
        return op

    # -- basic queries -----------------------------------------------------

    @property
    def phase_value(self) -> complex:
        return _PHASE_VALUES[self.phase]

    def is_identity(self) -> bool:
        return self.x_mask == 0 and self.z_mask == 0 and self.phase == 0

    def key(self) -> tuple:
        """Mask pair identifying the operator up to phase."""
        return (self.x_mask, self.z_mask)

    # -- algebra -----------------------------------------------------------

    def __mul__(self, other: "PauliString") -> "PauliString":
        if self.n != other.n:
            raise PauliError("site counts differ")
        phase = self.phase + other.phase + 2 * _parity(self.z_mask & other.x_mask)
        return PauliString(self.n, self.x_mask ^ other.x_mask,
                           self.z_mask ^ other.z_mask, phase % 4)

    def adjoint(self) -> "PauliString":
        phase = (-self.phase + 2 * _parity(self.x_mask & self.z_mask)) % 4
        return PauliString(self.n, self.x_mask, self.z_mask, phase)

    # -- conversions -------------------------------------------------------

    def to_label(self) -> str:
        letters = []
        n_y = 0
        for j in range(self.n):
            bits = ((self.x_mask >> j) & 1, (self.z_mask >> j) & 1)
            letters.append(_LETTER_OF_BITS[bits])
            n_y += bits == (1, 1)
        return _PHASE_LABELS[(self.phase - n_y) % 4] + "".join(letters)

    def matrix(self):
        """Sparse 2**n matrix (a ``master.SparseMatrix``); exactly 2**n nonzeros."""
        return PauliSum(self.n, [(1.0, self)]).matrix()

    def _columns(self):
        """(perm, phase) with self|u> = phase[u] |perm[u]> on basis states."""
        cols = np.arange(1 << self.n, dtype=np.int64)
        signs = 1.0 - 2.0 * (np.bitwise_count(cols & self.z_mask) & 1)
        return cols ^ self.x_mask, self.phase_value * signs

    def __repr__(self):
        return f"PauliString({self.to_label()!r})"


def mask_arrays(strings) -> np.ndarray:
    """(3, m) int64 array of the strings' x masks, z masks and phase exponents."""
    return np.array([(p.x_mask, p.z_mask, p.phase) for p in strings],
                    dtype=np.int64).reshape(-1, 3).T


def permute_masks(masks, perm) -> np.ndarray:
    """Integer masks with bit j moved to bit perm[j], elementwise, in one bit-gather."""
    bits = (np.asarray(masks, dtype=np.int64)[..., None] >> np.arange(len(perm))) & 1
    return (bits << np.asarray(perm, dtype=np.int64)).sum(axis=-1)


def commutes(p: PauliString, q: PauliString) -> bool:
    """True iff the symplectic form x_p.z_q + z_p.x_q is even."""
    if p.n != q.n:
        raise PauliError("site counts differ")
    return (_parity(p.x_mask & q.z_mask) ^ _parity(p.z_mask & q.x_mask)) == 0


# ---------------------------------------------------------------------------
# Real-coefficient sums of phased Pauli strings
# ---------------------------------------------------------------------------

class PauliSum:
    """Sum of (real coefficient, phased PauliString) terms.

    Canonical form keeps the string phase in {1, i} with a signed real
    coefficient, and distinct (x_mask, z_mask) keys; zero terms are dropped.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=()):
        self.n = n
        self.terms = self._canonicalize(terms)

    def _canonicalize(self, terms):
        acc: dict = {}
        for coeff, op in terms:
            if op.n != self.n:
                raise PauliError("site counts differ inside sum")
            w = coeff * op.phase_value
            acc[op.key()] = acc.get(op.key(), 0.0) + w
        out = []
        for (x, z), w in sorted(acc.items()):
            mag = abs(w)
            if mag < 1e-15:
                continue
            if abs(w.imag) <= 1e-12 * mag:
                out.append((w.real, PauliString(self.n, x, z, 0)))
            elif abs(w.real) <= 1e-12 * mag:
                out.append((w.imag, PauliString(self.n, x, z, 1)))
            else:
                raise PauliError("coefficient not real times a Pauli phase")
        return tuple(out)

    def __repr__(self):
        body = " ".join(f"{c:+g}*{op.to_label()}" for c, op in self.terms[:6])
        more = "..." if len(self.terms) > 6 else ""
        return f"PauliSum[{body}{more}]"

    def matrix(self):
        """One build over every term's entries, duplicates summed (``genperm_sum``)."""
        if self.n > MATRIX_SITE_CAP:
            raise PauliError(f"n={self.n} exceeds matrix cap {MATRIX_SITE_CAP}")
        return genperm_sum(1 << self.n, [(c, *op._columns()) for c, op in self.terms])


def genperm_sum(dim: int, terms):
    """sum_t c_t P_t for (c_t, perm_t, phase_t), P_t|u> = phase_t[u] |perm_t[u]>,
    as a ``master.SparseMatrix``: one build over all terms, duplicates summed
    in term order and exact zeros dropped.
    """
    from .master import SparseMatrix  # master imports this module

    rows = np.array([perm for _, perm, _ in terms], dtype=np.int64).reshape(-1)
    vals = np.array([c * phase for c, _, phase in terms], dtype=complex).reshape(-1)
    cols = np.tile(np.arange(dim), len(terms))
    return SparseMatrix.from_entries((dim, dim), rows, cols, vals)


# ---------------------------------------------------------------------------
# GF(2) linear algebra on bit-mask rows
# ---------------------------------------------------------------------------

def gf2_reduce(rows) -> dict:
    """Reduced echelon form of the rows as {pivot bit: row}: each row's pivot
    is its highest bit, and no other row has that bit set."""
    pivots: dict = {}
    for row in map(int, rows):
        for pbit, prow in pivots.items():
            if (row >> pbit) & 1:
                row ^= prow
        if row:
            pbit = row.bit_length() - 1
            for b, prow in pivots.items():
                if (prow >> pbit) & 1:
                    pivots[b] = prow ^ row
            pivots[pbit] = row
    return pivots


def gf2_rank(rows) -> int:
    return len(gf2_reduce(rows))


def _checked_rows(rows, nvars: int) -> list:
    rows = [int(row) for row in rows]
    for i, row in enumerate(rows):
        if row >> nvars:
            raise ValueError(f"row {i} ({row:#b}) has a bit at or above nvars={nvars}")
    return rows


def gf2_independent(rows) -> list:
    """Indices of the rows independent of the rows before them.

    Row i carries tag bit i below its mask bits, so a row that depends on the
    rows before it reduces to tag bits alone and ends with its own as pivot.
    """
    m = len(rows)
    dependent = gf2_reduce((int(row) << m) | (1 << i) for i, row in enumerate(rows))
    return [i for i in range(m) if i not in dependent]


def gf2_solve_many(rows, rhs, nvars: int) -> list:
    """Solve parity(rows[i] & x) == bit i of b for an nvars-bit x, for each b
    in ``rhs``, with one elimination.

    Each solution is the one whose free (non-pivot) bits are all 0, or None
    if that system is inconsistent.
    """
    rows = _checked_rows(rows, nvars)
    m = len(rows)
    # row i carries tag bit i below its mask bits, so each pivot row's tag lists
    # the rows it sums; one with no mask bits left is a dependency, whose rhs bits must cancel
    pivots = gf2_reduce((row << m) | (1 << i) for i, row in enumerate(rows))
    dependencies = [prow for pbit, prow in pivots.items() if pbit < m]
    solved = [(pbit - m, prow & ((1 << m) - 1)) for pbit, prow in pivots.items() if pbit >= m]
    return [None if any(_parity(d & b) for d in dependencies)
            else sum(_parity(tag & b) << bit for bit, tag in solved)
            for b in map(int, rhs)]


def gf2_solve(rows, rhs, nvars: int):
    """Solve parity(rows[i] & x) == rhs[i] for an nvars-bit x.

    Returns the solution mask whose free bits are all 0, or None if the
    system is inconsistent.
    """
    return gf2_solve_many(rows, [sum(int(b) << i for i, b in enumerate(rhs))], nvars)[0]


def gf2_nullspace(rows, nvars: int) -> list:
    """Basis of {x : parity(row & x) == 0 for every row} over nvars bits.

    Each free bit of the reduced echelon form gives one basis vector, itself
    plus the pivot bits of the rows that contain it.
    """
    pivots = gf2_reduce(_checked_rows(rows, nvars))
    return [(1 << free) | sum(1 << pbit for pbit, prow in pivots.items()
                              if (prow >> free) & 1)
            for free in range(nvars) if free not in pivots]


def gf2_span(units) -> np.ndarray:
    """table[p], the XOR of units[j] over the set bits j of p, for every
    p < 2^len(units)."""
    table = np.zeros(1 << len(units), dtype=np.int64)
    for j, unit in enumerate(units):
        table[1 << j: 2 << j] = table[:1 << j] ^ unit
    return table


def parity_bits(values: np.ndarray, masks) -> np.ndarray:
    """sum_i parity(values & masks[i]) << i, elementwise."""
    out = np.zeros_like(values)
    for i, mask in enumerate(masks):
        out |= (np.bitwise_count(values & mask) & 1).astype(values.dtype) << i
    return out


def anticommutation_bits(x_mask, z_mask, targets) -> np.ndarray:
    """Bit b set where X(x_mask) Z(z_mask) anticommutes with the string
    targets[b], elementwise over integer arrays (object arrays of Python ints
    take masks of 64 sites or more)."""
    return (parity_bits(np.asarray(x_mask), [t.z_mask for t in targets])
            ^ parity_bits(np.asarray(z_mask), [t.x_mask for t in targets]))


# ---------------------------------------------------------------------------
# Commutant of a generating set
# ---------------------------------------------------------------------------

def commutant_dimension(generators, hamiltonian) -> int:
    """Count Pauli strings commuting with every generator and H term.

    ``hamiltonian`` is a PauliSum whose terms must mutually commute; distinct
    Pauli strings are linearly independent, so the count *is* the dimension of
    the commutant algebra spanned by them: 2^(2n - rank) of the GF(2)
    symplectic rows.
    """
    if isinstance(hamiltonian, PauliSum):
        h_ops = [op for _, op in hamiltonian.terms]
    else:
        h_ops = list(hamiltonian)
    masks = np.array([op.key() for op in h_ops], dtype=object).reshape(-1, 2).T
    if anticommutation_bits(*masks, h_ops).any():
        raise PauliError("Hamiltonian terms do not mutually commute")
    ops = list(generators) + h_ops
    if not ops:
        raise PauliError("no generators")
    n = ops[0].n
    if any(op.n != n for op in ops):
        raise PauliError("site counts differ")
    rows = [(op.x_mask << n) | op.z_mask for op in ops]
    return 1 << (2 * n - gf2_rank(rows))


# ---------------------------------------------------------------------------
# Coordinate-format text export of sparse matrices
# ---------------------------------------------------------------------------

def write_coo_text(matrix, path) -> None:
    """Dump a sparse matrix, anything with ``tocoo()``, as 'dim nnz' header
    plus 'row col re im' lines."""
    m = matrix.tocoo()
    with open(path, "w") as fh:
        fh.write(f"{m.shape[0]} {m.nnz}\n")
        for r, c, v in zip(m.row, m.col, m.data):
            fh.write(f"{r} {c} {v.real:.17g} {v.imag:.17g}\n")
