"""Commuting-Pauli stabilizer models: Ising ring and toric code.

Builds the stabilizer terms, global constraints, logical operator pairs and,
for the torus, the snake/comb site partition whose flip-generation properties
are asserted by rank checks rather than by geometry.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .pauli import (PauliString, PauliSum, anticommutation_bits, commutes, gf2_independent,
                    gf2_rank)


class ModelError(ValueError):
    pass


def _check_positive(values, what: str) -> None:
    """ModelError naming the first of ``values`` that is not finite and positive."""
    bad = [c for c in values if not 0 < c < math.inf]
    if bad:
        raise ModelError(f"{what} must be finite and positive, got {bad[0]!r}")


@dataclass
class SnakeCombPartition:
    """Disjoint split of torus sites into snake, comb and two qubit sites.

    sigma_x on the snake generates every plaquette flip; sigma_z on the comb
    generates every star flip.  The snake is ordered along its path.
    """

    snake: list
    comb: list
    qubit1: int
    qubit2: int

    def all_sites(self):
        return set(self.snake) | set(self.comb) | {self.qubit1, self.qubit2}


@dataclass
class ModelSpec:
    """A commuting-Pauli Hamiltonian H = -sum_b J_b S_b with its metadata."""

    kind: str
    n_sites: int
    coupling: float
    stabilizers: list
    coefficients: list
    stabilizer_names: list
    constraints: list            # index lists whose stabilizer product is identity
    logicals: list               # [(X-type, Z-type), ...] PauliString pairs
    partition: SnakeCombPartition | None = None
    geometry: dict = field(default_factory=dict)

    @property
    def n_stabilizers(self) -> int:
        return len(self.stabilizers)

    @property
    def n_logical(self) -> int:
        return len(self.logicals)

    def hamiltonian(self) -> PauliSum:
        return PauliSum(self.n_sites,
                        [(-c, s) for c, s in zip(self.coefficients, self.stabilizers)])

    def independent_stabilizers(self) -> list:
        """Indices of a maximal independent subset, greedy in list order."""
        n = self.n_sites
        return gf2_independent([(s.x_mask << n) | s.z_mask for s in self.stabilizers])

    def to_json_dict(self) -> dict:
        d = {
            "kind": self.kind,
            "n_sites": self.n_sites,
            "coupling": self.coupling,
            "stabilizers": [s.to_label() for s in self.stabilizers],
            "stabilizer_names": list(self.stabilizer_names),
            "coefficients": list(self.coefficients),
            "constraints": [list(c) for c in self.constraints],
            "logicals": [[x.to_label(), z.to_label()] for x, z in self.logicals],
            "geometry": self.geometry,
        }
        if self.partition is not None:
            d["partition"] = {
                "snake": list(self.partition.snake),
                "comb": list(self.partition.comb),
                "qubit1": self.partition.qubit1,
                "qubit2": self.partition.qubit2,
            }
        return d

    def export_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")


# ---------------------------------------------------------------------------
# Ising ring
# ---------------------------------------------------------------------------

def build_ising_ring(n: int, coupling: float = 1.0, coefficients=None) -> ModelSpec:
    """Ring of n spins with bond terms sigma_z_j sigma_z_{j+1}, cyclic."""
    if n < 3:
        raise ModelError("ring needs at least 3 sites")
    _check_positive([coupling], "coupling")
    if coefficients is None:
        coefficients = [coupling] * n
    elif len(coefficients) != n:
        raise ModelError("need one positive coefficient per bond")
    _check_positive(coefficients, "bond coefficients")
    bonds = [PauliString.from_sites(n, "Z", (j, (j + 1) % n)) for j in range(n)]
    names = [f"bond[{j},{(j + 1) % n}]" for j in range(n)]
    logical_x = PauliString.from_sites(n, "X", range(n))
    logical_z = PauliString.single(n, 0, "Z")
    return ModelSpec(
        kind="ising",
        n_sites=n,
        coupling=coupling,
        stabilizers=bonds,
        coefficients=list(coefficients),
        stabilizer_names=names,
        constraints=[list(range(n))],
        logicals=[(logical_x, logical_z)],
    )


# ---------------------------------------------------------------------------
# Toric code on an L x L torus
# ---------------------------------------------------------------------------

HORIZONTAL, VERTICAL = 0, 1


def torus_site(L: int, r: int, c: int, o: int) -> int:
    """Spin (row, column, orientation) linearized as 2*(r*L + c) + o."""
    return 2 * ((r % L) * L + (c % L)) + o


def _star_sites(L, r, c):
    return [torus_site(L, r, c, HORIZONTAL), torus_site(L, r, c - 1, HORIZONTAL),
            torus_site(L, r, c, VERTICAL), torus_site(L, r - 1, c, VERTICAL)]


def _plaquette_sites(L, r, c):
    return [torus_site(L, r, c, HORIZONTAL), torus_site(L, r + 1, c, HORIZONTAL),
            torus_site(L, r, c, VERTICAL), torus_site(L, r, c + 1, VERTICAL)]


def _snake_sites(L):
    """Serpentine dual path visiting every plaquette; returns crossed sites."""
    sites = []
    for r in range(L):
        if r % 2 == 0:
            sites.extend(torus_site(L, r, c, VERTICAL) for c in range(1, L))
            if r + 1 < L:
                sites.append(torus_site(L, r + 1, L - 1, HORIZONTAL))
        else:
            sites.extend(torus_site(L, r, c, VERTICAL) for c in range(L - 1, 0, -1))
            if r + 1 < L:
                sites.append(torus_site(L, r + 1, 0, HORIZONTAL))
    return sites


def build_toric_code(L: int, coupling: float = 1.0,
                     star_coefficients=None, plaquette_coefficients=None) -> ModelSpec:
    """L x L torus with 2L^2 spins on edges, star and plaquette stabilizers."""
    if L < 2:
        raise ModelError("torus needs L >= 2")
    _check_positive([coupling], "coupling")
    n = 2 * L * L
    default = [coupling] * (L * L)
    star_coefficients = list(default if star_coefficients is None else star_coefficients)
    plaquette_coefficients = list(default if plaquette_coefficients is None
                                  else plaquette_coefficients)
    if len(star_coefficients) != L * L or len(plaquette_coefficients) != L * L:
        raise ModelError("need one coefficient per star and per plaquette")
    _check_positive(star_coefficients + plaquette_coefficients, "coefficients")

    stars, plaqs, star_names, plaq_names = [], [], [], []
    for r in range(L):
        for c in range(L):
            stars.append(PauliString.from_sites(n, "X", _star_sites(L, r, c)))
            star_names.append(f"star[{r},{c}]")
            plaqs.append(PauliString.from_sites(n, "Z", _plaquette_sites(L, r, c)))
            plaq_names.append(f"plaquette[{r},{c}]")

    # homologically nontrivial loops; logical_x1 runs along the snake row
    x1_sites = [torus_site(L, 0, c, VERTICAL) for c in range(L)]
    z1_sites = [torus_site(L, r, 0, VERTICAL) for r in range(L)]
    x2_sites = [torus_site(L, r, 0, HORIZONTAL) for r in range(L)]
    z2_sites = [torus_site(L, 0, c, HORIZONTAL) for c in range(L)]
    logicals = [
        (PauliString.from_sites(n, "X", x1_sites), PauliString.from_sites(n, "Z", z1_sites)),
        (PauliString.from_sites(n, "X", x2_sites), PauliString.from_sites(n, "Z", z2_sites)),
    ]

    snake = _snake_sites(L)
    qubit1 = torus_site(L, 0, 0, VERTICAL)
    qubit2 = torus_site(L, 0, 0, HORIZONTAL)
    used = set(snake) | {qubit1, qubit2}
    if len(used) != len(snake) + 2:
        raise ModelError("snake construction overlaps the qubit sites")
    comb = sorted(set(range(n)) - used)
    partition = SnakeCombPartition(snake=snake, comb=comb, qubit1=qubit1, qubit2=qubit2)

    geometry = {
        "L": L,
        "site_order": "2*(r*L + c) + o, o=0 horizontal / o=1 vertical",
        "loops": {"x1": x1_sites, "z1": z1_sites, "x2": x2_sites, "z2": z2_sites},
    }
    return ModelSpec(
        kind="toric",
        n_sites=n,
        coupling=coupling,
        stabilizers=stars + plaqs,
        coefficients=star_coefficients + plaquette_coefficients,
        stabilizer_names=star_names + plaq_names,
        constraints=[list(range(L * L)), list(range(L * L, 2 * L * L))],
        logicals=logicals,
        partition=partition,
        geometry=geometry,
    )


# ---------------------------------------------------------------------------
# Lattice symmetries
# ---------------------------------------------------------------------------

def lattice_symmetries(model: ModelSpec) -> list:
    """Generating site permutations of the model's lattice; perm[j] is the
    site that site j moves to.

    Ring: the rotation j -> j+1 and the reflection j -> -j (mod N).  Torus:
    the two unit translations, the 90-degree rotation H(r,c) -> V(c,-r),
    V(r,c) -> H(c,-r-1) and the reflection H(r,c) <-> V(c,r).  Whether one is
    a symmetry of a given Hamiltonian and coupling set is for the caller to
    check (``master.block_orbits``); other model kinds have none.
    """
    n = model.n_sites
    if model.kind == "ising":
        j = np.arange(n)
        return [(j + 1) % n, (-j) % n]
    if model.kind != "toric":
        return []
    L = model.geometry["L"]

    def perm(move):
        out = np.empty(n, dtype=np.int64)
        for r in range(L):
            for c in range(L):
                for o in (HORIZONTAL, VERTICAL):
                    out[torus_site(L, r, c, o)] = torus_site(L, *move(r, c, o))
        return out

    return [perm(lambda r, c, o: (r + 1, c, o)),
            perm(lambda r, c, o: (r, c + 1, o)),
            perm(lambda r, c, o: (c, -r, VERTICAL) if o == HORIZONTAL
                 else (c, -r - 1, HORIZONTAL)),
            perm(lambda r, c, o: (c, r, 1 - o))]


# ---------------------------------------------------------------------------
# Model verification
# ---------------------------------------------------------------------------

@dataclass
class ModelReport:
    ok: bool
    checks: list  # (name, passed, detail)

    def __str__(self):
        lines = [f"{'PASS' if p else 'FAIL'}  {name}: {detail}"
                 for name, p, detail in self.checks]
        return "\n".join(lines)


def _flip_rank(paulis, flip_targets) -> int:
    """GF(2) rank of anticommutation patterns of `paulis` against targets."""
    x, z = np.array([p.key() for p in paulis], dtype=object).reshape(-1, 2).T
    return gf2_rank(anticommutation_bits(x, z, flip_targets).tolist())


def verify_model(m: ModelSpec) -> ModelReport:
    """Check every structural invariant of a model, reporting violations.

    Includes the counting identity 2^n = degeneracy * 2^(independent
    stabilizers) and, for the torus, the snake/comb flip-rank conditions.
    Ground-space data is cross-checked by dense diagonalization when
    n_sites <= 10.
    """
    checks = []

    def record(name, passed, detail=""):
        checks.append((name, bool(passed), detail))

    bad = [(m.stabilizer_names[i], m.stabilizer_names[j])
           for i in range(m.n_stabilizers) for j in range(i + 1, m.n_stabilizers)
           if not commutes(m.stabilizers[i], m.stabilizers[j])]
    record("stabilizers commute", not bad, f"violations: {bad[:3]}" if bad else "all pairs")

    for k, idxs in enumerate(m.constraints):
        prod = PauliString.identity(m.n_sites)
        for i in idxs:
            prod = prod * m.stabilizers[i]
        record(f"constraint {k} product is +identity", prod.is_identity(),
               prod.to_label() if not prod.is_identity() else "")

    for i, (lx, lz) in enumerate(m.logicals):
        record(f"logical pair {i} anticommutes", not commutes(lx, lz), "")
        outside = [m.stabilizer_names[j] for j in range(m.n_stabilizers)
                   if not (commutes(lx, m.stabilizers[j]) and commutes(lz, m.stabilizers[j]))]
        record(f"logical pair {i} commutes with stabilizers", not outside,
               f"violations: {outside[:3]}" if outside else "")
        record(f"logical pair {i} squares to identity",
               (lx * lx).is_identity() and (lz * lz).is_identity(), "")
        for j, (ox, oz) in enumerate(m.logicals):
            if j != i:
                good = all(commutes(a, b) for a in (lx, lz) for b in (ox, oz))
                record(f"logical pairs {i},{j} commute", good, "")

    n_indep = len(m.independent_stabilizers())
    degeneracy = 1 << m.n_logical
    record("dimension count 2^n = degeneracy * 2^indep",
           m.n_sites == n_indep + m.n_logical,
           f"n={m.n_sites}, indep={n_indep}, degeneracy={degeneracy}")

    if m.partition is not None:
        L = m.geometry["L"]
        part = m.partition
        record("partition covers all sites disjointly",
               part.all_sites() == set(range(m.n_sites))
               and len(part.snake) + len(part.comb) + 2 == m.n_sites,
               f"snake={len(part.snake)}, comb={len(part.comb)}")
        plaquettes = m.stabilizers[L * L:]
        stars = m.stabilizers[:L * L]
        snake_x = [PauliString.single(m.n_sites, j, "X") for j in part.snake]
        comb_z = [PauliString.single(m.n_sites, j, "Z") for j in part.comb]
        for name, ops, targets in (("snake sigma_x spans plaquette flips", snake_x, plaquettes),
                                   ("comb sigma_z spans star flips", comb_z, stars)):
            rank = _flip_rank(ops, targets)
            record(name, rank == L * L - 1, f"rank={rank}, want {L * L - 1}")

    if m.n_sites <= 10:
        h = m.hamiltonian().matrix().toarray()
        evals = np.linalg.eigvalsh(h)
        e0 = evals[0]
        g = int(np.sum(evals < e0 + 1e-9))
        expect_e0 = -sum(m.coefficients)
        record("ground energy equals -sum of coefficients",
               abs(e0 - expect_e0) < 1e-9, f"E0={e0:.12g}")
        record("ground degeneracy equals 2^logical",
               g == degeneracy, f"found {g}")
        for i, (lx, lz) in enumerate(m.logicals):
            hx = h @ lx.matrix().toarray()
            xh = lx.matrix().toarray() @ h
            record(f"logical X{i} commutes with H (matrix level)",
                   np.abs(hx - xh).max() < 1e-9, "")

    ok = all(p for _, p, _ in checks)
    return ModelReport(ok=ok, checks=checks)
