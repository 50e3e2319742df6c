"""Thermal generator assembly for commuting-Pauli models.

Couplings are Fourier-decomposed algebraically: a single-Pauli coupling S
either commutes or anticommutes with each stabilizer, so its component at
transition frequency w is S times a spectral projector of the stabilizers it
anticommutes with.  The dissipator is assembled in the stabilizer eigenbasis
as a sum of jump terms with thermal rates

    rate(w) = 2 / (1 + exp(-beta*w)),

which at w in {0, +-4J} reproduces the constants h0 = 1, h+ = 2/(gamma^2+1),
h- = 2*gamma^2/(gamma^2+1) with gamma = exp(-2*beta*J).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .basis import StabilizerFrame, build_frame
from .models import ModelSpec
from .pauli import PauliString, PauliSum, commutes


class GeneratorError(ValueError):
    pass


@dataclass(frozen=True)
class ThermalParams:
    """Inverse temperature and coupling scale with the derived rate constants."""

    beta: float
    coupling: float = 1.0

    def __post_init__(self):
        if self.beta < 0 or self.coupling <= 0:
            raise GeneratorError("need beta >= 0 and positive coupling")

    @property
    def gamma(self) -> float:
        return math.exp(-2.0 * self.beta * self.coupling)

    @property
    def h_plus(self) -> float:
        return 2.0 / (self.gamma ** 2 + 1.0)

    @property
    def h_minus(self) -> float:
        return 2.0 * self.gamma ** 2 / (self.gamma ** 2 + 1.0)

    @property
    def h_zero(self) -> float:
        return 1.0

    def rate(self, omega: float) -> float:
        """Jump rate at transition frequency omega; satisfies the
        balance relation rate(-w) = exp(-beta*w) * rate(w)."""
        return 2.0 / (1.0 + math.exp(-self.beta * omega))

    @classmethod
    def from_betaJ(cls, betaJ: float, coupling: float = 1.0) -> "ThermalParams":
        return cls(beta=betaJ / coupling, coupling=coupling)


# ---------------------------------------------------------------------------
# Fourier decomposition of coupling operators
# ---------------------------------------------------------------------------

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
    joint eigenvalue pattern eps, multiplied (from the left) into the
    coupling.  Grouping of nearby frequencies only matters for generic
    per-term coefficients.
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


# ---------------------------------------------------------------------------
# Superoperator representation
# ---------------------------------------------------------------------------

@dataclass
class JumpComponent:
    coupling_index: int
    coupling: PauliString
    omega: float
    rate: float
    op: PauliSum
    matrix: sp.csr_matrix  # in the stabilizer eigenbasis


@dataclass
class SuperOperatorRep:
    """An operator on the 4^n-dimensional operator space.

    space 'liouville': -L, held as its jump components (``matrix`` is None);
    ``liouville_matrix`` materializes it in the matrix-unit basis over the
    stabilizer eigenbasis, where it is self-adjoint for the beta-weighted
    inner product carried by `rho` (not entrywise Hermitian).  space
    'hilbert-schmidt': the matrix is Hermitian positive semidefinite.
    """

    matrix: object             # scipy sparse, ndarray, or None (liouville)
    space: str                 # 'liouville' | 'hilbert-schmidt'
    beta: float
    frame: StabilizerFrame | None = None
    rho: np.ndarray | None = None
    components: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def dense(self) -> np.ndarray:
        m = self.matrix
        if m is None:
            raise GeneratorError("no matrix held; liouville_matrix(rep) builds -L")
        return m.toarray() if sp.issparse(m) else np.asarray(m)

    def gram_diag(self) -> np.ndarray:
        """Diagonal of the beta inner product over matrix units (column-major)."""
        if self.rho is None:
            raise GeneratorError("no Gibbs weights attached")
        return np.repeat(self.rho, self.frame.dim)

    def delta_diagonal(self) -> np.ndarray:
        """Eigenvalues E_u - E_v of the Hamiltonian derivation, column-major."""
        e = self.frame.energies
        d = self.frame.dim
        return np.tile(e, d) - np.repeat(e, d)


def default_couplings(model: ModelSpec, letters: str = None) -> list:
    """Single-site couplings per model: xyz for the ring, xz for the torus."""
    if letters is None:
        letters = "xyz" if model.kind == "ising" else "xz"
    out = []
    for kind in letters:
        out.extend(PauliString.single(model.n_sites, j, kind)
                   for j in range(model.n_sites))
    return out


def build_generator(model: ModelSpec, couplings=None, tp: ThermalParams = None,
                    frame: StabilizerFrame = None, rates: dict = None,
                    freq_tol: float = None) -> SuperOperatorRep:
    """Minus the dissipative generator as its jump components.

    Each frequency component contributes a jump term
    rate * (A^dag X A - {A^dag A, X}/2); an optional `rates` table keyed by
    (coupling_index, omega) overrides the thermal defaults.  The full
    Liouville matrix is left to ``liouville_matrix``.
    """
    if tp is None:
        tp = ThermalParams(beta=0.0, coupling=model.coupling)
    if couplings is None:
        couplings = default_couplings(model)
    if frame is None:
        frame = build_frame(model)

    comps = []
    for alpha, coupling in enumerate(couplings):
        jset = fourier_decompose(coupling, model, freq_tol=freq_tol)
        for omega, op in jset.components:
            rate = tp.rate(omega)
            if rates is not None:
                rate = rates.get((alpha, omega), rate)
            if rate < 0:
                raise GeneratorError("rates must be nonnegative")
            comps.append(JumpComponent(coupling_index=alpha, coupling=coupling,
                                       omega=omega, rate=rate, op=op,
                                       matrix=frame.matrix_of(op)))

    return SuperOperatorRep(
        matrix=None, space="liouville", beta=tp.beta, frame=frame,
        rho=frame.gibbs(tp.beta), components=comps,
        meta={"couplings": [c.to_label() for c in couplings],
              "thermal": thermal_provenance(tp)})


def liouville_matrix(rep: SuperOperatorRep) -> sp.csr_matrix:
    """-L as a sparse 4^n x 4^n matrix on column-major vectorized operators."""
    if rep.space != "liouville":
        raise GeneratorError("liouville_matrix expects a Liouville-space generator")
    dim = rep.frame.dim
    ident = sp.identity(dim, format="csr", dtype=complex)
    neg_l = sp.csr_matrix((dim * dim, dim * dim), dtype=complex)
    for comp in rep.components:
        a = comp.matrix
        ad = a.conj().T.tocsr()
        ada = (ad @ a).tocsr()
        # column-major vec:  vec(PXQ) = (Q^T kron P) vec(X)
        dissip = sp.kron(a.T, ad, format="csr") \
            - 0.5 * (sp.kron(ident, ada, format="csr")
                     + sp.kron(ada.T, ident, format="csr"))
        neg_l = neg_l - comp.rate * dissip
    return neg_l.tocsr()


def thermal_provenance(tp: ThermalParams) -> dict:
    return {"beta": tp.beta, "coupling": tp.coupling, "gamma": tp.gamma,
            "h_plus": tp.h_plus, "h_minus": tp.h_minus, "h_zero": tp.h_zero,
            "basis": "matrix units over the stabilizer eigenbasis, column-major"}


# ---------------------------------------------------------------------------
# Structural residuals
# ---------------------------------------------------------------------------

def _random_operators(dim, count, rng):
    for _ in range(count):
        yield rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def _beta_inner(rho, x, y) -> complex:
    # <X, Y>_beta = tr(rho X^dag Y) with rho diagonal
    return np.sum(x.conj() * y * rho[None, :])


def _masked_permutation(matrix) -> tuple:
    """(d, s) with matrix |u> = s_u |u ^ d>; raises unless that is its shape."""
    m = sp.csc_matrix(matrix)
    m.eliminate_zeros()
    counts = np.diff(m.indptr)
    if counts.max(initial=0) > 1:
        raise GeneratorError("jump component has a column with more than one "
                             "nonzero; it is not a masked generalized permutation")
    cols = np.repeat(np.arange(m.shape[1]), counts)
    flips = np.unique(m.indices ^ cols)
    if flips.size > 1:
        raise GeneratorError(f"jump component flips {flips.size} different "
                             "patterns; expected one")
    s = np.zeros(m.shape[1], dtype=complex)
    s[cols] = m.data
    return (int(flips[0]) if flips.size else 0), s


def _generator_action(components):
    """X -> sum_c rate_c (A_c^dag X A_c - {A_c^dag A_c, X}/2), i.e. L(X).

    A component is a masked permutation A|u> = s_u |u ^ d>, so
    (A^dag X A)[u, v] = conj(s_u) X[u^d, v^d] s_v and A^dag A is the diagonal
    |s|^2.  The components sharing a flip pattern d therefore add up to one
    elementwise product W_d o X[u^d, v^d], W_d = sum_c rate_c conj(s_c) s_c^T,
    and the anticommutator, elementwise as well, joins W_0.
    """
    weights, decay = {}, 0.0
    for c in components:
        d, s = _masked_permutation(c.matrix)
        weights[d] = weights.get(d, 0.0) + c.rate * np.outer(s.conj(), s)
        decay = decay + c.rate * np.abs(s) ** 2
    unmoved = weights.pop(0, 0.0) - 0.5 * np.add.outer(decay, decay)

    def apply(x):
        out = np.multiply(unmoved, x, dtype=complex)
        # flat position of (u ^ d, v ^ d) is (u * dim + v) ^ (d * (dim + 1))
        flat = np.arange(x.size).reshape(x.shape)
        for d, w in weights.items():
            out += w * np.take(x, flat ^ (d * (x.shape[0] + 1)))
        return out

    return apply


def detailed_balance_residual(rep: SuperOperatorRep, samples: int = 50,
                              seed: int = 0) -> float:
    """max |<Y, L X> - <L Y, X>|_beta over random normalized pairs."""
    if rep.space != "liouville":
        raise GeneratorError("detailed balance is checked in Liouville space")
    rng = np.random.default_rng(seed)
    rho = rep.rho
    d = rep.frame.dim
    apply = _generator_action(rep.components)
    worst = 0.0
    for _ in range(samples):
        x = next(_random_operators(d, 1, rng))
        y = next(_random_operators(d, 1, rng))
        x /= math.sqrt(abs(_beta_inner(rho, x, x)))
        y /= math.sqrt(abs(_beta_inner(rho, y, y)))
        lx = apply(x)
        ly = apply(y)
        worst = max(worst, abs(_beta_inner(rho, y, lx) - _beta_inner(rho, ly, x)))
    return worst


def stationarity_residual(rep: SuperOperatorRep, samples: int = 50,
                          seed: int = 0) -> float:
    """max |tr(rho L(X))| over random normalized X; zero for a Gibbs state."""
    rng = np.random.default_rng(seed)
    rho = rep.rho
    d = rep.frame.dim
    apply = _generator_action(rep.components)
    worst = 0.0
    for x in _random_operators(d, samples, rng):
        x /= math.sqrt(abs(_beta_inner(rho, x, x)))
        lx = apply(x)
        worst = max(worst, abs(np.sum(rho * np.diagonal(lx))))
    return worst


def _component_pairs(rep: SuperOperatorRep, coupling_index: int, omega=None,
                     tol: float = 1e-9):
    """Components of one coupling grouped as (w >= 0, matching -w partner)."""
    comps = [c for c in rep.components if c.coupling_index == coupling_index]
    if not comps:
        raise GeneratorError(f"no components for coupling {coupling_index}")
    pairs = []
    for c in comps:
        if c.omega < -tol:
            continue
        if omega is not None and abs(c.omega - omega) > tol:
            continue
        partner = None
        if c.omega > tol:
            partner = next((o for o in comps if abs(o.omega + c.omega) <= tol), None)
            if partner is None:
                raise GeneratorError("missing negative-frequency partner")
        pairs.append((c, partner))
    if omega is not None and not pairs:
        raise GeneratorError(f"no component at frequency {omega}")
    return pairs


def apply_component(rep: SuperOperatorRep, coupling_index: int, x: np.ndarray,
                    omega=None) -> np.ndarray:
    """L_{alpha w}(X) for one positive frequency (or the whole coupling)."""
    comps = [c for pair in _component_pairs(rep, coupling_index, omega)
             for c in pair if c is not None]
    return _generator_action(comps)(x)


def dissipativity_identity_check(rep: SuperOperatorRep, coupling_index: int,
                                 omega=None, samples: int = 20,
                                 seed: int = 0) -> float:
    """Residual of the commutator form of -<X, L_{alpha w} X>_beta.

    For each positive frequency the quadratic form must equal
    g * ( <[S,X],[S,X]> + exp(-beta*w) <[S^dag,X],[S^dag,X]> )_beta
    with g = rate(w)/2 (rate(0)/4 at w = 0, where both terms coincide).
    """
    rng = np.random.default_rng(seed)
    rho = rep.rho
    d = rep.frame.dim
    pairs = _component_pairs(rep, coupling_index, omega)
    apply = _generator_action([c for pair in pairs for c in pair if c is not None])
    terms = []
    for c, _ in pairs:
        s = c.matrix.toarray()
        g = c.rate / (2.0 if c.omega > 1e-12 else 4.0)
        terms.append((s, s.conj().T, g, g * math.exp(-rep.beta * c.omega)))
    worst = 0.0
    for x in _random_operators(d, samples, rng):
        x /= math.sqrt(abs(_beta_inner(rho, x, x)))
        lhs = -_beta_inner(rho, x, apply(x))
        rhs = 0.0
        for s, sd, g, g_d in terms:
            com = s @ x - x @ s
            rhs += g * _beta_inner(rho, com, com)
            com_d = sd @ x - x @ sd
            rhs += g_d * _beta_inner(rho, com_d, com_d)
        worst = max(worst, abs(lhs - rhs))
    return worst


def reconstruction_residual(rep: SuperOperatorRep, coupling_index: int,
                            times=(0.1, 0.7, 1.3)) -> float:
    """max_t || e^{itH} S e^{-itH} - sum_w e^{-iwt} S(w) || (spectral norm)."""
    frame = rep.frame
    comps = [c for c in rep.components if c.coupling_index == coupling_index]
    if not comps:
        raise GeneratorError(f"no components for coupling {coupling_index}")
    s_full = frame.matrix_of(comps[0].coupling).toarray()
    energies = frame.energies
    scale = 1.0 / rep.frame.model.coupling
    worst = 0.0
    for t in times:
        t = t * scale
        phases = np.exp(1j * t * energies)
        evolved = phases[:, None] * s_full * phases.conj()[None, :]
        recon = np.zeros_like(evolved)
        for c in comps:
            recon += np.exp(-1j * c.omega * t) * c.matrix.toarray()
        worst = max(worst, np.linalg.norm(evolved - recon, 2))
    return worst
