"""Thermal generator assembly for commuting-Pauli models.

A single-Pauli coupling S either commutes or anticommutes with each
stabilizer, so its component at transition frequency w is S times a spectral
projector of the stabilizers it anticommutes with.  Both factors are read
from the stabilizer frame's labels: S is one generalized permutation
S|u> = c_u |u ^ d>, and the projector keeps the states whose image carries a
sign pattern of frequency w on those stabilizers.  Each jump component is
therefore a masked generalized permutation, held as its flip pattern d and
its weights.  The dissipator is a sum of jump terms with thermal rates

    rate(w) = 2 / (1 + exp(-beta*w)),

which at w in {0, +-4J} reproduces the constants h0 = 1, h+ = 2/(gamma^2+1),
h- = 2*gamma^2/(gamma^2+1) with gamma = exp(-2*beta*J).  The components of
one flip pattern add up to one weight (``_flip_weights``), from which the
residual checks apply L and ``liouville_matrix`` writes -L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .basis import StabilizerFrame, build_frame
from .models import ModelSpec
from .pauli import PauliString, anticommutation_bits, mask_arrays


class GeneratorError(ValueError):
    pass


@dataclass(frozen=True)
class ThermalParams:
    """Inverse temperature and coupling scale with the derived rate constants."""

    beta: float
    coupling: float = 1.0

    def __post_init__(self):
        if not (0 <= self.beta < math.inf and 0 < self.coupling < math.inf):
            raise GeneratorError(f"need finite beta >= 0 and coupling > 0, "
                                 f"got beta={self.beta!r}, coupling={self.coupling!r}")

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
# Superoperator representation
# ---------------------------------------------------------------------------

@dataclass
class JumpComponent:
    """The jump operator S_alpha(w) in the stabilizer eigenbasis.

    A masked generalized permutation: S_alpha(w)|u> = weights[u] |u ^ flip>,
    with weights[u] the coupling's phase where the image state's stabilizer
    signs give frequency w, and 0 elsewhere.
    """

    coupling_index: int
    coupling: PauliString
    omega: float
    rate: float
    flip: int
    weights: np.ndarray


@dataclass
class SuperOperatorRep:
    """An operator on the 4^n-dimensional operator space.

    space 'liouville': -L, held as its jump components (``matrix`` is None);
    ``liouville_matrix`` materializes it, as a ``master.SparseMatrix``, in
    the matrix-unit basis over the stabilizer eigenbasis, where it is
    self-adjoint for the beta-weighted inner product carried by `rho` (not
    entrywise Hermitian).  space 'hilbert-schmidt': the matrix is Hermitian
    positive semidefinite, a dense array or a ``master.SparseMatrix``; any
    object with ``toarray()`` and ``tocoo()`` reads the same (``dense``,
    ``spectral.gap``).
    """

    matrix: object             # ndarray, SparseMatrix or alike, or None (liouville)
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
        return m.toarray() if hasattr(m, "toarray") else np.asarray(m)


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

    One stacked ``genperm_of`` gives every coupling as S|u> = c_u |u ^ d>.
    With T the stabilizers S anticommutes with (mask parities), the component
    at omega = 2 * sum_{b in T} J_b * eps_b is S followed by the projector
    onto the sign pattern eps on T: its weights are c_u where the image u ^ d
    has a pattern of that frequency, else 0.  A pattern within ``freq_tol``
    (default 1e-9 * J) of an earlier pattern's frequency joins it.  Each
    component, per coupling in increasing omega, adds the jump term
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
    if freq_tol is None:
        freq_tol = 1e-9 * model.coupling
    if not couplings:
        raise GeneratorError(f"need at least one coupling, got {couplings!r}")
    if any(c.n != model.n_sites for c in couplings):
        raise GeneratorError("coupling acts outside the model register")

    cx, cz, cphase = mask_arrays(couplings)
    perm, phase = frame.genperm_of(cx, cz, cphase)
    u = np.arange(frame.dim)
    d = perm[:, 0]
    moved = np.count_nonzero(perm != u ^ d[:, None], axis=1)
    if moved.any():
        alpha = int(np.argmax(moved > 0))
        raise GeneratorError(
            f"coupling {alpha} ({couplings[alpha].to_label()}) does not flip one label "
            f"pattern: perm[u] != u ^ {d[alpha]} at {moved[alpha]} of {u.size} states")
    # bit i of anti[alpha] is set where coupling alpha anticommutes with
    # stabilizer i, of pattern[alpha, u] where the image of u also has sign -1 there
    n_stab = model.n_stabilizers
    anti = anticommutation_bits(cx, cz, model.stabilizers)
    negative = (((1 - frame.stab_signs) // 2) << np.arange(n_stab)[:, None]).sum(axis=0)
    pattern = negative[perm] & anti[:, None]
    code = ((np.arange(len(couplings))[:, None] << n_stab) | pattern).ravel()
    present = np.bincount(code) > 0  # the (coupling, pattern) codes that occur, in order
    codes, which = np.flatnonzero(present), (np.cumsum(present) - 1)[code]
    freq = np.zeros(codes.size)
    for i, coeff in enumerate(model.coefficients):
        eps = 1.0 - 2.0 * ((codes >> i) & 1)
        freq += np.where((anti[codes >> n_stab] >> i) & 1, 2.0 * coeff * eps, 0.0)

    # each pattern takes the frequency of the first earlier one within freq_tol
    keys, terms = [[] for _ in couplings], []
    for alpha, omega in zip((codes >> n_stab).tolist(), freq.tolist()):
        key = next((key for key in keys[alpha] if abs(key - omega) <= freq_tol), None)
        if key is None:
            keys[alpha].append(key := omega)
        terms.append((alpha, key))
    # components in coupling order, each coupling's sorted by omega
    slot = {term: i for i, term in enumerate(sorted(set(terms)))}
    weights = np.zeros((len(slot), frame.dim), dtype=complex)
    weights[np.array([slot[t] for t in terms])[which].reshape(perm.shape), u] = phase
    comps = []
    for (alpha, omega), w in zip(slot, weights):
        rate = (rates or {}).get((alpha, omega), tp.rate(omega))
        if rate < 0:
            raise GeneratorError("rates must be nonnegative")
        comps.append(JumpComponent(coupling_index=alpha, coupling=couplings[alpha],
                                   omega=omega, rate=rate, flip=int(d[alpha]), weights=w))

    return SuperOperatorRep(
        matrix=None, space="liouville", beta=tp.beta, frame=frame,
        rho=frame.gibbs(tp.beta), components=comps,
        meta={"couplings": [c.to_label() for c in couplings],
              "thermal": thermal_provenance(tp)})


def liouville_matrix(rep: SuperOperatorRep):
    """-L, a 4^n x 4^n ``master.SparseMatrix`` on column-major vectorized operators:
    L(X)[u, v] = sum_d W_d[u, v] X[u ^ d, v ^ d] (``_flip_weights``), so -L holds
    -W_d[u, v] at row u + dim * v and column (u ^ d) + dim * (v ^ d)."""
    from .master import SparseMatrix  # master imports this module

    if rep.space != "liouville":
        raise GeneratorError("liouville_matrix expects a Liouville-space generator")
    dim = rep.frame.dim
    unmoved, moved = _flip_weights(rep.components)
    entries = []
    for d, w in [(0, unmoved), *moved.items()]:
        u, v = np.nonzero(w)
        row = u + dim * v
        entries.append((row, row ^ (d * (dim + 1)), w[u, v]))
    row, col, data = (np.concatenate(x) for x in zip(*entries))
    # 0.0 - data, not -data: a zero imaginary part stays +0, not -0, in the export
    return SparseMatrix.from_entries((dim * dim, dim * dim), row, col, 0.0 - data)


def thermal_provenance(tp: ThermalParams) -> dict:
    return {"beta": tp.beta, "coupling": tp.coupling, "gamma": tp.gamma,
            "h_plus": tp.h_plus, "h_minus": tp.h_minus, "h_zero": tp.h_zero,
            "basis": "matrix units over the stabilizer eigenbasis, column-major"}


# ---------------------------------------------------------------------------
# Structural residuals
# ---------------------------------------------------------------------------

def _random_operators(rho, count, seed):
    """``count`` random complex operators, each of unit beta norm."""
    rng, shape = np.random.default_rng(seed), (rho.size, rho.size)
    for _ in range(count):
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        yield x / math.sqrt(abs(_beta_inner(rho, x, x)))


def _beta_inner(rho, x, y) -> complex:
    # <X, Y>_beta = tr(rho X^dag Y) with rho diagonal
    return np.sum(x.conj() * y * rho[None, :])


def _flip_weights(components) -> tuple:
    """W_0 and a dict {d: W_d} over the other flip patterns d, dense, with
    L(X) = W_0 o X + sum_d W_d o X[u ^ d, v ^ d] elementwise.

    A component is a masked permutation A|u> = s_u |u ^ d>, so
    (A^dag X A)[u, v] = conj(s_u) X[u^d, v^d] s_v and A^dag A is the diagonal
    |s|^2.  The components sharing a flip pattern d therefore add up to one
    elementwise product W_d o X[u^d, v^d], W_d = sum_c rate_c conj(s_c) s_c^T,
    and the anticommutator, elementwise as well, joins W_0.
    """
    weights, decay = {}, 0.0
    for c in components:
        s = c.weights
        weights[c.flip] = weights.get(c.flip, 0.0) + c.rate * np.outer(s.conj(), s)
        decay = decay + c.rate * np.abs(s) ** 2
    return weights.pop(0, 0.0) - 0.5 * np.add.outer(decay, decay), weights


def _generator_action(components):
    """X -> L(X) = sum_c rate_c (A_c^dag X A_c - {A_c^dag A_c, X}/2), from ``_flip_weights``."""
    unmoved, weights = _flip_weights(components)

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
    rho, apply = rep.rho, _generator_action(rep.components)
    ops = _random_operators(rho, 2 * samples, seed)
    worst = 0.0
    for x, y in zip(ops, ops):
        worst = max(worst, abs(_beta_inner(rho, y, apply(x)) - _beta_inner(rho, apply(y), x)))
    return worst


def stationarity_residual(rep: SuperOperatorRep, samples: int = 50,
                          seed: int = 0) -> float:
    """max |tr(rho L(X))| over random normalized X; zero for a Gibbs state."""
    apply = _generator_action(rep.components)
    worst = 0.0
    for x in _random_operators(rep.rho, samples, seed):
        worst = max(worst, abs(np.sum(rep.rho * np.diagonal(apply(x)))))
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


def dissipativity_identity_check(rep: SuperOperatorRep, coupling_index: int,
                                 omega=None, samples: int = 20,
                                 seed: int = 0) -> float:
    """Residual of the commutator form of -<X, L_{alpha w} X>_beta.

    For each positive frequency the quadratic form must equal
    g * ( <[S,X],[S,X]> + exp(-beta*w) <[S^dag,X],[S^dag,X]> )_beta
    with g = rate(w)/2 (rate(0)/4 at w = 0, where both terms coincide).
    """
    rho = rep.rho
    pairs = _component_pairs(rep, coupling_index, omega)
    apply = _generator_action([c for pair in pairs for c in pair if c is not None])
    terms = []
    for c, _ in pairs:
        g = c.rate / (2.0 if c.omega > 1e-12 else 4.0)
        terms.append((c.flip, c.weights, g, g * math.exp(-rep.beta * c.omega)))
    u = np.arange(rho.size)
    worst = 0.0
    for x in _random_operators(rho, samples, seed):
        lhs = -_beta_inner(rho, x, apply(x))
        rhs = 0.0
        for flip, s, g, g_d in terms:
            # S|u> = s_u |u ^ flip>, so (S X)[u ^ flip] = s_u X[u] and
            # (X S)[:, u] = X[:, u ^ flip] s_u; likewise for S^dag
            idx = u ^ flip
            com = (s[:, None] * x)[idx] - x[:, idx] * s[None, :]
            rhs += g * _beta_inner(rho, com, com)
            com_d = s.conj()[:, None] * x[idx] - x[:, idx] * s.conj()[idx][None, :]
            rhs += g_d * _beta_inner(rho, com_d, com_d)
        worst = max(worst, abs(lhs - rhs))
    return worst


def reconstruction_residual(rep: SuperOperatorRep, coupling_index: int,
                            times=(0.1, 0.7, 1.3)) -> float:
    """max_t || e^{itH} S e^{-itH} - sum_w e^{-iwt} S(w) || (spectral norm):
    the difference maps |u> to a multiple of |u ^ d>, so its norm is its
    largest entry modulus.  A component whose flip d is not its coupling's
    raises GeneratorError."""
    frame = rep.frame
    comps = [c for c in rep.components if c.coupling_index == coupling_index]
    if not comps:
        raise GeneratorError(f"no components for coupling {coupling_index}")
    coupling = comps[0].coupling
    perm, phase = frame.genperm_of(coupling.x_mask, coupling.z_mask, coupling.phase)
    u = np.arange(frame.dim)
    for c in comps:
        if not np.array_equal(perm, u ^ c.flip):
            raise GeneratorError(
                f"component omega={c.omega:g} of coupling {coupling_index} "
                f"({c.coupling.to_label()}) flips {c.flip}, its coupling does not: perm[u] "
                f"!= u ^ {c.flip} at {np.count_nonzero(perm != u ^ c.flip)} of {u.size} states")
    worst = 0.0
    for t in times:
        t = t / frame.model.coupling
        diff = np.exp(1j * t * (frame.energies[perm] - frame.energies)) * phase
        for c in comps:
            diff -= np.exp(-1j * c.omega * t) * c.weights
        worst = max(worst, float(np.abs(diff).max()))
    return worst
