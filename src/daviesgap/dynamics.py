"""Semigroup evolution of observables and autocorrelation traces.

Conjugation by every stabilizer and logical operator commutes with the
generator, so a Pauli observable carried to Hilbert-Schmidt space
(X -> X rho^{1/2}) stays inside its charge block of the master operator K,
which is assembled directly from the generator's jump components.
There the coherent part i*delta is diagonal and commutes with K, so the full
evolution exp(t(-K_b + i*delta_b)) is exact from one eigendecomposition of
the 2^k-dimensional block K_b, for every time of the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .basis import build_frame
from .davies import SuperOperatorRep, ThermalParams, build_generator, \
    default_couplings, GeneratorError
from .master import BlockLabel, ChargeBlocks, _isometry_entries, _x_phases, \
    block_label_of, sector_index
from .models import ModelSpec
from .pauli import PauliString, commutant_dimension
from . import spectral


class EvolutionError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Exact charge-block propagator
# ---------------------------------------------------------------------------

@dataclass
class BlockPropagator:
    """exp(-t*K_b) on one charge block, from one eigendecomposition of K_b.

    ``basis`` is the block's isometry into operator space; ``delta`` holds
    the coherent part E(sigma) - E(sigma ^ flip) of each block column, so
    exp(i*t*delta) * propagate(x, t) is the full evolution.
    """

    label: BlockLabel
    basis: sp.csc_matrix
    vals: np.ndarray
    vecs: np.ndarray
    delta: np.ndarray

    @classmethod
    def of(cls, lrep: SuperOperatorRep, label: BlockLabel) -> "BlockPropagator":
        frame = lrep.frame
        v = _isometry_entries(frame, _x_phases(frame), [label.flip], [label.mu], [label.nu])[0]
        basis = sp.csc_matrix(
            (v, (sector_index(frame, label.flip, label.mu), np.arange(frame.dim) % label.dim)),
            shape=(frame.dim ** 2, label.dim))
        vals, vecs = np.linalg.eigh(ChargeBlocks(lrep).block(label).toarray())
        sigma = np.arange(label.dim)
        delta = (frame.energies[frame.state_index(sigma, 0)]
                 - frame.energies[frame.state_index(sigma ^ label.flip, 0)])
        return cls(label=label, basis=basis, vals=vals, vecs=vecs, delta=delta)

    def propagate(self, x: np.ndarray, t: float) -> np.ndarray:
        return self.vecs @ (np.exp(-t * self.vals) * (self.vecs.conj().T @ x))

    def slowest_rate(self, x: np.ndarray) -> float:
        """Smallest eigenvalue whose eigenvector overlaps x by more than
        1e-10 * ||x||; K is PSD, so roundoff below zero reads as 0."""
        overlap = np.abs(self.vecs.conj().T @ x)
        return max(0.0, float(self.vals[overlap > 1e-10 * np.linalg.norm(x)].min()))


# ---------------------------------------------------------------------------
# Autocorrelation traces
# ---------------------------------------------------------------------------

@dataclass
class AutocorrelationTrace:
    observable: str
    times: np.ndarray
    values_full: np.ndarray         # <A, e^{tG} A^dag>_beta
    values_dissipative: np.ndarray  # <A, e^{tL} A^dag>_beta, real
    fitted_rate: float = float("nan")
    meta: dict = field(default_factory=dict)

    def schwarz_slack(self) -> float:
        """min over the grid of (dissipative^2 - |full|^2); >= 0 up to noise."""
        return float(np.min(self.values_dissipative ** 2
                            - np.abs(self.values_full) ** 2))

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("t,re_full,im_full,dissipative\n")
            for t, f, d in zip(self.times, self.values_full,
                               self.values_dissipative):
                fh.write(f"{t:.12g},{f.real:.12g},{f.imag:.12g},{d:.12g}\n")


def default_time_grid(gap_estimate: float, points: int = 60) -> np.ndarray:
    """Logarithmic grid resolving transients through the asymptotic decay."""
    if gap_estimate <= 0:
        raise EvolutionError("need a positive gap estimate for the default grid")
    return np.geomspace(0.01 / gap_estimate, 30.0 / gap_estimate, points)


def autocorrelation(model: ModelSpec, tp: ThermalParams, couplings=None,
                    observable: PauliString = None, grid=None,
                    gap_estimate: float = None, frame=None,
                    lrep: SuperOperatorRep = None,
                    label: str = None) -> AutocorrelationTrace:
    """Both autocorrelation traces of a mean-zero observable.

    The full trace uses the complete evolution including the coherent part;
    the dissipative trace drops it.  Both are evaluated exactly in the
    observable's charge blocks.  The decay rate is fitted on the tail half of
    the grid, skipping values below 1e-12; ``meta["exact_rate"]`` is the
    smallest block eigenvalue the observable overlaps.
    """
    if observable is None:
        observable = model.logicals[0][1]
    if lrep is None:
        if frame is None:
            frame = build_frame(model)
        if couplings is None:
            couplings = default_couplings(model)
        lrep = build_generator(model, couplings=couplings, tp=tp, frame=frame)
    frame = lrep.frame
    rho = lrep.rho

    a = frame.matrix_of(observable).toarray()
    mean = np.sum(rho * np.diagonal(a))
    if abs(mean) > 1e-10:
        raise GeneratorError(f"observable has Gibbs mean {mean:.3e}, expected 0")
    norm = math.sqrt(abs(np.sum((a.conj() * a) * rho[None, :])))
    a = a / norm

    if grid is None:
        if gap_estimate is None:
            used = {c.coupling_index: c.coupling for c in lrep.components}
            expected = commutant_dimension(used.values(), model.hamiltonian())
            # looked up on spectral at call time, so wrappers placed there see it
            gap_estimate = spectral.gap_from_blocks(lrep, expected_kernel=expected).gap
        grid = default_time_grid(gap_estimate)
    grid = np.asarray(grid, dtype=float)
    bad = grid[~(np.isfinite(grid) & (grid >= 0))]
    if bad.size:
        raise EvolutionError(f"evolution time {bad[0]:g} is negative or not finite")

    # Hilbert-Schmidt images A^dag rho^{1/2} (evolved) and A rho^{1/2} (probe)
    sqrt_rho = np.sqrt(rho)[None, :]
    x_vec = (a.conj().T * sqrt_rho).reshape(-1, order="F")
    y_vec = (a * sqrt_rho).reshape(-1, order="F")
    terms = [observable] if isinstance(observable, PauliString) \
        else [op for _, op in observable.terms]
    blocks = []
    for block in dict.fromkeys(block_label_of(frame, p) for p in terms):
        prop = BlockPropagator.of(lrep, block)
        blocks.append((prop, prop.basis.conj().T @ x_vec,
                       prop.basis.conj().T @ y_vec))
    captured = sum(float(np.vdot(x, x).real) for _, x, _ in blocks)
    weight = float(np.vdot(x_vec, x_vec).real)
    if abs(captured - weight) > 1e-12 * weight:
        raise GeneratorError(
            f"observable blocks {[p.label.describe() for p, _, _ in blocks]} "
            f"capture weight {captured:.15g} of {weight:.15g}")

    full = np.zeros(len(grid), dtype=complex)
    dissip = np.zeros(len(grid), dtype=float)
    for prop, x, y in blocks:
        for i, t in enumerate(grid):
            w = prop.propagate(x, t)
            dissip[i] += np.vdot(y, w).real
            full[i] += np.vdot(y, np.exp(1j * t * prop.delta) * w)

    if label is None:
        label = observable.to_label() if isinstance(observable, PauliString) \
            else repr(observable)
    trace = AutocorrelationTrace(
        observable=label, times=grid, values_full=full,
        values_dissipative=dissip,
        meta={"betaJ": tp.beta * tp.coupling, "model": model.kind,
              "gap_estimate": gap_estimate,
              "exact_rate": min(p.slowest_rate(x) for p, x, _ in blocks)})
    trace.fitted_rate = fit_decay_rate(grid, dissip)
    return trace


def fit_decay_rate(times, values, floor: float = 1e-12) -> float:
    """Least-squares slope of -log(values) over the tail half of the grid."""
    n = len(times)
    sel = np.arange(n) >= n // 2
    sel &= np.asarray(values) > floor
    if sel.sum() < 2:
        return float("nan")
    t = np.asarray(times)[sel]
    y = np.log(np.asarray(values)[sel])
    slope, _ = np.polyfit(t, y, 1)
    return float(-slope)


def relaxation_time(trace: AutocorrelationTrace, rate_floor: float = 1e-9) -> float:
    """1 / fitted decay rate; a non-decaying trace signals a conserved quantity."""
    rate = trace.fitted_rate
    if not math.isfinite(rate) or rate <= rate_floor:
        exact = trace.meta.get("exact_rate", float("nan"))
        raise EvolutionError(
            f"trace does not decay (fitted_rate={rate:.3e}, floor={rate_floor:.1e}, "
            f"exact_rate={exact:.3e}): the observable overlaps a conserved "
            "quantity (non-ergodic coupling set)")
    return 1.0 / rate
