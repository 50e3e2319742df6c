"""Semigroup evolution of observables and autocorrelation traces.

Conjugation by every stabilizer and logical operator commutes with the
generator, so a Pauli observable carried to Hilbert-Schmidt space
(X -> X rho^{1/2}) stays inside its charge block of the master operator K,
which is assembled directly from the generator's jump components.  Each term
moves every frame state u to u ^ d, so the block coordinates are read from the
labels, with no dense observable and no 4^n-dimensional vector.  The coherent
part i*delta is diagonal in a block and commutes with K, so the evolution
exp(t(-K_b + i*delta_b)) is exact from one eigendecomposition of the
2^k-dimensional block K_b, for the whole time grid in one product.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .basis import build_frame
from .davies import GeneratorError, SuperOperatorRep, ThermalParams, build_generator
from .master import BlockLabel, ChargeBlocks, block_label_of
from .models import ModelSpec
from .pauli import PauliString, mask_arrays
from .spectral import KERNEL_RTOL, analytic_bounds


class EvolutionError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Exact charge-block propagator
# ---------------------------------------------------------------------------

@dataclass
class BlockPropagator:
    """exp(-t*K_b) on one charge block, from one eigendecomposition of K_b.

    ``delta`` holds the coherent part E(sigma) - E(sigma ^ flip) of each
    block column, so exp(i*t*delta) * propagate(x, t) is the full evolution.
    """

    label: BlockLabel
    vals: np.ndarray
    vecs: np.ndarray
    delta: np.ndarray

    @classmethod
    def of(cls, charge: ChargeBlocks, label: BlockLabel) -> "BlockPropagator":
        vals, vecs = np.linalg.eigh(charge.block(label).toarray())
        e, sigma = charge.frame.energies, np.arange(label.dim)  # logical slot 0
        return cls(label=label, vals=vals, vecs=vecs, delta=e[sigma] - e[sigma ^ label.flip])

    def propagate(self, x: np.ndarray, t) -> np.ndarray:
        """exp(-t*K_b) x; for a 1-d array of times, one column per time."""
        decay = np.exp(-np.multiply.outer(self.vals, t))
        return self.vecs @ (decay.T * (self.vecs.conj().T @ x)).T

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
        grid = np.column_stack([self.times, self.values_full.real, self.values_full.imag,
                                self.values_dissipative]).ravel().tolist()
        with open(path, "w") as fh:
            fh.write("t,re_full,im_full,dissipative\n"
                     + "%.12g,%.12g,%.12g,%.12g\n" * len(self.times) % tuple(grid))


def default_time_grid(gap_estimate: float) -> np.ndarray:
    """Logarithmic 60-point grid resolving transients through the asymptotic decay."""
    if gap_estimate <= 0:
        raise EvolutionError("need a positive gap estimate for the default grid")
    return np.geomspace(0.01 / gap_estimate, 30.0 / gap_estimate, 60)


def autocorrelation(model: ModelSpec, tp: ThermalParams, couplings=None,
                    observable: PauliString = None, grid=None,
                    gap_estimate: float = None, frame=None,
                    lrep: SuperOperatorRep = None) -> AutocorrelationTrace:
    """Both autocorrelation traces of a mean-zero observable.

    The full trace uses the complete evolution including the coherent part;
    the dissipative trace drops it.  Both are evaluated exactly in the
    observable's charge blocks, and no other block is solved: the default
    grid's ``meta["gap_estimate"]`` is their smallest eigenvalue above the
    kernel (KERNEL_RTOL * ||K||), or ``meta["gap_bound"]``, the certified
    exp(-8 beta J)/3, if they hold only kernel.  The decay rate is fitted on
    the tail half of the grid, skipping values below 1e-12; ``meta`` also has
    ``exact_rate``, the smallest block eigenvalue the observable overlaps,
    and the ``stages`` in seconds
    (``frame_s`` about 0 when a frame or ``lrep`` is passed in, ``generator_s``
    when ``lrep`` is).
    """
    t0 = time.perf_counter()
    if observable is None:
        observable = model.logicals[0][1]
    frame = build_frame(model) if lrep is None and frame is None else frame
    t_frame = time.perf_counter()
    lrep = build_generator(model, couplings=couplings, tp=tp, frame=frame) if lrep is None else lrep
    frame = lrep.frame
    rho = lrep.rho
    t1 = time.perf_counter()

    # each term c P moves every frame state u to u ^ d, P|u> = phase[u] |u ^ d> (the
    # labels are XOR-affine in the masks); amp[s] sums A[u ^ d, u] for d = sectors[s]
    terms = [(1.0, observable)] if isinstance(observable, PauliString) else observable.terms
    perm, phase = frame.genperm_of(*mask_arrays(p for _, p in terms))
    flips, labels = perm[:, 0], [block_label_of(frame, p) for _, p in terms]
    for (_, p), label, d in zip(terms, labels, flips):
        if frame.state_index(label.flip, label.mu) != d:
            raise GeneratorError(f"term {p.to_label()} is labeled {label.describe()} "
                                 f"but moves frame state u to u ^ {d}")
    sectors, of = np.unique(flips, return_inverse=True)
    amp = np.zeros((sectors.size, frame.dim), dtype=complex)
    np.add.at(amp, of, np.array([c for c, _ in terms])[:, None] * phase)
    mean = np.sum(rho * amp[0]) if sectors[0] == 0 else 0.0
    if abs(mean) > 1e-10:
        raise GeneratorError(f"observable has Gibbs mean {mean:.3e}, expected 0")

    # A^dag rho^{1/2} (evolved) and A rho^{1/2} (probe) at |u><u ^ d|, by ket u
    ud = np.arange(frame.dim) ^ sectors[:, None]
    x, y = amp.conj() * np.sqrt(rho[ud]), np.take_along_axis(amp, ud, 1) * np.sqrt(rho[ud])
    x, y = x / np.linalg.norm(y), y / np.linalg.norm(y)
    charge = ChargeBlocks(lrep)
    sector_of = dict(zip(labels, of))  # the blocks, in order of first appearance
    props = [BlockPropagator.of(charge, block) for block in sector_of]
    blocks = list(zip(props, *charge.coordinates([b.index for b in sector_of],
                                                 np.stack([x, y])[:, list(sector_of.values())])))
    captured = sum(float(np.vdot(b, b).real) for _, b, _ in blocks)
    weight = float(np.vdot(x, x).real)
    if abs(captured - weight) > 1e-12 * weight:
        raise GeneratorError(
            f"observable blocks {[p.label.describe() for p in props]} "
            f"capture weight {captured:.15g} of {weight:.15g}")
    t2 = time.perf_counter()

    gap_bound = analytic_bounds(tp)["generator_gap"]
    if grid is None:
        if gap_estimate is None:
            # K's flip-0 identity sector has the diagonal 2D, so 2 max D <= ||K||
            vals = np.concatenate([p.vals for p in props])
            gap_estimate = float(min(vals[vals >= KERNEL_RTOL * 2 * charge.diagonal.max()],
                                     default=gap_bound))
        grid = default_time_grid(gap_estimate)
    grid = np.asarray(grid, dtype=float)
    bad = grid[~(np.isfinite(grid) & (grid >= 0))]
    if bad.size:
        raise EvolutionError(f"evolution time {bad[0]:g} is negative or not finite")

    full, dissip = np.zeros(len(grid), dtype=complex), np.zeros(len(grid))
    for prop, x, y in blocks:
        w = prop.propagate(x, grid)
        dissip += (y.conj() @ w).real
        full += y.conj() @ (np.exp(1j * np.multiply.outer(prop.delta, grid)) * w)

    name = observable.to_label() if isinstance(observable, PauliString) else repr(observable)
    return AutocorrelationTrace(
        observable=name, times=grid, values_full=full, values_dissipative=dissip,
        fitted_rate=fit_decay_rate(grid, dissip),  # before the stage clock below
        meta={"betaJ": tp.beta * tp.coupling, "model": model.kind,
              "gap_estimate": gap_estimate, "gap_bound": gap_bound,
              "exact_rate": min(p.slowest_rate(x) for p, x, _ in blocks),
              "stages": {"frame_s": t_frame - t0, "generator_s": t1 - t_frame,
                         "blocks_s": t2 - t1, "trace_s": time.perf_counter() - t2}})


def fit_decay_rate(times, values) -> float:
    """Least-squares slope of -log(values > 1e-12) over the tail half of the grid."""
    n = len(times)
    sel = np.arange(n) >= n // 2
    sel &= np.asarray(values) > 1e-12
    if sel.sum() < 2:
        return float("nan")
    t = np.asarray(times)[sel]
    y = np.log(np.asarray(values)[sel])
    slope, _ = np.polyfit(t, y, 1)
    return float(-slope)


def relaxation_time(trace: AutocorrelationTrace) -> float:
    """1 / fitted decay rate.  A rate that is not conserved is at least the
    gap, which is at least ``meta["gap_bound"]``; a rate at or below half that
    bound signals a conserved quantity."""
    rate, floor = trace.fitted_rate, trace.meta["gap_bound"] / 2.0
    if not math.isfinite(rate) or rate <= floor:
        raise EvolutionError(
            f"trace does not decay (fitted_rate={rate:.3e}, floor={floor:.1e}, "
            f"exact_rate={trace.meta['exact_rate']:.3e}): the observable overlaps a conserved "
            "quantity (non-ergodic coupling set)")
    return 1.0 / rate
