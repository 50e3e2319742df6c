"""Acceptance gate: every certified claim of the package, one test each.

Each test prints a pass/fail line into the terminal summary (see conftest)
with the measured quantity and its stated tolerance or runtime budget.
"""

import math
import time

import numpy as np
import pytest

from daviesgap.davies import (ThermalParams, build_generator,
                              default_couplings, detailed_balance_residual,
                              dissipativity_identity_check, liouville_matrix,
                              reconstruction_residual, stationarity_residual)
from daviesgap.dynamics import autocorrelation, relaxation_time
from daviesgap.models import build_ising_ring, build_toric_code
from daviesgap.pauli import PauliString, commutant_dimension
from daviesgap.spectral import (abelian_chain_hamiltonian,
                                abelian_chain_kernel, bond_pair_block,
                                certify, gap, gap_from_blocks, lemma2_bound,
                                lemma3_bound)
from oracles import full_space_gap, to_master

GAMMAS = (0.2, 0.5, 1.0)


def tp_of_gamma(g: float) -> ThermalParams:
    return ThermalParams(beta=0.0 if g >= 1.0 else -math.log(g) / 2.0)


@pytest.fixture(scope="module")
def toric2_trace(toric2):
    """Shared toric L=2 autocorrelation of the first Z logical at betaJ=0.25."""
    tp = ThermalParams.from_betaJ(0.25)
    report = certify(build_toric_code(2), tp)
    return autocorrelation(toric2, tp, observable=toric2.logicals[0][1],
                           gap_estimate=report.gap), report


def test_criterion_1_pair_block_projector(acceptance):
    t0 = time.time()
    worst = 0.0
    for g in GAMMAS:
        vals = np.linalg.eigvalsh(bond_pair_block(g))
        worst = max(worst, max(min(abs(v), abs(v - 1.0)) for v in vals))
    elapsed = time.time() - t0
    acceptance("criterion 1", worst < 1e-12 and elapsed < 1.0,
               f"pair blocks have spectrum {{0,1}}: max deviation {worst:.2e} "
               f"(tol 1e-12), {elapsed:.3f}s (budget 1s)")


def test_criterion_2_two_pair_spectrum(acceptance):
    t0 = time.time()
    worst = 0.0
    for g in GAMMAS:
        k = bond_pair_block(g)
        vals = np.linalg.eigvalsh(np.kron(k, np.eye(2)) + np.kron(np.eye(2), k))
        formulas = [0.0, 2.0, (3 + g * g) / (2 * (1 + g * g)),
                    (1 + 3 * g * g) / (2 * (1 + g * g))]
        worst = max(worst,
                    max(min(abs(v - f) for f in formulas) for v in vals),
                    max(min(abs(v - f) for v in vals) for f in formulas))
    elapsed = time.time() - t0
    acceptance("criterion 2", worst < 1e-12 and elapsed < 1.0,
               f"two-pair spectrum matches the eigenvalue formulas: deviation "
               f"{worst:.2e} (tol 1e-12), {elapsed:.3f}s (budget 1s)")


def test_criterion_3_chain_gap_bound(acceptance):
    t0 = time.time()
    min_slack = float("inf")
    for g in GAMMAS:
        tp = tp_of_gamma(g)
        bound = g * g / (1 + g * g)
        for n in range(3, 13):
            chain = abelian_chain_hamiltonian(n, tp)
            kernel = [v.astype(complex) for v in abelian_chain_kernel(n, g)]
            r = gap(chain, kernel_basis=kernel, dense_cap=2048)
            min_slack = min(min_slack, r.gap - bound)
    elapsed = time.time() - t0
    acceptance("criterion 3", min_slack > 0 and elapsed < 60.0,
               f"chain gap exceeds gamma^2/(1+gamma^2) for N=3..12: "
               f"min slack {min_slack:.6f}, {elapsed:.1f}s (budget 60s)")


def test_criterion_4_ring_certification(acceptance):
    t0 = time.time()
    margins = []
    for n in range(3, 8):
        model = build_ising_ring(n)
        for betaJ in (0.0, 0.25, 0.5):
            r = certify(model, ThermalParams.from_betaJ(betaJ))
            margins.append(r.margin)
    elapsed = time.time() - t0
    acceptance("criterion 4", min(margins) > 0 and elapsed < 600.0,
               f"ring gap >= exp(-8 betaJ)/3 in all 15 cases: min margin "
               f"{min(margins):.4f}, {elapsed:.1f}s (budget 600s)")


def test_criterion_5_torus_certification(acceptance, toric2, toric2_frame):
    t0 = time.time()
    couplings = default_couplings(toric2)
    margins, split = [], []
    for betaJ in (0.0, 0.25):
        tp = ThermalParams.from_betaJ(betaJ)
        lrep = build_generator(toric2, couplings=couplings, tp=tp,
                               frame=toric2_frame)
        blocks = gap_from_blocks(lrep, expected_kernel=1)
        iterative = full_space_gap(lrep, expected_kernel=1, iterative=True)
        bound = math.exp(-8 * betaJ) / 3.0
        margins.append(min(blocks.gap, iterative.gap) - bound)
        split.append(abs(blocks.gap - iterative.gap))
    elapsed = time.time() - t0
    acceptance("criterion 5",
               min(margins) > 0 and max(split) < 1e-8 and elapsed < 1200.0,
               f"torus gap certified on the 65536-dim space: min margin "
               f"{min(margins):.4f}, blocks vs shift-invert iterative "
               f"{max(split):.2e} (tol 1e-8), {elapsed:.1f}s (budget 1200s)")


def test_criterion_6_unitary_equivalence(acceptance, ising3, ising3_frame):
    t0 = time.time()
    worst = 0.0
    for betaJ in (0.0, 0.5):
        lrep = build_generator(ising3, tp=ThermalParams.from_betaJ(betaJ),
                               frame=ising3_frame)
        master = to_master(lrep)
        ev_l = np.sort(np.linalg.eigvals(liouville_matrix(lrep).toarray()).real)
        ev_k = np.linalg.eigvalsh(master.rep.dense())
        worst = max(worst, float(np.abs(ev_l - ev_k).max()))
    elapsed = time.time() - t0
    acceptance("criterion 6", worst < 1e-10 and elapsed < 10.0,
               f"master operator and generator share their spectrum: "
               f"deviation {worst:.2e} (tol 1e-10), {elapsed:.2f}s (budget 10s)")


def test_criterion_7_structural_identities(acceptance, ising3, ising4, toric2,
                                           ising3_frame, ising4_frame,
                                           toric2_frame):
    t0 = time.time()
    db = diss = recon = stat = 0.0
    cases = [(ising3, ising3_frame), (ising4, ising4_frame),
             (toric2, toric2_frame)]
    for model, frame in cases:
        tp = ThermalParams.from_betaJ(0.25)
        lrep = build_generator(model, tp=tp, frame=frame)
        db = max(db, detailed_balance_residual(lrep, samples=25))
        stat = max(stat, stationarity_residual(lrep, samples=25))
        n_couplings = len(default_couplings(model))
        for alpha in range(n_couplings):
            recon = max(recon, reconstruction_residual(lrep, alpha))
        for alpha in range(0, n_couplings, max(1, n_couplings // 4)):
            diss = max(diss, dissipativity_identity_check(lrep, alpha,
                                                          samples=8))
    elapsed = time.time() - t0
    ok = db < 1e-12 and diss < 1e-12 and recon < 1e-10 and stat < 1e-12
    acceptance("criterion 7", ok,
               f"detailed balance {db:.1e} (tol 1e-12), dissipativity identity "
               f"{diss:.1e} (tol 1e-12), component reconstruction {recon:.1e} "
               f"(tol 1e-10), stationarity {stat:.1e} (tol 1e-12); "
               f"{elapsed:.1f}s")


def test_criterion_8_ergodicity(acceptance, ising3, toric2, toric2_frame):
    t0 = time.time()
    results = []

    def kernel_of(model, couplings, frame=None):
        lrep = build_generator(model, couplings=couplings,
                               tp=ThermalParams.from_betaJ(0.25), frame=frame)
        return gap_from_blocks(lrep).kernel_dim

    # the standard coupling sets are ergodic
    results.append(kernel_of(ising3, default_couplings(ising3)) == 1)
    results.append(kernel_of(toric2, default_couplings(toric2),
                             toric2_frame) == 1)
    # degenerate sets reproduce the commutant dimension
    degenerate = [
        (ising3, [PauliString.single(3, j, "X") for j in range(3)], None),
        (ising3, [PauliString.single(3, j, "Z") for j in range(3)], None),
        (toric2, [PauliString.single(8, j, "X") for j in range(8)],
         toric2_frame),
    ]
    dims = []
    for model, couplings, frame in degenerate:
        want = commutant_dimension(couplings, model.hamiltonian())
        got = kernel_of(model, couplings, frame)
        dims.append((got, want))
        results.append(got == want)
    elapsed = time.time() - t0
    acceptance("criterion 8", all(results),
               f"kernel dimension = 1 for the standard couplings and matches "
               f"the commutant on degenerate sets {dims}; {elapsed:.1f}s")


def test_criterion_9_schwarz_bound(acceptance, ising3, toric2_trace):
    t0 = time.time()
    tp = ThermalParams.from_betaJ(0.25)
    slacks = []
    for obs in (ising3.logicals[0][1], ising3.logicals[0][0]):
        tr = autocorrelation(ising3, tp, observable=obs, gap_estimate=2.0)
        assert len(tr.times) == 60
        slacks.append(tr.schwarz_slack())
    toric_tr, _ = toric2_trace
    slacks.append(toric_tr.schwarz_slack())
    elapsed = time.time() - t0
    acceptance("criterion 9", min(slacks) >= -1e-10,
               f"|full trace|^2 <= dissipative trace^2 pointwise on 60-point "
               f"grids: min slack {min(slacks):.2e} (tol -1e-10); "
               f"{elapsed:.1f}s")


def test_criterion_10_relaxation_times(acceptance, toric2_trace):
    t0 = time.time()
    tp = ThermalParams.from_betaJ(0.25)
    ceiling = 3.0 * math.exp(8 * 0.25)
    taus = []
    for n in (3, 4, 5, 6):
        model = build_ising_ring(n)
        tr = autocorrelation(model, tp, observable=model.logicals[0][1])
        taus.append(relaxation_time(tr))
    spread = (max(taus) - min(taus)) / min(taus)
    toric_tr, _ = toric2_trace
    toric_tau = relaxation_time(toric_tr)
    elapsed = time.time() - t0
    ok = spread < 0.25 and max(taus) <= ceiling and toric_tau <= ceiling
    acceptance("criterion 10", ok,
               f"relaxation times N=3..6 spread {spread:.1%} (< 25%), "
               f"max {max(taus):.3f} and torus {toric_tau:.3f} below "
               f"3 exp(8 betaJ) = {ceiling:.2f}; {elapsed:.1f}s")


def test_criterion_11_lemma_checkers(acceptance):
    t0 = time.time()
    rng = np.random.default_rng(2024)
    # combined-operator bound on 1000 random PSD instances
    for _ in range(1000):
        d = int(rng.integers(2, 7))
        kdim = int(rng.integers(1, d))
        w = rng.standard_normal((d, d - kdim))
        a = w @ w.T
        c = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        b = c @ c.conj().T + 1e-3 * np.eye(d)
        lemma2_bound(a, b)  # raises if the bound exceeds the true minimum
    # 2x2 corner bound on 1000 random PSD instances
    for _ in range(1000):
        c = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        cp = c @ c.conj().T
        lemma3_bound(cp[0, 0].real, cp[0, 1], cp[1, 1].real,
                     float(rng.uniform(0.01, 3.0)))
    # the two hand-derived examples
    b2 = lemma2_bound(np.diag([0.0, 1.0]), 0.5 * np.ones((2, 2)))
    b3 = lemma3_bound(1.0, 1.0, 1.0, 2.0)
    ok = abs(b2 - 0.25) < 1e-12 and abs(b3 - 0.5) < 1e-12
    elapsed = time.time() - t0
    acceptance("criterion 11", ok,
               f"bound lemmas verified on 2x1000 random instances; hand "
               f"examples give {b2:.4f} (want 0.25) and {b3:.4f} (want 0.5); "
               f"{elapsed:.1f}s")
