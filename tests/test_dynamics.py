import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla

import daviesgap.dynamics as dynamics
import daviesgap.spectral as spectral
from daviesgap.davies import (GeneratorError, ThermalParams, build_generator,
                              liouville_matrix)
from daviesgap.dynamics import (BlockPropagator, EvolutionError,
                                autocorrelation, default_time_grid,
                                fit_decay_rate, relaxation_time)
from daviesgap.master import BlockLabel, ChargeBlocks, block_label_of
from daviesgap.models import build_ising_ring, build_toric_code
from daviesgap.pauli import PauliString, PauliSum
from daviesgap.spectral import analytic_bounds, certify
from oracles import (block_basis, block_labels, csr, delta_diagonal, gram_diag, matrix_of,
                     projected_traces, to_master)


@pytest.fixture(scope="module")
def ising3_rep(ising3, ising3_frame):
    return build_generator(ising3, tp=ThermalParams.from_betaJ(0.25),
                           frame=ising3_frame)


@pytest.fixture(scope="module")
def ising3_props(ising3_rep):
    master, charge = to_master(ising3_rep), ChargeBlocks(ising3_rep)
    return master, [BlockPropagator.of(charge, label)
                    for label in block_labels(ising3_rep.frame)]


def _random_block_vector(prop, seed):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(prop.label.dim)
            + 1j * rng.standard_normal(prop.label.dim))


def _dense_traces(lrep, observable, times):
    """Both traces from scipy's dense expm of the full generator (oracle)."""
    frame, rho = lrep.frame, lrep.rho
    a = matrix_of(frame, observable).toarray()
    a = a / math.sqrt(abs(np.sum((a.conj() * a) * rho[None, :])))
    gram = gram_diag(lrep)
    a_vec = a.reshape(-1, order="F")
    adag_vec = a.conj().T.reshape(-1, order="F")
    neg_l = liouville_matrix(lrep).toarray()
    full_gen = np.diag(1j * delta_diagonal(lrep)) - neg_l
    full = [np.sum(a_vec.conj() * gram * (sla.expm(t * full_gen) @ adag_vec))
            for t in times]
    dissip = [np.sum(a_vec.conj() * gram * (sla.expm(-t * neg_l) @ adag_vec)).real
              for t in times]
    return np.array(full), np.array(dissip)


class TestExponentialAction:
    def test_zero_time_is_identity(self, ising3_props):
        _, props = ising3_props
        for i, prop in enumerate(props):
            x = _random_block_vector(prop, i)
            assert np.linalg.norm(prop.propagate(x, 0.0) - x) \
                < 1e-12 * np.linalg.norm(x)

    def test_matches_dense_exponential(self, ising3, ising3_rep):
        mixed = PauliSum(3, [(1.0, PauliString.single(3, 0, "X")),
                             (0.5, PauliString.single(3, 1, "Y"))])
        times = [0.0, 0.05, 0.9, 4.0, 20.0]
        for observable in (ising3.logicals[0][1], ising3.logicals[0][0], mixed):
            tr = autocorrelation(ising3, ThermalParams.from_betaJ(0.25),
                                 observable=observable, grid=times,
                                 lrep=ising3_rep)
            full, dissip = _dense_traces(ising3_rep, observable, times)
            assert np.abs(tr.values_full - full).max() < 1e-12, observable
            assert np.abs(tr.values_dissipative - dissip).max() < 1e-12

    def test_coherent_sum_in_one_block_matches_dense_exponential(self, ising3,
                                                                  ising3_rep):
        # Z0 and Z1 share block (flip 0, sector Z): their entries add before
        # the block is normalized
        z0, z1 = (PauliString.single(3, j, "Z") for j in (0, 1))
        frame = ising3_rep.frame
        assert dynamics.block_label_of(frame, z0) == dynamics.block_label_of(frame, z1) \
            == BlockLabel(0, 0, 1, 2, 1)
        observable = PauliSum(3, [(1.0, z0), (1.0, z1)])
        times = [0.0, 0.05, 0.9, 4.0, 20.0]
        tr = autocorrelation(ising3, ThermalParams.from_betaJ(0.25),
                             observable=observable, grid=times, lrep=ising3_rep)
        full, dissip = _dense_traces(ising3_rep, observable, times)
        assert np.abs(tr.values_full - full).max() < 1e-12
        assert np.abs(tr.values_dissipative - dissip).max() < 1e-12

    def test_torus_logicals_match_projection_oracle(self, toric2):
        # the label-read block coordinates against the 4^n images projected
        # onto each block
        tp = ThermalParams.from_betaJ(0.25)
        lrep = build_generator(toric2, tp=tp)
        times = [0.0, 0.05, 0.9, 4.0, 20.0]
        for observable in (op for pair in toric2.logicals for op in pair):
            tr = autocorrelation(toric2, tp, observable=observable, grid=times, lrep=lrep)
            full, dissip = projected_traces(lrep, observable, times)
            assert np.abs(tr.values_full - full).max() < 1e-12, observable
            assert np.abs(tr.values_dissipative - dissip).max() < 1e-12, observable

    def test_torus_sum_over_two_nu_blocks_matches_projection_oracle(self, toric2):
        # X1 + X1 Z2: both terms in the sector (flip 0, X1), in the blocks
        # nu = 0 and nu = Z2, so the coordinates carry two charge signs
        tp = ThermalParams.from_betaJ(0.25)
        lrep = build_generator(toric2, tp=tp)
        x1, z2 = toric2.logicals[0][0], toric2.logicals[1][1]
        observable = PauliSum(8, [(1.0, x1), (1.0, x1 * z2)])
        labels = [block_label_of(lrep.frame, p) for _, p in observable.terms]
        assert [(l.flip, l.mu, l.nu) for l in labels] == [(0, 1, 0), (0, 1, 2)]
        a = matrix_of(lrep.frame, observable).toarray()
        assert np.sum(lrep.rho * a.diagonal()) == 0
        times = [0.0, 0.05, 0.9, 4.0, 20.0]
        tr = autocorrelation(toric2, tp, observable=observable, grid=times, lrep=lrep)
        full, dissip = projected_traces(lrep, observable, times)
        assert np.abs(tr.values_full - full).max() < 1e-12
        assert np.abs(tr.values_dissipative - dissip).max() < 1e-12

    def test_identity_is_preserved(self, ising3_props):
        # the identity maps to rho^{1/2}, all of it in block (flip 0, sector I)
        master, props = ising3_props
        prop = props[0]
        assert prop.label == BlockLabel(0, 0, 0, 2, 1)
        x = block_basis(master.rep.frame, prop.label).conj().T @ master.kernel_witness
        assert abs(np.linalg.norm(x) - 1.0) < 1e-12
        for t in (0.7, 5.0):
            assert np.linalg.norm(prop.propagate(x, t) - x) < 1e-12

    def test_gibbs_mean_is_conserved(self, ising3_props):
        # the Gibbs mean is the overlap with rho^{1/2}, a kernel vector of K
        master, props = ising3_props
        prop = props[0]
        witness = block_basis(master.rep.frame, prop.label).conj().T @ master.kernel_witness
        x = _random_block_vector(prop, 3)
        mean0 = np.vdot(witness, x)
        for t in (1.0, 20.0):
            mean = np.vdot(witness, prop.propagate(x, t))
            assert abs(mean - mean0) < 1e-12 * np.linalg.norm(x)

    def test_block_propagator_is_a_contraction(self, ising3_props):
        _, props = ising3_props
        for i, prop in enumerate(props):
            x = _random_block_vector(prop, 100 + i)
            norms = [np.linalg.norm(prop.propagate(x, t))
                     for t in (0.0, 0.1, 1.0, 10.0)]
            assert np.all(np.diff(norms) <= 1e-12 * norms[0])

    def test_grid_evaluation_matches_single_times(self, ising3_props):
        _, props = ising3_props
        times = np.array([0.0, 0.3, 2.0, 15.0])
        for i, prop in enumerate(props):
            x = _random_block_vector(prop, 200 + i)
            columns = np.stack([prop.propagate(x, t) for t in times], axis=1)
            assert np.abs(prop.propagate(x, times) - columns).max() \
                < 1e-14 * np.linalg.norm(x)


class TestAutocorrelation:
    def test_normalization_at_time_zero(self, ising3):
        tp = ThermalParams.from_betaJ(0.25)
        grid = np.concatenate([[0.0], np.geomspace(0.01, 10.0, 30)])
        tr = autocorrelation(ising3, tp, observable=ising3.logicals[0][1],
                             grid=grid)
        assert abs(tr.values_full[0] - 1.0) < 1e-12
        assert abs(tr.values_dissipative[0] - 1.0) < 1e-12

    def test_dissipative_trace_monotone_and_positive(self, ising3):
        tp = ThermalParams.from_betaJ(0.25)
        tr = autocorrelation(ising3, tp, observable=ising3.logicals[0][1],
                             gap_estimate=2.0)
        assert np.all(tr.values_dissipative > -1e-12)
        assert np.all(np.diff(tr.values_dissipative) <= 1e-10)

    def test_schwarz_inequality_for_logicals(self, ising3):
        tp = ThermalParams.from_betaJ(0.25)
        for obs in (ising3.logicals[0][1], ising3.logicals[0][0]):
            tr = autocorrelation(ising3, tp, observable=obs, gap_estimate=2.0)
            assert tr.schwarz_slack() >= -1e-10

    def test_schwarz_inequality_for_coherent_observable(self, ising3):
        # an energy-off-diagonal observable exercises the phase factor
        tp = ThermalParams.from_betaJ(0.3)
        obs = PauliSum(3, [(1.0, PauliString.single(3, 0, "X")),
                           (0.5, PauliString.single(3, 1, "Y"))])
        tr = autocorrelation(ising3, tp, observable=obs, gap_estimate=2.0)
        assert np.abs(tr.values_full.imag).max() > 1e-6
        assert tr.schwarz_slack() >= -1e-10

    def test_decay_rate_within_spectral_window(self, ising3):
        tp = ThermalParams.from_betaJ(0.25)
        report = certify(ising3, tp)
        tr = autocorrelation(ising3, tp, observable=ising3.logicals[0][1],
                             gap_estimate=report.gap)
        norm_l = np.abs(np.linalg.eigvals(
            liouville_matrix(build_generator(ising3, tp=tp)).toarray())).max()
        assert report.gap - 1e-6 <= tr.fitted_rate <= norm_l + 1e-6

    def test_spectral_sandwich_on_dissipative_trace(self, ising3):
        # exp(-norm(L) t) <= trace <= exp(-gap t) for normalized mean-zero A
        tp = ThermalParams.from_betaJ(0.25)
        report = certify(ising3, tp)
        lrep = build_generator(ising3, tp=tp)
        norm_l = np.abs(np.linalg.eigvals(liouville_matrix(lrep).toarray())).max()
        tr = autocorrelation(ising3, tp, observable=ising3.logicals[0][1],
                             gap_estimate=report.gap, lrep=lrep)
        upper = np.exp(-report.gap * tr.times)
        lower = np.exp(-norm_l * tr.times)
        assert np.all(tr.values_dissipative <= upper + 1e-10)
        assert np.all(tr.values_dissipative >= lower - 1e-10)

    def test_long_time_decay_to_zero(self, ising3):
        tp = ThermalParams.from_betaJ(0.25)
        report = certify(ising3, tp)
        grid = np.array([50.0 / report.gap])
        tr = autocorrelation(ising3, tp, observable=ising3.logicals[0][1],
                             grid=grid)
        assert abs(tr.values_dissipative[-1]) < 1e-4

    def test_nonzero_mean_rejected(self, ising3):
        tp = ThermalParams.from_betaJ(0.25)
        bad = PauliSum(3, [(1.0, PauliString.identity(3))])
        with pytest.raises(GeneratorError):
            autocorrelation(ising3, tp, observable=bad, gap_estimate=1.0)

    def test_bond_string_mean_rejected(self, ising3, ising3_rep):
        # Z0 Z1 is a stabilizer (flip 0, sector I), with a nonzero Gibbs mean
        bond = PauliString.from_sites(3, "Z", [0, 1])
        mean = np.sum(ising3_rep.rho * csr(matrix_of(ising3_rep.frame, bond)).diagonal())
        assert abs(mean) > 1e-3
        with pytest.raises(GeneratorError,
                           match=re.escape(f"Gibbs mean {mean:.3e}, expected 0")):
            autocorrelation(ising3, ThermalParams.from_betaJ(0.25), observable=bond,
                            gap_estimate=1.0, lrep=ising3_rep)

    def test_wrong_flip_label_rejected(self, ising3, monkeypatch):
        # Z1 moves no frame state; a label with flip 1 puts it in a sector it
        # has no entry in
        monkeypatch.setattr(dynamics, "block_label_of",
                            lambda frame, p: BlockLabel(1, 0, 1, 2, 1))
        with pytest.raises(GeneratorError, match=r"term \+ZII is labeled \{'flip': 1, "
                                                 r".* but moves frame state u to u \^ 0"):
            autocorrelation(ising3, ThermalParams.from_betaJ(0.25),
                            observable=ising3.logicals[0][1], gap_estimate=2.0)

    @pytest.mark.parametrize("grid, shown", [([-1.0, 0.5], "-1"),
                                             ([0.5, math.nan], "nan"),
                                             ([math.inf], "inf")],
                             ids=["negative", "nan", "inf"])
    def test_bad_time_grid_rejected(self, ising3, grid, shown):
        with pytest.raises(EvolutionError, match=f"time {shown} is negative"):
            autocorrelation(ising3, ThermalParams.from_betaJ(0.25),
                            observable=ising3.logicals[0][1], grid=grid)

    def test_missed_block_weight_rejected(self, ising3, monkeypatch):
        # a wrong label lookup must not pass silently as a zero trace
        monkeypatch.setattr(dynamics, "block_label_of",
                            lambda frame, p: BlockLabel(0, 0, 0, 2, 1))
        with pytest.raises(GeneratorError, match="capture weight 0 of 1"):
            autocorrelation(ising3, ThermalParams.from_betaJ(0.25),
                            observable=ising3.logicals[0][1], gap_estimate=2.0)

    def test_default_gap_estimate_builds_generator_once(self, ising3,
                                                        monkeypatch):
        builds = []

        def counting_build(*args, **kwargs):
            builds.append(1)
            return build_generator(*args, **kwargs)

        monkeypatch.setattr(dynamics, "build_generator", counting_build)
        monkeypatch.setattr(spectral, "build_generator", counting_build)
        tp = ThermalParams.from_betaJ(0.25)
        tr = autocorrelation(ising3, tp, observable=ising3.logicals[0][1])
        assert len(builds) == 1
        monkeypatch.undo()
        assert tr.meta["gap_estimate"] == certify(ising3, tp).gap

    def test_no_operator_space_vector_is_allocated(self):
        # ring 10: operator space has 4^10 entries; the traced peak stays
        # below one complex vector of them
        m = build_ising_ring(10)
        tp = ThermalParams.from_betaJ(0.25)
        lrep = build_generator(m, tp=tp)
        tracemalloc.start()
        try:
            autocorrelation(m, tp, observable=m.logicals[0][1], lrep=lrep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 4 ** 10, f"traced peak {peak / 2 ** 20:.1f} MiB"

    def test_default_grid_solves_only_the_observable_blocks(self, ising3,
                                                          monkeypatch):
        def no_global_solve(*args, **kwargs):
            raise AssertionError("default grid solved every block")

        unions = []
        union = ChargeBlocks.union

        def counting_union(self, index):
            unions.append(list(index))
            return union(self, index)

        monkeypatch.setattr(spectral, "gap_from_blocks", no_global_solve)
        monkeypatch.setattr(ChargeBlocks, "union", counting_union)
        mixed = PauliSum(3, [(1.0, PauliString.single(3, 0, "X")),
                             (0.5, PauliString.single(3, 1, "Y"))])
        for observable, blocks in ((ising3.logicals[0][1], 1), (mixed, 2)):
            unions.clear()
            tr = autocorrelation(ising3, ThermalParams.from_betaJ(0.25),
                                 observable=observable)
            assert len(unions) == blocks and all(len(i) == 1 for i in unions)
            assert set(tr.meta["stages"]) == {"frame_s", "generator_s", "blocks_s",
                                              "trace_s"}


class TestRelaxationTime:
    def test_size_independence_window(self):
        from daviesgap.models import build_ising_ring
        tp = ThermalParams.from_betaJ(0.25)
        taus = []
        for n in (3, 4, 5):
            m = build_ising_ring(n)
            tr = autocorrelation(m, tp, observable=m.logicals[0][1])
            taus.append(relaxation_time(tr))
        assert (max(taus) - min(taus)) / min(taus) < 0.25

    def test_infinite_temperature_bound(self, ising3):
        tr = autocorrelation(ising3, ThermalParams(beta=0.0),
                             observable=ising3.logicals[0][1])
        assert relaxation_time(tr) <= 3.0 + 1e-9

    def test_conserved_observable_detected(self, ising3):
        couplings = [PauliString.single(3, j, "X") for j in range(3)]
        tr = autocorrelation(ising3, ThermalParams.from_betaJ(0.25),
                             couplings=couplings,
                             observable=ising3.logicals[0][0],
                             gap_estimate=1.0)
        # the floor is half the certified gap bound, exp(-8 * 0.25) / 6
        with pytest.raises(EvolutionError,
                           match=r"fitted_rate=\S+, floor=2\.3e-02, "
                                 r"exact_rate=\S+\)") as err:
            relaxation_time(tr)
        assert tr.meta["exact_rate"] < 1e-12
        assert f"exact_rate={tr.meta['exact_rate']:.3e}" in str(err.value)

    @pytest.mark.parametrize("couplings, pair", [("Z", 1), ("X", 0)])
    def test_conserved_observable_detected_on_default_grid(self, ising3,
                                                           couplings, pair):
        # Z-only: the Z1 block holds only kernel, so the certified lower
        # bound scales the grid; X-only: X1 overlaps only kernel in its block
        tp = ThermalParams.from_betaJ(0.25)
        tr = autocorrelation(
            ising3, tp, couplings=[PauliString.single(3, j, couplings)
                                   for j in range(3)],
            observable=ising3.logicals[0][pair])
        if couplings == "Z":
            assert tr.meta["gap_estimate"] \
                == analytic_bounds(tp)["generator_gap"]
        with pytest.raises(EvolutionError, match="does not decay"):
            relaxation_time(tr)

    @pytest.mark.parametrize("betaJ", [6.0, 8.0])
    def test_low_temperature_rate_above_the_floor(self, betaJ):
        # fitted rates near 1e-10 and 1e-13 lie far above half the certified
        # bound exp(-8 betaJ)/3, so they read as decay, not as conservation
        m = build_ising_ring(4)
        tp = ThermalParams.from_betaJ(betaJ)
        tr = autocorrelation(m, tp, observable=m.logicals[0][1])
        assert tr.meta["gap_bound"] == analytic_bounds(tp)["generator_gap"]
        assert abs(relaxation_time(tr) * tr.meta["exact_rate"] - 1.0) < 0.05

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_exact_rate_is_gap_and_fit_agrees(self, n):
        m = build_ising_ring(n)
        for betaJ in (0.0, 0.25, 1.0):
            tp = ThermalParams.from_betaJ(betaJ)
            tr = autocorrelation(m, tp, observable=m.logicals[0][1])
            exact = tr.meta["exact_rate"]
            assert exact >= certify(m, tp).gap - 1e-12
            assert abs(tr.fitted_rate / exact - 1.0) < 0.05

    @pytest.mark.parametrize("kind, size, pairs, betaJs", [
        ("ising", 3, (0,), (0.0, 0.25, 1.0)), ("ising", 4, (0,), (0.0, 0.25, 1.0)),
        ("ising", 5, (0,), (0.0, 0.25, 1.0)), ("ising", 6, (0,), (0.0, 0.25, 1.0)),
        ("toric", 2, (0, 1), (0.25, 1.0))])
    def test_default_grid_matches_certified_gap_grid(self, kind, size, pairs,
                                                     betaJs):
        # a Z logical's block holds the generator gap, so its own rate places
        # the grid where the certified gap did
        m = build_ising_ring(size) if kind == "ising" else build_toric_code(size)
        for betaJ in betaJs:
            tp = ThermalParams.from_betaJ(betaJ)
            gap = certify(m, tp).gap
            for pair in pairs:
                obs = m.logicals[pair][1]
                own = autocorrelation(m, tp, observable=obs)
                ref = autocorrelation(m, tp, observable=obs, gap_estimate=gap)
                assert own.meta["gap_estimate"] == pytest.approx(gap, rel=1e-12)
                assert own.fitted_rate == pytest.approx(ref.fitted_rate, rel=1e-12)
                assert relaxation_time(own) \
                    == pytest.approx(relaxation_time(ref), rel=1e-12)

    def test_fit_recovers_pure_exponential(self):
        t = np.linspace(0.1, 10, 40)
        rate = fit_decay_rate(t, np.exp(-0.73 * t))
        assert abs(rate - 0.73) < 1e-9

    def test_default_grid_shape(self):
        grid = default_time_grid(2.0)
        assert len(grid) == 60
        assert abs(grid[0] - 0.005) < 1e-12
        assert abs(grid[-1] - 15.0) < 1e-9


class TestTraceExport:
    def test_csv_matches_the_per_row_format(self, tmp_path):
        # the one-call format writes the file a row-by-row f-string writes
        times = np.array([0.0, 1e-300, 1 / 3, 2.5, 123456789.123456789, 1e300])
        full = np.array([1 + 1j, -0.0 - 0.0j, 1e-17 + 2e17j, complex("nan+infj"),
                         -1 / 7 + 0j, 3.25e-5 - 1.5e5j])
        dissipative = np.array([-0.0, 0.1, float("inf"), 1 / 9, -2e-310, 5.0])
        path = tmp_path / "trace.csv"
        dynamics.AutocorrelationTrace("Z", times, full, dissipative).write_csv(path)
        want = "t,re_full,im_full,dissipative\n" + "".join(
            f"{t:.12g},{f.real:.12g},{f.imag:.12g},{d:.12g}\n"
            for t, f, d in zip(times, full, dissipative))
        assert path.read_bytes() == want.encode()

    def test_csv(self, ising3, tmp_path):
        tp = ThermalParams.from_betaJ(0.25)
        tr = autocorrelation(ising3, tp, observable=ising3.logicals[0][1],
                             gap_estimate=2.0)
        path = tmp_path / "trace.csv"
        tr.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,re_full,im_full,dissipative"
        assert len(lines) == 61
