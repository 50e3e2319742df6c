import dataclasses
import inspect
import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

import daviesgap.master as master
import daviesgap.spectral as spectral
from daviesgap.davies import (SuperOperatorRep, ThermalParams, build_generator,
                              default_couplings)
from daviesgap.master import block_orbits
from daviesgap.models import build_ising_ring, build_toric_code, lattice_symmetries
from daviesgap.pauli import PauliString, commutant_dimension
from daviesgap.spectral import (BoundViolationError, GapReport, KernelMismatchError,
                                LemmaCheckError, SolverConvergenceError,
                                abelian_chain_hamiltonian,
                                abelian_chain_kernel, analytic_bounds,
                                bond_pair_block, certify, gap,
                                gap_from_blocks, lemma1_check, lemma2_bound,
                                lemma3_bound, sweep, write_sweep_csv, xy_gap,
                                abelian_chain_form, _piece_spectra)
from oracles import (block_labels, block_spectra, commutant_basis, csr, dense_gap, full_space_gap,
                     iterative_gap, kron_chain_hamiltonian, kron_xy_form,
                     layout_chain_hamiltonian, layout_form_error, to_master,
                     unreduced_block_gap)


class TestGap:
    def test_diagonal_example(self):
        r = gap(np.diag([0.0, 5.0, 7.0]))
        assert r.kernel_dim == 1 and r.gap == 5.0

    def test_projector_gap_is_one(self):
        for g in (0.2, 0.5, 1.0):
            r = gap(bond_pair_block(g))
            assert r.kernel_dim == 2
            assert abs(r.gap - 1.0) < 1e-12

    def test_expected_kernel_mismatch_raises(self):
        with pytest.raises(KernelMismatchError):
            gap(np.diag([0.0, 0.0, 3.0]), expected_kernel=1)

    def test_iterative_agrees_with_dense(self):
        rng = np.random.default_rng(0)
        b = rng.standard_normal((200, 196))
        a = sp.csr_matrix(b @ b.T)  # PSD, 4-dim kernel
        dense_r = dense_gap(a)
        vals, vecs = np.linalg.eigh(a.toarray())
        basis = [vecs[:, i].astype(complex) for i in range(4)]
        iter_r = iterative_gap(a, kernel_basis=basis)
        assert abs(dense_r.gap - iter_r.gap) < 1e-8 * dense_r.gap
        assert dense_r.kernel_dim == iter_r.kernel_dim == 4
        assert iter_r.residual < 1e-8
        # a dense array takes the same shift-invert path
        from_dense = iterative_gap(a.toarray(), kernel_basis=basis)
        assert from_dense.solver == iter_r.solver == "iterative"
        assert from_dense.gap == iter_r.gap

    def test_shift_invert_failure_names_the_run(self, monkeypatch):
        real_eigsh = spla.eigsh

        def stalled(matrix, *args, **kwargs):
            if "sigma" not in kwargs:
                return real_eigsh(matrix, *args, **kwargs)
            raise spla.ArpackNoConvergence("stalled", np.zeros(0), np.zeros((0, 0)))

        monkeypatch.setattr(spla, "eigsh", stalled)
        a = sp.diags(np.arange(200.0)).tocsr()
        with pytest.raises(SolverConvergenceError,
                           match=r"dim 200, k 9, seed 7"):
            iterative_gap(a, seed=7)

    def test_permuted_blocks_split_into_components(self):
        rng = np.random.default_rng(3)
        blocks = []
        for d in (4, 1, 6, 3, 5):
            w = rng.standard_normal((d, d - 1)) + 1j * rng.standard_normal((d, d - 1))
            blocks.append(w @ w.conj().T)  # PSD, one kernel vector
        # coupled only through purely imaginary entries: eigenvalues 0 and 2
        blocks.append(np.array([[1.0, 1j], [-1j, 1.0]]))
        perm = rng.permutation(sum(len(b) for b in blocks))
        a = sp.block_diag(blocks).toarray()[np.ix_(perm, perm)]
        r = gap(a)
        want = dense_gap(a)
        assert r.extras["pieces"] == 6
        assert r.extras["largest_piece"] == 6
        assert r.extras["min_piece_dim"] == 3
        assert r.kernel_dim == want.kernel_dim == 6
        assert abs(r.gap - want.gap) < 1e-12 * want.gap
        assert r.near_threshold[1] == r.gap
        assert r.residual < 1e-12
        assert repr(r.gap) == "0.45994350876813767"

    def test_chain_splits_by_parity_and_checks_its_kernel(self):
        # the chain's matrix without its declared form: the dense piece route,
        # whose pieces are the two parity halves
        tp = ThermalParams.from_betaJ(0.35)
        for n in range(3, 12):
            r = gap(abelian_chain_hamiltonian(n, tp).matrix,
                    kernel_basis=abelian_chain_kernel(n, tp.gamma))
            assert r.kernel_dim == 2 and r.solver == "dense"
            assert r.extras["pieces"] == 2
            assert r.extras["largest_piece"] == r.extras["min_piece_dim"] == 1 << (n - 1)

    @pytest.mark.parametrize("g", [0.2, 0.35, 0.5, 1.0])
    def test_form_route_matches_dense_oracle(self, g):
        tp = ThermalParams(beta=-math.log(g) / 2)
        for n in range(3, 12):
            chain = abelian_chain_hamiltonian(n, tp)
            r, want = gap(chain, expected_kernel=2), gap(chain.matrix)
            assert r.solver == "xy_form" and want.solver == "dense"
            assert r.kernel_dim == want.kernel_dim == 2
            assert abs(r.gap - want.gap) <= 1e-12 * want.gap
            assert r.residual == r.extras["form_error"] / r.extras["lambda_max"] < 1e-15
            assert r.near_threshold[1] == r.gap and abs(r.near_threshold[0]) < 1e-12

    def test_chain_from_labels_matches_kron_sum(self):
        for betaJ in (0.0, 0.35, 1.0):
            tp = ThermalParams.from_betaJ(betaJ)
            for n in range(3, 13):
                chain = abelian_chain_hamiltonian(n, tp)
                a, want = csr(chain.matrix), kron_chain_hamiltonian(n, tp.gamma)
                # the declared form, summed from its Pauli terms
                form = kron_xy_form(*chain.meta["xy_form"])
                for other in (want, form):
                    assert ((a != 0) != (other != 0)).nnz == 0
                    # relative to the largest entry: the kron sums round once
                    # per term, and the diagonal grows with n
                    assert abs(a - other).max() <= 1e-15 * abs(other).max()

    def test_broken_form_raises_before_solving(self, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("operator solved")

        for name in ("eigvalsh", "eigh", "solve"):
            monkeypatch.setattr(np.linalg, name, no_solve)
        monkeypatch.setattr(master.SparseMatrix, "toarray", no_solve)
        chain = abelian_chain_hamiltonian(6, ThermalParams.from_betaJ(0.35))
        c, h, a, b = chain.meta["xy_form"]
        perturbed = csr(chain.matrix)
        perturbed[0, 3] += 1e-9  # flips bonds 4 and 5
        with pytest.raises(ValueError, match=r"declared xy_form: 1 entries differ by more than "
                                             r"1e-10 \* lambda_max, largest deviation 1\.000e-09"):
            gap(dataclasses.replace(chain, matrix=perturbed))
        missing = csr(chain.matrix)
        missing[0, 3] = 0.0
        missing.eliminate_zeros()
        with pytest.raises(ValueError, match=r"1 entries differ .* largest deviation "
                                             r"3\.98\de-01, row-sum bound 3\.98\de-01"):
            gap(dataclasses.replace(chain, matrix=missing))
        for form in ((c, h * 1.01, a, b), (c, h, b, a), (c + 1e-6, h, a, b)):
            with pytest.raises(ValueError, match=r"declared xy_form: \d+ entries differ"):
                gap(dataclasses.replace(chain, meta={"xy_form": form}))
        with pytest.raises(ValueError, match=r"xy_form of 5 bonds needs shape \(32, 32\)"):
            gap(dataclasses.replace(chain, meta={"xy_form": (c, h[1:], a[1:], b[1:])}))

    @pytest.mark.parametrize("case, bad, largest, bound", [
        ("row moved", 2, "3.984e-01", "3.984e-01"), ("col moved", 2, "3.984e-01", "7.967e-01"),
        ("entry dropped", 1, "3.984e-01", "3.984e-01"), ("entry added", 1, "2.500e-01", "2.500e-01")])
    def test_broken_layout_raises(self, case, bad, largest, bound):
        # arrays set directly, not through from_entries: a moved row leaves
        # the rows unsorted and the columns of the layout unchanged
        chain = abelian_chain_hamiltonian(6, ThermalParams.from_betaJ(0.35))
        m, form = chain.matrix, chain.meta["xy_form"]
        row, col, data = m.row.copy(), m.col.copy(), m.data
        if case == "row moved":
            row[8] = 2  # (1, 7) to (2, 7)
        elif case == "col moved":
            col[9] = 12  # (1, 13) to (1, 12)
        elif case == "entry dropped":
            row, col, data = (np.delete(x, 8) for x in (row, col, data))
        else:
            row, col, data = (np.insert(x, 1, v) for x, v in ((row, 0), (col, 1), (data, 0.25)))
        broken = master.SparseMatrix(m.shape, row, col, data)
        top = xy_gap(form).extras["lambda_max"]
        with pytest.raises(ValueError, match=re.escape(
                f"declared xy_form: {bad} entries differ by more than 1e-10 * lambda_max, "
                f"largest deviation {largest}, row-sum bound {bound}")):
            spectral._checked_form(broken, form, top)
        assert f"{layout_form_error(broken, form):.3e}" == bound

    def test_form_check_holds_one_reference_copy(self):
        # the chain's columns and values, 16 bytes an entry, and no second
        # copy of them nor a row array
        chain = abelian_chain_hamiltonian(14, ThermalParams.from_betaJ(0.35))
        form = chain.meta["xy_form"]
        top = xy_gap(form).extras["lambda_max"]
        tracemalloc.start()
        try:
            spectral._checked_form(chain.matrix, form, top)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * chain.matrix.nnz, f"{peak / chain.matrix.nnz:.1f} bytes per entry"

    def test_complex_entries_check_as_real_ones(self):
        chain = abelian_chain_hamiltonian(6, ThermalParams.from_betaJ(0.35))
        m = chain.matrix
        complex_chain = dataclasses.replace(chain, matrix=master.SparseMatrix(
            m.shape, m.row, m.col, m.data.astype(complex)))
        assert gap(complex_chain).extras["form_error"] == gap(chain).extras["form_error"]

    @pytest.mark.parametrize("betaJ", [9.0, 10.0, 14.0, 20.0, 400.0])
    def test_cold_chain_matches_dense(self, betaJ, monkeypatch):
        # gamma from 1.5e-8 to 0: the form rounds the all-'+' diagonal
        # (n - 1) gamma^2 / d to 0, and from gamma < 1.1e-16 the equal-pair
        # flips -gamma / d too, so delta is taken over both patterns, with
        # no from_entries pass
        def refuse(*args, **kwargs):
            raise AssertionError("from_entries called")

        tp = ThermalParams.from_betaJ(betaJ)
        for n in range(3, 11):
            chain = abelian_chain_hamiltonian(n, tp)
            kernel = abelian_chain_kernel(n, tp.gamma)
            assert all(np.isfinite(v).all() for v in kernel)
            with monkeypatch.context() as patch:
                patch.setattr(master.SparseMatrix, "from_entries", refuse)
                r = gap(chain, expected_kernel=2, kernel_basis=kernel)
            want = gap(chain.matrix)
            assert r.solver == "xy_form" and want.kernel_dim == 2
            assert abs(r.gap - want.gap) <= 1e-12 * want.gap
            oracle = layout_form_error(chain.matrix, chain.meta["xy_form"])
            assert abs(r.extras["form_error"] - oracle) <= 1e-15 * r.extras["lambda_max"]
            assert r.residual <= 1e-15

    @pytest.mark.parametrize("vector, message", [
        (np.full(32, np.nan), r"vector 1 has .* = nan, not finite"),
        (np.zeros(32), r"vector 1 is zero")])
    def test_kernel_basis_vector_that_is_nan_or_zero_raises(self, vector, message):
        chain = abelian_chain_hamiltonian(5, ThermalParams.from_betaJ(0.35))
        kernel = abelian_chain_kernel(5, chain.meta["gamma"])
        with pytest.raises(KernelMismatchError, match=message):
            gap(chain, kernel_basis=[kernel[0], vector])

    @pytest.mark.parametrize("gamma", [-0.1, math.nan, 1.5])
    def test_chain_kernel_needs_gamma_in_0_1(self, gamma):
        with pytest.raises(ValueError, match=re.escape(f"got gamma={gamma!r}")):
            abelian_chain_kernel(4, gamma)

    @pytest.mark.parametrize("operator", [np.eye(3)[:2], np.ones(3)])
    def test_operator_that_is_not_square_raises_before_solving(self, monkeypatch, operator):
        def no_solve(*args, **kwargs):
            raise AssertionError("eigensolver called")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_solve)
        with pytest.raises(ValueError, match=re.escape(f"shape {operator.shape}")):
            gap(operator)

    def test_input_types_give_the_same_bits(self):
        # the label-built chain, with and without its form, and the kron
        # sum (whose entries differ in the last bits), each as a SparseMatrix,
        # as a scipy CSR matrix and as a dense array
        tp = ThermalParams.from_betaJ(0.35)
        for n in range(3, 10):
            chain = abelian_chain_hamiltonian(n, tp)
            kron = master.SparseMatrix.of(kron_chain_hamiltonian(n, tp.gamma))
            for matrix, meta in ((chain.matrix, chain.meta), (chain.matrix, {}), (kron, {})):
                reports = [gap(dataclasses.replace(chain, matrix=m, meta=meta))
                           for m in (matrix, csr(matrix), matrix.toarray())]
                assert len({(r.gap.hex(), r.kernel_dim, r.residual, r.extras.get("pieces"))
                            for r in reports}) == 1

    def test_gap_runs_one_components_pass(self, monkeypatch):
        calls = []
        real_components = spectral._components

        def counting(n, a, b):
            calls.append(n)
            return real_components(n, a, b)

        monkeypatch.setattr(spectral, "_components", counting)
        chain = abelian_chain_hamiltonian(6, ThermalParams.from_betaJ(0.35))
        gap(chain.matrix)
        assert len(calls) == 1
        gap(chain)  # the declared form: no piece split
        assert len(calls) == 1

    def test_perturbed_kernel_vector_raises(self):
        tp = ThermalParams.from_betaJ(0.35)
        kernel = abelian_chain_kernel(6, tp.gamma)
        kernel[1] = kernel[1] + 1e-3 * np.eye(64)[5]
        with pytest.raises(KernelMismatchError,
                           match=r"kernel_basis vector 1 has .* = \d\.\d+e-0\d"):
            gap(abelian_chain_hamiltonian(6, tp), kernel_basis=kernel)

    def test_component_above_cap_raises_before_solving(self, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("eigensolver called")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_solve)
        # the cap bounds the pieces, the parity halves (32), not the operator;
        # it does not apply to the declared form
        chain = abelian_chain_hamiltonian(6, ThermalParams.from_betaJ(0.35))
        with pytest.raises(ValueError, match=r"piece has dimension 32, "
                                             r"above the dense cap 31"):
            gap(chain.matrix, dense_cap=31)
        assert gap(chain, dense_cap=1).kernel_dim == 2
        monkeypatch.undo()
        assert gap(chain.matrix, dense_cap=32).extras["largest_piece"] == 32

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 7), zero_mode=st.booleans())
    def test_random_form_matches_dense_solve(self, seed, n, zero_mode):
        """Random open XY chains, built by the kron-sum oracle and shifted
        to PSD: the declared form's gap matches one dense ``eigh``.  A zero
        last row of T (no field and no XX on the last bond) adds a zero mode,
        which doubles the kernel."""
        rng = np.random.default_rng(seed)
        h = rng.uniform(-1.0, 1.0, n)
        a, b = rng.uniform(-1.0, 1.0, (2, n - 1))
        if zero_mode:
            h[-1] = a[-1] = 0.0
        c = -np.linalg.eigvalsh(kron_xy_form(0.0, h, a, b).toarray())[0]
        matrix = kron_xy_form(c, h, a, b)
        r = gap(SuperOperatorRep(matrix=matrix, space="hilbert-schmidt", beta=0.0,
                                 meta={"xy_form": (c, h, a, b)}))
        want = dense_gap(matrix)
        assert r.solver == "xy_form"
        assert r.kernel_dim == want.kernel_dim == 1 + zero_mode
        assert abs(r.gap - want.gap) <= 1e-12 * r.extras["lambda_max"]
        assert r.residual < 1e-14

    def test_fast_route_runs_no_dense_solve(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense solve")

        chain = abelian_chain_hamiltonian(12, ThermalParams(beta=-math.log(0.5) / 2))
        kernel = [v.astype(complex) for v in abelian_chain_kernel(12, 0.5)]
        for name in ("eigvalsh", "solve"):
            monkeypatch.setattr(np.linalg, name, refuse)
        monkeypatch.setattr(master.SparseMatrix, "toarray", refuse)
        r = gap(chain, kernel_basis=kernel, dense_cap=2048)
        assert r.kernel_dim == 2 and r.solver == "xy_form"
        assert abs(r.gap - 0.42044450422648727) < 1e-9
        assert set(r.extras["stages"]) == {"svd_s", "form_check_s"}

    def test_free_fermion_sweep_to_a_thousand_bonds(self):
        # the chain's gap falls to 2 gamma^2/(1 + gamma^2) from above, twice
        # the gamma^2/(1 + gamma^2) of the chain lemma
        sizes = [16, 32, 64, 128, 256, 512, 1000]
        for g in (0.2, 0.5, 0.8):
            reports = [xy_gap(abelian_chain_form(n, g)) for n in sizes]
            assert [r.kernel_dim for r in reports] == [2] * len(sizes)
            gaps = np.array([r.gap for r in reports])
            assert (gaps > 2 * g * g / (1 + g * g)).all()
            assert (np.diff(gaps) < 0).all()

    def test_form_check_drops_zero_entries_as_the_oracle(self):
        # a form with a = b or a = -b on some pairs: zero flips, left out of
        # the pattern
        h, a, b = np.array([0.5, 0.0, -0.25, 0.0, 0.0]), np.array([0.3, 0.2, -0.1, 0.0]), \
            np.array([0.3, -0.2, 0.4, 0.0])
        c = -np.linalg.eigvalsh(kron_xy_form(0.0, h, a, b).toarray())[0]
        form = (c, h, a, b)
        matrix = master.SparseMatrix.of(kron_xy_form(*form))
        top = xy_gap(form).extras["lambda_max"]
        assert matrix.nnz < 5 << 5
        delta = spectral._checked_form(matrix, form, top)
        assert abs(delta - layout_form_error(matrix, form)) <= 1e-15 * top
        assert delta <= 1e-15 * top

    def test_sixteen_bonds_by_the_declared_form(self):
        chain = abelian_chain_hamiltonian(16, ThermalParams(beta=-math.log(0.5) / 2))
        r = gap(chain, kernel_basis=abelian_chain_kernel(16, 0.5))
        assert r.kernel_dim == 2 and r.solver == "xy_form"
        assert r.gap == xy_gap(chain.meta["xy_form"]).gap
        assert r.residual < 1e-15

    def test_zero_form_has_no_spectrum_above_its_kernel(self):
        # 70 zero modes: every subset is kernel, and none is listed
        zeros = np.zeros(69)
        with pytest.raises(SolverConvergenceError, match="no spectrum above the kernel"):
            xy_gap((0.0, np.zeros(70), zeros, zeros))

    @pytest.mark.parametrize("n", [6, 70])
    def test_field_on_one_bond_only(self, n):
        # n - 1 zero modes and one of 2 |h|: a kernel of 2^(n - 1)
        h = np.zeros(n)
        h[n // 2] = -0.7
        zeros = np.zeros(n - 1)
        r = xy_gap((0.7, h, zeros, zeros))
        assert r.kernel_dim == 1 << (n - 1) and r.gap == 1.4
        assert r.near_threshold == (0.0, 1.4)
        if n <= 8:
            want = dense_gap(kron_xy_form(0.7, h, zeros, zeros))
            assert (want.kernel_dim, want.gap) == (r.kernel_dim, r.gap)

    def test_small_modes_are_listed_up_to_twenty(self):
        # seven modes of 6e-11 under the threshold 2e-10, but not their sum:
        # subsets of at most three are kernel, of four the gap
        h = np.append(np.full(7, 3e-11), 1.0)
        zeros = np.zeros(7)
        form = (np.abs(h).sum(), h, zeros, zeros)
        r, want = xy_gap(form), dense_gap(kron_xy_form(*form))
        assert r.kernel_dim == want.kernel_dim == 1 + 7 + 21 + 35
        assert abs(r.gap - 2.4e-10) < 1e-20 and abs(want.gap - r.gap) < 1e-14
        h = np.append(np.full(69, 1e-11), 1.0)
        zeros = np.zeros(69)
        with pytest.raises(ValueError, match="69 modes can enter the kernel"):
            xy_gap((np.abs(h).sum(), h, zeros, zeros))

    def test_reports_near_threshold_pair(self):
        r = gap(np.diag([0.0, 2.0, 3.0]))
        assert r.near_threshold == (0.0, 2.0)


def _commutant_by_scan(ops, n):
    """Every x | z << n whose Pauli string commutes with all ops (4^n scan)."""
    idx = np.arange(1 << (2 * n), dtype=np.int64)
    ok = np.ones(idx.shape, dtype=bool)
    for op in ops:
        form = (np.bitwise_count(idx & op.z_mask)
                + np.bitwise_count((idx >> n) & op.x_mask))
        ok &= (form & 1) == 0
    return idx[ok]


def _coupling_set(model, name):
    n = model.n_sites
    if name == "default":
        return default_couplings(model)
    if name == "mixed":
        return [PauliString.single(n, j, "XYZ"[j % 3]) for j in range(n)]
    return [PauliString.single(n, j, name) for j in range(n)]


class TestCommutantByNullspace:
    @pytest.mark.parametrize("coupling_set", ["default", "X", "Z", "mixed"])
    @pytest.mark.parametrize("size", ["ring3", "ring4", "ring5", "torus2"])
    def test_matches_brute_force_scan(self, size, coupling_set):
        model = (build_toric_code(2) if size == "torus2"
                 else build_ising_ring(int(size[-1])))
        n = model.n_sites
        couplings = _coupling_set(model, coupling_set)
        want = _commutant_by_scan(couplings + list(model.stabilizers), n)
        assert commutant_dimension(couplings, model.hamiltonian()) == want.size
        got = [p.x_mask | (p.z_mask << n)
               for p in commutant_basis(couplings, model)]
        assert got == want.tolist()


class TestAnalyticBounds:
    def test_infinite_temperature_values(self):
        b = analytic_bounds(ThermalParams(beta=0.0))
        assert abs(b["generator_gap"] - 1.0 / 3.0) < 1e-15
        assert abs(b["reduced_generator_gap"] - 0.5) < 1e-15
        assert abs(b["abelian_chain_gap"] - 0.5) < 1e-15

    def test_quarter_betaJ(self):
        b = analytic_bounds(ThermalParams.from_betaJ(0.25))
        assert abs(b["generator_gap"] - math.exp(-2.0) / 3.0) < 1e-15

    def test_low_temperature_limit(self):
        b = analytic_bounds(ThermalParams.from_betaJ(50.0))
        assert all(v < 1e-30 for v in b.values())


class TestBondPairChain:
    def test_pair_block_is_projector(self):
        for g in (0.2, 0.5, 1.0):
            k = bond_pair_block(g)
            assert np.abs(k @ k - k).max() < 1e-14

    def test_two_pair_spectrum_formula(self):
        for g in (0.2, 0.5, 1.0):
            k = bond_pair_block(g)
            ev = np.linalg.eigvalsh(np.kron(k, np.eye(2)) + np.kron(np.eye(2), k))
            formulas = [0.0, 2.0, (3 + g * g) / (2 * (1 + g * g)),
                        (1 + 3 * g * g) / (2 * (1 + g * g))]
            assert max(min(abs(e - f) for f in formulas) for e in ev) < 1e-12
            assert max(min(abs(e - f) for e in ev) for f in formulas) < 1e-12

    def test_gamma_one_spectrum(self):
        k = bond_pair_block(1.0)
        ev = np.linalg.eigvalsh(np.kron(k, np.eye(2)) + np.kron(np.eye(2), k))
        assert np.allclose(sorted(set(np.round(ev, 12))), [0.0, 1.0, 2.0])

    def test_chain_gap_bound(self):
        for n in (3, 5, 8):
            for g in (0.2, 0.5, 1.0):
                tp = ThermalParams(beta=-math.log(g) / 2 if g < 1 else 0.0)
                r = gap(abelian_chain_hamiltonian(n, tp))
                assert r.gap >= g * g / (1 + g * g) - 1e-12

    @pytest.mark.parametrize("n", range(3, 15))
    def test_entries_written_in_canonical_order(self, n, monkeypatch):
        # the same entries as the diagonal-first layout sorted by from_entries
        # and as the oracle's pair-table layout, written with no sort and no
        # from_entries pass; the form check's delta agrees with the oracle's
        # to the last bits, as its diagonal is summed in another order
        def refuse(*args, **kwargs):
            raise AssertionError("sort called")

        for g in (0.2, 0.5, 1.0):
            tp = ThermalParams(beta=-math.log(g) / 2)
            d = 1.0 + tp.gamma ** 2
            index = np.arange(1 << n)
            pairs = (index[:, None] >> np.arange(n - 1)) & 3
            n_plus, n_minus = (pairs == 0).sum(axis=1), (pairs == 3).sum(axis=1)
            diagonal = n_plus * (tp.gamma ** 2 / d) + n_minus * (1.0 / d) \
                + (n - 1 - n_plus - n_minus) * 0.5
            flips = np.where((pairs == 0) | (pairs == 3), -tp.gamma / d, -0.5)
            want = master.SparseMatrix.from_entries(
                (1 << n, 1 << n), np.concatenate([index, np.repeat(index, n - 1)]),
                np.concatenate([index, (index[:, None] ^ (3 << np.arange(n - 1))).ravel()]),
                np.concatenate([diagonal, flips.ravel()]))
            with monkeypatch.context() as patch:
                patch.setattr(np, "argsort", refuse)
                patch.setattr(master.SparseMatrix, "from_entries", refuse)
                chain = abelian_chain_hamiltonian(n, tp)
            got, oracle = chain.matrix, layout_chain_hamiltonian(n, tp.gamma)
            assert got.shape == want.shape
            for name in ("row", "col", "data"):
                a, b, c = getattr(got, name), getattr(want, name), getattr(oracle, name)
                assert a.dtype == b.dtype == c.dtype, name
                assert np.array_equal(a, b) and np.array_equal(a, c), name
            form = chain.meta["xy_form"]
            top = xy_gap(form).extras["lambda_max"]
            delta = spectral._checked_form(got, form, top)
            assert abs(delta - layout_form_error(got, form)) <= 1e-15 * top

    def test_chain_kernel_vectors(self):
        tp = ThermalParams.from_betaJ(0.6)
        ch = abelian_chain_hamiltonian(7, tp)
        for v in abelian_chain_kernel(7, tp.gamma):
            assert np.linalg.norm(ch.matrix @ v) < 1e-12

    def test_chain_matches_abelian_block_of_generator(self, ising4,
                                                      ising4_frame):
        # the reduced couplings (sites 2..N) restricted to the diagonal
        # sector reproduce the chain spectrum on the even-parity space
        tp = ThermalParams.from_betaJ(0.35)
        couplings = [PauliString.single(4, j, "X") for j in range(1, 4)]
        lrep = build_generator(ising4, couplings=couplings, tp=tp,
                               frame=ising4_frame)
        from daviesgap.master import ChargeBlocks
        label = next(l for l in block_labels(ising4_frame)
                     if l.flip == 0 and l.sector == "I")
        sub = 0.5 * ChargeBlocks(lrep).block(label).toarray()  # chain blocks carry 1/2
        ev_block = np.linalg.eigvalsh(sub)
        chain = abelian_chain_hamiltonian(4, tp).matrix.toarray()
        bits = np.arange(16)
        even = (np.bitwise_count(bits.astype(np.uint64)) & 1) == 0
        ev_chain = np.linalg.eigvalsh(chain[np.ix_(even, even)])
        assert np.abs(np.sort(ev_block) - np.sort(ev_chain)).max() < 1e-12


class TestLemmaCheckers:
    def test_projector_case(self):
        assert lemma1_check(np.diag([0.0, 1.0, 1.0]), 1.0)
        assert not lemma1_check(np.diag([0.0, 1.0]), 2.0)

    def test_chain_satisfies_quadratic_bound(self):
        g = 0.5
        tp = ThermalParams(beta=-math.log(g) / 2)
        ch = abelian_chain_hamiltonian(6, tp)
        assert lemma1_check(ch, g * g / (1 + g * g))

    def test_trivial_kernel_rejected(self):
        with pytest.raises(LemmaCheckError):
            lemma1_check(np.diag([1.0, 2.0]), 0.5)

    def test_lemma2_hand_example(self):
        a = np.diag([0.0, 1.0])
        b = 0.5 * np.ones((2, 2))
        bound = lemma2_bound(a, b)
        assert abs(bound - 0.25) < 1e-12
        assert np.linalg.eigvalsh(a + b)[0] >= bound

    def test_lemma2_identity_perturbation(self):
        a = np.diag([0.0, 2.0, 3.0])
        bound = lemma2_bound(a, np.eye(3))
        assert abs(bound - 2.0 / 3.0) < 1e-10
        assert bound <= 1.0

    def test_lemma2_zero_kernel_expectation_rejected(self):
        a = np.diag([0.0, 1.0])
        b = np.diag([0.0, 5.0])
        with pytest.raises(LemmaCheckError):
            lemma2_bound(a, b)

    def test_lemma2_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            d = int(rng.integers(2, 7))
            kdim = int(rng.integers(1, d))
            w = rng.standard_normal((d, d - kdim))
            a = w @ w.T
            c = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            b = c @ c.conj().T + 1e-3 * np.eye(d)
            bound = lemma2_bound(a, b)
            assert np.linalg.eigvalsh(a + b)[0] >= bound - 1e-10

    def test_lemma3_hand_example(self):
        bound = lemma3_bound(1.0, 1.0, 1.0, 2.0)
        assert abs(bound - 0.5) < 1e-12
        eps = np.linalg.eigvalsh(np.array([[1.0, 1.0], [1.0, 3.0]]))[0]
        assert abs(eps - (2.0 - math.sqrt(2.0))) < 1e-12
        assert eps >= bound

    def test_lemma3_trivial_cases(self):
        assert abs(lemma3_bound(1.0, 0.0, 0.0, 1.0) - 0.5) < 1e-15
        assert lemma3_bound(0.0, 0.0, 1.0, 1.0) == 0.0

    def test_lemma3_rejects_bad_hypotheses(self):
        with pytest.raises(LemmaCheckError):
            lemma3_bound(1.0, 0.0, 1.0, -1.0)
        with pytest.raises(LemmaCheckError):
            lemma3_bound(1.0, 5.0, 1.0, 1.0)  # C' indefinite

    def test_lemma3_random_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            c = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            cp = c @ c.conj().T
            y, z = cp[0, 0].real, cp[1, 1].real
            x = cp[0, 1]
            u = float(rng.uniform(0.01, 3.0))
            bound = lemma3_bound(y, x, z, u)
            eps = np.linalg.eigvalsh(np.array([[y, x], [np.conj(x), z + u]]))[0]
            assert eps >= bound - 1e-12

    def test_lemma2_on_reduced_generator_blocks(self, ising4, ising4_frame):
        # A = reduced couplings on the Z sector, B = the boundary site term;
        # the combined bound dominates h_minus^2/(h_minus/2 + 2).
        tp = ThermalParams.from_betaJ(0.4)
        reduced = [PauliString.single(4, j, "X") for j in range(1, 4)]
        boundary = [PauliString.single(4, 0, "X")]
        from daviesgap.master import ChargeBlocks
        label = next(l for l in block_labels(ising4_frame)
                     if l.flip == 0 and l.sector == "Z")
        a = ChargeBlocks(build_generator(
            ising4, couplings=reduced, tp=tp, frame=ising4_frame)).block(label)
        b = ChargeBlocks(build_generator(
            ising4, couplings=boundary, tp=tp, frame=ising4_frame)).block(label)
        bound = lemma2_bound(a, b)
        floor = tp.h_minus ** 2 / (tp.h_minus / 2.0 + 2.0)
        assert bound >= floor - 1e-12


class TestCertify:
    def test_ising3_infinite_temperature(self, ising3):
        r = certify(ising3, ThermalParams(beta=0.0))
        assert r.kernel_dim == 1
        assert r.gap >= 1.0 / 3.0
        dense = full_space_gap(build_generator(ising3, tp=ThermalParams(beta=0.0)),
                               expected_kernel=1)
        assert abs(r.gap - dense.gap) < 1e-10

    def test_methods_agree(self, ising4):
        tp = ThermalParams.from_betaJ(0.25)
        lrep = build_generator(ising4, tp=tp)
        r_blocks = certify(ising4, tp)
        r_dense = full_space_gap(lrep, expected_kernel=1)
        r_iter = full_space_gap(lrep, expected_kernel=1, iterative=True)
        assert abs(r_blocks.gap - r_dense.gap) < 1e-9
        assert abs(r_blocks.gap - r_iter.gap) < 1e-8

    def test_rings_9_and_10_certify_past_eight_sites(self):
        want = {0.0: 4.0, 0.25: 2.15153137096, 1.0: 0.143889679697}
        for n in (9, 10):
            for betaJ, g in want.items():
                r = certify(build_ising_ring(n), ThermalParams.from_betaJ(betaJ))
                assert r.kernel_dim == 1
                assert abs(r.gap - g) <= 1e-9 * g
                assert r.extras["largest_piece"] == 1 << (n - 1)

    def test_piece_cap_raises_before_solving(self, monkeypatch):
        lrep = build_generator(build_ising_ring(6), tp=ThermalParams.from_betaJ(0.25))
        assert gap_from_blocks(lrep).extras["largest_piece"] == 32

        def no_solve(*args, **kwargs):
            raise AssertionError("eigensolver called")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_solve)
        monkeypatch.setattr(spectral, "DENSE_DIM_CAP", 31)
        with pytest.raises(ValueError, match=r"piece has dimension 32, "
                                             r"above the dense cap 31"):
            gap_from_blocks(lrep)

    def test_ring_gap_is_glauber_closed_form(self):
        # heat-bath Glauber dynamics of the ring: gap 4(1 - tanh 2 betaJ) at every N
        # (R. J. Glauber, J. Math. Phys. 4 (1963) 294)
        for n in range(3, 11):
            model = build_ising_ring(n)
            for betaJ in (0.0, 0.25, 0.5, 1.0, 2.0, 3.0):
                r = certify(model, ThermalParams.from_betaJ(betaJ))
                assert r.kernel_dim == 1
                assert abs(r.gap - 8.0 / (1.0 + math.exp(4.0 * betaJ))) <= 1e-12, (n, betaJ)

    def test_one_gap_path(self):
        for fn in (certify, sweep):
            params = inspect.signature(fn).parameters
            assert "method" not in params and "seed" not in params

    def test_size_independence_evidence(self):
        tp = ThermalParams.from_betaJ(0.25)
        g3 = certify(build_ising_ring(3), tp).gap
        g7 = certify(build_ising_ring(7), tp).gap
        assert abs(g3 - g7) / min(g3, g7) < 0.2

    def test_degenerate_couplings_kernel(self, ising3):
        couplings = [PauliString.single(3, j, "X") for j in range(3)]
        tp = ThermalParams.from_betaJ(0.25)
        lrep = build_generator(ising3, couplings=couplings, tp=tp)
        r = gap_from_blocks(lrep, expected_kernel=2)
        assert r.kernel_dim == 2

    def test_kernel_mismatch_states_threshold_eigenvalues(self, ising3):
        couplings = [PauliString.single(3, j, "X") for j in range(3)]
        lrep = build_generator(ising3, couplings=couplings,
                               tp=ThermalParams.from_betaJ(0.25))
        r = gap_from_blocks(lrep)
        with pytest.raises(KernelMismatchError) as err:
            gap_from_blocks(lrep, expected_kernel=1)
        assert "kernel dimension 2 != expected 1" in str(err.value)
        assert f"eigenvalues around threshold: {r.near_threshold}" \
            in str(err.value)
        assert r.near_threshold[1] == r.gap

    def test_min_block_holds_the_gap(self, ising3):
        lrep = build_generator(ising3, tp=ThermalParams.from_betaJ(0.25))
        r = gap_from_blocks(lrep, inventory=True)
        block = r.extras["min_block"]
        inventory = {(b["flip"], b["sector"]): b for b in r.extras["blocks"]}
        assert inventory[block["flip"], block["sector"]]["gap"] == r.gap
        assert block["dim"] == 4
        assert certify(ising3, ThermalParams.from_betaJ(0.25)) \
            .to_json_dict()["min_block"] == block

    def test_commutant_basis_matches_dimension(self, ising3):
        couplings = [PauliString.single(3, j, "X") for j in range(3)]
        basis = commutant_basis(couplings, ising3)
        assert len(basis) == 2

    def test_bound_violation_raises(self, ising3, ising3_frame):
        # crush all rates so the gap drops below the certified bound
        tp = ThermalParams.from_betaJ(0.0)
        tiny = {(a, w): 1e-6 for a in range(9) for w in (-4.0, 0.0, 4.0)}
        lrep = build_generator(ising3, tp=tp, frame=ising3_frame, rates=tiny)
        r = gap_from_blocks(lrep)
        assert r.gap < 1.0 / 3.0  # the raw ingredient certify would reject
        with pytest.raises(BoundViolationError):
            _certify_with_rates(ising3, tp, tiny, ising3_frame)


# ring N=6 with one broken symmetry each; the reflection j -> -j survives
BROKEN_SYMMETRY = {
    "nonuniform-coefficients": {"coefficients": [2.0, 1.0, 1.0, 1.0, 1.0, 2.0]},
    "x-subset": {"couplings": [PauliString.single(6, j, "X") for j in (0, 1, 5)]
                 + [PauliString.single(6, j, "Z") for j in range(6)]},
    "rates-override": {"rates": {(0, 4.0): 0.5}},
}


class TestSymmetryReduction:
    @pytest.mark.parametrize("case", list(BROKEN_SYMMETRY))
    def test_broken_symmetry_drops_its_generators(self, case, monkeypatch):
        spec = BROKEN_SYMMETRY[case]
        model = build_ising_ring(6, coefficients=spec.get("coefficients"))
        couplings = spec.get("couplings", default_couplings(model))
        lrep = build_generator(model, couplings=couplings, rates=spec.get("rates"),
                               tp=ThermalParams.from_betaJ(0.25))
        expected = commutant_dimension(couplings, model.hamiltonian())
        reflection = lattice_symmetries(model)[1]
        kept = block_orbits(lrep).generators
        assert len(kept) == 1 and np.array_equal(kept[0], reflection)

        r = gap_from_blocks(lrep, expected_kernel=expected)
        ref = unreduced_block_gap(lrep, expected_kernel=expected)
        assert r.extras["symmetry_generators"] == 1
        assert r.extras["blocks_solved"] < r.extras["blocks_total"] == 128
        assert r.kernel_dim == ref.kernel_dim == expected
        assert abs(r.gap - ref.gap) <= 1e-12 * ref.gap
        assert r.extras["min_block"] == ref.extras["min_block"]

        # the dropped rotation is no symmetry: kept anyway, it joins blocks
        # whose spectra differ
        monkeypatch.setattr(master, "_is_symmetry", lambda lrep, perm: True)
        spectra = block_spectra(lrep)
        assert np.abs(spectra - spectra[block_orbits(lrep).rep]).max() > 1e-6

    def test_full_symmetry_matches_unreduced_solve(self):
        for model in (build_ising_ring(5), build_toric_code(2)):
            lrep = build_generator(model, tp=ThermalParams.from_betaJ(1.0))
            r = gap_from_blocks(lrep, expected_kernel=1, inventory=True)
            ref = unreduced_block_gap(lrep, expected_kernel=1)
            assert abs(r.gap - ref.gap) <= 1e-12 * ref.gap
            assert r.extras["min_block"] == ref.extras["min_block"]
            assert len(r.extras["blocks"]) == r.extras["blocks_total"]


PIECE_MODELS = {**{f"ring{n}": (lambda n=n: build_ising_ring(n)) for n in range(3, 9)},
                "torus2": lambda: build_toric_code(2)}


class TestPieceSpectra:
    @pytest.mark.parametrize("betaJ", [0.25, 1.0])
    @pytest.mark.parametrize("name", list(PIECE_MODELS))
    def test_pieces_match_whole_blocks(self, name, betaJ):
        lrep = build_generator(PIECE_MODELS[name](), tp=ThermalParams.from_betaJ(betaJ))
        labels = block_labels(lrep.frame)
        reps = np.unique(block_orbits(lrep).rep)
        charge = master.ChargeBlocks(lrep)
        vals, _, _, info = _piece_spectra(charge.union(reps),
                                          np.full(reps.size, labels[0].dim),
                                          spectral.DENSE_DIM_CAP)
        want = block_spectra(lrep)[reps]
        scale = np.abs(want).max()
        assert np.abs(vals.reshape(want.shape) - want).max() <= 1e-12 * scale
        # the inventory solves every representative; the default path screens some
        r = gap_from_blocks(lrep, inventory=True)
        assert (r.extras["pieces"], r.extras["largest_piece"]) == \
            (info["pieces"], info["largest_piece"])
        assert len(reps) <= info["pieces"] <= want.size

    def test_no_stack_exceeds_the_largest_piece(self, monkeypatch):
        stacks = []
        real_eigvalsh = np.linalg.eigvalsh

        def recording(a, *args, **kwargs):
            stacks.append(a.shape)
            return real_eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording)
        for op in (abelian_chain_hamiltonian(11, ThermalParams.from_betaJ(0.35)).matrix,
                   build_generator(build_ising_ring(6), tp=ThermalParams.from_betaJ(0.25))):
            stacks.clear()
            fn = gap if isinstance(op, master.SparseMatrix) else gap_from_blocks
            extras = fn(op).extras
            # the chain's two parity halves one at a time; small pieces in 256^2 stacks
            bound = max(extras["largest_piece"], 256) ** 2
            assert all(np.prod(shape) <= bound for shape in stacks)
            # every piece solved once
            assert sum(shape[0] for shape in stacks) == extras["pieces"]

    def test_gap_counts_pieces(self):
        r = gap(np.diag([0.0, 5.0, 7.0]))
        assert (r.extras["pieces"], r.extras["largest_piece"]) == (3, 1)
        chain = abelian_chain_hamiltonian(11, ThermalParams.from_betaJ(0.35))
        r = gap(chain.matrix)
        # the parity halves
        assert r.extras["pieces"] == 2
        assert r.extras["largest_piece"] == 1024
        assert set(r.extras["stages"]) == {"split_s", "eigensolve_s", "residual_s"}

    def test_torus_assembles_only_its_representatives(self, monkeypatch):
        lrep = build_generator(build_toric_code(2), tp=ThermalParams.from_betaJ(0.25))
        reps = np.unique(block_orbits(lrep).rep)
        assembled = []
        real_union = master.ChargeBlocks.union

        def recording(self, index):
            assembled.extend(np.asarray(index).tolist())
            return real_union(self, index)

        monkeypatch.setattr(master.ChargeBlocks, "union", recording)
        r = gap_from_blocks(lrep, inventory=True)
        assert r.extras["blocks_solved"] == reps.size == 116
        assert assembled[:reps.size] == reps.tolist()  # then at most the residual's rebuild
        assert set(assembled) == set(reps.tolist())
        assembled.clear()
        r = gap_from_blocks(lrep)
        # the assembled blocks are the solved representatives
        assert set(assembled) <= set(reps.tolist())
        assert len(set(assembled)) == r.extras["blocks_solved"] == 13
        assert r.extras["blocks_solved"] + r.extras["blocks_screened"] == reps.size


    def test_batches_stream_one_at_a_time(self, monkeypatch):
        # ring 6 in batches of at most two blocks, with and without the
        # inventory: each solved block is built once, and the gap's batch
        # (flip 0, Z) at most once more, for the residual
        lrep = build_generator(build_ising_ring(6), tp=ThermalParams.from_betaJ(0.25))
        whole = gap_from_blocks(lrep)
        reps = np.unique(block_orbits(lrep).rep).tolist()
        built = []
        real_union = master.ChargeBlocks.union

        def recording(self, index):
            built.append(np.asarray(index).tolist())
            return real_union(self, index)

        monkeypatch.setattr(master.ChargeBlocks, "union", recording)
        monkeypatch.setattr(spectral, "_BATCH_NODES", 64)
        for inventory in (False, True):
            built.clear()
            r = gap_from_blocks(lrep, inventory=inventory)
            assert whole.extras["min_block"] == r.extras["min_block"] == \
                {"flip": 0, "sector": "Z", "dim": 32}
            assert (r.gap, r.kernel_dim, r.residual) == \
                (whole.gap, whole.kernel_dim, whole.residual)
            assert all(len(b) <= 2 for b in built)
            solves = built[:-1] if built[-1] in built[:-1] else built
            once = sum(solves, [])
            assert len(once) == len(set(once)) == r.extras["blocks_solved"]
            if inventory:  # one round of every representative, in full batches
                assert once == reps and len(solves) == 13
            else:
                assert set(once) < set(reps) and len(solves) >= 2

    def test_residual_rebuilds_a_batch_it_dropped(self, monkeypatch):
        # one block per batch and a kernel threshold of 0.05 * lambda_max: a
        # later batch raises lambda_max past the least eigenvalue above the
        # kernel of the batch held so far, so the residual builds the gap's
        # batch once more, and the report is still that of every block
        lrep = build_generator(build_ising_ring(6), tp=ThermalParams.from_betaJ(1.0))
        monkeypatch.setattr(spectral, "KERNEL_RTOL", 0.05)
        monkeypatch.setattr(spectral, "_BATCH_NODES", 32)
        every = gap_from_blocks(lrep, inventory=True)
        built = []
        real_union = master.ChargeBlocks.union

        def recording(self, index):
            built.append(np.asarray(index).tolist())
            return real_union(self, index)

        monkeypatch.setattr(master.ChargeBlocks, "union", recording)
        r = gap_from_blocks(lrep)
        assert built[-1] in built[:-1]
        assert len(built) - 1 == r.extras["blocks_solved"]
        assert _result(r) == _result(every)


SCREEN_MODELS = {**{f"ring{n}": (lambda n=n: build_ising_ring(n)) for n in range(3, 11)},
                 "torus2": lambda: build_toric_code(2)}


def _result(r: GapReport) -> tuple:
    return (r.gap.hex(), r.kernel_dim, r.residual.hex(),
            [x.hex() for x in r.near_threshold], r.extras["min_block"])


class TestSectorScreening:
    """gap_from_blocks solves only the sectors whose Gershgorin bounds can
    hold the kernel, the gap or lambda_max."""

    @pytest.mark.parametrize("name", list(SCREEN_MODELS))
    def test_screening_keeps_every_result(self, name):
        # bit for bit the report of solving every representative (inventory)
        model = SCREEN_MODELS[name]()
        for betaJ in (0.0, 0.25, 0.5, 1.0, 2.0, 3.0):
            lrep = build_generator(model, tp=ThermalParams.from_betaJ(betaJ))
            screened, every = gap_from_blocks(lrep), gap_from_blocks(lrep, inventory=True)
            assert _result(screened) == _result(every)
            assert every.extras["blocks_screened"] == 0
            assert every.extras["screen_margin"] is None
            assert screened.extras["blocks_screened"] > 0
            assert screened.extras["screen_margin"] > spectral.KERNEL_RTOL
            assert screened.extras["blocks_solved"] + screened.extras["blocks_screened"] == \
                every.extras["blocks_solved"]

    @pytest.mark.parametrize("model", [build_ising_ring(8), build_toric_code(2)],
                             ids=["ring8", "torus2"])
    def test_screened_blocks_are_never_assembled_or_solved(self, model, monkeypatch):
        lrep = build_generator(model, tp=ThermalParams.from_betaJ(0.25))
        reps = np.unique(block_orbits(lrep).rep)
        spectra = block_spectra(lrep)
        assembled, solved_nodes = set(), []
        real_union, real_eigvalsh = master.ChargeBlocks.union, np.linalg.eigvalsh

        def union(self, index):
            assembled.update(np.asarray(index).tolist())
            return real_union(self, index)

        def eigvalsh(a, *args, **kwargs):
            solved_nodes.append(a.shape[0] * a.shape[1])
            return real_eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(master.ChargeBlocks, "union", union)
        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        r = gap_from_blocks(lrep)
        screened = sorted(set(reps.tolist()) - assembled)
        assert len(screened) == r.extras["blocks_screened"] > 0
        # eigvalsh sees the nodes of the solved blocks, each once, and no other
        assert sum(solved_nodes) == r.extras["blocks_solved"] * spectra.shape[1]
        # a screened block holds no kernel, gap or lambda_max
        assert (spectra[screened, 0] > r.gap).all()
        assert (spectra[screened, -1] < spectra.max()).all()


class TestResidual:
    """The gap's residual comes from one LU of the piece shifted by the gap,
    with no second eigensolver call."""

    @pytest.fixture(autouse=True)
    def no_eigh(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eigh called")

        monkeypatch.setattr(sla, "eigh", refuse)
        monkeypatch.setattr(np.linalg, "eigh", refuse)

    @pytest.mark.parametrize("n, tp", [(8, ThermalParams.from_betaJ(0.35)),
                                       (3, ThermalParams(beta=0.0))])  # gap exactly 1
    def test_chain(self, n, tp):
        r = gap(abelian_chain_hamiltonian(n, tp), expected_kernel=2)
        assert r.residual < 1e-12

    @pytest.mark.parametrize("model, betaJ", [(build_ising_ring(6), 0.25),
                                              (build_toric_code(2), 0.25),
                                              (build_ising_ring(3), 0.0)])  # gap exactly 4
    def test_certify(self, model, betaJ):
        r = certify(model, ThermalParams.from_betaJ(betaJ))
        assert r.residual < 1e-12

    @pytest.mark.parametrize("piece, g", [
        (np.diag([0.0, 1.0, 4.0]), 1.0),
        (np.array([[2.0, 1j], [-1j, 2.0]]), 1.0)])  # LU pivots 1, then exactly 0
    def test_exact_eigenvalue_shift(self, piece, g):
        # B - g I is exactly singular: the zero pivot becomes eps * scale
        assert spectral._residual(master.SparseMatrix.of(piece), g, 4.0) < 1e-15


def _certify_with_rates(model, tp, rates, frame):
    from daviesgap.spectral import analytic_bounds, gap_from_blocks
    lrep = build_generator(model, tp=tp, frame=frame, rates=rates)
    r = gap_from_blocks(lrep)
    bound = analytic_bounds(tp)["generator_gap"]
    if r.gap < bound:
        raise BoundViolationError("gap below certified bound")
    return r


class TestGapLemmaInvariants:
    def test_dropping_summands_lowers_the_gap(self, ising3, ising3_frame):
        # Gap(A+B) >= Gap(B) when the kernels agree: drop the z couplings
        tp = ThermalParams.from_betaJ(0.25)
        xy = [PauliString.single(3, j, k) for k in "XY" for j in range(3)]
        z = [PauliString.single(3, j, "Z") for j in range(3)]
        k_xy = to_master(build_generator(ising3, couplings=xy, tp=tp,
                                         frame=ising3_frame)).rep.dense()
        k_full = to_master(build_generator(ising3, couplings=xy + z, tp=tp,
                                           frame=ising3_frame)).rep.dense()
        r_xy = gap(k_xy)
        r_full = gap(k_full)
        assert r_xy.kernel_dim == r_full.kernel_dim == 1
        assert r_full.gap >= r_xy.gap - 1e-12

    def test_commuting_summands_min_rule_on_torus(self, toric2, toric2_frame):
        tp = ThermalParams.from_betaJ(0.25)
        cx = [PauliString.single(8, j, "X") for j in range(8)]
        cz = [PauliString.single(8, j, "Z") for j in range(8)]
        lx = build_generator(toric2, couplings=cx, tp=tp, frame=toric2_frame)
        lz = build_generator(toric2, couplings=cz, tp=tp, frame=toric2_frame)
        lfull = build_generator(toric2, couplings=cx + cz, tp=tp,
                                frame=toric2_frame)
        kx, kz = to_master(lx), to_master(lz)
        # the two halves commute
        rng = np.random.default_rng(0)
        v = rng.standard_normal(kx.matrix.shape[0])
        comm = kx.matrix @ (kz.matrix @ v) - kz.matrix @ (kx.matrix @ v)
        assert np.linalg.norm(comm) < 1e-10 * np.linalg.norm(v)
        g_x = gap_from_blocks(lx)
        g_z = gap_from_blocks(lz)
        g_full = gap_from_blocks(lfull)
        assert g_full.gap >= min(g_x.gap, g_z.gap) - 1e-10
        assert g_x.kernel_dim == g_z.kernel_dim == 32
        assert g_full.kernel_dim == 1

    def test_component_commutes_with_hamiltonian_part(self, ising3,
                                                      ising3_frame):
        from oracles import apply_component, delta_diagonal
        tp = ThermalParams.from_betaJ(0.3)
        lrep = build_generator(ising3, tp=tp, frame=ising3_frame)
        delta = delta_diagonal(lrep).reshape((8, 8), order="F")
        rng = np.random.default_rng(1)
        x = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        lx = apply_component(lrep, 1, x, omega=4.0)
        assert np.abs(delta * lx - apply_component(lrep, 1, delta * x,
                                                   omega=4.0)).max() < 1e-10

    def test_mixed_coupling_set_is_ergodic(self, ising3, ising3_frame):
        # x everywhere, y on one site, z everywhere
        couplings = [PauliString.single(3, j, "X") for j in range(3)]
        couplings.append(PauliString.single(3, 0, "Y"))
        couplings += [PauliString.single(3, j, "Z") for j in range(3)]
        lrep = build_generator(ising3, couplings=couplings,
                               tp=ThermalParams(beta=0.0), frame=ising3_frame)
        r = gap_from_blocks(lrep, expected_kernel=1)
        assert r.kernel_dim == 1


class TestSweep:
    def test_csv_output_and_margins(self, tmp_path):
        reports = sweep("ising", [3, 4], [0.0, 0.25])
        assert len(reports) == 4
        assert all(r.margin > 0 for r in reports)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(reports, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("model,N_or_L,betaJ,gap,bound,margin")
        assert len(lines) == 5

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_sweep_csv(sweep("ising", [3], [0.25]), a)
        write_sweep_csv(sweep("ising", [3], [0.25]), b)
        ta, tb = a.read_text(), b.read_text()
        # timing column differs; compare everything else
        strip = lambda text: [",".join(l.split(",")[:-1]) for l in text.splitlines()]
        assert strip(ta) == strip(tb)
