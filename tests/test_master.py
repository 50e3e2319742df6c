from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.sparse.csgraph import connected_components

import daviesgap.master as master_module
from daviesgap.basis import build_frame
from daviesgap.davies import (ThermalParams, build_generator, GeneratorError,
                              liouville_matrix)
from daviesgap.master import (BlockLabel, ChargeBlocks, SparseMatrix, XBlockSpec, _components,
                              _snake_strings, block_label_of, block_orbits, sign_flip_restriction)
from daviesgap.models import build_ising_ring, build_toric_code
from daviesgap.pauli import PauliString
from oracles import (block_basis, block_labels, block_spectra, csr, full_space_gap, matrix_of,
                     permuted, reference_block_orbits, sector_discs, sector_index,
                     sector_isometries, to_master, sector_blocks as oracle_sector_blocks)


@pytest.fixture(scope="module")
def ising3_master(ising3, ising3_frame):
    tp = ThermalParams.from_betaJ(0.5)
    lrep = build_generator(ising3, tp=tp, frame=ising3_frame)
    return lrep, to_master(lrep)


class TestMasterTransform:
    def test_kernel_witness(self, ising3_master):
        _, master = ising3_master
        norm = np.abs(master.matrix.toarray()).max()
        assert master.kernel_residual() < 1e-12 * norm

    def test_spectra_agree_with_generator(self, ising3, ising3_frame):
        for betaJ in (0.0, 0.5):
            lrep = build_generator(ising3, tp=ThermalParams.from_betaJ(betaJ),
                                   frame=ising3_frame)
            master = to_master(lrep)
            ev_l = np.sort(np.linalg.eigvals(liouville_matrix(lrep).toarray()).real)
            ev_k = np.linalg.eigvalsh(master.rep.dense())
            assert np.abs(ev_l - ev_k).max() < 1e-10

    def test_hermitian_psd(self, ising3_master):
        _, master = ising3_master
        dense = master.rep.dense()
        assert np.abs(dense - dense.conj().T).max() < 1e-12
        evals = np.linalg.eigvalsh(dense)
        assert evals[0] > -1e-10 * evals[-1]

    def test_each_component_psd_and_kills_witness(self, ising3_master):
        _, master = ising3_master
        total = np.zeros_like(master.rep.dense())
        for i in range(len(master.component_index)):
            comp = master.component(i).toarray()
            evals = np.linalg.eigvalsh((comp + comp.conj().T) / 2)
            assert evals[0] > -1e-12 * max(evals[-1], 1e-300)
            assert np.linalg.norm(comp @ master.kernel_witness) < 1e-12
            total += comp
        assert np.abs(total - master.rep.dense()).max() < 1e-12

    def test_beta_zero_left_right_symmetry(self, ising3, ising3_frame):
        # at infinite temperature swapping left and right action fixes K
        lrep = build_generator(ising3, tp=ThermalParams(beta=0.0),
                               frame=ising3_frame)
        k = to_master(lrep).rep.dense()
        d = ising3_frame.dim
        swap = k.reshape(d, d, d, d).transpose(1, 0, 3, 2).reshape(d * d, d * d)
        assert np.abs(k - swap.conj()).max() < 1e-12

    def test_requires_liouville_input(self, ising3_master):
        _, master = ising3_master
        with pytest.raises(GeneratorError):
            to_master(master.rep)


class TestBlockDecomposition:
    def test_label_inventory(self, ising4_frame):
        labels = block_labels(ising4_frame)
        assert len(labels) == 8 * 4  # flip patterns x logical sectors
        assert sum(l.dim for l in labels) == 4 ** 4

    def test_abelian_block_dimension(self, ising4_frame):
        labels = block_labels(ising4_frame)
        trivial = [l for l in labels if l.flip == 0 and l.sector == "I"]
        assert len(trivial) == 1
        assert trivial[0].dim == 2 ** 3

    def test_bases_are_isometries_and_invariant(self, ising3_master,
                                                ising3_frame):
        # the first 8 blocks: the isometry, embedded in operator space, is
        # orthonormal, and K maps its span into itself
        _, master = ising3_master
        k = master.matrix.tocsc()
        for label in block_labels(ising3_frame)[:8]:
            basis = block_basis(ising3_frame, label).toarray()
            gram = basis.conj().T @ basis
            assert np.abs(gram - np.eye(label.dim)).max() < 1e-12
            coeff = np.random.default_rng(0).standard_normal(label.dim)
            image = k @ (basis @ coeff)
            assert np.linalg.norm(image - basis @ (basis.conj().T @ image)) < 1e-12

    def test_block_spectra_reproduce_full_spectrum(self, ising3_master):
        lrep, master = ising3_master
        charge = ChargeBlocks(lrep)
        vals = np.sort(np.concatenate(
            [np.linalg.eigvalsh(charge.block(label).toarray())
             for label in block_labels(lrep.frame)]))
        full = np.linalg.eigvalsh(master.rep.dense())
        assert np.abs(vals - full).max() < 1e-10

    def test_min_block_gap_equals_full_gap_n5(self):
        from daviesgap.spectral import gap_from_blocks
        m = build_ising_ring(5)
        lrep = build_generator(m, tp=ThermalParams.from_betaJ(0.25))
        by_blocks = gap_from_blocks(lrep)
        dense = full_space_gap(lrep)
        assert abs(by_blocks.gap - dense.gap) < 1e-10
        assert by_blocks.kernel_dim == dense.kernel_dim == 1

    def test_sector_names_single_qubit(self, ising3_frame):
        names = {l.sector for l in block_labels(ising3_frame)}
        assert names == {"I", "X", "Y", "Z"}

    def test_sector_names_two_qubits(self, toric2_frame):
        names = {l.sector for l in block_labels(toric2_frame)}
        assert "Z1X2" in names and "I" in names and len(names) == 16

    def test_toric_block_count_times_dims(self, toric2_frame):
        labels = block_labels(toric2_frame)
        assert len(labels) == 64 * 16
        assert sum(l.dim for l in labels) == 4 ** 8


class TestBlockLabelOf:
    @staticmethod
    def assert_lookup_matches_projection(frame, strings):
        """block_label_of is the only block a string projects onto."""
        labels = block_labels(frame)
        sectors = {(l.flip, l.mu): (sector_index(frame, l.flip, l.mu),
                                    sector_isometries(frame, l.flip, l.mu))
                   for l in labels}
        for p in strings:
            v = matrix_of(frame, p).toarray().reshape(-1, order="F")
            hit = set()
            for label in labels:
                index, w = sectors[label.flip, label.mu]
                if np.abs(w[label.nu].conj().T @ v[index]).max() > 1e-9:
                    hit.add(label)
            assert hit == {block_label_of(frame, p)}, p.to_label()

    def test_every_string_on_ring3(self, ising3_frame):
        self.assert_lookup_matches_projection(
            ising3_frame, [PauliString(3, x, z, 0)
                           for x in range(8) for z in range(8)])

    def test_seeded_sample_on_torus(self, toric2_frame):
        codes = np.random.default_rng(11).choice(1 << 16, size=50,
                                                 replace=False)
        self.assert_lookup_matches_projection(
            toric2_frame, [PauliString(8, int(c) & 0xFF, int(c) >> 8, 0)
                           for c in codes])


def _x_couplings(n):
    return [PauliString.single(n, j, "X") for j in range(n)]


# ring N=3..6 and the torus at betaJ 0.25, plus the degenerate coupling sets
# of criterion 8
ASSEMBLY_CASES = {
    "ring3": (lambda: build_ising_ring(3), None),
    "ring4": (lambda: build_ising_ring(4), None),
    "ring5": (lambda: build_ising_ring(5), None),
    "ring6": (lambda: build_ising_ring(6), None),
    "torus2": (lambda: build_toric_code(2), None),
    "ring3-x": (lambda: build_ising_ring(3), _x_couplings(3)),
    "ring3-z": (lambda: build_ising_ring(3),
                [PauliString.single(3, j, "Z") for j in range(3)]),
    "torus2-x": (lambda: build_toric_code(2), _x_couplings(8)),
}


ORBIT_CASES = {**{f"ring{n}": (lambda n=n: build_ising_ring(n)) for n in range(3, 9)},
               "torus2": lambda: build_toric_code(2)}


class TestDirectAssembly:
    @pytest.mark.parametrize("case", list(ASSEMBLY_CASES))
    def test_sectors_match_full_master(self, case):
        build, couplings = ASSEMBLY_CASES[case]
        lrep = build_generator(build(), couplings=couplings,
                               tp=ThermalParams.from_betaJ(0.25))
        frame = lrep.frame
        k = to_master(lrep).matrix.tocsc()
        charge = ChargeBlocks(lrep)
        covered = np.zeros(frame.dim ** 2, dtype=bool)
        for flip in range(1 << frame.n_indep):
            for mu in range(1 << frame.n_logical):
                index = sector_index(frame, flip, mu)
                columns = k[:, index]
                # K has no entry leaving the sector's matrix units
                assert np.isin(columns.tocoo().row, index).all()
                direct = charge.sector_matrix(flip, mu).toarray()
                assert np.abs(columns[index].toarray() - direct).max() < 1e-12
                # the nu-isometries are orthonormal and together complete
                w = sector_isometries(frame, flip, mu)
                unitary = np.concatenate(list(w), axis=1)
                assert unitary.shape == (frame.dim, frame.dim)
                assert np.abs(unitary.conj().T @ unitary
                              - np.eye(frame.dim)).max() < 1e-12
                m, nk = 1 << frame.n_logical, 1 << frame.n_indep
                first = ((flip << frame.n_logical) | mu) << frame.n_logical
                union = charge.union(first + np.arange(m)).toarray().reshape(m, nk, m, nk)
                for nu in range(m):
                    assert np.abs(w[nu].conj().T @ direct @ w[nu]
                                  - union[nu, :, nu]).max() < 1e-12
                covered[index] = True
        assert covered.all()

    def test_requires_liouville_input(self, ising3_master):
        _, master = ising3_master
        with pytest.raises(GeneratorError):
            ChargeBlocks(master.rep)

    @pytest.mark.parametrize("betaJ", [0.0, 0.25, 1.0])
    @pytest.mark.parametrize("case", list(ORBIT_CASES))
    def test_union_equals_per_sector_oracle_bit_for_bit(self, case, betaJ):
        # every block alone, all blocks in one union and the orbit
        # representatives that gap_from_blocks solves, against the
        # per-sector assembly
        lrep = build_generator(ORBIT_CASES[case](), tp=ThermalParams.from_betaJ(betaJ))
        frame = lrep.frame
        charge = ChargeBlocks(lrep)
        want = [b for flip in range(1 << frame.n_indep) for mu in range(1 << frame.n_logical)
                for b in oracle_sector_blocks(charge, flip, mu)]
        reps = np.unique(block_orbits(lrep).rep)
        pairs = [(charge.union(np.arange(len(want))), sp.block_diag(want, format="csr")),
                 (charge.union(reps), sp.block_diag([want[r] for r in reps], format="csr"))]
        pairs += zip((charge.block(label) for label in block_labels(frame)), want)
        for got, ref in pairs:
            got = csr(got)
            assert got.dtype == ref.dtype
            for field in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(got, field), getattr(ref, field))


    @pytest.mark.parametrize("case", ["ring5", "torus2"])
    def test_shuffled_union_forms_each_sector_once(self, case, monkeypatch):
        # repeats, a shuffled order and one sector's blocks at non-adjacent
        # positions: the union is still the block diagonal of the single
        # blocks, and each distinct sector is formed by one _sector_entries row
        lrep = build_generator(ORBIT_CASES[case](), tp=ThermalParams.from_betaJ(0.25))
        frame, charge = lrep.frame, ChargeBlocks(lrep)
        index = np.random.default_rng(5).permutation(len(block_labels(frame)))[:12]
        split = 3 << (2 * frame.n_logical)  # the first and the last block of one sector
        index = np.concatenate([[split], index, index[:3], [split + (1 << frame.n_logical) - 1]])
        want = sp.block_diag([csr(charge.block(BlockLabel.at(frame, i))) for i in index],
                             format="csr")
        formed = []
        sector_entries = ChargeBlocks._sector_entries

        def recording(self, deltas):
            formed.extend(deltas.tolist())
            return sector_entries(self, deltas)

        monkeypatch.setattr(ChargeBlocks, "_sector_entries", recording)
        got = csr(charge.union(index))
        assert got.dtype == want.dtype
        for field in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, field), getattr(want, field))
        sectors = index >> frame.n_logical
        assert sorted(formed) == sorted(set(frame.state_index(sectors >> frame.n_logical,
                                                              sectors & ((1 << frame.n_logical) - 1))))

    @pytest.mark.parametrize("case", ["ring5", "torus2"])
    def test_union_is_independent_of_the_pass_split(self, case, monkeypatch):
        # one sector per pass, and every sector in one pass
        lrep = build_generator(ORBIT_CASES[case](), tp=ThermalParams.from_betaJ(0.25))
        charge = ChargeBlocks(lrep)
        index = np.arange(len(block_labels(lrep.frame)))
        want = csr(charge.union(index))
        for entries in (1, 2 ** 30):
            monkeypatch.setattr(master_module, "_PASS_ENTRIES", entries)
            got = csr(charge.union(index))
            assert got.dtype == want.dtype
            for field in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(got, field), getattr(want, field))

    def test_signed_union_equals_per_sector_oracle_bit_for_bit(self, toric_x_lrep, toric2):
        # the sign-flipped operator of the torus x generator, on every block
        spec = _x_block_specs(toric2)["two-flips-nu1-mu2"]
        signs = master_module._sandwich_signs(toric2, spec)
        assert (signs < 0).any() and (signs > 0).any()
        charge, frame = ChargeBlocks(toric_x_lrep, signs=signs), toric_x_lrep.frame
        want = [b for flip in range(1 << frame.n_indep) for mu in range(1 << frame.n_logical)
                for b in oracle_sector_blocks(charge, flip, mu)]
        got = csr(charge.union(np.arange(len(want))))
        ref = sp.block_diag(want, format="csr")
        assert got.dtype == ref.dtype
        for field in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, field), getattr(ref, field))


def _orbit_lrep(case):
    return build_generator(ORBIT_CASES[case](), tp=ThermalParams.from_betaJ(0.25))


_VALUES = {  # exact zeros, exact cancellations and entries of any size
    "real": st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1]),
                      st.floats(-1e6, 1e6, allow_subnormal=False)),
    "complex": st.one_of(st.sampled_from([0j, 1 + 0j, -1 + 0j, 1j, 0.1 - 0.1j]),
                         st.complex_numbers(max_magnitude=1e6, allow_nan=False,
                                            allow_infinity=False, allow_subnormal=False)),
}


@st.composite
def _entry_lists(draw, max_entries):
    """(shape, row, col, data) of up to ``max_entries`` entries on a small
    shape, so that most cells repeat."""
    kind = draw(st.sampled_from(sorted(_VALUES)))
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    entries = draw(st.lists(st.tuples(st.integers(0, shape[0] - 1), st.integers(0, shape[1] - 1),
                                      _VALUES[kind]), max_size=max_entries))
    row, col = (np.array([e[i] for e in entries], dtype=np.int64) for i in (0, 1))
    data = np.array([e[2] for e in entries], dtype=complex if kind == "complex" else float)
    return shape, row, col, data


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestSparseMatrix:
    """``SparseMatrix.from_entries`` against scipy's CSR build and, for rows
    of any length, against a loop that sums each cell in input order.
    scipy sorts each row with an unstable sort, which keeps the input order
    of equal cells only in rows of at most 16 entries."""

    @settings(max_examples=300, deadline=None)
    @given(entries=_entry_lists(16), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_scipy_bit_for_bit(self, entries, seed):
        shape, row, col, data = entries
        got = SparseMatrix.from_entries(shape, row, col, data)
        want = sp.csr_matrix((data, (row, col)), shape=shape)
        want.sum_duplicates()
        want.eliminate_zeros()
        want = want.tocoo()
        assert got.shape == want.shape and got.nnz == want.nnz
        assert _same_bits(got.row, want.row.astype(np.int64))
        assert _same_bits(got.col, want.col.astype(np.int64))
        assert _same_bits(got.data, want.data)
        assert _same_bits(got.toarray(), want.toarray())
        assert _same_bits(got.toarray(order="F"), want.toarray(order="F"))
        # a real product is one rounding, as in scipy; scipy's complex product
        # may fuse its multiply-add, so complex ones agree to a few roundings
        rng = np.random.default_rng(seed)
        for v in (rng.standard_normal(shape[1]),
                  rng.standard_normal(shape[1]) + 1j * rng.standard_normal(shape[1])):
            product, reference = got @ v, want.tocsr() @ v
            if not np.iscomplexobj(reference):
                assert _same_bits(product, reference)
            bound = 16 * np.finfo(float).eps * (abs(want.tocsr()) @ abs(v))
            assert product.dtype == reference.dtype
            assert (abs(product - reference) <= bound).all()

    @settings(max_examples=200, deadline=None)
    @given(entries=_entry_lists(60))
    def test_sums_each_cell_in_input_order(self, entries):
        shape, row, col, data = entries
        cells = {}
        for r, c, v in zip(row.tolist(), col.tolist(), data):
            cells[r, c] = cells[r, c] + v if (r, c) in cells else v
        keys = sorted(key for key, v in cells.items() if v != 0)
        got = SparseMatrix.from_entries(shape, row, col, data)
        assert got.row.tolist() == [r for r, _ in keys]
        assert got.col.tolist() == [c for _, c in keys]
        assert _same_bits(got.data, np.array([cells[key] for key in keys], dtype=data.dtype))
        assert got.tocoo() is got and SparseMatrix.of(got) is got

    def test_dense_and_scipy_inputs_and_bad_shapes(self):
        a = np.array([[0.0, 2.0, 0.0], [1.0, 0.0, -0.0]])
        for given_matrix in (a, sp.csr_matrix(a), sp.coo_matrix(a)):
            m = SparseMatrix.of(given_matrix)
            assert m.shape == (2, 3) and m.row.tolist() == [0, 1] and m.col.tolist() == [1, 0]
            assert _same_bits(m.toarray(), a + 0.0)
        with pytest.raises(ValueError, match=r"shape \(3,\)"):
            SparseMatrix.of(np.ones(3))
        with pytest.raises(ValueError, match="outside the shape"):
            SparseMatrix.from_entries((2, 2), [0, 2], [0, 0], [1.0, 1.0])
        with pytest.raises(ValueError, match="cannot multiply"):
            SparseMatrix.of(a) @ np.ones(2)


class TestComponents:
    """``_components`` against scipy's ``connected_components``, label for label,
    on edge lists: directed, repeated and self-loop edges, and the edges of a
    matrix's canonical ``SparseMatrix`` form (no stored zero, imaginary entries
    kept).  scipy counts a stored zero as an edge and drops imaginary parts, so
    a matrix is given to it as its boolean pattern."""

    @staticmethod
    def _agree(n, a, b, pattern=None):
        count, labels = _components(n, a, b)
        if pattern is None:
            pattern = sp.csr_matrix((np.ones(len(a)), (a, b)), shape=(n, n))
        want_count, want = connected_components(pattern, directed=False)
        assert count == want_count
        assert np.array_equal(labels, want)
        return count, labels

    def _agree_matrix(self, matrix):
        m = SparseMatrix.of(matrix)
        return self._agree(m.shape[0], m.row, m.col, pattern=matrix != 0)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_hermitian_patterns(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 400))
        m = int(rng.integers(0, 2 * n))
        rows, cols = rng.integers(0, n, m), rng.integers(0, n, m)
        half = sp.csr_matrix((rng.standard_normal(m) + 1j * rng.standard_normal(m),
                              (rows, cols)), shape=(n, n))
        self._agree_matrix(half + half.conj().T)
        self._agree(n, rows, cols)  # the raw half: directed, repeats and self loops

    def test_imaginary_couplings_are_edges(self):
        # nodes 0-1 and 2-3 coupled only through purely imaginary entries
        a = np.diag([1.0, 2.0, 3.0, 4.0, 5.0]).astype(complex)
        a[0, 1], a[1, 0], a[2, 3], a[3, 2] = 1j, -1j, 2j, -2j
        matrix = sp.csr_matrix(a)
        assert self._agree_matrix(matrix)[1].tolist() == [0, 0, 1, 1, 2]

    def test_isolated_nodes_empty_rows_and_stored_zeros(self):
        # rows 1, 4 and 6 are empty, node 5 only has a stored zero
        rows, cols = np.array([0, 2, 3, 5, 7, 7]), np.array([2, 0, 7, 3, 3, 7])
        data = np.array([1.0, 1.0, 2.0, 0.0, 2.0, 3.0])
        matrix = sp.csr_matrix((data, (rows, cols)), shape=(8, 8))
        assert matrix.nnz == 6  # the zero at (5, 3) is stored
        count, labels = self._agree_matrix(matrix)
        assert (count, labels.tolist()) == (6, [0, 1, 0, 2, 3, 4, 5, 2])
        self._agree_matrix(sp.csr_matrix((8, 8)))
        self._agree(8, [], [])

    @pytest.mark.parametrize("case", ["ring6", "torus2"])
    def test_directed_orbit_image_graphs(self, case):
        orbits = block_orbits(_orbit_lrep(case))
        n_gen, size = orbits.images.shape
        # block i -> its image under each generator: one direction only
        self._agree(size, np.tile(np.arange(size), n_gen), orbits.images.ravel())

    def test_path_of_2000_nodes(self):
        # the longest diameter: in order, and relabeled at random
        n = 2000
        order = np.random.default_rng(11).permutation(n)
        for nodes in (np.arange(n), order):
            assert self._agree(n, nodes[:-1], nodes[1:])[0] == 1


class TestBlockOrbits:
    def test_label_index_is_inventory_order(self, ising4_frame, toric2_frame):
        for frame in (ising4_frame, toric2_frame):
            labels = block_labels(frame)
            assert [label.index for label in labels] == list(range(len(labels)))

    @pytest.mark.parametrize("case", list(ORBIT_CASES))
    def test_members_share_the_representative_spectrum(self, case):
        # brute force: every block solved, against its orbit's first block
        lrep = _orbit_lrep(case)
        spectra = block_spectra(lrep)
        orbits = block_orbits(lrep)
        assert len(orbits.generators) == (4 if case == "torus2" else 2)
        assert np.abs(spectra - spectra[orbits.rep]).max() \
            <= 1e-12 * np.abs(spectra).max()

    @pytest.mark.parametrize("case, solved, total", [
        ("ring7", 36, 256), ("ring8", 60, 512), ("torus2", 116, 1024)])
    def test_orbit_counts(self, case, solved, total):
        rep = block_orbits(_orbit_lrep(case)).rep
        assert rep.size == total
        assert np.unique(rep).size == solved
        # each representative is the first block of its orbit
        assert (rep <= np.arange(total)).all()
        assert (rep[rep] == rep).all()

    @pytest.mark.parametrize("case", [*ORBIT_CASES, "ring6-x-subset"])
    def test_match_the_one_string_reference(self, case):
        if case == "ring6-x-subset":  # the rotation is no symmetry; the reflection is
            couplings = [PauliString.single(6, j, "X") for j in (0, 1, 5)]
            lrep = build_generator(build_ising_ring(6), couplings=couplings,
                                   tp=ThermalParams.from_betaJ(0.25))
        else:
            lrep = _orbit_lrep(case)
        orbits = block_orbits(lrep)
        generators, images, rep = reference_block_orbits(lrep)
        assert len(orbits.generators) == len(generators) >= 1
        assert all(np.array_equal(a, b) for a, b in zip(orbits.generators, generators))
        assert np.array_equal(orbits.images, images)
        assert np.array_equal(orbits.rep, rep)

    @pytest.mark.parametrize("case", ["ring3", "ring6", "ring8", "torus2"])
    def test_label_map_follows_permuted_strings(self, case):
        lrep = _orbit_lrep(case)
        frame = lrep.frame
        n = frame.model.n_sites
        orbits = block_orbits(lrep)
        codes = np.random.default_rng(29).integers(0, 1 << (2 * n), size=40)
        for code in codes:
            p = PauliString(n, int(code) & ((1 << n) - 1), int(code) >> n, 0)
            start = block_label_of(frame, p).index
            for g, perm in enumerate(orbits.generators):
                assert orbits.images[g, start] \
                    == block_label_of(frame, permuted(p, perm)).index, p.to_label()


class TestMixedUnitEigenaction:
    def test_boundary_pair_matrix_unit(self, ising4, ising4_frame):
        # A matrix unit flipping exactly one of a site's two bonds is an
        # eigenvector of that site's term with eigenvalue (h_minus + h0)/2.
        tp = ThermalParams.from_betaJ(0.4)
        coupling = [PauliString.single(4, 1, "X")]  # touches bonds 0 and 1
        lrep = build_generator(ising4, couplings=coupling, tp=tp,
                               frame=ising4_frame)
        frame = ising4_frame
        d = frame.dim
        u = frame.state_index(0b000, 0)       # both bonds satisfied
        v = frame.state_index(0b010, 0)       # bond 1 flipped
        x = np.zeros((d, d), dtype=complex)
        x[u, v] = 1.0
        out = (liouville_matrix(lrep) @ x.reshape(-1, order="F")).reshape(
            (d, d), order="F")
        want = 0.5 * (tp.h_minus + tp.h_zero) * x
        assert np.abs(out - want).max() < 1e-13


@pytest.fixture(scope="module")
def toric_x_lrep(toric2, toric2_frame):
    tp = ThermalParams.from_betaJ(0.25)
    couplings = [PauliString.single(8, j, "X") for j in range(8)]
    return build_generator(toric2, couplings=couplings, tp=tp, frame=toric2_frame)


def _x_block_specs(toric2):
    comb = toric2.partition.comb
    return {"trivial": XBlockSpec(), "nu1": XBlockSpec(nu=1),
            "nu2": XBlockSpec(nu=2), "nu3": XBlockSpec(nu=3),
            "star-flip": XBlockSpec(star_flip_sites=(comb[0],)),
            "two-flips-nu1-mu2": XBlockSpec(star_flip_sites=tuple(comb[:2]),
                                            nu=1, mu=2)}


def _fine_block_labels(model, frame, spec):
    """Charge blocks of F * U * X_L^mu over every sigma_x string U on the snake,
    F the block's star-flip string times its Z logicals."""
    n = model.n_sites
    f = PauliString.from_sites(n, "Z", spec.star_flip_sites)
    x_mu = PauliString.identity(n)
    for i, (lx, lz) in enumerate(model.logicals):
        if (spec.nu >> i) & 1:
            f = f * lz
        if (spec.mu >> i) & 1:
            x_mu = x_mu * lx
    snake = model.partition.snake
    return {block_label_of(frame, f * PauliString.from_sites(
                n, "X", [j for pos, j in enumerate(snake) if (s >> pos) & 1]) * x_mu)
            for s in range(1 << len(snake))}


class TestSignFlipRestriction:
    def test_trivial_block_unmodified(self, toric_x_lrep):
        rep = sign_flip_restriction(toric_x_lrep, XBlockSpec(), check=True)
        assert rep.matrix.shape == (64, 64)
        evals = np.linalg.eigvalsh(rep.matrix)
        assert evals[0] > -1e-12 * evals[-1]

    def test_z1_block_matches_projection(self, toric_x_lrep, toric2):
        rep0 = sign_flip_restriction(toric_x_lrep, XBlockSpec(), check=False)
        rep1 = sign_flip_restriction(toric_x_lrep, XBlockSpec(nu=1),
                                     check=True)
        # the d1 loop sites flip sandwich signs, so the block changes
        assert np.abs(rep0.dense() - rep1.dense()).max() > 1e-6

    def test_star_flip_block_matches_projection(self, toric_x_lrep, toric2):
        comb_site = toric2.partition.comb[0]
        sign_flip_restriction(toric_x_lrep,
                              XBlockSpec(star_flip_sites=(comb_site,)),
                              check=True)

    def test_snake_that_cannot_flip_every_plaquette_rejected(self, toric2):
        # sigma_x on one snake site flips two plaquettes at once, never one alone
        one_site = replace(toric2.partition, snake=toric2.partition.snake[:1])
        with pytest.raises(GeneratorError, match="snake does not span the flip of plaquette"):
            _snake_strings(build_frame(replace(toric2, partition=one_site)))

    @pytest.mark.parametrize("spec, message", [
        (XBlockSpec(nu=4), r"XBlockSpec\.nu holds 4, outside 0\.\.3"),
        (XBlockSpec(mu=-1), r"XBlockSpec\.mu holds -1, outside 0\.\.3"),
        (XBlockSpec(nu=-4), r"XBlockSpec\.nu holds -4, outside 0\.\.3"),
        (XBlockSpec(star_flip_sites=(8,)), r"XBlockSpec\.star_flip_sites holds 8, outside 0\.\.7"),
        (XBlockSpec(star_flip_sites=(99,)), r"XBlockSpec\.star_flip_sites holds 99, outside 0\.\.7"),
        (XBlockSpec(star_flip_sites=(-1,)), r"XBlockSpec\.star_flip_sites holds -1, outside 0\.\.7"),
    ], ids=["nu4", "mu-1", "nu-4", "site8", "site99", "site-1"])
    @pytest.mark.parametrize("check", [True, False])
    def test_spec_out_of_range_rejected(self, toric_x_lrep, spec, message, check):
        with pytest.raises(GeneratorError, match=message):
            sign_flip_restriction(toric_x_lrep, spec, check=check)

    def test_flip_on_ising_rejected(self, ising3_master):
        lrep, _ = ising3_master
        with pytest.raises(GeneratorError):
            sign_flip_restriction(lrep, XBlockSpec(), check=False)

    @pytest.mark.parametrize("name", ["nu1", "star-flip"])
    def test_unsigned_rule_rejected(self, monkeypatch, toric_x_lrep, toric2,
                                    name):
        # with every sandwich sign +1 the intertwining identity must fail
        monkeypatch.setattr(master_module, "_sandwich_signs",
                            lambda model, block: np.ones(model.n_sites))
        with pytest.raises(GeneratorError, match="intertwining defect"):
            sign_flip_restriction(toric_x_lrep, _x_block_specs(toric2)[name],
                                  check=True)

    @pytest.mark.parametrize("name", ["trivial", "nu1", "nu2", "nu3",
                                      "star-flip", "two-flips-nu1-mu2"])
    def test_spectrum_equals_fine_block(self, toric_x_lrep, toric2,
                                        toric2_frame, name):
        spec = _x_block_specs(toric2)[name]
        labels = _fine_block_labels(toric2, toric2_frame, spec)
        assert len(labels) == 8
        charge = ChargeBlocks(toric_x_lrep)
        fine = np.sort(np.concatenate([np.linalg.eigvalsh(charge.block(label).toarray())
                                       for label in labels]))
        rep = sign_flip_restriction(toric_x_lrep, spec, check=False)
        want = np.linalg.eigvalsh(np.kron(np.eye(8), rep.dense()))
        assert np.abs(fine - want).max() < 1e-12


def _assert_bounds_hold(lrep, signs=None):
    """Every block's dense spectrum lies in the sector bounds of its sector,
    plain and narrowed, up to eigvalsh's error, a few dim * eps * ||K||; and
    both bounds lie within the plain Gershgorin discs of the dense sector
    matrix, up to the same slack."""
    frame, ell = lrep.frame, lrep.frame.n_logical
    spectra = block_spectra(lrep, signs)
    sector = np.arange(len(spectra)) >> ell
    charge = ChargeBlocks(lrep, signs=signs)
    deltas = frame.state_index(sector >> ell, sector & ((1 << ell) - 1))
    disc_lo, disc_hi = sector_discs(charge, deltas)
    for lo, hi in (charge.sector_bounds(deltas), charge.narrowed_bounds(deltas)):
        slack = spectra.shape[1] * np.finfo(float).eps * max(abs(lo).max(), abs(hi).max())
        assert (spectra[:, 0] >= lo - slack).all()
        assert (spectra[:, -1] <= hi + slack).all()
        assert (lo >= disc_lo - slack).all()
        assert (hi <= disc_hi + slack).all()


class TestSectorBounds:
    """The Gershgorin bounds that ``gap_from_blocks`` screens sectors by."""

    @pytest.mark.parametrize("betaJ", [0.0, 0.25, 1.0])
    @pytest.mark.parametrize("case", list(ORBIT_CASES))
    def test_bounds_hold_every_block(self, case, betaJ):
        lrep = build_generator(ORBIT_CASES[case](), tp=ThermalParams.from_betaJ(betaJ))
        _assert_bounds_hold(lrep)

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_bounds_hold_under_rate_overrides(self, data):
        model = build_ising_ring(5)
        tp = ThermalParams.from_betaJ(0.5)
        default = build_generator(model, tp=tp).components
        keys = sorted({(c.coupling_index, c.omega) for c in default})
        rates = data.draw(st.lists(st.floats(0.0, 4.0), min_size=len(keys), max_size=len(keys)))
        lrep = build_generator(model, tp=tp, rates=dict(zip(keys, rates)))
        _assert_bounds_hold(lrep)
        # with rates of any size, the terms of one support may be summed in
        # another order than the per-sector reference's: equal to rounding
        frame, charge = lrep.frame, ChargeBlocks(lrep)
        want = [b for flip in range(1 << frame.n_indep) for mu in range(1 << frame.n_logical)
                for b in oracle_sector_blocks(charge, flip, mu)]
        got = charge.union(np.arange(len(want))).toarray()
        ref = sp.block_diag(want).toarray()
        assert abs(got - ref).max() <= 4 * np.finfo(float).eps * abs(ref).max()

    def test_bounds_hold_on_signed_blocks(self, toric_x_lrep, toric2):
        # the sign-flipped operators of sign_flip_restriction, Hermitian too
        for spec in _x_block_specs(toric2).values():
            signs = master_module._sandwich_signs(toric2, spec)
            union = csr(ChargeBlocks(toric_x_lrep, signs=signs).union(np.arange(1024)))
            assert abs(union - union.conj().T).max() == 0
            _assert_bounds_hold(toric_x_lrep, signs)


class TestBoundsPass:
    """The pass that ``sector_bounds`` and ``narrowed_bounds`` read K from."""

    def test_a_pass_covers_many_sectors(self, monkeypatch):
        from daviesgap.spectral import gap_from_blocks
        lrep = build_generator(build_ising_ring(10), tp=ThermalParams.from_betaJ(0.25))
        sectors = np.unique(np.unique(block_orbits(lrep).rep) >> lrep.frame.n_logical)
        passes, discs = [], ChargeBlocks._discs

        def recording(self, deltas):
            for item in discs(self, deltas):
                passes.append(item[0])
                yield item

        monkeypatch.setattr(ChargeBlocks, "_discs", recording)
        gap_from_blocks(lrep)
        assert len(passes) < sectors.size == 78

    @pytest.mark.parametrize("change", ["scaled", "rotated", "dropped"])
    def test_weights_off_the_phase_structure_rejected(self, change):
        # a term scaled off the unit circle, one phase turned on one state, or
        # a coupling's other frequency components dropped, seen by each
        # reader of K on fresh charge blocks
        lrep = build_generator(build_ising_ring(4), tp=ThermalParams.from_betaJ(0.25))
        comps = list(lrep.components)
        i = next(i for i, c in enumerate(comps) if c.omega > 0)
        if change == "scaled":
            comps[i] = replace(comps[i], weights=1.25 * comps[i].weights)
        elif change == "rotated":
            weights = comps[i].weights.copy()
            weights[np.flatnonzero(weights)[-1]] *= 1j
            comps[i] = replace(comps[i], weights=weights)
        else:
            comps = [c for c in comps if c.coupling_index != comps[i].coupling_index
                     or c.omega > 0]
        for read in (lambda charge: charge.sector_bounds(np.arange(4)),
                     lambda charge: charge.union([0]),
                     lambda charge: charge.sector_matrix(0, 0)):
            with pytest.raises(GeneratorError, match="not a phase times a sign character"):
                read(ChargeBlocks(replace(lrep, components=comps)))
