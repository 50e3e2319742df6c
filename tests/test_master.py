import numpy as np
import pytest
import scipy.sparse as sp

import daviesgap.master as master_module
from daviesgap.davies import (ThermalParams, build_generator, GeneratorError,
                              liouville_matrix)
from daviesgap.master import (ChargeBlocks, XBlockSpec, block_label_of,
                              block_labels, block_orbits, sector_index,
                              sign_flip_restriction)
from daviesgap.models import build_ising_ring, build_toric_code
from daviesgap.pauli import PauliString
from oracles import (block_spectra, full_space_gap, sector_isometries, to_master,
                     sector_blocks as oracle_sector_blocks)


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
        dim = ising3_frame.dim
        for label in block_labels(ising3_frame)[:8]:
            w = sector_isometries(ising3_frame, label.flip, label.mu)[label.nu]
            basis = np.zeros((dim * dim, label.dim), dtype=complex)
            basis[sector_index(ising3_frame, label.flip, label.mu)] = w
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
            v = frame.matrix_of(p).toarray().reshape(-1, order="F")
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
                for nu, block in enumerate(charge.sector_blocks(flip, mu)):
                    assert np.abs(w[nu].conj().T @ direct @ w[nu]
                                  - block.toarray()).max() < 1e-12
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
            assert got.dtype == ref.dtype
            for field in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(got, field), getattr(ref, field))


def _orbit_lrep(case):
    return build_generator(ORBIT_CASES[case](), tp=ThermalParams.from_betaJ(0.25))


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
                    == block_label_of(frame, p.permuted(perm)).index, p.to_label()


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
