import numpy as np
import pytest
import scipy.sparse as sp

from daviesgap.davies import ThermalParams, build_generator, GeneratorError
from daviesgap.master import (XBlockSpec, block_basis, block_decompose,
                              block_label_of, block_labels,
                              block_offdiagonal_defect, sign_flip_restriction,
                              to_master)
from daviesgap.models import build_ising_ring
from daviesgap.pauli import PauliString


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
            ev_l = np.sort(np.linalg.eigvals(lrep.dense()).real)
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
        _, master = ising3_master
        for label in block_labels(ising3_frame)[:8]:
            basis = block_basis(ising3_frame, label)
            gram = (basis.conj().T @ basis).toarray()
            assert np.abs(gram - np.eye(label.dim)).max() < 1e-12
            assert block_offdiagonal_defect(master.rep, label) < 1e-12

    def test_block_spectra_reproduce_full_spectrum(self, ising3_master):
        _, master = ising3_master
        blocks = block_decompose(master)
        vals = np.sort(np.concatenate(
            [np.linalg.eigvalsh(rep.dense()) for _, rep in blocks]))
        full = np.linalg.eigvalsh(master.rep.dense())
        assert np.abs(vals - full).max() < 1e-10

    def test_min_block_gap_equals_full_gap_n5(self):
        from daviesgap.spectral import gap, gap_from_blocks
        m = build_ising_ring(5)
        lrep = build_generator(m, tp=ThermalParams.from_betaJ(0.25))
        master = to_master(lrep)
        by_blocks = gap_from_blocks(master)
        dense = gap(master)
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
        every = sp.hstack([block_basis(frame, l) for l in labels], format="csc")
        for p in strings:
            v = frame.matrix_of(p).toarray().reshape(-1, order="F")
            coeff = every.conj().T @ v
            hit = {labels[c // labels[0].dim]
                   for c in np.flatnonzero(np.abs(coeff) > 1e-9)}
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
        out = (lrep.matrix @ x.reshape(-1, order="F")).reshape((d, d), order="F")
        want = 0.5 * (tp.h_minus + tp.h_zero) * x
        assert np.abs(out - want).max() < 1e-13


@pytest.fixture(scope="module")
def toric_x_master(toric2, toric2_frame):
    tp = ThermalParams.from_betaJ(0.25)
    couplings = [PauliString.single(8, j, "X") for j in range(8)]
    lrep = build_generator(toric2, couplings=couplings, tp=tp,
                           frame=toric2_frame)
    return to_master(lrep)


class TestSignFlipRestriction:
    def test_trivial_block_unmodified(self, toric_x_master):
        rep = sign_flip_restriction(toric_x_master, XBlockSpec(), check=True)
        assert rep.matrix.shape == (64, 64)
        evals = np.linalg.eigvalsh(rep.matrix)
        assert evals[0] > -1e-12 * evals[-1]

    def test_z1_block_matches_projection(self, toric_x_master, toric2):
        rep0 = sign_flip_restriction(toric_x_master, XBlockSpec(), check=False)
        rep1 = sign_flip_restriction(toric_x_master, XBlockSpec(nu=1),
                                     check=True)
        # the d1 loop sites flip sandwich signs, so the block changes
        assert np.abs(rep0.dense() - rep1.dense()).max() > 1e-6

    def test_star_flip_block_matches_projection(self, toric_x_master, toric2):
        comb_site = toric2.partition.comb[0]
        sign_flip_restriction(toric_x_master,
                              XBlockSpec(star_flip_sites=(comb_site,)),
                              check=True)

    def test_flip_on_ising_rejected(self, ising3_master):
        _, master = ising3_master
        with pytest.raises(GeneratorError):
            sign_flip_restriction(master, XBlockSpec(), check=False)
