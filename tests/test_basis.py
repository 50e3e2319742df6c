"""The label-arithmetic frame against the dense group-average construction.

The reference builds every joint eigenvector as a dense column,

    |u> = 2^{-kx/2} sum_a (-1)^{a . xs(u)} |ref(u) ^ M a>,

with ref(u) solved label by label, and reads each Pauli string's action from
V^dag P V; the frame must reproduce it without ever forming V.
"""

import dataclasses

import numpy as np
import pytest

from daviesgap.basis import build_frame
from daviesgap.davies import default_couplings
from daviesgap.models import ModelError, build_ising_ring, build_toric_code
from daviesgap.pauli import PauliString, gf2_solve, mask_arrays
from oracles import fourier_decompose, matrix_of, pauli_from_label

SNAP = 1e-10


def reference_vectors(model, frame) -> np.ndarray:
    """(dim, dim) unitary; column u is the group-averaged eigenvector u."""
    n = model.n_sites
    dim = 1 << n
    gens = [model.stabilizers[i] for i in frame.indep]
    x_masks = [g.x_mask for g in gens if g.z_mask == 0]
    z_rows = [g.z_mask for g in gens if g.x_mask == 0] + \
             [lz.z_mask for _, lz in model.logicals]
    kx = len(x_masks)
    vectors = np.zeros((dim, dim), dtype=complex)
    for u in range(dim):
        x_synd, z_labels = u & ((1 << kx) - 1), u >> kx
        ref = gf2_solve(z_rows, [(z_labels >> i) & 1 for i in range(len(z_rows))], n)
        for a in range(1 << kx):
            mask = 0
            for i in range(kx):
                if (a >> i) & 1:
                    mask ^= x_masks[i]
            sign = 1.0 - 2.0 * ((a & x_synd).bit_count() & 1)
            vectors[ref ^ mask, u] = sign * 2.0 ** (-kx / 2.0)
    return vectors


def reference_genperm(vectors, p: PauliString):
    """perm, phase read off the dense V^dag P V with dust snapped away."""
    m = vectors.conj().T @ (p.matrix().toarray() @ vectors)
    m[np.abs(m) < SNAP] = 0.0
    cols, rows = np.nonzero(m.T)
    assert np.array_equal(cols, np.arange(len(m))), "not a generalized permutation"
    phase = m[rows, cols]
    snapped = np.round(phase.real) + 1j * np.round(phase.imag)
    assert np.abs(phase - snapped).max() < 1e-9
    return rows, snapped


CASES = {
    "ring3": lambda: build_ising_ring(3),
    "ring4": lambda: build_ising_ring(4),
    "ring5": lambda: build_ising_ring(5),
    "ring6": lambda: build_ising_ring(6),
    "torus2": lambda: build_toric_code(2),
}


@pytest.fixture(scope="module", params=list(CASES))
def case(request):
    model = CASES[request.param]()
    frame = build_frame(model)
    return model, frame, reference_vectors(model, frame)


def _strings(model, seed=0, count=50):
    """Stabilizers, logicals, default couplings and seeded random phased strings."""
    n = model.n_sites
    rng = np.random.default_rng(seed)
    out = list(model.stabilizers)
    out += [op for pair in model.logicals for op in pair]
    out += default_couplings(model)
    out += [PauliString(n, int(x), int(z), int(ph)) for x, z, ph
            in rng.integers(0, [1 << n, 1 << n, 4], size=(count, 3))]
    return out


class TestAgainstDenseFrame:
    def test_reference_is_unitary(self, case):
        _, frame, v = case
        assert np.abs(v.conj().T @ v - np.eye(frame.dim)).max() < 1e-12

    def test_genperm_identical(self, case):
        # one string at a time, then all strings in one stacked call
        model, frame, v = case
        strings = _strings(model)
        stacked_perm, stacked_phase = frame.genperm_of(*mask_arrays(strings))
        assert stacked_perm.shape == stacked_phase.shape == (len(strings), frame.dim)
        for p, row_perm, row_phase in zip(strings, stacked_perm, stacked_phase):
            want_perm, want_phase = reference_genperm(v, p)
            perm, phase = frame.genperm_of(p.x_mask, p.z_mask, p.phase)
            for got_perm, got_phase in ((perm, phase), (row_perm, row_phase)):
                assert np.array_equal(got_perm, want_perm), p.to_label()
                assert np.array_equal(got_phase, want_phase), p.to_label()

    def test_labels_and_signs(self, case):
        model, frame, v = case
        for i, s in enumerate(model.stabilizers):
            assert np.array_equal(frame.stab_signs[i], reference_genperm(v, s)[1])
        for i, (lx, lz) in enumerate(model.logicals):
            z_sign = reference_genperm(v, lz)[1].real
            assert np.array_equal(frame.logical_bits[i], (1 - z_sign) // 2)
            perm, phase = reference_genperm(v, lx)
            assert np.array_equal(frame.x_perm[i], perm)
            assert np.array_equal(frame.x_phase[i], phase)

    def test_matrix_of_jump_components(self, case):
        model, frame, v = case
        worst = 0.0
        for coupling in default_couplings(model):
            for _, op in fourier_decompose(coupling, model).components:
                want = v.conj().T @ (op.matrix().toarray() @ v)
                worst = max(worst, np.abs(matrix_of(frame, op).toarray() - want).max())
        assert worst < 1e-12


class TestFrameRejections:
    def test_non_css_stabilizer(self, ising3):
        bad = dataclasses.replace(
            ising3, stabilizers=[pauli_from_label("YYI")] + ising3.stabilizers[1:])
        with pytest.raises(ModelError, match="pure-x/pure-z"):
            build_frame(bad)

    def test_dependent_z_labels(self, ising3):
        lx, _ = ising3.logicals[0]
        bad = dataclasses.replace(ising3, logicals=[(lx, ising3.stabilizers[0])])
        with pytest.raises(ModelError, match="z-type label system inconsistent"):
            build_frame(bad)

    def test_logical_anticommuting_with_a_star(self, toric2):
        # a single-site Z is independent of the plaquettes but flips two stars
        lx, _ = toric2.logicals[1]
        bad = dataclasses.replace(
            toric2, logicals=[toric2.logicals[0], (lx, PauliString.single(8, 1, "Z"))])
        with pytest.raises(ModelError, match="not diagonal in the frame"):
            build_frame(bad)
