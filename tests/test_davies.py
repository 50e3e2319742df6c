import dataclasses
import importlib
import math
import pkgutil

import numpy as np
import pytest
import scipy.linalg as sla

import daviesgap
import daviesgap.davies as davies
import daviesgap.dynamics as dynamics
import daviesgap.master as master
import daviesgap.spectral as spectral
from daviesgap.davies import (GeneratorError, ThermalParams,
                              build_generator, default_couplings,
                              detailed_balance_residual,
                              dissipativity_identity_check, liouville_matrix,
                              reconstruction_residual, stationarity_residual,
                              _beta_inner)
from daviesgap.basis import StabilizerFrame, build_frame
from daviesgap.models import build_ising_ring, build_toric_code
from daviesgap.pauli import PauliString, PauliSum
from oracles import (apply_component, component_matrix, csr, delta_diagonal,
                     fourier_decompose, frequency_masks, gram_diag, kron_liouville_matrix,
                     matrix_of, reference_components, sum_adjoint, sum_mul, sum_sub,
                     to_master)


class TestThermalParams:
    def test_rate_constants(self):
        tp = ThermalParams.from_betaJ(0.3)
        g = math.exp(-0.6)
        assert abs(tp.gamma - g) < 1e-15
        assert abs(tp.h_plus - 2 / (g * g + 1)) < 1e-15
        assert abs(tp.h_minus - 2 * g * g / (g * g + 1)) < 1e-15
        assert tp.h_zero == 1.0

    def test_sum_rule_of_constants(self):
        for betaJ in (0.0, 0.17, 0.5, 2.0):
            tp = ThermalParams.from_betaJ(betaJ)
            assert abs(tp.h_plus + tp.h_minus - 2 * tp.h_zero) < 1e-14
            assert 0 < tp.gamma <= 1

    def test_rate_reproduces_constants_at_model_frequencies(self):
        tp = ThermalParams.from_betaJ(0.4)
        assert abs(tp.rate(4 * tp.coupling) - tp.h_plus) < 1e-14
        assert abs(tp.rate(-4 * tp.coupling) - tp.h_minus) < 1e-14
        assert abs(tp.rate(0.0) - tp.h_zero) < 1e-14

    def test_balance_relation(self):
        tp = ThermalParams(beta=0.7, coupling=1.3)
        for w in (0.5, 1.0, 4.0):
            assert abs(tp.rate(-w) - math.exp(-tp.beta * w) * tp.rate(w)) < 1e-14

    def test_invalid(self):
        with pytest.raises(GeneratorError):
            ThermalParams(beta=-0.1)


class TestFourierDecompose:
    def test_frequencies_of_flip_coupling(self, ising4):
        js = fourier_decompose(PauliString.single(4, 1, "X"), ising4)
        assert js.frequencies() == [-4.0, 0.0, 4.0]

    def test_commuting_coupling_single_zero_component(self, ising4):
        js = fourier_decompose(PauliString.single(4, 0, "Z"), ising4)
        assert js.frequencies() == [0.0]
        (w, op), = js.components
        assert op.terms == ((1.0, PauliString.single(4, 0, "Z")),)

    def test_projector_form_matches_bond_construction(self, ising4):
        # S(4J) = (1/4)(1 + Z_b)(1 + Z_b') sigma^x_j with bonds at sites (0,1), (1,2)
        js = fourier_decompose(PauliString.single(4, 1, "X"), ising4)
        zb = ising4.stabilizers[0]
        zbp = ising4.stabilizers[1]
        sx = PauliString.single(4, 1, "X")
        half = PauliSum(4, [(0.25, PauliString.identity(4)), (0.25, zb),
                            (0.25, zbp), (0.25, zb * zbp)])
        want = sum_mul(half, sx)
        assert not sum_sub(js.component(4.0), want).terms

    def test_sum_rule(self, ising4, toric2):
        for m in (ising4, toric2):
            for c in default_couplings(m):
                assert fourier_decompose(c, m).sum_rule_defect() == 0

    def test_adjoint_pairing(self, toric2):
        js = fourier_decompose(PauliString.single(8, 3, "X"), toric2)
        assert js.frequencies() == [-4.0, 0.0, 4.0]
        for w, op in js.components:
            assert not sum_sub(sum_adjoint(op), js.component(-w)).terms

    def test_wrong_register_rejected(self, ising4):
        with pytest.raises(GeneratorError):
            fourier_decompose(PauliString.single(5, 0, "X"), ising4)

    def test_evolution_reconstruction_dense(self, ising4, ising4_frame):
        # e^{itH} S e^{-itH} == sum_w e^{-iwt} S(w) at several times
        tp = ThermalParams.from_betaJ(0.3)
        rep = build_generator(ising4, tp=tp, frame=ising4_frame)
        n_couplings = len(default_couplings(ising4))
        for alpha in range(0, n_couplings, 5):
            assert reconstruction_residual(rep, alpha) < 1e-10

    def test_reconstruction_matches_dense_norm(self, ising4, ising4_frame):
        # a perturbed component: the largest entry modulus of the difference
        # is its spectral norm
        rep = build_generator(ising4, tp=ThermalParams.from_betaJ(0.3),
                              frame=ising4_frame)
        i = next(i for i, c in enumerate(rep.components) if c.coupling_index == 2)
        comps = list(rep.components)
        comps[i] = dataclasses.replace(comps[i], weights=1.25 * comps[i].weights)
        rep = dataclasses.replace(rep, components=comps)
        s = matrix_of(ising4_frame, comps[i].coupling).toarray()
        e = ising4_frame.energies
        worst = 0.0
        for t in (0.1, 0.7, 1.3):
            evolved = np.exp(1j * t * e)[:, None] * s * np.exp(-1j * t * e)[None, :]
            recon = sum(np.exp(-1j * c.omega * t) * component_matrix(c).toarray()
                        for c in comps if c.coupling_index == 2)
            worst = max(worst, np.linalg.norm(evolved - recon, 2))
        assert worst > 0.1
        assert abs(reconstruction_residual(rep, 2) - worst) < 1e-12

    def test_reconstruction_rejects_a_foreign_flip(self, ising4, ising4_frame):
        rep = build_generator(ising4, tp=ThermalParams.from_betaJ(0.3),
                              frame=ising4_frame)
        comps = list(rep.components)
        i = next(i for i, c in enumerate(comps) if c.coupling_index == 1)
        comps[i] = dataclasses.replace(comps[i], flip=comps[i].flip ^ 1)
        with pytest.raises(GeneratorError, match=rf"component omega={comps[i].omega:g} "
                                                 r"of coupling 1 \(.*\) flips"):
            reconstruction_residual(dataclasses.replace(rep, components=comps), 1)


class TestGeneratorStructure:
    def test_beta_zero_kernel_is_one_dimensional(self, ising3, ising3_frame):
        rep = build_generator(ising3, tp=ThermalParams(beta=0.0),
                              frame=ising3_frame)
        dense = liouville_matrix(rep).toarray()
        assert np.abs(dense - dense.conj().T).max() < 1e-12
        evals = np.linalg.eigvalsh(dense)
        assert evals[0] > -1e-10 * evals[-1]
        assert int(np.sum(evals < 1e-10 * evals[-1])) == 1

    def test_positive_semidefinite_in_weighted_sense(self, ising3, ising3_frame):
        tp = ThermalParams.from_betaJ(0.5)
        rep = build_generator(ising3, tp=tp, frame=ising3_frame)
        g = gram_diag(rep)
        neg_l = liouville_matrix(rep).toarray()
        sym = np.sqrt(g)[:, None] * neg_l * (1 / np.sqrt(g))[None, :]
        evals = np.linalg.eigvalsh((sym + sym.conj().T) / 2)
        assert evals[0] > -1e-10 * evals[-1]

    def test_detailed_balance(self, ising3, ising3_frame):
        tp = ThermalParams.from_betaJ(0.5)
        rep = build_generator(ising3, tp=tp, frame=ising3_frame)
        assert detailed_balance_residual(rep, samples=50) < 1e-12

    def test_detailed_balance_beta_zero_plain_hermitian(self, ising3, ising3_frame):
        rep = build_generator(ising3, tp=ThermalParams(beta=0.0),
                              frame=ising3_frame)
        assert detailed_balance_residual(rep, samples=20) < 1e-14

    def test_stationarity_of_gibbs_state(self, ising3, ising3_frame):
        tp = ThermalParams.from_betaJ(0.25)
        rep = build_generator(ising3, tp=tp, frame=ising3_frame)
        assert stationarity_residual(rep, samples=50) < 1e-12

    def test_hamiltonian_part_commutes_with_dissipator(self, ising3, ising3_frame):
        tp = ThermalParams.from_betaJ(0.4)
        rep = build_generator(ising3, tp=tp, frame=ising3_frame)
        delta = np.diag(delta_diagonal(rep))
        l = liouville_matrix(rep).toarray()
        assert np.abs(delta @ l - l @ delta).max() < 1e-10 * np.abs(l).max()

    def test_dissipativity_identity(self, ising3, ising3_frame):
        tp = ThermalParams.from_betaJ(0.3)
        rep = build_generator(ising3, tp=tp, frame=ising3_frame)
        assert dissipativity_identity_check(rep, 1, omega=4.0, samples=20) < 1e-12
        assert dissipativity_identity_check(rep, 1, samples=20) < 1e-12

    def test_dissipativity_identity_trivial_on_identity(self, ising3, ising3_frame):
        tp = ThermalParams.from_betaJ(0.3)
        rep = build_generator(ising3, tp=tp, frame=ising3_frame)
        ident = np.eye(ising3_frame.dim, dtype=complex)
        out = apply_component(rep, 0, ident)
        assert np.abs(out).max() < 1e-12

    def test_quadratic_form_at_z_logical(self, ising3, ising3_frame):
        # -<Z, L_x1(Z)> equals twice the thermal weight of the site projectors
        # and is bounded below by 2 h_minus
        tp = ThermalParams.from_betaJ(0.5)
        rep = build_generator(ising3, tp=tp, frame=ising3_frame)
        z = matrix_of(ising3_frame, ising3.logicals[0][1]).toarray()
        val = -_beta_inner(rep.rho, z, apply_component(rep, 0, z))
        assert abs(val.imag) < 1e-12
        bonds = [ising3.stabilizers[2], ising3.stabilizers[0]]  # touch site 0
        proj_plus = 0.25 * ((np.eye(8) - bonds[0].matrix().toarray())
                            @ (np.eye(8) - bonds[1].matrix().toarray()))
        proj_minus = 0.25 * ((np.eye(8) + bonds[0].matrix().toarray())
                             @ (np.eye(8) + bonds[1].matrix().toarray()))
        proj_zero = np.eye(8) - proj_plus - proj_minus
        g_op = (tp.h_plus * proj_plus + tp.h_minus * proj_minus
                + tp.h_zero * proj_zero)
        rho_full = sla.expm(-tp.beta * ising3.hamiltonian().matrix().toarray())
        rho_full /= np.trace(rho_full)
        want = 2 * np.trace(rho_full @ g_op).real
        assert abs(val.real - want) < 1e-12
        assert val.real >= 2 * tp.h_minus - 1e-12

    def test_relaxation_to_gibbs(self, ising3, ising3_frame):
        tp = ThermalParams.from_betaJ(0.25)
        rep = build_generator(ising3, tp=tp, frame=ising3_frame)
        rng = np.random.default_rng(4)
        x = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        x = x + x.conj().T
        prop = sla.expm(-40.0 * liouville_matrix(rep).toarray())
        evolved = (prop @ x.reshape(-1, order="F")).reshape((8, 8), order="F")
        mean = np.sum(rep.rho * np.diagonal(x))
        assert np.abs(evolved - mean * np.eye(8)).max() < 1e-6

    def test_rate_table_override(self, ising3, ising3_frame):
        tp = ThermalParams.from_betaJ(0.25)
        rates = {(alpha, w): 1.0 for alpha in range(9)
                 for w in (-4.0, 0.0, 4.0)}
        rep = build_generator(ising3, tp=tp, frame=ising3_frame, rates=rates)
        assert all(abs(c.rate - 1.0) < 1e-15 for c in rep.components)
        # kernel structure unchanged by rescaling the rates
        dense = liouville_matrix(rep).toarray()
        evals = np.sort(np.linalg.eigvals(dense).real)
        assert int(np.sum(np.abs(evals) < 1e-10 * evals[-1])) == 1

    def test_negative_rate_rejected(self, ising3, ising3_frame):
        with pytest.raises(GeneratorError):
            build_generator(ising3, tp=ThermalParams.from_betaJ(0.1),
                            frame=ising3_frame, rates={(0, 4.0): -1.0})


class TestToricGenerator:
    def test_structural_residuals(self, toric2, toric2_frame):
        tp = ThermalParams.from_betaJ(0.25)
        rep = build_generator(toric2, tp=tp, frame=toric2_frame)
        assert detailed_balance_residual(rep, samples=20) < 1e-12
        assert stationarity_residual(rep, samples=20) < 1e-12
        assert dissipativity_identity_check(rep, 0, samples=5) < 1e-12
        for alpha in (0, 9):
            assert reconstruction_residual(rep, alpha) < 1e-10


COMPONENT_CASES = {**{f"ring{n}": (lambda n=n: build_ising_ring(n)) for n in range(3, 9)},
                   "torus2": lambda: build_toric_code(2),
                   "ring4-nonuniform": lambda: build_ising_ring(
                       4, coefficients=[1.0, 2.0, 0.5, 1.5])}


def _assert_matches_reference(lrep, reference):
    assert len(lrep.components) == len(reference)
    for comp, (alpha, omega, rate, flip, weights, _) in zip(lrep.components,
                                                            reference):
        assert (comp.coupling_index, comp.omega, comp.rate, comp.flip) \
            == (alpha, omega, rate, flip)
        assert np.array_equal(comp.weights, weights)


class TestLabelBuiltComponents:
    """build_generator's components against the PauliSum expansion of
    ``oracles.fourier_decompose`` read through ``oracles.matrix_of``."""

    @pytest.mark.parametrize("name", list(COMPONENT_CASES))
    def test_match_the_pauli_sum_reference_bit_for_bit(self, name):
        model = COMPONENT_CASES[name]()
        frame = build_frame(model)
        tp = ThermalParams.from_betaJ(0.25)
        for letters in ("x", "z", "xz", "xyz"):
            couplings = default_couplings(model, letters)
            lrep = build_generator(model, couplings=couplings, tp=tp, frame=frame)
            _assert_matches_reference(
                lrep, reference_components(model, couplings, frame, tp))

    @pytest.mark.parametrize("letters", ["xyz", "xz", "y"])
    @pytest.mark.parametrize("name", list(COMPONENT_CASES))
    def test_match_the_per_coupling_oracle_bit_for_bit(self, name, letters):
        # the stacked pass over all couplings against one coupling at a time
        model = COMPONENT_CASES[name]()
        frame = build_frame(model)
        couplings = default_couplings(model, letters)
        for betaJ in (0.0, 0.25, 1.0):
            tp = ThermalParams.from_betaJ(betaJ)
            lrep = build_generator(model, couplings=couplings, tp=tp, frame=frame)
            want = [(alpha, omega, tp.rate(omega), flip, weights.tobytes())
                    for alpha, coupling in enumerate(couplings)
                    for flip, masks in [frequency_masks(alpha, coupling, frame,
                                                        1e-9 * model.coupling)]
                    for omega, weights in masks]
            assert [(c.coupling_index, c.omega, c.rate, c.flip, c.weights.tobytes())
                    for c in lrep.components] == want

    def test_match_the_reference_with_a_rate_table(self, ising4, ising4_frame):
        tp = ThermalParams.from_betaJ(0.4)
        couplings = default_couplings(ising4)
        rates = {(alpha, w): 0.5 + alpha for alpha in range(0, 8, 2)
                 for w in (-4.0, 4.0)}
        lrep = build_generator(ising4, couplings=couplings, tp=tp,
                               frame=ising4_frame, rates=rates)
        reference = reference_components(ising4, couplings, ising4_frame, tp, rates)
        _assert_matches_reference(lrep, reference)
        assert sum(c.rate == 0.5 + c.coupling_index for c in lrep.components) == 8

    @pytest.mark.parametrize("name", ["ising3", "toric2"])
    def test_matrix_equals_the_reference_matrix(self, request, name):
        model = request.getfixturevalue(name)
        frame = request.getfixturevalue(name + "_frame")
        tp = ThermalParams.from_betaJ(0.25)
        couplings = default_couplings(model, "xyz")
        lrep = build_generator(model, couplings=couplings, tp=tp, frame=frame)
        reference = reference_components(model, couplings, frame, tp)
        for comp, ref in zip(lrep.components, reference):
            got, want = csr(component_matrix(comp)), csr(ref[-1])
            assert got.shape == want.shape and got.nnz == want.nnz
            assert (got != want).nnz == 0

    def test_wrong_register_rejected(self, ising4, ising4_frame):
        with pytest.raises(GeneratorError, match="outside the model register"):
            build_generator(ising4, couplings=[PauliString.single(5, 0, "X")],
                            frame=ising4_frame)

    def test_coupling_that_is_not_one_flip_rejected(self, monkeypatch, ising3,
                                                    ising3_frame):
        # a permutation of the states that no XOR pattern u -> u ^ d gives
        genperm_of = StabilizerFrame.genperm_of

        def scrambled(frame, x_mask, z_mask, phase):
            perm, phase = genperm_of(frame, x_mask, z_mask, phase)
            perm = perm.copy()
            perm[..., [1, 2]] = perm[..., [2, 1]]
            return perm, phase

        monkeypatch.setattr(StabilizerFrame, "genperm_of", scrambled)
        couplings = default_couplings(ising3)
        with pytest.raises(GeneratorError,
                           match=r"coupling 0 \(\+XII\) does not flip one label "
                                 r"pattern: perm\[u\] != u \^ \d+ at 2 of 8"):
            build_generator(ising3, couplings=couplings, frame=ising3_frame)


def _assert_matches_kronecker_oracle(rep):
    got = liouville_matrix(rep)
    want = kron_liouville_matrix(rep)
    want.sum_duplicates()
    want.eliminate_zeros()
    want = want.tocoo()
    assert got.shape == want.shape
    assert np.array_equal(got.row, want.row) and np.array_equal(got.col, want.col)
    assert np.abs(got.data - want.data).max() < 1e-12


class TestLiouvilleMatrix:
    def test_generator_holds_only_components(self, ising3, ising3_frame):
        rep = build_generator(ising3, frame=ising3_frame)
        assert rep.matrix is None
        with pytest.raises(GeneratorError, match="liouville_matrix"):
            rep.dense()
        assert liouville_matrix(rep).shape == (64, 64)

    @pytest.mark.parametrize("name", ["ising3", "toric2"])
    def test_component_action_matches_matrix(self, request, name):
        # the residual checks apply L through the components; the Kronecker
        # -L is the oracle (liouville_matrix reads the same flip weights)
        model = request.getfixturevalue(name)
        rep = build_generator(model, tp=ThermalParams.from_betaJ(0.25),
                              frame=request.getfixturevalue(name + "_frame"))
        d = rep.frame.dim
        rng = np.random.default_rng(3)
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        want = -(kron_liouville_matrix(rep) @ x.reshape(-1, order="F"))
        got = davies._generator_action(rep.components)(x)
        assert np.abs(got.reshape(-1, order="F") - want).max() < 1e-12

    @pytest.mark.parametrize("kind, size", [("ising", 3), ("ising", 4), ("ising", 5),
                                            ("ising", 6), ("toric", 2)])
    @pytest.mark.parametrize("letters", [None, "x"])
    def test_matches_the_kronecker_oracle(self, kind, size, letters):
        model = build_ising_ring(size) if kind == "ising" else build_toric_code(size)
        frame = build_frame(model)
        couplings = default_couplings(model, letters)
        for betaJ in (0.0, 0.25, 1.0):
            rep = build_generator(model, couplings=couplings,
                                  tp=ThermalParams.from_betaJ(betaJ), frame=frame)
            _assert_matches_kronecker_oracle(rep)

    def test_matches_the_kronecker_oracle_with_a_zero_rate(self, ising4, ising4_frame):
        tp = ThermalParams.from_betaJ(0.25)
        rates = {(0, -4.0): 0.0, (0, 4.0): 0.0, (5, 0.0): 0.0, (1, 4.0): 2.5}
        rep = build_generator(ising4, tp=tp, frame=ising4_frame, rates=rates)
        assert sum(c.rate == 0.0 for c in rep.components) == 3
        _assert_matches_kronecker_oracle(rep)

    def test_rejects_hilbert_schmidt_input(self, ising3, ising3_frame):
        rep = to_master(build_generator(ising3, frame=ising3_frame)).rep
        with pytest.raises(GeneratorError):
            liouville_matrix(rep)

    def test_blocks_path_never_builds_it(self, monkeypatch, ising4, toric2):
        # the full master operator K is not in the package at all, and the
        # Liouville matrix is never assembled on the blocks path
        full_space = {"to_master", "_component_k", "MasterHamiltonian",
                      "kernel_vectors_from_commutant", "power_norm"}
        modules = [daviesgap] + [
            importlib.import_module(f"daviesgap.{info.name}")
            for info in pkgutil.iter_modules(daviesgap.__path__)]
        for module in modules:
            assert not full_space & set(vars(module)), module.__name__

        def refuse(*args):
            raise AssertionError("liouville_matrix was called")

        for module in (davies, master, spectral, dynamics):
            monkeypatch.setattr(module, "liouville_matrix", refuse, raising=False)
        tp = ThermalParams.from_betaJ(0.25)
        for model in (ising4, toric2):
            assert spectral.certify(model, tp).kernel_dim == 1
        trace = dynamics.autocorrelation(ising4, tp)
        assert trace.fitted_rate > 0
        x_couplings = [PauliString.single(8, j, "X") for j in range(8)]
        lrep = build_generator(toric2, couplings=x_couplings, tp=tp)
        rep = master.sign_flip_restriction(lrep, master.XBlockSpec(nu=1))
        assert rep.matrix.shape == (64, 64)
