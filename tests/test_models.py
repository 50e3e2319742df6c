import json

import numpy as np
import pytest

from daviesgap.models import (ModelError, build_ising_ring, build_toric_code,
                              lattice_symmetries, verify_model, torus_site)
from daviesgap.pauli import PauliString, commutes
from oracles import independent_rows_reference, pauli_from_label, permuted


class TestIsingRing:
    def test_counts(self, ising3):
        assert ising3.n_sites == 3
        assert len(ising3.stabilizers) == 3
        assert len(ising3.constraints) == 1
        assert ising3.n_logical == 1

    def test_ground_space(self, ising3):
        h = ising3.hamiltonian().matrix().toarray()
        evals = np.linalg.eigvalsh(h)
        assert abs(evals[0] + 3.0) < 1e-12
        assert int(np.sum(evals < evals[0] + 1e-9)) == 2

    def test_qubit_relations(self, ising4):
        lx, lz = ising4.logicals[0]
        assert (lx * lx).is_identity()
        assert (lz * lz).is_identity()
        assert not commutes(lx, lz)
        # XZ + ZX = 0 at matrix level
        mx, mz = lx.matrix().toarray(), lz.matrix().toarray()
        assert np.abs(mx @ mz + mz @ mx).max() < 1e-14

    def test_constraint_product_is_identity(self, ising3):
        prod = PauliString.identity(3)
        for i in ising3.constraints[0]:
            prod = prod * ising3.stabilizers[i]
        assert prod.is_identity()

    def test_verify_passes(self, ising3):
        assert verify_model(ising3).ok

    def test_counting_identity_n5(self):
        m = build_ising_ring(5)
        assert len(m.independent_stabilizers()) == 4
        assert 2 ** m.n_sites == (1 << m.n_logical) * 2 ** 4

    def test_too_small_rejected(self):
        with pytest.raises(ModelError):
            build_ising_ring(2)
        with pytest.raises(ModelError):
            build_ising_ring(4, coupling=-1.0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf"), float("-inf")])
    def test_non_finite_or_non_positive_values_named(self, bad):
        for build, kwargs in [
                (build_ising_ring, {"n": 4, "coupling": bad}),
                (build_ising_ring, {"n": 4, "coefficients": [1.0, bad, 1.0, 1.0]}),
                (build_toric_code, {"L": 2, "coupling": bad}),
                (build_toric_code, {"L": 2, "star_coefficients": [1.0, 1.0, 1.0, bad]}),
                (build_toric_code, {"L": 2, "plaquette_coefficients": [bad, 1.0, 1.0, 1.0]})]:
            with pytest.raises(ModelError, match=f"finite and positive, got {bad!r}"):
                build(**kwargs)

    def test_generic_coefficients(self):
        m = build_ising_ring(4, coefficients=[1.0, 2.0, 0.5, 1.5])
        assert verify_model(m).ok
        evals = np.linalg.eigvalsh(m.hamiltonian().matrix().toarray())
        assert abs(evals[0] + 5.0) < 1e-12


class TestToricCode:
    def test_counts(self, toric2):
        assert toric2.n_sites == 8
        assert len(toric2.stabilizers) == 8
        assert len(toric2.constraints) == 2
        assert toric2.n_logical == 2

    def test_ground_space(self, toric2):
        h = toric2.hamiltonian().matrix().toarray()
        evals = np.linalg.eigvalsh(h)
        assert abs(evals[0] + 8.0) < 1e-12
        assert int(np.sum(evals < evals[0] + 1e-9)) == 4

    def test_stars_commute_with_plaquettes_any_l(self):
        for L in (2, 3, 4):
            m = build_toric_code(L)
            stars = m.stabilizers[:L * L]
            plaqs = m.stabilizers[L * L:]
            assert all(commutes(s, p) for s in stars for p in plaqs)

    def test_verify_passes_l2_l3(self, toric2):
        assert verify_model(toric2).ok
        assert verify_model(build_toric_code(3)).ok

    def test_counting_identity_l2(self, toric2):
        assert len(toric2.independent_stabilizers()) == 6
        assert 2 ** 8 == 4 * 2 ** 6

    def test_partition_disjoint_cover(self, toric2):
        p = toric2.partition
        assert len(p.snake) == 3 and len(p.comb) == 3
        assert p.all_sites() == set(range(8))

    def test_snake_flip_rank_l3(self):
        m = build_toric_code(3)
        report = verify_model(m)
        names = {n: ok for n, ok, _ in report.checks}
        assert names["snake sigma_x spans plaquette flips"]
        assert names["comb sigma_z spans star flips"]

    def test_logical_x1_follows_the_snake(self, toric2):
        lx1 = toric2.logicals[0][0]
        support = lx1.x_mask | lx1.z_mask
        off_snake = {j for j in range(8) if (support >> j) & 1} - set(toric2.partition.snake)
        assert off_snake == {toric2.partition.qubit1}

    def test_site_linearization(self):
        assert torus_site(2, 0, 0, 0) == 0
        assert torus_site(2, 0, 0, 1) == 1
        assert torus_site(2, 1, 1, 0) == 6
        assert torus_site(2, 2, 0, 0) == 0  # wraps

    def test_too_small_rejected(self):
        with pytest.raises(ModelError):
            build_toric_code(1)

    def test_array_coefficients_accepted(self):
        m = build_toric_code(2, star_coefficients=np.ones(4),
                             plaquette_coefficients=np.full(4, 2.0))
        assert m.coefficients == [1.0] * 4 + [2.0] * 4

    @pytest.mark.parametrize("which", ["star_coefficients", "plaquette_coefficients"])
    def test_empty_coefficients_rejected(self, which):
        with pytest.raises(ModelError, match="need one coefficient per star and per plaquette"):
            build_toric_code(2, **{which: []})

    def test_verify_passes_past_64_sites(self):
        # L = 6 has 72 sites: the flip ranks are read from masks wider than int64
        assert verify_model(build_toric_code(6)).ok


@pytest.mark.parametrize("model", [build_ising_ring(n) for n in range(3, 13)]
                         + [build_toric_code(L) for L in (2, 3)],
                         ids=lambda m: f"ring{m.n_sites}" if m.kind == "ising"
                         else f"torus{m.geometry['L']}")
def test_independent_stabilizers_match_greedy_rank_loop(model):
    n = model.n_sites
    rows = [(s.x_mask << n) | s.z_mask for s in model.stabilizers]
    assert model.independent_stabilizers() == independent_rows_reference(rows)


class TestLatticeSymmetries:
    @pytest.mark.parametrize("model", [build_ising_ring(n) for n in (3, 4, 7, 8)]
                             + [build_toric_code(L) for L in (2, 3)],
                             ids=lambda m: f"ring{m.n_sites}" if m.kind == "ising"
                             else f"torus{m.geometry['L']}")
    def test_generators_map_stabilizers_onto_stabilizers(self, model):
        perms = lattice_symmetries(model)
        assert len(perms) == (2 if model.kind == "ising" else 4)
        stabilizers = set(model.stabilizers)
        for perm in perms:
            assert sorted(perm) == list(range(model.n_sites))
            assert {permuted(s, perm) for s in model.stabilizers} == stabilizers

    def test_torus_rotation_and_reflection(self):
        L = 3
        rotation, reflection = lattice_symmetries(build_toric_code(L))[2:]
        assert rotation[torus_site(L, 1, 2, 0)] == torus_site(L, 2, -1, 1)
        assert rotation[torus_site(L, 1, 2, 1)] == torus_site(L, 2, -2, 0)
        assert reflection[torus_site(L, 1, 2, 0)] == torus_site(L, 2, 1, 1)
        assert reflection[torus_site(L, 2, 1, 1)] == torus_site(L, 1, 2, 0)


class TestExport:
    def test_json_roundtrip_fields(self, toric2, tmp_path):
        path = tmp_path / "model.json"
        toric2.export_json(path)
        doc = json.loads(path.read_text())
        assert doc["n_sites"] == 8
        assert len(doc["stabilizers"]) == 8
        assert doc["partition"]["qubit1"] == toric2.partition.qubit1
        assert set(doc["geometry"]["loops"]) == {"x1", "z1", "x2", "z2"}
        back = pauli_from_label(doc["stabilizers"][0])
        assert back == toric2.stabilizers[0]
