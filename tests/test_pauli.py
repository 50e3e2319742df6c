import functools
import itertools
import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from daviesgap.models import build_ising_ring
from daviesgap.pauli import (PauliString, PauliSum, PauliError, commutes,
                             commutant_dimension, gf2_independent, gf2_nullspace, gf2_rank,
                             gf2_solve, gf2_solve_many, gf2_span, write_coo_text)
from oracles import (csr, gf2_rank_reference, gf2_solve_reference, independent_rows_reference,
                     pauli_from_label, permuted, read_coo_text, sum_mul)

X = PauliString.single(1, 0, "X")
Y = PauliString.single(1, 0, "Y")
Z = PauliString.single(1, 0, "Z")
I1 = PauliString.identity(1)


def dense(p):
    return p.matrix().toarray()


class TestSingleSiteAlgebra:
    def test_x_times_z_is_minus_i_y(self):
        assert (X * Z).to_label() == "-iY"
        assert np.allclose(dense(X) @ dense(Z), dense(X * Z))

    def test_squares_are_identity(self):
        for p in (X, Y, Z):
            assert (p * p).to_label() == "+I"

    def test_xx_zz_gives_minus_yy(self):
        p = pauli_from_label("XX") * pauli_from_label("ZZ")
        assert p.to_label() == "-YY"

    def test_matrices_match_convention(self):
        assert np.array_equal(dense(X), [[0, 1], [1, 0]])
        assert np.array_equal(dense(Y), [[0, -1j], [1j, 0]])
        assert np.array_equal(dense(Z), [[1, 0], [0, -1]])

    def test_size_mismatch_raises(self):
        with pytest.raises(PauliError):
            X * PauliString.identity(2)
        with pytest.raises(PauliError):
            commutes(X, PauliString.identity(2))


class TestPhaseTracking:
    def test_product_matches_matrix_product_exhaustive_n2(self):
        strings = [PauliString(2, x, z, p)
                   for x in range(4) for z in range(4) for p in range(4)]
        rng = np.random.default_rng(7)
        for a, b in rng.choice(len(strings), size=(200, 2)):
            p, q = strings[a], strings[b]
            assert np.allclose((p * q).matrix().toarray(),
                               dense_n(p) @ dense_n(q), atol=1e-15)

    def test_product_matches_matrix_product_random_n3_n4(self):
        rng = np.random.default_rng(3)
        for n in (3, 4):
            for _ in range(500):
                p = random_string(rng, n)
                q = random_string(rng, n)
                assert np.allclose((p * q).matrix().toarray(),
                                   dense_n(p) @ dense_n(q), atol=1e-15)

    def test_associativity(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            p, q, r = (random_string(rng, 3) for _ in range(3))
            assert (p * q) * r == p * (q * r)

    def test_adjoint(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            p = random_string(rng, 3)
            assert np.allclose(p.adjoint().matrix().toarray(),
                               dense_n(p).conj().T)

    def test_permuted_moves_each_letter(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            p = random_string(rng, 4)
            perm = rng.permutation(4)
            label = p.to_label()
            moved = [""] * 4
            for j, letter in enumerate(label[-4:]):
                moved[perm[j]] = letter
            assert permuted(p, perm).to_label() == label[:-4] + "".join(moved)

    def test_hermitian_square_is_plus_identity(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            p = random_string(rng, 4)
            if p == p.adjoint():
                assert (p * p).is_identity()


def dense_n(p):
    return p.matrix().toarray()


def random_string(rng, n):
    return PauliString(n, int(rng.integers(1 << n)), int(rng.integers(1 << n)),
                       int(rng.integers(4)))


class TestCommutation:
    def test_single_site(self):
        assert commutes(X, X)
        assert not commutes(X, Z)
        assert not commutes(Y, Z)
        assert commutes(I1, Z)

    def test_matches_matrix_commutator_exhaustive_n2(self):
        for xa, za, xb, zb in itertools.product(range(4), repeat=4):
            p = PauliString(2, xa, za, 0)
            q = PauliString(2, xb, zb, 0)
            comm = dense_n(p) @ dense_n(q) - dense_n(q) @ dense_n(p)
            assert commutes(p, q) == (np.abs(comm).max() < 1e-12)

    def test_matches_matrix_commutator_random(self):
        rng = np.random.default_rng(13)
        for n in (3, 4):
            for _ in range(1000):
                p = random_string(rng, n)
                q = random_string(rng, n)
                comm = dense_n(p) @ dense_n(q) - dense_n(q) @ dense_n(p)
                assert commutes(p, q) == (np.abs(comm).max() < 1e-12)

    def test_logicals_of_the_ring_anticommute(self, ising3):
        lx, lz = ising3.logicals[0]
        assert not commutes(lx, lz)

    def test_stars_commute_with_plaquettes(self, toric2):
        stars = toric2.stabilizers[:4]
        plaqs = toric2.stabilizers[4:]
        assert all(commutes(s, p) for s in stars for p in plaqs)


class TestLabels:
    @pytest.mark.parametrize("label", ["+XIZY", "-iZZ", "+iYXI", "-X", "+I"])
    def test_roundtrip(self, label):
        assert pauli_from_label(label).to_label() == label

    def test_bad_labels(self):
        for bad in ("", "+", "AB", "+iQ"):
            with pytest.raises(PauliError):
                pauli_from_label(bad)


class TestPauliSum:
    def test_identity_sum_matrix(self):
        s = PauliSum(3, [(1.0, PauliString.identity(3))])
        assert np.allclose(s.matrix().toarray(), np.eye(8))

    def test_ising_hamiltonian_spectrum(self, ising3):
        evals = np.linalg.eigvalsh(ising3.hamiltonian().matrix().toarray())
        assert np.allclose(np.sort(evals), [-3, -3, 1, 1, 1, 1, 1, 1])

    def test_each_string_contributes_full_diagonal_of_nonzeros(self):
        p = pauli_from_label("+XZY")
        assert p.matrix().nnz == 8

    def test_cancellation_drops_terms(self):
        s = PauliSum(1, [(1.0, X), (-1.0, X)])
        assert len(s.terms) == 0

    def test_merging_respects_phase(self):
        s = PauliSum(1, [(1.0, X * Z), (1.0, X * Z)])  # -2i Y
        assert len(s.terms) == 1
        assert np.allclose(s.matrix().toarray(), -2j * dense_n(Y))

    def test_off_axis_weight_rejected(self):
        # X plus i*X accumulates the weight 1+i on one mask pair
        with pytest.raises(PauliError):
            PauliSum(1, [(1.0, X), (1.0, PauliString(1, 1, 0, 1))])

    def test_product_distributes(self):
        rng = np.random.default_rng(2)
        a = PauliSum(2, [(0.5, random_string(rng, 2)), (-1.5, random_string(rng, 2))])
        b = PauliSum(2, [(2.0, random_string(rng, 2)), (0.25, random_string(rng, 2))])
        assert np.allclose(sum_mul(a, b).matrix().toarray(),
                           a.matrix().toarray() @ b.matrix().toarray())


class TestCommutant:
    def test_ising3_x_couplings_only(self, ising3):
        gens = [PauliString.single(3, j, "X") for j in range(3)]
        assert commutant_dimension(gens, ising3.hamiltonian()) == 2

    def test_ising3_x_plus_y1_is_ergodic(self, ising3):
        gens = [PauliString.single(3, j, "X") for j in range(3)]
        gens.append(PauliString.single(3, 0, "Y"))
        assert commutant_dimension(gens, ising3.hamiltonian()) == 1

    def test_toric_single_site_x_and_z_everywhere(self, toric2):
        gens = [PauliString.single(8, j, k) for j in range(8) for k in "XZ"]
        assert commutant_dimension(gens, toric2.hamiltonian()) == 1

    def test_scan_agrees_with_rank_formula(self, ising3):
        gens = [PauliString.single(3, j, "X") for j in range(3)]
        ops = gens + [s for s in ising3.stabilizers]
        rows = [(op.x_mask << 3) | op.z_mask for op in ops]
        by_rank = 1 << (6 - gf2_rank(rows))
        assert commutant_dimension(gens, ising3.hamiltonian()) == by_rank

    def test_invariant_under_conjugation(self, ising3):
        gens = [PauliString.single(3, j, "X") for j in range(3)]
        c = pauli_from_label("+YZX")
        conj = [c * g * c.adjoint() for g in gens]
        h_conj = PauliSum(3, [(-1.0, c * s * c.adjoint())
                              for s in ising3.stabilizers])
        assert commutant_dimension(gens, ising3.hamiltonian()) == \
            commutant_dimension(conj, h_conj)

    def test_noncommuting_hamiltonian_rejected(self):
        h = PauliSum(1, [(1.0, X), (1.0, Z)])
        with pytest.raises(PauliError):
            commutant_dimension([X], h)

    def test_ring_past_64_sites(self):
        # 70 bonds of rank 69 leave 2^(140 - 69) commuting strings
        assert commutant_dimension([], build_ising_ring(70).hamiltonian()) == 1 << 71


class TestGF2:
    def test_rank(self):
        assert gf2_rank([0b110, 0b011, 0b101]) == 2
        assert gf2_rank([0b1, 0b10, 0b100]) == 3
        assert gf2_rank([0, 0]) == 0

    def test_solve_roundtrip(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            nvars = 8
            rows = [int(rng.integers(1, 1 << nvars)) for _ in range(5)]
            x_true = int(rng.integers(1 << nvars))
            rhs = [bin(r & x_true).count("1") & 1 for r in rows]
            x = gf2_solve(rows, rhs, nvars)
            assert x is not None
            assert all((bin(r & x).count("1") & 1) == b for r, b in zip(rows, rhs))

    def test_solve_inconsistent(self):
        # x0 = 0 and x0 = 1
        assert gf2_solve([1, 1], [0, 1], 1) is None

    def test_rows_wider_than_nvars_rejected(self):
        # x = 0 solves the first, and 3 lies outside the 1-bit space of the second
        with pytest.raises(ValueError, match=r"row 0 \(0b10\) .* nvars=1"):
            gf2_solve([0b10], [0], 1)
        with pytest.raises(ValueError, match=r"row 0 \(0b11\) .* nvars=1"):
            gf2_nullspace([0b11], 1)
        with pytest.raises(ValueError, match=r"row 1 \(0b100\) .* nvars=2"):
            gf2_solve_many([0b1, 0b100], [0b1], 2)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_solves_match_the_reference(self, data):
        nvars = data.draw(st.integers(1, 12))
        rows = []
        for _ in range(data.draw(st.integers(0, 10))):
            if rows and data.draw(st.booleans()):
                # a dependent row: the XOR of some earlier rows
                picks = data.draw(st.lists(st.sampled_from(rows), max_size=len(rows)))
                rows.append(functools.reduce(operator.xor, picks, 0))
            else:
                rows.append(data.draw(st.integers(0, (1 << nvars) - 1)))
        rhs = data.draw(st.lists(st.integers(0, (1 << len(rows)) - 1), min_size=1, max_size=4))
        want = [gf2_solve_reference(rows, [(b >> i) & 1 for i in range(len(rows))], nvars)
                for b in rhs]
        assert gf2_solve_many(rows, rhs, nvars) == want
        assert [gf2_solve(rows, [(b >> i) & 1 for i in range(len(rows))], nvars)
                for b in rhs] == want
        assert gf2_rank(rows) == gf2_rank_reference(rows)
        assert gf2_independent(rows) == independent_rows_reference(rows)

    def test_span_is_the_xor_of_each_subset(self):
        units = [0b1010, 0b0110, 0b1111]
        want = [functools.reduce(operator.xor, [u for j, u in enumerate(units) if (p >> j) & 1], 0)
                for p in range(8)]
        assert gf2_span(units).tolist() == want

    def test_nullspace(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            nvars = 10
            rows = [int(rng.integers(0, 1 << nvars)) for _ in range(6)]
            basis = gf2_nullspace(rows, nvars)
            assert len(basis) == nvars - gf2_rank(rows)
            assert gf2_rank(basis) == len(basis)
            assert all(bin(r & x).count("1") % 2 == 0 for r in rows for x in basis)


class TestCooText(object):
    def test_roundtrip(self, tmp_path):
        m = (csr(pauli_from_label("+XZ").matrix())
             + 0.5j * csr(pauli_from_label("+YI").matrix()))
        path = tmp_path / "m.coo"
        write_coo_text(m, path)
        header = path.read_text().splitlines()[0]
        assert header.split()[0] == "4"
        back = read_coo_text(path)
        assert np.allclose(back.toarray(), m.toarray())
