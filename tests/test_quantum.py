"""Finite-level quantum systems: evolution, commutants, block reduction."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from aldyn.matrices import Mat, full_matrix_basis
from aldyn.quantum import (
    InnerDerivation,
    MatrixSubspace,
    biderivation_solver,
    block_split,
    commutant,
    commutator,
    commutator_bracket_vector,
    evolve,
    heisenberg_derivative,
    invariance_check,
)
from aldyn.cli import _matrix_float_json
from aldyn.linalg import solve_columns
from aldyn.scalars import GR_I, GR_ZERO, GaussRational

from conftest import random_hermitian, random_mat

# The Pauli matrices sigma_x, sigma_y, sigma_z with exact entries.
SX = Mat.from_rows([[0, 1], [1, 0]])
SY = Mat([[GR_ZERO, -GR_I], [GR_I, GR_ZERO]])
SZ = Mat.from_rows([[1, 0], [0, -1]])


class TestCommutator:
    def test_pauli_table(self):
        assert commutator(SX, SY) == SZ.scale(GaussRational.of(0, 2))

    def test_identity_is_central(self):
        rng = random.Random(41)
        a = random_mat(rng, 3)
        assert commutator(a, Mat.identity(3)).is_zero()

    def test_self_commutator(self):
        rng = random.Random(42)
        a = random_mat(rng, 3)
        assert commutator(a, a).is_zero()

    def test_trace_free(self):
        rng = random.Random(43)
        a, b = random_mat(rng, 4), random_mat(rng, 4)
        assert commutator(a, b).trace().is_zero()

    def test_jacobi_identity(self):
        rng = random.Random(44)
        for _ in range(5):
            a, b, c = (random_mat(rng, 3) for _ in range(3))
            total = (
                commutator(commutator(a, b), c)
                + commutator(commutator(b, c), a)
                + commutator(commutator(c, a), b)
            )
            assert total.is_zero()

    def test_leibniz_identity(self):
        rng = random.Random(45)
        for _ in range(5):
            a, a2, b = (random_mat(rng, 3) for _ in range(3))
            assert commutator(a @ a2, b) == a @ commutator(a2, b) + commutator(a, b) @ a2


class TestHeisenbergDerivative:
    def test_hamiltonian_is_stationary(self):
        rng = random.Random(46)
        h = random_hermitian(rng, 3)
        assert heisenberg_derivative(h, h).is_zero()

    def test_pauli_example(self):
        assert heisenberg_derivative(SZ, SX) == SY.scale(2)

    def test_identity_is_stationary(self):
        assert heisenberg_derivative(Mat.identity(2), SX).is_zero()

    def test_hermitian_input_required(self):
        with pytest.raises(ValueError):
            heisenberg_derivative(SZ, Mat.from_rows([[0, 1], [0, 0]]))

    def test_preserves_hermiticity(self):
        rng = random.Random(47)
        a = random_hermitian(rng, 3)
        h = random_hermitian(rng, 3)
        assert heisenberg_derivative(a, h).is_hermitian()


class TestEvolve:
    def test_commuting_diagonal_case(self):
        h = Mat.diag([1, 2, 5])
        a = Mat.diag([3, -1, 0])
        for t in (0.0, 0.5, 10.0):
            assert np.allclose(evolve(a, h, t), a.to_numpy(), atol=1e-12)

    def test_pauli_rotation_oracle(self):
        # eigendecomposition oracle: a(t) = cos(2t) sz + sin(2t) sy
        for t in (0.1, 0.7, 2.0):
            got = evolve(SZ, SX, t)
            expected = math.cos(2 * t) * SZ.to_numpy() + math.sin(2 * t) * SY.to_numpy()
            assert np.allclose(got, expected, atol=1e-12)

    def test_time_zero(self):
        rng = random.Random(48)
        a = random_mat(rng, 3)
        h = random_hermitian(rng, 3)
        assert np.allclose(evolve(a, h, 0.0), a.to_numpy(), atol=1e-14)

    def test_finite_difference_matches_derivative(self):
        rng = random.Random(49)
        a = random_mat(rng, 3)
        h = random_hermitian(rng, 3)
        dt = 1e-6
        fd = (evolve(a, h, dt) - evolve(a, h, -dt)) / (2 * dt)
        assert np.max(np.abs(fd - heisenberg_derivative(a, h).to_numpy())) < 1e-8

    def test_spectrum_preserved(self):
        rng = random.Random(50)
        a = random_hermitian(rng, 3)
        h = random_hermitian(rng, 3)
        before = np.sort(np.linalg.eigvalsh(a.to_numpy()))
        after = np.sort(np.linalg.eigvalsh(evolve(a, h, 1.7)))
        assert np.allclose(before, after, atol=1e-10)

    def test_trace_hermiticity_norm_preserved(self):
        rng = random.Random(51)
        a = random_hermitian(rng, 4)
        h = random_hermitian(rng, 4)
        at = evolve(a, h, 3.3)
        assert abs(np.trace(at) - complex(a.trace().to_complex())) < 1e-10
        assert np.max(np.abs(at - at.conj().T)) < 1e-10
        assert abs(np.linalg.norm(at) - np.linalg.norm(a.to_numpy())) < 1e-10

    def test_group_property(self):
        rng = random.Random(52)
        a = random_hermitian(rng, 3)
        h = random_hermitian(rng, 3)
        t1, t2 = 0.4, 1.9
        once = evolve(a, h, t1 + t2)
        twice = evolve(Mat.from_rows(evolve(a, h, t1).tolist()), h, t2)
        assert np.max(np.abs(once - twice)) < 1e-9

    def test_block_hamiltonian_keeps_block_span(self):
        h = Mat.from_rows(
            [[1, 2, 0, 0], [2, -1, 0, 0], [0, 0, 3, 1], [0, 0, 1, 4]]
        )
        space = MatrixSubspace.block_algebra(4, 2)
        basis_vecs = np.array([b.to_numpy().flatten() for b in space.basis]).T
        for t in (0.3, 2.0, 17.0):
            for b in space.basis:
                evolved = evolve(b, h, t).flatten()
                coeffs, *_ = np.linalg.lstsq(basis_vecs, evolved, rcond=None)
                assert np.linalg.norm(basis_vecs @ coeffs - evolved) < 1e-10

    def test_coupled_hamiltonian_leaks_out_of_block_span(self):
        h = Mat.from_rows(
            [[1, 2, 1, 0], [2, -1, 0, 0], [1, 0, 3, 1], [0, 0, 1, 4]]
        )
        space = MatrixSubspace.block_algebra(4, 2)
        basis_vecs = np.array([b.to_numpy().flatten() for b in space.basis]).T
        worst = 0.0
        for b in space.basis:
            evolved = evolve(b, h, 1.0).flatten()
            coeffs, *_ = np.linalg.lstsq(basis_vecs, evolved, rcond=None)
            worst = max(worst, float(np.linalg.norm(basis_vecs @ coeffs - evolved)))
        assert worst > 1e-3

    def test_hermiticity_is_decided_exactly(self):
        """Float entries embed exactly: the same float on both sides is
        Hermitian, and any difference, however small, is not."""
        h = Mat.from_rows([[1.0, 0.5], [0.5, 2.0]])
        evolve(Mat.identity(2), h, 0.1)
        for off in (0.5 + 1e-13, 0.5 + 1e-9):
            with pytest.raises(ValueError):
                evolve(Mat.identity(2), Mat.from_rows([[1.0, off], [0.5, 2.0]]), 0.1)
        near = Mat.from_json({
            "n": 2,
            "entries": [[{"re": "1", "im": "0"}, {"re": "1/10", "im": "0"}],
                        [{"re": 0.1, "im": 0}, {"re": "2", "im": "0"}]],
        })
        with pytest.raises(ValueError):
            heisenberg_derivative(Mat.identity(2), near)


class TestCommutant:
    def test_full_algebra_has_scalar_commutant(self):
        space = MatrixSubspace(full_matrix_basis(3))
        result = commutant(space)
        assert result.dimension() == 1
        assert result.span_equals(MatrixSubspace([Mat.identity(3)]))

    def test_block_algebra_commutant(self):
        n, k = 4, 2
        space = MatrixSubspace.block_algebra(n, k)
        result = commutant(space)
        expected_basis = [
            Mat.diag([1, 1, 0, 0])
        ] + [
            Mat.basis_elt(n, i, j) for i in range(k, n) for j in range(k, n)
        ]
        expected = MatrixSubspace(expected_basis)
        assert result.span_equals(expected)
        # the unital normalization (identity in the top corner) lies in the span
        phi = Mat.from_rows(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 3], [0, 0, -1, 5]]
        )
        assert result.contains(phi)

    def test_diagonal_commutant_is_diagonal(self):
        space = MatrixSubspace([Mat.diag([1, 0]), Mat.diag([0, 1])])
        result = commutant(space)
        expected = MatrixSubspace([Mat.diag([1, 0]), Mat.diag([0, 1])])
        assert result.span_equals(expected)

    def test_commutant_is_closed(self):
        rng = random.Random(53)
        space = MatrixSubspace([random_mat(rng, 3), random_mat(rng, 3)])
        result = commutant(space)
        assert result.is_closed()

    def test_double_commutant_contains_original(self):
        rng = random.Random(54)
        for _ in range(20):
            dim = rng.randint(1, 3)
            candidates = []
            while len(candidates) < dim:
                m = random_mat(rng, 3, span=2)
                columns = [dict(enumerate(c.flatten())) for c in candidates]
                if solve_columns(columns, [dict(enumerate(m.flatten()))]) == [None]:
                    candidates.append(m)
            space = MatrixSubspace(candidates)
            double = commutant(commutant(space))
            for b in space.basis:
                assert double.contains(b)


class TestCoordinates:
    def test_combination_is_read_back_and_outside_is_none(self):
        space = MatrixSubspace([SX, SY, SZ])
        coeffs = [GaussRational.of(2), GaussRational.of(0, -1), GaussRational.of(Fraction(1, 3))]
        m = SX.scale(coeffs[0]) + SY.scale(coeffs[1]) + SZ.scale(coeffs[2])
        assert space.coordinates([m, Mat.identity(2)]) == [coeffs, None]
        assert space.contains_each([m, Mat.identity(2)]) == [True, False]


class TestInvariance:
    def test_block_diagonal_passes(self):
        h = Mat.from_rows(
            [[1, 2, 0, 0], [2, -1, 0, 0], [0, 0, 3, Fraction(1, 2)], [0, 0, Fraction(1, 2), 4]]
        )
        assert invariance_check(h, MatrixSubspace.block_algebra(4, 2)).ok

    def test_off_diagonal_fails_with_witness(self):
        h = Mat.from_rows(
            [[1, 2, 1, 0], [2, -1, 0, 0], [0, 0, 3, 0], [0, 0, 0, 4]]
        )
        rep = invariance_check(h, MatrixSubspace.block_algebra(4, 2))
        assert not rep.ok
        assert rep.witness is not None
        columns = [dict(enumerate(b.flatten())) for b in MatrixSubspace.block_algebra(4, 2).basis]
        image = dict(enumerate(commutator(rep.witness, h).flatten()))
        assert solve_columns(columns, [image]) == [None]

    def test_identity_hamiltonian_passes_any_subspace(self):
        rng = random.Random(55)
        space = MatrixSubspace([random_mat(rng, 3), random_mat(rng, 3)])
        assert invariance_check(Mat.identity(3), space).ok


class TestBlockSplit:
    def test_diagonal_two_by_two(self):
        h = Mat.diag([1, 2])
        du, df = block_split(h, 1)
        assert du.x == Mat.diag([1, 0]).traceless_part()
        assert df.x == Mat.diag([0, 2]).traceless_part()

    def test_top_part_annihilates_bottom_block(self):
        h = Mat.from_rows([[1, 2, 0, 0], [2, -1, 0, 0], [0, 0, 3, 0], [0, 0, 0, 4]])
        du, _ = block_split(h, 2)
        phi = Mat.from_rows(
            [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 5, 1], [0, 0, 2, -3]]
        )
        assert du(phi).is_zero()

    def test_resummation_and_commutation(self):
        rng = random.Random(56)
        h = Mat.from_rows(
            [[3, 1, 0, 0], [1, 0, 0, 0], [0, 0, 2, 5], [0, 0, 5, -2]]
        )
        du, df = block_split(h, 2)
        for _ in range(5):
            a = random_mat(rng, 4)
            assert du(a) + df(a) == commutator(a, h)
        assert du.commutes_with(df)

    def test_rejects_non_block_diagonal(self):
        h = Mat.from_rows([[1, 0, 1], [0, 2, 0], [0, 0, 3]])
        with pytest.raises(ValueError):
            block_split(h, 2)


class TestInnerDerivation:
    def test_center_is_quotiented(self):
        rng = random.Random(57)
        x = random_mat(rng, 3)
        shifted = x + Mat.identity(3).scale(GaussRational.of(Fraction(7, 2)))
        assert InnerDerivation(x) == InnerDerivation(shifted)

    def test_action(self):
        d = InnerDerivation(SX)
        assert d(SZ) == commutator(SZ, SX)


class TestBiderivations:
    @pytest.mark.parametrize("n", [2, 3])
    def test_solution_space_is_commutator_line(self, n):
        sols = biderivation_solver(n)
        assert len(sols) == 1
        cvec = commutator_bracket_vector(n)
        assert cvec and solve_columns(sols, [cvec]) != [None]

    def test_solution_at_n4_is_a_multiple_of_the_commutator(self):
        [sol] = biderivation_solver(4)
        cvec = commutator_bracket_vector(4)
        assert sol.keys() == cvec.keys()
        assert all(type(v) is GaussRational for v in sol.values())
        k = next(iter(cvec))
        ratio = sol[k] / cvec[k]
        assert all(sol[key] == ratio * v for key, v in cvec.items())

    def test_commutator_satisfies_both_leibniz_rules(self):
        rng = random.Random(58)
        for _ in range(5):
            a, b, c = (random_mat(rng, 3) for _ in range(3))
            assert commutator(a @ b, c) == a @ commutator(b, c) + commutator(a, c) @ b
            assert commutator(a, b @ c) == commutator(a, b) @ c + b @ commutator(a, c)


class TestMatJson:
    def test_exact_round_trip(self):
        rng = random.Random(59)
        m = random_mat(rng, 3)
        assert Mat.from_json(m.to_json()) == m

    def test_float_round_trip(self):
        m = Mat.from_rows([[0.5, 0.25], [-1.5, 2.0]])
        back = Mat.from_json(_matrix_float_json(m.to_numpy()))
        assert back == m

    def test_mixed_cell_parses_each_part(self):
        # A float part is its exact dyadic value even next to a string part.
        cell = {"re": "1/3", "im": 0.1}
        m = Mat.from_json({"n": 1, "entries": [[cell]]})
        assert m.entries[0][0] == GaussRational(Fraction(1, 3), Fraction(0.1))
        assert m.entries[0][0].im != Fraction(1, 10)
        swapped = Mat.from_json({"n": 1, "entries": [[{"re": 0.1, "im": "-2/7"}]]})
        assert swapped.entries[0][0] == GaussRational(Fraction(0.1), Fraction(-2, 7))

    @pytest.mark.parametrize("x", [9007199254740993, 10**400], ids=["2^53+1", "10^400"])
    def test_integer_entries_are_exact(self, x):
        """A JSON integer is read exactly, neither rounded to the nearest
        float nor refused beyond the float range."""
        m = Mat.from_json({"n": 1, "entries": [[{"re": x, "im": -x}]]})
        assert m.entries[0][0] == GaussRational(x, -x)

    def test_subspace_round_trip(self):
        space = MatrixSubspace.block_algebra(3, 1)
        back = MatrixSubspace.from_json(space.to_json())
        assert back.span_equals(space)
