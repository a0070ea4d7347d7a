"""Finite-level quantum systems: evolution, commutants, block reduction."""

import math
import random
from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from sympy import QQ_I
from sympy.polys.matrices import DomainMatrix

from aldyn.matrices import Mat, _ad_columns, _ad_table, full_matrix_basis
from aldyn.quantum import (
    InnerDerivation,
    MatrixSubspace,
    biderivation_solver,
    biderivations,
    block_split,
    commutant,
    commutator,
    derivations,
    evolve,
    heisenberg_derivative,
    invariance_check,
)
from aldyn.cli import _matrix_float_json
from aldyn.linalg import integer_column, solve_columns
from aldyn.scalars import GR_I, GR_ZERO, GaussRational

from conftest import old_biderivation_system, old_commutator_bracket_vector, old_commutator_columns
from conftest import random_gauss, random_hermitian, random_mat, unit_kernel

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
                columns = [c.flatten() for c in candidates]
                if solve_columns(columns, [m.flatten()]) == [None]:
                    candidates.append(m)
            space = MatrixSubspace(candidates)
            double = commutant(commutant(space))
            for b in space.basis:
                assert double.contains(b)

    def test_columns_and_kernel_match_the_entrywise_oracle(self):
        """The ad-table columns of a commutant are the entry-by-entry columns,
        key (t, i, j) read as (t, i n + j), and give the same kernel, on
        sparse complex matrices with mixed denominators."""
        rng = random.Random(341)
        for _ in range(100):
            n, basis = rng.randint(1, 5), []
            k = rng.randint(1, min(4, n * n))
            while len(basis) < k:
                m = Mat(
                    [
                        [random_gauss(rng, 3) if rng.random() < 0.3 else GR_ZERO for _ in range(n)]
                        for _ in range(n)
                    ]
                )
                if solve_columns([b.flatten() for b in basis], [m.flatten()]) == [None]:
                    basis.append(m)
            den = lcm(*(b.den for b in basis))
            columns = _ad_columns([_ad_table(b, den // b.den) for b in basis], n, den)
            reference = old_commutator_columns(basis)
            assert columns == [
                ({(t, i * n + j): v for (t, i, j), v in col.items()}, d) for col, d in reference
            ]
            kernel = solve_columns(reference, None)
            assert commutant(MatrixSubspace(basis)).basis == [Mat.unflatten(v, n) for v in kernel]


class TestCoordinates:
    def test_combination_is_read_back_and_outside_is_none(self):
        space = MatrixSubspace([SX, SY, SZ])
        coeffs = [GaussRational.of(2), GaussRational.of(0, -1), GaussRational.of(Fraction(1, 3))]
        m = SX.scale(coeffs[0]) + SY.scale(coeffs[1]) + SZ.scale(coeffs[2])
        assert space.coordinates([m, Mat.identity(2)]) == [dict(enumerate(coeffs)), None]
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
        basis = MatrixSubspace.block_algebra(4, 2).basis
        columns = [b.flatten() for b in basis]
        image = commutator(rep.witness, h).flatten()
        assert solve_columns(columns, [image]) == [None]

    def test_identity_hamiltonian_passes_any_subspace(self):
        rng = random.Random(55)
        space = MatrixSubspace([random_mat(rng, 3), random_mat(rng, 3)])
        assert invariance_check(Mat.identity(3), space).ok

    def test_verdict_and_witness_equal_the_commutator_route(self):
        """The images [b, H] read off the one ad table of H give the verdict
        and the witness of the commutators b H - H b, for complex Hermitian H
        with denominators, on random spans (not invariant), the traceless
        matrices (invariant, with complex images), the span of 1 and H, and
        the span of 1 and a random matrix (whose witness is not first)."""
        rng = random.Random(56)
        for n in (2, 3, 4):
            for _ in range(4):
                scale = GaussRational.of(Fraction(1, rng.choice((1, 3, 7))))
                h = random_hermitian(rng, n).scale(scale)
                traceless = [
                    Mat.basis_elt(n, *divmod(p, n)).traceless_part() for p in range(1, n * n)
                ]
                spaces = [
                    MatrixSubspace([random_mat(rng, n) for _ in range(rng.randint(1, n))]),
                    MatrixSubspace(traceless),
                    MatrixSubspace([Mat.identity(n), h]),
                    MatrixSubspace([Mat.identity(n), random_mat(rng, n)]),
                ]
                for space in spaces:
                    inside = space.contains_each([commutator(b, h) for b in space.basis])
                    witness = next((b for b, ok in zip(space.basis, inside) if not ok), None)
                    rep = invariance_check(h, space)
                    assert rep.ok is (witness is None) and rep.witness == witness

    def test_size_mismatch_is_refused(self):
        with pytest.raises(ValueError, match="^matrix size mismatch: 2 vs 3$"):
            invariance_check(Mat.identity(3), MatrixSubspace([SX, SZ]))


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


def _upper_triangular(n: int) -> MatrixSubspace:
    return MatrixSubspace([Mat.basis_elt(n, i, j) for i in range(n) for j in range(i, n)])


def _commutant_of(*diagonal) -> MatrixSubspace:
    return commutant(MatrixSubspace([Mat.diag(list(diagonal))]))


def _unit_products(space: MatrixSubspace) -> dict:
    """e_a e_b of a basis of matrix units, as the index of that basis
    element or None where the product is 0: read off by Mat arithmetic and
    lookup, with no elimination."""
    index = {m: i for i, m in enumerate(space.basis)}
    out = {}
    for a, x in enumerate(space.basis):
        for b, y in enumerate(space.basis):
            p = x @ y
            out[a, b] = None if p.is_zero() else index[p]
    return out


def _element(space: MatrixSubspace, coords: dict) -> Mat:
    out = Mat.zero(space.n)
    for m, x in coords.items():
        out = out + space.basis[m].scale(x)
    return out


def _is_derivation(space: MatrixSubspace, der: dict) -> bool:
    """D(e_a e_b) = D(e_a) e_b + e_a D(e_b) on all basis pairs, by Mat
    arithmetic on a basis of matrix units."""
    d, basis, zero = space.dimension(), space.basis, Mat.zero(space.n)
    images = [_element(space, {p: x for (q, p), x in der.items() if q == a}) for a in range(d)]
    for (a, b), ab in _unit_products(space).items():
        lhs = zero if ab is None else images[ab]
        if lhs != images[a] @ basis[b] + basis[a] @ images[b]:
            return False
    return True


def _is_biderivation(space: MatrixSubspace, bracket: dict) -> bool:
    """Both Leibniz rules on all basis triples, by Mat arithmetic on a basis
    of matrix units."""
    d, basis, zero = space.dimension(), space.basis, Mat.zero(space.n)
    table = [
        [_element(space, {m: x for (i, j, m), x in bracket.items() if (i, j) == (a, b)})
         for b in range(d)]
        for a in range(d)
    ]
    prod = _unit_products(space)
    for a in range(d):
        for b in range(d):
            for c in range(d):
                ab, bc = prod[a, b], prod[b, c]
                # {e_a e_b, e_c} = e_a {e_b, e_c} + {e_a, e_c} e_b
                if (zero if ab is None else table[ab][c]) != (
                    basis[a] @ table[b][c] + table[a][c] @ basis[b]
                ):
                    return False
                # {e_a, e_b e_c} = {e_a, e_b} e_c + e_b {e_a, e_c}
                if (zero if bc is None else table[a][bc]) != (
                    table[a][b] @ basis[c] + basis[b] @ table[a][c]
                ):
                    return False
    return True


def _derivation_system_rank(space: MatrixSubspace) -> int:
    """The rank over sympy's QQ_I of the derivation system written on matrix
    entries: unknown (q, p) is coordinate p of D(e_q), and equation
    (a, b, g, h) is entry (g, h) of D(e_a e_b) - D(e_a) e_b - e_a D(e_b).
    Matrix units have integer entries; rows of zeros are left out."""
    d, n, basis = space.dimension(), space.n, space.basis
    prod = _unit_products(space)
    rows = []
    for a in range(d):
        for b in range(d):
            cols = []
            for q in range(d):
                for p in range(d):
                    term = Mat.zero(n)
                    if prod[a, b] == q:
                        term = term + basis[p]
                    if a == q:
                        term = term - basis[p] @ basis[b]
                    if b == q:
                        term = term - basis[a] @ basis[p]
                    cols.append([x for row in term.entries for x in row])
            rows += [[QQ_I(int(col[e].re), 0) for col in cols] for e in range(n * n)
                     if any(not col[e].is_zero() for col in cols)]
    return DomainMatrix(rows, (len(rows), d * d), QQ_I).rank()


class TestDerivations:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_full_matrix_algebra_has_the_inner_ones(self, n):
        assert len(derivations(MatrixSubspace(full_matrix_basis(n)))) == n * n - 1

    @pytest.mark.parametrize(
        "space, dim",
        [(_upper_triangular(2), 2), (_upper_triangular(3), 5), (_upper_triangular(4), 9)],
        ids=["T2", "T3", "T4"],
    )
    def test_upper_triangular(self, space, dim):
        ders = derivations(space)
        assert len(ders) == dim
        assert all(_is_derivation(space, der) for der in ders)

    @pytest.mark.parametrize(
        "space",
        [MatrixSubspace(full_matrix_basis(2)), MatrixSubspace(full_matrix_basis(3)),
         _upper_triangular(3), _upper_triangular(4), _commutant_of(1, 1, 0),
         _commutant_of(1, 2, 2, 2)],
        ids=["M2", "M3", "T3", "T4", "diag110", "diag1222"],
    )
    def test_rank_matches_sympy(self, space):
        ders = derivations(space)
        assert all(_is_derivation(space, der) for der in ders)
        d = space.dimension()
        assert _derivation_system_rank(space) == d * d - len(ders)

    def test_structure_refuses_a_span_not_closed(self):
        space = MatrixSubspace([Mat.basis_elt(2, 0, 1), Mat.basis_elt(2, 1, 0)])
        assert not space.is_closed()
        with pytest.raises(ValueError):
            space.structure()
        with pytest.raises(ValueError):
            derivations(space)

    def test_structure_constants_of_pauli_span(self):
        """sigma_x sigma_y = i sigma_z and sigma_x^2 = 1; zero constants are
        left out."""
        space = MatrixSubspace([Mat.identity(2), SX, SY, SZ])
        c = space.structure()
        assert c[1, 2, 3] == GR_I and (1, 2, 0) not in c
        assert c[1, 1, 0] == GaussRational.of(1)


class TestBiderivations:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_solver_equals_the_reference_system(self, n):
        """The kernel of the n^6 system on both Leibniz rules, key for key
        and value for value."""
        assert biderivation_solver(n) == unit_kernel(old_biderivation_system(n))

    def test_solver_scales_its_vector_to_a_1_at_the_largest_key(self, monkeypatch):
        """Any multiple of the commutator comes back as the reduced basis."""
        import aldyn.quantum

        def doubled(space):
            brackets, shape = biderivations(space)
            return [{key: x + x for key, x in bracket.items()} for bracket in brackets], shape

        monkeypatch.setattr(aldyn.quantum, "biderivations", doubled)
        assert biderivation_solver(3) == unit_kernel(old_biderivation_system(3))

    @pytest.mark.parametrize(
        "space, dim",
        [
            (MatrixSubspace(full_matrix_basis(1)), 0),
            (MatrixSubspace(full_matrix_basis(2)), 1),
            (MatrixSubspace(full_matrix_basis(3)), 1),
            (_upper_triangular(2), 4),
            (_upper_triangular(3), 2),
            (_upper_triangular(4), 2),
            (_commutant_of(1, 1, 0), 1),
            (_commutant_of(1, 1, 0, 0), 2),
            (_commutant_of(1, 2, 2, 2), 1),
            (_commutant_of(1, 2, 3), 0),
        ],
        ids=["M1", "M2", "M3", "T2", "T3", "T4", "diag110", "diag1100", "diag1222", "diag123"],
    )
    def test_dimension_and_both_leibniz_rules(self, space, dim):
        brackets, (equations, unknowns, rank) = biderivations(space)
        assert len(brackets) == dim == unknowns - rank
        assert unknowns == 2 * space.dimension() * len(derivations(space))
        assert all(_is_biderivation(space, bracket) for bracket in brackets)

    def test_leibniz_check_refuses_the_anticommutator(self):
        space = MatrixSubspace(full_matrix_basis(2))
        anti = dict(space.structure())
        for (a, b, m), c in space.structure().items():
            anti[b, a, m] = anti.get((b, a, m), GR_ZERO) + c
        assert not _is_biderivation(space, anti)
        assert _is_biderivation(space, {})

    @pytest.mark.parametrize("n", [2, 3])
    def test_solution_space_is_commutator_line(self, n):
        sols = biderivation_solver(n)
        assert len(sols) == 1
        cvec = old_commutator_bracket_vector(n)
        columns = [integer_column(s) for s in sols]
        assert cvec and solve_columns(columns, [integer_column(cvec)]) != [None]

    def test_solution_at_n4_is_a_multiple_of_the_commutator(self):
        [sol] = biderivation_solver(4)
        cvec = old_commutator_bracket_vector(4)
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
