"""Derivation-based calculus on B(C^N): forms, d, wedge, contraction, Lie."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from aldyn.diffcalc import (
    DerivationBasis,
    KForm,
    contract,
    exactness_obstruction,
    exterior_d,
    gell_mann_basis,
    lie_derivative,
    wedge,
)
from aldyn.linalg import solve_columns
from aldyn.matrices import Mat
from aldyn.quantum import commutator
from aldyn.scalars import GR_ONE, GR_ZERO, GaussRational

from conftest import random_gauss, random_mat

B2 = DerivationBasis.gell_mann(2)
B3 = DerivationBasis.gell_mann(3)
B4 = DerivationBasis.gell_mann(4)


def unit_field(basis: DerivationBasis, j: int):
    return [GR_ONE if i == j else GR_ZERO for i in range(basis.dim)]


def random_form(basis: DerivationBasis, degree: int, rng: random.Random, terms: int = 3) -> KForm:
    tuples = list(itertools.combinations(range(basis.dim), degree))
    coeffs = {}
    for _ in range(terms):
        coeffs[tuples[rng.randrange(len(tuples))]] = random_mat(rng, basis.n, span=2)
    return KForm(basis, degree, coeffs)


def assert_lowest_terms(w: KForm):
    for v in w.coeffs.values():
        for row in v.entries:
            for x in row:
                assert x.den > 0 and math.gcd(x.re_num, x.im_num, x.den) == 1, x


# -- reference implementations ----------------------------------------------
# The earlier field-by-field definitions, kept as independent oracles for the
# sparse sum-of-terms code: the wedge as the permutation sum with the
# 1/(j! j'!) factor, d as the two-sum formula on every (k+1)-subset of the
# basis, and evaluation as a cofactor determinant per stored term.


def ref_permutation_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def ref_value(w: KForm, idx) -> Mat:
    idx = tuple(idx)
    if len(set(idx)) != len(idx):
        return Mat.zero(w.basis.n)
    v = w.coeffs.get(tuple(sorted(idx)))
    if v is None:
        return Mat.zero(w.basis.n)
    sign = ref_permutation_sign(sorted(range(len(idx)), key=lambda r: idx[r]))
    return v if sign == 1 else v.scale(-GR_ONE)


def ref_wedge(w1: KForm, w2: KForm) -> KForm:
    j, jp = w1.degree, w2.degree
    basis = w1.basis
    norm = GaussRational.of(Fraction(1, math.factorial(j) * math.factorial(jp)))
    out = {}
    for idx in itertools.combinations(range(basis.dim), j + jp):
        total = Mat.zero(basis.n)
        for perm in itertools.permutations(range(j + jp)):
            left = ref_value(w1, [idx[perm[r]] for r in range(j)])
            right = ref_value(w2, [idx[perm[j + r]] for r in range(jp)])
            term = left @ right
            total = total + (term if ref_permutation_sign(perm) == 1 else -term)
        out[idx] = total.scale(norm)
    return KForm(basis, j + jp, out)


def ref_exterior_d(w: KForm) -> KForm:
    """(d w)(X_0..X_k) = sum_r (-1)^r X_r(w(..no r..))
    + sum_{r<s} (-1)^{r+s} w([X_r, X_s], ..no r, s..)."""
    basis = w.basis
    k = w.degree
    out = {}
    for idx in itertools.combinations(range(basis.dim), k + 1):
        total = Mat.zero(basis.n)
        for r in range(k + 1):
            term = commutator(ref_value(w, idx[:r] + idx[r + 1 :]), basis.generators[idx[r]])
            total = total + (term if r % 2 == 0 else -term)
        for r in range(k + 1):
            for s in range(r + 1, k + 1):
                rest = tuple(idx[m] for m in range(k + 1) if m not in (r, s))
                for jb, c in basis.structure.get((idx[r], idx[s]), []):
                    term = ref_value(w, (jb,) + rest).scale(c)
                    total = total + (term if (r + s) % 2 == 0 else -term)
        out[idx] = total
    return KForm(basis, k + 1, out)


def ref_det(rows) -> GaussRational:
    if not rows:
        return GR_ONE
    total = GR_ZERO
    for j in range(len(rows)):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = rows[0][j] * ref_det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def ref_evaluate(w: KForm, fields) -> Mat:
    out = Mat.zero(w.basis.n)
    for idx, v in w.coeffs.items():
        out = out + v.scale(ref_det([[x[i] for i in idx] for x in fields]))
    return out


def recombined_gell_mann(n: int) -> list[Mat]:
    """The traceless basis X'_j = sum_{i >= j} (i - j + 1) X_i of Gell-Mann
    matrices X_i: a unit upper-triangular integer recombination, so still a
    basis, whose first generators have no zero entry."""
    gm = gell_mann_basis(n)
    out = []
    for j in range(len(gm)):
        g = Mat.zero(n)
        for i in range(j, len(gm)):
            g = g + gm[i].scale(i - j + 1)
        out.append(g)
    return out


def rational_gell_mann(n: int) -> list[Mat]:
    """Gell-Mann generators scaled by 1/(j + 2): a basis with non-integer
    entries whose structure constants carry denominators."""
    return [g.scale(GaussRational.of(Fraction(1, j + 2))) for j, g in enumerate(gell_mann_basis(n))]


B3_DENSE = DerivationBasis(recombined_gell_mann(3))
B3_RATIONAL = DerivationBasis(rational_gell_mann(3))


class TestBasis:
    def test_dimensions(self):
        assert B2.dim == 3
        assert B3.dim == 8

    def test_traceless_and_independent(self):
        for basis in (B2, B3):
            for g in basis.generators:
                assert g.trace().is_zero()

    def test_structure_constants_reproduce_operator_commutators(self):
        # [X_k, X_l](A) = X_k(X_l(A)) - X_l(X_k(A)) for X(A) = [A, X]
        rng = random.Random(71)
        a = random_mat(rng, 3)

        def act(j, m):
            return commutator(m, B3.generators[j])

        for k in range(B3.dim):
            for l in range(B3.dim):
                lhs = act(k, act(l, a)) - act(l, act(k, a))
                rhs = Mat.zero(3)
                for j, c in B3.structure.get((k, l), []):
                    rhs = rhs + act(j, a).scale(c)
                assert lhs == rhs

    def test_structure_antisymmetry(self):
        for (k, l), entry in B2.structure.items():
            flipped = dict(B2.structure.get((l, k), []))
            for j, c in entry:
                assert flipped.get(j) == -c

    @pytest.mark.parametrize("basis", [B2, B3], ids=["N2", "N3"])
    def test_structure_matches_full_double_loop(self, basis):
        # Only k < l is solved for; every ordered pair must agree with a
        # direct expansion of [M_l, M_k].
        columns = [dict(enumerate(g.flatten())) for g in basis.generators]
        full = {}
        for k in range(basis.dim):
            for l in range(basis.dim):
                if k == l:
                    continue
                m = commutator(basis.generators[l], basis.generators[k])
                [coords] = solve_columns(columns, [dict(enumerate(m.flatten()))])
                entry = [(j, c) for j, c in enumerate(coords) if not c.is_zero()]
                if entry:
                    full[(k, l)] = entry
        assert basis.structure == full

    @pytest.mark.parametrize("basis", [B2, B3, B4], ids=["N2", "N3", "N4"])
    def test_structure_matches_one_solve_per_commutator(self, basis):
        # The basis solves for every commutator in one elimination; the
        # reference solves the coordinate system again for each one.
        columns = [dict(enumerate(g.flatten())) for g in basis.generators]
        expected = {}
        for k in range(basis.dim):
            for l in range(k + 1, basis.dim):
                m = commutator(basis.generators[l], basis.generators[k])
                [coords] = solve_columns(columns, [dict(enumerate(m.traceless_part().flatten()))])
                entry = [(j, c) for j, c in enumerate(coords) if not c.is_zero()]
                if entry:
                    expected[(k, l)] = entry
                    expected[(l, k)] = [(j, -c) for j, c in entry]
        assert basis.structure == expected

    @pytest.mark.parametrize(
        "basis", [B2, B3, B4, B3_DENSE], ids=["N2", "N3", "N4", "N3-dense"]
    )
    def test_act_matches_commutator(self, basis):
        # X_k acts as A -> [A, X_k]: d of a 0-form A has the coefficient
        # X_k(A) at alpha^k, built from the stored nonzero generator
        # entries; the oracle is the commutator of two full matrix products.
        rng = random.Random(83 + basis.n)
        n = basis.n
        samples = [Mat.zero(n), Mat.identity(n), Mat.basis_elt(n, 0, n - 1)]
        samples += [random_mat(rng, n) for _ in range(3)]
        for a in samples:
            da = exterior_d(KForm.from_matrix(basis, a))
            for k, g in enumerate(basis.generators):
                assert da.value((k,)) == commutator(a, g)

    def test_recombined_basis_is_dense(self):
        # The non-Gell-Mann oracle case exercises full generators.
        g = recombined_gell_mann(3)[0]
        assert all(not x.is_zero() for row in g.entries for x in row)

    def test_wrong_count_rejected(self):
        with pytest.raises(ValueError):
            DerivationBasis(B2.generators[:2])


class TestEvaluate:
    def test_dual_frame(self):
        for j in range(B2.dim):
            alpha = KForm.dual_form(B2, j)
            for k in range(B2.dim):
                value = alpha.evaluate([unit_field(B2, k)])
                expected = Mat.identity(2) if j == k else Mat.zero(2)
                assert value == expected

    def test_repeated_fields_vanish(self):
        rng = random.Random(72)
        w = random_form(B2, 2, rng)
        x = unit_field(B2, 1)
        assert w.evaluate([x, x]).is_zero()

    def test_degree_mismatch(self):
        w = KForm.dual_form(B2, 0)
        with pytest.raises(ValueError):
            w.evaluate([unit_field(B2, 0), unit_field(B2, 1)])

    def test_differential_of_degree_zero(self):
        rng = random.Random(73)
        a = random_mat(rng, 2)
        da = exterior_d(KForm.from_matrix(B2, a))
        for j in range(B2.dim):
            assert da.evaluate([unit_field(B2, j)]) == commutator(a, B2.generators[j])

    def test_multilinearity(self):
        rng = random.Random(74)
        w = random_form(B2, 1, rng)
        x = unit_field(B2, 0)
        y = unit_field(B2, 2)
        two = GaussRational.of(2)
        two_x_plus_y = [a * two + b for a, b in zip(x, y)]
        assert w.evaluate([two_x_plus_y]) == (
            w.evaluate([x]).scale(two) + w.evaluate([y])
        )

    @pytest.mark.parametrize("basis", [B2, B3], ids=["N2", "N3"])
    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_unit_fields_read_value_and_every_slot_is_linear(self, basis, degree):
        """On unit coordinate vectors evaluate is value: the stored
        coefficient on sorted indices, signed by the sorting permutation on
        permuted ones, zero on repeated ones; and it is linear in each field."""
        rng = random.Random(150 + 10 * basis.n + degree)
        w = random_form(basis, degree, rng)
        units = [unit_field(basis, j) for j in range(basis.dim)]
        for idx in itertools.product(range(basis.dim), repeat=degree):
            got = w.evaluate([units[i] for i in idx])
            assert got == w.value(idx)
            if len(set(idx)) < degree:
                assert got.is_zero()
                continue
            stored = w.coeffs.get(tuple(sorted(idx)), Mat.zero(basis.n))
            inversions = sum(a > b for a, b in itertools.combinations(idx, 2))
            assert got == (stored if inversions % 2 == 0 else -stored)

        fields = [[random_gauss(rng) for _ in range(basis.dim)] for _ in range(degree)]
        x, y = ([random_gauss(rng) for _ in range(basis.dim)] for _ in range(2))
        c = random_gauss(rng)
        combo = [c * a + b for a, b in zip(x, y)]
        for slot in range(degree):
            def at(v):
                return w.evaluate(fields[:slot] + [v] + fields[slot + 1 :])

            assert at(combo) == at(x).scale(c) + at(y)


class TestWedge:
    def test_dual_pair(self):
        w = wedge(KForm.dual_form(B2, 0), KForm.dual_form(B2, 1))
        assert w.value((0, 1)) == Mat.identity(2)
        assert w.value((1, 0)) == -Mat.identity(2)

    def test_degree_zero_acts_as_module(self):
        rng = random.Random(75)
        a = random_mat(rng, 2)
        w = random_form(B2, 1, rng)
        left = KForm(B2, 1, {i: a @ v for i, v in w.coeffs.items()})
        right = KForm(B2, 1, {i: v @ a for i, v in w.coeffs.items()})
        assert wedge(KForm.from_matrix(B2, a), w) == left
        assert wedge(w, KForm.from_matrix(B2, a)) == right

    def test_left_and_right_module_actions_differ(self):
        # A dB and (dB) A disagree when A fails to commute with the values
        a = Mat.from_rows([[1, 1], [0, 1]])
        b = Mat.from_rows([[0, 1], [0, 0]])
        db = exterior_d(KForm.from_matrix(B2, b))
        a_form = KForm.from_matrix(B2, a)
        assert wedge(a_form, db) != wedge(db, a_form)

    def test_not_graded_commutative_in_general(self):
        rng = random.Random(76)
        found = False
        for _ in range(10):
            w1 = random_form(B2, 1, rng, terms=2)
            w2 = random_form(B2, 1, rng, terms=2)
            if wedge(w1, w2) != wedge(w2, w1).scale(-GR_ONE):
                found = True
                break
        assert found

    def test_one_one_wedge_formula(self):
        # (w ^ w')(X1, X2) = w(X1) w'(X2) - w(X2) w'(X1)
        rng = random.Random(77)
        w1 = random_form(B2, 1, rng)
        w2 = random_form(B2, 1, rng)
        w = wedge(w1, w2)
        for k in range(B2.dim):
            for l in range(k + 1, B2.dim):
                lhs = w.value((k, l))
                rhs = w1.value((k,)) @ w2.value((l,)) - w1.value((l,)) @ w2.value((k,))
                assert lhs == rhs


class TestExteriorD:
    def test_identity_is_closed(self):
        assert exterior_d(KForm.from_matrix(B2, Mat.identity(2))).is_zero()

    def test_maurer_cartan(self):
        for basis in (B2, B3):
            for j in range(basis.dim):
                da = exterior_d(KForm.dual_form(basis, j))
                for k in range(basis.dim):
                    for l in range(k + 1, basis.dim):
                        c_jkl = GR_ZERO
                        for jb, c in basis.structure.get((k, l), []):
                            if jb == j:
                                c_jkl = c
                        assert da.value((k, l)) == Mat.identity(basis.n).scale(-c_jkl)

    def test_dd_zero_on_degree_zero(self):
        rng = random.Random(78)
        for basis in (B2, B3):
            for _ in range(5):
                a = random_mat(rng, basis.n)
                assert exterior_d(exterior_d(KForm.from_matrix(basis, a))).is_zero()

    def test_dd_zero_on_random_forms(self):
        rng = random.Random(79)
        for basis in (B2, B3):
            for degree in (0, 1, 2):
                for _ in range(3):
                    w = random_form(basis, degree, rng)
                    assert exterior_d(exterior_d(w)).is_zero()

    def test_graded_leibniz(self):
        rng = random.Random(80)
        cases = [(0, 1), (1, 1), (1, 2), (0, 2)]
        for deg1, deg2 in cases:
            w1 = random_form(B2, deg1, rng, terms=2)
            w2 = random_form(B2, deg2, rng, terms=2)
            lhs = exterior_d(wedge(w1, w2))
            sign = GR_ONE if deg1 % 2 == 0 else -GR_ONE
            rhs = wedge(exterior_d(w1), w2) + wedge(w1, exterior_d(w2)).scale(sign)
            assert lhs == rhs


class TestContraction:
    def test_dual_frame_contraction(self):
        for j in range(B2.dim):
            for k in range(B2.dim):
                c = contract(unit_field(B2, k), KForm.dual_form(B2, j))
                expected = Mat.identity(2) if j == k else Mat.zero(2)
                assert c.as_matrix() == expected

    def test_double_contraction_vanishes(self):
        rng = random.Random(81)
        w = random_form(B2, 2, rng)
        x = [GaussRational.of(Fraction(1, 2)), GaussRational.of(-2), GR_ONE]
        assert contract(x, contract(x, w)).is_zero()

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            contract(unit_field(B2, 0), KForm.from_matrix(B2, Mat.identity(2)))

    def test_contraction_of_wedge(self):
        w = wedge(KForm.dual_form(B2, 0), KForm.dual_form(B2, 1))
        assert contract(unit_field(B2, 0), w) == KForm.dual_form(B2, 1)

    def test_antiderivation_on_wedges(self):
        # i_X (w ^ w') = (i_X w) ^ w' + (-1)^deg w ^ (i_X w') for 1-forms
        rng = random.Random(82)
        w1 = random_form(B2, 1, rng, terms=2)
        w2 = random_form(B2, 1, rng, terms=2)
        x = [GaussRational.of(1), GaussRational.of(Fraction(2, 3)), GaussRational.of(-1)]
        lhs = contract(x, wedge(w1, w2))
        rhs = wedge(KForm.from_matrix(B2, contract(x, w1).as_matrix()), w2) - wedge(
            w1, KForm.from_matrix(B2, contract(x, w2).as_matrix())
        )
        assert lhs == rhs


class TestLieDerivative:
    def test_identity_is_fixed(self):
        x = unit_field(B2, 1)
        assert lie_derivative(x, KForm.from_matrix(B2, Mat.identity(2))).is_zero()

    def test_degree_zero_reduces_to_derivation(self):
        rng = random.Random(83)
        for k in range(B2.dim):
            a = random_mat(rng, 2)
            result = lie_derivative(unit_field(B2, k), KForm.from_matrix(B2, a))
            assert result.as_matrix() == commutator(a, B2.generators[k])

    def test_commutes_with_d(self):
        rng = random.Random(84)
        for degree in (0, 1):
            w = random_form(B2, degree, rng, terms=2)
            x = [GaussRational.of(2), GaussRational.of(-1), GaussRational.of(Fraction(1, 3))]
            assert lie_derivative(x, exterior_d(w)) == exterior_d(lie_derivative(x, w))


class TestAgainstReference:
    """The sparse sum-of-terms code equals the field-by-field definitions."""

    @pytest.mark.parametrize("basis", [B2, B3], ids=["N2", "N3"])
    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_exterior_d(self, basis, degree):
        rng = random.Random(90 + 10 * basis.n + degree)
        for _ in range(3):
            w = random_form(basis, degree, rng)
            assert exterior_d(w) == ref_exterior_d(w)

    @pytest.mark.parametrize("basis", [B3_DENSE, B3_RATIONAL], ids=["N3-dense", "N3-rational"])
    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_exterior_d_on_other_bases(self, basis, degree):
        # dense generators (basis lcm 1), and generators and structure
        # constants with denominators (basis lcm 10080)
        rng = random.Random(130 + degree)
        for _ in range(2):
            w = random_form(basis, degree, rng)
            dw = exterior_d(w)
            assert dw == ref_exterior_d(w)
            assert_lowest_terms(dw)

    @pytest.mark.parametrize(
        "basis", [B3, B3_DENSE, B3_RATIONAL], ids=["N3", "N3-dense", "N3-rational"]
    )
    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_exterior_d_on_tall_coprime_entries(self, basis, degree):
        # 40-bit numerators over pairwise coprime denominators: the common
        # denominator of the form is their product, not any one of them.
        rng = random.Random(140 + degree)
        primes = iter([10007, 10009, 10037, 10039, 10061, 10067, 10069, 10079, 10091,
                       10093, 10099, 10103, 10111, 10133, 10139, 10141, 10151, 10159])
        tuples = list(itertools.combinations(range(basis.dim), degree))
        coeffs = {}
        for idx in rng.sample(tuples, min(2, len(tuples))):
            rows = [[GR_ZERO] * 3 for _ in range(3)]
            for i, m in rng.sample(list(itertools.product(range(3), repeat=2)), 4):
                q = next(primes)
                rows[i][m] = GaussRational.of(
                    Fraction(rng.randint(-2**40, 2**40), q), Fraction(rng.randint(-2**40, 2**40), q)
                )
            coeffs[idx] = Mat(rows)
        w = KForm(basis, degree, coeffs)
        dw = exterior_d(w)
        assert dw == ref_exterior_d(w)
        assert_lowest_terms(dw)
        assert max(x.den for v in dw.coeffs.values() for row in v.entries for x in row) > 10**8

    @pytest.mark.parametrize(
        "basis", [B2, B3, B3_DENSE, B3_RATIONAL], ids=["N2", "N3", "N3-dense", "N3-rational"]
    )
    def test_exterior_d_of_zero_and_identity(self, basis):
        for degree in range(4):
            d0 = exterior_d(KForm(basis, degree))
            assert d0.degree == degree + 1 and d0.coeffs == {}
        assert exterior_d(KForm.from_matrix(basis, Mat.identity(basis.n))).coeffs == {}

    @pytest.mark.parametrize("basis", [B2, B3], ids=["N2", "N3"])
    def test_wedge(self, basis):
        rng = random.Random(100 + basis.n)
        for deg1 in range(4):
            for deg2 in range(4 - deg1):
                for _ in range(2):
                    w1 = random_form(basis, deg1, rng, terms=2)
                    w2 = random_form(basis, deg2, rng, terms=2)
                    assert wedge(w1, w2) == ref_wedge(w1, w2), (deg1, deg2)

    @pytest.mark.parametrize("basis", [B2, B3, B4], ids=["N2", "N3", "N4"])
    def test_dual_forms(self, basis):
        duals = [KForm.dual_form(basis, j) for j in range(basis.dim)]
        for alpha in duals:
            assert exterior_d(alpha) == ref_exterior_d(alpha)
        for alpha in duals[:4]:
            for beta in duals:
                assert wedge(alpha, beta) == ref_wedge(alpha, beta)

    @pytest.mark.parametrize("basis", [B2, B3], ids=["N2", "N3"])
    def test_evaluate(self, basis):
        rng = random.Random(110 + basis.n)
        for degree in range(4):
            for _ in range(3):
                w = random_form(basis, degree, rng)
                fields = [
                    [random_gauss(rng) for _ in range(basis.dim)] for _ in range(degree)
                ]
                assert w.evaluate(fields) == ref_evaluate(w, fields)

    @pytest.mark.parametrize("basis", [B2, B3], ids=["N2", "N3"])
    def test_value_on_every_ordering(self, basis):
        rng = random.Random(120 + basis.n)
        w = random_form(basis, 3, rng)
        for idx in itertools.product(range(basis.dim), repeat=3):
            assert w.value(idx) == ref_value(w, idx)


class TestExactness:
    def test_obstruction_on_b2(self):
        for j in range(B2.dim):
            assert not exactness_obstruction(B2, j).solvable

    def test_obstruction_on_b3(self):
        for j in range(B3.dim):
            assert not exactness_obstruction(B3, j).solvable

    def test_differentials_have_traceless_values(self):
        rng = random.Random(85)
        for _ in range(5):
            a = random_mat(rng, 3)
            da = exterior_d(KForm.from_matrix(B3, a))
            for v in da.coeffs.values():
                assert v.trace().is_zero()


def test_form_json_round_trip():
    rng = random.Random(86)
    w = random_form(B2, 2, rng)
    back = KForm.from_json(w.to_json())
    assert back == w
