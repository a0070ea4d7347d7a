"""Exact matrices: size checks, the nonzero-entry product against a dense
reference, every operation against the GaussRational matrix it replaced
(`conftest.OldMat`) and against sympy's QQ_I, the lowest-terms invariant of
every result, the `entries` view, and the absence of GaussRational
arithmetic from the integer paths."""

import itertools
import math
import random
import sys
from fractions import Fraction

import pytest
from sympy import QQ, QQ_I
from sympy.polys.matrices import DomainMatrix

from aldyn import diffcalc
from aldyn.matrices import Mat, _ad_column, _ad_table
from aldyn.quantum import commutator
from aldyn.scalars import GR_I, GR_ZERO, GaussRational, _norm

from conftest import OldMat, old_ad_table, random_gauss


def ref_matmul(x: Mat, y: Mat) -> Mat:
    """The dense triple loop: every entry product tested for zero."""
    cols = list(zip(*y.entries))
    out = []
    for row in x.entries:
        out_row = []
        for col in cols:
            s = GR_ZERO
            for a, b in zip(row, col):
                if not (a.is_zero() or b.is_zero()):
                    s = s + a * b
            out_row.append(s)
        out.append(out_row)
    return Mat(out)


def sparse_random_mat(rng: random.Random, n: int) -> Mat:
    """Random Q(i) entries, about half of them zero, with a zero row and a
    zero column planted at random."""
    rows = [
        [random_gauss(rng) if rng.random() < 0.5 else GR_ZERO for _ in range(n)]
        for _ in range(n)
    ]
    zero_row, zero_col = rng.randrange(n), rng.randrange(n)
    rows[zero_row] = [GR_ZERO] * n
    for row in rows:
        row[zero_col] = GR_ZERO
    return Mat(rows)


def dense_random_mat(rng: random.Random, n: int) -> Mat:
    return Mat([[random_gauss(rng) for _ in range(n)] for _ in range(n)])


class TestSizeChecks:
    def test_public_constructor_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            Mat([[GR_ZERO, GR_ZERO]])
        with pytest.raises(ValueError, match="square"):
            Mat.from_rows([[1, 2], [3]])

    @pytest.mark.parametrize("op", ["__add__", "__sub__", "__matmul__"])
    def test_binary_ops_reject_size_mismatch(self, op):
        with pytest.raises(ValueError, match="size mismatch"):
            getattr(Mat.identity(2), op)(Mat.identity(3))


class TestMatmul:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_dense_reference(self, n):
        rng = random.Random(7000 + n)
        makers = (sparse_random_mat, dense_random_mat)
        for _ in range(6):
            for make_x in makers:
                for make_y in makers:
                    x, y = make_x(rng, n), make_y(rng, n)
                    assert x @ y == ref_matmul(x, y)

    def test_cancelling_products_give_zero_entries(self):
        x = Mat.from_rows([[1, 1], [0, 0]])
        y = Mat.from_rows([[1, 0], [-1, 0]])
        assert x @ y == Mat.zero(2)
        assert (x @ y).is_zero()


def assert_lowest_terms(m: Mat):
    """Row-major int tuples of n^2 numerators over one positive
    denominator, with no common factor; the zero matrix has denominator 1."""
    assert type(m.re) is tuple and type(m.im) is tuple
    assert len(m.re) == len(m.im) == m.n * m.n
    assert all(type(a) is int for a in m.re + m.im)
    assert type(m.den) is int and m.den > 0
    assert math.gcd(m.den, *m.re, *m.im) == 1
    if m.is_zero():
        assert m.den == 1


class TestTrustedResults:
    """Every arithmetic result is in lowest terms, and its `entries` view
    is a tuple of row tuples of GaussRational that rebuilds an equal matrix
    with the same hash."""

    @staticmethod
    def assert_canonical(m: Mat):
        assert_lowest_terms(m)
        entries = m.entries
        assert type(entries) is tuple
        assert all(type(row) is tuple and len(row) == m.n for row in entries)
        assert all(type(a) is GaussRational for row in entries for a in row)
        rebuilt = Mat.from_rows([list(row) for row in entries])
        assert m == rebuilt
        assert hash(m) == hash(rebuilt)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_arithmetic_results(self, n):
        rng = random.Random(9000 + n)
        x, y = sparse_random_mat(rng, n), dense_random_mat(rng, n)
        c = random_gauss(rng)
        for result in (
            x + y,
            x - y,
            -x,
            x @ y,
            y @ x,
            x.scale(c),
            x.scale(2),
            y.conjugate_transpose(),
            y.traceless_part(),
            Mat.zero(n),
            Mat.identity(n),
        ):
            self.assert_canonical(result)

    def test_conjugate_transpose(self):
        m = Mat([[GR_I, GaussRational.of(2)], [GaussRational.of(3, 4), GR_ZERO]])
        assert m.conjugate_transpose() == Mat(
            [[-GR_I, GaussRational.of(3, -4)], [GaussRational.of(2), GR_ZERO]]
        )


# -- oracle: the GaussRational matrix and sympy's QQ_I ---------------------------

# Denominators of 1, small primes and four-digit primes.
DENOMINATOR_KINDS = {
    "integer": (1,),
    "small-primes": (1, 2, 3, 5, 7),
    "four-digit-primes": (1009, 7919, 9973),
    "mixed": (1, 2, 3, 1009, 7919),
}


def oracle_rows(rng: random.Random, n: int, dens, shape: str):
    """n x n GaussRational rows, a third of them zero, with nonzero imaginary
    parts, and a zero row, a zero column or all zeros for those shapes."""

    def part():
        return Fraction(rng.randint(-9, 9), rng.choice(dens))

    rows = [
        [GR_ZERO if rng.random() < 1 / 3 else GaussRational(part(), part()) for _ in range(n)]
        for _ in range(n)
    ]
    if shape in ("zero-row", "zero-row-col"):
        rows[rng.randrange(n)] = [GR_ZERO] * n
    if shape in ("zero-col", "zero-row-col"):
        col = rng.randrange(n)
        for row in rows:
            row[col] = GR_ZERO
    if shape == "zero":
        rows = [[GR_ZERO] * n for _ in range(n)]
    return rows


SHAPES = ("dense", "zero-row", "zero-col", "zero-row-col", "zero")


def oracle_pairs(n: int, kind: str):
    """Seeded (Mat, OldMat) pairs of every shape."""
    rng = random.Random(f"{n}-{kind}")
    out = []
    for shape in SHAPES:
        for _ in range(2):
            rows = oracle_rows(rng, n, DENOMINATOR_KINDS[kind], shape)
            out.append((Mat(rows), OldMat(rows)))
    return out, rng


def same(new: Mat, old: OldMat) -> bool:
    assert_lowest_terms(new)
    return new.n == old.n and new.entries == old.entries


def to_qq_i(x: GaussRational):
    return QQ_I(QQ(x.re.numerator, x.re.denominator), QQ(x.im.numerator, x.im.denominator))


def to_sympy(m: Mat) -> DomainMatrix:
    return DomainMatrix([[to_qq_i(x) for x in row] for row in m.entries], (m.n, m.n), QQ_I)


@pytest.mark.parametrize("kind", list(DENOMINATOR_KINDS))
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
class TestAgainstTheGaussRationalMatrix:
    def test_binary_operations(self, n, kind):
        pairs, _ = oracle_pairs(n, kind)
        for (x, ox), (y, oy) in itertools.product(pairs, repeat=2):
            assert same(x + y, ox + oy)
            assert same(x - y, ox - oy)
            assert same(x @ y, ox @ oy)
            assert same(commutator(x, y), ox @ oy - oy @ ox)
            assert (x == y) == (ox.entries == oy.entries)

    def test_unary_operations(self, n, kind):
        pairs, rng = oracle_pairs(n, kind)
        dens = DENOMINATOR_KINDS[kind]
        scalars = [
            0, 1, -3, Fraction(5, 7), GR_ZERO, GR_I,
            GaussRational(Fraction(rng.randint(-9, 9), rng.choice(dens)), Fraction(1, 9973)),
        ]
        for x, ox in pairs:
            assert same(-x, -ox)
            assert same(x.conjugate_transpose(), ox.conjugate_transpose())
            assert same(x.traceless_part(), ox.traceless_part())
            for c in scalars:
                assert same(x.scale(c), ox.scale(c))
            assert x.trace() == ox.trace()
            assert x.is_zero() == ox.is_zero()
            assert x.is_hermitian() == ox.is_hermitian()
            h, oh = x + x.conjugate_transpose(), ox + ox.conjugate_transpose()
            assert h.is_hermitian() and oh.is_hermitian() and same(h, oh)

    def test_flatten_and_unflatten(self, n, kind):
        pairs, _ = oracle_pairs(n, kind)
        for x, ox in pairs:
            col, den = x.flatten()
            values = {p: GaussRational(Fraction(a, den), Fraction(b, den)) for p, (a, b) in col.items()}
            assert values == {p: v for p, v in enumerate(ox.flatten()) if not v.is_zero()}
            assert list(col) == sorted(col) and all(a or b for a, b in col.values())
            assert same(Mat.unflatten(values, n), OldMat.unflatten(values, n))
            assert Mat.unflatten(values, n) == x

    def test_products_traces_and_commutators_against_sympy(self, n, kind):
        pairs, _ = oracle_pairs(n, kind)
        for (x, _), (y, _) in itertools.product(pairs[::3], repeat=2):
            sx, sy = to_sympy(x), to_sympy(y)
            assert to_sympy(x @ y) == sx * sy
            assert to_sympy(commutator(x, y)) == sx * sy - sy * sx
            diagonal = sx.to_list()
            assert to_qq_i(x.trace()) == sum((diagonal[i][i] for i in range(n)), QQ_I.zero)


# -- work counts: no GaussRational arithmetic on the integer paths -----------------


def ad_cases(n: int, rng: random.Random):
    """Every E_ij and i E_ij, diagonal matrices with repeated, zero and
    distinct values, a dense complex matrix, a rational one and zero."""
    for p in range(n * n):
        e = Mat.basis_elt(n, *divmod(p, n))
        yield e
        yield e.scale(GR_I)
    yield Mat.diag([rng.choice((0, 1, -2)) for _ in range(n)])
    yield Mat.diag([GaussRational.of(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(n)])
    yield Mat([[random_gauss(rng) for _ in range(n)] for _ in range(n)])
    yield Mat([[GaussRational.of(Fraction(rng.randint(-9, 9), rng.choice((1, 7, 9973))))
                for _ in range(n)] for _ in range(n)])
    yield Mat.zero(n)


def nested_triples(table) -> tuple[list, list]:
    """The terms of a nested table (one (re, im) pair of term lists per
    source q) as sorted flat (q, q', t) triples."""
    return tuple(
        sorted((q, s, t) for q, terms in enumerate(part) for s, t in terms) for part in zip(*table)
    )


class TestAdTable:
    """The flat table built from the nonzero entries of g equals the dense
    walk over all n^2 sources it replaced, term for term."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_flat_table_equals_the_dense_walk(self, n):
        rng = random.Random(430 + n)
        for g in ad_cases(n, rng):
            for f in (1, 3, 10007):
                re_terms, im_terms = _ad_table(g, f)
                assert (sorted(re_terms), sorted(im_terms)) == nested_triples(old_ad_table(g, f))
                for terms in (re_terms, im_terms):
                    assert all(t for _, _, t in terms)
                    assert len({(q, s) for q, s, _ in terms}) == len(terms)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_ad_column_is_the_commutator(self, n):
        rng = random.Random(440 + n)
        cases = list(ad_cases(n, rng))
        for g in cases:
            table = _ad_table(g, 1)
            for a in cases[-4:]:
                col, den = _ad_column(table, a, g.den)
                image = Mat.unflatten({s: _norm(x, y, den) for s, (x, y) in col.items()}, n)
                assert image == commutator(a, g)
                assert all(x or y for x, y in col.values())


@pytest.fixture
def gauss_calls(monkeypatch):
    """Counts of calls to `scalars._norm`, wherever an aldyn module holds it,
    and to GaussRational's +, - and *."""
    counts = {"_norm": 0, "__add__": 0, "__sub__": 0, "__mul__": 0}

    def counting(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    for mod_name, module in list(sys.modules.items()):
        if mod_name.startswith("aldyn") and hasattr(module, "_norm"):
            monkeypatch.setattr(module, "_norm", counting("_norm", module._norm))
    for op in ("__add__", "__sub__", "__mul__"):
        monkeypatch.setattr(GaussRational, op, counting(op, getattr(GaussRational, op)))
    return counts


def test_integer_paths_make_no_gauss_rationals(gauss_calls):
    """`@`, `+`, `-`, `scale`, `commutator`, `exterior_d` and `wedge` on
    seeded Gell-Mann N = 3 forms run on ints: none calls `_norm` or
    GaussRational arithmetic.  Only the `entries` view makes GaussRationals."""
    rng = random.Random(31)
    basis = diffcalc.DerivationBasis.gell_mann(3)
    x, y = dense_random_mat(rng, 3), sparse_random_mat(rng, 3)
    c = random_gauss(rng)
    forms = []
    for degree in (0, 1, 2):
        tuples = list(itertools.combinations(range(basis.dim), degree))
        coeffs = {tuples[rng.randrange(len(tuples))]: dense_random_mat(rng, 3) for _ in range(3)}
        forms.append(diffcalc.KForm(basis, degree, coeffs))
    before = dict(gauss_calls)
    x @ y, x + y, x - y, x.scale(c), x.scale(3), commutator(x, y)
    for w in forms:
        diffcalc.exterior_d(diffcalc.exterior_d(w))
        for v in forms:
            if w.degree + v.degree <= basis.dim:
                diffcalc.wedge(w, v)
    assert gauss_calls == before
    x.entries
    assert gauss_calls == {**before, "_norm": before["_norm"] + 9}
