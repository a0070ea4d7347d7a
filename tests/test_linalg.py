"""Exact linear algebra: the sparse eliminator and its dense front ends."""

import random
from fractions import Fraction

from sympy import QQ, QQ_I
from sympy.polys.matrices import DomainMatrix

from aldyn import linalg
from aldyn.linalg import SparseEliminator
from aldyn.scalars import GR_ZERO, GaussRational

from conftest import random_gauss


def g(x, y=0):
    return GaussRational.of(Fraction(x), Fraction(y))


def test_rref_identity():
    m = [[g(1), g(0)], [g(0), g(1)]]
    red, pivots = linalg.rref(m)
    assert pivots == [0, 1]
    assert red == m


def test_rank_and_nullspace():
    m = [[g(1), g(2), g(3)], [g(2), g(4), g(6)]]
    assert linalg.rank(m) == 1
    kernel = linalg.nullspace(m)
    assert len(kernel) == 2
    for v in kernel:
        for row in m:
            s = GR_ZERO
            for a, b in zip(row, v):
                s = s + a * b
            assert s.is_zero()


def test_nullspace_of_empty_matrix():
    basis = linalg.nullspace([], ncols=3)
    assert len(basis) == 3


def test_solve_consistent_and_inconsistent():
    m = [[g(1), g(1)], [g(0), g(1)]]
    x = linalg.solve(m, [g(3), g(1)])
    assert x == [g(2), g(1)]
    m2 = [[g(1), g(0)], [g(1), g(0)]]
    assert linalg.solve(m2, [g(1), g(2)]) is None


def test_solve_complex_entries():
    i = GaussRational.of(0, 1)
    m = [[i, g(0)], [g(0), g(2)]]
    x = linalg.solve(m, [g(1), i])
    assert x is not None
    assert x[0] == -i and x[1] == GaussRational.of(0, Fraction(1, 2))


def test_in_span_and_span_equal():
    v1, v2 = [g(1), g(0)], [g(0), g(1)]
    assert linalg.in_span([v1, v2], [g(5), g(-3)])
    assert not linalg.in_span([v1], [g(0), g(1)])
    assert linalg.span_equal([v1, v2], [[g(1), g(1)], [g(1), g(-1)]])


def test_coordinates_in_basis():
    basis = [[g(1), g(1)], [g(0), g(1)]]
    coords = linalg.coordinates_in_basis(basis, [g(2), g(5)])
    assert coords == [g(2), g(3)]
    assert linalg.coordinates_in_basis([[g(1), g(0)]], [g(0), g(1)]) is None


def _to_sympy(x: GaussRational):
    return QQ_I(QQ(x.re.numerator, x.re.denominator), QQ(x.im.numerator, x.im.denominator))


def _sympy_matrix(rows, ncols):
    return DomainMatrix(
        [[_to_sympy(r.get(c, GR_ZERO)) for c in range(ncols)] for r in rows],
        (len(rows), ncols),
        QQ_I,
    )


def _random_sparse_system(rng):
    nrows, ncols = rng.randint(1, 12), rng.randint(1, 10)
    rows = []
    for _ in range(nrows):
        row = {}
        for _ in range(rng.randint(1, 3)):
            row[rng.randrange(ncols)] = random_gauss(rng, 2)
        rows.append({c: v for c, v in row.items() if not v.is_zero()})
    return rows, ncols


def test_eliminator_matches_sympy_homogeneous():
    """Rank and kernel of the one elimination engine against sympy's
    DomainMatrix over QQ_I, an independent exact implementation."""
    rng = random.Random(99)
    for _ in range(40):
        rows, ncols = _random_sparse_system(rng)
        elim = SparseEliminator(ncols)
        for row in rows:
            elim.add_row(row)
        a = _sympy_matrix(rows, ncols)
        assert elim.rank() == a.rank()
        kernel = elim.kernel_basis()
        assert len(kernel) == ncols - a.rank()
        for vec in kernel:
            product = a * _sympy_matrix([vec], ncols).transpose()
            assert product.is_zero_matrix


def test_solve_columns_matches_sympy_inhomogeneous():
    """Solvability of A x = b against the rank test rank [A | b] = rank A in
    sympy, and A x = b for every solution returned."""
    rng = random.Random(7)
    solvable_seen = unsolvable_seen = 0
    for trial in range(40):
        rows, ncols = _random_sparse_system(rng)
        if trial % 2:  # half the targets are A x0, so consistent by construction
            x0 = [random_gauss(rng, 2) for _ in range(ncols)]
            b = [sum((v * x0[c] for c, v in row.items()), GR_ZERO) for row in rows]
        else:
            b = [random_gauss(rng, 2) for _ in rows]
        columns = [
            {i: row[c] for i, row in enumerate(rows) if c in row} for c in range(ncols)
        ]
        x = linalg.solve_columns(columns, dict(enumerate(b)))
        a = _sympy_matrix(rows, ncols)
        augmented = a.hstack(_sympy_matrix([{0: v} for v in b], 1))
        solvable = augmented.rank() == a.rank()
        assert (x is not None) == solvable
        if x is None:
            unsolvable_seen += 1
            continue
        solvable_seen += 1
        residual = a * _sympy_matrix([dict(enumerate(x))], ncols).transpose()
        assert residual == _sympy_matrix([{0: v} for v in b], 1)
    assert solvable_seen and unsolvable_seen
