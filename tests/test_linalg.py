"""Exact linear algebra: the sparse eliminator, Span and solve_columns."""

import random
from fractions import Fraction

import pytest
from sympy import QQ, QQ_I
from sympy.polys.matrices import DomainMatrix

from aldyn import linalg, quantum
from aldyn.linalg import SparseEliminator, Span
from aldyn.poisson import PoissonTensor, find_hamiltonian, hamiltonian_field
from aldyn.poly import GeneratorSet
from aldyn.scalars import GR_ZERO, GaussRational

from conftest import random_gauss, random_poly


def g(x, y=0):
    return GaussRational.of(Fraction(x), Fraction(y))


def _columns(m):
    """The columns of a dense matrix as sparse dicts keyed by row."""
    ncols = len(m[0]) if m else 0
    return [{i: row[c] for i, row in enumerate(m)} for c in range(ncols)]


def test_linalg_exports_one_eliminator_and_two_front_ends():
    defined = {
        k for k, v in vars(linalg).items()
        if not k.startswith("_") and getattr(v, "__module__", None) == "aldyn.linalg"
    }
    assert defined == {"SparseEliminator", "Span", "solve_columns"}


def test_rref_identity():
    m = [[g(1), g(0)], [g(0), g(1)]]
    elim = SparseEliminator(2)
    for row in m:
        elim.add_row(dict(enumerate(row)))
    assert elim.kernel_basis() == []  # back-substitutes to the full RREF
    pivots = sorted(elim.pivot_rows)
    assert pivots == [0, 1]
    assert [[elim.pivot_rows[p].get(c, GR_ZERO) for c in range(2)] for p in pivots] == m


def test_rank_and_nullspace():
    m = [[g(1), g(2), g(3)], [g(2), g(4), g(6)]]
    assert Span(m).dim == 1
    kernel = linalg.solve_columns(_columns(m), None)
    assert len(kernel) == 2
    for v in kernel:
        for row in m:
            s = GR_ZERO
            for a, b in zip(row, v):
                s = s + a * b
            assert s.is_zero()


def test_nullspace_of_empty_matrix():
    basis = linalg.solve_columns([{}, {}, {}], None)
    assert len(basis) == 3


def test_solve_consistent_and_inconsistent():
    m = [[g(1), g(1)], [g(0), g(1)]]
    x = linalg.solve_columns(_columns(m), dict(enumerate([g(3), g(1)])))
    assert x == [g(2), g(1)]
    m2 = [[g(1), g(0)], [g(1), g(0)]]
    assert linalg.solve_columns(_columns(m2), dict(enumerate([g(1), g(2)]))) is None


def test_solve_complex_entries():
    i = GaussRational.of(0, 1)
    m = [[i, g(0)], [g(0), g(2)]]
    x = linalg.solve_columns(_columns(m), dict(enumerate([g(1), i])))
    assert x is not None
    assert x[0] == -i and x[1] == GaussRational.of(0, Fraction(1, 2))


def test_in_span_and_span_equal():
    v1, v2 = [g(1), g(0)], [g(0), g(1)]
    assert Span([v1, v2]).contains([g(5), g(-3)])
    assert not Span([v1]).contains([g(0), g(1)])
    a, b = [v1, v2], [[g(1), g(1)], [g(1), g(-1)]]
    assert Span(a).dim == Span(b).dim == Span(a + b).dim


def test_coordinates_in_basis():
    basis = [[g(1), g(1)], [g(0), g(1)]]
    coords = Span(basis).coordinates([g(2), g(5)])
    assert coords == [g(2), g(3)]
    assert Span([[g(1), g(0)]]).coordinates([g(0), g(1)]) is None


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
        assert len(elim.pivot_rows) == a.rank()
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


def _combination(coeffs, vectors, ncols):
    """sum_j coeffs[j] vectors[j] as a dense {column: value} dict."""
    out = {c: GR_ZERO for c in range(ncols)}
    for a, w in zip(coeffs, vectors):
        for c, x in w.items():
            out[c] = out[c] + a * x
    return out


def test_span_matches_sympy_rank_membership_coordinates():
    """Span against sympy's QQ_I ranks: dim is rank A, contains(v) is
    rank [A; v] == rank A, and every coordinate vector rebuilds v exactly.
    The spanning sets include zero and dependent vectors, and odd trials
    key the vectors by tuples instead of passing dense sequences."""
    rng = random.Random(23)
    members = strangers = 0
    for trial in range(40):
        rows, ncols = _random_sparse_system(rng)
        some = rows[: rng.randint(1, len(rows))]
        rows = rows + [{}, _combination([random_gauss(rng, 2) for _ in some], some, ncols)]
        rng.shuffle(rows)
        a = _sympy_matrix(rows, ncols)
        targets = [
            _combination([random_gauss(rng, 2) for _ in rows], rows, ncols) for _ in range(3)
        ] + [
            {c: random_gauss(rng, 2) for c in rng.sample(range(ncols), rng.randint(0, ncols))}
            for _ in range(3)
        ]
        if trial % 2:
            form = lambda w: {(c, "e"): x for c, x in w.items()}
        else:
            form = lambda w: [w.get(c, GR_ZERO) for c in range(ncols)]
        span = Span([form(w) for w in rows])
        assert span.dim == a.rank()
        for v in targets:
            inside = a.vstack(_sympy_matrix([v], ncols)).rank() == a.rank()
            assert span.contains(form(v)) == inside
            coords = span.coordinates(form(v))
            assert (coords is not None) == inside
            if coords is None:
                strangers += 1
                continue
            members += 1
            assert len(coords) == len(rows)
            rebuilt = _combination(coords, rows, ncols)
            assert all(rebuilt[c] == v.get(c, GR_ZERO) for c in range(ncols))
    assert members and strangers


# -- back-substitution against the quadratic sweep it replaced --------------


def _quadratic_back_substitute(elim):
    """The old sweep: for every pivot, scan every pivot row."""
    for lead in sorted(elim.pivot_rows, reverse=True):
        row = elim.pivot_rows[lead]
        for other_lead, other in elim.pivot_rows.items():
            if other_lead < lead and lead in other:
                linalg._subtract(other, other[lead], row)


def _layout(pivot_rows):
    """Pivot rows with their entries in stored order."""
    return [(lead, list(row.items())) for lead, row in pivot_rows.items()]


@pytest.fixture
def sweeps(monkeypatch):
    """Every back-substitution runs on a copy with the quadratic sweep too,
    and must leave identical pivot rows; yields the ranks swept."""
    indexed = SparseEliminator._back_substitute
    ranks = []

    def both(self):
        oracle = SparseEliminator(self.ncols)
        oracle.pivot_rows = {lead: dict(row) for lead, row in self.pivot_rows.items()}
        _quadratic_back_substitute(oracle)
        indexed(self)
        assert _layout(self.pivot_rows) == _layout(oracle.pivot_rows)
        ranks.append(len(self.pivot_rows))

    monkeypatch.setattr(SparseEliminator, "_back_substitute", both)
    return ranks


def test_indexed_back_substitution_on_random_systems(sweeps):
    rng = random.Random(4141)
    for trial in range(30):
        ncols = rng.randint(5, 40)
        elim = SparseEliminator(ncols)
        for _ in range(rng.randint(3, 50)):
            cols = rng.sample(range(ncols + trial % 2), rng.randint(1, min(5, ncols)))
            elim.add_row({c: random_gauss(rng, 3) for c in cols})
        if trial % 2:
            elim.solve()
        else:
            elim.kernel_basis()
    assert len(sweeps) >= 15 and max(sweeps) >= 20


@pytest.mark.parametrize("n, rank", [(2, 63), (3, 728)])
def test_indexed_back_substitution_on_biderivation_rows(sweeps, n, rank):
    assert len(quantum.biderivation_solver(n)) == 1
    assert sweeps == [rank]


def test_indexed_back_substitution_on_hamiltonian_search(sweeps):
    """The R^4 cap-6 system of find_hamiltonian: 210 unknowns."""
    gens = GeneratorSet.phase_space(2)
    tensor = PoissonTensor.canonical(2)
    h = random_poly(gens, random.Random(6), degree=6, terms=8)
    found = find_hamiltonian(tensor, hamiltonian_field(tensor, h), 6)
    assert hamiltonian_field(tensor, found) == hamiltonian_field(tensor, h)
    assert len(sweeps) == 1 and sweeps[0] > 100
