"""Exact linear algebra: the sparse eliminator and solve_columns."""

import random
from fractions import Fraction

import pytest
from sympy import QQ, QQ_I
from sympy.polys.matrices import DomainMatrix

from aldyn import linalg, quantum
from aldyn.derivations import PolyDerivation
from aldyn.diffcalc import DerivationBasis
from aldyn.linalg import SparseEliminator
from aldyn.matrices import Mat
from aldyn.poisson import PoissonTensor, find_hamiltonian, find_poisson_tensor, hamiltonian_field
from aldyn.poly import GeneratorSet, Poly, solve_combination
from aldyn.reduction import (
    Distribution,
    express_in_fields,
    f_related_reduce,
    find_connection,
    invariant_subalgebra,
    normalizer_check,
)
from aldyn.scalars import GR_ZERO, GaussRational

from conftest import (
    old_biderivation_system, old_solve_columns, random_gauss, random_poly, unit_kernel
)


def g(x, y=0):
    return GaussRational.of(Fraction(x), Fraction(y))


def _ints(columns):
    """Q(i) columns as the integer columns `solve_columns` takes."""
    return [linalg.integer_column(col) for col in columns]


def _dense(vec, ncols):
    """A sparse answer of `solve_columns` as a list of ncols values."""
    return [vec.get(c, GR_ZERO) for c in range(ncols)]


def _solve(columns, targets):
    """`solve_columns` on Q(i) columns, each answer read as a dense list."""
    ncols = len(columns)
    sols = linalg.solve_columns(_ints(columns), None if targets is None else _ints(targets))
    return [None if x is None else _dense(x, ncols) for x in sols]


def _columns(m):
    """The columns of a dense matrix as sparse dicts keyed by row."""
    ncols = len(m[0]) if m else 0
    return [{i: row[c] for i, row in enumerate(m)} for c in range(ncols)]


def test_linalg_exports_one_eliminator_and_one_front_end():
    defined = {
        k for k, v in vars(linalg).items()
        if not k.startswith("_") and getattr(v, "__module__", None) == "aldyn.linalg"
    }
    assert defined == {"SparseEliminator", "solve_columns", "integer_column"}


def test_rref_identity():
    m = [[(1, 0), (0, 0)], [(0, 0), (1, 0)]]
    elim = SparseEliminator(2)
    for row in m:
        elim.add_row(dict(enumerate(row)))
    assert unit_kernel(elim) == []  # back-substitutes to the full RREF
    pivots = sorted(elim.pivot_rows)
    assert pivots == [0, 1]
    assert [[elim.pivot_rows[p].get(c, (0, 0)) for c in range(2)] for p in pivots] == m


def test_pivot_rows_are_primitive_with_positive_leads():
    """(2+3i, 4-6i) and (-3, 6) become primitive rows over Z[i] led by a
    positive int; their rational RREF is read by dividing by it."""
    elim = SparseEliminator(3)
    elim.add_row({0: (2, 3), 1: (4, -6)})
    elim.add_row({1: (-3, 0), 2: (6, 0)})
    # (2+3i, 4-6i)(2-3i) = (13, -10-24i); (-3, 6)(-1)/3 = (1, -2)
    assert elim.pivot_rows == {0: {0: (13, 0), 1: (-10, -24)}, 1: {1: (1, 0), 2: (-2, 0)}}
    [vec] = unit_kernel(elim)
    assert elim.pivot_rows[0] == {0: (13, 0), 2: (-20, -48)}
    assert vec == {2: g(1), 0: GaussRational.of(Fraction(20, 13), Fraction(48, 13)), 1: g(2)}


def test_rank_and_nullspace():
    m = [[g(1), g(2), g(3)], [g(2), g(4), g(6)]]
    kernel = _solve(_columns(m), None)
    assert len(kernel) == 2
    for v in kernel:
        for row in m:
            s = GR_ZERO
            for a, b in zip(row, v):
                s = s + a * b
            assert s.is_zero()


def test_nullspace_of_empty_matrix():
    basis = linalg.solve_columns([({}, 1)] * 3, None)
    assert basis == [{0: g(1)}, {1: g(1)}, {2: g(1)}]


def test_solve_consistent_and_inconsistent():
    m = [[g(1), g(1)], [g(0), g(1)]]
    x = linalg.solve_columns(_ints(_columns(m)), _ints([dict(enumerate([g(3), g(1)]))]))
    assert x == [{0: g(2), 1: g(1)}]
    m2 = [[g(1), g(0)], [g(1), g(0)]]
    assert _solve(_columns(m2), [dict(enumerate([g(1), g(2)]))]) == [None]


def test_solve_complex_entries():
    i = GaussRational.of(0, 1)
    m = [[i, g(0)], [g(0), g(2)]]
    [x] = linalg.solve_columns(_ints(_columns(m)), _ints([dict(enumerate([g(1), i]))]))
    assert x is not None
    assert x[0] == -i and x[1] == GaussRational.of(0, Fraction(1, 2))


def test_membership_and_coordinates_in_one_call():
    e1, e2 = ({0: (1, 0)}, 1), ({1: (1, 0)}, 1)
    assert linalg.solve_columns([e1, e2], [({0: (5, 0), 1: (-3, 0)}, 1)]) == [{0: g(5), 1: g(-3)}]
    # [1, 1] and [0, 1] as columns; [2, 5] is 2 [1, 1] + 3 [0, 1], [0, 1] is not in span [1, 0]
    basis = [({0: (1, 0), 1: (1, 0)}, 1), e2]
    assert linalg.solve_columns(basis, [({0: (2, 0), 1: (5, 0)}, 1), ({}, 1)]) == [
        {0: g(2), 1: g(3)}, {}
    ]
    assert linalg.solve_columns([e1], [e2, e1, e2]) == [None, {0: g(1)}, None]


def test_denominators_divide_the_unknowns_out_once():
    """Column j over den_j divides unknown j by den_j, a target over den_t
    scales its solution, and a kernel vector keeps its 1: (x/3) (2 + i) =
    (4 + 2i)/5 at x = 6/5, and (2/7) y - (3/4) z = 0 at y = 21/8 z."""
    assert linalg.solve_columns([({0: (2, 1)}, 3)], [({0: (4, 2)}, 5)]) == [{0: g(Fraction(6, 5))}]
    assert linalg.solve_columns([({0: (2, 0)}, 7), ({0: (-3, 0)}, 4)], None) == [
        {0: g(Fraction(21, 8)), 1: g(1)}
    ]


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


def _from_sympy(x) -> GaussRational:
    return GaussRational.of(
        Fraction(int(x.x.numerator), int(x.x.denominator)),
        Fraction(int(x.y.numerator), int(x.y.denominator)),
    )


def _gaussian_integer_row(row, rng):
    """`row` times the product of its denominators and a random nonzero
    Gaussian integer, as a {column: (re, im)} row for the eliminator."""
    factor = GaussRational.of(rng.choice([1, -1, 2, -3]), rng.choice([0, 0, 1, 3]))
    for v in row.values():
        factor = factor * GaussRational.of(v.den)
    out = {}
    for c, v in row.items():
        w = v * factor
        assert w.den == 1
        out[c] = (w.re_num, w.im_num)
    return out


def test_eliminator_matches_sympy_homogeneous():
    """Rank, pivot rows and kernel of the one elimination engine against
    sympy's DomainMatrix over QQ_I, an independent exact implementation:
    each pivot row, divided by its positive integer lead, is a row of
    sympy's RREF, whatever Gaussian integer each input row was scaled by."""
    rng = random.Random(99)
    for _ in range(40):
        rows, ncols = _random_sparse_system(rng)
        elim = SparseEliminator(ncols)
        for row in rows:
            elim.add_row(_gaussian_integer_row(row, rng))
        a = _sympy_matrix(rows, ncols)
        assert len(elim.pivot_rows) == a.rank()
        kernel = unit_kernel(elim)
        assert len(kernel) == ncols - a.rank()
        for vec in kernel:
            product = a * _sympy_matrix([vec], ncols).transpose()
            assert product.is_zero_matrix
        rref, pivots = a.rref()
        assert sorted(elim.pivot_rows) == list(pivots)
        for p, expected in zip(pivots, rref.to_list()):
            row = elim.pivot_rows[p]
            lead, im = row[p]
            assert lead > 0 and im == 0
            got = [GaussRational(Fraction(x, lead), Fraction(y, lead)) for x, y in
                   (row.get(c, (0, 0)) for c in range(ncols))]
            assert got == [_from_sympy(x) for x in expected]


def _oracle_kernel(a, ncols):
    """The canonical kernel basis read off sympy's RREF of a: one vector
    per free column f, with 1 at f and -R[i][f] at the i-th pivot."""
    rref, pivots = a.rref()
    rows = rref.to_list()
    return [
        [g(1) if c == f else -_from_sympy(rows[pivots.index(c)][f]) if c in pivots else g(0)
         for c in range(ncols)]
        for f in range(ncols) if f not in pivots
    ]


def _oracle_solution(a, b, ncols):
    """The solution of a x = b with free unknowns at 0 read off sympy's
    RREF of [a | b], or None when b's column holds a pivot."""
    rref, pivots = a.hstack(b).rref()
    if ncols in pivots:
        return None
    rows = rref.to_list()
    return [_from_sympy(rows[pivots.index(c)][ncols]) if c in pivots else g(0)
            for c in range(ncols)]


def test_kernel_and_solutions_equal_sympy_rref():
    """Exact equality, not only A v = 0, with sympy's QQ_I RREF: the
    canonical kernel basis and each solution of seeded systems whose
    entries carry denominators and non-unit Gaussian leads such as 2+3i,
    with consistent and inconsistent targets."""
    rng = random.Random(2024)
    leads = [g(2, 3), g(-1, 4), g(Fraction(3, 2), Fraction(-5, 7)), g(0, 6)]
    kinds = set()
    for _ in range(40):
        rows, ncols = _random_sparse_system(rng)
        for row in rows:
            c = min(row, default=rng.randrange(ncols))
            row[c] = rng.choice(leads)
        columns = [
            {i: row[c] for i, row in enumerate(rows) if c in row} for c in range(ncols)
        ]
        a = _sympy_matrix(rows, ncols)
        assert _solve(columns, None) == _oracle_kernel(a, ncols)
        x0 = [random_gauss(rng, 3) for _ in range(ncols)]
        targets = [
            {i: sum((v * x0[c] for c, v in row.items()), GR_ZERO) for i, row in enumerate(rows)},
            {i: rng.choice(leads) * random_gauss(rng, 2) for i in range(len(rows))},
        ]
        sols = _solve(columns, targets)
        for b, x in zip(targets, sols):
            assert x == _oracle_solution(a, _sympy_matrix([{0: v} for v in b.values()], 1), ncols)
            kinds.add(x is None)
    assert kinds == {True, False}


# -- the one-entry fast paths against the general update and sympy ----------


def _general_add_row(elim, row):
    """`SparseEliminator.add_row` with no fast path: every row is reduced
    by the fraction-free update, also against a one-entry pivot."""
    row = {c: v for c, v in row.items() if v[0] or v[1]}
    while row:
        lead = min(row)
        pivot = elim.pivot_rows.get(lead)
        if pivot is None:
            a, b = row[lead]
            if b or a < 0:
                row = {c: (a * x + b * y, a * y - b * x) for c, (x, y) in row.items()}
            linalg._make_primitive(row)
            elim.pivot_rows[lead] = row
            return
        linalg._eliminate(row, lead, pivot)


_VALUES = [(0, 0), (1, 0), (-1, 0), (3, 0), (-2, 5), (0, -4), (6, 9)]


def _one_entry_heavy_row(rng, width):
    """Mostly a single entry, 0 included, in one of `width` columns, so
    that columns repeat; otherwise two to four nonzero entries."""
    if rng.random() < 0.6:
        return {rng.randrange(width): rng.choice(_VALUES)}
    cols = rng.sample(range(width), rng.randint(2, min(4, width)))
    return {c: rng.choice(_VALUES[1:]) for c in cols}


def _meets(row, pivot_rows):
    """(one-entry row?, what its smallest column holds: "zero" for a
    one-entry row of value 0, else "none", "one" or "multi" by the length
    of the pivot row there)."""
    c = min(row)
    pivot = pivot_rows.get(c)
    if row == {c: (0, 0)}:
        return True, "zero"
    return len(row) == 1, "none" if pivot is None else "one" if len(pivot) == 1 else "multi"


def _rational(rows, width):
    return [{c: g(x, y) for c, (x, y) in row.items() if c < width} for row in rows]


def test_fast_paths_equal_the_general_update_and_sympy_rref():
    """Rows with one entry skip the fraction-free update: a fresh column
    gets the unit pivot, a column holding a one-entry pivot is already
    cleared.  On seeded systems built to hit both paths the pivot rows
    equal those of the general update exactly, before and after
    back-substitution, and the kernel and the solutions equal those read
    off sympy's QQ_I RREF; a one-entry row in a target column makes that
    target inconsistent."""
    rng = random.Random(2525)
    seen = set()
    kinds = set()
    for trial in range(60):
        ncols = rng.randint(2, 9)
        ntargets = 2 * (trial % 2)
        width = ncols + ntargets
        elim, oracle = SparseEliminator(ncols), SparseEliminator(ncols)
        rows = [_one_entry_heavy_row(rng, width) for _ in range(rng.randint(10, 40))]
        for row in rows:
            seen.add(_meets(row, oracle.pivot_rows))
            elim.add_row(row)
            _general_add_row(oracle, row)
        assert elim.pivot_rows == oracle.pivot_rows
        a = _sympy_matrix(_rational(rows, ncols), ncols)
        if ntargets:
            sols = elim.solve(ntargets, [1] * width)
            oracle.solve(ntargets, [1] * width)
            for t, x in enumerate(sols):
                b = _sympy_matrix([{0: g(*row.get(ncols + t, (0, 0)))} for row in rows], 1)
                expected = _oracle_solution(a, b, ncols)
                assert (None if x is None else _dense(x, ncols)) == expected
                kinds.add(x is None)
            for row in rows:
                (c, v), *rest = row.items()
                if not rest and c >= ncols and v != (0, 0):
                    assert sols[c - ncols] is None
                    seen.add((True, "target"))
        else:
            assert [_dense(v, ncols) for v in unit_kernel(elim)] == _oracle_kernel(a, ncols)
            unit_kernel(oracle)
        assert elim.pivot_rows == oracle.pivot_rows
        full = _sympy_matrix(_rational(rows, width), width)
        rref, pivots = full.rref()
        assert sorted(elim.pivot_rows) == list(pivots)
        for p, expected in zip(pivots, rref.to_list()):
            row = elim.pivot_rows[p]
            lead = row[p][0]
            assert [g(Fraction(x, lead), Fraction(y, lead)) for x, y in
                    (row.get(c, (0, 0)) for c in range(width))] == [_from_sympy(x) for x in expected]
    assert seen >= {(True, kind) for kind in ("zero", "none", "one", "multi", "target")}
    assert (False, "one") in seen  # a longer row whose lead holds a one-entry pivot
    assert kinds == {True, False}


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
        [x] = _solve(columns, [dict(enumerate(b))])
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


def _combination(coeffs, vectors):
    """sum_j coeffs[j] vectors[j] as a sparse {key: value} dict."""
    out = {}
    for a, w in zip(coeffs, vectors):
        for key, x in w.items():
            out[key] = out.get(key, GR_ZERO) + a * x
    return out


def test_solve_columns_answers_many_targets_like_sympy():
    """Many targets in one elimination against sympy's QQ_I ranks.  The
    columns include a zero and a dependent one; each call mixes consistent
    targets (combinations of the columns, the zero target) and inconsistent
    ones (an entry in an equation no column reaches) with random ones.  A
    target gets None exactly when rank [A | b] > rank A, each solution
    rebuilds its target, and one call over the list equals one call per
    target."""
    rng = random.Random(23)
    for _ in range(40):
        rows, ncols = _random_sparse_system(rng)
        nkeys = len(rows) + 1  # equation len(rows) is in no column
        columns = [
            {i: row[c] for i, row in enumerate(rows) if c in row} for c in range(ncols)
        ]
        some = columns[: rng.randint(1, ncols)]
        columns += [{}, _combination([random_gauss(rng, 2) for _ in some], some)]
        rng.shuffle(columns)
        targets = (
            [{}, {len(rows): g(1)}]
            + [_combination([random_gauss(rng, 2) for _ in columns], columns) for _ in range(2)]
            + [
                {i: random_gauss(rng, 2) for i in rng.sample(range(nkeys), rng.randint(1, nkeys))}
                for _ in range(3)
            ]
        )
        rng.shuffle(targets)
        sols = _solve(columns, targets)
        assert sols == [_solve(columns, [b])[0] for b in targets]
        a = _sympy_matrix(columns, nkeys).transpose()
        kinds = set()
        for b, x in zip(targets, sols):
            augmented = a.hstack(_sympy_matrix([b], nkeys).transpose())
            assert (x is None) == (augmented.rank() > a.rank())
            kinds.add(x is None)
            if x is not None:
                rebuilt = _combination(x, columns)
                assert all(rebuilt.get(i, GR_ZERO) == b.get(i, GR_ZERO) for i in range(nkeys))
        assert kinds == {True, False}


# -- the integer front end against the rational one it replaced ---------------

_DENS = [1, 1, 2, 3, 5, 7, 1009, 7919]  # 1, small primes, four-digit primes


def _int_column(rng, nkeys):
    """A seeded integer column on up to four of nkeys equations, every entry
    with a nonzero imaginary part, over a denominator drawn from _DENS."""
    keys = rng.sample(range(nkeys), rng.randint(1, min(4, nkeys)))
    entries = {key: (rng.randint(-9, 9), rng.choice([-5, -1, 1, 3, 8])) for key in keys}
    return entries, rng.choice(_DENS)


def _values(column):
    """The Q(i) values of an integer column."""
    entries, den = column
    return {key: GaussRational(Fraction(x, den), Fraction(y, den)) for key, (x, y) in entries.items()}


def _rescaled(values, rng):
    """Q(i) values as an integer column over a denominator times a factor
    from _DENS, so not in lowest terms."""
    entries, den = linalg.integer_column(values)
    f = rng.choice(_DENS)
    return {key: (f * x, f * y) for key, (x, y) in entries.items()}, f * den


def test_solve_columns_equals_the_rational_front_end():
    """Integer columns give exactly the answers of the old front end on
    the same Q(i) values: per-column denominators 1, small primes and
    four-digit primes, imaginary parts everywhere, an empty and a repeated
    column (over another denominator); consistent, inconsistent and zero
    targets, the kernel, and targets with no columns at all.  Answers are
    sparse: nonzero values in ascending unknown order."""
    rng = random.Random(1717)
    kinds = set()
    for trial in range(90):
        nkeys = rng.randint(1, 8)
        columns = []
        if trial % 9:
            columns = [_int_column(rng, nkeys) for _ in range(rng.randint(1, 7))]
            columns += [({}, rng.choice(_DENS)), (rng.choice(columns)[0], rng.choice(_DENS))]
            rng.shuffle(columns)
        values = [_values(col) for col in columns]
        ncols = len(columns)
        if trial % 3 == 0 and columns:
            targets = tvalues = None
        else:
            some = rng.sample(values, min(ncols, 3))
            tvalues = [
                {},
                {nkeys: g(1, -2)},  # an equation no column reaches
                _combination([random_gauss(rng, 2) for _ in some], some),
                _values(_int_column(rng, nkeys)),
            ]
            targets = [_rescaled(t, rng) for t in tvalues]
        answers = linalg.solve_columns(columns, targets)
        assert [None if x is None else _dense(x, ncols) for x in answers] == old_solve_columns(
            values, tvalues
        )
        for x in answers:
            if x is not None:
                assert list(x) == sorted(x) and not any(v.is_zero() for v in x.values())
        kinds.add("no columns" if not columns else "kernel" if targets is None else "targets")
        kinds.update("none" if x is None else "solved" for x in answers if targets)
    assert kinds == {"no columns", "kernel", "targets", "none", "solved"}


@pytest.fixture
def normalisations(monkeypatch):
    """Counts the calls of linalg._norm and records each (columns, targets,
    answers) of linalg.solve_columns while a question is answered."""
    calls, solves = [], []
    norm, solve_columns = linalg._norm, linalg.solve_columns

    def counting_norm(*args):
        calls.append(args)
        return norm(*args)

    def recording_solve_columns(columns, targets):
        answers = solve_columns(columns, targets)
        solves.append((columns, targets, answers))
        return answers

    monkeypatch.setattr(linalg, "_norm", counting_norm)
    monkeypatch.setattr(linalg, "solve_columns", recording_solve_columns)
    return calls, solves


def _seeded_combination():
    """sum_k h_k Y_k = T on R^2 at cap 3, T built from seeded h_k."""
    gens = GeneratorSet.phase_space(1)
    rng = random.Random(31)
    vectors = [[random_poly(gens, rng, 2), random_poly(gens, rng, 2)] for _ in range(2)]
    hs = [random_poly(gens, rng, 3) for _ in vectors]
    target = [sum((h * v[a] for h, v in zip(hs, vectors)), Poly.zero(gens)) for a in range(2)]
    [found] = solve_combination(gens, vectors, [target], 3)
    assert found is not None


def _hamiltonian_cap6():
    """The R^4 cap-6 system of find_hamiltonian: 504 equations."""
    gens = GeneratorSet.phase_space(2)
    tensor = PoissonTensor.canonical(2)
    h = random_poly(gens, random.Random(6), degree=6, terms=8)
    assert find_hamiltonian(tensor, hamiltonian_field(tensor, h), 6) is not None


def _invariants_cap4():
    gens = GeneratorSet.phase_space(2)
    q1, p1 = Poly.generator(gens, "q1"), Poly.generator(gens, "p1")
    dist = Distribution([PolyDerivation(gens, {"q1": p1 * p1, "p1": q1})])
    assert invariant_subalgebra(dist, 4)


@pytest.mark.parametrize("question", [_seeded_combination, _hamiltonian_cap6, _invariants_cap4])
def test_one_normalisation_per_entry_returned(normalisations, question):
    """Q(i) values are made once, for the answer: linalg._norm runs exactly
    once per nonzero entry returned (a kernel vector's 1 at its free
    unknown needs none), however many equations the system has."""
    calls, solves = normalisations
    question()
    [(columns, targets, answers)] = solves
    entries = sum(len(x) for x in answers if x is not None)
    equations = len({key for col, _ in [*columns, *(targets or ())] for key in col})
    made = entries - (len(answers) if targets is None else 0)
    assert len(calls) == made
    assert 0 < made < equations


# -- one elimination per question ---------------------------------------------


def _gell_mann():
    return lambda: DerivationBasis.gell_mann(4)


_R4 = GeneratorSet.phase_space(2)
_Q1, _Q2 = Poly.generator(_R4, "q1"), Poly.generator(_R4, "q2")
# d/dq1 and d/dq2, and a dynamics that swaps them: [delta, d/dq1] = -d/dq2
_DIST = Distribution([PolyDerivation(_R4, {name: Poly.one(_R4)}) for name in ("q1", "q2")])
_SWAP = PolyDerivation(_R4, {"q1": _Q2, "q2": _Q1})


def _connection():
    return lambda: find_connection(_DIST, 2)


def _push_forward():
    return lambda: f_related_reduce(_SWAP, [_Q1, _Q2], 2)


def _normalizer():
    return lambda: normalizer_check(_SWAP, _DIST, 2).status == "member"


def _hamiltonian():
    tensor = PoissonTensor.canonical(2)
    delta = hamiltonian_field(tensor, _Q1 * _Q2)
    return lambda: find_hamiltonian(tensor, delta, 2) is not None


def _poisson_tensor():
    h = _Q1 * _Q2
    delta = hamiltonian_field(PoissonTensor.canonical(2), h)
    return lambda: find_poisson_tensor(delta, h, 2) is not None


def _invariants():
    return lambda: invariant_subalgebra(_DIST, 2)


def _express():
    targets = [*_DIST.fields, PolyDerivation(_R4, {"q1": _Q2})]
    return lambda: None not in express_in_fields(targets, _DIST.fields, 2)


def _closed():
    return quantum.MatrixSubspace.block_algebra(3, 2).is_closed


def _invariance():
    space = quantum.MatrixSubspace.block_algebra(3, 2)
    return lambda: quantum.invariance_check(Mat.diag([1, 2, 3]), space).ok


@pytest.mark.parametrize(
    "question, eliminations",
    [
        (_gell_mann, 2),  # independence, then every commutator
        (_connection, 1),
        (_push_forward, 1),
        (_normalizer, 1),
        (_hamiltonian, 1),
        (_poisson_tensor, 1),
        (_invariants, 1),
        (_express, 1),  # three targets
        (_closed, 1),  # the d^2 products, which decide the commutators too
        (_invariance, 1),
    ],
    ids=lambda x: x.__name__.strip("_") if callable(x) else str(x),
)
def test_each_question_is_one_elimination(monkeypatch, question, eliminations):
    """Each solver asks all its targets at once: the SparseEliminator
    constructions while one question is answered (its inputs built
    beforehand)."""
    ask = question()
    built = []
    init = SparseEliminator.__init__

    def counting(self, ncols):
        built.append(ncols)
        init(self, ncols)

    monkeypatch.setattr(SparseEliminator, "__init__", counting)
    assert ask()
    assert len(built) == eliminations


# -- back-substitution against the quadratic sweep it replaced --------------


def _quadratic_back_substitute(elim):
    """The old sweep: for every pivot, scan every pivot row."""
    for lead in sorted(elim.pivot_rows, reverse=True):
        row = elim.pivot_rows[lead]
        for other_lead, other in elim.pivot_rows.items():
            if other_lead < lead and lead in other:
                linalg._eliminate(other, lead, row)


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
            elim.add_row(_gaussian_integer_row({c: random_gauss(rng, 3) for c in cols}, rng))
        if trial % 2:
            elim.solve(1, [1] * (ncols + 1))
        else:
            unit_kernel(elim)
    assert len(sweeps) >= 15 and max(sweeps) >= 20


@pytest.mark.parametrize("n, rank", [(2, 63), (3, 728)])
def test_indexed_back_substitution_on_biderivation_rows(sweeps, n, rank):
    assert len(unit_kernel(old_biderivation_system(n))) == 1
    assert sweeps == [rank]


def test_biderivation_rows_reduce_against_no_one_entry_pivot(monkeypatch):
    """A deterministic work count for old_biderivation_system(3), whose 8,586
    rows are mostly one-entry: no fraction-free update runs against a
    one-entry pivot (the general path alone made 9,769 such calls), the
    other updates stay at 1,973, and the reduction loop takes 6,598 steps
    (12,470 without the fast paths), read as the calls of min(row) that
    pick each step's pivot column."""
    fed = []
    updates = []
    steps = []
    add_row = SparseEliminator.add_row
    eliminate = linalg._eliminate

    def counting_add_row(self, row):
        fed.append(None)
        add_row(self, row)

    def counting_eliminate(row, col, pivot):
        updates.append(len(pivot))
        eliminate(row, col, pivot)

    def counting_min(row):
        steps.append(None)
        return min(row)

    monkeypatch.setattr(SparseEliminator, "add_row", counting_add_row)
    monkeypatch.setattr(linalg, "_eliminate", counting_eliminate)
    monkeypatch.setattr(linalg, "min", counting_min, raising=False)
    system = old_biderivation_system(3)
    assert (len(fed), len(system.pivot_rows)) == (8586, 728)
    assert 1 not in updates
    assert len(updates) == 1973
    assert len(steps) == 6598


def test_indexed_back_substitution_on_hamiltonian_search(sweeps):
    """The R^4 cap-6 system of find_hamiltonian: 210 unknowns."""
    gens = GeneratorSet.phase_space(2)
    tensor = PoissonTensor.canonical(2)
    h = random_poly(gens, random.Random(6), degree=6, terms=8)
    found = find_hamiltonian(tensor, hamiltonian_field(tensor, h), 6)
    assert hamiltonian_field(tensor, found) == hamiltonian_field(tensor, h)
    assert len(sweeps) == 1 and sweeps[0] > 100
