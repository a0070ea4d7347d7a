"""The ansatz column kernel against the Poly-built columns it replaced.

The oracles build each column the old way, one Poly per monomial:
X_{x^m}^a = Lambda^{ab} d_b x^m for find_hamiltonian, ``bracket`` for the
columns {x^a, x^m}, ``apply`` for invariant_subalgebra and
``Poly(m) * Y`` for express_in_fields, find_connection and
find_poisson_tensor.  Column values (numerators over the column's
denominator, whichever denominator each side chose) and solver results
must agree exactly, on angle-phase generators too.
"""

import json
import random
from fractions import Fraction
from itertools import combinations

import pytest

from aldyn import linalg, poly
from aldyn.derivations import PolyDerivation, apply
from aldyn.poisson import (
    PoissonTensor,
    bracket,
    find_hamiltonian,
    find_poisson_tensor,
    hamiltonian_field,
    jacobi_check,
)
from aldyn.poly import (
    GeneratorSet,
    Poly,
    coefficient_column,
    derivation_columns,
    monomials,
    shifted_columns,
    solve_combination,
    solve_preimage,
)
from aldyn.reduction import (
    Distribution,
    express_in_fields,
    f_related_reduce,
    find_connection,
    invariant_subalgebra,
    normalizer_check,
)
from aldyn.scalars import GR_I, GR_ONE, GaussRational, Scalar

from conftest import random_gauss, random_poly

GENERATOR_SETS = {
    "phase_space(1)": GeneratorSet.phase_space(1),
    "phase_space(2)": GeneratorSet.phase_space(2),
    "plain(x,y,z)": GeneratorSet.plain(("x", "y", "z")),
    "action_angle(1)": GeneratorSet.action_angle(1),
    "action_angle(2)": GeneratorSet.action_angle(2),
}
gen_sets = pytest.mark.parametrize(
    "gens", GENERATOR_SETS.values(), ids=GENERATOR_SETS.keys()
)


def _poly(gens, rng, degree=2, terms=3):
    """A seeded theta-free polynomial; on angle-phase generators it also
    gets a Laurent term."""
    p = random_poly(gens, rng, degree, terms)
    angles = [i for i, k in enumerate(gens.kinds) if k == "angle-phase"]
    if angles:
        exps = [rng.randint(0, 1) for _ in gens.names]
        exps[rng.choice(angles)] = -rng.randint(1, 2)
        p = p + Poly(gens, {tuple(exps): Scalar.from_gauss(random_gauss(rng))})
    return p


def _field(gens, rng, **kw):
    return PolyDerivation(gens, {n: _poly(gens, rng, **kw) for n in gens.names})


def _mono(gens, m):
    return Poly(gens, {m: Scalar.one()})


def _values(column):
    """The Q(i) values {key: entry / den} of an integer column."""
    entries, den = column
    return {key: GaussRational(Fraction(x, den), Fraction(y, den)) for key, (x, y) in entries.items()}


def _all_values(columns):
    return [_values(col) for col in columns]


def _part(sol, k, size):
    """Unknowns k * size .. (k + 1) * size - 1 of a sparse solution,
    renumbered from 0: the k-th polynomial of the ansatz layout."""
    return {j - k * size: c for j, c in sol.items() if k * size <= j < (k + 1) * size}


# -- the old builders ---------------------------------------------------------


def old_bracket_columns(tensor, monos):
    gens = tensor.gens
    return [
        coefficient_column(
            [bracket(tensor, Poly.generator(gens, n), _mono(gens, m)) for n in gens.names]
        )
        for m in monos
    ]


def old_field_columns(tensor, monos):
    """The components of X_{x^m}, from Poly products and partials."""
    gens = tensor.gens
    return [
        coefficient_column(
            [
                sum(
                    (tensor.component(a, b) * _mono(gens, m).partial(nb)
                     for b, nb in enumerate(gens.names)),
                    Poly.zero(gens),
                )
                for a in range(len(gens))
            ]
        )
        for m in monos
    ]


def old_apply_columns(fields, monos):
    gens = fields[0].gens
    return [coefficient_column([apply(y, _mono(gens, m)) for y in fields]) for m in monos]


def old_shifted_columns(polys, monos):
    gens = polys[0].gens
    return [coefficient_column([_mono(gens, m) * p for p in polys]) for m in monos]


def old_find_hamiltonian(tensor, delta, cap):
    gens = tensor.gens
    basis = monomials(len(gens), cap)
    target = coefficient_column([delta.images[n] for n in gens.names])
    [sol] = linalg.solve_columns(old_field_columns(tensor, basis), [target])
    return None if sol is None else Poly.from_coefficients(gens, basis, sol)


def old_invariant_subalgebra(dist, cap):
    gens = dist.gens
    monos = monomials(len(gens), cap)
    kernel = linalg.solve_columns(old_apply_columns(dist.fields, monos), None)
    basis = [Poly.from_coefficients(gens, monos, v) for v in kernel]
    return sorted(basis, key=lambda p: (p.total_degree(), sorted(p.terms)))


def old_express_in_fields(target, fields, cap):
    gens = target.gens
    monos = monomials(len(gens), cap)
    columns = [
        col
        for y in fields
        for col in old_shifted_columns([y.images[n] for n in gens.names], monos)
    ]
    [sol] = linalg.solve_columns(
        columns, [coefficient_column([target.images[n] for n in gens.names])]
    )
    if sol is None:
        return None
    nm = len(monos)
    return [
        Poly.from_coefficients(gens, monos, _part(sol, k, nm))
        for k in range(len(fields))
    ]


def old_find_connection_forms(dist, cap):
    gens = dist.gens
    monos = monomials(len(gens), cap)
    columns = [
        col
        for n in gens.names
        for col in old_shifted_columns([y.images[n] for y in dist.fields], monos)
    ]
    nm = len(monos)
    forms = []
    for k in range(dist.rank):
        target = linalg.integer_column({(k, (0,) * len(gens)): GR_ONE})
        [sol] = linalg.solve_columns(columns, [target])
        if sol is None:
            return None
        forms.append(
            {
                n: Poly.from_coefficients(gens, monos, _part(sol, a, nm))
                for a, n in enumerate(gens.names)
            }
        )
    return forms


def old_find_poisson_tensor(delta, h, cap):
    gens = delta.gens
    basis = monomials(len(gens), cap)
    pairs = list(combinations(range(len(gens)), 2))
    partials = [_values(coefficient_column([h.partial(n)])) for n in gens.names]
    columns = []
    for a, b in pairs:
        for m in basis:
            col = {}
            for (_, exps), c in partials[b].items():
                col[(a, tuple(x + y for x, y in zip(m, exps)))] = c
            for (_, exps), c in partials[a].items():
                col[(b, tuple(x + y for x, y in zip(m, exps)))] = -c
            columns.append(linalg.integer_column(col))
    target = coefficient_column([delta.images[n] for n in gens.names])
    [sol] = linalg.solve_columns(columns, [target])
    if sol is None:
        return None
    nb = len(basis)
    tensor = PoissonTensor(
        gens,
        {
            pair: Poly.from_coefficients(gens, basis, _part(sol, i, nb))
            for i, pair in enumerate(pairs)
        },
    )
    return tensor if jacobi_check(tensor).ok else None


def old_f_related_reduce(delta, components, cap):
    target = GeneratorSet.plain([f"x{i+1}" for i in range(len(components))])
    monos = monomials(len(target), cap)
    columns = []
    for m in monos:
        p = Poly.one(delta.gens)
        for j, e in enumerate(m):
            if e:
                p = p * components[j] ** e
        columns.append(coefficient_column([p]))
    images = {}
    for i, fc in enumerate(components):
        [sol] = linalg.solve_columns(columns, [coefficient_column([apply(delta, fc)])])
        if sol is None:
            return None
        images[target.names[i]] = Poly.from_coefficients(target, monos, sol)
    return PolyDerivation(target, images)


# -- columns --------------------------------------------------------------------


def _random_tensor(gens, rng):
    pairs = combinations(range(len(gens)), 2)
    return PoissonTensor(gens, {pair: _poly(gens, rng, degree=1) for pair in pairs})


@gen_sets
def test_bracket_columns_are_the_field_of_the_tensor(gens):
    """{x^a, x^m} = Y_a(x^m) for Y_a^b = Lambda^{ab} d_a(x^a)."""
    rng = random.Random(len(gens) * 31 + gens.kinds.count("angle-phase"))
    monos = monomials(len(gens), 3)
    for _ in range(3):
        tensor = _random_tensor(gens, rng)
        fields = [
            [
                tensor.component(a, b) * Poly.generator(gens, na).partial(na)
                for b in range(len(gens))
            ]
            for a, na in enumerate(gens.names)
        ]
        got = _all_values(derivation_columns(fields, len(gens), 3))
        assert got == _all_values(old_bracket_columns(tensor, monos))


@gen_sets
def test_row_field_columns_are_hamiltonian_fields(gens):
    """The rows Y_a = Lambda^{ab} d_b give the columns Y_a(x^m) = X_{x^m}^a."""
    rng = random.Random(len(gens) * 29 + gens.kinds.count("angle-phase"))
    monos = monomials(len(gens), 3)
    for _ in range(3):
        tensor = _random_tensor(gens, rng)
        rows = [[y.images[n] for n in gens.names] for y in tensor.rows]
        got = _all_values(derivation_columns(rows, len(gens), 3))
        assert got == _all_values(old_field_columns(tensor, monos))
        assert got == [
            _values(coefficient_column(list(hamiltonian_field(tensor, _mono(gens, m)).images.values())))
            for m in monos
        ]


@gen_sets
def test_derivation_columns_match_apply(gens):
    rng = random.Random(len(gens) * 37 + gens.kinds.count("angle-phase"))
    monos = monomials(len(gens), 3)
    for _ in range(3):
        fields = [_field(gens, rng) for _ in range(2)]
        images = [[y.images[n] for n in gens.names] for y in fields]
        got = _all_values(derivation_columns(images, len(gens), 3))
        assert got == _all_values(old_apply_columns(fields, monos))


@gen_sets
def test_shifted_columns_match_products(gens):
    rng = random.Random(len(gens) * 41 + gens.kinds.count("angle-phase"))
    monos = monomials(len(gens), 3)
    for _ in range(3):
        polys = [_poly(gens, rng) for _ in range(3)] + [Poly.zero(gens)]
        got = _all_values(shifted_columns(polys, len(gens), 3))
        assert got == _all_values(old_shifted_columns(polys, monos))


def test_cancelling_terms_leave_no_entry():
    """Y = x d_x - y d_y: Y(x y) = x y - x y = 0 and Y(x^2 y) = 2 x^2 y - x^2 y."""
    gens = GeneratorSet.plain(("x", "y"))
    x, y = Poly.generator(gens, "x"), Poly.generator(gens, "y")
    got = _all_values(derivation_columns([[x, -y]], 2, 3))
    monos = monomials(2, 3)
    assert got[monos.index((1, 1))] == {}
    assert got[monos.index((2, 1))] == {(0, (2, 1)): GR_ONE}


# -- solver results --------------------------------------------------------------


@gen_sets
def test_find_hamiltonian_matches_bracket_oracle(gens):
    """The oracle's columns are the Poly-built fields X_{x^m}, whose
    components are the brackets {x^a, x^m} off the angle-phase generators."""
    rng = random.Random(len(gens) * 43 + gens.kinds.count("angle-phase"))
    for _ in range(2):
        tensor = _random_tensor(gens, rng)
        h = random_poly(gens, rng, degree=3, terms=4)  # inside the ansatz
        found = find_hamiltonian(tensor, hamiltonian_field(tensor, h), 3)
        assert found is not None
        assert found == old_find_hamiltonian(tensor, hamiltonian_field(tensor, h), 3)
        delta = _field(gens, rng)
        assert find_hamiltonian(tensor, delta, 3) == old_find_hamiltonian(tensor, delta, 3)


@gen_sets
def test_invariant_subalgebra_matches_apply_oracle(gens):
    rng = random.Random(len(gens) * 47 + gens.kinds.count("angle-phase"))
    # a field without the last generator's direction keeps that generator
    # invariant, so every kernel is nonzero
    names = gens.names[:-1]
    for fields in (
        [PolyDerivation(gens, {n: _poly(gens, rng) for n in names})],
        [PolyDerivation(gens, {names[0]: Poly.one(gens)})],
    ):
        dist = Distribution(fields)
        got = invariant_subalgebra(dist, 3)
        assert got and got == old_invariant_subalgebra(dist, 3)


def test_angle_rotation_invariants():
    """d/d(angle) on (u, I): u -> i u, so the invariants are the powers of I."""
    gens = GeneratorSet.action_angle(1)
    rotation = PolyDerivation(gens, {"u": Poly.one(gens)})
    u = Poly.generator(gens, "u")
    assert apply(rotation, u) == u.scale(Scalar.i().constant())
    dist = Distribution([rotation])
    got = invariant_subalgebra(dist, 3)
    assert got == old_invariant_subalgebra(dist, 3)
    assert got == [Poly.generator(gens, "I", k) for k in range(4)]


@gen_sets
def test_express_in_fields_matches_product_oracle(gens):
    rng = random.Random(len(gens) * 53 + gens.kinds.count("angle-phase"))
    fields = [_field(gens, rng) for _ in range(2)]
    coeffs = [random_poly(gens, rng, degree=1, terms=2) for _ in fields]
    inside = PolyDerivation(
        gens,
        {
            n: sum((c * y.images[n] for c, y in zip(coeffs, fields)), Poly.zero(gens))
            for n in gens.names
        },
    )
    other = _field(gens, rng)
    found = express_in_fields([inside, other], fields, 2)
    assert found[0] is not None and found[0] == old_express_in_fields(inside, fields, 2)
    assert found[1] == old_express_in_fields(other, fields, 2)


@gen_sets
def test_find_connection_matches_product_oracle(gens):
    """Fields with Y_k^k = 1 and Y_k^j = 0 for the other j < rank have the
    connection alpha^k = dx^k, so a connection exists."""
    rng = random.Random(len(gens) * 59 + gens.kinds.count("angle-phase"))
    rank = min(2, len(gens) - 1)
    fields = []
    for k in range(rank):
        images = {n: _poly(gens, rng) for n in gens.names[rank:]}
        images[gens.names[k]] = Poly.one(gens)
        fields.append(PolyDerivation(gens, images))
    dist = Distribution(fields)
    conn = find_connection(dist, 2)
    assert conn is not None and conn.forms == old_find_connection_forms(dist, 2)
    twisted = Distribution([_field(gens, rng) for _ in range(rank)])
    got = find_connection(twisted, 2)
    want = old_find_connection_forms(twisted, 2)
    assert (got.forms if got else None) == want


@gen_sets
def test_find_poisson_tensor_matches_product_oracle(gens):
    """delta^a = Lambda^{ab} d_b H for a constant Lambda makes the linear
    system consistent; on a plane every bivector satisfies Jacobi."""
    rng = random.Random(len(gens) * 61 + gens.kinds.count("angle-phase"))
    h = _poly(gens, rng, degree=3, terms=4)
    lam = PoissonTensor(
        gens,
        {pair: Poly.constant(gens, random_gauss(rng)) for pair in combinations(range(len(gens)), 2)},
    )
    solvable = PolyDerivation(
        gens,
        {
            na: sum(
                (lam.component(a, b) * h.partial(nb) for b, nb in enumerate(gens.names)),
                Poly.zero(gens),
            )
            for a, na in enumerate(gens.names)
        },
    )
    results = []
    for delta in (solvable, _field(gens, rng)):
        got = find_poisson_tensor(delta, h, 2)
        want = old_find_poisson_tensor(delta, h, 2)
        assert (got and got.components) == (want and want.components)
        results.append(got)
    assert len(gens) > 2 or results[0] is not None


def test_one_generator_poisson_tensor_has_no_unknowns():
    """One generator gives no pair a < b, so no unknowns: only the zero
    dynamics has a tensor, and it has no components."""
    gens = GeneratorSet.plain(("x",))
    x = Poly.generator(gens, "x")
    moving = PolyDerivation(gens, {"x": x})
    assert find_poisson_tensor(moving, x * x, 2) is None
    assert old_find_poisson_tensor(moving, x * x, 2) is None
    still = PolyDerivation(gens, {})
    got = find_poisson_tensor(still, x * x, 2)
    assert got.components == old_find_poisson_tensor(still, x * x, 2).components == {}


@gen_sets
def test_many_targets_are_answered_as_one_at_a_time(gens):
    """Both ansatz searches give each target the solution it gets alone,
    None for the one without a solution."""
    rng = random.Random(len(gens) * 71 + gens.kinds.count("angle-phase"))
    zero = Poly.zero(gens)
    vectors = [_field(gens, rng).components()[:-1] + [zero] for _ in range(2)]
    coeffs = [random_poly(gens, rng, degree=1, terms=2) for _ in vectors]
    inside = [sum((c * v[a] for c, v in zip(coeffs, vectors)), zero) for a in range(len(gens))]
    outside = [zero] * (len(gens) - 1) + [Poly.one(gens)]  # no vector reaches the last slot
    targets = [inside, outside, [zero] * len(gens)]
    got = solve_combination(gens, vectors, targets, 2)
    assert got == [solve_combination(gens, vectors, [t], 2)[0] for t in targets]
    assert got[0] is not None and got[1] is None
    y = _field(gens, rng)
    fields = [y.components()] * 2  # Y f = 1 and Y f = 0 at once has no solution
    f = random_poly(gens, rng, degree=2, terms=3)  # inside the ansatz
    targets = [[apply(y, f)] * 2, [Poly.one(gens), zero], [zero, zero]]
    got = solve_preimage(gens, fields, targets, 2)
    assert got == [solve_preimage(gens, fields, [t], 2)[0] for t in targets]
    assert got[0] is not None and got[1] is None


def _homogeneous(gens, rng, degree, terms=3):
    out = Poly.zero(gens)
    for _ in range(terms):
        exps = [0] * len(gens)
        for _ in range(degree):
            exps[rng.randrange(len(gens))] += 1
        out = out + Poly(gens, {tuple(exps): Scalar.from_gauss(random_gauss(rng))})
    return out


@gen_sets
def test_f_related_reduce_matches_power_oracle(gens):
    """The Euler field (x -> x, and u -> -i on an angle-phase u, so that
    u^k -> k u^k) scales a homogeneous F^j by its degree: g_j = d_j x_j."""
    rng = random.Random(len(gens) * 67 + gens.kinds.count("angle-phase"))
    components = [_homogeneous(gens, rng, d) for d in (1, 2)]
    euler = PolyDerivation(
        gens,
        {
            n: Poly.constant(gens, -GR_I) if k == "angle-phase" else Poly.generator(gens, n)
            for n, k in zip(gens.names, gens.kinds)
        },
    )
    got = f_related_reduce(euler, components, 3)
    assert got is not None and got == old_f_related_reduce(euler, components, 3)
    x1, x2 = (Poly.generator(got.gens, n) for n in got.gens.names)
    assert got.images == {"x1": x1, "x2": x2.scale(2)}
    other = _field(gens, rng)
    assert f_related_reduce(other, components, 3) == old_f_related_reduce(other, components, 3)


# -- theta -------------------------------------------------------------------------


def test_theta_carrying_tensor_or_field_is_rejected():
    gens = GeneratorSet.phase_space(1)
    q, p = Poly.generator(gens, "q"), Poly.generator(gens, "p")
    theta_q = q.scale(Scalar.theta())
    tensor = PoissonTensor(gens, {(0, 1): Poly.one(gens) + theta_q})
    with pytest.raises(ValueError, match="exact searches need theta-free polynomials"):
        find_hamiltonian(tensor, PolyDerivation(gens, {"q": p}), 2)
    with pytest.raises(ValueError, match="exact searches need theta-free polynomials"):
        find_hamiltonian(PoissonTensor.canonical(1), PolyDerivation(gens, {"q": theta_q}), 2)
    field = PolyDerivation(gens, {"q": theta_q})
    with pytest.raises(ValueError):
        invariant_subalgebra(Distribution([field]), 2)
    with pytest.raises(ValueError):
        express_in_fields([PolyDerivation(gens, {"q": p})], [field], 2)
    with pytest.raises(ValueError):
        derivation_columns([[theta_q, p]], 2, 2)
    with pytest.raises(ValueError):
        shifted_columns([theta_q], 2, 2)


# -- the layout store --------------------------------------------------------------


@pytest.fixture
def layouts():
    """The layout store, empty when the test starts and when it ends."""
    poly._layouts.clear()
    yield poly._layouts
    poly._layouts.clear()


def _rebuilt(obj, cls):
    """An equal object of class `cls` built from the JSON text of `obj`,
    sharing no part with it."""
    return cls.from_json(json.loads(json.dumps(obj.to_json())))


def _canonical_from_json(n_pairs):
    """PoissonTensor.canonical(n_pairs) written as -Lambda^{ba}, in reverse
    order, from JSON."""
    gens = GeneratorSet.phase_space(n_pairs)
    minus_one = Poly.constant(gens, -1).to_json()
    components = [{"a": n_pairs + a, "b": a, "poly": minus_one} for a in reversed(range(n_pairs))]
    return PoissonTensor.from_json({"generators": gens.to_json(), "components": components})


def _rows(fields):
    return [y.components() for y in fields]


@pytest.mark.parametrize("n_pairs", [1, 2])
def test_repeated_hamiltonian_searches_equal_a_cold_build(layouts, n_pairs):
    """One canonical tensor asked about several dynamics, once from
    ``canonical`` and once from JSON: the second tensor builds no layout,
    its answers equal those of a cold store, and its columns equal the
    Poly-built oracle's."""
    rng = random.Random(101 + n_pairs)
    tensor, again = PoissonTensor.canonical(n_pairs), _canonical_from_json(n_pairs)
    gens, n, cap = tensor.gens, 2 * n_pairs, 4
    deltas = [hamiltonian_field(tensor, random_poly(gens, rng, degree=4, terms=4)) for _ in range(3)]
    deltas.append(_field(gens, rng))  # a divergence, so no Hamiltonian
    cold = []
    for delta in deltas:
        layouts.clear()
        cold.append(find_hamiltonian(tensor, delta, cap))
    built = len(layouts)
    assert [find_hamiltonian(again, _rebuilt(d, PolyDerivation), cap) for d in deltas] == cold
    assert len(layouts) == built
    assert all(h is not None for h in cold[:-1]) and cold[-1] is None
    columns = derivation_columns(_rows(again.rows), n, cap)
    assert columns is derivation_columns(_rows(tensor.rows), n, cap)
    assert _all_values(columns) == _all_values(old_field_columns(again, monomials(n, cap)))


def test_repeated_invariant_searches_equal_a_cold_build(layouts):
    gens = GeneratorSet.plain(("x", "y", "z"))
    x, y = Poly.generator(gens, "x"), Poly.generator(gens, "y")
    rotation = PolyDerivation(gens, {"x": -y.scale(3), "y": x.scale(3)})
    cold = invariant_subalgebra(Distribution([rotation]), 6)
    built = len(layouts)
    again = Distribution([_rebuilt(rotation, PolyDerivation)])
    assert invariant_subalgebra(again, 6) == cold and len(cold) == 16
    assert len(layouts) == built
    columns = derivation_columns(_rows(again.fields), 3, 6)
    assert _all_values(columns) == _all_values(old_apply_columns(again.fields, monomials(3, 6)))


def test_repeated_normalizer_checks_equal_a_cold_build(layouts):
    """delta against span(d/dq1, d/dq2) on R^4 (a member and a non-member),
    with the fields built directly and from JSON."""
    rng = random.Random(107)
    gens = GeneratorSet.phase_space(2)
    one = Poly.one(gens)
    fields = [PolyDerivation(gens, {name: one}) for name in ("q1", "q2")]
    p_only = GeneratorSet.plain(("p1", "p2"))
    member = {n: random_poly(gens, rng, degree=3, terms=3) for n in ("q1", "q2")}
    for n in ("p1", "p2"):  # p-components free of q1, q2
        f = random_poly(p_only, rng, degree=3, terms=3)
        member[n] = Poly(gens, {(0, 0) + e: c for e, c in f.terms.items()})
    member = PolyDerivation(gens, member)
    outside = PolyDerivation(gens, {**member.images, "p1": member.images["p1"] + Poly.generator(gens, "q1")})
    cold = []
    for delta in (member, outside):
        layouts.clear()
        rep = normalizer_check(delta, Distribution(fields), 3)
        cold.append((rep.status, rep.coefficients, rep.witness))
    built = len(layouts)
    again = Distribution([_rebuilt(y, PolyDerivation) for y in fields])
    for delta, want in zip((member, outside), cold):
        rep = normalizer_check(_rebuilt(delta, PolyDerivation), again, 3)
        assert (rep.status, rep.coefficients, rep.witness) == want
    assert [status for status, _, _ in cold] == ["member", "non-member"]
    assert len(layouts) == built
    for y in again.fields:
        got = _all_values(shifted_columns(y.components(), 4, 3))
        assert got == _all_values(old_shifted_columns(y.components(), monomials(4, 3)))


def test_fields_that_differ_never_share_a_layout(layouts):
    """Fields equal but for one coefficient, a common denominator, the kind
    of a generator they differentiate along, or the component (or field)
    that holds a term each get their own columns, each equal to the
    Poly-built oracle's.  Only the kind of a generator with an image is in
    the key: u d_I has the same columns whether u is an angle-phase
    generator or not."""
    plain = GeneratorSet(("u", "I"), ("plain", "plain"))
    angle = GeneratorSet(("u", "I"), ("angle-phase", "plain"))
    variants = []
    for gens in (plain, angle):
        u, i = Poly.generator(gens, "u"), Poly.generator(gens, "I")
        zero = Poly.zero(gens)
        variants += [(gens, [[u * i, i]]), (gens, [[u, zero]]), (gens, [[zero, zero], [u, zero]])]
    u, i = Poly.generator(plain, "u"), Poly.generator(plain, "I")
    half = Fraction(1, 2)  # the integers of u*i d_u + I d_I over the denominator 2
    variants += [(plain, [[u * i, i.scale(2)]]), (plain, [[(u * i).scale(half), i.scale(half)]])]
    variants.append((plain, [[Poly.zero(plain), u]]))
    seen = []
    for gens, fields in variants:
        columns = derivation_columns(fields, 2, 3)
        assert all(columns is not other for other in seen)
        seen.append(columns)
        derivations = [PolyDerivation(gens, dict(zip(gens.names, f))) for f in fields]
        assert _all_values(columns) == _all_values(old_apply_columns(derivations, monomials(2, 3)))
    angle_u = Poly.generator(angle, "u")
    assert derivation_columns([[Poly.zero(angle), angle_u]], 2, 3) is seen[-1]
    shifted = []
    for polys in ([plain_u := Poly.generator(plain, "u"), Poly.zero(plain)],
                  [Poly.zero(plain), plain_u], [plain_u.scale(2), Poly.zero(plain)]):
        columns = shifted_columns(polys, 2, 3)
        assert all(columns is not other for other in shifted)
        shifted.append(columns)
        assert _all_values(columns) == _all_values(old_shifted_columns(polys, monomials(2, 3)))


def test_theta_is_refused_on_a_repeated_call(layouts):
    """The key is made by the theta gate, so a theta-carrying field is
    refused every time, also after its theta-free part was searched."""
    gens = GeneratorSet.phase_space(1)
    q, p = Poly.generator(gens, "q"), Poly.generator(gens, "p")
    theta_q = q.scale(Scalar.theta())
    invariant_subalgebra(Distribution([PolyDerivation(gens, {"q": p})]), 2)
    for _ in range(2):
        with pytest.raises(ValueError, match="exact searches need theta-free polynomials"):
            invariant_subalgebra(Distribution([PolyDerivation(gens, {"q": p + theta_q})]), 2)
        with pytest.raises(ValueError, match="exact searches need theta-free polynomials"):
            find_hamiltonian(PoissonTensor(gens, {(0, 1): Poly.one(gens) + theta_q}),
                             PolyDerivation(gens, {"q": p}), 2)
        with pytest.raises(ValueError, match="exact searches need theta-free polynomials"):
            shifted_columns([p + theta_q], 2, 2)


def test_the_store_stays_bounded(layouts):
    """More distinct layouts than the cap leave at most the cap stored, and
    a large monomial tuple is dropped like any other layout."""
    gens = GeneratorSet.plain(("x", "y"))
    big = monomials(6, 6)
    assert monomials(6, 6) is big
    for c in range(poly._LAYOUT_CAP + 4):
        derivation_columns([[Poly.constant(gens, c + 1), Poly.zero(gens)]], 2, 1)
        assert len(layouts) <= poly._LAYOUT_CAP
    assert len(layouts) == poly._LAYOUT_CAP
    again = monomials(6, 6)
    assert again == big and again is not big
