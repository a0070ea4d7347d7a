"""Star product: exactness in theta, brackets, inner derivations, ambiguity.

Two oracles share no code with the production multi-index sum.  The
one-dimensional oracle expands the k-th bidifferential term by its explicit
binomial formula (alternating mixed partials).  The tensor-summand oracle
is the earlier implementation: it applies Lambda^{ab} d_a (x) d_b k times
to a list of (u, v) pairs, one pair per sequence of Lambda entries, and
never merges equal derivative pairs; it holds for any constant tensor,
of any rank.  The Wigner oracle is the earlier sampled check: the
pairing condition omega c + c^T omega = 0 and star-Leibniz on seeded
random polynomial pairs.
"""

import random
from fractions import Fraction
from functools import partial
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aldyn.derivations import PolyDerivation, apply
from aldyn.moyal import (
    StarAlgebraContext,
    s_space_basis,
    s_space_check,
    star,
    star_commutator,
    wigner_ambiguity_check,
)
from aldyn.poisson import SU2, PoissonTensor, bracket, lie_poisson
from aldyn.poly import GeneratorSet, Poly
from aldyn.scalars import GaussRational, Scalar

from conftest import polys, random_gauss, random_poly

CTX = StarAlgebraContext.canonical(1)
GENS = CTX.gens
Q = Poly.generator(GENS, "q")
P = Poly.generator(GENS, "p")

CTX4 = StarAlgebraContext.canonical(2)


def multi_partial(f: Poly, name: str, k: int) -> Poly:
    for _ in range(k):
        f = f.partial(name)
    return f


def star_oracle_1d(f: Poly, g: Poly) -> Poly:
    """Binomial-expansion oracle for the star product on one (q, p) pair."""
    out = Poly.zero(GENS)
    max_k = min(f.total_degree(), g.total_degree())
    for k in range(max_k + 1):
        d_k = Poly.zero(GENS)
        for m in range(k + 1):
            df = multi_partial(multi_partial(f, "q", k - m), "p", m)
            dg = multi_partial(multi_partial(g, "p", k - m), "q", m)
            term = (df * dg).scale(Fraction((-1) ** m * comb(k, m)))
            d_k = d_k + term
        weight = Scalar.from_gauss(
            GaussRational.of(0, Fraction(1, 2)) ** k, theta_power=k
        ).scale(GaussRational.of(Fraction(1, _fact(k))))
        out = out + d_k.scale(weight)
    return out


def _fact(k: int) -> int:
    out = 1
    for i in range(2, k + 1):
        out *= i
    return out


def star_tensor_oracle(ctx: StarAlgebraContext, f: Poly, g: Poly) -> Poly:
    """sum_k (i theta/2)^k / k! D_k(f, g) with D_k expanded summand by summand."""
    names = ctx.gens.names
    tensor = ctx.poisson_tensor()
    entries = [
        (a, b, tensor.component(a, b).terms[(0,) * len(names)])
        for a in range(len(names))
        for b in range(len(names))
        if not tensor.component(a, b).is_zero()
    ]
    out = Poly.zero(ctx.gens)
    pairs = [(f, g)]
    k = 0
    factorial = 1
    half_i = GaussRational(Fraction(0), Fraction(1, 2))
    while pairs:
        weight = Scalar.from_gauss(half_i**k, theta_power=k).scale(
            GaussRational.of(Fraction(1, factorial))
        )
        level = Poly.zero(ctx.gens)
        for u, v in pairs:
            level = level + u * v
        if not level.is_zero():
            out = out + level.scale(weight)
        next_pairs = []
        for u, v in pairs:
            for a, b, c in entries:
                du = u.partial(names[a])
                if du.is_zero():
                    continue
                dv = v.partial(names[b])
                if dv.is_zero():
                    continue
                next_pairs.append((du.scale(c), dv))
        pairs = next_pairs
        k += 1
        factorial *= k
    return out


def constant_context(gens: GeneratorSet, entries: dict) -> StarAlgebraContext:
    """The context of the constant tensor with Lambda^{ab} = entries[(a, b)]."""
    comps = {ab: Poly.constant(gens, c) for ab, c in entries.items()}
    return StarAlgebraContext(PoissonTensor(gens, comps))


def rank_two_context() -> StarAlgebraContext:
    """Lambda = u ^ v for two fixed vectors u, v: rank 2 on R^4."""
    gens = GeneratorSet.phase_space(2)
    u = [GaussRational.of(x) for x in (1, 2, 0, -1)]
    v = [GaussRational.of(0), GaussRational.of(1), GaussRational.of(3), GaussRational.of(0, 1)]
    entries = {
        (a, b): u[a] * v[b] - u[b] * v[a] for a in range(4) for b in range(a + 1, 4)
    }
    return constant_context(gens, entries)


def odd_context() -> StarAlgebraContext:
    """A constant tensor of rank 2 on R^3."""
    gens = GeneratorSet.plain(("x", "y", "z"))
    entries = {
        (0, 1): GaussRational.of(1),
        (0, 2): GaussRational.of(Fraction(-1, 2), 1),
        (1, 2): GaussRational.of(3),
    }
    return constant_context(gens, entries)


def random_pairing_context(rng: random.Random, n_pairs: int) -> StarAlgebraContext:
    """A dense random constant tensor over Q(i) on the phase-space generators."""
    gens = GeneratorSet.phase_space(n_pairs)
    pairs = [(a, b) for a in range(len(gens)) for b in range(a + 1, len(gens))]
    return constant_context(gens, {ab: random_gauss(rng, 3) for ab in pairs})


def tall_poly(gens: GeneratorSet, rng: random.Random, degree: int, terms: int) -> Poly:
    """Coefficients with six-digit numerators over four-digit denominators."""
    out = Poly.zero(gens)
    for _ in range(terms):
        exps = [0] * len(gens)
        for _ in range(rng.randint(0, degree)):
            exps[rng.randrange(len(gens))] += 1
        c = GaussRational.of(
            Fraction(rng.randint(-999_999, 999_999), rng.randint(1000, 9999)),
            Fraction(rng.randint(-999_999, 999_999), rng.randint(1000, 9999)),
        )
        out = out + Poly(gens, {tuple(exps): Scalar.from_gauss(c, rng.randint(0, 1))})
    return out


def _sample_poly(gens: GeneratorSet, rng: random.Random, degree: int, n_terms: int) -> Poly:
    out = Poly.zero(gens)
    for _ in range(n_terms):
        exps = [0] * len(gens)
        for _ in range(rng.randint(0, degree)):
            exps[rng.randrange(len(gens))] += 1
        c = GaussRational.of(Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-2, 2)))
        out = out + Poly(gens, {tuple(exps): Scalar.from_gauss(c)})
    return out


def sampled_wigner_oracle(ctx: StarAlgebraContext, c, samples: int = 8, seed: int = 7):
    """(pointwise, symplectic, star) verdicts of the earlier sampled check on
    a canonical context: omega c + c^T omega = 0 with the block pairing
    omega = Lambda^{-1}, and both Leibniz rules on (q1, p1) plus seeded pairs."""
    gens = ctx.gens
    n = len(gens)
    zero, one = GaussRational.of(0), GaussRational.of(1)
    omega = [[zero] * n for _ in range(n)]
    for a in range(n // 2):
        omega[a][n // 2 + a], omega[n // 2 + a][a] = -one, one
    cm = [[GaussRational.coerce(c[a][b]) for b in range(n)] for a in range(n)]
    delta = PolyDerivation.from_linear_map(gens, cm)
    rng = random.Random(seed)
    pairs = [(Poly.generator(gens, gens.names[0]), Poly.generator(gens, gens.names[n // 2]))]
    for _ in range(samples):
        pairs.append((_sample_poly(gens, rng, 3, 3), _sample_poly(gens, rng, 3, 3)))
    pointwise = all(
        apply(delta, f * g) == apply(delta, f) * g + f * apply(delta, g) for f, g in pairs
    )
    symplectic = all(
        sum((omega[a][k] * cm[k][b] + cm[k][a] * omega[k][b] for k in range(n)), zero).is_zero()
        for a in range(n)
        for b in range(n)
    )
    star_ok = all(
        apply(delta, star(ctx, f, g))
        == star(ctx, apply(delta, f), g) + star(ctx, f, apply(delta, g))
        for f, g in pairs
    )
    return pointwise, symplectic, symplectic and star_ok


def seeded_dynamics(rng: random.Random, n_pairs: int, kind: str) -> list:
    """c = Lambda S with S symmetric preserves the canonical Lambda; "perturbed"
    adds mu to one diagonal entry, which breaks it; "random" is dense."""
    n = 2 * n_pairs
    if kind == "random":
        return [[random_gauss(rng, 2) for _ in range(n)] for _ in range(n)]
    s = [[GaussRational.of(0)] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            s[a][b] = s[b][a] = random_gauss(rng, 3)
    # (Lambda S)^a_b: row q_a is row p_a of S, row p_a is minus row q_a
    c = [list(s[n_pairs + a]) for a in range(n_pairs)]
    c += [[-x for x in s[a]] for a in range(n_pairs)]
    if kind == "perturbed":
        i = rng.randrange(n)
        c[i][i] = c[i][i] + GaussRational.of(rng.choice((-2, -1, 1, 2)))
    return c


I_THETA = Scalar.from_gauss(GaussRational.of(0, 1), theta_power=1)


class TestStar:
    def test_q_star_p(self):
        expected = Q * P + Poly.constant(
            GENS, Scalar.of(0, Fraction(1, 2), theta_power=1)
        )
        assert star(CTX, Q, P) == expected

    def test_unit(self):
        rng = random.Random(21)
        f = random_poly(GENS, rng)
        one = Poly.one(GENS)
        assert star(CTX, f, one) == f
        assert star(CTX, one, f) == f

    def test_squares(self):
        # D_1(q^2, p^2) = 4qp and D_2(q^2, p^2) = 4
        expected = (
            Q**2 * P**2
            + (Q * P).scale(Scalar.of(0, 2, theta_power=1))
            - Poly.constant(GENS, Scalar.of(Fraction(1, 2), theta_power=2))
        )
        assert star(CTX, Q**2, P**2) == expected
        assert star_oracle_1d(Q**2, P**2) == expected

    def test_matches_binomial_oracle(self):
        rng = random.Random(22)
        for _ in range(25):
            f = random_poly(GENS, rng, degree=4, terms=3)
            g = random_poly(GENS, rng, degree=4, terms=3)
            assert star(CTX, f, g) == star_oracle_1d(f, g)

    def test_rejects_angle_phase(self):
        aa = GeneratorSet.action_angle(1)
        with pytest.raises(ValueError):
            StarAlgebraContext(PoissonTensor(aa, {(0, 1): Poly.one(aa)}))
        with pytest.raises(ValueError):
            StarAlgebraContext(PoissonTensor(aa, {}))

    def test_associativity_r2(self):
        rng = random.Random(23)
        for _ in range(15):
            f = random_poly(GENS, rng, degree=4, terms=3)
            g = random_poly(GENS, rng, degree=4, terms=3)
            h = random_poly(GENS, rng, degree=4, terms=3)
            assert star(CTX, f, star(CTX, g, h)) == star(CTX, star(CTX, f, g), h)

    def test_associativity_r4(self):
        rng = random.Random(24)
        for _ in range(5):
            f = random_poly(CTX4.gens, rng, degree=3, terms=3)
            g = random_poly(CTX4.gens, rng, degree=3, terms=3)
            h = random_poly(CTX4.gens, rng, degree=3, terms=3)
            assert star(CTX4, f, star(CTX4, g, h)) == star(CTX4, star(CTX4, f, g), h)

    def test_theta_zero_term_is_pointwise_product(self):
        rng = random.Random(25)
        for _ in range(10):
            f = random_poly(GENS, rng)
            g = random_poly(GENS, rng)
            assert star(CTX, f, g).theta_graded_part(0) == (f * g).theta_graded_part(0)

    def test_symmetric_part_even_antisymmetric_part_odd(self):
        rng = random.Random(26)
        for _ in range(10):
            f = random_poly(GENS, rng, degree=4, terms=3)
            g = random_poly(GENS, rng, degree=4, terms=3)
            sym = star(CTX, f, g) + star(CTX, g, f)
            alt = star(CTX, f, g) - star(CTX, g, f)
            assert all(k % 2 == 0 for c in sym.terms.values() for k in c.terms)
            assert all(k % 2 == 1 for c in alt.terms.values() for k in c.terms)


class TestAgainstTensorSummandOracle:
    """The multi-index sum equals the summand-by-summand expansion exactly."""

    @pytest.mark.parametrize("n_pairs,degree", [(1, 5), (2, 4), (3, 3)])
    def test_canonical(self, n_pairs, degree):
        ctx = StarAlgebraContext.canonical(n_pairs)
        rng = random.Random(40 + n_pairs)
        for _ in range(6):
            f = random_poly(ctx.gens, rng, degree=degree, terms=5)
            g = random_poly(ctx.gens, rng, degree=degree, terms=5)
            assert star(ctx, f, g) == star_tensor_oracle(ctx, f, g)

    @pytest.mark.parametrize("n_pairs", [1, 2])
    def test_theta_carrying_coefficients(self, n_pairs):
        ctx = StarAlgebraContext.canonical(n_pairs)
        rng = random.Random(50 + n_pairs)
        for _ in range(6):
            f = random_poly(ctx.gens, rng, degree=4, terms=4, theta_max=2)
            g = random_poly(ctx.gens, rng, degree=4, terms=4, theta_max=2)
            assert star(ctx, f, g) == star_tensor_oracle(ctx, f, g)

    @pytest.mark.parametrize("n_pairs", [1, 2])
    def test_tall_coefficients(self, n_pairs):
        ctx = StarAlgebraContext.canonical(n_pairs)
        rng = random.Random(60 + n_pairs)
        for _ in range(4):
            f = tall_poly(ctx.gens, rng, degree=4, terms=5)
            g = tall_poly(ctx.gens, rng, degree=4, terms=5)
            assert star(ctx, f, g) == star_tensor_oracle(ctx, f, g)

    def test_zero_and_constant_operands(self):
        rng = random.Random(70)
        for ctx in (CTX, CTX4):
            f = random_poly(ctx.gens, rng, degree=4, terms=4, theta_max=1)
            zero = Poly.zero(ctx.gens)
            c = Poly.constant(ctx.gens, Scalar.of(Fraction(3, 7), -2, theta_power=1))
            for a, b in ((zero, f), (f, zero), (zero, zero), (c, f), (f, c), (c, c)):
                assert star(ctx, a, b) == star_tensor_oracle(ctx, a, b)
            assert star(ctx, zero, f).is_zero()
            assert star(ctx, c, f) == f * c

    @pytest.mark.parametrize("n_pairs,degree", [(1, 4), (2, 3)])
    def test_non_canonical_pairings(self, n_pairs, degree):
        rng = random.Random(80 + n_pairs)
        for _ in range(6):
            ctx = random_pairing_context(rng, n_pairs)
            f = random_poly(ctx.gens, rng, degree=degree, terms=3, theta_max=1)
            g = random_poly(ctx.gens, rng, degree=degree, terms=3)
            assert star(ctx, f, g) == star_tensor_oracle(ctx, f, g)

    def test_commutator_is_oracle_difference(self):
        rng = random.Random(90)
        contexts = [CTX, CTX4, StarAlgebraContext.canonical(3)]
        contexts += [random_pairing_context(rng, 1), random_pairing_context(rng, 2)]
        for ctx in contexts:
            for _ in range(3):
                f = random_poly(ctx.gens, rng, degree=3, terms=3, theta_max=1)
                g = random_poly(ctx.gens, rng, degree=3, terms=3, theta_max=1)
                expected = star_tensor_oracle(ctx, f, g) - star_tensor_oracle(ctx, g, f)
                assert star_commutator(ctx, f, g) == expected

    def test_non_canonical_associativity(self):
        rng = random.Random(91)
        ctx = random_pairing_context(rng, 2)
        for _ in range(3):
            f, g, h = (random_poly(ctx.gens, rng, degree=2, terms=3) for _ in range(3))
            assert star(ctx, f, star(ctx, g, h)) == star(ctx, star(ctx, f, g), h)


class TestContext:
    def test_canonical_lambda(self):
        # [x^a, x^b]_* = i theta Lambda^{ab}, read off the context's entries
        ctx = StarAlgebraContext.canonical(2)
        x = [Poly.generator(ctx.gens, name) for name in ctx.gens.names]
        for a in range(4):
            for b in range(4):
                lam = 1 if b == a + 2 else -1 if a == b + 2 else 0
                expected = Poly.constant(ctx.gens, Scalar.of(0, lam, theta_power=1))
                assert star_commutator(ctx, x[a], x[b]) == expected

    def test_poisson_tensor_is_stored(self):
        tensor = PoissonTensor.canonical(2)
        ctx = StarAlgebraContext(tensor)
        assert ctx.poisson_tensor() is tensor
        assert CTX.poisson_tensor() is CTX.poisson_tensor()

    def test_rejects_non_constant_components(self):
        with pytest.raises(ValueError):
            StarAlgebraContext(lie_poisson(SU2))
        tensor = PoissonTensor.canonical(1)
        q_lam = PoissonTensor(GENS, {(0, 1): Q * tensor.component(0, 1)})
        with pytest.raises(ValueError):
            StarAlgebraContext(q_lam)
        with pytest.raises(ValueError):
            constant_context(GENS, {(0, 1): Scalar.theta()})
        with pytest.raises(ValueError):
            constant_context(GENS, {(0, 1): Scalar.of(1) + Scalar.theta()})


class TestDegenerateTensors:
    """Constant tensors of any rank, also in odd dimension: the Moyal
    product of a constant bivector is associative whatever its rank."""

    def _check(self, ctx: StarAlgebraContext, seed: int):
        rng = random.Random(seed)
        for _ in range(4):
            f, g, h = (
                random_poly(ctx.gens, rng, degree=3, terms=3, theta_max=1)
                for _ in range(3)
            )
            assert star(ctx, f, g) == star_tensor_oracle(ctx, f, g)
            assert star(ctx, f, star(ctx, g, h)) == star(ctx, star(ctx, f, g), h)

    def test_rank_two_on_r4(self):
        self._check(rank_two_context(), 100)

    def test_odd_dimension(self):
        self._check(odd_context(), 101)

    def test_zero_tensor_is_pointwise(self):
        gens = GeneratorSet.plain(("x", "y", "z"))
        ctx = StarAlgebraContext(PoissonTensor(gens, {}))
        rng = random.Random(102)
        f, g = (random_poly(gens, rng, theta_max=1) for _ in range(2))
        assert star(ctx, f, g) == f * g


def term(gens: GeneratorSet, exps, theta: int = 0, re=1, im=0) -> Poly:
    return Poly(gens, {tuple(exps): Scalar.of(re, im, theta_power=theta)})


def assert_star_and_commutator(ctx: StarAlgebraContext, f: Poly, g: Poly, oracle):
    """star and star_commutator on (f, g) equal oracle(f, g) and its
    antisymmetrisation."""
    fg = oracle(f, g)
    assert star(ctx, f, g) == fg
    assert star_commutator(ctx, f, g) == fg - oracle(g, f)


class TestPackedKeys:
    """Terms are keyed by one packed int, (2M + 1).bit_length() bits per
    slot, M the largest total degree plus theta power of either operand.
    These inputs put slots at 2M, their largest value, on both sides of
    each change of width."""

    @pytest.mark.parametrize("m", [3, 4, 7, 8, 15, 16, 31, 32])
    def test_slots_at_the_width_bound(self, m):
        # q^m q^m, p^m p^m and theta^m theta^m fill the q, p and theta
        # slots to 2m; q^m * p^m differentiates m times
        a = m // 2
        f = (
            term(GENS, (m, 0), re=3)
            + term(GENS, (0, m), im=1)
            + term(GENS, (0, 0), m, re=Fraction(1, 2))
            + term(GENS, (a, m - a - 1), 1, re=-1, im=2)
        )
        g = (
            term(GENS, (m, 0), re=-1)
            + term(GENS, (0, m), re=2)
            + term(GENS, (0, 0), m, im=-3)
            + term(GENS, (m - a - 1, a), 1, re=Fraction(5, 3))
        )
        assert_star_and_commutator(CTX, f, g, star_oracle_1d)

    def test_degree_64_operand(self):
        f = term(GENS, (31, 33), re=2, im=-1)
        g = term(GENS, (3, 2), 2) + term(GENS, (0, 1), im=1)
        assert_star_and_commutator(CTX, f, g, star_oracle_1d)
        assert_star_and_commutator(CTX, g, f, star_oracle_1d)

    def test_theta_squared_constant_against_high_degree(self):
        c = term(GENS, (0, 0), 2, re=2, im=Fraction(-1, 3))
        f = term(GENS, (20, 11), 1) + term(GENS, (0, 31), re=-4) + Q
        for a, b in ((c, f), (f, c)):
            assert_star_and_commutator(CTX, a, b, star_oracle_1d)
        assert star(CTX, c, f) == c * f
        assert star_commutator(CTX, c, f).is_zero()

    @pytest.mark.parametrize(
        "ctx",
        [StarAlgebraContext.canonical(3), rank_two_context(), odd_context()],
        ids=["R6", "rank-2-R4", "odd-R3"],
    )
    def test_other_tensors_at_the_width_bound(self, ctx):
        # M = 7: x0^7 x0^7 and theta^7 theta^7 fill their slots to 14
        n = len(ctx.gens)
        first, last = [0] * n, [0] * n
        first[0], last[-1] = 7, 7
        mixed = [0] * n
        mixed[0], mixed[1], mixed[-1] = 1, 2, 1
        f = (
            term(ctx.gens, first)
            + term(ctx.gens, mixed, 2, re=Fraction(1, 2))
            + term(ctx.gens, [0] * n, 7, im=1)
        )
        g = (
            term(ctx.gens, last, re=-2)
            + term(ctx.gens, first, im=3)
            + term(ctx.gens, mixed[::-1], 1)
            + term(ctx.gens, [0] * n, 7, re=2)
        )
        assert_star_and_commutator(ctx, f, g, partial(star_tensor_oracle, ctx))

    def test_zero_operands(self):
        rng = random.Random(103)
        for ctx in (CTX, CTX4, StarAlgebraContext.canonical(3), odd_context()):
            zero = Poly.zero(ctx.gens)
            f = random_poly(ctx.gens, rng, degree=4, terms=3, theta_max=2)
            for a, b in ((zero, f), (f, zero), (zero, zero)):
                assert star(ctx, a, b).is_zero()
                assert star_commutator(ctx, a, b).is_zero()
                assert star_tensor_oracle(ctx, a, b).is_zero()


@st.composite
def _context_and_operands(draw):
    ctx = draw(st.sampled_from([CTX, CTX4, odd_context()]))
    degree = 5 if ctx is CTX else 3
    f, g = (draw(polys(ctx.gens, degree=degree, max_terms=3, theta_max=3)) for _ in range(2))
    return ctx, f, g


@settings(derandomize=True, max_examples=40, deadline=None)
@given(_context_and_operands())
def test_star_matches_oracle_on_theta_carrying_polys(args):
    ctx, f, g = args
    assert_star_and_commutator(ctx, f, g, partial(star_tensor_oracle, ctx))


class TestStarCommutator:
    def test_canonical_commutation_relation(self):
        assert star_commutator(CTX, Q, P) == Poly.constant(GENS, I_THETA)

    def test_vanishes_on_equal_arguments(self):
        rng = random.Random(27)
        f = random_poly(GENS, rng)
        assert star_commutator(CTX, f, f).is_zero()

    def test_squares_reduce_to_poisson(self):
        expected = (Q * P).scale(Scalar.of(0, 4, theta_power=1))
        got = star_commutator(CTX, Q**2, P**2)
        assert got == expected
        assert got == bracket(CTX.poisson_tensor(), Q**2, P**2).scale(I_THETA)

    def test_leading_order_is_poisson_bracket(self):
        rng = random.Random(28)
        tensor = CTX.poisson_tensor()
        for _ in range(10):
            f = random_poly(GENS, rng)
            g = random_poly(GENS, rng)
            comm = star_commutator(CTX, f, g)
            pb = bracket(tensor, f, g)
            assert comm.theta_graded_part(1) == pb.scale(Scalar.i()).theta_graded_part(0)

    def test_central_constants(self):
        rng = random.Random(29)
        f = random_poly(GENS, rng)
        c = Poly.constant(GENS, Scalar.of(3, 4))
        assert star_commutator(CTX, c, f).is_zero()


def inner_star_derivation(x: Poly):
    """f -> (i/theta) [x, f]_*: exact, since a star commutator of polynomial
    symbols is divisible by theta."""
    return lambda f: star_commutator(CTX, x, f).divide_theta().scale(Scalar.i())


class TestInnerStarDerivation:
    def test_momentum_generates_position_derivative(self):
        d = inner_star_derivation(P)
        assert d(Q**2) == Q.scale(2)
        rng = random.Random(30)
        for _ in range(10):
            f = random_poly(GENS, rng)
            assert d(f) == f.partial("q")

    def test_position_generates_minus_momentum_derivative(self):
        d = inner_star_derivation(Q)
        rng = random.Random(31)
        for _ in range(10):
            f = random_poly(GENS, rng)
            assert d(f) == -f.partial("p")

    def test_constant_is_central(self):
        d = inner_star_derivation(Poly.constant(GENS, Scalar.of(5)))
        rng = random.Random(32)
        assert d(random_poly(GENS, rng)).is_zero()

    def test_dilation_generator(self):
        d = inner_star_derivation(Q * P)
        assert d(Q) == Q
        assert d(P) == -P

    def test_star_leibniz_for_polynomial_generators(self):
        rng = random.Random(33)
        for _ in range(8):
            x = random_poly(GENS, rng, degree=3, terms=3)
            d = inner_star_derivation(x)
            f = random_poly(GENS, rng, degree=3, terms=2)
            g = random_poly(GENS, rng, degree=3, terms=2)
            lhs = d(star(CTX, f, g))
            rhs = star(CTX, d(f), g) + star(CTX, f, d(g))
            assert lhs == rhs


class TestSSpace:
    def test_basis_dimension(self):
        assert len(s_space_basis(CTX4.gens)) == 15

    def test_full_check_passes(self):
        report = s_space_check(CTX4)
        assert report.dimension == 15
        assert report.ok
        assert not report.failures

    def test_quadratic_pair_entry(self):
        report = s_space_check(CTX4)
        basis = s_space_basis(CTX4.gens)
        q1 = Poly.generator(CTX4.gens, "q1")
        p1 = Poly.generator(CTX4.gens, "p1")
        i = basis.index(q1**2)
        j = basis.index(p1**2)
        lo, hi = min(i, j), max(i, j)
        entry = report.table[(lo, hi)]
        expected = (q1 * p1).scale(4)
        assert entry == expected or entry == -expected

    def test_central_element(self):
        report = s_space_check(CTX4)
        basis = s_space_basis(CTX4.gens)
        one_idx = basis.index(Poly.one(CTX4.gens))
        for (i, j), entry in report.table.items():
            if one_idx in (i, j):
                assert entry.is_zero()

    def test_requires_r4(self):
        with pytest.raises(ValueError):
            s_space_check(CTX)


class TestWignerAmbiguity:
    def test_free_matrix(self):
        rep = wigner_ambiguity_check(CTX, [[0, 1], [0, 0]])
        assert rep.pointwise_leibniz
        assert rep.symplectic_condition
        assert rep.star_leibniz

    def test_oscillator_matrix(self):
        rep = wigner_ambiguity_check(CTX, [[0, 1], [-1, 0]])
        assert rep.pointwise_leibniz
        assert rep.symplectic_condition
        assert rep.star_leibniz

    def test_euler_matrix(self):
        rep = wigner_ambiguity_check(CTX, [[1, 0], [0, 1]])
        assert rep.pointwise_leibniz
        assert not rep.symplectic_condition
        assert not rep.star_leibniz
        assert rep.witness is not None

    def test_euler_failure_is_genuine(self):
        # delta(q * p) has no theta part while the Leibniz expansion does
        euler = PolyDerivation.from_linear_map(GENS, [[1, 0], [0, 1]])
        lhs = apply(euler, star(CTX, Q, P))
        rhs = star(CTX, apply(euler, Q), P) + star(CTX, Q, apply(euler, P))
        assert lhs != rhs


class TestWignerAgainstSampledOracle:
    @pytest.mark.parametrize("n_pairs", [1, 2])
    def test_verdicts_and_witness(self, n_pairs):
        ctx = StarAlgebraContext.canonical(n_pairs)
        rng = random.Random(110 + n_pairs)
        for kind in ("preserving", "perturbed", "random"):
            for _ in range(10):
                c = seeded_dynamics(rng, n_pairs, kind)
                rep = wigner_ambiguity_check(ctx, c)
                verdicts = (rep.pointwise_leibniz, rep.symplectic_condition, rep.star_leibniz)
                assert verdicts == sampled_wigner_oracle(ctx, c)
                assert rep.star_leibniz is (kind == "preserving")
                if rep.star_leibniz:
                    assert rep.witness is None
                    continue
                # the witness pair fails star-Leibniz exactly
                delta = PolyDerivation.from_linear_map(ctx.gens, c)
                f, g = Poly.from_json(rep.witness["f"]), Poly.from_json(rep.witness["g"])
                lhs = apply(delta, star(ctx, f, g))
                assert lhs != star(ctx, apply(delta, f), g) + star(ctx, f, apply(delta, g))
