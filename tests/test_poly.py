"""Sparse polynomials: ring structure, partials, the theta -> 0 limit."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from aldyn.poly import GeneratorMismatch, GeneratorSet, Poly
from aldyn.scalars import GaussRational, Scalar

from conftest import polys, random_poly

GENS = GeneratorSet.phase_space(1)
Q = Poly.generator(GENS, "q")
P = Poly.generator(GENS, "p")
THETA = Poly.constant(GENS, Scalar.theta())


class TestAdd:
    def test_cancellation(self):
        assert (Q + P) + (Q - P) == Q.scale(2)

    def test_additive_identity(self):
        f = Q * P + P**2
        assert f + Poly.zero(GENS) == f

    def test_theta_term_cancellation(self):
        assert (Q + THETA * P) + (Q - THETA * P) == Q.scale(2)

    def test_term_count_bound(self):
        rng = random.Random(5)
        for _ in range(20):
            a = random_poly(GENS, rng)
            b = random_poly(GENS, rng)
            assert len((a + b).terms) <= len(a.terms) + len(b.terms)

    def test_generator_mismatch(self):
        other = Poly.generator(GeneratorSet.plain(["x"]), "x")
        with pytest.raises(GeneratorMismatch):
            Q + other


class TestMul:
    def test_product(self):
        assert Q * P == Poly(GENS, {(1, 1): Scalar.one()})

    def test_binomial_square(self):
        expected = Q**2 + (Q * P).scale(2) + P**2
        assert (Q + P) ** 2 == expected

    def test_laurent_inverse(self):
        # exponent-vector addition oracle: (1) + (-1) = 0 on the u slot
        aa = GeneratorSet.action_angle(1)
        u = Poly.generator(aa, "u")
        u_inv = Poly.generator(aa, "u", power=-1)
        assert u * u_inv == Poly.one(aa)

    def test_degree_additive(self):
        rng = random.Random(6)
        for _ in range(20):
            a = random_poly(GENS, rng, terms=2)
            b = random_poly(GENS, rng, terms=2)
            if a.is_zero() or b.is_zero():
                continue
            assert (a * b).total_degree() <= a.total_degree() + b.total_degree()

    def test_negative_exponent_rejected_for_plain(self):
        with pytest.raises(ValueError):
            Poly(GENS, {(-1, 0): Scalar.one()})


class TestPartial:
    def test_power_rule(self):
        assert (Q**2 * P).partial("q") == (Q * P).scale(2)

    def test_vanishing(self):
        assert Q.partial("p").is_zero()

    def test_angle_phase_derivative(self):
        # chain rule on e^{2 i theta}: d/dtheta u^2 = 2i u^2
        aa = GeneratorSet.action_angle(1)
        u2 = Poly.generator(aa, "u", power=2)
        assert u2.partial("u") == u2.scale(Scalar.of(0, 2))

    def test_unknown_generator(self):
        with pytest.raises(KeyError):
            Q.partial("nope")

    @settings(max_examples=40, deadline=None)
    @given(polys(GENS), polys(GENS))
    def test_leibniz(self, f, g):
        for name in GENS.names:
            lhs = (f * g).partial(name)
            rhs = f * g.partial(name) + f.partial(name) * g
            assert lhs == rhs


class TestThetaLimit:
    def test_drops_positive_powers(self):
        f = Q * P + (Q * P).scale(Scalar.of(0, 2, theta_power=1)) - Poly.constant(
            GENS, Scalar.of(Fraction(1, 2), theta_power=2)
        )
        assert f.theta_graded_part(0) == Q * P

    def test_identity_on_theta_free(self):
        f = Q**3 + P
        assert f.theta_graded_part(0) == f

    def test_kills_pure_theta(self):
        assert (THETA * Q).theta_graded_part(0).is_zero()

    @settings(max_examples=40, deadline=None)
    @given(polys(GENS, theta_max=3))
    def test_graded_part_equals_the_public_constructor_build(self, f):
        """Each theta order, built through the trusted constructors, equals
        the validated build: theta-free coefficients and no zero term."""
        for k in range(5):
            part = f.theta_graded_part(k)
            expected = Poly(
                GENS, {e: Scalar.from_gauss(c.theta_coefficient(k)) for e, c in f.terms.items()}
            )
            assert part == expected
            assert all(list(c.terms) == [0] for c in part.terms.values())

    @settings(max_examples=40, deadline=None)
    @given(polys(GENS, theta_max=2), polys(GENS, theta_max=2))
    def test_pointwise_homomorphism(self, f, g):
        assert (f * g).theta_graded_part(0) == f.theta_graded_part(0) * g.theta_graded_part(0)


AA = GeneratorSet.action_angle(2)
U1, U2, I1 = (Poly.generator(AA, n) for n in ("u1", "u2", "I1"))


class TestLaurentUnitPowers:
    def test_inverse_of_a_unit(self):
        unit = (U1**2 * U2).scale(GaussRational.of(2, -1))
        inv = unit**-1
        assert unit * inv == Poly.one(AA)
        assert inv == (Poly.generator(AA, "u1", -2) * Poly.generator(AA, "u2", -1)).scale(
            GaussRational.of(Fraction(2, 5), Fraction(1, 5))
        )
        assert unit**-3 == inv**3

    @pytest.mark.parametrize(
        "f",
        [U1 + I1, U1 * I1, U1.scale(Scalar.theta()), Poly.zero(AA), Q],
        ids=["two-terms", "plain-exponent", "theta-coefficient", "zero", "position"],
    )
    def test_non_units_are_rejected(self, f):
        with pytest.raises(ValueError):
            f**-1

    def test_substitute_into_laurent_exponents(self):
        f = Poly.generator(AA, "u1", -2) * I1
        images = {n: Poly.generator(AA, n) for n in AA.names}
        rotated = {**images, "u1": U1.scale(GaussRational.of(0, 1))}
        assert f.substitute(rotated) == f.scale(-1)
        with pytest.raises(ValueError):
            f.substitute({**images, "u1": U1 + I1})


@settings(max_examples=40, deadline=None)
@given(polys(GENS), polys(GENS), polys(GENS))
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


def test_substitute_composition():
    f = Q**2 + P
    image = f.substitute({"q": Q + P, "p": P})
    assert image == (Q + P) ** 2 + P


def test_substitute_requires_all_generators():
    with pytest.raises(ValueError):
        (Q + P).substitute({"q": Q})


def test_evaluate_exact():
    f = Q**2 - P.scale(3)
    value = f.evaluate_exact(
        {"q": GaussRational.of(2), "p": GaussRational.of(Fraction(1, 3))}
    )
    assert value == GaussRational.of(3)


def test_grlex_term_order_is_canonical():
    f = Q**2 + P + Poly.one(GENS)
    exps = [e for e, _ in f.sorted_terms()]
    assert exps == [(0, 0), (0, 1), (2, 0)]


class TestLinear:
    def test_sum_of_scaled_generators(self):
        f = Poly.linear(GENS, [Fraction(1, 2), GaussRational.of(0, -3)])
        assert f == Q.scale(Fraction(1, 2)) + P.scale(GaussRational.of(0, -3))

    def test_zero_coefficients_leave_no_term(self):
        assert Poly.linear(GENS, [0, 0]).is_zero()
        assert Poly.linear(GENS, [0, 2.5]).terms == {(0, 1): Scalar.coerce(2.5)}

    @pytest.mark.parametrize("coeffs", [[], [1], [1, 2, 3]])
    def test_one_coefficient_per_generator(self, coeffs):
        with pytest.raises(ValueError, match="takes 2 coefficients"):
            Poly.linear(GENS, coeffs)


def test_json_round_trip():
    rng = random.Random(7)
    for _ in range(10):
        f = random_poly(GENS, rng, theta_max=2)
        assert Poly.from_json(f.to_json()) == f


def test_json_round_trip_laurent():
    aa = GeneratorSet.action_angle(1)
    f = Poly.generator(aa, "u", power=-3) + Poly.generator(aa, "I") ** 2
    assert Poly.from_json(f.to_json()) == f
