"""Inline expression parser."""

from fractions import Fraction

import pytest

from aldyn import scalars
from aldyn.parsing import ParseError, parse_poly
from aldyn.poly import GeneratorSet, Poly
from aldyn.scalars import Scalar

GENS = GeneratorSet.phase_space(1)
Q = Poly.generator(GENS, "q")
P = Poly.generator(GENS, "p")


def test_single_generator():
    assert parse_poly("q", GENS) == Q


def test_products_and_powers():
    assert parse_poly("q^2*p", GENS) == Q**2 * P
    assert parse_poly("q*q*q", GENS) == Q**3


def test_rational_coefficients():
    assert parse_poly("1/2*p^2", GENS) == (P**2).scale(Fraction(1, 2))
    assert parse_poly("3", GENS) == Poly.constant(GENS, Scalar.of(3))


def test_reserved_symbols():
    assert parse_poly("i*q", GENS) == Q.scale(Scalar.i())
    assert parse_poly("theta*p", GENS) == P.scale(Scalar.theta())
    assert parse_poly("i*theta", GENS) == Poly.constant(
        GENS, Scalar.of(0, 1, theta_power=1)
    )


def test_precedence_and_parentheses():
    assert parse_poly("q + p*q", GENS) == Q + P * Q
    assert parse_poly("(q + p)^2", GENS) == (Q + P) ** 2
    assert parse_poly("q + p^2", GENS) == Q + P**2


def test_unary_minus():
    assert parse_poly("-q", GENS) == -Q
    assert parse_poly("q - -p", GENS) == Q + P
    assert parse_poly("-(q + p)*q", GENS) == -(Q + P) * Q


def test_whitespace_insensitive():
    assert parse_poly("  q ^ 2 * p ", GENS) == Q**2 * P


def test_negative_power_on_angle_phase():
    aa = GeneratorSet.action_angle(1)
    u_inv = parse_poly("u^-2", aa)
    assert u_inv == Poly.generator(aa, "u", power=-2)


def test_negative_power_rejected_on_plain():
    with pytest.raises(ParseError):
        parse_poly("q^-1", GENS)


def test_unknown_name():
    with pytest.raises(ParseError) as err:
        parse_poly("q + w", GENS)
    assert "w" in str(err.value)


def test_syntax_errors():
    for bad in ("q +", "q^", "(q", "q^p", "2.5*q", "q q"):
        with pytest.raises(ParseError):
            parse_poly(bad, GENS)


def test_zero_denominator():
    for bad in ("1/0", "q + 3/00", "(q - 0/0)*p"):
        with pytest.raises(ParseError) as err:
            parse_poly(bad, GENS)
        assert "zero denominator" in str(err.value)


def test_round_trips_through_str():
    for text in ("q^2*p + 1/2", "q*p - i*theta", "p^3 - 2*q"):
        poly = parse_poly(text, GENS)
        again = parse_poly(str(poly), GENS)
        assert poly == again


def test_nesting_reads_until_the_recursion_limit():
    assert parse_poly("(" * 100 + "q" + ")" * 100, GENS) == Q
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_poly("(" * 2000 + "q" + ")" * 2000, GENS)


@pytest.mark.parametrize(
    "base, largest, terms",
    [
        ("(q + p)", 199, 200),
        ("(1 + q + p)", 18, 190),
        ("(q + q^2 + q^3)", 99, 199),
        ("(q*p + 2*q^2*p)", 199, 200),
    ],
    ids=["two-terms", "three-terms-two-generators", "one-generator", "common-factor"],
)
def test_power_budget_boundary(monkeypatch, base, largest, terms):
    """The terms a power can have are bounded before it is expanded: the
    largest exponent within the budget (here 200) runs, its power has as
    many terms as the bound allows, and the next exponent is refused."""
    monkeypatch.setattr(scalars, "MAX_UNKNOWNS", 200)
    power = parse_poly(f"{base}^{largest}", GENS)
    assert power == parse_poly(base, GENS) ** largest
    assert len(power.terms) == terms
    refused = rf"^\^{largest + 1}: the \d+ possible terms of the power exceed the budget of 200"
    with pytest.raises(ParseError, match=refused):
        parse_poly(f"{base}^{largest + 1}", GENS)


def test_huge_power_is_refused_before_it_is_expanded():
    with pytest.raises(ParseError, match="the 100001 possible terms of the power exceed"):
        parse_poly("(q+p)^100000", GENS)
    # a one-term base, or a power of 0 or 1, has one term whatever the exponent
    assert len(parse_poly("(2*q)^100000", GENS).terms) == 1
    assert parse_poly("(q+p)^0", GENS) == Poly.one(GENS)
    assert parse_poly("(q+p)^1", GENS) == Q + P
