"""Exact arithmetic in Q(i) and Q(i)[theta]."""

import json
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aldyn.poly import GeneratorSet, Poly
from aldyn.scalars import GR_I, GR_ONE, GR_ZERO, GaussRational, Scalar, rational

from conftest import gauss_rationals, scalars


def test_gauss_basic_arithmetic():
    a = GaussRational.of(Fraction(1, 2), Fraction(3))
    b = GaussRational.of(Fraction(-2), Fraction(1, 3))
    assert a + b == GaussRational.of(Fraction(-3, 2), Fraction(10, 3))
    assert a - a == GR_ZERO
    assert GR_I * GR_I == -GR_ONE
    assert (a * b) / b == a


def test_gauss_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        GR_ONE / GR_ZERO


def test_gauss_powers():
    assert GR_I**4 == GR_ONE
    assert GR_I**-1 == -GR_I
    x = GaussRational.of(Fraction(2), Fraction(-1))
    assert x**3 == x * x * x


def test_gauss_to_complex():
    x = GaussRational.of(Fraction(1, 4), Fraction(-2))
    assert x.to_complex() == complex(0.25, -2.0)


@settings(max_examples=50, deadline=None)
@given(gauss_rationals(), gauss_rationals(), gauss_rationals())
def test_gauss_field_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c


def test_scalar_construction_drops_zeros():
    s = Scalar({0: GR_ZERO, 1: GR_ONE})
    assert s.terms == {1: GR_ONE}
    with pytest.raises(ValueError):
        Scalar({-1: GR_ONE})


def test_scalar_theta_parts():
    s = Scalar.of(1) + Scalar.of(2, theta_power=1) + Scalar.of(0, 3, theta_power=2)
    assert s.theta_coefficient(1) == GaussRational.of(2)
    assert s.theta_coefficient(0) == GaussRational.of(1)
    assert max(s.terms) == 2
    assert not s.is_theta_free()
    with pytest.raises(ValueError):
        s.constant()


def test_scalar_divide_theta():
    s = Scalar.of(3, theta_power=2)
    assert s.divide_theta() == Scalar.of(3, theta_power=1)
    with pytest.raises(ValueError):
        Scalar.one().divide_theta()


def test_scalar_substitute_theta():
    s = Scalar.of(1) + Scalar.of(2, theta_power=1)
    assert s.substitute_theta(Fraction(1, 2)) == Scalar.of(2)


@settings(max_examples=50, deadline=None)
@given(scalars(), scalars(), scalars())
def test_scalar_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_scalar_json_round_trip():
    s = Scalar.of(Fraction(1, 3), Fraction(-2, 7)) + Scalar.of(5, theta_power=3)
    assert Scalar.from_json(s.to_json()) == s


# -- oracle: Q(i) as a plain (Fraction, Fraction) pair ----------------------
#
# The reference arithmetic below is the pair representation GaussRational
# used to have; the int-triple implementation must agree with it on every
# operation, and its triples must stay normalised.


def ref_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def ref_sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def ref_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def ref_div(x, y):
    n = y[0] * y[0] + y[1] * y[1]
    return ((x[0] * y[0] + x[1] * y[1]) / n, (x[1] * y[0] - x[0] * y[1]) / n)


def ref_pow(x, k):
    out = (Fraction(1), Fraction(0))
    for _ in range(abs(k)):
        out = ref_mul(out, x)
    return ref_div((Fraction(1), Fraction(0)), out) if k < 0 else out


def ref_str(x):
    re, im = x

    def f(q):
        return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"

    if im == 0:
        return f(re)
    if re == 0:
        return "i" if im == 1 else "-i" if im == -1 else f"{f(im)}*i"
    return f"({f(re)}{'+' if im > 0 else '-'}{f(abs(im))}*i)"


def check_against(g: GaussRational, ref):
    """g equals the reference pair and its triple is normalised."""
    assert (g.re, g.im) == ref
    assert g.den > 0
    assert gcd(g.re_num, g.im_num, g.den) == 1
    assert hash(g) == hash(ref)
    assert repr(g) == f"GaussRational(re={ref[0]!r}, im={ref[1]!r})"
    assert str(g) == ref_str(ref)


wide_fractions = st.fractions(
    min_value=Fraction(-60), max_value=Fraction(60), max_denominator=48
)
pairs = st.tuples(wide_fractions, wide_fractions)


@settings(max_examples=200, deadline=None)
@given(pairs, pairs, wide_fractions, st.integers(min_value=-4, max_value=4))
def test_gauss_matches_fraction_pair_oracle(x, y, r, k):
    a, b = GaussRational(*x), GaussRational(re=y[0], im=y[1])
    check_against(a, x)
    check_against(a + b, ref_add(x, y))
    check_against(a - b, ref_sub(x, y))
    check_against(a * b, ref_mul(x, y))
    check_against(-a, (-x[0], -x[1]))
    check_against(a.scale(r), (x[0] * r, x[1] * r))
    check_against(a.scale(r.numerator), (x[0] * r.numerator, x[1] * r.numerator))
    if y != (0, 0):
        check_against(a / b, ref_div(x, y))
    if x != (0, 0) or k >= 0:
        check_against(a**k, ref_pow(x, k))
    assert (a == b) == (x == y)
    assert a.is_zero() == (x == (0, 0))
    back = GaussRational.from_json(json.loads(json.dumps(a.to_json())))
    check_against(back, x)
    z = complex(float(x[0]), float(x[1]))
    check_against(GaussRational.from_complex(z), (Fraction(z.real), Fraction(z.imag)))
    assert a.to_complex() == z


@pytest.mark.parametrize(
    "x, value",
    [
        (-7, Fraction(-7)),
        (10**400, Fraction(10**400)),
        (Fraction(5, 3), Fraction(5, 3)),
        ("-3/4", Fraction(-3, 4)),
        ("0.1", Fraction(1, 10)),
        ("1e-4300", Fraction(1, 10**4300)),
        (0.1, Fraction(3602879701896397, 36028797018963968)),
    ],
    ids=["int", "10^400", "fraction", "string-p/q", "string-decimal", "exponent-at-the-limit",
         "float"],
)
def test_rational_reads_exactly(x, value):
    """Ints, Fractions and strings by their value or text, floats by their
    exact binary value."""
    assert rational(x, "here") == value


@pytest.mark.parametrize(
    "x",
    [True, float("inf"), float("nan"), "1/0", "abc", [1], None, "1E+4301", "1e-10000000"],
    ids=["bool", "inf", "nan", "zero-denominator", "junk-string", "list", "none",
         "exponent-beyond-the-limit", "exponent-of-ten-million"],
)
def test_rational_refusals_name_where(x):
    with pytest.raises(ValueError, match="^/some/path: "):
        rational(x, "/some/path")


def test_coerce_reads_numbers_and_refuses_text():
    """Internal coercion reads ints, Fractions, floats and complexes
    exactly; text is read only at the input boundary."""
    assert GaussRational.coerce(3) == GaussRational(3)
    assert GaussRational.coerce(0.5) == GaussRational(Fraction(1, 2))
    assert GaussRational.coerce(0.5j) == GaussRational(0, Fraction(1, 2))
    assert Scalar.coerce(Fraction(-2, 3)) == Scalar.of(Fraction(-2, 3))
    with pytest.raises(TypeError):
        GaussRational.coerce("1/2")
    with pytest.raises(TypeError):
        Scalar.coerce("1/2")


def test_gauss_constructor_contract():
    assert GaussRational() == GR_ZERO == GaussRational(0, Fraction(0))
    assert GaussRational(re=Fraction(2, 4), im=3) == GaussRational.of(Fraction(1, 2), 3)
    with pytest.raises(TypeError):
        GaussRational(0.5)
    with pytest.raises(TypeError):
        GaussRational(1, 0.5)
    with pytest.raises(TypeError):
        GaussRational.of(1.0)
    assert GaussRational(1) != 1
    assert GaussRational(1).__eq__(1) is NotImplemented
    assert GR_ZERO**0 == GR_ONE
    with pytest.raises(ZeroDivisionError):
        GR_ZERO**-1


# -- trusted constructors: ring results are valid values --------------------

GENS = GeneratorSet(("u", "x", "p"), ("angle-phase", "plain", "momentum"))


def laurent_polys():
    exps = st.tuples(
        st.integers(min_value=-2, max_value=2),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=2),
    )
    return st.builds(
        lambda items: Poly(GENS, dict(items)),
        st.lists(st.tuples(exps, scalars(theta_max=2)), max_size=5),
    )


def assert_valid_scalar(s: Scalar):
    assert Scalar(s.terms) == s
    assert all(type(k) is int and k >= 0 for k in s.terms)
    assert not any(c.is_zero() for c in s.terms.values())


def assert_valid_poly(p: Poly):
    assert Poly(p.gens, p.terms) == p
    for exps, c in p.terms.items():
        assert all(type(e) is int for e in exps)
        assert not c.is_zero()
        assert_valid_scalar(c)


@settings(max_examples=60, deadline=None)
@given(scalars(), scalars(), gauss_rationals())
def test_scalar_ring_results_are_valid(a, b, c):
    # (a + b)(a - b) = a^2 - b^2: the cross terms cancel inside one product.
    products = (a * b, (a + b) * (a - b))
    for s in (a + b, a - b, a - a, *products, -a, a.scale(c), a.scale(GR_ZERO)):
        assert_valid_scalar(s)
    assert a.scale(GR_ZERO).is_zero()
    assert (a - a).is_zero()


@settings(max_examples=40, deadline=None)
@given(laurent_polys(), laurent_polys(), scalars(), gauss_rationals(), st.integers(-3, 3))
def test_poly_ring_results_are_valid(f, g, s, c, n):
    # (f + g)(f - g) = f^2 - g^2: the cross terms cancel inside one product.
    results = [f + g, f - g, f - f, f * g, (f + g) * (f - g), -f, f.scale(s), f.scale(c)]
    results += [f.scale(n)]
    results += [f.partial(name) for name in GENS.names]
    results += [(f * g).partial("u"), f.scale(Scalar.zero())]
    for p in results:
        assert_valid_poly(p)
    assert (f - f).is_zero() and f.scale(0).is_zero()


@pytest.mark.parametrize("limit", [640, 4300])
def test_text_of_any_size_ignores_the_digit_limit(limit):
    """Coefficients print the same under any int-to-str digit limit; the
    reference text is written with the limit lifted."""
    values = [
        GaussRational.of(Fraction(-7, 10**5000), Fraction(3 * 10**700 + 1, 13)),
        GaussRational.of(0, Fraction(2**9000 - 1, 3**4000)),
        GaussRational.of(10**641),
    ]
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        expected = [(str(x), x.to_json()) for x in values]
        sys.set_int_max_str_digits(limit)
        assert [(str(x), x.to_json()) for x in values] == expected
    finally:
        sys.set_int_max_str_digits(old)
