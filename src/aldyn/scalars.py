"""Exact coefficient arithmetic: Gaussian rationals and theta-graded scalars.

A ``GaussRational`` is an element of Q(i): a complex number with rational
real and imaginary parts.  It is stored as three plain ints,
``(re_num + im_num*i) / den``, over one common denominator, with
``den > 0`` and ``gcd(re_num, im_num, den) == 1``, so every value has one
representation and equality is a comparison of the triples.  ``.re`` and
``.im`` give the parts as ``Fraction``s.  Every arithmetic result passes
through one normaliser, ``_norm``, which skips the gcd when the
denominator is 1; ``_new`` builds a value from a triple that is already
normalised.

A ``Scalar`` is a polynomial in the central deformation symbol ``theta``
with GaussRational coefficients, i.e. an element of Q(i)[theta].  Its ring
operations build their results through the trusted constructor
``_scalar``, which skips the validation of the public ``__init__``: the
operands are already valid, and Q(i) is a field, so only sums can cancel.

Every number from outside (a JSON field, an option, a number in an
inline polynomial, a caller's int or float) becomes a rational through
one reader, ``rational``.  Both
types are treated as immutable; all arithmetic is exact.  A value that no
finite float can hold leaves for floating point only as the
ValueError of ``to_float``, which ``GaussRational.to_complex`` raises too.

Every JSON reader (each ``from_json`` of aldyn) takes the JSON path of its
document and checks each shape it reads through ``json_object``,
``json_field``, ``json_list``, ``json_int`` and ``rational``, so malformed
input is a ValueError naming the path at fault.  A constructor's own
ValueError gets its path put in front by ``named``; no reader catches a
Python error such as a TypeError or a KeyError.  Each size that input asks
to build is held to ``MAX_UNKNOWNS`` by ``check_budget`` before anything
is built.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd as _gcd, isfinite as _isfinite, lcm as _lcm
from typing import Mapping, Union

RationalLike = Union[int, Fraction]

_object_new = object.__new__


def _as_fraction(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def to_float(x: int | Fraction | float, where: str) -> float:
    """The float nearest x, or a ValueError naming `where` (an option or a
    JSON path) when x is beyond the float range or not finite."""
    try:
        value = float(x)
    except OverflowError:
        value = float("inf")
    if not _isfinite(value):
        raise ValueError(f"{where}: not a finite float")
    return value


def json_int(x, where: str) -> int:
    """An integer field of JSON input: an int, or a float with an integral
    value.  Anything else, a fractional float or a boolean included, is a
    ValueError naming `where` rather than a silently truncated int."""
    if isinstance(x, float) and x.is_integer():
        return int(x)
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    raise ValueError(f"{where}: {x!r} is not an integer")


def _json_kind(x) -> str:
    if isinstance(x, dict):
        return "an object"
    if isinstance(x, list):
        return "a list"
    if isinstance(x, str):
        return "a string"
    if isinstance(x, bool):
        return "a boolean"
    return "null" if x is None else "a number"


def json_object(data, where: str) -> dict:
    """data itself when it is a JSON object, else a ValueError naming `where`."""
    if not isinstance(data, dict):
        raise ValueError(f"{where}: expected an object, got {_json_kind(data)}")
    return data


def json_field(data, key: str, where: str):
    """data[key] of a JSON object: a ValueError naming `where` (the path of
    data) when data is not an object or has no `key`."""
    if key not in json_object(data, where):
        raise ValueError(f'{where}: missing "{key}"')
    return data[key]


def json_list(data, where: str) -> list:
    """data itself when it is a JSON list, else a ValueError naming `where`."""
    if not isinstance(data, list):
        raise ValueError(f"{where}: expected a list, got {_json_kind(data)}")
    return data


def named(where: str, build, *args):
    """build(*args); its ValueError is raised again with `where`, a JSON path or
    an option, in front of the message."""
    try:
        return build(*args)
    except ValueError as e:
        raise ValueError(f"{where}: {e}") from None


# Size budget for what input may ask to build: the most unknowns of one
# ansatz component, C(n + cap, n) monomials of n generators up to total
# degree cap; the most row components, dim^2, of a Poisson tensor read
# without generators or built on `pairs` canonical pairs (dim = 2 pairs);
# the most generator entries, n^4, of the Gell-Mann basis of Mat_n; and
# the most unknowns times equations of a commutant.  Input sizes are
# compared with it (``check_budget``) before anything is built.  (`reduce`
# on R^2 at cap 300, C(302, 2) = 45,451 unknowns, peaked at 174 MB RSS and
# 5.4 s under CPython 3.11 on x86-64.)
MAX_UNKNOWNS = 50_000


def check_budget(where: str, size: int, what: str) -> None:
    """Raise a ValueError naming ``where`` (an option or a JSON field) when
    the ``size`` items that input asks to build, described by ``what``, are
    more than MAX_UNKNOWNS."""
    if size > MAX_UNKNOWNS:
        raise ValueError(f"{where}: {what} exceed the budget of {MAX_UNKNOWNS}")


# The exponent of a decimal string, as Fraction reads it.  Fraction builds
# 10^|e| first, which takes seconds for "1e-10000000".
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


def rational(x, where: str) -> Fraction:
    """The one reader of an outside number as an exact rational: an int
    (not a bool) exactly, a Fraction as it is, a string by its text ("p/q"
    or a decimal) and a float by its exact binary value.  Any other value,
    a non-finite float, a zero denominator and a decimal exponent beyond
    ``sys.get_int_max_str_digits()`` are a ValueError naming `where` (an
    option or a JSON path)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str) and (m := _EXPONENT.search(x)):
        limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
        if len(m[1]) > limit or abs(int(m[1])) > limit:
            raise ValueError(f"{where}: the exponent of {x!r} exceeds {limit}")
    if isinstance(x, (int, float, str)) and not isinstance(x, bool):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"{where}: zero denominator in {x!r}") from None
        except (ValueError, OverflowError):
            pass
    raise ValueError(f"{where}: {x!r} is not a rational")


def _digits(n: int) -> str:
    """str(n) at any size.  Halves of a number beyond 600 digits are
    written apart, so the text does not depend on
    ``sys.get_int_max_str_digits()`` (which is 0 or at least 640)."""
    if n < 0:
        return "-" + _digits(-n)
    if n.bit_length() <= 1993:  # n < 2^1993 < 10^600
        return str(n)
    k = n.bit_length() * 3 // 20  # under half the digits, so hi > 0
    hi, lo = divmod(n, 10**k)
    return _digits(hi) + _digits(lo).zfill(k)


def _text(x: Fraction) -> str:
    """str(x), "p" or "p/q", at any size."""
    num = _digits(x.numerator)
    return num if x.denominator == 1 else f"{num}/{_digits(x.denominator)}"


def _new(re_num: int, im_num: int, den: int) -> "GaussRational":
    """A GaussRational from a triple that is already normalised."""
    x = _object_new(GaussRational)
    x.re_num = re_num
    x.im_num = im_num
    x.den = den
    return x


def _norm(re_num: int, im_num: int, den: int) -> "GaussRational":
    """(re_num + im_num*i) / den in lowest terms; ``den`` must be > 0."""
    if den != 1:
        g = _gcd(re_num, im_num, den)
        if g != 1:
            re_num //= g
            im_num //= g
            den //= g
    return _new(re_num, im_num, den)


class GaussRational:
    """An exact complex rational a + b*i with a, b in Q."""

    __slots__ = ("re_num", "im_num", "den")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        if type(re) is int and type(im) is int:
            self.re_num, self.im_num, self.den = re, im, 1
            return
        re, im = _as_fraction(re), _as_fraction(im)
        # Both parts are in lowest terms, so over the lcm of their
        # denominators the triple is too.
        den = _lcm(re.denominator, im.denominator)
        self.re_num = re.numerator * (den // re.denominator)
        self.im_num = im.numerator * (den // im.denominator)
        self.den = den

    @property
    def re(self) -> Fraction:
        return Fraction(self.re_num, self.den)

    @property
    def im(self) -> Fraction:
        return Fraction(self.im_num, self.den)

    # -- constructors ------------------------------------------------

    @staticmethod
    def of(re: RationalLike, im: RationalLike = 0) -> "GaussRational":
        return GaussRational(re, im)

    @staticmethod
    def from_complex(z: complex) -> "GaussRational":
        """Exact embedding of a float complex (floats are dyadic rationals)."""
        return GaussRational(rational(z.real, "re"), rational(z.imag, "im"))

    @staticmethod
    def coerce(x) -> "GaussRational":
        """x itself, or the exact value of an int, Fraction, float (read by
        ``rational``) or complex.  A string is a TypeError: text is read
        where it enters, by ``from_json`` or an option's reader."""
        if x.__class__ is GaussRational:
            return x
        if type(x) is int:
            return GaussRational(x)
        if isinstance(x, (int, Fraction, float)):
            return GaussRational(rational(x, "entry"))
        if isinstance(x, complex):
            return GaussRational.from_complex(x)
        raise TypeError(f"cannot interpret entry {x!r}")

    # -- arithmetic --------------------------------------------------

    def __add__(self, other: "GaussRational") -> "GaussRational":
        d = self.den
        if d == other.den:
            return _norm(self.re_num + other.re_num, self.im_num + other.im_num, d)
        e = other.den
        return _norm(
            self.re_num * e + other.re_num * d, self.im_num * e + other.im_num * d, d * e
        )

    def __sub__(self, other: "GaussRational") -> "GaussRational":
        d = self.den
        if d == other.den:
            return _norm(self.re_num - other.re_num, self.im_num - other.im_num, d)
        e = other.den
        return _norm(
            self.re_num * e - other.re_num * d, self.im_num * e - other.im_num * d, d * e
        )

    def __neg__(self) -> "GaussRational":
        return _new(-self.re_num, -self.im_num, self.den)

    def __mul__(self, other: "GaussRational") -> "GaussRational":
        a, b, c, d = self.re_num, self.im_num, other.re_num, other.im_num
        return _norm(a * c - b * d, a * d + b * c, self.den * other.den)

    def __truediv__(self, other: "GaussRational") -> "GaussRational":
        # (a + bi)/s / ((c + di)/t) = (a + bi)(c - di) t / (s (c^2 + d^2))
        a, b, c, d = self.re_num, self.im_num, other.re_num, other.im_num
        n = c * c + d * d
        if n == 0:
            raise ZeroDivisionError("division by zero GaussRational")
        t = other.den
        return _norm((a * c + b * d) * t, (b * c - a * d) * t, self.den * n)

    def scale(self, r: RationalLike) -> "GaussRational":
        r = _as_fraction(r)
        p = r.numerator
        return _norm(self.re_num * p, self.im_num * p, self.den * r.denominator)

    def __pow__(self, k: int) -> "GaussRational":
        if k < 0:
            return GR_ONE / (self ** (-k))
        out = GR_ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- comparison --------------------------------------------------

    def __eq__(self, other) -> bool:
        if other.__class__ is not GaussRational:
            return NotImplemented
        return (
            self.re_num == other.re_num
            and self.im_num == other.im_num
            and self.den == other.den
        )

    def __hash__(self) -> int:
        # The hash of the (re, im) pair of Fractions, so that set and dict
        # orders do not depend on the representation.
        return hash((self.re, self.im))

    # -- queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.re_num and not self.im_num

    def to_complex(self, where: str = "value") -> complex:
        """The nearest complex float; a ValueError naming `where` if a part
        is beyond the float range."""
        # int / int is correctly rounded, as is float(Fraction).
        try:
            return complex(self.re_num / self.den, self.im_num / self.den)
        except OverflowError:
            return complex(to_float(self.re, f"{where}/re"), to_float(self.im, f"{where}/im"))

    def __repr__(self) -> str:
        return f"GaussRational(re={self.re!r}, im={self.im!r})"

    def __str__(self) -> str:
        re, im = self.re, self.im
        if im == 0:
            return _text(re)
        if re == 0:
            if im == 1:
                return "i"
            if im == -1:
                return "-i"
            return f"{_text(im)}*i"
        sign = "+" if im > 0 else "-"
        return f"({_text(re)}{sign}{_text(abs(im))}*i)"

    # -- json --------------------------------------------------------

    def to_json(self) -> dict:
        return {"re": _text(self.re), "im": _text(self.im)}

    @staticmethod
    def from_json(data, path: str = "value") -> "GaussRational":
        """{"re": ..., "im": ...} at the JSON path `path`, each part read by ``rational``."""
        re, im = json_field(data, "re", path), json_field(data, "im", path)
        return GaussRational(rational(re, f"{path}/re"), rational(im, f"{path}/im"))


GR_ZERO = GaussRational()
GR_ONE = GaussRational(1)
GR_I = GaussRational(0, 1)


def _scalar(terms: dict[int, GaussRational]) -> "Scalar":
    """A Scalar that owns ``terms`` as given: non-negative int exponents and
    no zero coefficient (the ring operations' results)."""
    s = _object_new(Scalar)
    s.terms = terms
    return s


class Scalar:
    """Element of Q(i)[theta]: a map theta-exponent -> GaussRational.

    Zero coefficients are never stored; theta-exponents are non-negative.
    Instances are treated as immutable.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, GaussRational] | None = None):
        cleaned = {}
        if terms:
            for k, c in terms.items():
                if k < 0:
                    raise ValueError("theta-exponent must be non-negative")
                if not c.is_zero():
                    cleaned[int(k)] = c
        self.terms: dict[int, GaussRational] = cleaned

    # -- constructors ------------------------------------------------

    @staticmethod
    def of(re: RationalLike, im: RationalLike = 0, theta_power: int = 0) -> "Scalar":
        return Scalar({theta_power: GaussRational.of(re, im)})

    @staticmethod
    def from_gauss(c: GaussRational, theta_power: int = 0) -> "Scalar":
        return Scalar({theta_power: c})

    @staticmethod
    def coerce(c) -> "Scalar":
        """c itself, or the constant of ``GaussRational.coerce(c)``."""
        if c.__class__ is Scalar:
            return c
        return Scalar({0: GaussRational.coerce(c)})

    @staticmethod
    def zero() -> "Scalar":
        return Scalar()

    @staticmethod
    def one() -> "Scalar":
        return Scalar({0: GR_ONE})

    @staticmethod
    def i() -> "Scalar":
        return Scalar({0: GR_I})

    @staticmethod
    def theta(power: int = 1) -> "Scalar":
        return Scalar({power: GR_ONE})

    # -- arithmetic --------------------------------------------------

    def __add__(self, other: "Scalar") -> "Scalar":
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k)
            if s is None:
                out[k] = c
                continue
            s = s + c
            if s.is_zero():
                del out[k]
            else:
                out[k] = s
        return _scalar(out)

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + (-other)

    def __neg__(self) -> "Scalar":
        return _scalar({k: -c for k, c in self.terms.items()})

    def __mul__(self, other: "Scalar") -> "Scalar":
        t1, t2 = self.terms, other.terms
        if len(t1) == 1 and len(t2) == 1:
            # A product of nonzero elements of a field is nonzero.
            ((k1, c1),) = t1.items()
            ((k2, c2),) = t2.items()
            return _scalar({k1 + k2: c1 * c2})
        out: dict[int, GaussRational] = {}
        for k1, c1 in t1.items():
            for k2, c2 in t2.items():
                k = k1 + k2
                s = out.get(k)
                out[k] = c1 * c2 if s is None else s + c1 * c2
        return _scalar({k: c for k, c in out.items() if not c.is_zero()})

    def scale(self, c: GaussRational) -> "Scalar":
        if c.is_zero():
            return _scalar({})
        return _scalar({k: v * c for k, v in self.terms.items()})

    def divide_theta(self, power: int = 1) -> "Scalar":
        """Exact division by theta**power; raises if not divisible."""
        out = {}
        for k, c in self.terms.items():
            if k < power:
                raise ValueError("scalar is not divisible by theta**%d" % power)
            out[k - power] = c
        return Scalar(out)

    # -- queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def theta_coefficient(self, power: int) -> GaussRational:
        return self.terms.get(power, GR_ZERO)

    def is_theta_free(self) -> bool:
        return all(k == 0 for k in self.terms)

    def constant(self) -> GaussRational:
        """The theta**0 coefficient; raises if other powers are present."""
        if not self.is_theta_free():
            raise ValueError("scalar has theta-dependence")
        return self.terms.get(0, GR_ZERO)

    def substitute_theta(self, value: Fraction) -> "Scalar":
        """Exact substitution theta -> rational value; result is theta-free."""
        total = GaussRational()
        for k, c in self.terms.items():
            total = total + c.scale(value**k)
        return Scalar({0: total})

    def __eq__(self, other) -> bool:
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.terms.items(), key=lambda kv: kv[0])))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for k in sorted(self.terms):
            c = str(self.terms[k])
            if k == 0:
                parts.append(c)
                continue
            power = "theta" if k == 1 else f"theta^{k}"
            if c == "1":
                parts.append(power)
            elif c == "-1":
                parts.append(f"-{power}")
            else:
                parts.append(f"{c}*{power}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"Scalar({self})"

    # -- json --------------------------------------------------------

    def to_json(self) -> list:
        return [
            {"theta": k, **self.terms[k].to_json()}
            for k in sorted(self.terms)
        ]

    @staticmethod
    def from_json(data, path: str = "scalar") -> "Scalar":
        """[{"theta": k, "re", "im"}, ...] at the JSON path `path`; theta 0 if left out."""
        terms = {}
        for i, entry in enumerate(json_list(data, path)):
            c = GaussRational.from_json(entry, f"{path}/{i}")
            k = json_int(entry.get("theta", 0), f"{path}/{i}/theta")
            if not c.is_zero():
                terms[k] = terms.get(k, GR_ZERO) + c
        return named(path, Scalar, terms)
