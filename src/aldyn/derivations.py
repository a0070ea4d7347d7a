"""Derivations of polynomial algebras and their exponential flows.

A derivation is stored through its components delta^a along the
coordinate partials d_a of ``Poly.partial`` (the vector-field picture); the
action on arbitrary polynomials is the linear-Leibniz extension
sum_a delta^a d_a.  For an angle-phase generator u = e^{i theta}, d_u is
d/dtheta, so delta(u) = i u delta^u.  Flows come in three flavors:
exact truncating series for nilpotent derivations, and, where only an
exponential can give the answer, float matrix exponentials for linear
derivations (one pure-Python scaling-and-squaring Taylor series, no numpy)
and pointwise values for the angle-phase case.  The angle-phase flow is
decided exactly: delta'(u) = i I u, delta'(I) = 0 give e^{t delta'} u = e^{i t I} u.
"""

from __future__ import annotations

import cmath
import math
import sys
from fractions import Fraction
from typing import Mapping, Sequence

from .poly import GeneratorMismatch, GeneratorSet, Poly, _poly
from .scalars import GaussRational, RationalLike, Scalar, json_field, json_object, named, to_float

DEFAULT_NILPOTENCY_CUTOFF = 16


class NonTruncatingFlow(ValueError):
    """The exponential series does not truncate for this derivation."""


class PolyDerivation:
    """Derivation given by its components: delta = delta^a d_a, with d_a
    the ``Poly.partial`` of generator a.  ``images[a]`` is delta^a, which is
    delta(x^a) except on an angle-phase generator u, where d_u = d/dtheta
    and delta(u) = i u delta^u."""

    __slots__ = ("gens", "images")

    def __init__(self, gens: GeneratorSet, images: Mapping[str, Poly]):
        self.gens = gens
        full: dict[str, Poly] = {}
        for name in gens.names:
            img = images.get(name)
            if img is None:
                img = Poly.zero(gens)
            elif img.gens != gens:
                raise GeneratorMismatch("image over a different generator set")
            full[name] = img
        for name in images:
            if name not in gens:
                raise ValueError(f"image given for unknown generator {name!r}")
        self.images = full

    @staticmethod
    def from_linear_map(gens: GeneratorSet, c: Sequence[Sequence]) -> "PolyDerivation":
        """Degree-zero homogeneous derivation x^a -> c^a_b x^b.

        Rows of c are indexed like the generators; row a is the linear form
        ``Poly.linear(gens, c[a])``.
        """
        n = len(gens)
        if len(c) != n:
            raise ValueError(f"a linear map on {n} generators takes {n} rows, got {len(c)}")
        images = {name: Poly.linear(gens, row) for name, row in zip(gens.names, c)}
        return PolyDerivation(gens, images)

    def components(self) -> list[Poly]:
        """The images delta^a in generator order."""
        return list(self.images.values())

    def is_zero(self) -> bool:
        return all(img.is_zero() for img in self.images.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyDerivation):
            return NotImplemented
        return self.gens == other.gens and self.images == other.images

    def __add__(self, other: "PolyDerivation") -> "PolyDerivation":
        if self.gens != other.gens:
            raise GeneratorMismatch("derivations over different generator sets")
        return PolyDerivation(
            self.gens,
            {n: self.images[n] + other.images[n] for n in self.gens.names},
        )

    def __sub__(self, other: "PolyDerivation") -> "PolyDerivation":
        if self.gens != other.gens:
            raise GeneratorMismatch("derivations over different generator sets")
        return PolyDerivation(
            self.gens,
            {n: self.images[n] - other.images[n] for n in self.gens.names},
        )

    def __repr__(self) -> str:
        comps = ", ".join(
            f"{n} -> {img}" for n, img in self.images.items() if not img.is_zero()
        )
        return f"PolyDerivation({comps or '0'})"

    def to_json(self) -> dict:
        return {
            "images": {n: self.images[n].to_json() for n in self.gens.names}
        }

    @staticmethod
    def from_json(data, path: str = "derivation") -> "PolyDerivation":
        """{"images": {name: <Poly>, ...}} at the JSON path `path`."""
        at = f"{path}/images"
        images = json_object(json_field(data, "images", path), at)
        images = {n: Poly.from_json(p, f"{at}/{n}") for n, p in images.items()}
        if not images:
            raise ValueError(f"{at}: derivation needs at least one generator image")
        gens = next(iter(images.values())).gens
        return named(path, PolyDerivation, gens, images)


def apply(delta: PolyDerivation, f: Poly) -> Poly:
    """Linear-Leibniz extension: sum_a delta^a d_a f."""
    if f.gens != delta.gens:
        raise GeneratorMismatch("polynomial over a different generator set")
    out = None
    for name, comp in delta.images.items():
        if comp.terms:
            df = f.partial(name)
            if df.terms:
                out = comp * df if out is None else out + comp * df
    return _poly(f.gens, {}) if out is None else out


def nilpotency_order(
    delta: PolyDerivation, cutoff: int = DEFAULT_NILPOTENCY_CUTOFF
) -> int | None:
    """Smallest k <= cutoff with delta^k = 0 on every generator, else None."""
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    current = [Poly.generator(delta.gens, n) for n in delta.gens.names]
    for k in range(1, cutoff + 1):
        current = [apply(delta, f) for f in current]
        if all(f.is_zero() for f in current):
            return k
    return None


def flow_nilpotent(delta: PolyDerivation, f: Poly) -> Poly:
    """Exact e^{t delta} f as a polynomial in the generators and t.

    If delta^k = 0 on every generator, then by Leibniz delta^N f = 0 once
    N > (k - 1) deg f (deg summing the positive exponents of a term), so
    the series stops there.  A locally nilpotent
    derivation kills every unit, so a negative power of a generator that
    delta moves never truncates.
    """
    k = nilpotency_order(delta)
    if k is None:
        raise NonTruncatingFlow(
            f"derivation is not nilpotent on generators within cutoff {DEFAULT_NILPOTENCY_CUTOFF}"
        )
    moved = [i for i, name in enumerate(delta.gens.names) if not delta.images[name].is_zero()]
    if any(exps[i] < 0 for exps in f.terms for i in moved):
        raise NonTruncatingFlow(
            "a negative power of a generator the derivation moves never truncates"
        )
    degree = max((sum(e for e in exps if e > 0) for exps in f.terms), default=0)
    return flow_series_truncated(delta, f, (k - 1) * degree)[0]


def flow_series_truncated(delta: PolyDerivation, f: Poly, order: int) -> tuple[Poly, bool]:
    """Partial sum of the exponential series up to t**order, in the
    generators of delta and one more, the time t: the first of t, t_,
    t__, ... that is not already a generator.

    For derivations outside the guaranteed-truncation class this is the
    honest offering: the caller names the order and the second return value
    says whether the series actually terminated within it.  The order-k
    term t^k/k! delta^k f sits at t-exponent k, so no two orders share a
    term and the sum is exponent arithmetic.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    terms = {}
    term = f
    factorial = 1
    for k in range(order + 1):
        if term.is_zero():
            break
        inv = GaussRational(Fraction(1, factorial))
        terms.update((exps + (k,), c.scale(inv)) for exps, c in term.terms.items())
        term = apply(delta, term)
        factorial *= k + 1
    t = "t"
    while t in delta.gens:
        t += "_"
    gens = GeneratorSet(delta.gens.names + (t,), delta.gens.kinds + ("plain",))
    return Poly(gens, terms), term.is_zero()


def flow_at(flow: Poly, t: RationalLike) -> Poly:
    """A flow from ``flow_series_truncated`` at the exact time t: the
    term at t-exponent k (the last slot) gets the factor t^k."""
    gens = GeneratorSet(flow.gens.names[:-1], flow.gens.kinds[:-1])
    terms: dict[tuple, Scalar] = {}
    for exps, c in flow.terms.items():
        c = c.scale(GaussRational.of(Fraction(t) ** exps[-1]))
        key = exps[:-1]
        terms[key] = terms[key] + c if key in terms else c
    return Poly(gens, terms)


def linear_coefficient_matrix(delta: PolyDerivation) -> list[list[complex]]:
    """The rows of c with delta(x^a) = c^a_b x^b; errors if not linear."""
    gens = delta.gens
    n = len(gens)
    c = [[0j] * n for _ in range(n)]
    for a, name in enumerate(gens.names):
        img = apply(delta, Poly.generator(gens, name))
        for exps, coeff in img.terms.items():
            if sum(exps) != 1 or min(exps) < 0:
                raise ValueError(
                    f"image of {name!r} is not homogeneous linear"
                )
            if not coeff.is_theta_free():
                raise ValueError("linear flow needs theta-free coefficients")
            b = next(i for i, e in enumerate(exps) if e == 1)
            c[a][b] = coeff.constant().to_complex(f"image of {name!r}")
    return c


def _norm(m: list[list[complex]]) -> float:
    """The infinity norm of m by |re| + |im|, which never overflows as abs(complex) can."""
    return max(sum(abs(z.real) + abs(z.imag) for z in row) for row in m)


def _matmul(x: list[list[complex]], y: list[list[complex]]) -> list[list[complex]]:
    cols = list(zip(*y))
    return [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in x]


def _expm(m: list[list[complex]]) -> list[list[complex]]:
    """e^m by scaling and squaring on the Taylor series (Moler and Van Loan,
    SIAM Rev. 45 (2003) 3): m / 2^s has norm below 1/2, its series runs until
    a term no longer moves the sum, and the sum is squared s times.  A
    ValueError naming --t when m = t c or e^m is not a finite float matrix;
    e^m is invertible, so a zero row is underflow."""
    norm = _norm(m)
    if not math.isfinite(norm):
        raise ValueError("--t: t c is beyond the float range")
    s = max(0, math.frexp(norm)[1] + 1)
    a = [[z * 0.5**s for z in row] for row in m]
    term = out = [[complex(i == j) for j in range(len(m))] for i in range(len(m))]
    k = 0
    while _norm(term) > sys.float_info.epsilon * _norm(out):
        k += 1
        term = [[z / k for z in row] for row in _matmul(term, a)]
        out = [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(out, term)]
    for _ in range(s):
        out = _matmul(out, out)
    if not all(cmath.isfinite(z) for row in out for z in row) or not all(map(any, out)):
        raise ValueError("--t: e^(t c) is beyond the float range")
    return out


def flow_linear(delta: PolyDerivation, t: complex, f: Poly) -> Poly:
    """e^{t delta} f for a linear derivation, via x -> e^{tc} x.

    Coefficients of the result are floats embedded exactly in Q(i).
    """
    c = linear_coefficient_matrix(delta)
    etc = _expm([[t * z for z in row] for row in c])
    gens = delta.gens
    images = {name: Poly.linear(gens, row) for name, row in zip(gens.names, etc)}
    return f.substitute(images)


def flow_action_angle(
    action: Sequence[float], angle: Sequence[float], t: float
) -> list[complex]:
    """Values u^a(t) = exp(i (t I^a + theta^a)) of the angle-phase generators;
    each phase t I^a + theta^a must be a finite float."""
    if len(action) != len(angle):
        raise ValueError("action and angle vectors must have equal length")
    return [
        cmath.exp(1j * to_float(t * i0 + th0, "t * I + theta0"))
        for i0, th0 in zip(action, angle)
    ]


def commutator_der(d1: PolyDerivation, d2: PolyDerivation) -> PolyDerivation:
    """[d1, d2] = d1 o d2 - d2 o d1, again a derivation.

    Components: [d1,d2]^b = d1(g2^b) - d2(g1^b), valid since the coordinate
    partials (including the angle derivative) commute pairwise.
    """
    if d1.gens != d2.gens:
        raise GeneratorMismatch("derivations over different generator sets")
    images = {}
    for name in d1.gens.names:
        images[name] = apply(d1, d2.images[name]) - apply(d2, d1.images[name])
    return PolyDerivation(d1.gens, images)
