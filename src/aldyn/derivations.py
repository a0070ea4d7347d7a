"""Derivations of polynomial algebras and their exponential flows.

A derivation is stored through its components delta^a on the generators
(the vector-field picture); the action on arbitrary polynomials is the
linear-Leibniz extension sum_a delta^a d_a.  Flows come in three flavors:
exact truncating series for nilpotent derivations, and, where only an
exponential can give the answer, float matrix exponentials for linear
derivations and pointwise values for the angle-phase case.  The
angle-phase flow itself is decided exactly: delta'(u) = i I u and
delta'(I) = 0 give e^{t delta'} u = e^{i t I} u.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Mapping, Sequence

from .poly import GeneratorMismatch, GeneratorSet, Poly
from .scalars import GaussRational, Scalar, to_float

DEFAULT_NILPOTENCY_CUTOFF = 16
_FLOW_SAFETY_CAP = 1000


class NonTruncatingFlow(ValueError):
    """The exponential series does not truncate for this derivation."""


class PolyDerivation:
    """Derivation given by components on generators: delta = delta^a d_a."""

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
                raise KeyError(f"image given for unknown generator {name!r}")
        self.images = full

    @staticmethod
    def from_linear_map(gens: GeneratorSet, c: Sequence[Sequence]) -> "PolyDerivation":
        """Degree-zero homogeneous derivation x^a -> c^a_b x^b.

        Rows of c are indexed like the generators; entries may be int,
        Fraction, GaussRational or Scalar.
        """
        n = len(gens)
        images = {}
        for a in range(n):
            img = Poly.zero(gens)
            for b in range(n):
                entry = c[a][b]
                if isinstance(entry, Scalar):
                    coeff = entry
                elif isinstance(entry, GaussRational):
                    coeff = Scalar.from_gauss(entry)
                else:
                    coeff = Scalar.of(Fraction(entry))
                if coeff.is_zero():
                    continue
                img = img + Poly.generator(gens, gens.names[b]).scale(coeff)
            images[gens.names[a]] = img
        return PolyDerivation(gens, images)

    def __call__(self, f: Poly) -> Poly:
        return apply(self, f)

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
    def from_json(data: Mapping) -> "PolyDerivation":
        images = {n: Poly.from_json(p) for n, p in data["images"].items()}
        if not images:
            raise ValueError("derivation needs at least one generator image")
        gens = next(iter(images.values())).gens
        return PolyDerivation(gens, images)


def apply(delta: PolyDerivation, f: Poly) -> Poly:
    """Linear-Leibniz extension: sum_a delta^a d_a f."""
    if f.gens != delta.gens:
        raise GeneratorMismatch("polynomial over a different generator set")
    out = Poly.zero(f.gens)
    for name, comp in delta.images.items():
        if comp.is_zero():
            continue
        df = f.partial(name)
        if not df.is_zero():
            out = out + comp * df
    return out


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


def _check_flow_precondition(delta: PolyDerivation, cutoff: int):
    if nilpotency_order(delta, cutoff) is None:
        raise NonTruncatingFlow(
            f"derivation is not nilpotent on generators within cutoff {cutoff}"
        )
    for name, img in delta.images.items():
        if img.total_degree() > 1:
            raise NonTruncatingFlow(
                f"image of {name!r} has degree > 1; series may not truncate"
            )


def flow_nilpotent(
    delta: PolyDerivation,
    f: Poly,
    t_name: str = "t",
    cutoff: int = DEFAULT_NILPOTENCY_CUTOFF,
) -> Poly:
    """Exact e^{t delta} f as a polynomial in the generators and t.

    Requires delta nilpotent on generators with degree <= 1 images, so the
    series truncates on every polynomial.
    """
    _check_flow_precondition(delta, cutoff)
    out, exact = flow_series_truncated(delta, f, _FLOW_SAFETY_CAP, t_name)
    if not exact:
        raise NonTruncatingFlow("series did not truncate (safety cap hit)")
    return out


def flow_series_truncated(
    delta: PolyDerivation, f: Poly, order: int, t_name: str = "t"
) -> tuple[Poly, bool]:
    """Partial sum of the exponential series up to t**order.

    For derivations outside the guaranteed-truncation class this is the
    honest offering: the caller names the order and the second return value
    says whether the series actually terminated within it.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    ext = delta.gens.extended(t_name)
    embed = {name: Poly.generator(ext, name) for name in delta.gens.names}
    t = Poly.generator(ext, t_name)
    out = Poly.zero(ext)
    term = f
    factorial = 1
    t_power = Poly.one(ext)
    for k in range(order + 1):
        if term.is_zero():
            return out, True
        out = out + term.substitute(embed).scale(Fraction(1, factorial)) * t_power
        term = apply(delta, term)
        factorial *= k + 1
        t_power = t_power * t
    return out, term.is_zero()


def linear_coefficient_matrix(delta: PolyDerivation) -> np.ndarray:
    """The matrix c with delta(x^a) = c^a_b x^b; errors if not linear."""
    import numpy as np

    gens = delta.gens
    n = len(gens)
    c = np.zeros((n, n), dtype=complex)
    for a, name in enumerate(gens.names):
        img = delta.images[name]
        for exps, coeff in img.terms.items():
            if sum(exps) != 1 or min(exps) < 0:
                raise ValueError(
                    f"image of {name!r} is not homogeneous linear"
                )
            if not coeff.is_theta_free():
                raise ValueError("linear flow needs theta-free coefficients")
            b = next(i for i, e in enumerate(exps) if e == 1)
            c[a, b] = coeff.constant().to_complex(f"image of {name!r}")
    return c


def _expm(m: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Matrix exponential by eigendecomposition, series fallback."""
    import numpy as np

    try:
        w, v = np.linalg.eig(m)
        vi = np.linalg.inv(v)
        out = (v * np.exp(w)) @ vi
        if np.linalg.norm(v @ np.diag(w) @ vi - m) <= tol * max(1.0, np.linalg.norm(m)):
            return out
    except np.linalg.LinAlgError:
        pass
    # Scaling and squaring on the Taylor series (small dense matrices only).
    norm = np.linalg.norm(m, ord=np.inf)
    s = max(0, int(math.ceil(math.log2(norm))) + 1) if norm > 0 else 0
    a = m / (2**s)
    out = np.eye(m.shape[0], dtype=complex)
    term = np.eye(m.shape[0], dtype=complex)
    for k in range(1, 40):
        term = term @ a / k
        out = out + term
        if np.linalg.norm(term, ord=np.inf) < tol:
            break
    for _ in range(s):
        out = out @ out
    return out


def flow_linear(delta: PolyDerivation, t: complex, f: Poly) -> Poly:
    """e^{t delta} f for a linear derivation, via x -> e^{tc} x.

    Coefficients of the result are floats embedded exactly in Q(i).
    """
    c = linear_coefficient_matrix(delta)
    etc = _expm(t * c)
    gens = delta.gens
    images = {}
    for a, name in enumerate(gens.names):
        img = Poly.zero(gens)
        for b in range(len(gens)):
            z = etc[a, b]
            if z == 0:
                continue
            img = img + Poly.generator(gens, gens.names[b]).scale(
                GaussRational.from_complex(complex(z))
            )
        images[name] = img
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
