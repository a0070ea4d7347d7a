"""Moyal star product on polynomial symbols, exact in theta.

The product is the bidifferential exponential sum_k (i theta/2)^k / k!
D_k(f,g), with D_k the k-fold power of Lambda^{ab} d_a (x) d_b for the
constant canonical pairing; on polynomials the sum is finite and the
theta-grading is exact.  The star commutator, inner star derivations,
the degree<=2 bracket space on R^4, and the product-ambiguity check for
linear dynamics live here too.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from . import linalg
from .derivations import PolyDerivation, apply
from .poisson import PoissonTensor, bracket
from .poly import GeneratorSet, Poly, monomials
from .scalars import GR_I, GR_ONE, GR_ZERO, GaussRational, Scalar


class SymplecticPairing:
    """Constant pairing omega with exact inverse Lambda (Lambda omega = 1)."""

    __slots__ = ("omega", "lam")

    def __init__(self, omega: Sequence[Sequence[GaussRational]]):
        n = len(omega)
        if n % 2 != 0:
            raise ValueError("pairing needs an even number of generators")
        self.omega = tuple(tuple(row) for row in omega)
        for a in range(n):
            for b in range(n):
                if not (self.omega[a][b] + self.omega[b][a]).is_zero():
                    raise ValueError("pairing must be antisymmetric")
        lam = self._invert()
        self.lam = lam

    def _invert(self) -> tuple:
        n = len(self.omega)
        cols = []
        for c in range(n):
            rhs = [GR_ONE if r == c else GR_ZERO for r in range(n)]
            # solve omega^T x = e_c so that (x^T omega) = e_c^T; with
            # antisymmetry this yields Lambda with Lambda omega = 1.
            sol = linalg.solve([list(row) for row in zip(*self.omega)], rhs)
            if sol is None:
                raise ValueError("pairing is degenerate")
            cols.append(sol)
        return tuple(tuple(cols[r][c] for c in range(n)) for r in range(n))

    @staticmethod
    def canonical(n_pairs: int) -> "SymplecticPairing":
        """Block pairing for generators ordered q1..qN, p1..pN."""
        n = 2 * n_pairs
        omega = [[GR_ZERO] * n for _ in range(n)]
        for a in range(n_pairs):
            omega[a][n_pairs + a] = -GR_ONE
            omega[n_pairs + a][a] = GR_ONE
        return SymplecticPairing(omega)


class StarAlgebraContext:
    """Generator set plus pairing; hosts the star product."""

    __slots__ = ("gens", "pairing", "_lam_entries")

    def __init__(self, gens: GeneratorSet, pairing: SymplecticPairing | None = None):
        if any(k == "angle-phase" for k in gens.kinds):
            raise ValueError("star product is defined on polynomial generators only")
        if len(gens) % 2 != 0:
            raise ValueError("star product needs an even number of generators")
        if pairing is None:
            pairing = SymplecticPairing.canonical(len(gens) // 2)
        if len(pairing.omega) != len(gens):
            raise ValueError("pairing size does not match the generator count")
        self.gens = gens
        self.pairing = pairing
        self._lam_entries = [
            (a, b, pairing.lam[a][b])
            for a in range(len(gens))
            for b in range(len(gens))
            if not pairing.lam[a][b].is_zero()
        ]

    @staticmethod
    def canonical(n_pairs: int) -> "StarAlgebraContext":
        return StarAlgebraContext(GeneratorSet.phase_space(n_pairs))

    def poisson_tensor(self) -> PoissonTensor:
        comps = {}
        n = len(self.gens)
        for a in range(n):
            for b in range(a + 1, n):
                c = self.pairing.lam[a][b]
                if not c.is_zero():
                    comps[(a, b)] = Poly.constant(self.gens, c)
        return PoissonTensor(self.gens, comps)


def _check_star_input(ctx: StarAlgebraContext, f: Poly):
    if f.gens != ctx.gens:
        raise ValueError("polynomial over a different generator set")


def star(ctx: StarAlgebraContext, f: Poly, g: Poly) -> Poly:
    """Exact Moyal product: sum_k (i theta / 2)^k (1/k!) D_k(f, g).

    D_k is computed by iterating the bidifferential operator
    Lambda^{ab} d_a (x) d_b on a list of tensor-product summands; the
    iteration stops when every summand has been differentiated to zero,
    which happens past min(deg f, deg g).
    """
    _check_star_input(ctx, f)
    _check_star_input(ctx, g)
    names = ctx.gens.names
    out = Poly.zero(ctx.gens)
    pairs: list[tuple[Poly, Poly]] = [(f, g)]
    k = 0
    factorial = 1
    half_i = GaussRational(Fraction(0), Fraction(1, 2))  # i/2
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
            for a, b, lam in ctx._lam_entries:
                du = u.partial(names[a])
                if du.is_zero():
                    continue
                dv = v.partial(names[b])
                if dv.is_zero():
                    continue
                next_pairs.append((du.scale(lam), dv))
        pairs = next_pairs
        k += 1
        factorial *= k
    return out


def star_commutator(ctx: StarAlgebraContext, f: Poly, g: Poly) -> Poly:
    """[f, g]_theta = f*g - g*f; only odd theta-orders survive."""
    return star(ctx, f, g) - star(ctx, g, f)


class StarDerivation:
    """Inner derivation of the star product: f -> (i/theta) [X, f]_theta.

    The commutator of polynomial symbols is always divisible by theta, so
    the normalization is exact.  With X = p_a this reproduces d/dq_a on
    every polynomial; with X = q_a it gives -d/dp_a.
    """

    __slots__ = ("ctx", "x")

    def __init__(self, ctx: StarAlgebraContext, x: Poly):
        _check_star_input(ctx, x)
        self.ctx = ctx
        self.x = x

    def __call__(self, f: Poly) -> Poly:
        comm = star_commutator(self.ctx, self.x, f)
        return comm.divide_theta().scale(Scalar.i())

    def generator_images(self) -> dict[str, Poly]:
        return {
            n: self(Poly.generator(self.ctx.gens, n)) for n in self.ctx.gens.names
        }


def inner_star_derivation(ctx: StarAlgebraContext, x: Poly) -> StarDerivation:
    return StarDerivation(ctx, x)


def s_space_basis(gens: GeneratorSet) -> list[Poly]:
    """Monomial basis of P0 + P1 + P2 (graded-lex order); 15 elements on R^4."""
    return [Poly(gens, {e: Scalar.one()}) for e in monomials(len(gens), 2)]


@dataclass
class SSpaceReport:
    dimension: int
    closed_poisson: bool
    closed_star: bool
    all_equal: bool
    failures: list = field(default_factory=list)
    table: dict = field(default_factory=dict)  # (i, j) i<=j -> Poisson bracket Poly

    @property
    def ok(self) -> bool:
        return self.closed_poisson and self.closed_star and self.all_equal

    def to_json(self) -> dict:
        return {
            "dimension": self.dimension,
            "closed_poisson": self.closed_poisson,
            "closed_star": self.closed_star,
            "all_equal": self.all_equal,
            "failures": self.failures,
            "table": {
                f"{i},{j}": poly.to_json() for (i, j), poly in sorted(self.table.items())
            },
        }


def s_space_check(ctx: StarAlgebraContext) -> SSpaceReport:
    """On R^4: both brackets close on P0+P1+P2 and agree up to i theta.

    Checks, for all unordered basis pairs, that the star commutator equals
    i theta times the Poisson bracket exactly, and that the bracket stays
    inside the degree <= 2 space.
    """
    if len(ctx.gens) != 4:
        raise ValueError("the degree<=2 bracket space check is defined on R^4")
    basis = s_space_basis(ctx.gens)
    tensor = ctx.poisson_tensor()
    i_theta = Scalar.from_gauss(GR_I, theta_power=1)
    report = SSpaceReport(
        dimension=len(basis), closed_poisson=True, closed_star=True, all_equal=True
    )
    for i in range(len(basis)):
        for j in range(i, len(basis)):
            pb = bracket(tensor, basis[i], basis[j])
            mc = star_commutator(ctx, basis[i], basis[j])
            report.table[(i, j)] = pb
            if pb.total_degree() > 2 or not pb.is_theta_free():
                report.closed_poisson = False
                report.failures.append({"pair": [i, j], "kind": "poisson-closure"})
            if mc != pb.scale(i_theta):
                report.all_equal = False
                report.failures.append({"pair": [i, j], "kind": "bracket-equality"})
            else:
                # the star bracket lands in i*theta*S, hence in the Lie algebra
                limit = mc.divide_theta() if not mc.is_zero() else mc
                if limit.total_degree() > 2:
                    report.closed_star = False
                    report.failures.append({"pair": [i, j], "kind": "star-closure"})
    return report


@dataclass
class WignerReport:
    pointwise_leibniz: bool
    symplectic_condition: bool
    star_leibniz: bool
    witness: dict | None = None

    def to_json(self) -> dict:
        out = {
            "pointwise_derivation": self.pointwise_leibniz,
            "symplectic_condition": self.symplectic_condition,
            "star_derivation": self.star_leibniz,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def _random_poly(gens: GeneratorSet, rng: random.Random, degree: int, n_terms: int) -> Poly:
    out = Poly.zero(gens)
    for _ in range(n_terms):
        exps = [0] * len(gens)
        for _ in range(rng.randint(0, degree)):
            exps[rng.randrange(len(gens))] += 1
        c = GaussRational.of(
            Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-2, 2))
        )
        out = out + Poly(gens, {tuple(exps): Scalar.from_gauss(c)})
    return out


def wigner_ambiguity_check(
    ctx: StarAlgebraContext,
    c: Sequence[Sequence],
    samples: int = 8,
    seed: int = 7,
) -> WignerReport:
    """Does the linear dynamics x -> c x see the product as commutative?

    The Leibniz extension of x^a -> c^a_b x^b is checked against both
    products.  For the pointwise product it always extends; for the star
    product the extension is a derivation exactly when omega c + c^T omega
    = 0, which is evaluated exactly before asserting star-Leibniz on
    sample pairs.
    """
    gens = ctx.gens
    n = len(gens)
    cm = [[_to_gauss(c[a][b]) for b in range(n)] for a in range(n)]
    delta = PolyDerivation.from_linear_map(gens, cm)
    rng = random.Random(seed)
    test_pairs = [
        (Poly.generator(gens, gens.names[0]), Poly.generator(gens, gens.names[n // 2]))
    ]
    for _ in range(samples):
        test_pairs.append(
            (_random_poly(gens, rng, 3, 3), _random_poly(gens, rng, 3, 3))
        )
    pointwise = all(
        apply(delta, f * g) == apply(delta, f) * g + f * apply(delta, g)
        for f, g in test_pairs
    )
    omega = ctx.pairing.omega
    symplectic = True
    for a in range(n):
        for b in range(n):
            s = GR_ZERO
            for k in range(n):
                s = s + omega[a][k] * cm[k][b] + cm[k][a] * omega[k][b]
            if not s.is_zero():
                symplectic = False
    star_ok = True
    witness = None
    for f, g in test_pairs:
        lhs = apply(delta, star(ctx, f, g))
        rhs = star(ctx, apply(delta, f), g) + star(ctx, f, apply(delta, g))
        if lhs != rhs:
            star_ok = False
            witness = {"f": f.to_json(), "g": g.to_json()}
            break
    return WignerReport(
        pointwise_leibniz=pointwise,
        symplectic_condition=symplectic,
        star_leibniz=symplectic and star_ok,
        witness=witness,
    )


def _to_gauss(entry) -> GaussRational:
    if isinstance(entry, GaussRational):
        return entry
    if isinstance(entry, (int, Fraction)):
        return GaussRational.of(Fraction(entry))
    if isinstance(entry, complex):
        return GaussRational.from_complex(entry)
    if isinstance(entry, float):
        return GaussRational.of(Fraction(entry))
    raise TypeError(f"cannot interpret matrix entry {entry!r}")
