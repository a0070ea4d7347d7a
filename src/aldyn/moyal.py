"""Moyal star product on polynomial symbols, exact in theta.

A ``StarAlgebraContext`` is a constant Poisson tensor Lambda, and the
star product, the semiclassical bracket and the Wigner verdict are all
read off it.  The product is the bidifferential exponential
f*g = sum_k (i theta/2)^k / k! D_k(f, g), where D_k is the k-th power of
Lambda^{ab} d_a (x) d_b; it is associative for a constant Lambda of any
rank, so degenerate and odd-dimensional tensors are accepted (Bayen,
Flato, Fronsdal, Lichnerowicz & Sternheimer, Ann. Phys. 111 (1978) 61).
Grouped by derivative multi-indices (A, B), A counting the derivatives of
f in each generator and B those of g, the order-k term is

    sum_{|A| = |B| = k} w_AB (d^A f)(d^B g),
    w_AB = (i theta/2)^k sum_m prod_e lam_e^{m_e} / m_e!,

the inner sum running over the multisets m of Lambda entries e = (a, b)
that lead to (A, B).  ``star`` builds the weights order by order (each
step appends one Lambda entry and merges equal keys), so every distinct
pair of derivatives is multiplied once.  The products run on one integer
kernel: each factor is cleared to Gaussian integers over one common
denominator, the weights over another, and the [re, im] sums are
normalised once per output term.  Each term is keyed by one packed int per
exponent vector and theta power, one slot per generator above a slot for
the theta power, each slot wide enough that no sum carries: the key of a
product is the sum of its factors' keys, and a partial derivative
subtracts one from a slot.  On polynomials the sum is finite and
the theta-grading is exact; the star commutator keeps twice the odd
orders, since D_k(g, f) = (-1)^k D_k(f, g) for an antisymmetric Lambda.
The degree<=2 bracket space on R^4 and the product-ambiguity check for
linear dynamics live here too.
"""

from __future__ import annotations

from itertools import combinations
from math import lcm
from operator import lshift
from typing import Sequence

from .derivations import PolyDerivation, apply
from .poisson import PoissonTensor, bracket
from .poly import GeneratorSet, Poly, _poly, monomials
from .scalars import GR_I, GR_ONE, GaussRational, Scalar, _norm, _scalar


class StarAlgebraContext:
    """A constant, theta-free Poisson tensor on polynomial generators; hosts
    the star product.  Its entries (a, b, Lambda^{ab}) over all ordered
    pairs are listed once, from the tensor's row fields."""

    __slots__ = ("gens", "_tensor", "_lam_entries")

    def __init__(self, tensor: PoissonTensor):
        gens = tensor.gens
        if any(k == "angle-phase" for k in gens.kinds):
            raise ValueError("star product is defined on polynomial generators only")
        zero = (0,) * len(gens)
        entries = []
        for a, row in enumerate(tensor.rows):
            for b, comp in enumerate(row.components()):
                if not comp.terms:
                    continue
                c = comp.terms.get(zero)
                if len(comp.terms) != 1 or c is None or not c.is_theta_free():
                    raise ValueError(
                        "star product needs constant, theta-free tensor components"
                    )
                entries.append((a, b, c.constant()))
        self.gens = gens
        self._tensor = tensor
        self._lam_entries = entries

    @staticmethod
    def canonical(n_pairs: int) -> "StarAlgebraContext":
        return StarAlgebraContext(PoissonTensor.canonical(n_pairs))

    def poisson_tensor(self) -> PoissonTensor:
        return self._tensor


def _check_star_input(ctx: StarAlgebraContext, f: Poly):
    if f.gens != ctx.gens:
        raise ValueError("polynomial over a different generator set")


def _slot_width(f: Poly, g: Poly) -> int:
    """Bits per slot of a packed key.  With M the largest total degree plus
    theta power over the terms of f and g, no slot of a product of
    derivatives exceeds 2M, so no slot carries into the next: an exponent
    is at most deg f + deg g, and k derivatives leave only terms of degree
    at least k, so the theta power t_f + k + t_g is at most 2M too."""
    m = 0  # plain loops: this runs for every product, monomial ones included
    for p in (f, g):
        for exps, s in p.terms.items():
            d = sum(exps) + max(s.terms)
            if d > m:
                m = d
    return (2 * m + 1).bit_length()


def _flatten(f: Poly, shifts: list[int]) -> tuple[list, int]:
    """f's terms as (packed key, re, im) Gaussian integers over one common
    denominator, and that denominator.  The key of exps e and theta power k
    is sum_a e_a << shifts[a] + k."""
    den = lcm(*(c.den for s in f.terms.values() for c in s.terms.values()))
    out = []
    for exps, s in f.terms.items():
        base = sum(map(lshift, exps, shifts))
        for k, c in s.terms.items():
            m = den // c.den
            out.append((base + k, c.re_num * m, c.im_num * m))
    return out, den


def _derived(cache: dict, a_idx: tuple, a: int, shift: int, mask: int) -> tuple[tuple, list]:
    """The multi-index a_idx + e_a and the flattened terms of that derivative,
    one partial in generator a (the slot at ``shift``) away from the cached
    d^{a_idx}."""
    raised = a_idx[:a] + (a_idx[a] + 1,) + a_idx[a + 1 :]
    terms = cache.get(raised)
    if terms is None:
        one = 1 << shift
        terms = cache[raised] = [
            (key - one, re * e, im * e)
            for key, re, im in cache[a_idx]
            if (e := (key >> shift) & mask)
        ]
    return raised, terms


def _moyal_sum(ctx: StarAlgebraContext, f: Poly, g: Poly, odd_only: bool) -> Poly:
    """sum_k (i theta/2)^k / k! D_k(f, g) over all k, or twice the sum over
    odd k (the star commutator)."""
    _check_star_input(ctx, f)
    _check_star_input(ctx, g)
    if not f.terms or not g.terms:
        return _poly(ctx.gens, {})
    n = len(ctx.gens)
    width = _slot_width(f, g)
    mask = (1 << width) - 1
    shifts = [width * (a + 1) for a in range(n)]
    zero = (0,) * n
    f_terms, f_den = _flatten(f, shifts)
    g_terms, g_den = _flatten(g, shifts)
    d_f, d_g = {zero: f_terms}, {zero: g_terms}
    # level: (A, B) -> w_AB / theta^k at order k.  A step appends one
    # Lambda entry and divides by the new k; equal keys merge, and a key is
    # dropped once d^A f or d^B g vanishes, since its extensions vanish too.
    level = {(zero, zero): GR_ONE}
    weighted = []
    k = 0
    while level:
        if not odd_only or k % 2:
            weighted.extend((a_idx, b_idx, k, w) for (a_idx, b_idx), w in level.items())
        nxt: dict[tuple, GaussRational] = {}
        for (a_idx, b_idx), w in level.items():
            for a, b, lam in ctx._lam_entries:
                a_raised, df = _derived(d_f, a_idx, a, shifts[a], mask)
                if not df:
                    continue
                b_raised, dg = _derived(d_g, b_idx, b, shifts[b], mask)
                if not dg:
                    continue
                key = (a_raised, b_raised)
                s = nxt.get(key)
                nxt[key] = w * lam if s is None else s + w * lam
        k += 1
        step = _norm(0, 1, 2 * k)  # (i/2) / k
        level = {key: w * step for key, w in nxt.items() if not w.is_zero()}
    # One product per key, all over the common denominator of the weights;
    # a product's key is the sum of its factors' keys, theta^k included.
    w_den = lcm(*(w.den for *_, w in weighted))
    factor = 2 if odd_only else 1
    acc: dict[int, list[int]] = {}
    for a_idx, b_idx, k, w in weighted:
        m = w_den // w.den * factor
        wr, wi = w.re_num * m, w.im_num * m
        dg = d_g[b_idx]
        for p1, r, i in d_f[a_idx]:
            r1, i1, p1 = wr * r - wi * i, wr * i + wi * r, p1 + k
            for p2, r2, i2 in dg:
                key = p1 + p2
                s = acc.get(key)
                if s is None:
                    acc[key] = [r1 * r2 - i1 * i2, r1 * i2 + i1 * r2]
                else:
                    s[0] += r1 * r2 - i1 * i2
                    s[1] += r1 * i2 + i1 * r2
    den = f_den * g_den * w_den
    out: dict[tuple, dict[int, GaussRational]] = {}
    for key, (re, im) in acc.items():
        if re or im:
            exps = tuple([key >> s & mask for s in shifts])
            out.setdefault(exps, {})[key & mask] = _norm(re, im, den)
    return _poly(ctx.gens, {exps: _scalar(t) for exps, t in out.items()})


def star(ctx: StarAlgebraContext, f: Poly, g: Poly) -> Poly:
    """Exact Moyal product: sum_k (i theta / 2)^k (1/k!) D_k(f, g).

    Summed over derivative multi-indices (see the module docstring): the
    weight of each pair (A, B) is merged over every sequence of Lambda
    entries that leads to it, and (d^A f)(d^B g) is multiplied once, in
    Gaussian integers over one common denominator, keyed by one packed int
    per exponent vector and theta power.
    """
    return _moyal_sum(ctx, f, g, odd_only=False)


def star_commutator(ctx: StarAlgebraContext, f: Poly, g: Poly) -> Poly:
    """[f, g]_theta = f*g - g*f: twice the odd theta-orders of f*g, since
    D_k(g, f) = (-1)^k D_k(f, g) for an antisymmetric Lambda."""
    return _moyal_sum(ctx, f, g, odd_only=True)


def s_space_basis(gens: GeneratorSet) -> list[Poly]:
    """Monomial basis of P0 + P1 + P2 (graded-lex order); 15 elements on R^4."""
    return [Poly(gens, {e: Scalar.one()}) for e in monomials(len(gens), 2)]


class SSpaceReport:
    __slots__ = ("dimension", "closed_poisson", "closed_star", "all_equal", "failures", "table")

    dimension: int
    closed_poisson: bool
    closed_star: bool
    all_equal: bool
    failures: list
    table: dict  # (i, j) i<=j -> Poisson bracket Poly

    def __init__(
        self,
        dimension: int,
        closed_poisson: bool,
        closed_star: bool,
        all_equal: bool,
        failures: list | None = None,
        table: dict | None = None,
    ):
        self.dimension = dimension
        self.closed_poisson = closed_poisson
        self.closed_star = closed_star
        self.all_equal = all_equal
        self.failures = [] if failures is None else failures
        self.table = {} if table is None else table

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


class WignerReport:
    __slots__ = ("pointwise_leibniz", "symplectic_condition", "star_leibniz", "witness")

    pointwise_leibniz: bool
    symplectic_condition: bool
    star_leibniz: bool
    witness: dict | None

    def __init__(
        self,
        pointwise_leibniz: bool,
        symplectic_condition: bool,
        star_leibniz: bool,
        witness: dict | None = None,
    ):
        self.pointwise_leibniz = pointwise_leibniz
        self.symplectic_condition = symplectic_condition
        self.star_leibniz = star_leibniz
        self.witness = witness

    def to_json(self) -> dict:
        out = {
            "pointwise_derivation": self.pointwise_leibniz,
            "symplectic_condition": self.symplectic_condition,
            "star_derivation": self.star_leibniz,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def wigner_ambiguity_check(ctx: StarAlgebraContext, c: Sequence[Sequence]) -> WignerReport:
    """Does the linear dynamics x -> c x see the product as commutative?

    The Leibniz extension delta of x^a -> c^a_b x^b is checked against
    both products on the generator pairs.  For the pointwise product it
    always extends.  It is a star derivation exactly when it preserves
    Lambda: delta(Lambda^{ab}) = {delta x^a, x^b} + {x^a, delta x^b} for
    every a < b (for an invertible Lambda: c lies in the symplectic Lie
    algebra of Lambda^{-1}).  If so, the Moyal product is covariant under
    the linear flow and star-Leibniz holds on all polynomials; if not, it
    fails on the first failing pair (the witness), since
    x^a * x^b = x^a x^b + (i theta/2) Lambda^{ab}.
    """
    tensor = ctx.poisson_tensor()
    gens = ctx.gens
    n = len(gens)
    delta = PolyDerivation.from_linear_map(gens, c)
    x = [Poly.generator(gens, name) for name in gens.names]
    dx = [apply(delta, xa) for xa in x]
    pairs = list(combinations(range(n), 2))
    pointwise = all(
        apply(delta, x[a] * x[b]) == dx[a] * x[b] + x[a] * dx[b] for a, b in pairs
    )
    witness = None
    for a, b in pairs:
        lie = bracket(tensor, dx[a], x[b]) + bracket(tensor, x[a], dx[b])
        if apply(delta, tensor.component(a, b)) != lie:
            witness = {"f": x[a].to_json(), "g": x[b].to_json()}
            break
    return WignerReport(
        pointwise_leibniz=pointwise,
        symplectic_condition=witness is None,
        star_leibniz=witness is None,
        witness=witness,
    )
