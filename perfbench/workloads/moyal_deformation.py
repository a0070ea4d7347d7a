"""moyal-deformation: quantization checks on R^2 and R^4.

The path is scalars -> poly -> moyal (plus poisson for the semiclassical
bracket); no linear solve runs except the 2x2 and 4x4 pairing inversions.
Every cycle has the same slots.  A slot's monomials are fixed up to a
seeded relabelling of the pairs (which keeps the operation count), so
the seed draws the relabelling, coefficients and evaluation points, and
run-to-run spread comes from coefficient heights rather than from shapes.  Five of the eighteen polynomial slots carry theta in
their coefficients, and heights alternate between small Gaussian integers
and large-height rationals.
"""

from __future__ import annotations

import random
from fractions import Fraction

from aldyn import moyal, poisson
from aldyn.poly import GeneratorSet
from aldyn.scalars import GaussRational, Scalar

from perfbench import oracle as O
from perfbench.inputs import (
    Check,
    cycle_rng,
    dense_poly,
    random_point,
    random_poly,
    random_theta,
    symplectic_relabel,
    to_poly,
)

# (kind, pairs, degree, terms, height, carries theta)
POLY_SLOTS = (
    ("assoc", 1, 2, 4, "small", False),
    ("assoc", 1, 3, 4, "tall", False),
    ("assoc", 1, 4, 4, "small", True),
    ("assoc", 1, 5, 4, "tall", False),
    ("assoc", 1, 6, 4, "small", False),
    ("assoc", 1, 6, 3, "tall", False),
    ("assoc", 2, 2, 4, "tall", True),
    ("assoc", 2, 3, 4, "small", False),
    ("assoc", 2, 4, 3, "tall", False),
    ("assoc", 2, 4, 3, "small", True),
    ("theta0", 1, 5, 5, "tall", False),
    ("theta0", 2, 4, 5, "small", True),
    ("theta0", 1, 4, 5, "small", False),
    ("theta0", 2, 3, 5, "tall", False),
    ("theta1", 1, 5, 5, "small", False),
    ("theta1", 2, 4, 5, "tall", False),
    ("theta1", 1, 4, 5, "tall", True),
    ("theta1", 2, 3, 5, "small", False),
)


def _point_ok(result, expected_at, pairs, rng, points=1):
    """Compare an aldyn Poly with the oracle's values at random points."""
    got = O.poly_dict(result)
    for _ in range(points):
        x = random_point(rng, 2 * pairs)
        th = random_theta(rng)
        if O.peval(got, x, th) != expected_at(x, th):
            return False
    return True


def _assoc(name, pairs, f, g, h, rng):
    gens = GeneratorSet.phase_space(pairs)
    F, G, H = (to_poly(gens, p) for p in (f, g, h))

    def run():
        ctx = moyal.StarAlgebraContext.canonical(pairs)
        gh = moyal.star(ctx, G, H)
        lhs = moyal.star(ctx, F, gh)
        rhs = moyal.star(ctx, moyal.star(ctx, F, G), H)
        return lhs == rhs, gh

    def verify(out):
        same, gh = out
        return same is True and _point_ok(
            gh, lambda x, th: O.moyal_at(g, h, pairs, x, th), pairs, rng
        )

    return Check(name, run, verify)


def _theta0(name, pairs, f, g, rng):
    """The theta^0 part of f*g is the pointwise product's theta^0 part."""
    gens = GeneratorSet.phase_space(pairs)
    F, G = to_poly(gens, f), to_poly(gens, g)

    def run():
        ctx = moyal.StarAlgebraContext.canonical(pairs)
        fg = moyal.star(ctx, F, G)
        return fg.theta_graded_part(0) == (F * G).theta_graded_part(0), fg

    def verify(out):
        same, fg = out
        return same is True and _point_ok(
            fg, lambda x, th: O.moyal_at(f, g, pairs, x, th), pairs, rng
        )

    return Check(name, run, verify)


def _theta1(name, pairs, f, g, rng):
    """The theta^1 part of [f, g]_theta is i{f, g}."""
    gens = GeneratorSet.phase_space(pairs)
    F, G = to_poly(gens, f), to_poly(gens, g)

    def run():
        ctx = moyal.StarAlgebraContext.canonical(pairs)
        comm = moyal.star_commutator(ctx, F, G)
        pb = poisson.bracket(ctx.poisson_tensor(), F, G)
        same = comm.theta_graded_part(1) == pb.theta_graded_part(0).scale(Scalar.i())
        return same, comm

    def expected(x, th):
        return O.gsub(O.moyal_at(f, g, pairs, x, th), O.moyal_at(g, f, pairs, x, th))

    def verify(out):
        same, comm = out
        return same is True and _point_ok(comm, expected, pairs, rng)

    return Check(name, run, verify)


def _dense(name, pairs, degree, rng, vrng):
    gens = GeneratorSet.phase_space(pairs)
    f = dense_poly(rng, 2 * pairs, degree)
    g = dense_poly(rng, 2 * pairs, degree)
    F, G = to_poly(gens, f), to_poly(gens, g)

    def run():
        return moyal.star(moyal.StarAlgebraContext.canonical(pairs), F, G)

    def verify(fg):
        return _point_ok(fg, lambda x, th: O.moyal_at(f, g, pairs, x, th), pairs, vrng)

    return Check(name, run, verify)


def _s_space():
    def run():
        return moyal.s_space_check(moyal.StarAlgebraContext.canonical(2))

    def verify(rep):
        # P0 + P1 + P2 on four generators: C(4 + 2, 2) monomials.
        return rep.dimension == 15 and rep.ok and not rep.failures

    return Check("s_space", run, verify)


def _wigner(name, pairs, symplectic, rng):
    """Linear dynamics c = Lambda S with S symmetric lies in sp(2N), so it is
    a star derivation; adding mu * identity breaks omega c + c^T omega = 0."""
    n = 2 * pairs
    s = [[Fraction(0)] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            s[a][b] = s[b][a] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    # Canonical Lambda: Lambda^{q_a p_a} = 1, Lambda^{p_a q_a} = -1.
    c = [[Fraction(0)] * n for _ in range(n)]
    for a in range(pairs):
        for b in range(n):
            c[a][b] = s[pairs + a][b]
            c[pairs + a][b] = -s[a][b]
    if not symplectic:
        mu = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
        for a in range(n):
            c[a][a] += mu
    entries = [[GaussRational(x) for x in row] for row in c]

    def run():
        return moyal.wigner_ambiguity_check(moyal.StarAlgebraContext.canonical(pairs), entries)

    def verify(rep):
        return (
            rep.pointwise_leibniz is True
            and rep.symplectic_condition is symplectic
            and rep.star_leibniz is symplectic
        )

    return Check(name, run, verify)


def build(seed: int, cycle: int) -> list[Check]:
    rng = cycle_rng(seed, cycle)
    checks = []
    for slot, (kind, pairs, degree, terms, height, theta) in enumerate(POLY_SLOTS):
        name = f"{kind}-R{2 * pairs}-d{degree}-{height}"
        shape = random.Random(slot)
        polys = [
            random_poly(rng, 2 * pairs, degree, terms, height, theta, shape=shape)
            for _ in range(3 if kind == "assoc" else 2)
        ]
        relabel = random.Random(rng.random())
        state = relabel.getstate()
        for i, f in enumerate(polys):
            relabel.setstate(state)
            polys[i] = symplectic_relabel(f, pairs, relabel)
        vrng = cycle_rng(seed, cycle, salt=len(checks) + 1)
        if kind == "assoc":
            checks.append(_assoc(name, pairs, *polys, vrng))
        elif kind == "theta0":
            checks.append(_theta0(name, pairs, *polys, vrng))
        else:
            checks.append(_theta1(name, pairs, *polys, vrng))
    # Three R^4 products, so that the 90th percentile falls inside the
    # dense group rather than on its edge.
    for salt in (101, 102, 103):
        checks.append(_dense("dense-R4-d4", 2, 4, rng, cycle_rng(seed, cycle, salt=salt)))
    checks.append(_dense("dense-R2-d8", 1, 8, rng, cycle_rng(seed, cycle, salt=104)))
    checks.append(_s_space())
    for pairs in (1, 2):
        for symplectic in (True, False):
            tag = "sp" if symplectic else "nonsp"
            checks.append(_wigner(f"wigner-R{2 * pairs}-{tag}", pairs, symplectic, rng))
    return checks
