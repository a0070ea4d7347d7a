"""Checks and seeded input generators shared by the workloads.

A check is one user-level question with one verdict.  ``run`` is the timed
call into aldyn; ``verify`` compares its result with a known answer that the
workload derived without the function under test (see ``oracle``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from aldyn.matrices import Mat
from aldyn.poly import GeneratorSet, Poly
from aldyn.scalars import GaussRational, Scalar


@dataclass
class Check:
    name: str
    run: Callable[[], Any]
    verify: Callable[[Any], bool]


def cycle_rng(seed: int, cycle: int, salt: int = 0) -> random.Random:
    """Independent stream per (seed, cycle): every cycle gets fresh inputs."""
    return random.Random((seed * 1_000_003 + cycle) * 97 + salt)


# -- coefficients -------------------------------------------------------------

def small(rng: random.Random):
    """Small Gaussian integers, never zero."""
    while True:
        c = (Fraction(rng.randint(-4, 4)), Fraction(rng.choice((0, 0, rng.randint(-3, 3)))))
        if c != (0, 0):
            return c


def tall(rng: random.Random):
    """Large-height Gaussian rationals: six-digit numerators, four-digit
    denominators."""
    return (
        Fraction(rng.choice((-1, 1)) * rng.randint(10**5, 10**6), rng.randint(10**3, 10**4)),
        Fraction(rng.randint(-10**6, 10**6), rng.randint(10**3, 10**4)),
    )


HEIGHTS = {"small": small, "tall": tall}


def coefficient(rng: random.Random, height: str, theta: bool) -> dict:
    """One coefficient in Q(i)[theta]; with ``theta`` it also has a theta^1
    or theta^2 part."""
    out = {0: HEIGHTS[height](rng)}
    if theta:
        out[rng.randint(1, 2)] = HEIGHTS[height](rng)
    return out


# -- polynomials ----------------------------------------------------------------

def random_exps(rng: random.Random, nvars: int, degree: int) -> tuple:
    exps = [0] * nvars
    for _ in range(degree):
        exps[rng.randrange(nvars)] += 1
    return tuple(exps)


def random_poly(rng, nvars, degree, terms, height="small", theta=False, mindeg=0, shape=None):
    """``terms`` distinct monomials of degree mindeg..degree, one of them of
    full degree, as an oracle dict.  Exponents come from ``shape`` when
    given, coefficients from ``rng``."""
    shape = shape or rng
    exps = [random_exps(shape, nvars, degree)]
    while len(exps) < terms:
        e = random_exps(shape, nvars, shape.randint(mindeg, degree))
        if e not in exps:
            exps.append(e)
    return {e: coefficient(rng, height, theta) for e in exps}


def symplectic_relabel(f: dict, pairs: int, rng: random.Random) -> dict:
    """Apply a seeded relabelling of q1..qN, p1..pN that permutes the pairs
    and swaps q_a with p_a in some of them.  Star products and brackets of
    relabelled inputs cost the same number of operations."""
    order = list(range(pairs))
    rng.shuffle(order)
    swap = [rng.random() < 0.5 for _ in range(pairs)]
    src = []
    for a in order:
        src.append(pairs + a if swap[a] else a)
    for a in order:
        src.append(a if swap[a] else pairs + a)
    return {tuple(e[i] for i in src): c for e, c in f.items()}


def monomials(nvars: int, degree: int) -> list[tuple]:
    """All exponent tuples of total degree <= degree."""
    if nvars == 0:
        return [()]
    return [
        (e,) + rest
        for e in range(degree + 1)
        for rest in monomials(nvars - 1, degree - e)
    ]


def dense_poly(rng, nvars, degree, height="small"):
    return {e: coefficient(rng, height, False) for e in monomials(nvars, degree)}


def to_poly(gens: GeneratorSet, f: dict) -> Poly:
    return Poly(
        gens,
        {
            e: Scalar({k: GaussRational(re, im) for k, (re, im) in c.items()})
            for e, c in f.items()
        },
    )


def to_mat(rows) -> Mat:
    return Mat([[GaussRational(re, im) for re, im in row] for row in rows])


def random_rows(rng: random.Random, n: int, span: int = 2):
    return tuple(
        tuple(
            (Fraction(rng.randint(-span, span), rng.randint(1, 3)),
             Fraction(rng.randint(-span, span), rng.randint(1, 3)))
            for _ in range(n)
        )
        for _ in range(n)
    )


def random_point(rng: random.Random, nvars: int) -> tuple:
    return tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(nvars))


def random_theta(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 9), rng.randint(2, 11))
