"""Known-answer arithmetic that shares no code with aldyn.

Gaussian rationals are ``(re, im)`` pairs of ``Fraction``; a polynomial is a
dict ``{exps: {theta_power: (re, im)}}``; a matrix is a tuple of row tuples
of pairs.  The workloads build their inputs in this form, hand aldyn only
the converted objects, and check aldyn's answers against the functions
here.  Reading an aldyn value goes through its public attributes
(``Poly.terms``, ``Scalar.terms``, ``GaussRational.re``/``.im``,
``Mat.entries``) and never calls aldyn arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import factorial

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))


# -- Q(i) ------------------------------------------------------------------

def gadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def gsub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def gscale(a, r):
    return (a[0] * r, a[1] * r)


def gdiv(a, b):
    n = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) / n, (a[1] * b[0] - a[0] * b[1]) / n)


def gpow(a, k):
    out = ONE
    for _ in range(k):
        out = gmul(out, a)
    return out


def is_zero(a):
    return a[0] == 0 and a[1] == 0


# -- reading aldyn values ----------------------------------------------------

def from_gauss(c):
    return (c.re, c.im)


def poly_dict(p):
    """An aldyn Poly as ``{exps: {theta_power: (re, im)}}``."""
    return {
        exps: {k: from_gauss(c) for k, c in s.terms.items()}
        for exps, s in p.terms.items()
    }


def mat_rows(m):
    return tuple(tuple(from_gauss(c) for c in row) for row in m.entries)


# -- polynomials -------------------------------------------------------------

def padd(f, g, sign=1):
    out = {e: dict(c) for e, c in f.items()}
    for e, c in g.items():
        slot = out.setdefault(e, {})
        for k, v in c.items():
            s = gadd(slot.get(k, ZERO), gscale(v, sign))
            if is_zero(s):
                slot.pop(k, None)
            else:
                slot[k] = s
        if not slot:
            del out[e]
    return out


def pscale(f, c):
    out = {}
    for e, cs in f.items():
        slot = {k: gmul(v, c) for k, v in cs.items()}
        slot = {k: v for k, v in slot.items() if not is_zero(v)}
        if slot:
            out[e] = slot
    return out


def pmul(f, g):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            slot = out.setdefault(e, {})
            for k1, v1 in c1.items():
                for k2, v2 in c2.items():
                    slot[k1 + k2] = gadd(slot.get(k1 + k2, ZERO), gmul(v1, v2))
    return _clean(out)


def pderiv(f, i):
    out = {}
    for e, c in f.items():
        if e[i] == 0:
            continue
        ne = e[:i] + (e[i] - 1,) + e[i + 1:]
        out[ne] = {k: gscale(v, e[i]) for k, v in c.items()}
    return out


def _clean(f):
    out = {}
    for e, c in f.items():
        c = {k: v for k, v in c.items() if not is_zero(v)}
        if c:
            out[e] = c
    return out


def peval(f, point, theta=Fraction(0)):
    """Value at a rational point and a rational theta."""
    total = ZERO
    for e, c in f.items():
        mono = Fraction(1)
        for x, k in zip(point, e):
            mono *= x ** k
        for k, v in c.items():
            total = gadd(total, gscale(v, mono * theta ** k))
    return total


def _deriv_at(f, gamma, point, theta):
    """(d^gamma f)(point) with theta substituted."""
    total = ZERO
    for e, c in f.items():
        w = Fraction(1)
        for x, k, g in zip(point, e, gamma):
            if k < g:
                break
            w *= Fraction(factorial(k), factorial(k - g)) * x ** (k - g)
        else:
            for t, v in c.items():
                total = gadd(total, gscale(v, w * theta ** t))
    return total


def moyal_at(f, g, n_pairs, point, theta):
    """(f * g)(point) by the Groenewold closed form for q1..qN, p1..pN:
    sum over multi-indices alpha, beta of (i theta/2)^(|a|+|b|) (-1)^|b|
    / (a! b!) (d_q^a d_p^b f)(d_p^a d_q^b g)."""
    df = {}
    dg = {}
    deg = max((sum(e) for e in f), default=0)
    deg = min(deg, max((sum(e) for e in g), default=0))
    total = ZERO
    ranges = [range(deg + 1)] * (2 * n_pairs)
    for idx in product(*ranges):
        alpha, beta = idx[:n_pairs], idx[n_pairs:]
        order = sum(idx)
        if order > deg:
            continue
        gf = alpha + beta
        gg = beta + alpha
        if gf not in df:
            df[gf] = _deriv_at(f, gf, point, theta)
        if gg not in dg:
            dg[gg] = _deriv_at(g, gg, point, theta)
        if is_zero(df[gf]) or is_zero(dg[gg]):
            continue
        w = Fraction(1)
        for a in idx:
            w /= factorial(a)
        if sum(beta) % 2:
            w = -w
        coeff = gscale(gpow((Fraction(0), theta / 2), order), w)
        total = gadd(total, gmul(coeff, gmul(df[gf], dg[gg])))
    return total


def canonical_field(h, n_pairs):
    """Components of the canonical Hamiltonian field {x, H}:
    q_a -> dH/dp_a and p_a -> -dH/dq_a."""
    comps = [pderiv(h, n_pairs + a) for a in range(n_pairs)]
    comps += [pscale(pderiv(h, a), (Fraction(-1), Fraction(0))) for a in range(n_pairs)]
    return comps


def divergence(comps):
    total = {}
    for i, c in enumerate(comps):
        total = padd(total, pderiv(c, i))
    return total


# -- matrices ----------------------------------------------------------------

def mzero(n):
    return tuple(tuple(ZERO for _ in range(n)) for _ in range(n))


def mmul(a, b):
    n = len(a)
    return tuple(
        tuple(
            _gsum(gmul(a[i][k], b[k][j]) for k in range(n)) for j in range(n)
        )
        for i in range(n)
    )


def _gsum(items):
    total = ZERO
    for x in items:
        total = gadd(total, x)
    return total


def madd(a, b, sign=1):
    return tuple(
        tuple(gadd(x, gscale(y, sign)) for x, y in zip(ra, rb))
        for ra, rb in zip(a, b)
    )


def mscale(a, c):
    return tuple(tuple(gmul(x, c) for x in row) for row in a)


def mcomm(a, b):
    return madd(mmul(a, b), mmul(b, a), -1)


def mtrace(a):
    return _gsum(a[i][i] for i in range(len(a)))


def traceless(a):
    n = len(a)
    t = gscale(mtrace(a), Fraction(1, n))
    return tuple(
        tuple(gsub(x, t) if i == j else x for j, x in enumerate(row))
        for i, row in enumerate(a)
    )


def rank(rows):
    """Rank over Q(i) by fraction Gauss elimination on copies of the rows."""
    rows = [list(r) for r in rows if any(not is_zero(x) for x in r)]
    if not rows:
        return 0
    r = 0
    for c in range(len(rows[0])):
        piv = next((i for i in range(r, len(rows)) if not is_zero(rows[i][c])), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = gdiv(ONE, rows[r][c])
        rows[r] = [gmul(x, inv) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not is_zero(rows[i][c]):
                f = rows[i][c]
                rows[i] = [gsub(x, gmul(f, y)) for x, y in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return r
