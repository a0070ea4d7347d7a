"""matrix-calculus: the derivation-based calculus on B(C^N) and block dynamics.

matrices, diffcalc and quantum carry it; poly and moyal are unused.  Each
cycle builds DerivationBasis.gell_mann(N) for N = 2, 3, 4 as timed checks
(users pay for it on every run) and reuses the bases in the checks that
follow.  Which basis indices a form uses is fixed per slot (so its cost is
steady from seed to seed); the seed draws the matrix values, the dual-form
index, the block Hamiltonians and the evolution times.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import numpy as np

from aldyn import diffcalc, quantum

from perfbench import oracle as O
from perfbench.inputs import Check, cycle_rng, random_rows, to_mat

MINUS_ONE = (Fraction(-1), Fraction(0))


def _gell_mann(n, bases):
    def run():
        bases[n] = diffcalc.DerivationBasis.gell_mann(n)
        return bases[n]

    def verify(basis):
        """N^2 - 1 generators; sum_j c^j_kl X_j = [X_l, X_k] for every k != l,
        and [X_l, X_k] = 0 where no constants are stored."""
        gens = [O.mat_rows(g) for g in basis.generators]
        if len(gens) != n * n - 1:
            return False
        for k in range(len(gens)):
            for l in range(len(gens)):
                if k == l:
                    continue
                total = O.mzero(n)
                for j, c in basis.structure.get((k, l), []):
                    total = O.madd(total, O.mscale(gens[j], O.from_gauss(c)))
                if total != O.mcomm(gens[l], gens[k]):
                    return False
        return True

    return Check(f"gell_mann-{n}", run, verify)


def _form_coeffs(rng, dim, n, degree, count, shape):
    tuples = list(itertools.combinations(range(dim), degree))
    return {tuples[shape.randrange(len(tuples))]: random_rows(rng, n) for _ in range(count)}


def _kform(basis, degree, coeffs):
    return diffcalc.KForm(basis, degree, {i: to_mat(m) for i, m in coeffs.items()})


def _dd(n, degree, bases, rng, shape):
    """d(d w) = 0; for degree 0 also (dA)(X_k) = [A, X_k]."""
    coeffs = _form_coeffs(rng, n * n - 1, n, degree, 3, shape)

    def run():
        dw = diffcalc.exterior_d(_kform(bases[n], degree, coeffs))
        return diffcalc.exterior_d(dw).is_zero(), dw

    def verify(out):
        dd_zero, dw = out
        if dd_zero is not True:
            return False
        if degree:
            return True
        a = coeffs[()]
        for k, g in enumerate(bases[n].generators):
            want = O.mcomm(a, O.mat_rows(g))
            got = dw.coeffs.get((k,))
            if (O.mat_rows(got) if got is not None else O.mzero(n)) != want:
                return False
        return True

    return Check(f"dd-N{n}-deg{degree}", run, verify)


def _dalpha(n, bases):
    """d alpha^j (X_k, X_l) = -c^j_kl 1 for every j and k < l: the scalars
    c_j read off d alpha^j must satisfy sum_j c_j X_j = [X_l, X_k]."""

    def run():
        basis = bases[n]
        return [diffcalc.exterior_d(diffcalc.KForm.dual_form(basis, j)) for j in range(basis.dim)]

    def verify(forms):
        gens = [O.mat_rows(g) for g in bases[n].generators]
        ident = tuple(tuple(O.ONE if i == j else O.ZERO for j in range(n)) for i in range(n))
        for k in range(len(gens)):
            for l in range(k + 1, len(gens)):
                total = O.mzero(n)
                for j, da in enumerate(forms):
                    v = da.coeffs.get((k, l))
                    v = O.mat_rows(v) if v is not None else O.mzero(n)
                    c = O.gmul(v[0][0], MINUS_ONE)
                    if v != O.mscale(ident, O.gmul(c, MINUS_ONE)):
                        return False
                    total = O.madd(total, O.mscale(gens[j], c))
                if total != O.mcomm(gens[l], gens[k]):
                    return False
        return True

    return Check(f"dalpha-N{n}", run, verify)


def _leibniz(n, j, jp, bases, rng, shape):
    """d(w1 ^ w2) = dw1 ^ w2 + (-1)^j w1 ^ dw2."""
    dim = n * n - 1
    c1 = _form_coeffs(rng, dim, n, j, 2, shape)
    c2 = _form_coeffs(rng, dim, n, jp, 2, shape)

    def run():
        w1, w2 = _kform(bases[n], j, c1), _kform(bases[n], jp, c2)
        d, wedge = diffcalc.exterior_d, diffcalc.wedge
        rhs = wedge(d(w1), w2)
        second = wedge(w1, d(w2))
        rhs = rhs - second if j % 2 else rhs + second
        return d(wedge(w1, w2)) == rhs

    return Check(f"leibniz-N{n}-{j}{jp}", run, lambda same: same is True)


def _wedge_assoc(n, bases, rng, shape):
    dim = n * n - 1
    cs = [_form_coeffs(rng, dim, n, 1, 2, shape) for _ in range(3)]

    def run():
        w = [_kform(bases[n], 1, c) for c in cs]
        wedge = diffcalc.wedge
        return wedge(wedge(w[0], w[1]), w[2]) == wedge(w[0], wedge(w[1], w[2]))

    return Check(f"wedge_assoc-N{n}", run, lambda same: same is True)


def _exactness(n, bases, rng):
    """alpha^j is not exact: dA takes commutator (traceless) values, while
    alpha^j(X_j) is the unit, whose trace is N."""
    j = rng.randrange(n * n - 1)

    def run():
        return diffcalc.exactness_obstruction(bases[n], j)

    return Check(f"exactness-N{n}", run, lambda rep: rep.solvable is False)


def _block_hamiltonian(rng, n, k):
    rows = [[O.ZERO] * n for _ in range(n)]
    for lo, hi in ((0, k), (k, n)):
        for i in range(lo, hi):
            for j in range(i, hi):
                v = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                rows[i][j] = rows[j][i] = (v, Fraction(0))
    return tuple(tuple(r) for r in rows)


def _invariance(n, k, perturbed, rng):
    """A block-diagonal H preserves the top-left k x k corner algebra; one
    off-block entry breaks that."""
    h = [list(r) for r in _block_hamiltonian(rng, n, k)]
    if perturbed:
        i, j = rng.randrange(k), rng.randrange(k, n)
        h[i][j] = O.gadd(h[i][j], (Fraction(rng.choice((-2, -1, 1, 2))), Fraction(0)))
    hm = to_mat(h)

    def run():
        return quantum.invariance_check(hm, quantum.MatrixSubspace.block_algebra(n, k))

    tag = "perturbed" if perturbed else "block"
    return Check(f"invariance-{n}-{k}-{tag}", run, lambda rep: rep.ok is (not perturbed))


def _block_split(n, k, rng):
    """The parts are the traceless parts of the two diagonal blocks."""
    h = _block_hamiltonian(rng, n, k)
    hm = to_mat(h)
    top = tuple(tuple(x if i < k and j < k else O.ZERO for j, x in enumerate(r)) for i, r in enumerate(h))
    bottom = tuple(tuple(x if i >= k and j >= k else O.ZERO for j, x in enumerate(r)) for i, r in enumerate(h))

    def run():
        return quantum.block_split(hm, k)

    def verify(parts):
        du, df = parts
        return O.mat_rows(du.x) == O.traceless(top) and O.mat_rows(df.x) == O.traceless(bottom)

    return Check(f"block_split-{n}-{k}", run, verify)


def _expm_taylor(m):
    """exp(m) by scaling and squaring a 30-term Taylor series."""
    s = max(0, int(np.ceil(np.log2(max(np.linalg.norm(m, 1), 1e-300)))) + 1)
    a = m / 2.0**s
    out = np.eye(len(m), dtype=complex)
    term = np.eye(len(m), dtype=complex)
    for i in range(1, 30):
        term = term @ a / i
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def _evolve(n, k, rng):
    """a(t) = e^{itH} a e^{-itH}, checked against a Taylor-series exponential."""
    h = _block_hamiltonian(rng, n, k)
    a = random_rows(rng, n)
    t = rng.uniform(0.1, 3.0)
    hm, am = to_mat(h), to_mat(a)
    hn, an = hm.to_numpy(), am.to_numpy()

    def run():
        return quantum.evolve(am, hm, t)

    def verify(out):
        u = _expm_taylor(1j * t * hn)
        want = u @ an @ u.conj().T
        return bool(np.allclose(out, want, rtol=0, atol=1e-9 * max(1.0, np.abs(want).max())))

    return Check(f"evolve-{n}", run, verify)


def build(seed: int, cycle: int) -> list[Check]:
    rng = cycle_rng(seed, cycle)
    bases: dict[int, diffcalc.DerivationBasis] = {}
    checks = [_gell_mann(n, bases) for n in (2, 3, 4)]
    shapes = (random.Random(slot) for slot in range(100))
    # Twenty-four degree-0 checks on B(C^3) form the middle cost tier, so
    # that the median falls inside one kind of check.
    checks += [_dd(3, 0, bases, rng, next(shapes)) for _ in range(23)]
    for n in (2, 3):
        checks += [_dd(n, degree, bases, rng, next(shapes)) for degree in (0, 1, 2)]
        checks.append(_dalpha(n, bases))
        checks.append(_wedge_assoc(n, bases, rng, next(shapes)))
        checks.append(_exactness(n, bases, rng))
    for n, j, jp in ((2, 1, 1), (3, 1, 1), (3, 0, 2), (3, 1, 2)):
        checks.append(_leibniz(n, j, jp, bases, rng, next(shapes)))
    checks.append(_invariance(4, 2, False, rng))
    checks.append(_invariance(4, 2, True, rng))
    checks.append(_invariance(6, 3, False, rng))
    checks.append(_block_split(4, 2, rng))
    checks.append(_block_split(6, 3, rng))
    checks.append(_evolve(4, 2, rng))
    checks.append(_evolve(6, 3, rng))
    return checks
