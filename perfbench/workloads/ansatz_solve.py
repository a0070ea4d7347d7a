"""ansatz-solve: inverse searches and kernel computations with known answers.

Exact linear algebra dominates: the cap-6 Hamiltonian search on R^4 runs a
dense rref on a 504 x 211 system with about 508 nonzeros, and coefficients
grow during elimination.  moyal is not used.  Each slot's monomials are
fixed (so its cost is steady from seed to seed); the seed draws the
coefficients and the rotation axis.  The biderivation and commutant inputs
are fixed by their size.
"""

from __future__ import annotations

import random
from fractions import Fraction

from aldyn import poisson, quantum, reduction
from aldyn.derivations import PolyDerivation
from aldyn.poly import GeneratorSet

from perfbench import oracle as O
from perfbench.inputs import Check, cycle_rng, random_poly, to_poly

MINUS_ONE = (Fraction(-1), Fraction(0))


def _constant_free(f):
    return {e: c for e, c in f.items() if any(e)}


def _same(f, g):
    return O.padd(f, g, -1) == {}


def _field(gens, comps):
    return PolyDerivation(gens, {n: to_poly(gens, c) for n, c in zip(gens.names, comps)})


def _find_hamiltonian(name, pairs, degree, cap, terms, rng, shape):
    """find_hamiltonian on X_H for a random H; the answer H' must regenerate
    the dynamics."""
    gens = GeneratorSet.phase_space(pairs)
    h = _constant_free(random_poly(rng, 2 * pairs, degree, terms, mindeg=2, shape=shape))
    field = O.canonical_field(h, pairs)
    delta = _field(gens, field)

    def run():
        return poisson.find_hamiltonian(poisson.PoissonTensor.canonical(pairs), delta, cap)

    def verify(found):
        if found is None:
            return False
        again = O.canonical_field(O.poly_dict(found), pairs)
        return all(_same(a, b) for a, b in zip(again, field))

    return Check(name, run, verify)


def _no_hamiltonian(name, pairs, degree, cap, terms, rng, shape):
    """X_H + mu * Euler field: its divergence is 2N mu != 0, while every
    Hamiltonian field is divergence-free, so no H exists at any cap."""
    gens = GeneratorSet.phase_space(pairs)
    h = _constant_free(random_poly(rng, 2 * pairs, degree, terms, mindeg=2, shape=shape))
    mu = (Fraction(rng.choice((-2, -1, 1, 2)), rng.randint(1, 3)), Fraction(0))
    field = O.canonical_field(h, pairs)
    for i in range(2 * pairs):
        x = {tuple(int(j == i) for j in range(2 * pairs)): {0: mu}}
        field[i] = O.padd(field[i], x)
    if O.divergence(field) == {}:
        raise ValueError("the perturbed field must have non-zero divergence")
    delta = _field(gens, field)

    def run():
        return poisson.find_hamiltonian(poisson.PoissonTensor.canonical(pairs), delta, cap)

    return Check(name, run, lambda found: found is None)


def _find_poisson_tensor(name, cap, rng, shape):
    """A known pair on R^2: Lambda^{qp} = lam, delta = lam * (dH/dp, -dH/dq).
    Every bivector on R^2 satisfies Jacobi, so a tensor of degree <= cap
    exists; the found one must map dH to delta."""
    gens = GeneratorSet.phase_space(1)
    lam = random_poly(rng, 2, 2, 3, shape=shape)
    h = _constant_free(random_poly(rng, 2, 3, 4, mindeg=1, shape=shape))
    dq, dp = O.pderiv(h, 0), O.pderiv(h, 1)
    field = [O.pmul(lam, dp), O.pscale(O.pmul(lam, dq), MINUS_ONE)]
    delta = _field(gens, field)
    hp = to_poly(gens, h)

    def run():
        return poisson.find_poisson_tensor(delta, hp, cap)

    def verify(tensor):
        if tensor is None:
            return False
        got = O.poly_dict(tensor.components[(0, 1)]) if tensor.components else {}
        image = [O.pmul(got, dp), O.pscale(O.pmul(got, dq), MINUS_ONE)]
        return all(_same(a, b) for a, b in zip(image, field))

    return Check(name, run, verify)


def _invariant_subalgebra(rng, cap):
    """Rotation about a seeded axis of R^3, scaled by c != 0.  Its invariants
    of degree <= cap are the polynomials in r^2 and the axis coordinate:
    #{(a, b) : 2a + b <= cap}, which is 25 at cap 8."""
    axis = rng.randrange(3)
    i, j = [k for k in range(3) if k != axis]
    c = (Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4)), Fraction(0))
    gens = GeneratorSet.plain(("x", "y", "z"))
    unit = [tuple(int(k == m) for k in range(3)) for m in range(3)]
    comps = [{}, {}, {}]
    comps[i] = {unit[j]: {0: O.gscale(c, -1)}}
    comps[j] = {unit[i]: {0: c}}
    dist = reduction.Distribution([_field(gens, comps)])
    dimension = sum(cap - 2 * a + 1 for a in range(cap // 2 + 1))

    def run():
        return reduction.invariant_subalgebra(dist, cap)

    def verify(basis):
        if len(basis) != dimension:
            return False
        for f in basis:
            d = O.poly_dict(f)
            image = O.padd(O.pmul(comps[i], O.pderiv(d, i)), O.pmul(comps[j], O.pderiv(d, j)))
            if image:
                return False
        return True

    return Check(f"invariant_subalgebra-R3-cap{cap}", run, verify)


def _normalizer(name, member, rng, shape):
    """delta against D = span(d/dq1, d/dq2) on R^4.  [delta, d/dq_j] =
    -(d_qj delta^a) d_a, so delta normalizes D iff its p-components do not
    depend on q1, q2; then h_j^k = -d_qj delta^{q_k}."""
    gens = GeneratorSet.phase_space(2)
    comps = [random_poly(rng, 4, 3, 3, shape=shape) for _ in range(2)]
    for _ in range(2):
        p_only = random_poly(rng, 2, 3, 3, shape=shape)
        comps.append({(0, 0) + e: c for e, c in p_only.items()})
    if not member:
        c = {0: (Fraction(rng.choice((-2, -1, 1, 2))), Fraction(0))}
        comps[2] = O.padd(comps[2], {(1, 0, 0, 0): c})
    delta = _field(gens, comps)
    ys = [
        _field(gens, [{(0, 0, 0, 0): {0: O.ONE}} if a == j else {} for a in range(4)])
        for j in range(2)
    ]
    dist = reduction.Distribution(ys)

    def run():
        return reduction.normalizer_check(delta, dist, 4)

    def verify(rep):
        if not member:
            return rep.status == "non-member"
        if rep.status != "member":
            return False
        for j in range(2):
            for k in range(2):
                want = O.pscale(O.pderiv(comps[k], j), MINUS_ONE)
                if not _same(O.poly_dict(rep.coefficients[j][k]), want):
                    return False
        return True

    return Check(name, run, verify)


def commutator_layout(n: int) -> dict:
    """{E_a, E_b} = [E_a, E_b] in the solver's coordinates
    ((a * n^2 + b) * n + g) * n + h, computed from E_ij E_kl = d_jk E_il."""
    d = n * n
    out = {}
    for a in range(d):
        ai, aj = divmod(a, n)
        for b in range(d):
            bi, bj = divmod(b, n)
            entries = {}
            if aj == bi:
                entries[(ai, bj)] = entries.get((ai, bj), 0) + 1
            if bj == ai:
                entries[(bi, aj)] = entries.get((bi, aj), 0) - 1
            for (g, h), v in entries.items():
                if v:
                    out[((a * d + b) * n + g) * n + h] = (Fraction(v), Fraction(0))
    return out


def _biderivation(n):
    """Brackets on Mat_n that are Leibniz in both slots form the line of the
    commutator."""
    expected = commutator_layout(n)

    def run():
        return quantum.biderivation_solver(n)

    def verify(sols):
        if len(sols) != 1:
            return False
        got = {k: O.from_gauss(v) for k, v in sols[0].items()}
        got = {k: v for k, v in got.items() if not O.is_zero(v)}
        if set(got) != set(expected):
            return False
        k0 = next(iter(expected))
        ratio = O.gdiv(got[k0], expected[k0])
        return all(got[k] == O.gmul(ratio, v) for k, v in expected.items())

    return Check(f"biderivation-n{n}", run, verify)


def _commutant(n, k):
    """The commutant of the top-left k x k corner of Mat_n is
    C * 1_k (+) Mat_{n-k}: dimension 1 + (n - k)^2."""

    def run():
        return quantum.commutant(quantum.MatrixSubspace.block_algebra(n, k))

    def verify(space):
        rows = [O.mat_rows(b) for b in space.basis]
        if len(rows) != 1 + (n - k) ** 2:
            return False
        # [m, E_ij] = 0 iff m[r][i] [c == j] == [r == i] m[j][c] for all r, c.
        for m in rows:
            for i in range(k):
                for j in range(k):
                    for r in range(n):
                        for c in range(n):
                            left = m[r][i] if c == j else O.ZERO
                            right = m[j][c] if r == i else O.ZERO
                            if left != right:
                                return False
        return O.rank([[x for row in m for x in row] for m in rows]) == len(rows)

    return Check(f"commutant-{n}-{k}", run, verify)


def build(seed: int, cycle: int) -> list[Check]:
    """Slots in three cost tiers.  The middle tier is ten cap-6 searches on
    R^2, so that the median falls inside one kind of check, and the three
    normalizer checks put the 90th percentile inside one kind too."""
    rng = cycle_rng(seed, cycle)
    shapes = (random.Random(slot) for slot in range(100))
    checks = [
        _find_hamiltonian("find_hamiltonian-R4-cap6", 2, 6, 6, 6, rng, next(shapes)),
        _find_hamiltonian("find_hamiltonian-R4-cap4", 2, 4, 4, 5, rng, next(shapes)),
        _no_hamiltonian("find_hamiltonian-R4-cap4-none", 2, 3, 4, 4, rng, next(shapes)),
        _invariant_subalgebra(rng, 8),
        _normalizer("normalizer-R4-nonmember", False, rng, next(shapes)),
        _biderivation(3),
        _commutant(6, 3),
    ]
    checks += [_normalizer("normalizer-R4-member", True, rng, next(shapes)) for _ in range(3)]
    checks += [
        _find_hamiltonian("find_hamiltonian-R2-cap6", 1, 6, 6, 4, rng, next(shapes))
        for _ in range(10)
    ]
    checks += [
        _biderivation(2),
        _find_hamiltonian("find_hamiltonian-R2-cap3", 1, 3, 3, 4, rng, next(shapes)),
        _no_hamiltonian("find_hamiltonian-R2-cap4-none", 1, 3, 4, 3, rng, next(shapes)),
        _find_poisson_tensor("find_poisson_tensor-R2-cap2", 2, rng, next(shapes)),
        _invariant_subalgebra(rng, 4),
    ]
    checks += [_commutant(n, k) for n, k in ((3, 1), (4, 1), (4, 2))]
    return checks
