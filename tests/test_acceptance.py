"""Acceptance suite: one test per criterion, printed pass/fail per line.

Everything arithmetic is checked exactly; floating-point appears only where
an exponential is involved, with the stated tolerance.  Runtime caps are
asserted where the criterion carries one.
"""

import itertools
import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

from aldyn.linalg import integer_column, solve_columns
from aldyn.derivations import (
    PolyDerivation,
    apply,
    flow_linear,
    flow_nilpotent,
    nilpotency_order,
)
from aldyn.diffcalc import (
    DerivationBasis,
    KForm,
    exactness_obstruction,
    exterior_d,
)
from aldyn.matrices import Mat, full_matrix_basis
from aldyn.moyal import (
    StarAlgebraContext,
    s_space_check,
    star,
    star_commutator,
    wigner_ambiguity_check,
)
from aldyn.poisson import SU2, PoissonTensor, bracket, lie_poisson
from aldyn.poly import GeneratorSet, Poly
from aldyn.quantum import (
    MatrixSubspace,
    biderivations,
    block_split,
    commutant,
    commutator,
    evolve,
    invariance_check,
)
from aldyn.reduction import (
    Distribution,
    f_related_reduce,
    invariant_subalgebra,
    split_dynamics,
)
from aldyn.scalars import GR_ZERO, Scalar

from conftest import random_mat, random_poly

GENS = GeneratorSet.phase_space(1)
Q = Poly.generator(GENS, "q")
P = Poly.generator(GENS, "p")
CTX = StarAlgebraContext.canonical(1)


def report(num: int, description: str, ok: bool, elapsed: float):
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {description}: {verdict} ({elapsed:.2f}s)")


def test_criterion_01_canonical_relations():
    start = time.perf_counter()
    can = PoissonTensor.canonical(1)
    ok = bracket(can, Q, P) == Poly.one(GENS)
    i_theta = Poly.constant(GENS, Scalar.of(0, 1, theta_power=1))
    ok = ok and star_commutator(CTX, Q, P) == i_theta
    elapsed = time.perf_counter() - start
    report(1, "canonical relations {q,p}=1 and [q,p]_theta=i theta", ok, elapsed)
    assert ok
    assert elapsed < 1.0


def test_criterion_02_poisson_axioms():
    start = time.perf_counter()
    rng = random.Random(1002)
    tensors = [
        (PoissonTensor.canonical(1), 70),
        (PoissonTensor.canonical(2), 70),
        (lie_poisson(SU2), 60),
    ]
    ok = True
    for tensor, count in tensors:
        gens = tensor.gens
        for _ in range(count):
            f = random_poly(gens, rng, degree=3, terms=3)
            g = random_poly(gens, rng, degree=3, terms=3)
            h = random_poly(gens, rng, degree=3, terms=3)
            ok = ok and bracket(tensor, f, g) == -bracket(tensor, g, f)
            ok = ok and bracket(tensor, f + g, h) == bracket(tensor, f, h) + bracket(
                tensor, g, h
            )
            ok = ok and bracket(tensor, f * g, h) == f * bracket(
                tensor, g, h
            ) + bracket(tensor, f, h) * g
            jac = (
                bracket(tensor, f, bracket(tensor, g, h))
                + bracket(tensor, g, bracket(tensor, h, f))
                + bracket(tensor, h, bracket(tensor, f, g))
            )
            ok = ok and jac.is_zero()
    elapsed = time.perf_counter() - start
    report(2, "Poisson axioms on 200 random triples (exact)", ok, elapsed)
    assert ok
    assert elapsed < 30.0


def test_criterion_03_moyal_exactness():
    start = time.perf_counter()
    rng = random.Random(1003)
    tensor = CTX.poisson_tensor()
    ok = True
    for _ in range(100):
        f = random_poly(GENS, rng, degree=4, terms=3)
        g = random_poly(GENS, rng, degree=4, terms=3)
        h = random_poly(GENS, rng, degree=4, terms=3)
        ok = ok and star(CTX, f, star(CTX, g, h)) == star(CTX, star(CTX, f, g), h)
        ok = ok and star(CTX, f, g).theta_graded_part(0) == (f * g).theta_graded_part(0)
        comm = star_commutator(CTX, f, g)
        pb = bracket(tensor, f, g)
        ok = ok and comm.theta_graded_part(1) == pb.scale(Scalar.i()).theta_graded_part(0)
    elapsed = time.perf_counter() - start
    report(3, "star associativity and semiclassical terms (100 random, exact)", ok, elapsed)
    assert ok
    assert elapsed < 60.0


def test_criterion_04_s_space():
    start = time.perf_counter()
    result = s_space_check(StarAlgebraContext.canonical(2))
    ok = result.dimension == 15 and result.ok
    elapsed = time.perf_counter() - start
    report(4, "degree<=2 space on R^4: closure and bracket equality (105 pairs)", ok, elapsed)
    assert ok
    assert elapsed < 10.0


def test_criterion_05_nilpotent_integrability():
    start = time.perf_counter()
    free = PolyDerivation(GENS, {"q": P})
    ok = nilpotency_order(free) == 2
    # flow equals substitution f(q + tp, p) on every monomial of degree <= 3
    for a in range(4):
        for b in range(4 - a):
            f = Q**a * P**b
            flow = flow_nilpotent(free, f)
            ext = flow.gens
            q, p, t = (Poly.generator(ext, n) for n in ("q", "p", "t"))
            ok = ok and flow == f.substitute({"q": q + t * p, "p": p})
    osc = PolyDerivation(GENS, {"q": P, "p": -Q})
    fq = flow_linear(osc, math.pi / 2, Q)
    fp = flow_linear(osc, math.pi / 2, P)
    for flow, target in ((fq, {"q": 0.0, "p": 1.0}), (fp, {"q": -1.0, "p": 0.0})):
        for name, expected in target.items():
            got = flow.coefficient({name: 1}).constant().to_complex()
            ok = ok and abs(got - expected) < 1e-12
    elapsed = time.perf_counter() - start
    report(5, "nilpotent flow exact; oscillator quarter period within 1e-12", ok, elapsed)
    assert ok


def test_criterion_06_wigner_ambiguity():
    start = time.perf_counter()
    free = wigner_ambiguity_check(CTX, [[0, 1], [0, 0]])
    osc = wigner_ambiguity_check(CTX, [[0, 1], [-1, 0]])
    euler = wigner_ambiguity_check(CTX, [[1, 0], [0, 1]])
    ok = (
        free.pointwise_leibniz
        and free.symplectic_condition
        and free.star_leibniz
        and osc.pointwise_leibniz
        and osc.symplectic_condition
        and osc.star_leibniz
        and euler.pointwise_leibniz
        and not euler.symplectic_condition
        and not euler.star_leibniz
    )
    elapsed = time.perf_counter() - start
    report(6, "product ambiguity verdicts for free/oscillator/euler", ok, elapsed)
    assert ok


def test_criterion_07_quantum_block_reduction():
    start = time.perf_counter()
    n, k = 4, 2
    rng = random.Random(1007)

    def rand_frac():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    rows = [[Fraction(0)] * n for _ in range(n)]
    for lo, hi in ((0, k), (k, n)):
        for i in range(lo, hi):
            for j in range(i, hi):
                v = rand_frac()
                rows[i][j] = v
                rows[j][i] = v
    h = Mat.from_rows(rows)
    u_space = MatrixSubspace.block_algebra(n, k)
    ok = invariance_check(h, u_space).ok
    # evolution keeps span(U) within 1e-10 at the sampled times
    basis_vecs = np.array([b.to_numpy().flatten() for b in u_space.basis]).T
    for t in (0.1, 1.0, 10.0):
        for b in u_space.basis:
            evolved = evolve(b, h, t).flatten()
            coeffs, *_ = np.linalg.lstsq(basis_vecs, evolved, rcond=None)
            ok = ok and float(np.linalg.norm(basis_vecs @ coeffs - evolved)) < 1e-10
    # any single off-diagonal entry flips the verdict
    for i in range(n):
        for j in range(n):
            if (i < k) == (j < k):
                continue
            ok = ok and not invariance_check(h + Mat.basis_elt(n, i, j), u_space).ok
    du, df = block_split(h, k)
    for _ in range(5):
        a = random_mat(rng, n)
        ok = ok and du(a) + df(a) == commutator(a, h)
    ok = ok and du.commutes_with(df)
    elapsed = time.perf_counter() - start
    report(7, "block reduction: invariance, evolution, exact commuting split", ok, elapsed)
    assert ok


def test_criterion_08_commutant_correctness():
    start = time.perf_counter()
    n, k = 4, 2
    space = MatrixSubspace.block_algebra(n, k)
    result = commutant(space)
    expected = MatrixSubspace(
        [Mat.diag([1, 1, 0, 0])]
        + [Mat.basis_elt(n, i, j) for i in range(k, n) for j in range(k, n)]
    )
    ok = result.span_equals(expected)
    rng = random.Random(1008)
    for _ in range(20):
        dim = rng.randint(1, 3)
        basis = []
        while len(basis) < dim:
            m = random_mat(rng, 3, span=2)
            columns = [b.flatten() for b in basis]
            if solve_columns(columns, [m.flatten()]) == [None]:
                basis.append(m)
        space = MatrixSubspace(basis)
        double = commutant(commutant(space))
        for b in space.basis:
            ok = ok and double.contains(b)
    elapsed = time.perf_counter() - start
    report(8, "commutant of the block algebra; double-commutant containment", ok, elapsed)
    assert ok


def test_criterion_09_biderivation_uniqueness():
    start = time.perf_counter()
    ok = True
    for n in (2, 3):
        space = MatrixSubspace(full_matrix_basis(n))
        sols, _ = biderivations(space)
        ok = ok and len(sols) == 1
        if sols:
            # the commutator in the same (a, b, m) coordinates: c_ab^m - c_ba^m
            cvec = {}
            for (a, b, m), c in space.structure().items():
                cvec[a, b, m] = cvec.get((a, b, m), GR_ZERO) + c
                cvec[b, a, m] = cvec.get((b, a, m), GR_ZERO) - c
            cvec = integer_column(cvec)
            columns = [integer_column(s) for s in sols]
            ok = ok and bool(cvec[0]) and solve_columns(columns, [cvec]) != [None]
    elapsed = time.perf_counter() - start
    report(9, "biderivation space is the commutator line on Mat_2 and Mat_3", ok, elapsed)
    assert ok


def test_criterion_10_classical_reduction():
    start = time.perf_counter()
    free = PolyDerivation(GENS, {"q": P})
    osc = PolyDerivation(GENS, {"q": P, "p": -Q})
    euler = PolyDerivation(GENS, {"q": Q, "p": P})
    d_q = Distribution([PolyDerivation(GENS, {"q": Poly.one(GENS)})])
    d_rot = Distribution([PolyDerivation(GENS, {"q": -P, "p": Q})])
    d_euler = Distribution([PolyDerivation(GENS, {"q": Q})])

    # free along d_q
    ok = invariant_subalgebra(d_q, 2) == [Poly.one(GENS), P, P**2]
    res = split_dynamics(free, d_q)
    ok = ok and res.status == "ok" and res.delta_d == free and res.delta_prime.is_zero()
    reduced = f_related_reduce(free, [P])
    ok = ok and reduced is not None and reduced.is_zero()

    # oscillator along the rotation field
    ok = ok and invariant_subalgebra(d_rot, 2) == [Poly.one(GENS), P**2 + Q**2]
    res = split_dynamics(osc, d_rot)
    ok = ok and res.status == "ok" and res.delta_prime.is_zero()
    reduced = f_related_reduce(osc, [Q**2 + P**2])
    ok = ok and reduced is not None and reduced.is_zero()

    # Euler along q d_q: the map reduces, the connection ansatz reports failure
    reduced = f_related_reduce(euler, [Q * P])
    ok = ok and reduced is not None
    x1 = Poly.generator(reduced.gens, "x1")
    ok = ok and reduced.images["x1"] == x1.scale(2)
    res = split_dynamics(euler, d_euler)
    ok = ok and res.status == "inconclusive" and "connection" in res.note

    # split re-summation and flow commutation on the two-plane case
    gens4 = GeneratorSet.phase_space(2)
    p1, p2 = Poly.generator(gens4, "p1"), Poly.generator(gens4, "p2")
    dist4 = Distribution([PolyDerivation(gens4, {"q1": Poly.one(gens4)})])
    delta4 = PolyDerivation(gens4, {"q1": p1, "q2": p2})
    res4 = split_dynamics(delta4, dist4)
    ok = ok and res4.status == "ok" and res4.commuting
    rng = random.Random(1010)
    for _ in range(5):
        f = random_poly(gens4, rng, degree=3, terms=3)
        ok = ok and apply(res4.delta_d, f) + apply(res4.delta_prime, f) == apply(
            delta4, f
        )
    t1, t2 = 0.9, -0.4
    for name in gens4.names:
        x = Poly.generator(gens4, name)
        ab = flow_linear(res4.delta_prime, t2, flow_linear(res4.delta_d, t1, x))
        ba = flow_linear(res4.delta_d, t1, flow_linear(res4.delta_prime, t2, x))
        for exps in set(ab.terms) | set(ba.terms):
            za = ab.terms.get(exps, Scalar.zero()).constant().to_complex()
            zb = ba.terms.get(exps, Scalar.zero()).constant().to_complex()
            ok = ok and abs(za - zb) < 1e-10
    elapsed = time.perf_counter() - start
    report(10, "classical reduction worked examples and commuting split", ok, elapsed)
    assert ok


def test_criterion_11_differential_calculus():
    start = time.perf_counter()
    rng = random.Random(1011)
    ok = True
    for n in (2, 3):
        basis = DerivationBasis.gell_mann(n)
        tuples_by_degree = {
            d: list(itertools.combinations(range(basis.dim), d)) for d in (0, 1, 2)
        }
        for trial in range(50):
            degree = trial % 3
            coeffs = {}
            choices = tuples_by_degree[degree]
            for _ in range(3):
                coeffs[choices[rng.randrange(len(choices))]] = random_mat(rng, n, span=2)
            w = KForm(basis, degree, coeffs)
            ok = ok and exterior_d(exterior_d(w)).is_zero()
        for j in range(basis.dim):
            da = exterior_d(KForm.dual_form(basis, j))
            for k in range(basis.dim):
                for l in range(k + 1, basis.dim):
                    c_jkl = GR_ZERO
                    for jb, c in basis.structure.get((k, l), []):
                        if jb == j:
                            c_jkl = c
                    ok = ok and da.value((k, l)) == Mat.identity(n).scale(-c_jkl)
            ok = ok and not exactness_obstruction(basis, j).solvable
    elapsed = time.perf_counter() - start
    report(11, "d^2 = 0, structure-constant identity, dual forms not exact", ok, elapsed)
    assert ok
    assert elapsed < 120.0


def test_criterion_12_cli_determinism():
    start = time.perf_counter()
    demos = [
        "free",
        "oscillator",
        "action-angle",
        "block-reduction",
        "s-space",
        "wigner",
        "maurer-cartan",
    ]
    ok = True
    for name in demos:
        outputs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "aldyn.cli", "demo", name, "--json"],
                capture_output=True,
                timeout=300,
            )
            ok = ok and proc.returncode == 0
            outputs.append(proc.stdout)
        ok = ok and outputs[0] == outputs[1] and len(outputs[0]) > 0
        if outputs[0]:
            payload = json.loads(outputs[0])
            ok = ok and payload["status"] == "ok"
    elapsed = time.perf_counter() - start
    report(12, "every demo exits 0 with byte-identical JSON", ok, elapsed)
    assert ok
