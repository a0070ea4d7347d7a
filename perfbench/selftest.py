"""Self-test of the benchmark's own machinery.

1. The wrappers reproduce counts known from profiling aldyn: 341 Poly
   multiplies in the dense degree-4 star on R^4, a 504 x 211 rref in the
   cap-6 Hamiltonian search on R^4, and 57 and 211 rref calls in
   DerivationBasis.gell_mann(3) and gell_mann(4).
2. The deterministic per-layer counts repeat exactly across two traced
   runs of one seed, for every workload.
3. The rank and solvability of linear systems captured from aldyn's rref,
   and the rank computed by the benchmark's own oracle, agree with sympy's
   exact matrices over QQ_I.

Run it with ``python3 perfbench/run.py --self-test``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from perfbench import oracle as O
from perfbench.inputs import cycle_rng, dense_poly, random_poly, to_poly
from perfbench.trace import DETERMINISTIC, Tracer
from perfbench.workloads import NAMES

ROOT = Path(__file__).resolve().parent.parent
SEED = 7


def _traced(fn):
    tracer = Tracer()
    tracer.install()
    try:
        fn()
    finally:
        tracer.uninstall()
    return tracer


def baseline_counts() -> list[tuple[str, bool, str]]:
    from aldyn import diffcalc, moyal, poisson
    from aldyn.derivations import PolyDerivation
    from aldyn.poly import GeneratorSet

    rng = cycle_rng(SEED, 0)
    gens = GeneratorSet.phase_space(2)
    f, g = (to_poly(gens, dense_poly(rng, 4, 4)) for _ in range(2))
    ctx = moyal.StarAlgebraContext.canonical(2)
    t = _traced(lambda: moyal.star(ctx, f, g))
    muls = t.counters["poly_mul_in_star"]
    out = [("dense degree-4 star on R^4: 341 Poly multiplies", muls == 341, str(muls))]

    h = random_poly(rng, 4, 6, 6, mindeg=2)
    delta = PolyDerivation(gens, {n: to_poly(gens, c) for n, c in zip(gens.names, O.canonical_field(h, 2))})
    t = _traced(lambda: poisson.find_hamiltonian(poisson.PoissonTensor.canonical(2), delta, 6))
    biggest = max(t.rref_shapes, key=lambda s: s[0] * s[1])
    out.append(("find_hamiltonian R^4 cap 6: a 504 x 211 rref", biggest == (504, 211), f"{biggest}"))

    for n, want in ((3, 57), (4, 211)):
        t = _traced(lambda: diffcalc.DerivationBasis.gell_mann(n))
        calls = t.calls("linalg.rref")
        out.append((f"gell_mann({n}): {want} rref calls", calls == want, str(calls)))
    return out


def repeatable_counts() -> list[tuple[str, bool, str]]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    out = []
    for name in NAMES:
        runs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "perfbench.worker", "--workload", name,
                 "--seed", str(SEED), "--trace", "1"],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=600, check=True,
            )
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1])["metrics"])
        diff = [k for k in DETERMINISTIC if runs[0][k] != runs[1][k]]
        out.append((f"{name}: traced counts repeat", not diff, ", ".join(diff) or "all equal"))
    return out


def _sympy_rank(rows) -> int:
    from sympy import QQ
    from sympy.polys.domains import QQ_I
    from sympy.polys.matrices import DomainMatrix

    if not rows or not rows[0]:
        return 0
    elems = [
        [QQ_I(QQ(re.numerator, re.denominator), QQ(im.numerator, im.denominator)) for re, im in r]
        for r in rows
    ]
    return DomainMatrix(elems, (len(rows), len(rows[0])), QQ_I).rank()


def linalg_against_sympy() -> list[tuple[str, bool, str]]:
    from aldyn import diffcalc, linalg, poisson, quantum, reduction
    from aldyn.derivations import PolyDerivation
    from aldyn.poly import GeneratorSet, Poly

    captured = []
    original = linalg.rref

    def capture(matrix):
        rows, pivots = original(matrix)
        captured.append(([[O.from_gauss(x) for x in r] for r in matrix], pivots))
        return rows, pivots

    gens2 = GeneratorSet.phase_space(1)
    rng = cycle_rng(SEED, 1)
    h = random_poly(rng, 2, 3, 4, mindeg=2)
    delta = PolyDerivation(gens2, {n: to_poly(gens2, c) for n, c in zip(gens2.names, O.canonical_field(h, 1))})
    gens3 = GeneratorSet.plain(("x", "y", "z"))
    x, y = Poly.generator(gens3, "x"), Poly.generator(gens3, "y")
    rot = reduction.Distribution([PolyDerivation(gens3, {"x": -y, "y": x})])
    linalg.rref = capture
    try:
        quantum.commutant(quantum.MatrixSubspace.block_algebra(4, 2))
        poisson.find_hamiltonian(poisson.PoissonTensor.canonical(1), delta, 3)
        basis = diffcalc.DerivationBasis.gell_mann(2)
        diffcalc.exactness_obstruction(basis, 1)
        reduction.invariant_subalgebra(rot, 4)
    finally:
        linalg.rref = original

    bad = 0
    for rows, pivots in captured:
        cols = len(rows[0]) if rows else 0
        full = _sympy_rank(rows)
        # Pivots left of the last column count the rank of the matrix
        # without it; the two ranks differ exactly when A x = b (b the last
        # column) has no solution.
        left = _sympy_rank([r[:-1] for r in rows]) if cols > 1 else 0
        ok = len(pivots) == full == O.rank(rows)
        ok = ok and sum(1 for p in pivots if p < cols - 1) == left
        bad += not ok
    detail = f"{len(captured)} systems, {bad} disagreements"
    return [("rref rank and solvability match sympy QQ_I", bad == 0 and len(captured) > 5, detail)]


def main() -> int:
    results = baseline_counts() + linalg_against_sympy() + repeatable_counts()
    for label, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'}  {label}  ({detail})")
    return 0 if all(ok for _, ok, _ in results) else 1
