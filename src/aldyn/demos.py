"""Canned end-to-end scenarios for the CLI, each re-verifying its invariants.

Every demo is deterministic: random data is drawn from fixed seeds, so two
runs produce identical payloads.  Each verdict is decided exactly; floats
appear only where an exponential is evaluated (the oscillator's rotation,
the printed angle-phase value u(t)).

The named linear dynamics x -> c x (free, oscillator, euler, rotation) are
one table of matrices, ``LINEAR_DYNAMICS``, which the demos and the CLI's
derivation presets both read.

Each demo imports the library modules it uses when it runs, so the
registry, its option types and ``LINEAR_DYNAMICS`` load with no more than
``report`` and ``scalars``.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Callable

from .report import Report
from .scalars import Scalar, named, rational as read_rational, to_float

if TYPE_CHECKING:
    from .derivations import PolyDerivation
    from .matrices import Mat

# name -> (demo, {parameter: argparse type}).  Each listed parameter is the
# option --<parameter> of `aldyn demo <name>`, with the parameter's default.
DEMOS: dict[str, tuple[Callable[..., Report], dict[str, Callable]]] = {}


def _demo(name: str, **options: Callable):
    def register(fn):
        DEMOS[name] = (fn, options)
        return fn

    return register


def rational(text: str) -> str:
    """A rational option value such as "3" or "-1/2", checked and kept as typed."""
    read_rational(text, repr(text))
    return text


def finite_float(text: str) -> float:
    """A float option value that is neither infinite nor NaN."""
    return to_float(float(text), repr(text))


# Every float check allows its computation's first-order rounding error,
# eps times a size read off the input, times this one safety factor.
FLOAT_SAFETY = 10.0


def rounding_bound(size: float) -> float:
    """The allowance of a float check whose rounding error is eps * size."""
    return FLOAT_SAFETY * sys.float_info.epsilon * size


# Row a of c holds the image of generator a of phase_space(1) = (q, p).
LINEAR_DYNAMICS = {
    "free": ((0, 1), (0, 0)),
    "oscillator": ((0, 1), (-1, 0)),
    "euler": ((1, 0), (0, 1)),
    "rotation": ((0, -1), (1, 0)),
}


def linear_dynamics(name: str) -> PolyDerivation:
    """The derivation of ``LINEAR_DYNAMICS[name]`` on ``phase_space(1)``."""
    from .derivations import PolyDerivation
    from .poly import GeneratorSet

    return PolyDerivation.from_linear_map(GeneratorSet.phase_space(1), LINEAR_DYNAMICS[name])


@_demo("free", t=rational, observable=str)
def demo_free(t: str | None = None, observable: str = "q") -> Report:
    """Free dynamics: order-2 nilpotent generator, exact truncating flow."""
    from .derivations import apply, flow_at, flow_nilpotent, nilpotency_order
    from .parsing import parse_poly
    from .poly import Poly

    free = linear_dynamics("free")
    gens = free.gens
    q = Poly.generator(gens, "q")
    order = nilpotency_order(free)
    f = named("--observable", parse_poly, observable, gens)
    flow = flow_nilpotent(free, f)
    # derivative at t = 0 recovers the derivation
    d_at_0 = flow_at(flow.partial("t"), 0)
    checks = {
        f"nilpotency order on generators = {order}": order == 2,
        # automorphism property on a product, exact
        "flow is an automorphism on q*q":
            flow_nilpotent(free, q * q) == flow_nilpotent(free, q) * flow_nilpotent(free, q),
        "d/dt at 0 equals the derivation": d_at_0 == apply(free, f),
    }
    result_poly = flow if t is None else flow_at(flow, read_rational(t, "--t"))
    payload = {
        "nilpotency_order": order,
        "observable": observable,
        "t": t,
        "flow": result_poly.to_json(),
    }
    lines = [
        f"free dynamics (q -> p, p -> 0): nilpotent of order {order}",
        f"e^(t d) {observable} = {flow}",
    ]
    if t is not None:
        lines.append(f"at t = {t}: {result_poly}")
    return Report(payload, checks, lines=lines)


@_demo("oscillator", t=rational)
def demo_oscillator(t: str | None = None) -> Report:
    """Harmonic oscillator at omega = 1: rotation flow, conserved energy."""
    from .derivations import apply, flow_linear, nilpotency_order
    from .poly import Poly

    osc = linear_dynamics("oscillator")
    gens = osc.gens
    q, p = Poly.generator(gens, "q"), Poly.generator(gens, "p")
    t = math.pi / 2 if t is None else to_float(read_rational(t, "--t"), "--t")
    order = nilpotency_order(osc)
    flow_q = flow_linear(osc, t, q)
    flow_p = flow_linear(osc, t, p)
    mat = [
        [
            flow_x.coefficient({name: 1}).constant().to_complex()
            for name in gens.names
        ]
        for flow_x in (flow_q, flow_p)
    ]
    expected = [[math.cos(t), math.sin(t)], [-math.sin(t), math.cos(t)]]
    rot_err = max(
        abs(mat[a][b] - expected[a][b]) for a in range(2) for b in range(2)
    )
    # The eigenvalues +-i t of t c round by eps |t|, and the exponential
    # passes that on to the unit entries; a bound >= 1 decides nothing.
    bound = rounding_bound(max(1.0, abs(t)))
    h = (q * q + p * p).scale(Fraction(1, 2))
    conserved = apply(osc, h).is_zero()
    checks = {
        "not nilpotent within cutoff": order is None,
        f"flow matrix matches rotation by t (max err {rot_err:.2e}, bound {bound:.2e})":
            None if bound >= 1 else rot_err < bound,
        "energy (q^2+p^2)/2 conserved exactly": conserved,
    }
    payload = {
        "t": t,
        "flow_matrix": [[[z.real, z.imag] for z in row] for row in mat],
        "rotation_error": rot_err,
        "energy_conserved": conserved,
    }
    lines = [
        f"oscillator (q -> p, p -> -q) at t = {t}",
        f"q -> {mat[0][0].real:.6f} q + {mat[0][1].real:.6f} p",
        f"p -> {mat[1][0].real:.6f} q + {mat[1][1].real:.6f} p",
    ]
    return Report(payload, checks, lines=lines)


@_demo("action-angle", t=rational, action=finite_float, theta0=finite_float)
def demo_action_angle(t: str | None = None, action: float = 1.0, theta0: float = 0.0) -> Report:
    """Angle-phase flow u(t) = e^{i(tI + theta0)} from its exact eigen-equation."""
    from .derivations import PolyDerivation, apply, flow_action_angle
    from .poly import GeneratorSet, Poly

    gens = GeneratorSet.action_angle(1)
    u, action_gen = Poly.generator(gens, "u"), Poly.generator(gens, "I")
    d = PolyDerivation(gens, {"u": action_gen})
    # d(u) = i I u with d(I) = 0 gives d^k(u) = (i I)^k u, so e^{t d} u = e^{i t I} u.
    eigen = apply(d, u) == (action_gen * u).scale(Scalar.i())
    conserved = apply(d, action_gen).is_zero()
    t = math.pi if t is None else to_float(read_rational(t, "--t"), "--t")
    closed = flow_action_angle([action], [theta0], t)[0]
    mod_err = abs(abs(closed) - 1.0)
    mod_bound = rounding_bound(1.0)  # cos, sin and the modulus each round by an ulp
    payload = {
        "I": action,
        "theta0": theta0,
        "t": t,
        "u": [closed.real, closed.imag],
        "modulus_error": mod_err,
    }
    checks = {
        "d'(u) = i I u exactly": eigen,
        "d'(I) = 0 exactly": conserved,
        f"|u(t)| = 1 (err {mod_err:.2e}, bound {mod_bound:.2e})": mod_err <= mod_bound,
    }
    lines = [
        f"u(t) = exp(i (t I + theta0)) = {closed.real:.6f} + {closed.imag:.6f} i",
    ]
    return Report(payload, checks, lines=lines)


# The block-reduction demo's fixed input: H on C^n with a k x k top block, seeded entries.
_BLOCK_N, _BLOCK_K, _BLOCK_SEED = 4, 2, 11


def _seeded_block_hamiltonian(n: int, k: int) -> Mat:
    import random

    from .matrices import Mat

    rng = random.Random(_BLOCK_SEED)

    def rand_frac():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    rows = [[Fraction(0)] * n for _ in range(n)]
    for block_start, block_end in ((0, k), (k, n)):
        for i in range(block_start, block_end):
            for j in range(i, block_end):
                v = rand_frac()
                rows[i][j] = v
                rows[j][i] = v
    return Mat.from_rows(rows)


@_demo("block-reduction")
def demo_block_reduction() -> Report:
    """Quantum block reduction: invariance and the split of ad_H, exactly."""
    from .matrices import Mat
    from .quantum import InnerDerivation, MatrixSubspace, block_split, invariance_check

    n, k = _BLOCK_N, _BLOCK_K
    h = _seeded_block_hamiltonian(n, k)
    u_space = MatrixSubspace.block_algebra(n, k)
    inv = invariance_check(h, u_space)
    # any single off-diagonal entry must break invariance
    perturb_ok = True
    for i in range(n):
        for j in range(n):
            if (i < k) == (j < k):
                continue
            hp = h + Mat.basis_elt(n, i, j)
            if invariance_check(hp, u_space).ok:
                perturb_ok = False
    du, df = block_split(h, k)
    resummed = du + df == InnerDerivation(h)
    commuting = du.commutes_with(df)
    checks = {
        "invariance of the block algebra under ad_H": inv.ok,
        "every single off-block entry breaks invariance": perturb_ok,
        "block split re-sums to ad_H exactly": resummed,
        "the two block derivations commute exactly": commuting,
    }
    payload = {
        "n": n,
        "k": k,
        "hamiltonian": h.to_json(),
        "invariance": inv.ok,
        "perturbations_fail": perturb_ok,
        "split_resums": resummed,
        "split_commutes": commuting,
    }
    lines = [
        f"block-diagonal H on C^{n} with top block {k}x{k}",
        "ad_H preserves the block algebra U (so e^(itH) U e^(-itH) = U); "
        "any off-block entry breaks it",
        "delta_H = delta_H_U + delta_H_F with commuting parts",
    ]
    return Report(payload, checks, lines=lines)


@_demo("s-space")
def demo_s_space() -> Report:
    """Degree<=2 polynomials on R^4: both brackets agree up to i theta."""
    from .moyal import StarAlgebraContext, s_space_check

    ctx = StarAlgebraContext.canonical(2)
    report = s_space_check(ctx)
    checks = {
        "closed under the Poisson bracket": report.closed_poisson,
        "closed under the star commutator": report.closed_star,
        "[f,g]_theta = i theta {f,g} on all pairs": report.all_equal,
    }
    lines = [
        f"basis of degree<=2 polynomials on R^4: {report.dimension} elements",
        "star commutator = i theta Poisson bracket, exactly, on every pair",
    ]
    return Report(report.to_json(), checks, [f"dimension = {report.dimension}"], lines)


@_demo("wigner")
def demo_wigner() -> Report:
    """Linear dynamics that cannot see whether the product commutes."""
    from .moyal import StarAlgebraContext, wigner_ambiguity_check

    ctx = StarAlgebraContext.canonical(1)
    reports = {
        name: wigner_ambiguity_check(ctx, LINEAR_DYNAMICS[name])
        for name in ("free", "oscillator", "euler")
    }
    expected_star = {"free": True, "oscillator": True, "euler": False}
    payload = {name: r.to_json() for name, r in reports.items()}
    checks = {
        f"{name}: pointwise {r.pointwise_leibniz}, symplectic {r.symplectic_condition}, "
        f"star {r.star_leibniz}": r.pointwise_leibniz and r.star_leibniz == expected_star[name]
        for name, r in reports.items()
    }
    lines = [
        "free and oscillator dynamics extend to derivations of both products;",
        "the Euler dynamics fails the symplectic condition and is pointwise-only",
    ]
    return Report(payload, checks, lines=lines)


@_demo("maurer-cartan", n=int)
def demo_maurer_cartan(n: int = 2) -> Report:
    """Dual frame of the derivation basis: d alpha + alpha o bracket = 0."""
    from .diffcalc import DerivationBasis, KForm, check_gell_mann_size, exactness_obstruction
    from .diffcalc import exterior_d
    from .matrices import Mat

    check_gell_mann_size("--n", n)
    basis = DerivationBasis.gell_mann(n)
    mc_ok = True
    for j in range(basis.dim):
        da = exterior_d(KForm.dual_form(basis, j))
        for k in range(basis.dim):
            for l in range(k + 1, basis.dim):
                cj = None
                for jb, c in basis.structure.get((k, l), []):
                    if jb == j:
                        cj = c
                lhs = da.value((k, l))
                rhs = (
                    Mat.zero(n) if cj is None else Mat.identity(n).scale(-cj)
                )
                if lhs != rhs:
                    mc_ok = False
    obstructions = [exactness_obstruction(basis, j) for j in range(basis.dim)]
    none_exact = all(not rep.solvable for rep in obstructions)
    payload = {
        "n": n,
        "basis_dim": basis.dim,
        "maurer_cartan": mc_ok,
        "dual_forms_not_exact": none_exact,
        "unit_trace": n,
    }
    checks = {
        "d alpha^j (X_k, X_l) = -alpha^j([X_k, X_l]) for all j,k,l": mc_ok,
        "dA = alpha^j has no solution for any j": none_exact,
    }
    lines = [
        f"derivation basis of B(C^{n}): {basis.dim} generators",
        "the dual 1-forms obey the structure-constant differential identity",
        "and none of them is exact (commutators are traceless, the unit is not)",
    ]
    return Report(payload, checks, lines=lines)

