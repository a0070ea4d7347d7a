"""Command-line front end: every operation behind a subcommand with JSON I/O.

Each subcommand, and each demo under `demo <name>`, takes only the options
its handler reads; `--json` / `--text` are the one pair every subcommand
shares, and an option a subcommand does not take is malformed input.

Each handler returns a `report.Report` built from the checks that decide
it; the status, and with it the exit code, is read off those checks.  Exit
codes: 0 for ok, 1 for a mathematical failure (a check that did not hold),
2 for malformed input, 3 for an inconclusive ansatz.  With --json the
payload is canonical (sorted keys, fixed separators), strict JSON and
byte-for-byte reproducible: a value no finite float can hold, as an option,
a JSON entry or a float result, is malformed input.  Wall time is only
ever printed in text mode.

A cold process pays only for the command it runs.  At module level this
module imports only the standard library, `report`, `scalars` and `demos`,
which imports no more; each handler and demo imports the library functions
it calls when it runs.  `main` builds the subparser of argv's first token
alone, and under `demo` only the demo named next.  Only an argv that names
no subcommand (`aldyn`, `aldyn --help`, a misspelt name) builds all of
them, and `demo --help` every demo.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import TYPE_CHECKING

from .demos import DEMOS, FLOAT_SAFETY, LINEAR_DYNAMICS, finite_float, linear_dynamics
from .demos import rounding_bound
from .report import EXIT_BAD_INPUT, Report
from .scalars import GR_ZERO, GaussRational, Scalar, check_budget, json_field, json_list
from .scalars import json_object, named, rational, to_float

if TYPE_CHECKING:
    from .derivations import PolyDerivation
    from .diffcalc import DerivationBasis, KForm
    from .moyal import StarAlgebraContext
    from .poisson import PoissonTensor
    from .poly import GeneratorSet, Poly
    from .reduction import Distribution


def _load_json_arg(text: str, path: str):
    raw = text
    if text.startswith("@"):
        try:
            with open(text[1:], "r", encoding="utf-8") as fh:
                raw = fh.read()
        except OSError as e:
            raise ValueError(f"{path}: cannot read file: {e}") from e
    try:
        return json.loads(raw)
    except json.JSONDecodeError as e:
        raise ValueError(f"{path}: invalid JSON: {e}") from e
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None


def _load_tensor(spec: str) -> PoissonTensor:
    from .poisson import ABELIAN, HEISENBERG, SU2, PoissonTensor, lie_poisson

    presets = {
        "canonical2": lambda: PoissonTensor.canonical(1),
        "canonical4": lambda: PoissonTensor.canonical(2),
        "canonical6": lambda: PoissonTensor.canonical(3),
        "su2": lambda: lie_poisson(SU2),
        "heisenberg": lambda: lie_poisson(HEISENBERG),
        "abelian": lambda: lie_poisson(ABELIAN),
    }
    if spec in presets:
        return presets[spec]()
    data = _load_json_arg(spec, "/tensor")
    if isinstance(data, dict) and "c" in data:
        return named("/tensor", lie_poisson, data["c"])
    return PoissonTensor.from_json(data, "/tensor")


def _load_derivation(spec: str, path: str = "/derivation") -> PolyDerivation:
    from .derivations import PolyDerivation

    if spec in LINEAR_DYNAMICS:
        return linear_dynamics(spec)
    return PolyDerivation.from_json(_load_json_arg(spec, path), path)


def _load_distribution(data, path: str) -> Distribution:
    from .derivations import PolyDerivation
    from .reduction import Distribution

    data = json_list(data, path)
    fields = [PolyDerivation.from_json(d, f"{path}/{i}") for i, d in enumerate(data)]
    return named(path, Distribution, fields)


def _parse_expr(text: str, gens: GeneratorSet, path: str) -> Poly:
    from .parsing import parse_poly

    return named(path, parse_poly, text, gens)


def _poly_float_json(p: Poly) -> dict:
    terms = []
    for exps, c in p.sorted_terms():
        z = c.constant().to_complex()
        terms.append({"exps": list(exps), "re": z.real, "im": z.imag})
    return {"generators": list(p.gens.names), "terms": terms}


def _matrix_float_json(arr: np.ndarray) -> dict:
    return {
        "n": int(arr.shape[0]),
        "entries": [
            [{"re": float(z.real), "im": float(z.imag)} for z in row] for row in arr
        ],
    }


def _poly_result(r: Poly, theta: str | None) -> dict:
    """The payload of a polynomial result, with `--theta` substituted if given."""
    result = {"poly": r.to_json(), "text": str(r)}
    if theta is not None:
        result["theta_substituted"] = r.substitute_theta(rational(theta, "/theta")).to_json()
    return result


# ---------------------------------------------------------------------------
# handlers
# ---------------------------------------------------------------------------


def cmd_bracket(args) -> Report:
    from .poisson import bracket

    tensor = _load_tensor(args.tensor)
    f = _parse_expr(args.f, tensor.gens, "/f")
    g = _parse_expr(args.g, tensor.gens, "/g")
    r = bracket(tensor, f, g)
    return Report(
        _poly_result(r, args.theta),
        {"antisymmetry re-check": bracket(tensor, g, f) == -r},
        lines=[f"{{f, g}} = {r}"],
    )


def cmd_jacobi(args) -> Report:
    from .poisson import jacobi_check

    tensor = _load_tensor(args.tensor)
    rep = jacobi_check(tensor)
    checks = {"cyclic sum vanishes on all triples": rep.ok}
    if rep.ok:
        return Report({"jacobi": True}, checks, lines=["Jacobi identity holds"])
    return Report(
        {
            "jacobi": False,
            "witness": list(rep.witness),
            "residual": rep.residual.to_json(),
        },
        checks,
        [f"witness triple {rep.witness}, residual {rep.residual}"],
        [f"Jacobi fails on triple {rep.witness}: residual {rep.residual}"],
    )


def cmd_hamfield(args) -> Report:
    from .derivations import apply
    from .poisson import hamiltonian_field

    tensor = _load_tensor(args.tensor)
    h = _parse_expr(args.h, tensor.gens, "/h")
    d = hamiltonian_field(tensor, h)
    return Report(
        {"derivation": d.to_json()},
        {"X_H(H) = 0 exactly": apply(d, h).is_zero()},
        lines=[f"Hamiltonian field: {d}"],
    )


def _star_operands(pairs: int, f: str, g: str) -> tuple[StarAlgebraContext, Poly, Poly]:
    """The canonical context on `pairs` pairs, with f and g parsed over it."""
    from .moyal import StarAlgebraContext

    if pairs < 1:
        raise ValueError("--pairs: phase space needs at least one pair")
    check_budget("--pairs", (2 * pairs) ** 2, "(2 pairs)^2 tensor components")
    ctx = StarAlgebraContext.canonical(pairs)
    return ctx, _parse_expr(f, ctx.gens, "/f"), _parse_expr(g, ctx.gens, "/g")


def cmd_star(args) -> Report:
    from .moyal import star

    ctx, f, g = _star_operands(args.pairs, args.f, args.g)
    r = star(ctx, f, g)
    limit_ok = r.theta_graded_part(0) == (f * g).theta_graded_part(0)
    return Report(
        _poly_result(r, args.theta),
        {"theta -> 0 limit equals the pointwise product": limit_ok},
        lines=[f"f * g = {r}"],
    )


def cmd_starcomm(args) -> Report:
    from .moyal import star, star_commutator
    from .poisson import bracket

    ctx, f, g = _star_operands(args.pairs, args.f, args.g)
    r = star_commutator(ctx, f, g)
    # [f, g]_* = i theta {f, g} + O(theta^3), so the theta^1 part of the
    # commutator is i times the theta^0 part of the bracket, theta or not.
    pb = bracket(ctx.poisson_tensor(), f, g)
    leading_ok = r.theta_graded_part(1) == pb.scale(Scalar.i()).theta_graded_part(0)
    return Report(
        _poly_result(r, args.theta),
        {
            # The one-pass commutator keeps only the odd orders; the two full
            # products agree with it only if their even orders cancel.
            "one-pass commutator equals f*g - g*f from two star products":
                r == star(ctx, f, g) - star(ctx, g, f),
            "theta^1 coefficient is i{f,g}": leading_ok,
        },
        lines=[f"[f, g]_theta = {r}"],
    )


def cmd_flow(args) -> Report:
    """The exact series when it truncates, else the float linear flow."""
    from .derivations import NonTruncatingFlow, flow_at, flow_linear, flow_nilpotent
    from .derivations import linear_coefficient_matrix

    d = _load_derivation(args.derivation)
    f = _parse_expr(args.f, d.gens, "/f")
    try:
        flow = flow_nilpotent(d, f)
    except NonTruncatingFlow:
        flow = None
    if flow is not None:
        at_zero_ok = flow_at(flow, 0) == f
        if args.t is not None:
            flow = flow_at(flow, rational(args.t, "/t"))
        return Report(
            {"mode": "nilpotent", "poly": flow.to_json(), "text": str(flow)},
            {"flow at t = 0 returns the observable": at_zero_ok},
            lines=[f"e^(t d) f = {flow}"],
        )
    if args.t is None:
        raise ValueError("/t: linear flow needs a numeric --t")
    if not f.is_theta_free():
        raise ValueError("/f: linear flow needs a theta-free observable")
    t = to_float(rational(args.t, "/t"), "/t")
    named("/derivation", linear_coefficient_matrix, d)  # flow_linear's linearity check, named
    flow = flow_linear(d, t, f)
    return Report(
        {"mode": "linear", "t": t, "poly_float": _poly_float_json(flow)},
        notes=["matrix exponential evaluated in floating point"],
        lines=[f"e^(t d) f has {len(flow.terms)} terms at t = {t}"],
    )


def cmd_nilpotency(args) -> Report:
    from .derivations import nilpotency_order

    d = _load_derivation(args.derivation)
    if args.cutoff < 1:
        raise ValueError("--cutoff: cutoff must be >= 1")
    check_budget("--cutoff", args.cutoff, "applications of the derivation")
    order = nilpotency_order(d, args.cutoff)
    payload = {
        "cutoff": args.cutoff,
        "order": order if order is not None else f"not nilpotent within {args.cutoff}",
    }
    line = (
        f"nilpotent of order {order}"
        if order is not None
        else f"not nilpotent within cutoff {args.cutoff}"
    )
    return Report(payload, lines=[line])


def _central_difference_bound(h_norm: float, a_norm: float, dt: float) -> float:
    """Error bound of the central difference (a(dt) - a(-dt)) / 2dt of
    a(t) = e^{itH} a e^{-itH}: truncation dt^2/6 |a'''| with
    |a'''| <= (2|H|)^3 |a| (|ad_H| <= 2|H|), plus rounding eps |a| / dt,
    times the safety factor of every float check.  Norms are spectral."""
    truncation = FLOAT_SAFETY * dt**2 * (2 * h_norm) ** 3 * a_norm / 6
    return truncation + rounding_bound(a_norm / dt)


def cmd_evolve(args) -> Report:
    from .matrices import Mat
    from .quantum import evolve, heisenberg_derivative

    h = Mat.from_json(_load_json_arg(args.h, "/h"), "/h")
    a = Mat.from_json(_load_json_arg(args.a, "/a"), "/a")
    if a.n != h.n:
        raise ValueError(f"/a: a {a.n}x{a.n} matrix, /h is {h.n}x{h.n}")
    # the exact checks of the input come before the import of numpy
    derivative = named("/h", heisenberg_derivative, a, h)
    import numpy as np

    hn, an = h.to_numpy("/h"), a.to_numpy("/a")
    expected = derivative.to_numpy()
    t = args.t
    result = evolve(a, h, t)
    # finite-difference check of the Heisenberg equation at t = 0
    dt = 1e-6
    fd = (evolve(a, h, dt) - evolve(a, h, -dt)) / (2 * dt)
    fd_err = float(np.max(np.abs(fd - expected)))
    fd_bound = _central_difference_bound(
        float(np.linalg.norm(hn, 2)), float(np.linalg.norm(an, 2)), dt
    )
    a_frob = float(np.linalg.norm(an))
    norm_err = abs(float(np.linalg.norm(result)) - a_frob)
    # e^{itH} is unitary to rounding whatever t is, so the drift is n eps |a|_F.
    norm_bound = rounding_bound(a.n * a_frob)
    return Report(
        {"matrix": _matrix_float_json(result), "t": t},
        {
            f"finite-difference Heisenberg derivative error {fd_err:.2e} (<= {fd_bound:.2e})":
                fd_err <= fd_bound,
            f"Frobenius norm drift {norm_err:.2e} (<= {norm_bound:.2e})": norm_err <= norm_bound,
        },
        lines=[f"evolved {a.n}x{a.n} observable to t = {t}"],
    )


def cmd_commutant(args) -> Report:
    from .quantum import MatrixSubspace, commutant

    space = MatrixSubspace.from_json(_load_json_arg(args.subspace, "/subspace"), "/subspace")
    n, k = space.n, space.dimension()
    check_budget("/subspace", n**2 * k * n**2, "n^2 unknowns x k n^2 commutant equations")
    result = commutant(space)
    d = result.dimension()
    check_budget("/subspace", d**2 * n**2, "d^2 n^2 entries of the closure check's products")
    return Report(
        {"dimension": result.dimension(), "basis": result.to_json()},
        {
            "commutant closed under product and commutator":
                result.is_closed(),
        },
        lines=[f"commutant dimension: {result.dimension()}"],
    )


def cmd_invariance(args) -> Report:
    from .matrices import Mat
    from .quantum import MatrixSubspace, invariance_check

    h = Mat.from_json(_load_json_arg(args.h, "/h"), "/h")
    space = MatrixSubspace.from_json(_load_json_arg(args.subspace, "/subspace"), "/subspace")
    if h.n != space.n:
        raise ValueError(f"/h: a {h.n}x{h.n} matrix, /subspace holds {space.n}x{space.n} ones")
    rep = invariance_check(h, space)
    checks = {"ad_H preserves the subspace": rep.ok}
    if rep.ok:
        return Report({"invariant": True}, checks, lines=["ad_H preserves the subspace"])
    return Report(
        {"invariant": False, "witness": rep.witness.to_json()},
        checks,
        ["witness basis element leaves the span under ad_H"],
        ["ad_H does not preserve the subspace"],
    )


def cmd_blocksplit(args) -> Report:
    from .matrices import Mat
    from .quantum import InnerDerivation, block_split

    h = Mat.from_json(_load_json_arg(args.h, "/h"), "/h")
    if not 0 < args.k < h.n:
        raise ValueError(f"--k: need 0 < k < n, and /h is {h.n}x{h.n}")
    du, df = named("/h", block_split, h, args.k)
    resummed = du + df == InnerDerivation(h)
    commuting = du.commutes_with(df)
    return Report(
        {
            "generator_top": du.x.to_json(),
            "generator_bottom": df.x.to_json(),
            "resums": resummed,
            "commute": commuting,
        },
        {"split re-sums to ad_H exactly": resummed, "parts commute exactly": commuting},
        lines=["split ad_H into commuting block derivations"],
    )


def cmd_biderivation(args) -> Report:
    from .linalg import integer_column, solve_columns
    from .matrices import full_matrix_basis
    from .quantum import MatrixSubspace, biderivations

    n = args.n
    if not 1 <= n <= 4:
        raise ValueError(f"--n: matrix size must be in 1..4 for the biderivation solver, got {n}")
    space = MatrixSubspace(full_matrix_basis(n))
    sols, (equations, unknowns, rank) = biderivations(space)
    # the commutator at (a, b, m) is c_ab^m - c_ba^m
    bracket: dict[tuple, GaussRational] = {}
    for (a, b, m), c in space.structure().items():
        bracket[a, b, m] = bracket.get((a, b, m), GR_ZERO) + c
        bracket[b, a, m] = bracket.get((b, a, m), GR_ZERO) - c
    cvec = integer_column(bracket)
    # the commutator vanishes on Mat_1, whose answer is then the zero space
    in_span = len(sols) == (1 if cvec[0] else 0) and None not in solve_columns(
        [integer_column(s) for s in sols], [cvec]
    )
    return Report(
        {
            "n": n,
            "dimension": len(sols),
            "spanned_by_commutator": in_span,
            "equations": equations,
            "unknowns": unknowns,
            "rank": rank,
        },
        {"the solution space equals the span of the commutator bracket": in_span},
        notes=[f"solution space dimension {len(sols)}"],
        lines=[
            f"bilinear Leibniz brackets on Mat_{n}: dimension {len(sols)}, "
            + ("spanned by the commutator" if in_span else "see payload"),
        ],
    )


def cmd_reduce(args) -> Report:
    from .derivations import PolyDerivation
    from .poly import Poly, check_monomial_budget
    from .reduction import ConnectionP, invariance_of_subalgebra, invariant_subalgebra
    from .reduction import split_dynamics

    data = json_object(_load_json_arg(args.input, "/input"), "/input")
    unknown = sorted(data.keys() - {"dynamics", "distribution", "connection"})
    if unknown:
        raise ValueError(f"/input/{unknown[0]}: unknown key")
    delta = PolyDerivation.from_json(json_field(data, "dynamics", "/input"), "/input/dynamics")
    dist = _load_distribution(json_field(data, "distribution", "/input"), "/input/distribution")
    check_monomial_budget("--degree-cap", len(delta.gens), args.degree_cap)
    check_monomial_budget("--ansatz-cap", len(delta.gens), args.ansatz_cap)
    at = "/input/connection"
    forms = [
        {n: Poly.from_json(p, f"{at}/{j}/{n}") for n, p in json_object(f, f"{at}/{j}").items()}
        for j, f in enumerate(json_list(data.get("connection", []), at))
    ]
    # The first solve refuses theta-carrying fields, before a connection is built on them.
    basis = named("/input/distribution", invariant_subalgebra, dist, args.degree_cap)
    # [] or no "connection" means none is given
    connection = named(at, ConnectionP, dist, forms) if forms else None
    split = named("/input/dynamics", split_dynamics, delta, dist, connection, args.ansatz_cap)
    norm = split.normalizer
    payload = {
        "invariant_basis": [b.to_json() for b in basis],
        "invariant_basis_text": [str(b) for b in basis],
        "normalizer": norm.status,
    }
    lines = [
        f"invariant subalgebra basis (degree <= {args.degree_cap}): "
        + ", ".join(str(b) for b in basis),
        f"normalizer membership: {norm.status}",
    ]
    member = {"member": True, "non-member": False}.get(norm.status)
    checks = {"dynamics normalizes the distribution": member}
    if norm.status == "non-member":
        payload["witness"] = norm.witness
    if not member:
        return Report(payload, checks, lines=lines)
    if split.status != "ok":
        payload["split"] = {"status": split.status, "note": split.note}
        lines.append(f"split: {split.note}")
        checks[f"polynomial connection within degree cap {args.ansatz_cap}"] = None
        return Report(payload, checks, lines=lines)
    inv = invariance_of_subalgebra(delta, basis, dist)
    payload["split"] = {
        "status": "ok",
        "case": split.case,
        "delta_d": split.delta_d.to_json(),
        "delta_prime": split.delta_prime.to_json(),
        "commuting": split.commuting,
    }
    payload["subalgebra_invariant_under_dynamics"] = inv.ok
    checks["split re-sums exactly"] = (split.delta_d + split.delta_prime) == delta
    checks["invariant subalgebra preserved by the dynamics"] = inv.ok
    lines.append(
        f"split: delta_D = {split.delta_d}; delta' = {split.delta_prime}; "
        f"case: {split.case}"
    )
    return Report(payload, checks, lines=lines)


def cmd_frelate(args) -> Report:
    from .poly import check_monomial_budget, coefficient_column
    from .reduction import f_related_reduce

    delta = _load_derivation(args.dynamics, "/dynamics")
    comps = [
        _parse_expr(c.strip(), delta.gens, f"/map/{i}")
        for i, c in enumerate(args.map.split(";"))
    ]
    check_monomial_budget("--ansatz-cap", len(comps), args.ansatz_cap)
    for i, c in enumerate(comps):  # each component through the theta gate, naming it
        named(f"/map/{i}", coefficient_column, [c])
    reduced = named("/dynamics", f_related_reduce, delta, comps, args.ansatz_cap)
    if reduced is None:
        return Report(
            {"reducible": False},
            {f"polynomial push-forward within degree cap {args.ansatz_cap}": None},
            lines=["not reducible within the ansatz cap"],
        )
    return Report(
        {"reducible": True, "reduced": reduced.to_json()},
        notes=["delta(F^i) expressed through the map components exactly"],
        lines=[f"reduced dynamics: {reduced}"],
    )


def cmd_connection(args) -> Report:
    from .poly import check_monomial_budget
    from .reduction import connection_apply, find_connection

    dist = _load_distribution(_load_json_arg(args.distribution, "/distribution"), "/distribution")
    check_monomial_budget("--degree-cap", len(dist.gens), args.degree_cap)
    conn = named("/distribution", find_connection, dist, args.degree_cap)
    if conn is None:
        return Report(
            {"found": False},
            {f"polynomial connection within degree cap {args.degree_cap}": None},
            lines=["no polynomial connection within the degree cap"],
        )
    projected = connection_apply(conn, dist.fields[0])
    return Report(
        {"found": True, "forms": conn.to_json()},
        {"idempotence on a probe field": connection_apply(conn, projected) == projected},
        lines=["found a dual family of polynomial 1-forms"],
    )


def _load_form(spec: str, path: str, basis: DerivationBasis | None = None) -> KForm:
    """A form from JSON, over `basis` if one is given."""
    from .diffcalc import KForm

    return KForm.from_json(_load_json_arg(spec, path), basis, path)


def cmd_dform(args) -> Report:
    from .diffcalc import exterior_d

    w = _load_form(args.form, "/form")
    dw = exterior_d(w)
    return Report(
        {"form": dw.to_json()},
        {"d(d form) = 0": exterior_d(dw).is_zero()},
        lines=[f"exterior derivative has degree {dw.degree}"],
    )


def cmd_wedge(args) -> Report:
    from .diffcalc import wedge

    w1 = _load_form(args.form1, "/form1")
    w = wedge(w1, _load_form(args.form2, "/form2", w1.basis))
    return Report({"form": w.to_json()}, lines=[f"wedge has degree {w.degree}"])


def _parse_coeff_vector(text: str, dim: int, path: str) -> list[GaussRational]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != dim:
        raise ValueError(f"{path}: expected {dim} coefficients, got {len(parts)}")
    return [GaussRational.of(rational(p, path)) for p in parts]


def cmd_contract(args) -> Report:
    from .diffcalc import contract

    w = _load_form(args.form, "/form")
    x = _parse_coeff_vector(args.x, w.basis.dim, "/x")
    r = contract(x, w)
    return Report({"form": r.to_json()}, lines=[f"contraction has degree {r.degree}"])


def cmd_lieder(args) -> Report:
    from .diffcalc import lie_derivative
    from .matrices import Mat
    from .quantum import commutator

    w = _load_form(args.form, "/form")
    x = _parse_coeff_vector(args.x, w.basis.dim, "/x")
    r = lie_derivative(x, w)
    checks = {}
    if w.degree == 0:
        # L_X A = [A, sum_j x_j X_j]
        gen = Mat.zero(w.basis.n)
        for j, c in enumerate(x):
            if not c.is_zero():
                gen = gen + w.basis.generators[j].scale(c)
        checks["degree-0 Lie derivative equals [A, X]"] = (
            r.as_matrix() == commutator(w.as_matrix(), gen)
        )
    return Report({"form": r.to_json()}, checks, lines=[f"Lie derivative has degree {r.degree}"])


def cmd_casimir(args) -> Report:
    from .poisson import casimir_check

    tensor = _load_tensor(args.tensor)
    c = _parse_expr(args.c, tensor.gens, "/c")
    rep = casimir_check(tensor, c)
    checks = {"brackets with all generators vanish": rep.ok}
    if rep.ok:
        return Report({"casimir": True}, checks, lines=["brackets with all generators vanish"])
    return Report(
        {"casimir": False, "witness": rep.witness, "residual": rep.residual.to_json()},
        checks,
        [f"witness generator {rep.witness}: X_C^{rep.witness} = {rep.residual}"],
        [f"not a Casimir: X_C^{rep.witness} = {rep.residual}"],
    )


def cmd_demo(args) -> Report:
    """Runs the demo on the options given; the demo's own defaults fill the rest."""
    demo, options = DEMOS[args.name]
    given = vars(args)
    return demo(**{name: given[name] for name in options if name in given})


# ---------------------------------------------------------------------------
# parser and main
# ---------------------------------------------------------------------------


def _build_parser(command: str | None = None, demo: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand; when `command` names one, only its
    subparser, and under `demo` only the demo `demo` when it names one.
    The narrowed parser's usage line still lists every command, so for an
    argv that starts with `command` and `demo` it prints what the full
    parser prints."""
    # The format flags default to SUPPRESS so that a nested demo parser does
    # not reset a --json given before the demo name.
    common = argparse.ArgumentParser(add_help=False)
    fmt = common.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="as_json", action="store_true", default=argparse.SUPPRESS)
    fmt.add_argument("--text", dest="as_json", action="store_false", default=argparse.SUPPRESS)

    parser = argparse.ArgumentParser(
        prog="aldyn",
        description="exact-arithmetic engine for algebraic dynamics",
    )
    parser.set_defaults(as_json=False)
    sub = parser.add_subparsers(dest="command", required=True)
    names = []

    def add(name: str, fn, *required: str) -> argparse.ArgumentParser | None:
        """The subparser `name` with its required options, or None when
        only another command is built."""
        names.append(name)
        if command not in (None, name):
            return None
        p = sub.add_parser(name, parents=[common])
        for flag in required:
            p.add_argument(flag, required=True)
        p.set_defaults(fn=fn)
        return p

    def caps(p: argparse.ArgumentParser, *flags: str):
        from .poly import DEFAULT_ANSATZ_CAP

        for flag in flags:
            p.add_argument(flag, type=int, default=DEFAULT_ANSATZ_CAP)

    theta_help = "rational value substituted for theta"

    if p := add("bracket", cmd_bracket, "--tensor", "--f", "--g"):
        p.add_argument("--theta", help=theta_help)
    add("jacobi", cmd_jacobi, "--tensor")
    add("hamfield", cmd_hamfield, "--tensor", "--h")
    for name, fn in (("star", cmd_star), ("starcomm", cmd_starcomm)):
        if p := add(name, fn, "--f", "--g"):
            p.add_argument("--pairs", type=int, default=1)
            p.add_argument("--theta", help=theta_help)

    if p := add("flow", cmd_flow, "--f"):
        p.add_argument("--derivation", required=True, help="preset name or derivation JSON")
        p.add_argument("--t", default=None)

    if p := add("nilpotency", cmd_nilpotency, "--derivation"):
        from .derivations import DEFAULT_NILPOTENCY_CUTOFF

        p.add_argument("--cutoff", type=int, default=DEFAULT_NILPOTENCY_CUTOFF)

    if p := add("evolve", cmd_evolve, "--h", "--a"):
        p.add_argument("--t", type=finite_float, required=True)

    add("commutant", cmd_commutant, "--subspace")
    add("invariance", cmd_invariance, "--h", "--subspace")
    if p := add("blocksplit", cmd_blocksplit, "--h"):
        p.add_argument("--k", type=int, required=True)
    if p := add("biderivation", cmd_biderivation):
        p.add_argument("--n", type=int, required=True)

    if p := add("reduce", cmd_reduce, "--input"):
        caps(p, "--degree-cap", "--ansatz-cap")
    if p := add("frelate", cmd_frelate, "--dynamics"):
        p.add_argument("--map", required=True, help="semicolon-separated component expressions")
        caps(p, "--ansatz-cap")
    if p := add("connection", cmd_connection, "--distribution"):
        caps(p, "--degree-cap")
    add("dform", cmd_dform, "--form")
    add("wedge", cmd_wedge, "--form1", "--form2")
    for name, fn in (("contract", cmd_contract), ("lieder", cmd_lieder)):
        if p := add(name, fn, "--form"):
            p.add_argument("--x", required=True, help="comma-separated basis coefficients")
    add("casimir", cmd_casimir, "--tensor", "--c")

    if p := add("demo", cmd_demo):
        demos = p.add_subparsers(dest="name", required=True)
        for name in (demo,) if demo in DEMOS else DEMOS:
            fn, options = DEMOS[name]
            p = demos.add_parser(name, parents=[common], help=fn.__doc__)
            for option, type_ in options.items():
                p.add_argument(f"--{option}", type=type_, default=argparse.SUPPRESS)

    if command not in (None, *names):
        return _build_parser()
    if command is not None:
        # As a metavar, the list would also rename the argument in the
        # full parser's "invalid choice" and "required" errors.
        sub.metavar = "{" + ",".join(names) + "}"
    return parser


def _json(report: Report, command: str) -> str:
    """The canonical payload; a non-finite float in it raises ValueError."""
    payload = {
        "command": command,
        "status": report.status,
        "result": report.result,
        "verification": report.verification,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _print_text(report: Report, elapsed_ms: float):
    for line in report.lines:
        print(line)
    for note in report.verification:
        print(f"  [check] {note}")
    print(f"status: {report.status}  ({elapsed_ms:.1f} ms)")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser(*argv[:2]).parse_args(argv)
    start = time.perf_counter()
    try:
        report = args.fn(args)
        out = _json(report, args.command) if args.as_json else None
    except ValueError as e:  # every bad-input error type subclasses ValueError
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_BAD_INPUT
    if out is None:
        _print_text(report, (time.perf_counter() - start) * 1000)
    else:
        sys.stdout.write(out + "\n")
    return report.exit_code()


if __name__ == "__main__":
    sys.exit(main())
