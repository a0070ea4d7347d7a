"""Reduction of a polynomial dynamics along a distribution of vector fields.

The pieces: the invariant subalgebra annihilated by the spanning fields,
normalizer membership of a dynamics (with pointwise certificates for
rejection), reduction along a polynomial map, polynomial connections dual
to the spanning fields, and the split delta = delta^D + delta' with the
commuting-decomposition verdict.

Every existence question but the push-forward (whose columns are composed
monomials, solved by ``linalg.solve_columns``) is a bounded-degree ansatz
of ``poly.solve_combination`` or ``poly.solve_preimage``; when the ansatz
fails without a pointwise certificate the honest answer is "inconclusive",
never a guess.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from . import linalg
from .derivations import PolyDerivation, apply, commutator_der
from .poly import DEFAULT_ANSATZ_CAP, GeneratorMismatch, GeneratorSet, Poly, monomials
from .poly import coefficient_column, solve_combination, solve_preimage
from .report import Verdict
from .scalars import GaussRational


def _require_theta_free(*polys: Poly):
    for p in polys:
        if not p.is_theta_free():
            raise ValueError("reduction solvers require theta-free polynomials")


class Distribution:
    """A list of spanning derivations Y_j (the candidate vertical directions)."""

    __slots__ = ("gens", "fields")

    def __init__(self, fields: Sequence[PolyDerivation]):
        fields = list(fields)
        if not fields:
            raise ValueError("distribution needs at least one field")
        gens = fields[0].gens
        for f in fields:
            if f.gens != gens:
                raise GeneratorMismatch("fields over different generator sets")
            _require_theta_free(*f.images.values())
        self.gens = gens
        self.fields = fields

    @property
    def rank(self) -> int:
        return len(self.fields)


def invariant_subalgebra(
    dist: Distribution, degree_cap: int
) -> list[Poly]:
    """Basis of {f : Y_j(f) = 0 for all j} within degree <= cap.

    Exact kernel computation on the monomial coefficient space; basis
    vectors are normalized with leading coefficient one.
    """
    basis = solve_preimage(dist.gens, [y.components() for y in dist.fields], None, degree_cap)
    basis.sort(key=lambda p: (p.total_degree(), sorted(p.terms)))
    return basis


def express_in_fields(
    targets: Sequence[PolyDerivation],
    fields: Sequence[PolyDerivation],
    ansatz_cap: int,
) -> list[list[Poly] | None]:
    """For each target, polynomial coefficients h^k (degree <= cap) with
    target = h^k Y_k, or None; every target in one solve."""
    if not targets:
        return []
    rhs = [t.components() for t in targets]
    _require_theta_free(*(img for t in rhs for img in t))
    return solve_combination(targets[0].gens, [y.components() for y in fields], rhs, ansatz_cap)


_SAMPLE_SEEDS = (
    (1, 1, 1, 1, 1, 1, 1, 1),
    (1, 2, 3, 4, 5, 6, 7, 8),
    (2, -1, 3, -2, 5, -3, 7, -4),
    (-3, 5, -7, 11, -13, 17, -19, 23),
    (1, 0, 2, 0, 3, 0, 4, 0),
)


def _sample_points(gens: GeneratorSet) -> list[dict[str, GaussRational]]:
    points = []
    for seed in _SAMPLE_SEEDS:
        pt = {}
        for i, name in enumerate(gens.names):
            v = seed[i % len(seed)]
            if gens.kinds[i] == "angle-phase" and v == 0:
                v = 1  # Laurent exponents need invertible values
            pt[name] = GaussRational.of(Fraction(v))
        points.append(pt)
    return points


def _value_vector(delta: PolyDerivation, point: Mapping[str, GaussRational]):
    return dict(enumerate(c.evaluate_exact(point) for c in delta.components()))


@dataclass
class NormalizerReport:
    status: str  # "member" | "non-member" | "inconclusive"
    coefficients: list[list[Poly]] | None = None  # h_j^k per field j
    witness: dict | None = None


def normalizer_check(
    delta: PolyDerivation,
    dist: Distribution,
    ansatz_cap: int = DEFAULT_ANSATZ_CAP,
) -> NormalizerReport:
    """Is [delta, Y_j] in the distribution for every j?

    Membership is certified by polynomial coefficients within the ansatz
    cap; non-membership by a sample point where [delta, Y_j] leaves the
    pointwise span of the Y_k.  Anything else is inconclusive.
    """
    if delta.gens != dist.gens:
        raise GeneratorMismatch("dynamics over a different generator set")
    brackets = [commutator_der(delta, y) for y in dist.fields]
    coeffs = express_in_fields(brackets, dist.fields, ansatz_cap)
    if None not in coeffs:
        return NormalizerReport("member", coefficients=coeffs)
    # Ansatz failed: look for a pointwise certificate.
    j = coeffs.index(None)
    for point in _sample_points(dist.gens):
        values = [_value_vector(f, point) for f in dist.fields]
        [inside] = linalg.solve_columns(values, [_value_vector(brackets[j], point)])
        if inside is None:
            return NormalizerReport(
                "non-member",
                witness={
                    "field_index": j,
                    "point": {k: str(v) for k, v in point.items()},
                },
            )
    return NormalizerReport("inconclusive")


def f_related_reduce(
    delta: PolyDerivation,
    components: Sequence[Poly],
    ansatz_cap: int = DEFAULT_ANSATZ_CAP,
) -> PolyDerivation | None:
    """The pushed-forward dynamics along the polynomial map F whose
    components F^1, ..., F^k are given, if it exists.

    Solves delta(F^i) = g_i(F^1, ..., F^k) exactly for polynomials g_i of
    degree <= cap; returns the derivation x_i -> g_i on the target
    generators x1..xk, or None when some component is not expressible
    within the cap.  The components must be theta-free and over the
    generators of delta.
    """
    if not components:
        raise ValueError("map needs at least one component")
    gens = delta.gens
    if any(c.gens != gens for c in components):
        raise GeneratorMismatch("map over a different generator set")
    _require_theta_free(*components)
    target = GeneratorSet.plain([f"x{i+1}" for i in range(len(components))])
    monos = monomials(len(target), ansatz_cap)
    # Composed basis: each target monomial m' becomes prod_j (F^j)^{m'_j},
    # built as the composed m' - e_j (listed before m') times one F^j.
    composed = {monos[0]: Poly.one(gens)}
    for m in monos[1:]:
        j = next(j for j, e in enumerate(m) if e)
        composed[m] = composed[m[:j] + (m[j] - 1,) + m[j + 1 :]] * components[j]
    columns = [coefficient_column([p]) for p in composed.values()]
    sols = linalg.solve_columns(
        columns, [coefficient_column([apply(delta, fc)]) for fc in components]
    )
    if None in sols:
        return None
    return PolyDerivation(
        target,
        {
            name: Poly.from_coefficients(target, monos, sol)
            for name, sol in zip(target.names, sols)
        },
    )


class ConnectionP:
    """P = Y_j (x) alpha^j with the duality i_{Y_j} alpha^k = delta^k_j."""

    __slots__ = ("dist", "forms")

    def __init__(self, dist: Distribution, forms: Sequence[Mapping[str, Poly]]):
        if len(forms) != dist.rank:
            raise ValueError("one dual 1-form per spanning field required")
        gens = dist.gens
        normalized = []
        for form in forms:
            comp = {}
            for name in gens.names:
                p = form.get(name, Poly.zero(gens))
                if p.gens != gens:
                    raise GeneratorMismatch("form component over a different generator set")
                comp[name] = p
            normalized.append(comp)
        self.dist = dist
        self.forms = normalized
        for j, y in enumerate(dist.fields):
            for k in range(dist.rank):
                pairing = self._contract_with(y, k)
                expected = Poly.one(gens) if j == k else Poly.zero(gens)
                if pairing != expected:
                    raise ValueError(
                        f"duality violated: i_Y[{j}] alpha^{k} != delta"
                    )

    def _contract_with(self, x: PolyDerivation, k: int) -> Poly:
        out = Poly.zero(self.dist.gens)
        for a, comp in zip(self.forms[k].values(), x.components()):
            if a.terms and comp.terms:
                out = out + a * comp
        return out

    def to_json(self) -> list:
        return [
            {name: poly.to_json() for name, poly in form.items() if not poly.is_zero()}
            for form in self.forms
        ]


def find_connection(
    dist: Distribution, degree_cap: int = DEFAULT_ANSATZ_CAP
) -> ConnectionP | None:
    """Polynomial 1-forms dual to the spanning fields, or None.

    Solves i_{Y_j} alpha^k = delta^k_j with polynomial components of
    degree <= cap, every form in one exact solve.
    """
    gens, rank = dist.gens, dist.rank
    # alpha^k = alpha^k_a dx^a: vector a holds Y_j^a for each field j, and
    # target k is the unit vector delta^k_j.
    vectors = list(zip(*(y.components() for y in dist.fields)))
    one, zero = Poly.one(gens), Poly.zero(gens)
    units = [[one if j == k else zero for j in range(rank)] for k in range(rank)]
    sols = solve_combination(gens, vectors, units, degree_cap)
    if None in sols:
        return None
    return ConnectionP(dist, [dict(zip(gens.names, sol)) for sol in sols])


def connection_apply(conn: ConnectionP, x: PolyDerivation) -> PolyDerivation:
    """P(X) = (i_X alpha^j) Y_j; idempotent, fixes every Y_j."""
    gens = conn.dist.gens
    if x.gens != gens:
        raise GeneratorMismatch("field over a different generator set")
    images = {name: Poly.zero(gens) for name in gens.names}
    for j, y in enumerate(conn.dist.fields):
        coeff = conn._contract_with(x, j)
        if coeff.is_zero():
            continue
        for name in gens.names:
            comp = y.images[name]
            if not comp.is_zero():
                images[name] = images[name] + coeff * comp
    return PolyDerivation(gens, images)


@dataclass
class SplitResult:
    status: str  # "ok" | "non-member" | "inconclusive"
    normalizer: NormalizerReport
    delta_d: PolyDerivation | None = None
    delta_prime: PolyDerivation | None = None
    commuting: bool | None = None
    case: str | None = None  # "constants-of-motion" | "independent-motions" | "coupled"
    note: str = ""


def split_dynamics(
    delta: PolyDerivation,
    dist: Distribution,
    connection: ConnectionP | None = None,
    ansatz_cap: int = DEFAULT_ANSATZ_CAP,
) -> SplitResult:
    """delta = delta^D + delta' via a connection, with the commuting verdict.

    Needs delta in the normalizer of the distribution; the normalizer
    report is returned with the split, and a non-member or uncertified
    dynamics is the split's status.  When delta is itself a polynomial
    combination of the spanning fields, P(delta) = delta for every
    admissible connection and no explicit one is needed; otherwise a
    connection is taken from the caller or searched for, and its absence
    within the cap is reported as inconclusive.
    """
    report = normalizer_check(delta, dist, ansatz_cap)
    if report.status == "non-member":
        return SplitResult(
            "non-member", report, note="dynamics is not in the normalizer of the distribution"
        )
    if report.status == "inconclusive":
        return SplitResult(
            "inconclusive",
            report,
            note="normalizer membership not certified within the ansatz cap",
        )
    if connection is None:
        [membership] = express_in_fields([delta], dist.fields, ansatz_cap)
        if membership is not None:
            zero = PolyDerivation(delta.gens, {})
            return SplitResult(
                "ok",
                report,
                delta_d=delta,
                delta_prime=zero,
                commuting=True,
                case="constants-of-motion",
                note="dynamics lies in the distribution; P(delta) = delta "
                "for every admissible connection",
            )
        connection = find_connection(dist, ansatz_cap)
        if connection is None:
            return SplitResult(
                "inconclusive", report, note="no polynomial connection within the degree cap"
            )
    elif connection.dist.gens != delta.gens:
        raise GeneratorMismatch("connection over a different generator set")
    delta_d = connection_apply(connection, delta)
    delta_prime = delta - delta_d
    commuting = commutator_der(delta_d, delta_prime).is_zero()
    if delta_prime.is_zero():
        case = "constants-of-motion"
    elif commuting:
        case = "independent-motions"
    else:
        case = "coupled"
    return SplitResult(
        "ok",
        report,
        delta_d=delta_d,
        delta_prime=delta_prime,
        commuting=commuting,
        case=case,
    )


def invariance_of_subalgebra(
    delta: PolyDerivation,
    basis: Sequence[Poly],
    dist: Distribution,
) -> Verdict:
    """Is delta(f) still annihilated by every Y_j, for each basis f?  The
    first f whose image is not is the witness."""
    for f in basis:
        g = apply(delta, f)
        for y in dist.fields:
            if not apply(y, g).is_zero():
                return Verdict(False, f)
    return Verdict(True)
