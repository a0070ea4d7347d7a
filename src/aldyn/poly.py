"""Sparse multivariate polynomials over Q(i)[theta], and the ansatz.

Terms are stored as a dict from exponent tuples to ``Scalar`` coefficients,
one slot per generator.  Exponents are non-negative except for angle-phase
generators (u = e^{i theta} style), which carry Laurent exponents so that
C[u, u^-1] is representable.  Values are immutable after construction and
all operations are pure.  A linear form sum_b c_b x_b, such as an image of
a linear dynamics or a Lie-Poisson component, is ``Poly.linear``.

Every bounded-degree search is ``solve_combination`` (sum_k h_k v_k = T) or
``solve_preimage`` (Y_k(f) = T_k), which own the monomials, the columns, the
one exact elimination and the read-back into ``Poly``s.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from operator import add
from typing import Mapping, Sequence

from . import linalg
from .scalars import GaussRational, RationalLike, Scalar, json_int

GENERATOR_KINDS = ("plain", "position", "momentum", "angle-phase")

# Size budget for what input may ask to build: the most unknowns of one
# ansatz component, C(n + cap, n) monomials of n generators up to total
# degree cap; the most row components, dim^2, of a Poisson tensor read
# without generators or built on `pairs` canonical pairs (dim = 2 pairs);
# and the most generator entries, n^4, of the Gell-Mann basis of Mat_n.
# Input sizes are compared with it (``check_budget``) before anything is
# built.  (`reduce` on R^2 at cap 300, C(302, 2) = 45,451 unknowns, peaked
# at 174 MB RSS and 5.4 s under CPython 3.11 on x86-64.)
MAX_UNKNOWNS = 50_000

# Degree cap of the ansatz searches when the caller gives none.
DEFAULT_ANSATZ_CAP = 4


class GeneratorMismatch(ValueError):
    """Operands live over different generator sets."""


class GeneratorSet:
    """An ordered set of named generators with per-generator kinds."""

    __slots__ = ("names", "kinds", "_index")

    def __init__(self, names: Sequence[str], kinds: Sequence[str] | None = None):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError(f"generator names must be distinct: {list(names)}")
        if kinds is None:
            kinds = ("plain",) * len(names)
        kinds = tuple(kinds)
        if len(kinds) != len(names):
            raise ValueError("one kind per generator required")
        for k in kinds:
            if k not in GENERATOR_KINDS:
                raise ValueError(f"unknown generator kind {k!r}")
        self.names = names
        self.kinds = kinds
        self._index = {n: i for i, n in enumerate(names)}

    @staticmethod
    def plain(names: Sequence[str]) -> "GeneratorSet":
        return GeneratorSet(names)

    @staticmethod
    def phase_space(n_pairs: int) -> "GeneratorSet":
        """Canonical (q1..qN, p1..pN) set; for N = 1 the names are q, p."""
        if n_pairs < 1:
            raise ValueError("phase space needs at least one pair")
        if n_pairs == 1:
            return GeneratorSet(("q", "p"), ("position", "momentum"))
        names = tuple(f"q{a+1}" for a in range(n_pairs)) + tuple(
            f"p{a+1}" for a in range(n_pairs)
        )
        kinds = ("position",) * n_pairs + ("momentum",) * n_pairs
        return GeneratorSet(names, kinds)

    @staticmethod
    def action_angle(n_pairs: int) -> "GeneratorSet":
        """Angle-phase generators u1..uN with action variables I1..IN."""
        if n_pairs < 1:
            raise ValueError("action-angle set needs at least one pair")
        if n_pairs == 1:
            return GeneratorSet(("u", "I"), ("angle-phase", "plain"))
        names = tuple(f"u{a+1}" for a in range(n_pairs)) + tuple(
            f"I{a+1}" for a in range(n_pairs)
        )
        kinds = ("angle-phase",) * n_pairs + ("plain",) * n_pairs
        return GeneratorSet(names, kinds)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown generator {name!r}") from None

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, GeneratorSet):
            return NotImplemented
        return self.names == other.names and self.kinds == other.kinds

    def __hash__(self) -> int:
        return hash((self.names, self.kinds))

    def __repr__(self) -> str:
        return f"GeneratorSet({list(self.names)})"

    def to_json(self) -> list:
        return [{"name": n, "kind": k} for n, k in zip(self.names, self.kinds)]

    @staticmethod
    def from_json(data) -> "GeneratorSet":
        names, kinds = [], []
        for entry in data:
            if isinstance(entry, str):
                names.append(entry)
                kinds.append("plain")
            else:
                names.append(entry["name"])
                kinds.append(entry.get("kind", "plain"))
        return GeneratorSet(names, kinds)


def _check_same_gens(a: "Poly", b: "Poly"):
    if a.gens != b.gens:
        raise GeneratorMismatch(
            f"generator sets differ: {a.gens.names} vs {b.gens.names}"
        )


def _grlex_key(exps: tuple) -> tuple:
    return (sum(exps), exps)


def check_budget(where: str, size: int, what: str) -> None:
    """Raise a ValueError naming ``where`` (an option or a JSON field) when
    the ``size`` items that input asks to build, described by ``what``, are
    more than MAX_UNKNOWNS."""
    if size > MAX_UNKNOWNS:
        raise ValueError(f"{where}: {what} exceed the budget of {MAX_UNKNOWNS}")


def check_monomial_budget(where: str, n: int, cap: int) -> None:
    """``check_budget`` for ``monomials(n, cap)``, the unknowns of one
    ansatz component; a negative cap is refused under the same name."""
    if cap < 0:
        raise ValueError(f"{where}: degree cap must be >= 0")
    if cap > 0:
        check_budget(where, comb(n + cap, n), f"C({n} + cap, {n}) unknowns per component")


def monomials(n: int, cap: int) -> list[tuple]:
    """All exponent tuples of n generators with total degree <= cap, in
    graded-lex order (the order of ``Poly.sorted_terms``)."""
    if cap < 0:
        raise ValueError("degree cap must be >= 0")
    out: list[tuple] = [()]
    for _ in range(n):
        out = [e + (k,) for e in out for k in range(cap - sum(e) + 1)]
    return sorted(out, key=_grlex_key)


def coefficient_column(components: Sequence[Poly]) -> dict[tuple, GaussRational]:
    """{(component, exps): coefficient} over theta-free polynomials: the
    column of one unknown, or the target, of a linear system on polynomial
    coefficients (see ``linalg.solve_columns``)."""
    return {
        (a, exps): c.constant()
        for a, p in enumerate(components)
        for exps, c in p.terms.items()
    }


def derivation_columns(
    fields: Sequence[Sequence[Poly]], monos: Sequence[tuple]
) -> list[dict[tuple, GaussRational]]:
    """For each monomial m, the column {(k, exps): coefficient} of
    fields[k](x^m) = sum_b m_b Y_k^b x^(m - e_b), where fields[k][b] = Y_k^b
    is theta-free.  For an angle-phase generator b the factor is i*m_b and
    the exponent stays, as in ``Poly.partial``."""
    images = [
        (k, b, y.gens.kinds[b] == "angle-phase", list(coefficient_column([y]).items()))
        for k, field in enumerate(fields) for b, y in enumerate(field) if y.terms
    ]
    columns = []
    for m in monos:
        col: dict[tuple, GaussRational] = {}
        for k, b, angle, terms in images:
            if m[b]:
                f = GaussRational(0, m[b]) if angle else GaussRational(m[b])
                base = m if angle else m[:b] + (m[b] - 1,) + m[b + 1 :]
                for (_, e), c in terms:
                    key = (k, tuple(map(add, base, e)))
                    col[key] = col[key] + f * c if key in col else f * c
        columns.append({key: v for key, v in col.items() if not v.is_zero()})
    return columns


def shifted_columns(polys: Sequence[Poly], monos: Sequence[tuple]) -> list[dict]:
    """For each monomial m, the column of x^m * polys[k]: the exponents of
    ``coefficient_column(polys)`` shifted by m."""
    col = coefficient_column(polys).items()
    return [{(k, tuple(map(add, m, e))): c for (k, e), c in col} for m in monos]


Vector = Sequence["Poly"]  # theta-free Polys, one per component


def _solve_ansatz(gens, monos, columns, targets, count):
    """The one ansatz layout: unknown (k, j), the coefficient of x^monos[j]
    in the k-th polynomial, is column k * len(monos) + j; an equation is one
    (component, exps) coefficient.  Every target is answered in one
    elimination and read back as ``count`` Polys, or None; with targets
    None, each kernel vector is read back."""
    nm = len(monos)
    tcols = None if targets is None else [coefficient_column(t) for t in targets]
    return [
        None if sol is None
        else [Poly.from_coefficients(gens, monos, sol[k * nm : (k + 1) * nm]) for k in range(count)]
        for sol in linalg.solve_columns(columns, tcols)
    ]


def solve_combination(
    gens: GeneratorSet, vectors: Sequence[Vector], targets: Sequence[Vector], cap: int
) -> list[list[Poly] | None]:
    """For each target T, the h_k of degree <= cap with sum_k h_k vectors[k]
    = T, or None when there are none."""
    monos = monomials(len(gens), cap)
    columns = [col for v in vectors for col in shifted_columns(v, monos)]
    return _solve_ansatz(gens, monos, columns, targets, len(vectors))


def solve_preimage(
    gens: GeneratorSet, fields: Sequence[Vector], targets: Sequence[Vector] | None, cap: int
) -> list[Poly | None]:
    """For each target T, an f of degree <= cap with Y_k(f) = T[k] for the
    fields Y_k = fields[k][b] d_b, or None when there is none; with targets
    None, a basis of {f : every Y_k(f) = 0}, one vector per free monomial."""
    monos = monomials(len(gens), cap)
    sols = _solve_ansatz(gens, monos, derivation_columns(fields, monos), targets, 1)
    return [None if sol is None else sol[0] for sol in sols]


def _poly(gens: GeneratorSet, terms: dict[tuple, Scalar]) -> "Poly":
    """A Poly that owns ``terms`` as given: int exponent tuples valid for
    ``gens`` and no zero coefficient (the ring operations' results)."""
    p = object.__new__(Poly)
    p.gens = gens
    p.terms = terms
    return p


class Poly:
    """Sparse polynomial with Scalar coefficients over a GeneratorSet.

    The public constructor validates and cleans its terms; the ring
    operations build their results with the trusted ``_poly``, since sums,
    products and derivatives of valid terms are valid.
    """

    __slots__ = ("gens", "terms")

    def __init__(self, gens: GeneratorSet, terms: Mapping[tuple, Scalar] | None = None):
        self.gens = gens
        cleaned: dict[tuple, Scalar] = {}
        n = len(gens)
        if terms:
            for exps, coeff in terms.items():
                exps = tuple(int(e) for e in exps)
                if len(exps) != n:
                    raise ValueError("exponent vector length mismatch")
                for e, kind in zip(exps, gens.kinds):
                    if e < 0 and kind != "angle-phase":
                        raise ValueError(
                            "negative exponents allowed only for angle-phase generators"
                        )
                if not coeff.is_zero():
                    cleaned[exps] = coeff
        self.terms = cleaned

    # -- constructors ------------------------------------------------

    @staticmethod
    def zero(gens: GeneratorSet) -> "Poly":
        return Poly(gens)

    @staticmethod
    def constant(gens: GeneratorSet, c: Scalar | GaussRational | RationalLike) -> "Poly":
        return Poly(gens, {(0,) * len(gens): Scalar.coerce(c)})

    @staticmethod
    def one(gens: GeneratorSet) -> "Poly":
        return Poly.constant(gens, Scalar.one())

    @staticmethod
    def generator(gens: GeneratorSet, name: str, power: int = 1) -> "Poly":
        i = gens.index(name)
        if power < 0 and gens.kinds[i] != "angle-phase":
            raise ValueError("negative powers need an angle-phase generator")
        exps = tuple(power if j == i else 0 for j in range(len(gens)))
        return Poly(gens, {exps: Scalar.one()})

    @staticmethod
    def linear(gens: GeneratorSet, coeffs: Sequence) -> "Poly":
        """The linear form sum_b coeffs[b] x_b, one coefficient per
        generator, each read by ``Scalar.coerce``."""
        n = len(gens)
        if len(coeffs) != n:
            raise ValueError(
                f"a linear form on {n} generators takes {n} coefficients, got {len(coeffs)}"
            )
        terms = {}
        for b, c in enumerate(coeffs):
            c = Scalar.coerce(c)
            if not c.is_zero():
                terms[(0,) * b + (1,) + (0,) * (n - b - 1)] = c
        return _poly(gens, terms)

    @staticmethod
    def from_coefficients(
        gens: GeneratorSet, monos: Sequence[tuple], coeffs: Sequence[GaussRational]
    ) -> "Poly":
        """sum_j coeffs[j] x^monos[j]: a solution vector read back as a Poly."""
        terms = {m: Scalar.from_gauss(c) for m, c in zip(monos, coeffs) if not c.is_zero()}
        return Poly(gens, terms)

    # -- ring operations ---------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        _check_same_gens(self, other)
        out = dict(self.terms)
        for exps, c in other.terms.items():
            s = out.get(exps)
            if s is None:
                out[exps] = c
                continue
            s = s + c
            if s.terms:
                out[exps] = s
            else:
                del out[exps]
        return _poly(self.gens, out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return _poly(self.gens, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        _check_same_gens(self, other)
        out: dict[tuple, Scalar] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                s = out.get(e)
                out[e] = c1 * c2 if s is None else s + c1 * c2
        return _poly(self.gens, {e: c for e, c in out.items() if c.terms})

    def __pow__(self, k: int) -> "Poly":
        """f^k; for k < 0, f must be a unit of the Laurent ring: one term
        with a theta-free coefficient and exponents only on angle-phase
        generators, so (c x^e)^k = c^k x^(k e)."""
        if k < 0:
            if len(self.terms) != 1:
                raise ValueError("negative powers need a Laurent unit, a single term")
            ((exps, c),) = self.terms.items()
            if not c.is_theta_free() or any(
                e and kind != "angle-phase" for e, kind in zip(exps, self.gens.kinds)
            ):
                raise ValueError(
                    "negative powers need a Laurent unit: a theta-free coefficient "
                    "and exponents only on angle-phase generators"
                )
            inv = Scalar.from_gauss(c.constant() ** k)
            return _poly(self.gens, {tuple(e * k for e in exps): inv})
        out = Poly.one(self.gens)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def scale(self, c: Scalar | GaussRational | RationalLike) -> "Poly":
        c = Scalar.coerce(c)
        if c.is_zero():
            return _poly(self.gens, {})
        # Q(i)[theta] has no zero divisors, so no product vanishes.
        return _poly(self.gens, {e: v * c for e, v in self.terms.items()})

    # -- calculus -----------------------------------------------------

    def partial(self, name: str) -> "Poly":
        """Formal partial derivative.

        For an angle-phase generator u the derivative is taken with respect
        to the underlying angle, u = e^{i theta}: d/dtheta (u^k) = i*k*u^k.
        """
        i = self.gens.index(name)
        angle = self.gens.kinds[i] == "angle-phase"
        # Distinct terms with k != 0 map to distinct terms, and a nonzero
        # coefficient times the nonzero k (or i*k) stays nonzero, so
        # nothing is merged or dropped.
        out: dict[tuple, Scalar] = {}
        for exps, c in self.terms.items():
            k = exps[i]
            if k == 0:
                continue
            if angle:
                out[exps] = c.scale(GaussRational(0, k))
            else:
                out[exps[:i] + (k - 1,) + exps[i + 1 :]] = c.scale(GaussRational(k))
        return _poly(self.gens, out)

    def divide_theta(self, power: int = 1) -> "Poly":
        """Exact division of every coefficient by theta**power."""
        return Poly(
            self.gens, {e: c.divide_theta(power) for e, c in self.terms.items()}
        )

    def substitute_theta(self, value: Fraction) -> "Poly":
        """Exact substitution of a rational value for theta."""
        return Poly(
            self.gens, {e: c.substitute_theta(value) for e, c in self.terms.items()}
        )

    # -- substitution and evaluation ----------------------------------

    def substitute(self, images: Mapping[str, "Poly"]) -> "Poly":
        """Compose: replace each generator by the given polynomial.

        Every generator must be mapped; all images must share one generator
        set, which becomes the result's.  A negative exponent needs an image
        that is a Laurent unit (see ``__pow__``).
        """
        if not images:
            raise ValueError("empty substitution")
        target = next(iter(images.values())).gens
        for name in self.gens.names:
            if name not in images:
                raise ValueError(f"substitution misses generator {name!r}")
            if images[name].gens != target:
                raise GeneratorMismatch("substitution images over mixed generator sets")
        out = Poly.zero(target)
        for exps, c in self.terms.items():
            term = Poly.constant(target, c)
            for name, e in zip(self.gens.names, exps):
                if e:
                    term = term * images[name] ** e
            out = out + term
        return out

    def evaluate_exact(self, point: Mapping[str, GaussRational]) -> GaussRational:
        """Exact evaluation at a Q(i) point; theta must not appear."""
        total = GaussRational.of(0)
        for exps, c in self.terms.items():
            v = c.constant()
            for name, e in zip(self.gens.names, exps):
                if e:
                    v = v * (point[name] ** e)
            total = total + v
        return total

    # -- queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, powers: Mapping[str, int]) -> Scalar:
        exps = [0] * len(self.gens)
        for name, e in powers.items():
            exps[self.gens.index(name)] = e
        return self.terms.get(tuple(exps), Scalar.zero())

    def total_degree(self) -> int:
        """Max term degree (sum of exponents); 0 for the zero polynomial."""
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def is_theta_free(self) -> bool:
        return all(c.is_theta_free() for c in self.terms.values())

    def sorted_terms(self) -> list[tuple[tuple, Scalar]]:
        """Terms in graded-lexicographic order (canonical)."""
        return sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0]))

    def theta_graded_part(self, k: int) -> "Poly":
        """The polynomial of theta**k coefficients (theta stripped)."""
        out = {}
        for exps, c in self.terms.items():
            g = c.theta_coefficient(k)
            if not g.is_zero():
                out[exps] = Scalar.from_gauss(g)
        return Poly(self.gens, out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.gens == other.gens and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(
            (self.gens, tuple((e, c) for e, c in self.sorted_terms()))
        )

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps, c in self.sorted_terms():
            factors = []
            for name, e in zip(self.gens.names, exps):
                if e == 0:
                    continue
                factors.append(name if e == 1 else f"{name}^{e}")
            coeff = str(c)
            if factors and coeff == "1":
                parts.append("*".join(factors))
            elif factors:
                if "+" in coeff or coeff.count("*") > 1:
                    coeff = f"({coeff})"
                parts.append(f"{coeff}*" + "*".join(factors))
            else:
                parts.append(coeff)
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self})"

    # -- json --------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "generators": self.gens.to_json(),
            "terms": [
                {"exps": list(exps), "coeff": c.to_json()}
                for exps, c in self.sorted_terms()
            ],
        }

    @staticmethod
    def from_json(data: Mapping) -> "Poly":
        gens = GeneratorSet.from_json(data["generators"])
        terms: dict[tuple, Scalar] = {}
        for entry in data["terms"]:
            exps = tuple(json_int(e, "exps") for e in entry["exps"])
            c = Scalar.from_json(entry["coeff"])
            prev = terms.get(exps)
            terms[exps] = c if prev is None else prev + c
        return Poly(gens, terms)
