"""Derivation-based differential calculus on B(C^N).

A k-form is the sparse sum  sum_I A_I alpha^I  over strictly increasing
index tuples I, with matrix coefficients A_I and alpha^I the wedge of the
dual 1-forms alpha^i (alpha^i(X_j) = delta^i_j 1); `KForm.coeffs` maps I to
A_I.  Every sign comes from one rule, `_sort_sign`: the sign of the
permutation that sorts an index tuple, or None when an index repeats.

  wedge      (A alpha^I) ^ (B alpha^J) = AB alpha^{I+J}
  d          d(A alpha^I) = sum_j X_j(A) alpha^j ^ alpha^I + A d(alpha^I),
             d(alpha^m) = -sum_{a<b} c^m_ab alpha^a ^ alpha^b, expanded by
             the graded Leibniz rule over the factors of alpha^I
  contract   i_X alpha^I = sum_p (-1)^p X^{i_p} alpha^{I without i_p}
  evaluate   w(X_1, ..., X_k) = i_{X_k} ... i_{X_1} w

This d is the Chevalley-Eilenberg differential of the derivation-based
calculus (Dubois-Violette, Kerner & Madore), with d(d w) = 0, and the
contraction/Lie-derivative pair gives a Cartan calculus.

The basis derivations act as A -> [A, X_j]; their Lie bracket is the
operator commutator, whose structure constants therefore come from
expanding [X_l, X_k] (note the order) in the matrix basis, as the
coordinates of ``quantum.MatrixSubspace``.

d runs in Gaussian integers over one common denominator.  Each basis keeps
the nonzero entries of every generator (at most N for a Gell-Mann matrix)
and the terms of every d(alpha^m), all scaled by the lcm of their
denominators to (re, im) int pairs.  `exterior_d` brings the numerators of
every coefficient of its form (each a `Mat` over one denominator) over the
lcm of those denominators, accumulates each output coefficient in two int
lists of length N^2, and builds each output `Mat` from them over the
product of the two denominators (form lcm x basis lcm), with one gcd.
`wedge` and `contract` are `Mat` products, sums and scalings, which run on
ints too.
"""

from __future__ import annotations

from math import lcm
from typing import Mapping, Sequence

from .linalg import solve_columns
from .matrices import Mat, _reduced
from .poly import check_budget
from .quantum import MatrixSubspace, commutator, commutator_columns
from .scalars import GR_I, GR_ONE, GaussRational, json_field, json_int, json_list, named


def check_gell_mann_size(where: str, n: int) -> None:
    """Raise a ValueError naming ``where`` (an option or a JSON field)
    unless Mat_n has a Gell-Mann derivation basis, n >= 2, whose n^4
    generator entries fit the budget of ``check_budget``."""
    if n < 2:
        raise ValueError(f"{where}: matrix size must be >= 2 for a derivation basis, got {n}")
    check_budget(where, n**4, "n^4 generator entries")


def gell_mann_basis(n: int) -> list[Mat]:
    """Traceless basis of Mat_n: symmetric, antisymmetric and diagonal parts.

    The usual construction with the diagonal matrices left unnormalized
    (diag(1,...,1,-l)) so every entry stays in Q(i).
    """
    out: list[Mat] = []
    for i in range(n):
        for j in range(i + 1, n):
            out.append(Mat.basis_elt(n, i, j) + Mat.basis_elt(n, j, i))
            out.append(
                (Mat.basis_elt(n, i, j) - Mat.basis_elt(n, j, i)).scale(-GR_I)
            )
    for l in range(1, n):
        entries = [1] * l + [-l] + [0] * (n - l - 1)
        out.append(Mat.diag(entries))
    return out


class DerivationBasis:
    """Basis X_j of inner derivations of B(C^N), with structure constants.

    The count is N^2 - 1: ad is degenerate on the center, so the traceless
    matrices parametrize the derivations faithfully and the dual frame
    condition stays non-degenerate.  The generators are checked as a
    ``MatrixSubspace`` (one size, independent), and the structure constants
    are its ``coordinates``.
    """

    __slots__ = ("n", "generators", "structure", "_den", "_gen_terms", "_d_alpha")

    def __init__(self, generators: Sequence[Mat]):
        space = MatrixSubspace(generators)
        n, generators = space.n, space.basis
        if len(generators) != n * n - 1:
            raise ValueError("derivation basis of B(C^N) has N^2 - 1 elements")
        if any(not g.trace().is_zero() for g in generators):
            raise ValueError("basis generators must be traceless")
        self.n = n
        self.generators = generators
        self.structure = self._structure_constants(space)
        # d(alpha^m) as its terms (a, b, -c^m_ab), a < b, of alpha^a ^ alpha^b
        d_alpha: list[list[tuple[int, int, GaussRational]]] = [[] for _ in generators]
        for (a, b), entry in self.structure.items():
            if a < b:
                for m, c in entry:
                    d_alpha[m].append((a, b, -c))
        # Both as (., ., re, im) Gaussian integers over one denominator: the
        # generators as (l, k, re, im) for each nonzero entry X_j[l][k].
        den = lcm(*(g.den for g in generators), *(c.den for t in d_alpha for *_, c in t))
        self._den = den
        self._gen_terms = [
            [
                (*divmod(p, n), x * (den // g.den), y * (den // g.den))
                for p, (x, y) in g.flatten()[0].items()
            ]
            for g in generators
        ]
        self._d_alpha = [
            [(a, b, c.re_num * (den // c.den), c.im_num * (den // c.den)) for a, b, c in t]
            for t in d_alpha
        ]

    @staticmethod
    def gell_mann(n: int) -> "DerivationBasis":
        return DerivationBasis(gell_mann_basis(n))

    @property
    def dim(self) -> int:
        return len(self.generators)

    def _structure_constants(self, space: MatrixSubspace) -> dict:
        """c^j_{kl} with [X_k, X_l] = c^j_{kl} X_j as operators.

        Since X(A) = [A, X_matrix], the operator bracket corresponds to the
        reversed matrix commutator: [X_k, X_l] = ad-style derivation of
        [M_l, M_k].  Only k < l is solved for, all pairs in one solve;
        (l, k) is the exact negative, as [M_k, M_l] = -[M_l, M_k].
        """
        gens = self.generators
        pairs = [(k, l) for k in range(self.dim) for l in range(k + 1, self.dim)]
        # a commutator is traceless: its coordinates need no projection
        brackets = [commutator(gens[l], gens[k]) for k, l in pairs]
        structure: dict[tuple[int, int], list[tuple[int, GaussRational]]] = {}
        for (k, l), coords in zip(pairs, space.coordinates(brackets)):
            if coords:
                entry = list(coords.items())
                structure[(k, l)] = entry
                structure[(l, k)] = [(j, -c) for j, c in entry]
        return structure


def _sort_sign(idx: tuple) -> tuple[tuple, int] | None:
    """The sorted tuple and the sign of its sorting permutation, or None when
    an index repeats: alpha^idx = sign * alpha^sorted, and alpha^i ^ alpha^i = 0."""
    sign = 1
    for p, a in enumerate(idx):
        for b in idx[p + 1 :]:
            if a == b:
                return None
            if a > b:
                sign = -sign
    return tuple(sorted(idx)), sign


def _add(out: dict, idx: tuple, sign: int, value: Mat) -> None:
    """out[idx] += sign * value; the KForm constructor drops zero sums."""
    term = value if sign > 0 else -value
    s = out.get(idx)
    out[idx] = term if s is None else s + term


class KForm:
    """Alternating algebra-valued form over a DerivationBasis."""

    __slots__ = ("basis", "degree", "coeffs")

    def __init__(
        self,
        basis: DerivationBasis,
        degree: int,
        coeffs: Mapping[tuple, Mat] | None = None,
    ):
        if degree < 0:
            raise ValueError("degree must be >= 0")
        self.basis = basis
        self.degree = degree
        cleaned: dict[tuple, Mat] = {}
        if coeffs:
            for idx, value in coeffs.items():
                idx = tuple(idx)
                if len(idx) != degree:
                    raise ValueError("index tuple length must equal the degree")
                if list(idx) != sorted(idx) or len(set(idx)) != len(idx):
                    raise ValueError("only strictly increasing index tuples are stored")
                if any(not isinstance(i, int) or not 0 <= i < basis.dim for i in idx):
                    raise ValueError("indices must be integers in range")
                if value.n != basis.n:
                    raise ValueError("value size mismatch")
                if not value.is_zero():
                    cleaned[idx] = value
        self.coeffs = cleaned

    # -- constructors ------------------------------------------------

    @staticmethod
    def from_matrix(basis: DerivationBasis, a: Mat) -> "KForm":
        """Degree-0 form: just an algebra element."""
        return KForm(basis, 0, {(): a})

    @staticmethod
    def dual_form(basis: DerivationBasis, j: int) -> "KForm":
        """alpha^j: X_k -> delta^j_k * identity."""
        return KForm(basis, 1, {(j,): Mat.identity(basis.n)})

    def as_matrix(self) -> Mat:
        if self.degree != 0:
            raise ValueError("only degree-0 forms are algebra elements")
        return self.coeffs.get((), Mat.zero(self.basis.n))

    # -- linear structure ----------------------------------------------

    def __add__(self, other: "KForm") -> "KForm":
        self._compat(other)
        out = dict(self.coeffs)
        for idx, v in other.coeffs.items():
            _add(out, idx, 1, v)
        return KForm(self.basis, self.degree, out)

    def __sub__(self, other: "KForm") -> "KForm":
        return self + other.scale(-GR_ONE)

    def scale(self, c: GaussRational) -> "KForm":
        return KForm(
            self.basis, self.degree, {i: v.scale(c) for i, v in self.coeffs.items()}
        )

    def is_zero(self) -> bool:
        return not self.coeffs

    def _compat(self, other: "KForm"):
        if self.basis is not other.basis and self.basis.generators != other.basis.generators:
            raise ValueError("forms over different derivation bases")
        if self.degree != other.degree:
            raise ValueError("degree mismatch")

    def __eq__(self, other) -> bool:
        if not isinstance(other, KForm):
            return NotImplemented
        return (
            self.degree == other.degree
            and self.basis.generators == other.basis.generators
            and self.coeffs == other.coeffs
        )

    # -- evaluation ----------------------------------------------------

    def value(self, idx: Sequence[int]) -> Mat:
        """Evaluation on basis fields X_{idx}, handling order and repeats."""
        idx = tuple(idx)
        if len(idx) != self.degree:
            raise ValueError("wrong number of fields")
        sorted_sign = _sort_sign(idx)
        v = self.coeffs.get(sorted_sign[0]) if sorted_sign else None
        if v is None:
            return Mat.zero(self.basis.n)
        return v if sorted_sign[1] > 0 else -v

    def evaluate(self, fields: Sequence[Sequence[GaussRational]]) -> Mat:
        """Multilinear alternating evaluation on fields given in basis
        coordinates: contract the fields in order, w(X, ...) = (i_X w)(...)."""
        if len(fields) != self.degree:
            raise ValueError("wrong number of fields")
        w = self
        for x in fields:
            w = contract(x, w)
        return w.as_matrix()

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "basis": "gell-mann",
            "n": self.basis.n,
            "coeffs": [
                {"idx": list(idx), "value": self.coeffs[idx].to_json()}
                for idx in sorted(self.coeffs)
            ],
        }

    @staticmethod
    def from_json(data, basis: DerivationBasis | None = None, path: str = "form") -> "KForm":
        """{"degree", "n", "coeffs": [{"idx", "value"}]}, over `basis`, which
        must be over Mat_n, or, if None, the Gell-Mann basis of Mat_n.
        Malformed input is a ValueError naming the JSON path at fault, below
        `path`, the path of data."""
        n = json_int(json_field(data, "n", path), f"{path}/n")
        if basis is None:
            check_gell_mann_size(f"{path}/n", n)
            basis = DerivationBasis.gell_mann(n)
        elif n != basis.n:
            raise ValueError(f"{path}: forms over different algebras")
        coeffs = {}
        for k, entry in enumerate(json_list(json_field(data, "coeffs", path), f"{path}/coeffs")):
            at = f"{path}/coeffs/{k}"
            idx = json_list(json_field(entry, "idx", at), f"{at}/idx")
            idx = tuple(json_int(i, f"{at}/idx/{p}") for p, i in enumerate(idx))
            coeffs[idx] = Mat.from_json(json_field(entry, "value", at), f"{at}/value")
        degree = json_int(json_field(data, "degree", path), f"{path}/degree")
        return named(path, KForm, basis, degree, coeffs)


def wedge(w1: KForm, w2: KForm) -> KForm:
    """(A alpha^I) ^ (B alpha^J) = AB alpha^{I+J}, summed over stored terms.

    Values multiply in the algebra, so the result is not graded-commutative
    in general; a degree-0 operand acts as left or right multiplication.
    """
    if w1.basis.generators != w2.basis.generators:
        raise ValueError("forms over different derivation bases")
    out: dict[tuple, Mat] = {}
    for i, a in w1.coeffs.items():
        for j, b in w2.coeffs.items():
            sorted_sign = _sort_sign(i + j)
            if sorted_sign:
                _add(out, *sorted_sign, a @ b)
    return KForm(w1.basis, w1.degree + w2.degree, out)


def exterior_d(w: KForm) -> KForm:
    """d(A alpha^I) = sum_j X_j(A) alpha^j ^ alpha^I + A d(alpha^I).

    d(alpha^I) replaces the factor alpha^m at position p by
    (-1)^p d(alpha^m) = (-1)^p sum (-c^m_ab) alpha^a ^ alpha^b (a < b),
    the structure constants c of [X_a, X_b] = c^m_ab X_m.  Equal to the
    two-sum formula on fields (field actions plus bracket insertions);
    satisfies d(d w) = 0.

    Computed on ints: the numerators of every A_I over the lcm of their
    denominators, the basis terms over the basis denominator, and each
    output coefficient built over the product of the two.
    """
    basis = w.basis
    n = basis.n
    den = lcm(*(v.den for v in w.coeffs.values()))
    # sorted key -> (re, im) numerators of its coefficient, row-major
    acc: dict[tuple, tuple[list[int], list[int]]] = {}

    def target(key: tuple) -> tuple[list[int], list[int]]:
        s = acc.get(key)
        if s is None:
            s = acc[key] = ([0] * (n * n), [0] * (n * n))
        return s

    for idx, v in w.coeffs.items():
        # A's nonzero entries over den: all of them at their flat position,
        # by column (with the row offset i n) and by row (with the column m)
        flat, cols, rows = [], [[] for _ in range(n)], [[] for _ in range(n)]
        f = den // v.den
        for q, (re, im) in enumerate(zip(v.re, v.im)):
            if re or im:
                re, im = re * f, im * f
                i, m = divmod(q, n)
                flat.append((q, re, im))
                cols[m].append((q - m, re, im))
                rows[i].append((m, re, im))
        # X_j(A) = [A, X_j]: each entry g = X_j[l][k] adds A[i][l] g to
        # entry (i, k) and subtracts g A[k][m] from entry (l, m)
        for j, terms in enumerate(basis._gen_terms):
            sorted_sign = _sort_sign((j,) + idx)
            if not sorted_sign:
                continue
            key, sign = sorted_sign
            out_re, out_im = target(key)
            for l, k, gr, gi in terms:
                if sign < 0:
                    gr, gi = -gr, -gi
                for i_n, ar, ai in cols[l]:
                    out_re[i_n + k] += ar * gr - ai * gi
                    out_im[i_n + k] += ar * gi + ai * gr
                l_n = l * n
                for m, ar, ai in rows[k]:
                    out_re[l_n + m] -= gr * ar - gi * ai
                    out_im[l_n + m] -= gr * ai + gi * ar
        # A d(alpha^I)
        for p, m in enumerate(idx):
            for a, b, cr, ci in basis._d_alpha[m]:
                sorted_sign = _sort_sign(idx[:p] + (a, b) + idx[p + 1 :])
                if not sorted_sign:
                    continue
                key, sign = sorted_sign
                if (sign if p % 2 == 0 else -sign) < 0:
                    cr, ci = -cr, -ci
                out_re, out_im = target(key)
                for q, ar, ai in flat:
                    out_re[q] += ar * cr - ai * ci
                    out_im[q] += ar * ci + ai * cr
    total = den * basis._den
    out = {
        key: _reduced(n, tuple(re), tuple(im), total)
        for key, (re, im) in acc.items()
        if any(re) or any(im)
    }
    return KForm(basis, w.degree + 1, out)


def contract(x_coeffs: Sequence[GaussRational], w: KForm) -> KForm:
    """Interior product i_X along a derivation given in basis coordinates."""
    if w.degree == 0:
        raise ValueError("cannot contract a degree-0 form")
    out: dict[tuple, Mat] = {}
    for idx, v in w.coeffs.items():
        for pos, i in enumerate(idx):
            c = x_coeffs[i]
            if not c.is_zero():
                _add(out, idx[:pos] + idx[pos + 1 :], -1 if pos % 2 else 1, v.scale(c))
    return KForm(w.basis, w.degree - 1, out)


def lie_derivative(x_coeffs: Sequence[GaussRational], w: KForm) -> KForm:
    """Cartan formula L_X = i_X d + d i_X (the second term absent in degree 0)."""
    out = contract(x_coeffs, exterior_d(w))
    if w.degree >= 1:
        out = out + exterior_d(contract(x_coeffs, w))
    return out


class ExactnessReport:
    __slots__ = ("solvable",)

    solvable: bool  # the linear system dA = alpha^j

    def __init__(self, solvable: bool):
        self.solvable = solvable


def exactness_obstruction(basis: DerivationBasis, j: int) -> ExactnessReport:
    """Certificate that the dual form alpha^j is not exact.

    dA takes traceless (commutator) values while alpha^j hits the identity,
    whose trace is N; independently, the exact linear system dA = alpha^j
    over the entries of A is shown to be inconsistent.
    """
    n = basis.n
    if not 0 <= j < basis.dim:
        raise ValueError("index out of range")
    # Unknown A (n^2 entries); equations [A, X_k] = delta^j_k * identity.
    target = ({(j, r, r): (1, 0) for r in range(n)}, 1)
    [sol] = solve_columns(commutator_columns(basis.generators), [target])
    return ExactnessReport(solvable=sol is not None)
