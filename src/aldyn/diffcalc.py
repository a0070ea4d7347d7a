"""Derivation-based differential calculus on B(C^N).

A k-form is the sparse sum  sum_I A_I alpha^I  over strictly increasing
index tuples I, with matrix coefficients A_I and alpha^I the wedge of the
dual 1-forms alpha^i (alpha^i(X_j) = delta^i_j 1); `KForm.coeffs` maps I to
A_I.  Every sign is that of the permutation that sorts an index tuple
(`_sort_sign`, None when an index repeats); for an index inserted into a
sorted tuple, the parity of its place.

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
expanding [X_l, X_k] (note the order) in the matrix basis, by one
``linalg.solve_columns`` against the generators' columns.

d, `wedge` and `contract` run in Gaussian integers.  Each call brings the
numerators of its forms' coefficients over the lcm of their denominators,
adds every term into two int lists of length N^2 per output index tuple
(`_accumulators`), and builds each output coefficient once, with one gcd
(`_reduced_form`): `wedge` over the product of its two lcms, `contract`
over the lcm of the field's coordinates times the form's, and d over the
form's lcm times the basis lcm.

Each basis builds the ad table of every generator once
(`matrices._ad_table`, the one encoding of A -> [A, X_j], two flat lists of
triples (q, q', t), so a real or imaginary Gell-Mann entry costs two int
products), reads the structure constants off them and scales them, with
the terms of every d(alpha^m), to the basis lcm.  For each index tuple I
that d meets, the basis keeps a plan (`DerivationBasis._plan`): the output
tuple of each alpha^j ^ alpha^I with the table of X_j, negated where
alpha^j lands at an odd place, and the output tuples of d(alpha^I) with
their constants summed and signed.  So a call searches for no place or
sign, and its table loops run inline.  d, `wedge`, `contract`, `+`, `-`
and `scale` build their results with the trusted `_kform`, which only
drops zeros.
"""

from __future__ import annotations

from bisect import bisect_left
from math import lcm
from typing import Mapping, Sequence

from .linalg import solve_columns
from .matrices import Mat, _ad_column, _ad_columns, _ad_table, _reduced
from .quantum import MatrixSubspace
from .scalars import GR_I, GR_ONE, GaussRational, check_budget, json_field, json_int, json_list
from .scalars import named


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
    are the brackets' coordinates in them.
    """

    __slots__ = ("n", "generators", "structure", "_den", "_ad", "_neg_ad", "_d_alpha", "_plans")

    def __init__(self, generators: Sequence[Mat]):
        space = MatrixSubspace(generators)
        n, generators = space.n, space.basis
        if len(generators) != n * n - 1:
            raise ValueError("derivation basis of B(C^N) has N^2 - 1 elements")
        if any(not g.trace().is_zero() for g in generators):
            raise ValueError("basis generators must be traceless")
        self.n = n
        self.generators = generators
        # the tables over the generators' lcm, then scaled to the basis lcm
        gden = lcm(*(g.den for g in generators))
        self._ad = [_ad_table(g, gden // g.den) for g in generators]
        self.structure = self._structure_constants(gden)
        # d(alpha^m) as its terms (a, b, -c^m_ab), a < b, of alpha^a ^ alpha^b
        d_alpha: list[list[tuple[int, int, GaussRational]]] = [[] for _ in generators]
        for (a, b), entry in self.structure.items():
            if a < b:
                for m, c in entry:
                    d_alpha[m].append((a, b, -c))
        # the tables and d(alpha^m), as (a, b, re, im), over one denominator
        den = lcm(gden, *(c.den for t in d_alpha for *_, c in t))
        if den != gden:
            f = den // gden
            self._ad = [
                tuple([(q, s, t * f) for q, s, t in terms] for terms in table)
                for table in self._ad
            ]
        self._den = den
        self._d_alpha = [
            [(a, b, c.re_num * (den // c.den), c.im_num * (den // c.den)) for a, b, c in t]
            for t in d_alpha
        ]
        self._neg_ad: list[tuple[list, list] | None] = [None] * len(generators)
        self._plans: dict[tuple, tuple[list, list]] = {}

    @staticmethod
    def gell_mann(n: int) -> "DerivationBasis":
        return DerivationBasis(gell_mann_basis(n))

    @property
    def dim(self) -> int:
        return len(self.generators)

    def _structure_constants(self, gden: int) -> dict:
        """c^j_{kl} with [X_k, X_l] = c^j_{kl} X_j as operators.

        Since X(A) = [A, X_matrix], the operator bracket corresponds to the
        reversed matrix commutator [M_l, M_k], read off the table of M_k
        (over ``gden``) as a column over ``gens[l].den * gden``.  Only k < l
        is solved for, all pairs in one solve against the generators'
        columns; (l, k) is the exact negative, as [M_k, M_l] = -[M_l, M_k].
        """
        gens = self.generators
        pairs = [(k, l) for k in range(self.dim) for l in range(k + 1, self.dim)]
        # a commutator is traceless: its coordinates need no projection
        brackets = [_ad_column(self._ad[k], gens[l], gden) for k, l in pairs]
        structure: dict[tuple[int, int], list[tuple[int, GaussRational]]] = {}
        columns = [g.flatten() for g in gens]
        for (k, l), coords in zip(pairs, solve_columns(columns, brackets)):
            if coords:
                entry = list(coords.items())
                structure[(k, l)] = entry
                structure[(l, k)] = [(j, -c) for j, c in entry]
        return structure

    def _plan(self, idx: tuple) -> tuple[list, list]:
        """What d(A alpha^idx) adds to each output key, made once per index
        tuple and kept on the basis: (key, table) for each
        X_j(A) alpha^j ^ alpha^idx, the table of X_j negated where alpha^j
        lands at an odd place, and (key, cr, ci) for the terms of
        A d(alpha^idx), the constants of one key summed and signed."""
        plan = self._plans.get(idx)
        if plan is not None:
            return plan
        ad_terms = []
        p = 0  # the place of alpha^j in the sorted key
        for j, table in enumerate(self._ad):
            if p < len(idx) and idx[p] == j:
                p += 1
                continue
            if p % 2:
                table = self._neg_ad[j]
                if table is None:
                    table = tuple([(q, s, -t) for q, s, t in terms] for terms in self._ad[j])
                    self._neg_ad[j] = table
            ad_terms.append((idx[:p] + (j,) + idx[p:], table))
        # A d(alpha^idx): alpha^a ^ alpha^b moved to the front of the rest is even
        constants: dict[tuple, tuple[int, int]] = {}
        for p, m in enumerate(idx):
            rest = idx[:p] + idx[p + 1 :]
            for a, b, cr, ci in self._d_alpha[m]:
                if a in rest or b in rest:
                    continue
                pa = bisect_left(rest, a)
                pb = bisect_left(rest, b, pa)
                key = rest[:pa] + (a,) + rest[pa:pb] + (b,) + rest[pb:]
                if (p + pa + pb) % 2:
                    cr, ci = -cr, -ci
                c = constants.get(key)
                constants[key] = (cr, ci) if c is None else (c[0] + cr, c[1] + ci)
        d_terms = [(key, cr, ci) for key, (cr, ci) in constants.items() if cr or ci]
        plan = self._plans[idx] = (ad_terms, d_terms)
        return plan


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


def _kform(basis: DerivationBasis, degree: int, coeffs: dict[tuple, Mat]) -> "KForm":
    """The KForm of ``coeffs``, valid index tuples of ``degree`` and n x n
    values taken as they are; only the zero values are dropped."""
    w = object.__new__(KForm)
    w.basis = basis
    w.degree = degree
    w.coeffs = {idx: v for idx, v in coeffs.items() if not v.is_zero()}
    return w


class KForm:
    """Alternating algebra-valued form over a DerivationBasis.  The public
    constructor checks every index tuple and value; ``_kform`` checks none."""

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
            s = out.get(idx)
            out[idx] = v if s is None else s + v
        return _kform(self.basis, self.degree, out)

    def __sub__(self, other: "KForm") -> "KForm":
        return self + other.scale(-GR_ONE)

    def scale(self, c: GaussRational) -> "KForm":
        return _kform(self.basis, self.degree, {i: v.scale(c) for i, v in self.coeffs.items()})

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


def _accumulators(acc: dict, key: tuple, nn: int) -> tuple[list[int], list[int]]:
    """The (re, im) int lists of length nn that accumulate output ``key``."""
    out = acc.get(key)
    if out is None:
        out = acc[key] = ([0] * nn, [0] * nn)
    return out


def _add_scaled(out: tuple[list[int], list[int]], are, aim, cr: int, ci: int) -> None:
    """out += (cr + ci i) A, for the numerators (are, aim) of A, in place."""
    out_re, out_im = out
    if cr:
        for q in range(len(are)):
            x, y = are[q], aim[q]
            out_re[q] += x * cr - y * ci
            out_im[q] += x * ci + y * cr
    else:  # an imaginary constant, as for a basis of Hermitian generators
        for q in range(len(are)):
            out_re[q] -= aim[q] * ci
            out_im[q] += are[q] * ci


def _reduced_form(basis: DerivationBasis, degree: int, acc: dict, den: int) -> "KForm":
    """The form whose coefficient at each key of ``acc`` is its (re, im)
    numerators over ``den``, one `_reduced` per nonzero key."""
    n = basis.n
    coeffs = {
        key: _reduced(n, tuple(re), tuple(im), den)
        for key, (re, im) in acc.items()
        if any(re) or any(im)
    }
    return _kform(basis, degree, coeffs)


def wedge(w1: KForm, w2: KForm) -> KForm:
    """(A alpha^I) ^ (B alpha^J) = AB alpha^{I+J}, summed over stored terms.

    Values multiply in the algebra, so the result is not graded-commutative
    in general; a degree-0 operand acts as left or right multiplication.

    Computed on ints: the numerators of the A_I over the lcm d1 of their
    denominators and of the B_J over the lcm d2 of theirs, each product
    added into the int lists of its sorted key, and each output built over
    d1 * d2.
    """
    if w1.basis is not w2.basis and w1.basis.generators != w2.basis.generators:
        raise ValueError("forms over different derivation bases")
    n = w1.basis.n
    nn = n * n
    d1 = lcm(*(v.den for v in w1.coeffs.values()))
    d2 = lcm(*(v.den for v in w2.coeffs.values()))
    # the nonzero entries (k, re, im) of each row of each B over d2
    rights = []
    for j, b in w2.coeffs.items():
        f = d2 // b.den
        bre, bim = b.re, b.im
        rows = []
        for p in range(0, nn, n):
            row = []
            for k in range(n):
                if bre[p + k] or bim[p + k]:
                    row.append((k, bre[p + k] * f, bim[p + k] * f))
            rows.append(row)
        rights.append((j, rows))
    acc: dict[tuple, tuple[list[int], list[int]]] = {}
    for i, a in w1.coeffs.items():
        # the nonzero entries (row offset, column, re, im) of A over d1
        f = d1 // a.den
        are, aim = a.re, a.im
        left = []
        for p in range(nn):
            if are[p] or aim[p]:
                left.append((p - p % n, p % n, are[p] * f, aim[p] * f))
        for j, rows in rights:
            sorted_sign = _sort_sign(i + j)
            if sorted_sign is None:
                continue
            key, sign = sorted_sign
            re, im = _accumulators(acc, key, nn)
            for r, col, x, y in left:
                if sign < 0:
                    x, y = -x, -y
                for k, c, d in rows[col]:
                    re[r + k] += x * c - y * d
                    im[r + k] += x * d + y * c
    return _reduced_form(w1.basis, w1.degree + w2.degree, acc, d1 * d2)


def exterior_d(w: KForm) -> KForm:
    """d(A alpha^I) = sum_j X_j(A) alpha^j ^ alpha^I + A d(alpha^I).

    d(alpha^I) replaces the factor alpha^m at position p by
    (-1)^p d(alpha^m) = (-1)^p sum (-c^m_ab) alpha^a ^ alpha^b (a < b),
    the structure constants c of [X_a, X_b] = c^m_ab X_m.  Equal to the
    two-sum formula on fields (field actions plus bracket insertions);
    satisfies d(d w) = 0.

    Computed on ints: the numerators of every A_I over the lcm of their
    denominators, the basis tables and constants over the basis
    denominator, read through the basis's plan for I, and each output
    coefficient built over the product of the two.
    """
    basis = w.basis
    nn = basis.n * basis.n
    den = lcm(*(v.den for v in w.coeffs.values()))
    # the memo lookup of `_plan` and `_accumulators` run inline on this hot path
    plans = basis._plans
    acc: dict[tuple, tuple[list[int], list[int]]] = {}
    for idx, v in w.coeffs.items():
        ad_terms, d_terms = plans.get(idx) or basis._plan(idx)
        f = den // v.den
        are, aim = (v.re, v.im) if f == 1 else ([x * f for x in v.re], [y * f for y in v.im])
        # X_j(A) alpha^j ^ alpha^I, X_j(A) = [A, X_j] read off the table of X_j
        for key, (re_terms, im_terms) in ad_terms:
            out = acc.get(key)
            if out is None:
                out = acc[key] = ([0] * nn, [0] * nn)
            out_re, out_im = out
            for q, s, t in re_terms:
                out_re[s] += are[q] * t
                out_im[s] += aim[q] * t
            for q, s, t in im_terms:
                out_re[s] -= aim[q] * t
                out_im[s] += are[q] * t
        # A d(alpha^I)
        for key, cr, ci in d_terms:
            out = acc.get(key)
            if out is None:
                out = acc[key] = ([0] * nn, [0] * nn)
            _add_scaled(out, are, aim, cr, ci)
    return _reduced_form(basis, w.degree + 1, acc, den * basis._den)


def contract(x_coeffs: Sequence[GaussRational], w: KForm) -> KForm:
    """Interior product i_X along a derivation given in basis coordinates.

    Computed on ints: the coordinates over the lcm dx of their
    denominators, the values over the lcm dw of theirs, each term added
    into the int lists of its key, and each output built over dx * dw.
    """
    if w.degree == 0:
        raise ValueError("cannot contract a degree-0 form")
    dx = lcm(*(c.den for c in x_coeffs))
    xs = [(c.re_num * (dx // c.den), c.im_num * (dx // c.den)) for c in x_coeffs]
    dw = lcm(*(v.den for v in w.coeffs.values()))
    nn = w.basis.n * w.basis.n
    acc: dict[tuple, tuple[list[int], list[int]]] = {}
    for idx, v in w.coeffs.items():
        f = dw // v.den
        for pos, i in enumerate(idx):
            cr, ci = xs[i]
            if not (cr or ci):
                continue
            sf = -f if pos % 2 else f
            cr, ci = cr * sf, ci * sf
            _add_scaled(_accumulators(acc, idx[:pos] + idx[pos + 1 :], nn), v.re, v.im, cr, ci)
    return _reduced_form(w.basis, w.degree - 1, acc, dx * dw)


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
    target = ({(j, r * n + r): (1, 0) for r in range(n)}, 1)
    [sol] = solve_columns(_ad_columns(basis._ad, n, basis._den), [target])
    return ExactnessReport(solvable=sol is not None)
