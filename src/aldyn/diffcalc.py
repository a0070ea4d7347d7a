"""Derivation-based differential calculus on B(C^N).

Forms of degree k are alternating multilinear maps on a fixed basis of
inner derivations, with values in the matrix algebra; only coefficients on
strictly increasing index tuples are stored.  The exterior derivative is
the graded two-sum formula (single-field action plus bracket insertions),
the wedge is the permutation sum with the 1/(j! j'!) normalization, and
the contraction/Lie-derivative pair gives a Cartan calculus.

The basis derivations act as A -> [A, X_j]; their Lie bracket is the
operator commutator, whose structure constants therefore come from
expanding [X_l, X_k] (note the order) in the matrix basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from typing import Mapping, Sequence

from . import linalg
from .matrices import Mat
from .quantum import commutator, commutator_columns
from .scalars import GR_I, GR_ONE, GR_ZERO, GaussRational


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
    condition stays non-degenerate.
    """

    __slots__ = ("n", "generators", "_coord_matrix", "structure")

    def __init__(self, generators: Sequence[Mat]):
        generators = list(generators)
        if not generators:
            raise ValueError("empty derivation basis")
        n = generators[0].n
        if len(generators) != n * n - 1:
            raise ValueError("derivation basis of B(C^N) has N^2 - 1 elements")
        for g in generators:
            if g.n != n:
                raise ValueError("mixed matrix sizes")
            if not g.trace().is_zero():
                raise ValueError("basis generators must be traceless")
        vectors = [g.flatten() for g in generators]
        if linalg.rank(vectors) != len(generators):
            raise ValueError("basis generators must be linearly independent")
        self.n = n
        self.generators = generators
        self._coord_matrix = vectors
        self.structure = self._structure_constants()

    @staticmethod
    def gell_mann(n: int) -> "DerivationBasis":
        return DerivationBasis(gell_mann_basis(n))

    @property
    def dim(self) -> int:
        return len(self.generators)

    def coordinates(self, m: Mat) -> list[GaussRational]:
        """Coefficients of the traceless part of m in the basis."""
        coords = linalg.coordinates_in_basis(
            self._coord_matrix, m.traceless_part().flatten()
        )
        if coords is None:
            raise RuntimeError("traceless basis failed to span")
        return coords

    def _structure_constants(self) -> dict:
        """c^j_{kl} with [X_k, X_l] = c^j_{kl} X_j as operators.

        Since X(A) = [A, X_matrix], the operator bracket corresponds to the
        reversed matrix commutator: [X_k, X_l] = ad-style derivation of
        [M_l, M_k].  Only k < l is solved for; (l, k) is the exact negative,
        as [M_k, M_l] = -[M_l, M_k].
        """
        structure: dict[tuple[int, int], list[tuple[int, GaussRational]]] = {}
        for k in range(self.dim):
            for l in range(k + 1, self.dim):
                m = commutator(self.generators[l], self.generators[k])
                coords = self.coordinates(m)
                entry = [
                    (j, c) for j, c in enumerate(coords) if not c.is_zero()
                ]
                if entry:
                    structure[(k, l)] = entry
                    structure[(l, k)] = [(j, -c) for j, c in entry]
        return structure

    def act(self, j: int, a: Mat) -> Mat:
        """X_j(A) = [A, X_j]."""
        return commutator(a, self.generators[j])

    def act_field(self, coeffs: Sequence[GaussRational], a: Mat) -> Mat:
        out = Mat.zero(self.n)
        for j, c in enumerate(coeffs):
            if not c.is_zero():
                out = out + self.act(j, a).scale(c)
        return out


def _det(rows: list[list[GaussRational]]) -> GaussRational:
    k = len(rows)
    if k == 0:
        return GR_ONE
    if k == 1:
        return rows[0][0]
    if k == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    total = GR_ZERO
    for j in range(k):
        if rows[0][j].is_zero():
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = rows[0][j] * _det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


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
                if any(not 0 <= i < basis.dim for i in idx):
                    raise ValueError("index out of range")
                if value.n != basis.n:
                    raise ValueError("value size mismatch")
                if not value.is_zero():
                    cleaned[idx] = value
        self.coeffs = cleaned

    # -- constructors ------------------------------------------------

    @staticmethod
    def zero(basis: DerivationBasis, degree: int) -> "KForm":
        return KForm(basis, degree)

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
            s = v if s is None else s + v
            if s.is_zero():
                out.pop(idx, None)
            else:
                out[idx] = s
        return KForm(self.basis, self.degree, out)

    def __sub__(self, other: "KForm") -> "KForm":
        return self + other.scale(-GR_ONE)

    def scale(self, c: GaussRational) -> "KForm":
        return KForm(
            self.basis, self.degree, {i: v.scale(c) for i, v in self.coeffs.items()}
        )

    def left_mul(self, a: Mat) -> "KForm":
        """The bimodule action A * omega."""
        return KForm(
            self.basis, self.degree, {i: a @ v for i, v in self.coeffs.items()}
        )

    def right_mul(self, a: Mat) -> "KForm":
        """The bimodule action omega * A."""
        return KForm(
            self.basis, self.degree, {i: v @ a for i, v in self.coeffs.items()}
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
        if len(set(idx)) != len(idx):
            return Mat.zero(self.basis.n)
        order = sorted(range(len(idx)), key=lambda r: idx[r])
        sign = _permutation_sign(order)
        v = self.coeffs.get(tuple(sorted(idx)))
        if v is None:
            return Mat.zero(self.basis.n)
        return v if sign == 1 else v.scale(-GR_ONE)

    def evaluate(self, fields: Sequence[Sequence[GaussRational]]) -> Mat:
        """Multilinear alternating evaluation on fields given in basis coordinates."""
        if len(fields) != self.degree:
            raise ValueError("wrong number of fields")
        if self.degree == 0:
            return self.as_matrix()
        out = Mat.zero(self.basis.n)
        for idx, v in self.coeffs.items():
            rows = [[fields[r][i] for i in idx] for r in range(self.degree)]
            d = _det(rows)
            if not d.is_zero():
                out = out + v.scale(d)
        return out

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
    def from_json(data: Mapping, basis: DerivationBasis | None = None) -> "KForm":
        if basis is None:
            basis = DerivationBasis.gell_mann(int(data["n"]))
        coeffs = {
            tuple(entry["idx"]): Mat.from_json(entry["value"])
            for entry in data["coeffs"]
        }
        return KForm(basis, int(data["degree"]), coeffs)


def _permutation_sign(perm: Sequence[int]) -> int:
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def wedge(w1: KForm, w2: KForm) -> KForm:
    """Permutation-sum wedge with the 1/(j! j'!) factor.

    Values multiply in the algebra, so the result is not graded-commutative
    in general.
    """
    if w1.basis.generators != w2.basis.generators:
        raise ValueError("forms over different derivation bases")
    j, jp = w1.degree, w2.degree
    basis = w1.basis
    if j == 0:
        return w2.left_mul(w1.as_matrix())
    if jp == 0:
        return w1.right_mul(w2.as_matrix())
    norm = GaussRational.of(
        Fraction(1, _factorial(j) * _factorial(jp))
    )
    out: dict[tuple, Mat] = {}
    for idx in combinations(range(basis.dim), j + jp):
        total = Mat.zero(basis.n)
        for perm in permutations(range(j + jp)):
            sign = _permutation_sign(perm)
            left = w1.value([idx[perm[r]] for r in range(j)])
            if left.is_zero():
                continue
            right = w2.value([idx[perm[j + r]] for r in range(jp)])
            if right.is_zero():
                continue
            term = left @ right
            total = total + (term if sign == 1 else term.scale(-GR_ONE))
        if not total.is_zero():
            out[idx] = total.scale(norm)
    return KForm(basis, j + jp, out)


def _factorial(k: int) -> int:
    out = 1
    for i in range(2, k + 1):
        out *= i
    return out


def exterior_d(w: KForm) -> KForm:
    """Graded differential: field actions plus bracket insertions.

    (d w)(X_0..X_k) = sum_r (-1)^r X_r(w(..no r..))
                    + sum_{r<s} (-1)^{r+s} w([X_r,X_s], ..no r,s..),
    with the bracket of basis derivations expanded through the structure
    constants.  Satisfies d(d w) = 0.
    """
    basis = w.basis
    k = w.degree
    out: dict[tuple, Mat] = {}
    for idx in combinations(range(basis.dim), k + 1):
        total = Mat.zero(basis.n)
        for r in range(k + 1):
            rest = idx[:r] + idx[r + 1 :]
            val = w.value(rest)
            if not val.is_zero():
                term = basis.act(idx[r], val)
                if not term.is_zero():
                    total = total + (term if r % 2 == 0 else term.scale(-GR_ONE))
        for r in range(k + 1):
            for s in range(r + 1, k + 1):
                entry = basis.structure.get((idx[r], idx[s]))
                if not entry:
                    continue
                rest = tuple(
                    idx[m] for m in range(k + 1) if m != r and m != s
                )
                acc = Mat.zero(basis.n)
                hit = False
                for jb, c in entry:
                    val = w.value((jb,) + rest)
                    if not val.is_zero():
                        acc = acc + val.scale(c)
                        hit = True
                if hit and not acc.is_zero():
                    total = total + (
                        acc if (r + s) % 2 == 0 else acc.scale(-GR_ONE)
                    )
        if not total.is_zero():
            out[idx] = total
    return KForm(basis, k + 1, out)


def contract(x_coeffs: Sequence[GaussRational], w: KForm) -> KForm:
    """Interior product i_X along a derivation given in basis coordinates."""
    if w.degree == 0:
        raise ValueError("cannot contract a degree-0 form")
    basis = w.basis
    out: dict[tuple, Mat] = {}
    for idx, v in w.coeffs.items():
        for pos, i in enumerate(idx):
            c = x_coeffs[i]
            if c.is_zero():
                continue
            rest = idx[:pos] + idx[pos + 1 :]
            term = v.scale(c if pos % 2 == 0 else -c)
            s = out.get(rest)
            s = term if s is None else s + term
            if s.is_zero():
                out.pop(rest, None)
            else:
                out[rest] = s
    return KForm(basis, w.degree - 1, out)


def lie_derivative(x_coeffs: Sequence[GaussRational], w: KForm) -> KForm:
    """Cartan formula L_X = i_X d + d i_X (the second term absent in degree 0)."""
    out = contract(x_coeffs, exterior_d(w))
    if w.degree >= 1:
        out = out + exterior_d(contract(x_coeffs, w))
    return out


@dataclass
class ExactnessReport:
    index: int
    trace_of_unit_value: int     # alpha^j(X_j) = identity has trace N != 0
    solvable: bool               # the linear system dA = alpha^j

    @property
    def exact(self) -> bool:
        return self.solvable


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
    target = {(j, r, r): GR_ONE for r in range(n)}
    sol = linalg.solve_columns(commutator_columns(basis.generators), target)
    return ExactnessReport(index=j, trace_of_unit_value=n, solvable=sol is not None)
