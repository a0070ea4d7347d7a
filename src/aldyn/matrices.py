"""Exact square matrices over Q(i); `to_numpy`, the bridge for numerics,
imports numpy on demand.

All algebraic decisions (ranks, commutants, solver systems) run on exact
entries; only exponentials go through floating point.

A ``Mat`` is Gaussian-integer numerators over one denominator, as a
``GaussRational`` is for one number: its size ``n``, row-major tuples
``re`` and ``im`` of n^2 ints and one positive int ``den``, entry (i, j)
being (re[i n + j] + im[i n + j] i) / den.  It is always in lowest terms,
gcd(den, every numerator) == 1, so the zero matrix has den 1, every matrix
has one representation, and ``==`` and ``hash`` compare the fields.

Arithmetic runs on plain ints: ``+``, ``-``, negation, ``@``, ``scale``,
``trace``, ``conjugate_transpose``, ``traceless_part``, ``is_zero`` and
``flatten``/``unflatten``.  Each result is built by the trusted
``_reduced``, which takes numerators and a denominator as they are and
divides out their gcd, one per result.  ``@`` lists the nonzero entries of
each row of the right factor once per product and multiplies only nonzero
pairs.  ``entries`` is a read-only view, a tuple of row tuples of
``GaussRational``, for printing, JSON and outside readers; no arithmetic
reads it.

The map A -> [A, g] has one encoding, the ad table of g (``_ad_table``):
two flat lists of triples (q, q', t), [A, g][q'] += A[q] t, the real parts
t in one and the imaginary parts in the other, on the numerators of g
times a chosen factor.  It is built from the nonzero entries of g only,
so an E_ij has 2n triples.  ``_ad_column`` applies a table to the dense
numerators of A and gives [A, g] as an integer column, and
``_ad_columns`` reads the tables of g_1, ..., g_k as the columns of
A -> ([A, g_t])_t, keyed (t, q').  `diffcalc.exterior_d` runs the same
triples inline.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, neg, sub
from typing import Mapping, Sequence

from .linalg import IntColumn
from .scalars import GaussRational, _norm, json_field, json_int, json_list

_object_new = object.__new__


def _reduced(n: int, re: tuple[int, ...], im: tuple[int, ...], den: int) -> "Mat":
    """The n x n Mat (re + im i) / den in lowest terms: ``re`` and ``im``
    are row-major tuples of n^2 ints, owned as given, and den > 0."""
    if den != 1:
        g = gcd(den, *re, *im)
        if g != 1:
            re = tuple([x // g for x in re])
            im = tuple([x // g for x in im])
            den //= g
    m = _object_new(Mat)
    m.n = n
    m.re = re
    m.im = im
    m.den = den
    return m


def _sum(x: "Mat", y: "Mat", op) -> "Mat":
    """x + y or x - y (op is ``add`` or ``sub``) over the lcm of the
    denominators."""
    x._check(y)
    d, e = x.den, y.den
    if d == e:
        return _reduced(x.n, tuple(map(op, x.re, y.re)), tuple(map(op, x.im, y.im)), d)
    den = lcm(d, e)
    f, g = den // d, den // e
    return _reduced(
        x.n,
        tuple([op(a * f, b * g) for a, b in zip(x.re, y.re)]),
        tuple([op(a * f, b * g) for a, b in zip(x.im, y.im)]),
        den,
    )


class Mat:
    """Immutable n x n matrix over Q(i): Gaussian-integer numerators over
    one positive denominator, in lowest terms."""

    __slots__ = ("n", "re", "im", "den")

    def __init__(self, entries: Sequence[Sequence[GaussRational]]):
        rows = [list(row) for row in entries]
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("matrix must be square")
        cells = [x for row in rows for x in row]
        # Every entry is in lowest terms, so over the lcm of their
        # denominators the numerators are too.
        den = lcm(*(x.den for x in cells))
        self.n = n
        self.re = tuple([x.re_num * (den // x.den) for x in cells])
        self.im = tuple([x.im_num * (den // x.den) for x in cells])
        self.den = den

    # -- constructors ------------------------------------------------

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "Mat":
        return Mat([[GaussRational.coerce(x) for x in row] for row in rows])

    @staticmethod
    def zero(n: int) -> "Mat":
        zeros = (0,) * (n * n)
        return _reduced(n, zeros, zeros, 1)

    @staticmethod
    def identity(n: int) -> "Mat":
        return Mat.diag([1] * n)

    @staticmethod
    def basis_elt(n: int, i: int, j: int) -> "Mat":
        re = [0] * (n * n)
        re[i * n + j] = 1
        return _reduced(n, tuple(re), (0,) * (n * n), 1)

    @staticmethod
    def diag(values: Sequence) -> "Mat":
        n = len(values)
        rows = [[GaussRational()] * n for _ in range(n)]
        for i, v in enumerate(values):
            rows[i][i] = GaussRational.coerce(v)
        return Mat(rows)

    # -- arithmetic --------------------------------------------------

    def __add__(self, other: "Mat") -> "Mat":
        return _sum(self, other, add)

    def __sub__(self, other: "Mat") -> "Mat":
        return _sum(self, other, sub)

    def __neg__(self) -> "Mat":
        return _reduced(self.n, tuple(map(neg, self.re)), tuple(map(neg, self.im)), self.den)

    def __matmul__(self, other: "Mat") -> "Mat":
        self._check(other)
        n = self.n
        bre, bim = other.re, other.im
        # (k, c, d) for each nonzero c + d i = other[j][k], per row j
        right = [
            [(k, bre[jn + k], bim[jn + k]) for k in range(n) if bre[jn + k] or bim[jn + k]]
            for jn in range(0, n * n, n)
        ]
        are, aim = self.re, self.im
        re, im = [0] * (n * n), [0] * (n * n)
        p = 0  # the flat index of self[i][j]
        for i_n in range(0, n * n, n):
            for nonzero in right:
                a, b = are[p], aim[p]
                p += 1
                if nonzero and (a or b):
                    for k, c, d in nonzero:
                        re[i_n + k] += a * c - b * d
                        im[i_n + k] += a * d + b * c
        return _reduced(n, tuple(re), tuple(im), self.den * other.den)

    def scale(self, c: GaussRational | int | Fraction) -> "Mat":
        c = GaussRational.coerce(c)
        p, q = c.re_num, c.im_num
        if q:
            re = tuple([a * p - b * q for a, b in zip(self.re, self.im)])
            im = tuple([a * q + b * p for a, b in zip(self.re, self.im)])
        else:
            re = tuple([a * p for a in self.re])
            im = tuple([b * p for b in self.im])
        return _reduced(self.n, re, im, self.den * c.den)

    def _check(self, other: "Mat"):
        if self.n != other.n:
            raise ValueError(f"matrix size mismatch: {self.n} vs {other.n}")

    # -- queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.re) and not any(self.im)

    def trace(self) -> GaussRational:
        step = self.n + 1
        return _norm(sum(self.re[::step]), sum(self.im[::step]), self.den)

    def traceless_part(self) -> "Mat":
        """A - (tr A / n) 1, as (n A - tr A 1) / n over n den."""
        n, step = self.n, self.n + 1
        tr_re, tr_im = sum(self.re[::step]), sum(self.im[::step])
        re = [a * n for a in self.re]
        im = [b * n for b in self.im]
        for p in range(0, n * n, step):
            re[p] -= tr_re
            im[p] -= tr_im
        return _reduced(n, tuple(re), tuple(im), self.den * n)

    def conjugate_transpose(self) -> "Mat":
        n = self.n
        re = tuple([a for j in range(n) for a in self.re[j::n]])
        im = tuple([-b for j in range(n) for b in self.im[j::n]])
        return _reduced(n, re, im, self.den)

    def is_hermitian(self) -> bool:
        return self == self.conjugate_transpose()

    def flatten(self) -> IntColumn:
        """The entries as a `linalg.IntColumn` keyed by row-major index:
        the nonzero (re, im) numerators over ``den``."""
        return {p: (a, b) for p, (a, b) in enumerate(zip(self.re, self.im)) if a or b}, self.den

    @staticmethod
    def unflatten(vec: Mapping[int, GaussRational], n: int) -> "Mat":
        """The n x n matrix with entry vec[i * n + j] at (i, j), and 0 where
        the sparse vec has none."""
        den = lcm(*(x.den for x in vec.values()))
        re, im = [0] * (n * n), [0] * (n * n)
        for p, x in vec.items():
            f = den // x.den
            re[p] = x.re_num * f
            im[p] = x.im_num * f
        return _reduced(n, tuple(re), tuple(im), den)

    @property
    def entries(self) -> tuple[tuple[GaussRational, ...], ...]:
        """The entries as a tuple of row tuples of GaussRational: a view for
        printing, JSON and outside readers, made on each read."""
        n, den = self.n, self.den
        cells = [_norm(a, b, den) for a, b in zip(self.re, self.im)]
        return tuple(tuple(cells[p : p + n]) for p in range(0, n * n, n))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat):
            return NotImplemented
        return (
            self.n == other.n
            and self.den == other.den
            and self.re == other.re
            and self.im == other.im
        )

    def __hash__(self) -> int:
        return hash((self.re, self.im, self.den))

    def __repr__(self) -> str:
        rows = "; ".join(
            " ".join(str(a) for a in row) for row in self.entries
        )
        return f"Mat[{rows}]"

    # -- numerics ----------------------------------------------------

    def to_numpy(self, path: str = "") -> np.ndarray:
        """The complex array; a ValueError names the JSON path under `path`
        of an entry beyond the float range."""
        import numpy as np

        n, den = self.n, self.den
        try:
            # int / int is correctly rounded, as in GaussRational.to_complex.
            cells = [complex(a / den, b / den) for a, b in zip(self.re, self.im)]
        except OverflowError:
            cells = [
                a.to_complex(f"{path}/entries/{i}/{j}")
                for i, row in enumerate(self.entries)
                for j, a in enumerate(row)
            ]
        return np.array(cells, dtype=complex).reshape(n, n)

    # -- json --------------------------------------------------------

    def to_json(self) -> dict:
        return {"n": self.n, "entries": [[a.to_json() for a in row] for row in self.entries]}

    @staticmethod
    def from_json(data, path: str = "matrix") -> "Mat":
        """{"n": n, "entries": rows of {"re", "im"} cells}; each cell is read
        by ``GaussRational.from_json``.  Malformed input is a ValueError
        naming the JSON path at fault, below `path`, the path of data."""
        rows = json_list(json_field(data, "entries", path), f"{path}/entries")
        entries = [
            [
                GaussRational.from_json(cell, f"{path}/entries/{i}/{j}")
                for j, cell in enumerate(json_list(row, f"{path}/entries/{i}"))
            ]
            for i, row in enumerate(rows)
        ]
        if any(len(row) != len(entries) for row in entries):
            raise ValueError(f"{path}/entries: matrix must be square")
        if json_int(json_field(data, "n", path), f"{path}/n") != len(entries):
            raise ValueError(f"{path}/n: matrix size field does not match the entries")
        return Mat(entries)


def full_matrix_basis(n: int) -> list[Mat]:
    """The standard basis E_ij of Mat_n, row-major."""
    return [Mat.basis_elt(n, i, j) for i in range(n) for j in range(n)]


def _ad_table(g: Mat, f: int) -> tuple[list, list]:
    """A -> [A, g] as a map on flat entries, on the numerators of g times f:
    the triples (q, q', t) with [A, g][q'] += A[q] t, as the list of the
    real parts t and the list of the imaginary parts, built from the
    nonzero entries of g only.  A[r][c] adds g[c][k] to entry (r, k) and
    -g[l][r] to entry (l, c); the two meet only at q = q' = (r, c), as
    g[c][c] - g[r][r], one triple that is left out on equal diagonal
    values.  So each list names each (q, q') at most once."""
    n = g.n
    nn = n * n
    step = n + 1
    rows = range(0, nn, n)
    tables = [], []
    for terms, values in zip(tables, (g.re, g.im)):
        for p, x in enumerate(values):
            if x and p % step:
                l, k = divmod(p, n)
                x *= f
                # A[m][l] -> [A, g][m][k] += x;  A[k][m] -> [A, g][l][m] -= x
                terms += [(mn + l, mn + k, x) for mn in rows]
                kn, ln = k * n, l * n
                terms += [(kn + m, ln + m, -x) for m in range(n)]
        diag = values[::step]
        for c, x in enumerate(diag):
            if x:
                # q = (r, c) for every r of another value, and q = (c, r) for
                # every r of value 0; a (c, r) whose r has a nonzero value is
                # met in the pass over r
                for r, y in enumerate(diag):
                    if y != x:
                        q = r * n + c
                        terms.append((q, q, (x - y) * f))
                    if not y:
                        q = c * n + r
                        terms.append((q, q, -x * f))
    return tables


def _ad_column(table: tuple[list, list], a: Mat, den: int) -> IntColumn:
    """[A, g] as an `IntColumn` over ``a.den * den``, from the table of g over
    ``den``, applied to the dense numerators of A."""
    are, aim = a.re, a.im
    re, im = [0] * len(are), [0] * len(are)
    re_terms, im_terms = table
    for q, s, t in re_terms:
        re[s] += are[q] * t
        im[s] += aim[q] * t
    for q, s, t in im_terms:
        re[s] -= aim[q] * t
        im[s] += are[q] * t
    return {s: (x, y) for s, (x, y) in enumerate(zip(re, im)) if x or y}, a.den * den


def _ad_columns(tables: Sequence[tuple[list, list]], n: int, den: int) -> list[IntColumn]:
    """The columns of A -> ([A, g_t])_t on Mat_n over ``den``, from the ad
    tables of the g_t over it: one column per flat entry q of A, keyed
    (t, q') for entry q' of [A, g_t], the real and imaginary parts of each
    term joined.  A table list names each (q, q') at most once, so no term
    is summed."""
    columns = [{} for _ in range(n * n)]
    for t, (re_terms, im_terms) in enumerate(tables):
        for q, s, x in re_terms:
            columns[q][t, s] = (x, 0)
        for q, s, y in im_terms:
            col = columns[q]
            col[t, s] = (col.get((t, s), (0, 0))[0], y)
    return [(col, den) for col in columns]
