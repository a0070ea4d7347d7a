"""Exact linear algebra over the field Q(i).

One elimination algorithm, `SparseEliminator`: rows arrive as
{column: coefficient} dicts and `reduce` subtracts pivot rows from them,
pivoting on the smallest column; `add_row` keeps the residual as a new
pivot row.  Back-substitution, indexed by column, gives the reduced
row-echelon form, unique for a fixed column order, so solutions and kernel
bases do not depend on the order the rows came in.  Two front ends:

  solve_columns  one unknown per sparse column, for the ansatz solvers
  Span           a spanning set eliminated once, answering dim, contains
                 and coordinates for any number of vectors

No tolerances anywhere: rank decisions are exact.
"""

from __future__ import annotations

from typing import Hashable, Mapping, Sequence

from .scalars import GR_ONE, GR_ZERO, GaussRational

Row = list[GaussRational]
SparseRow = dict[int, GaussRational]
Vector = Mapping[Hashable, GaussRational] | Sequence[GaussRational]


def _subtract(row: dict, f: GaussRational, pivot: Mapping) -> None:
    """row -= f * pivot in place, dropping entries that cancel."""
    for c, v in pivot.items():
        nv = row.get(c, GR_ZERO) - f * v
        if nv.is_zero():
            row.pop(c, None)
        else:
            row[c] = nv


class SparseEliminator:
    """Incremental exact elimination for sparse systems.

    Rows arrive as {column: coefficient} dicts; each is reduced against the
    pivot rows seen so far and kept (normalized) if independent.  For an
    inhomogeneous system the right-hand side goes in column `ncols`: pivots
    are taken at the smallest column, so a pivot there means the system is
    inconsistent.  After all rows are in, `kernel_basis` gives the
    nullspace and `solve` one solution.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.pivot_rows: dict[int, SparseRow] = {}

    def reduce(self, row: Mapping[int, GaussRational]) -> SparseRow:
        """A copy of `row` minus multiples of the pivot rows, reduced until
        its smallest column has no pivot (empty when `row` is in the span
        of the pivot rows)."""
        row = {c: v for c, v in row.items() if not v.is_zero()}
        pivot_rows = self.pivot_rows
        while row:
            lead = min(row)
            pivot = pivot_rows.get(lead)
            if pivot is None:
                break
            _subtract(row, row[lead], pivot)
        return row

    def add_row(self, row: Mapping[int, GaussRational]) -> None:
        row = self.reduce(row)
        if row:
            lead = min(row)
            inv = GR_ONE / row[lead]
            self.pivot_rows[lead] = {c: v * inv for c, v in row.items()}

    def _back_substitute(self) -> None:
        """Clear every pivot column from the other pivot rows (full RREF).
        In descending order, clearing column L adds only columns above L
        that hold no pivot any more, so the rows holding each pivot column
        are listed once, before the sweep."""
        rows = self.pivot_rows
        holders: dict[int, list[SparseRow]] = {lead: [] for lead in rows}
        for lead, row in rows.items():
            for c in row:
                if c != lead and c in holders:
                    holders[c].append(row)
        for lead in sorted(holders, reverse=True):
            for other in holders[lead]:
                _subtract(other, other[lead], rows[lead])

    def kernel_basis(self) -> list[SparseRow]:
        """Nullspace vectors as sparse dicts, one per free column, with a 1
        in that column."""
        self._back_substitute()
        basis = []
        for fc in range(self.ncols):
            if fc in self.pivot_rows:
                continue
            vec = {fc: GR_ONE}
            for lead, row in self.pivot_rows.items():
                coeff = row.get(fc)
                if coeff is not None:
                    vec[lead] = -coeff
            basis.append(vec)
        return basis

    def solve(self) -> SparseRow | None:
        """One solution of the rows read as [A | b] with b in column
        `ncols`, free variables at 0; None when the system is inconsistent."""
        if self.ncols in self.pivot_rows:
            return None
        self._back_substitute()
        return {
            lead: row[self.ncols]
            for lead, row in self.pivot_rows.items()
            if self.ncols in row
        }


def _dense(vec: Mapping[int, GaussRational], ncols: int) -> Row:
    return [vec.get(c, GR_ZERO) for c in range(ncols)]


def _nonzero(v: Vector) -> dict[Hashable, GaussRational]:
    items = v.items() if isinstance(v, Mapping) else enumerate(v)
    return {k: x for k, x in items if not x.is_zero()}


class Span:
    """span(w_0, ..., w_{m-1}) over Q(i), eliminated once.

    A vector is a sequence of entries or a sparse {key: entry} mapping;
    zero and dependent vectors are allowed.  Each w_j is stored as the row
    [w_j | e_j]: its entries in one column per key that occurs (ncols of
    them), a tag 1 in column ncols + j.  Every row the eliminator holds is then a combination of
    these, with entry part sum_j tag_j w_j.  Reducing [v | 0] leaves a
    residual r with entry part v + sum_j r_tag_j w_j; as pivots are taken
    at the smallest column, v is in the span exactly when no entry column
    is left in r, and then -r_tag are coordinates of v.
    """

    def __init__(self, vectors: Sequence[Vector]):
        entries = [_nonzero(w) for w in vectors]
        self._cols: dict[Hashable, int] = {}
        for e in entries:
            for key in e:
                self._cols.setdefault(key, len(self._cols))
        ncols = self._ncols = len(self._cols)
        self._size = len(entries)
        self._elim = SparseEliminator(ncols + self._size)
        for j, e in enumerate(entries):
            row = {self._cols[k]: x for k, x in e.items()}
            row[ncols + j] = GR_ONE
            self._elim.add_row(row)
        self.dim = sum(1 for lead in self._elim.pivot_rows if lead < ncols)

    def _tags(self, v: Vector) -> SparseRow | None:
        """The tag part of the residual of [v | 0], or None when v is not
        in the span."""
        row = {}
        for key, x in _nonzero(v).items():
            c = self._cols.get(key)
            if c is None:  # no spanning vector has an entry there
                return None
            row[c] = x
        residual = self._elim.reduce(row)
        if residual and min(residual) < self._ncols:
            return None
        return residual

    def contains(self, v: Vector) -> bool:
        return self._tags(v) is not None

    def coordinates(self, v: Vector) -> Row | None:
        """Coefficients x with sum_j x_j w_j = v, or None if v is not in
        the span; unique when the spanning vectors are independent."""
        tags = self._tags(v)
        if tags is None:
            return None
        return [-tags.get(self._ncols + j, GR_ZERO) for j in range(self._size)]


def solve_columns(
    columns: Sequence[Mapping[Hashable, GaussRational]],
    target: Mapping[Hashable, GaussRational] | None,
) -> Row | list[Row] | None:
    """Exact solve of sum_j x_j columns[j] = target.

    Each unknown is a sparse column {equation_key: coefficient}; the
    solvers key equations by (component, exps).  With a target, returns one
    solution (free unknowns at 0) or None when there is none; with target
    None, returns a basis of the kernel, one vector per free unknown with a
    1 there.
    """
    ncols = len(columns)
    rows: dict[Hashable, SparseRow] = {}
    for j, col in enumerate(columns):
        for key, v in col.items():
            rows.setdefault(key, {})[j] = v
    for key, v in (target or {}).items():
        rows.setdefault(key, {})[ncols] = v
    elim = SparseEliminator(ncols)
    for row in rows.values():
        elim.add_row(row)
    if target is None:
        return [_dense(v, ncols) for v in elim.kernel_basis()]
    sol = elim.solve()
    return None if sol is None else _dense(sol, ncols)
