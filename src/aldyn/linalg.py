"""Exact linear algebra over the field Q(i).

One elimination algorithm, `SparseEliminator`: rows arrive as
{column: coefficient} dicts and `reduce` subtracts pivot rows from them,
pivoting on the smallest column; `add_row` keeps the residual as a new
pivot row.  Back-substitution, indexed by column, gives the reduced
row-echelon form, unique for a fixed column order, so solutions and kernel
bases do not depend on the order the rows came in.

One front end, `solve_columns`: one unknown per sparse column, any number
of targets answered by one elimination, or the kernel when there are none.
Every linear question goes through it except the biderivation system,
which feeds the eliminator its rows one equation at a time.

No tolerances anywhere: rank decisions are exact.
"""

from __future__ import annotations

from typing import Hashable, Mapping, Sequence

from .scalars import GR_ONE, GR_ZERO, GaussRational

Row = list[GaussRational]
SparseRow = dict[int, GaussRational]


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
    inhomogeneous system target t goes in column `ncols + t`: pivots are
    taken at the smallest column, so a pivot row whose lead is `>= ncols`
    reads 0 = a combination of targets, and every target it holds is
    inconsistent.  After all rows are in, `kernel_basis` gives the
    nullspace and `solve` one solution per target.
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

    def solve(self, ntargets: int) -> list[SparseRow | None]:
        """One solution per target of the rows read as [A | B], target t in
        column `ncols + t`, free variables at 0; None for a target that is
        inconsistent."""
        ncols = self.ncols
        self._back_substitute()
        rows = self.pivot_rows
        inconsistent = {c for lead, row in rows.items() if lead >= ncols for c in row}
        sols = [None if ncols + t in inconsistent else {} for t in range(ntargets)]
        for lead, row in rows.items():
            if lead < ncols:
                for c, v in row.items():
                    if c >= ncols and (sol := sols[c - ncols]) is not None:
                        sol[lead] = v
        return sols


def _dense(vec: Mapping[int, GaussRational], ncols: int) -> Row:
    return [vec.get(c, GR_ZERO) for c in range(ncols)]


def solve_columns(
    columns: Sequence[Mapping[Hashable, GaussRational]],
    targets: Sequence[Mapping[Hashable, GaussRational]] | None,
) -> list[Row | None]:
    """Exact solve of sum_j x_j columns[j] = targets[t], every t in one
    elimination.

    Each unknown and each target is a sparse column {equation_key:
    coefficient}; the solvers key equations by (component, exps), matrices
    by entry index.  Returns one solution per target, free unknowns at 0
    (the same as solving for that target alone), or None where the target
    is not in the span of the columns.  With targets None, returns a basis
    of the kernel, one vector per free unknown with a 1 there.
    """
    ncols = len(columns)
    rows: dict[Hashable, SparseRow] = {}
    for j, col in enumerate([*columns, *(targets or ())]):
        for key, v in col.items():
            rows.setdefault(key, {})[j] = v
    elim = SparseEliminator(ncols)
    for row in rows.values():
        elim.add_row(row)
    if targets is None:
        return [_dense(v, ncols) for v in elim.kernel_basis()]
    return [None if s is None else _dense(s, ncols) for s in elim.solve(len(targets))]
