"""Exact linear algebra over the field Q(i).

One elimination algorithm, `SparseEliminator`: rows arrive as
{column: coefficient} dicts and are reduced incrementally, pivoting on the
smallest column.  Back-substitution then gives the reduced row-echelon
form, which is unique for a fixed column order, so solutions and kernel
bases do not depend on the order the rows came in.  `solve_columns` puts
one unknown per sparse column in front of it for the ansatz solvers; the
dense-matrix helpers (`rref`, `rank`, `nullspace`, `solve`, ...) drop zero
entries and call it too.  No tolerances anywhere: rank decisions are exact.
"""

from __future__ import annotations

from typing import Hashable, Mapping, Sequence

from .scalars import GR_ONE, GR_ZERO, GaussRational

Row = list[GaussRational]
Matrix = list[Row]
SparseRow = dict[int, GaussRational]


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

    def add_row(self, row: Mapping[int, GaussRational]) -> None:
        row = {c: v for c, v in row.items() if not v.is_zero()}
        while row:
            lead = min(row)
            pivot = self.pivot_rows.get(lead)
            if pivot is None:
                inv = GR_ONE / row[lead]
                self.pivot_rows[lead] = {c: v * inv for c, v in row.items()}
                return
            f = row[lead]
            for c, v in pivot.items():
                nv = row.get(c, GR_ZERO) - f * v
                if nv.is_zero():
                    row.pop(c, None)
                else:
                    row[c] = nv

    def rank(self) -> int:
        return len(self.pivot_rows)

    def _back_substitute(self) -> None:
        """Clear every pivot column from the other pivot rows (full RREF)."""
        for lead in sorted(self.pivot_rows, reverse=True):
            row = self.pivot_rows[lead]
            for other_lead, other in self.pivot_rows.items():
                if other_lead >= lead:
                    continue
                f = other.get(lead)
                if f is None:
                    continue
                for c, v in row.items():
                    nv = other.get(c, GR_ZERO) - f * v
                    if nv.is_zero():
                        other.pop(c, None)
                    else:
                        other[c] = nv

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


def _eliminate(matrix: Sequence[Row], ncols: int) -> SparseEliminator:
    elim = SparseEliminator(ncols)
    for row in matrix:
        elim.add_row(dict(enumerate(row)))
    return elim


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


def rref(matrix: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row-echelon form; returns (rref_rows, pivot_columns)."""
    ncols = len(matrix[0]) if matrix else 0
    elim = _eliminate(matrix, ncols)
    elim._back_substitute()
    pivots = sorted(elim.pivot_rows)
    return [_dense(elim.pivot_rows[c], ncols) for c in pivots], pivots


def rank(matrix: Matrix) -> int:
    return _eliminate(matrix, len(matrix[0]) if matrix else 0).rank()


def nullspace(matrix: Matrix, ncols: int | None = None) -> list[Row]:
    """Basis of the right kernel; each vector has 1 in its free column."""
    if matrix:
        ncols = len(matrix[0])
    elif ncols is None:
        return []
    return [_dense(v, ncols) for v in _eliminate(matrix, ncols).kernel_basis()]


def solve(matrix: Matrix, rhs: Row) -> Row | None:
    """One solution of A x = b, or None when the system is inconsistent."""
    if not matrix:
        return [] if all(x.is_zero() for x in rhs) else None
    ncols = len(matrix[0])
    elim = SparseEliminator(ncols)
    for row, b in zip(matrix, rhs):
        elim.add_row({**dict(enumerate(row)), ncols: b})
    sol = elim.solve()
    return None if sol is None else _dense(sol, ncols)


def in_span(vectors: Sequence[Row], v: Row) -> bool:
    """Exact membership of v in span(vectors)."""
    elim = _eliminate(vectors, len(v))
    r = elim.rank()
    elim.add_row(dict(enumerate(v)))
    return elim.rank() == r


def span_equal(a: Sequence[Row], b: Sequence[Row]) -> bool:
    ra, rb = rank(list(a)), rank(list(b))
    return ra == rb == rank(list(a) + list(b))


def coordinates_in_basis(basis: Sequence[Row], v: Row) -> Row | None:
    """Coefficients x with sum_j x_j basis_j = v, or None if v not in span."""
    return solve_columns([dict(enumerate(b)) for b in basis], dict(enumerate(v)))
