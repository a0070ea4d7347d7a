"""Exact linear algebra over the field Q(i).

One elimination algorithm, `SparseEliminator`, on Gaussian-integer rows:
a row is a {column: (re, im)} dict of plain ints, and no Q(i) arithmetic
runs while it eliminates.  Each pivot row is multiplied by the conjugate
of its lead and kept primitive (its integer content divided out), so its
lead is a positive int L.  A row r is reduced fraction-free (Bareiss,
Math. Comp. 22 (1968)) against the pivot row P at its smallest column:
r <- (L/g) r - (x/g) P, where x is r's entry there and g = gcd(L, re x,
im x), and r's content is divided out again whenever it was scaled.
A primitive one-entry pivot row is {c: (1, 0)}, so L = g = 1 and the
update only deletes column c.  Two fast paths give exactly that result
without the update.  A row with the single entry {c: v} becomes the unit
pivot {c: (1, 0)} when c holds no pivot, and reduces to nothing when v is
0 or c already holds a one-entry pivot.  Inside the reduction loop, a
one-entry pivot deletes the row's entry at its column.  The ansatz
systems are made mostly of "unknown = 0" rows (about 480 of the 504 rows
of a `find_hamiltonian` system on R^4 at cap 6 have one entry), and then
pay the full update only against pivots of two or more entries.
Back-substitution, indexed by column, runs on the same rows and gives the
reduced row-echelon form, unique for a fixed column order: `kernel_basis`
and `solve` divide each entry by its row's lead once, at the end, so
solutions and kernel bases do not depend on the order the rows came in.

One front end, `solve_columns`: one unknown per sparse column, any number
of targets answered by one elimination, or the kernel when there are
none.  Every linear question goes through it.  A column (or a target) is
an `IntColumn`, Gaussian integers {key: (re, im)} over one positive int
denominator, so Q(i) values become integers where the columns are built,
each input cleared of its denominators once (`integer_column` for a
caller that holds Q(i) values).  The answers do not depend on those
denominators: scaling column j by den_j divides unknown j by den_j, and a
target's solution scales with the target, so the pivot columns, the
consistency of each target and the solution with free unknowns at 0 are
those of the rational system.  Each entry of an answer is unscaled in the
one normalisation that makes it, x_j = den_j x'_j / den_t, and a kernel
vector keeps its 1 at its free column.  Answers are sparse {unknown:
value} dicts of nonzero values in ascending unknown order.

No tolerances anywhere: rank decisions are exact.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Hashable, Mapping, Sequence

from .scalars import GR_ONE, GaussRational, _norm

SparseRow = dict[int, GaussRational]
IntRow = dict[int, tuple[int, int]]  # column -> (re, im) of a Gaussian integer
# Gaussian integers {key: (re, im)}, all nonzero, over one positive int
# denominator: a column of `solve_columns`, with the value (re + im i) / den
# at each key.
IntColumn = tuple[Mapping[Hashable, tuple[int, int]], int]

_ZERO = (0, 0)


def _make_primitive(row: IntRow) -> None:
    """Divide the integer content of a nonzero row out, in place."""
    g = 0
    for x, y in row.values():
        g = gcd(g, x, y)
        if g == 1:
            return
    for c, (x, y) in row.items():
        row[c] = (x // g, y // g)


def _eliminate(row: IntRow, col: int, pivot: IntRow) -> None:
    """Clear column `col` of `row` with the pivot row whose lead sits
    there, fraction-free and in place, dropping entries that cancel."""
    lead = pivot[col][0]
    a, b = row[col]
    g = gcd(lead, a, b)
    m = lead // g
    a //= g
    b //= g
    if m != 1:
        for c, (x, y) in row.items():
            row[c] = (m * x, m * y)
    for c, (p, q) in pivot.items():
        x, y = row.get(c, _ZERO)
        x -= a * p - b * q
        y -= a * q + b * p
        if x or y:
            row[c] = (x, y)
        else:
            row.pop(c, None)
    if m != 1 and row:
        _make_primitive(row)


class SparseEliminator:
    """Incremental exact elimination for sparse systems.

    Rows arrive as Gaussian-integer {column: (re, im)} dicts; each is
    reduced against the pivot rows seen so far and kept if independent.
    For an inhomogeneous system target t goes in column `ncols + t`: pivots
    are taken at the smallest column, so a pivot row whose lead is
    `>= ncols` reads 0 = a combination of targets, and every target it
    holds is inconsistent.  After all rows are in, `kernel_basis` gives
    the nullspace and `solve` one solution per target, and
    `len(pivot_rows)` is the rank.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.pivot_rows: dict[int, IntRow] = {}

    def add_row(self, row: Mapping[int, tuple[int, int]]) -> None:
        """Reduce a copy of `row` until its smallest column has no pivot;
        a nonzero residual becomes the pivot row there."""
        pivot_rows = self.pivot_rows
        if len(row) == 1:
            [(c, (a, b))] = row.items()
            pivot = pivot_rows.get(c)
            if pivot is None:
                if a or b:
                    pivot_rows[c] = {c: (1, 0)}
                return
            if len(pivot) == 1:
                return
        row = {c: v for c, v in row.items() if v[0] or v[1]}
        while row:
            lead = min(row)
            pivot = pivot_rows.get(lead)
            if pivot is None:
                a, b = row[lead]
                if b or a < 0:  # times the conjugate: lead a^2 + b^2
                    row = {c: (a * x + b * y, a * y - b * x) for c, (x, y) in row.items()}
                _make_primitive(row)
                pivot_rows[lead] = row
                return
            if len(pivot) == 1:  # the unit pivot {lead: (1, 0)}
                del row[lead]
            else:
                _eliminate(row, lead, pivot)

    def _back_substitute(self) -> None:
        """Clear every pivot column from the other pivot rows (full RREF).
        In descending order, clearing column L adds only columns above L
        that hold no pivot any more, so the rows holding each pivot column
        are listed once, before the sweep."""
        rows = self.pivot_rows
        holders: dict[int, list[IntRow]] = {lead: [] for lead in rows}
        for lead, row in rows.items():
            for c in row:
                if c != lead and c in holders:
                    holders[c].append(row)
        for lead in sorted(holders, reverse=True):
            for other in holders[lead]:
                _eliminate(other, lead, rows[lead])

    def kernel_basis(self, dens: Sequence[int]) -> list[SparseRow]:
        """Nullspace vectors, one per free column with a 1 there.  Column j
        holds dens[j] times the coefficients of unknown j, and each vector
        is given in the unknowns."""
        self._back_substitute()
        ncols = self.ncols
        rows = self.pivot_rows
        # Every other entry of a reduced pivot row sits in a free column
        # right of its lead, so ascending leads give each vector in order.
        basis: dict[int, SparseRow] = {fc: {} for fc in range(ncols) if fc not in rows}
        for lead in sorted(rows):
            row = rows[lead]
            scale, value = dens[lead], row[lead][0]
            for c, (x, y) in row.items():
                if (vec := basis.get(c)) is not None:
                    vec[lead] = _norm(-x * scale, -y * scale, value * dens[c])
        for fc, vec in basis.items():
            vec[fc] = GR_ONE
        return list(basis.values())

    def solve(self, ntargets: int, dens: Sequence[int]) -> list[SparseRow | None]:
        """One solution per target of the rows read as [A | B], target t in
        column `ncols + t`, free variables at 0; None for a target that is
        inconsistent.  Column c holds dens[c] times its values, so unknown j
        of target t is dens[j] x'_j / dens[ncols + t] for the x' of the rows."""
        ncols = self.ncols
        self._back_substitute()
        rows = self.pivot_rows
        inconsistent = {c for lead, row in rows.items() if lead >= ncols for c in row}
        sols = [None if ncols + t in inconsistent else {} for t in range(ntargets)]
        for lead in sorted(rows):
            if lead >= ncols:
                break
            row = rows[lead]
            scale, value = dens[lead], row[lead][0]
            for c, (x, y) in row.items():
                if c >= ncols and (sol := sols[c - ncols]) is not None:
                    sol[lead] = _norm(x * scale, y * scale, value * dens[c])
        return sols


def integer_column(values: Mapping[Hashable, GaussRational]) -> IntColumn:
    """Q(i) values as an `IntColumn` over the lcm of their denominators,
    zeros dropped."""
    den = lcm(*(v.den for v in values.values()))
    return {
        key: (v.re_num * (den // v.den), v.im_num * (den // v.den))
        for key, v in values.items() if v.re_num or v.im_num
    }, den


def solve_columns(
    columns: Sequence[IntColumn], targets: Sequence[IntColumn] | None
) -> list[SparseRow | None]:
    """Exact solve of sum_j x_j columns[j] = targets[t], every t in one
    elimination.

    Each unknown and each target is an `IntColumn` keyed by equation; the
    solvers key equations by (component, exps), matrices by entry index.
    Returns one sparse solution per target, free unknowns at 0 (the same as
    solving for that target alone), or None where the target is not in the
    span of the columns.  With targets None, returns a basis of the kernel,
    one vector per free unknown with a 1 there.
    """
    ncols = len(columns)
    columns = [*columns, *(targets or ())]
    rows: dict[Hashable, IntRow] = {}
    for j, (col, _) in enumerate(columns):
        for key, v in col.items():
            row = rows.get(key)
            if row is None:
                rows[key] = {j: v}
            else:
                row[j] = v
    elim = SparseEliminator(ncols)
    for row in rows.values():
        elim.add_row(row)
    dens = [den for _, den in columns]
    if targets is None:
        return elim.kernel_basis(dens)
    return elim.solve(len(targets), dens)
