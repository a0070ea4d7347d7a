"""Shared helpers: seeded random algebra elements and hypothesis strategies."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from math import lcm
from typing import Hashable, Mapping, Sequence

import pytest
from hypothesis import strategies as st

from aldyn.linalg import SparseEliminator
from aldyn.matrices import Mat, full_matrix_basis
from aldyn.poly import GeneratorSet, Poly
from aldyn.scalars import GR_ONE, GR_ZERO, GaussRational, Scalar


def _old_mat(rows: tuple[tuple[GaussRational, ...], ...]) -> "OldMat":
    m = object.__new__(OldMat)
    m.n = len(rows)
    m.entries = rows
    return m


class OldMat:
    """The reference for `matrices.Mat`: the matrix that held its entries as
    a tuple of row tuples of GaussRational and did every operation with
    GaussRational arithmetic."""

    __slots__ = ("n", "entries")

    def __init__(self, entries: Sequence[Sequence[GaussRational]]):
        rows = tuple(tuple(row) for row in entries)
        if any(len(r) != len(rows) for r in rows):
            raise ValueError("matrix must be square")
        self.n = len(rows)
        self.entries = rows

    @staticmethod
    def identity(n: int) -> "OldMat":
        return _old_mat(
            tuple(tuple(GR_ONE if i == j else GR_ZERO for j in range(n)) for i in range(n))
        )

    def __add__(self, other: "OldMat") -> "OldMat":
        return _old_mat(
            tuple(tuple([a + b for a, b in zip(r1, r2)]) for r1, r2 in zip(self.entries, other.entries))
        )

    def __sub__(self, other: "OldMat") -> "OldMat":
        return _old_mat(
            tuple(tuple([a - b for a, b in zip(r1, r2)]) for r1, r2 in zip(self.entries, other.entries))
        )

    def __neg__(self) -> "OldMat":
        return _old_mat(tuple(tuple([-a for a in row]) for row in self.entries))

    def __matmul__(self, other: "OldMat") -> "OldMat":
        n = self.n
        right = [
            [(k, b) for k, b in enumerate(row) if b.re_num or b.im_num]
            for row in other.entries
        ]
        out = []
        for row in self.entries:
            acc: list[GaussRational | None] = [None] * n
            for a, nonzero in zip(row, right):
                if nonzero and (a.re_num or a.im_num):
                    for k, b in nonzero:
                        s = acc[k]
                        acc[k] = a * b if s is None else s + a * b
            out.append(tuple([GR_ZERO if s is None else s for s in acc]))
        return _old_mat(tuple(out))

    def scale(self, c) -> "OldMat":
        c = GaussRational.coerce(c)
        return _old_mat(tuple(tuple([a * c for a in row]) for row in self.entries))

    def is_zero(self) -> bool:
        return all(a.is_zero() for row in self.entries for a in row)

    def trace(self) -> GaussRational:
        t = GR_ZERO
        for i in range(self.n):
            t = t + self.entries[i][i]
        return t

    def traceless_part(self) -> "OldMat":
        t = self.trace().scale(Fraction(1, self.n))
        return self - OldMat.identity(self.n).scale(t)

    def conjugate_transpose(self) -> "OldMat":
        return _old_mat(
            tuple(tuple([GaussRational(a.re, -a.im) for a in col]) for col in zip(*self.entries))
        )

    def is_hermitian(self) -> bool:
        return self.entries == self.conjugate_transpose().entries

    def flatten(self) -> list[GaussRational]:
        return [a for row in self.entries for a in row]

    @staticmethod
    def unflatten(vec: Mapping[int, GaussRational], n: int) -> "OldMat":
        return OldMat([[vec.get(i * n + j, GR_ZERO) for j in range(n)] for i in range(n)])


def random_gauss(rng: random.Random, span: int = 4) -> GaussRational:
    return GaussRational.of(
        Fraction(rng.randint(-span, span), rng.randint(1, 3)),
        Fraction(rng.randint(-span, span), rng.randint(1, 3)),
    )


def random_poly(
    gens: GeneratorSet,
    rng: random.Random,
    degree: int = 3,
    terms: int = 4,
    theta_max: int = 0,
) -> Poly:
    out = Poly.zero(gens)
    for _ in range(terms):
        exps = [0] * len(gens)
        for _ in range(rng.randint(0, degree)):
            exps[rng.randrange(len(gens))] += 1
        coeff = Scalar.from_gauss(random_gauss(rng), rng.randint(0, theta_max))
        out = out + Poly(gens, {tuple(exps): coeff})
    return out


def random_mat(rng: random.Random, n: int, span: int = 3) -> Mat:
    return Mat(
        [[random_gauss(rng, span) for _ in range(n)] for _ in range(n)]
    )


def random_hermitian(rng: random.Random, n: int, span: int = 3) -> Mat:
    m = random_mat(rng, n, span)
    return m + m.conjugate_transpose()


def old_biderivation_system(n: int) -> SparseEliminator:
    """The reference system for `quantum.biderivation_solver(n)`: the two
    Leibniz rules of a bracket on Mat_n on all basis triples, one row per
    scalar equation on the n^6 unknowns T[a][b] = {E_a, E_b}, entry (g, h)
    at column ((a*d + b)*n + g)*n + h with d = n^2.  Its 8,586 rows at
    n = 3 are mostly one-entry ("unknown = 0"), which the eliminator's
    tests count."""
    if n < 1:
        raise ValueError("matrix size n must be >= 1")
    if n > 4:
        raise ValueError("solver is sized for n <= 4")
    d = n * n
    ncols = d * d * n * n

    def col(a: int, b: int, g: int, h: int) -> int:
        return ((a * d + b) * n + g) * n + h

    def idx(i: int, j: int) -> int:
        return i * n + j

    def add(row: dict[int, int], colid: int, val: int):
        row[colid] = row.get(colid, 0) + val

    def equation(row: dict[int, int]):
        row = {c: (v, 0) for c, v in row.items() if v}
        if row:
            elim.add_row(row)

    elim = SparseEliminator(ncols)
    pairs = [(i, j) for i in range(n) for j in range(n)]
    for ai, aj in pairs:
        for bi, bj in pairs:
            for ci, cj in pairs:
                a, b, c = idx(ai, aj), idx(bi, bj), idx(ci, cj)
                for g in range(n):
                    for h in range(n):
                        # {E_a E_b, E_c} = E_a {E_b, E_c} + {E_a, E_c} E_b
                        row: dict[int, int] = {}
                        if aj == bi:
                            add(row, col(idx(ai, bj), c, g, h), 1)
                        if g == ai:  # (E_a T[b][c])_{gh} = T[b][c]_{aj,h}
                            add(row, col(b, c, aj, h), -1)
                        if h == bj:  # (T[a][c] E_b)_{gh} = T[a][c]_{g,bi}
                            add(row, col(a, c, g, bi), -1)
                        equation(row)
                        # {E_a, E_b E_c} = {E_a, E_b} E_c + E_b {E_a, E_c}
                        row = {}
                        if bj == ci:
                            add(row, col(a, idx(bi, cj), g, h), 1)
                        if h == cj:  # (T[a][b] E_c)_{gh} = T[a][b]_{g,ci}
                            add(row, col(a, b, g, ci), -1)
                        if g == bi:  # (E_b T[a][c])_{gh} = T[a][c]_{bj,h}
                            add(row, col(a, c, bj, h), -1)
                        equation(row)
    return elim


def old_commutator_columns(mats: Sequence[Mat]) -> list[tuple[dict, int]]:
    """The reference for the commutant and exactness columns: the map
    f -> ([f, mats[t]])_t on Mat_n built entry by entry, one column per
    entry f_{pq} (row-major), keyed by (t, i, j) for entry (i, j) of
    [E_pq, mats[t]] = E_pq m - m E_pq: row q of m moved to row p, less
    column p of m moved to column q, over the lcm of the denominators."""
    n = mats[0].n
    den = lcm(*(m.den for m in mats))
    rows = [[[] for _ in range(n)] for _ in mats]  # rows[t][i]: the (j, entry) of row i
    cols = [[[] for _ in range(n)] for _ in mats]  # cols[t][j]: the (i, entry) of column j
    for t, m in enumerate(mats):
        f = den // m.den
        for p, (x, y) in m.flatten()[0].items():
            i, j = divmod(p, n)
            v = (x * f, y * f)
            rows[t][i].append((j, v))
            cols[t][j].append((i, v))
    columns = []
    for p in range(n):
        for q in range(n):
            col: dict[tuple[int, int, int], tuple[int, int]] = {}
            for t in range(len(mats)):
                for j, v in rows[t][q]:
                    col[t, p, j] = v
                for i, (x, y) in cols[t][p]:
                    old = col.get((t, i, q), (0, 0))
                    col[t, i, q] = (old[0] - x, old[1] - y)
            columns.append(({key: v for key, v in col.items() if v[0] or v[1]}, den))
    return columns


def old_ad_table(g: Mat, f: int) -> list[tuple[list, list]]:
    """The reference for `matrices._ad_table`: the nested table that walked
    every one of the n^2 source entries.  For each source q = (r, c), the
    terms (q', t) with [A, g][q'] += A[q] t, as the list of the real parts t
    and the list of the imaginary parts, on the numerators of g times f.
    A[r][c] adds g[c][k] to entry (r, k) and -g[l][r] to entry (l, c); the
    two meet only at (r, c), as g[c][c] - g[r][r]."""
    n = g.n
    parts = [[] for _ in range(n * n)], [[] for _ in range(n * n)]
    for terms, values in zip(parts, (g.re, g.im)):
        for p, x in enumerate(values):
            if x and p % (n + 1):
                l, k = divmod(p, n)
                for m in range(n):
                    terms[m * n + l].append((m * n + k, x * f))
                    terms[k * n + m].append((l * n + m, -x * f))
        diag = values[:: n + 1]
        for q in range(n * n) if any(diag) else ():
            r, c = divmod(q, n)
            if diag[c] != diag[r]:
                terms[q].append((q, (diag[c] - diag[r]) * f))
    return list(zip(*parts))


def old_commutator_bracket_vector(n: int) -> dict[int, GaussRational]:
    """The commutator bracket on Mat_n in the layout of
    `quantum.biderivation_solver`: its n^6 entries [E_a, E_b]_gh in key
    order, (a*d + b)*d + g*n + h with d = n^2, the zero ones left out."""
    basis = full_matrix_basis(n)
    entries = [
        x for a in basis for b in basis for row in (a @ b - b @ a).entries for x in row
    ]
    return {key: x for key, x in enumerate(entries) if not x.is_zero()}


def unit_kernel(elim: SparseEliminator) -> list[dict[int, GaussRational]]:
    """The kernel basis of rows fed to the eliminator directly, each column
    at scale 1."""
    return elim.kernel_basis([1] * elim.ncols)


def old_solve_columns(
    columns: Sequence[Mapping[Hashable, GaussRational]],
    targets: Sequence[Mapping[Hashable, GaussRational]] | None,
) -> list[list[GaussRational] | None]:
    """The reference for `linalg.solve_columns`: the front end that took
    Q(i) columns, cleared each equation row of its denominators by their
    lcm and padded every answer to a dense list."""
    ncols = len(columns)
    rows: dict[Hashable, dict[int, GaussRational]] = {}
    for j, col in enumerate([*columns, *(targets or ())]):
        for key, v in col.items():
            if not v.is_zero():
                rows.setdefault(key, {})[j] = v
    elim = SparseEliminator(ncols)
    for row in rows.values():
        den = lcm(*(v.den for v in row.values()))
        elim.add_row(
            {j: (v.re_num * (den // v.den), v.im_num * (den // v.den)) for j, v in row.items()}
        )

    def dense(vec):
        return [vec.get(c, GR_ZERO) for c in range(ncols)]

    if targets is None:
        return [dense(v) for v in unit_kernel(elim)]
    units = [1] * (ncols + len(targets))
    return [None if s is None else dense(s) for s in elim.solve(len(targets), units)]


OLD_EXPM_TOL = 1e-12  # eigen-residual (relative) and last Taylor term of old_expm


def old_expm(m: np.ndarray) -> np.ndarray:
    """The reference for `derivations._expm`: the matrix exponential by
    eigendecomposition, accepted by its residual, with a scaling-and-squaring
    Taylor fallback that stops at an absolute OLD_EXPM_TOL; a ValueError
    naming --t when m = t c or e^m is not a finite float matrix."""
    import numpy as np

    with np.errstate(over="ignore", invalid="ignore"):
        norm = float(np.linalg.norm(m, ord=np.inf))
        if not math.isfinite(norm):
            raise ValueError("--t: t c is beyond the float range")
        out = None
        try:
            w, v = np.linalg.eig(m)
            vi = np.linalg.inv(v)
            if np.linalg.norm(v @ np.diag(w) @ vi - m) <= OLD_EXPM_TOL * max(1.0, np.linalg.norm(m)):
                out = (v * np.exp(w)) @ vi
        except np.linalg.LinAlgError:
            pass
        if out is None:
            # Scaling and squaring on the Taylor series (small dense matrices only).
            s = max(0, int(math.ceil(math.log2(norm))) + 1) if norm > 0 else 0
            a = m * 0.5**s
            out = np.eye(m.shape[0], dtype=complex)
            term = np.eye(m.shape[0], dtype=complex)
            for k in range(1, 40):
                term = term @ a / k
                out = out + term
                if np.linalg.norm(term, ord=np.inf) < OLD_EXPM_TOL:
                    break
            for _ in range(s):
                out = out @ out
    if not np.isfinite(out).all():
        raise ValueError("--t: e^(t c) is beyond the float range")
    return out


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240917)


# -- hypothesis strategies -------------------------------------------------

small_fractions = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=3
)


def gauss_rationals():
    return st.builds(GaussRational.of, small_fractions, small_fractions)


def scalars(theta_max: int = 2):
    return st.builds(
        lambda items: Scalar(
            {k: c for k, c in items}
        ),
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=theta_max), gauss_rationals()),
            max_size=3,
        ),
    )


def polys(gens: GeneratorSet, degree: int = 3, max_terms: int = 4, theta_max: int = 1):
    exp_strategy = st.lists(
        st.integers(min_value=0, max_value=degree),
        min_size=len(gens),
        max_size=len(gens),
    ).filter(lambda e: sum(e) <= degree)

    def build(items):
        out = Poly.zero(gens)
        for exps, coeff in items:
            out = out + Poly(gens, {tuple(exps): coeff})
        return out

    return st.builds(
        build,
        st.lists(st.tuples(exp_strategy, scalars(theta_max)), max_size=max_terms),
    )
