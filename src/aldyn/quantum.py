"""Finite-level quantum systems on B(C^N).

Inner derivations and Heisenberg evolution, commutants by exact linear
solves, invariance of subalgebras under a Hamiltonian, the block split of
a block-diagonal dynamics into commuting inner derivations, and the
solver showing every bracket that is Leibniz in both slots is a central
multiple of the commutator.  Hermiticity of a Hamiltonian is decided
exactly (float JSON entries embed exactly), so only `evolve`, the one
exponential, computes in floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .linalg import SparseEliminator, solve_columns
from .matrices import Mat, full_matrix_basis
from .scalars import GR_I, GR_ZERO, GaussRational, to_float


def commutator(a: Mat, b: Mat) -> Mat:
    """[a, b] = ab - ba."""
    return a @ b - b @ a


def _require_hermitian(h: Mat):
    if not h.is_hermitian():
        raise ValueError("Hamiltonian must be Hermitian")


def heisenberg_derivative(a: Mat, h: Mat) -> Mat:
    """The Heisenberg equation right-hand side: -i [a, H]."""
    _require_hermitian(h)
    return commutator(a, h).scale(-GR_I)


def evolve(a: Mat, h: Mat, t: float) -> np.ndarray:
    """Heisenberg evolution a(t) = e^{i t H} a e^{-i t H} (floating point);
    a ValueError naming --t when a phase t w (w an eigenvalue of H) is not
    a finite float."""
    import numpy as np

    _require_hermitian(h)
    w, v = np.linalg.eigh(h.to_numpy())
    # Python float products overflow to inf without a numpy warning.
    to_float(t * max(map(abs, w.tolist()), default=0.0), "--t (phase t * w)")
    phase = np.exp(1j * t * w)
    u = (v * phase) @ v.conj().T          # e^{itH}
    return u @ a.to_numpy() @ u.conj().T


def _vectors(mats: Sequence[Mat]) -> list[dict[int, GaussRational]]:
    """Each matrix as a column keyed by its row-major entry index."""
    return [dict(enumerate(m.flatten())) for m in mats]


class MatrixSubspace:
    """A linear subspace of Mat_n with a verified independent basis; each
    question about it is one exact solve for all the matrices it asks
    about."""

    __slots__ = ("n", "basis")

    def __init__(self, basis: Sequence[Mat]):
        basis = list(basis)
        if not basis:
            raise ValueError("subspace needs at least one basis element")
        n = basis[0].n
        if any(b.n != n for b in basis):
            raise ValueError("mixed matrix sizes")
        if solve_columns(_vectors(basis), None):
            raise ValueError("basis matrices are linearly dependent")
        self.n = n
        self.basis = basis

    def dimension(self) -> int:
        return len(self.basis)

    def contains_each(self, mats: Sequence[Mat]) -> list[bool]:
        """Membership of every matrix in mats, decided in one elimination."""
        return [x is not None for x in solve_columns(_vectors(self.basis), _vectors(mats))]

    def contains(self, m: Mat) -> bool:
        return self.contains_each([m])[0]

    def is_closed(self) -> bool:
        """Closure under products and commutators: every x y of basis
        elements, decided in one elimination.  A commutator x y - y x is a
        difference of two products and the span is linear, so the products
        decide the commutators too."""
        return all(self.contains_each([x @ y for x in self.basis for y in self.basis]))

    def span_equals(self, other: "MatrixSubspace") -> bool:
        return (
            self.n == other.n
            and self.dimension() == other.dimension()
            and all(self.contains_each(other.basis))
        )

    @staticmethod
    def block_algebra(n: int, k: int) -> "MatrixSubspace":
        """The top-left k x k corner embedded in Mat_n."""
        if not 0 < k < n:
            raise ValueError("need 0 < k < n")
        return MatrixSubspace(
            [Mat.basis_elt(n, i, j) for i in range(k) for j in range(k)]
        )

    def to_json(self) -> list:
        return [b.to_json() for b in self.basis]

    @staticmethod
    def from_json(data) -> "MatrixSubspace":
        return MatrixSubspace([Mat.from_json(m) for m in data])


def commutator_columns(mats: Sequence[Mat]) -> list[dict]:
    """Columns of the linear map f -> ([f, mats[t]])_t on Mat_n.

    One column per entry f_{pq} (row-major), keyed by (t, i, j) for entry
    (i, j) of [E_pq, mats[t]] = E_pq m - m E_pq.
    """
    n = mats[0].n
    columns = []
    for p in range(n):
        for q in range(n):
            col: dict[tuple[int, int, int], GaussRational] = {}
            for t, m in enumerate(mats):
                e = m.entries
                for j in range(n):
                    col[(t, p, j)] = e[q][j]
                for i in range(n):
                    col[(t, i, q)] = col.get((t, i, q), GR_ZERO) - e[i][p]
            columns.append(col)
    return columns


def commutant(space: MatrixSubspace) -> MatrixSubspace:
    """All f with [f, b] = 0 for every basis b, by an exact linear solve.

    The returned basis spans the full commutant; it is closed under
    products and commutators by construction.
    """
    kernel = solve_columns(commutator_columns(space.basis), None)
    if not kernel:
        raise RuntimeError("commutant is never empty (identity commutes)")
    return MatrixSubspace([Mat.unflatten(v, space.n) for v in kernel])


@dataclass
class InvarianceReport:
    ok: bool
    witness: Mat | None = None


def invariance_check(h: Mat, space: MatrixSubspace) -> InvarianceReport:
    """Does ad_H map the subspace into itself?  Exact membership of [b, H]
    for every basis b, in one solve; the first b outside is the witness."""
    images = space.contains_each([commutator(b, h) for b in space.basis])
    for b, inside in zip(space.basis, images):
        if not inside:
            return InvarianceReport(False, b)
    return InvarianceReport(True)


class InnerDerivation:
    """a -> [a, X]; canonicalized by the traceless part of X."""

    __slots__ = ("x",)

    def __init__(self, x: Mat):
        self.x = x.traceless_part()

    def __call__(self, a: Mat) -> Mat:
        return commutator(a, self.x)

    def __eq__(self, other) -> bool:
        if not isinstance(other, InnerDerivation):
            return NotImplemented
        return self.x == other.x

    def __add__(self, other: "InnerDerivation") -> "InnerDerivation":
        return InnerDerivation(self.x + other.x)

    def commutes_with(self, other: "InnerDerivation") -> bool:
        """[ad_X, ad_Y] = ad_[Y,X]; zero iff [X, Y] is central."""
        return commutator(self.x, other.x).traceless_part().is_zero()


def is_block_diagonal(h: Mat, k: int) -> bool:
    for i in range(h.n):
        for j in range(h.n):
            if (i < k) != (j < k) and not h.entries[i][j].is_zero():
                return False
    return True


def block_split(h: Mat, k: int) -> tuple[InnerDerivation, InnerDerivation]:
    """Split ad_H of a block-diagonal H into the two commuting block parts."""
    if not 0 < k < h.n:
        raise ValueError("need 0 < k < n")
    if not is_block_diagonal(h, k):
        raise ValueError(f"H is not block-diagonal at block size {k}")
    top = [
        [h.entries[i][j] if (i < k and j < k) else GR_ZERO for j in range(h.n)]
        for i in range(h.n)
    ]
    bottom = [
        [h.entries[i][j] if (i >= k and j >= k) else GR_ZERO for j in range(h.n)]
        for i in range(h.n)
    ]
    return InnerDerivation(Mat(top)), InnerDerivation(Mat(bottom))


def biderivation_system(n: int) -> SparseEliminator:
    """The eliminator holding every equation on brackets on Mat_n that are
    Leibniz in both slots.

    Unknowns are the matrix values T[a][b] = {E_a, E_b} on the standard
    basis, n^6 of them, unknown (a, b, g, h) for entry (g,h) of {E_a, E_b};
    the two Leibniz rules on all basis triples give an extremely sparse
    homogeneous system (at most three unknown entries per scalar equation,
    with small integer coefficients).
    """
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


def biderivation_solver(n: int) -> list[dict]:
    """Solution space of brackets on Mat_n that are Leibniz in both slots,
    eliminated exactly: each solution is a sparse coefficient dict keyed as
    the unknowns of `biderivation_system`."""
    return biderivation_system(n).kernel_basis()


def commutator_bracket_vector(n: int) -> dict:
    """The commutator bracket in the solver's coordinate layout."""
    if n < 1:
        raise ValueError("matrix size n must be >= 1")
    d = n * n
    basis = full_matrix_basis(n)
    out = {}
    for a in range(d):
        for b in range(d):
            c = commutator(basis[a], basis[b])
            for g in range(n):
                for h in range(n):
                    v = c.entries[g][h]
                    if not v.is_zero():
                        out[((a * d + b) * n + g) * n + h] = v
    return out
