"""Finite-level quantum systems on B(C^N).

Inner derivations and Heisenberg evolution, commutants by exact linear
solves, invariance of subalgebras under a Hamiltonian, the block split of
a block-diagonal dynamics into commuting inner derivations, and the
solver showing every bracket that is Leibniz in both slots is a central
multiple of the commutator.  Hermiticity of a Hamiltonian is decided
exactly (float JSON entries embed exactly), so only `evolve`, the one
exponential, computes in floats.

A `MatrixSubspace` answers every question about its span in one exact
solve: membership, and the coordinates that also give the structure
constants of `diffcalc.DerivationBasis`.
"""

from __future__ import annotations

from typing import Sequence

from .linalg import SparseEliminator, solve_columns
from .matrices import Mat, full_matrix_basis
from .report import Verdict
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

    def coordinates(self, mats: Sequence[Mat]) -> list[list[GaussRational] | None]:
        """The coordinates of every matrix in mats in the basis, or None for
        one outside the span, all in one elimination."""
        return solve_columns(_vectors(self.basis), _vectors(mats))

    def contains_each(self, mats: Sequence[Mat]) -> list[bool]:
        """Membership of every matrix in mats, decided in one elimination."""
        return [x is not None for x in self.coordinates(mats)]

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


def invariance_check(h: Mat, space: MatrixSubspace) -> Verdict:
    """Does ad_H map the subspace into itself?  Exact membership of [b, H]
    for every basis b, in one solve; the first b outside is the witness."""
    images = space.contains_each([commutator(b, h) for b in space.basis])
    for b, inside in zip(space.basis, images):
        if not inside:
            return Verdict(False, b)
    return Verdict(True)


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
    Leibniz in both slots; a ValueError naming --n when n is outside 1..4.

    Unknowns are the matrix values T[a][b] = {E_a, E_b} on the standard
    basis E_a = E_{ai,aj}, a = ai*n + aj, n^6 of them: unknown (a, b, g, h),
    entry (g, h) of T[a][b], is column (a*d + b)*d + g*n + h with d = n^2.
    The two Leibniz rules on all basis triples give an extremely sparse
    homogeneous system: each scalar equation is built once as a row of at
    most three entries with small integer coefficients, and a row whose
    terms all cancel is not given.
    """
    if not 1 <= n <= 4:
        raise ValueError(f"--n: matrix size must be in 1..4 for the biderivation solver, got {n}")
    d = n * n
    elim = SparseEliminator(d * d * d)
    add_row = elim.add_row
    for a in range(d):
        ai, aj = divmod(a, n)
        for b in range(d):
            bi, bj = divmod(b, n)
            for c in range(d):
                ci, cj = divmod(c, n)
                # first columns of T[E_a E_b][c] and T[a][E_b E_c] (-1 where
                # that product is 0) and of T[a][c], row aj of T[b][c] and
                # column ci of T[a][b].  A term on a column the row already
                # holds adds to it, and may cancel it (as when ai == aj == bi).
                ab_c = ((ai * n + bj) * d + c) * d if aj == bi else -1
                b_c = (b * d + c) * d + aj * n
                a_c = (a * d + c) * d
                a_bc = (a * d + bi * n + cj) * d if bj == ci else -1
                a_b = (a * d + b) * d + ci
                for g in range(n):
                    gn = g * n
                    for h in range(n):
                        # {E_a E_b, E_c} = E_a {E_b, E_c} + {E_a, E_c} E_b
                        row = {}
                        if ab_c >= 0:
                            row[ab_c + gn + h] = (1, 0)
                        if g == ai:  # (E_a T[b][c])_{gh} = T[b][c]_{aj,h}
                            k = b_c + h
                            v = row.pop(k, (0, 0))[0] - 1
                            if v:
                                row[k] = (v, 0)
                        if h == bj:  # (T[a][c] E_b)_{gh} = T[a][c]_{g,bi}
                            k = a_c + gn + bi
                            v = row.pop(k, (0, 0))[0] - 1
                            if v:
                                row[k] = (v, 0)
                        if row:
                            add_row(row)
                        # {E_a, E_b E_c} = {E_a, E_b} E_c + E_b {E_a, E_c}
                        row = {}
                        if a_bc >= 0:
                            row[a_bc + gn + h] = (1, 0)
                        if h == cj:  # (T[a][b] E_c)_{gh} = T[a][b]_{g,ci}
                            k = a_b + gn
                            v = row.pop(k, (0, 0))[0] - 1
                            if v:
                                row[k] = (v, 0)
                        if g == bi:  # (E_b T[a][c])_{gh} = T[a][c]_{bj,h}
                            k = a_c + bj * n + h
                            v = row.pop(k, (0, 0))[0] - 1
                            if v:
                                row[k] = (v, 0)
                        if row:
                            add_row(row)
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
