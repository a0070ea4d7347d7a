"""Finite-level quantum systems on B(C^N).

Inner derivations and Heisenberg evolution, commutants by exact linear
solves, invariance of subalgebras under a Hamiltonian, the block split of
a block-diagonal dynamics into commuting inner derivations, and the
derivations and biderivations of any closed subspace.  Hermiticity of a
Hamiltonian is decided exactly (float JSON entries embed exactly), so
only `evolve`, the one exponential, computes in floats.

A `MatrixSubspace` answers every question about its span in one exact
solve: membership, and the coordinates that also give the structure
constants of `diffcalc.DerivationBasis` and its own `structure`.  Each
matrix enters a solve as its own numerators over its denominator
(`Mat.flatten`), the columns of a commutant are read off the flat ad
tables (`matrices._ad_table`) of the basis over the lcm of their
denominators, the images [b, H] of `invariance_check` off the one table of
H, and coordinates come back sparse.  The block queries read the numerators
too.  Two small kernels on those follow, `derivations` and
`biderivations`, each bracket in (a, b, m) coordinates, coordinate m of
B(e_a, e_b): on Mat_n the latter are the line of the commutator, whose
coordinates are c_ab^m - c_ba^m in the structure constants (Dirac's
argument; Bresar, Taiwanese J. Math. 8 (2004) 361).
"""

from __future__ import annotations

from collections import defaultdict
from math import lcm
from typing import Sequence

from .linalg import integer_column, solve_columns
from .matrices import Mat, _ad_column, _ad_columns, _ad_table, _reduced, full_matrix_basis
from .report import Verdict
from .scalars import GR_I, GaussRational, json_list, named, to_float


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


class MatrixSubspace:
    """A linear subspace of Mat_n with a verified independent basis; each
    question about it is one exact solve for all the matrices it asks
    about."""

    __slots__ = ("n", "basis", "_structure")

    def __init__(self, basis: Sequence[Mat]):
        basis = list(basis)
        if not basis:
            raise ValueError("subspace needs at least one basis element")
        n = basis[0].n
        if any(b.n != n for b in basis):
            raise ValueError("mixed matrix sizes")
        if solve_columns([b.flatten() for b in basis], None):
            raise ValueError("basis matrices are linearly dependent")
        self.n = n
        self.basis = basis
        self._structure = None

    def dimension(self) -> int:
        return len(self.basis)

    def coordinates(self, mats: Sequence[Mat]) -> list[dict[int, GaussRational] | None]:
        """The nonzero coordinates {k: c_k} of every matrix in mats in the
        basis, or None for one outside the span, all in one elimination."""
        return solve_columns([b.flatten() for b in self.basis], [m.flatten() for m in mats])

    def contains_each(self, mats: Sequence[Mat]) -> list[bool]:
        """Membership of every matrix in mats, decided in one elimination."""
        return [x is not None for x in self.coordinates(mats)]

    def contains(self, m: Mat) -> bool:
        return self.contains_each([m])[0]

    def structure(self) -> dict[tuple[int, int, int], GaussRational]:
        """The nonzero structure constants c_ab^k of e_a e_b = sum_k c_ab^k
        e_k, keyed (a, b, k), from all d^2 products in one elimination made
        once per space; a ValueError when the span is not closed under products."""
        if self._structure is None:
            d = self.dimension()
            coords = self.coordinates([x @ y for x in self.basis for y in self.basis])
            if None in coords:
                raise ValueError("the span is not closed under products")
            self._structure = {
                (*divmod(ab, d), k): c for ab, row in enumerate(coords) for k, c in row.items()}
        return dict(self._structure)

    def is_closed(self) -> bool:
        """Closure under products, so under commutators xy - yx: `structure` succeeds."""
        try:
            self.structure()
        except ValueError:
            return False
        return True

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
    def from_json(data, path: str = "subspace") -> "MatrixSubspace":
        """A list of matrices (``Mat.from_json``); malformed input is a
        ValueError naming `path`, the path of data, or the path below it."""
        basis = [Mat.from_json(m, f"{path}/{i}") for i, m in enumerate(json_list(data, path))]
        return named(path, MatrixSubspace, basis)


def commutant(space: MatrixSubspace) -> MatrixSubspace:
    """All f with [f, b] = 0 for every basis b, by an exact linear solve.

    The returned basis spans the full commutant; it is closed under
    products and commutators by construction.
    """
    den = lcm(*(b.den for b in space.basis))
    tables = [_ad_table(b, den // b.den) for b in space.basis]
    kernel = solve_columns(_ad_columns(tables, space.n, den), None)
    if not kernel:
        raise RuntimeError("commutant is never empty (identity commutes)")
    return MatrixSubspace([Mat.unflatten(v, space.n) for v in kernel])


def invariance_check(h: Mat, space: MatrixSubspace) -> Verdict:
    """Does ad_H map the subspace into itself?  Exact membership of [b, H]
    for every basis b, each read off the one ad table of H, in one solve;
    the first b outside is the witness."""
    if h.n != space.n:
        raise ValueError(f"matrix size mismatch: {space.n} vs {h.n}")
    table = _ad_table(h, 1)
    images = solve_columns(
        [b.flatten() for b in space.basis], [_ad_column(table, b, h.den) for b in space.basis]
    )
    for b, image in zip(space.basis, images):
        if image is None:
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
    """No nonzero numerator of h outside its top-left k x k and bottom-right
    (n - k) x (n - k) blocks."""
    n = h.n
    return not any(
        h.re[p] or h.im[p] for p in range(n * n) if (p // n < k) != (p % n < k)
    )


def block_split(h: Mat, k: int) -> tuple[InnerDerivation, InnerDerivation]:
    """Split ad_H of a block-diagonal H into the two commuting block parts:
    its first k rows are the top block, the others the bottom one."""
    n = h.n
    if not 0 < k < n:
        raise ValueError("need 0 < k < n")
    if not is_block_diagonal(h, k):
        raise ValueError(f"H is not block-diagonal at block size {k}")
    cut = k * n
    below, above = (0,) * (n * n - cut), (0,) * cut
    top = _reduced(n, h.re[:cut] + below, h.im[:cut] + below, h.den)
    bottom = _reduced(n, above + h.re[cut:], above + h.im[cut:], h.den)
    return InnerDerivation(top), InnerDerivation(bottom)


def derivations(space: MatrixSubspace) -> list[dict]:
    """A basis of the derivations D(xy) = D(x) y + x D(y) of a closed space,
    each as {(q, p): coordinate p of D(e_q)}: one kernel on d^2 unknowns.
    Equation (a, b, m) is coordinate m of D(e_a e_b) - D(e_a) e_b - e_a D(e_b);
    a constant c = c_ab^k enters it as c D(e_k)_x at (a, b, x), and through
    D(e_x) e_b and e_a D(e_x) as -c D(e_x)_a at (x, b, k) and -c D(e_x)_b at
    (a, x, k).  The constants are cleared of their denominators once."""
    d = space.dimension()
    constants, den = integer_column(space.structure())
    sums = [defaultdict(lambda: [0, 0]) for _ in range(d * d)]  # D(e_q)_p at q*d + p
    for (a, b, k), (x, y) in constants.items():
        for e in range(d):
            cell = sums[k * d + e][a, b, e]
            cell[0] += x
            cell[1] += y
            cell = sums[e * d + a][e, b, k]
            cell[0] -= x
            cell[1] -= y
            cell = sums[e * d + b][a, e, k]
            cell[0] -= x
            cell[1] -= y
    columns = [({key: (x, y) for key, (x, y) in col.items() if x or y}, den) for col in sums]
    kernel = solve_columns(columns, None)
    return [{divmod(j, d): x for j, x in v.items()} for v in kernel]


def biderivations(space: MatrixSubspace) -> tuple[list[dict], tuple[int, int, int]]:
    """A basis of the brackets B on a closed space that are Leibniz in both
    slots, each as {(a, b, m): coordinate m of B(e_a, e_b)}, and the
    (equations, unknowns, rank) of the system whose kernel it is.  B is
    Leibniz in its first slot when each B(., e_b) is a derivation, and in its
    second when each B(e_a, .) is: one kernel on the 2 d dim Der unknowns of
    B(., e_b) = sum_s alpha_bs D_s and B(e_a, .) = sum_s beta_as D_s, over a
    basis D_s of `derivations`, each cleared of its denominators once."""
    d = space.dimension()
    ders = derivations(space)
    ints = [integer_column(der) for der in ders]
    alpha = [
        ({(a, b, m): v for (a, m), v in der.items()}, den) for b in range(d) for der, den in ints
    ]
    beta = [
        ({(a, b, m): (-x, -y) for (b, m), (x, y) in der.items()}, den)
        for a in range(d) for der, den in ints
    ]
    columns = alpha + beta
    kernel = solve_columns(columns, None)
    brackets = []
    for v in kernel:
        bracket = defaultdict(GaussRational)
        for j, x in v.items():
            if j < len(alpha):  # alpha_bs at j = b * len(ders) + s
                b, s = divmod(j, len(ders))
                for (a, m), y in ders[s].items():
                    bracket[a, b, m] += x * y
        brackets.append({key: x for key, x in bracket.items() if not x.is_zero()})
    equations = len({key for col, _ in columns for key in col})
    return brackets, (equations, len(columns), len(columns) - len(kernel))


def biderivation_solver(n: int) -> list[dict]:
    """Solution space of brackets on Mat_n that are Leibniz in both slots,
    as sparse dicts on the n^6 unknowns T[a][b] = {E_a, E_b}, a = ai*n + aj
    for E_a = E_{ai,aj}: entry (g, h) of T[a][b] is key (a*d + b)*d + g*n + h
    with d = n^2.  The space is a line (0 at n = 1), so its vector scaled to
    1 at its largest key is reduced."""
    d = n * n
    sols = []
    for bracket in biderivations(MatrixSubspace(full_matrix_basis(n)))[0]:
        last = bracket[max(bracket)]
        sols.append({(a * d + b) * d + m: x / last for (a, b, m), x in bracket.items()})
    return sols
