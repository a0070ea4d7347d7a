"""Exact square matrices over Q(i); `to_numpy`, the bridge for numerics,
imports numpy on demand.

All algebraic decisions (ranks, commutants, solver systems) run on exact
Gaussian-rational entries; only exponentials go through floating point.

A ``Mat`` holds its entries as a tuple of row tuples.  The public
constructor copies and checks its input; every arithmetic result (``+``,
``-``, negation, ``@``, ``scale``, ``conjugate_transpose``) is built by the
trusted ``_mat``, which takes a square tuple of tuples as it is.  ``@``
lists the nonzero entries of each row of the right factor once per
product and multiplies only nonzero pairs.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .scalars import GR_I, GR_ONE, GR_ZERO, GaussRational, fraction_from_str

_object_new = object.__new__


def _mat(rows: tuple[tuple[GaussRational, ...], ...]) -> "Mat":
    """A Mat that owns ``rows`` as given: a square tuple of tuples of
    GaussRational (the arithmetic results)."""
    m = _object_new(Mat)
    m.n = len(rows)
    m.entries = rows
    return m


class Mat:
    """Immutable n x n matrix with GaussRational entries."""

    __slots__ = ("n", "entries")

    def __init__(self, entries: Sequence[Sequence[GaussRational]]):
        rows = tuple(tuple(row) for row in entries)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("matrix must be square")
        self.n = n
        self.entries = rows

    # -- constructors ------------------------------------------------

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "Mat":
        return Mat([[GaussRational.coerce(x) for x in row] for row in rows])

    @staticmethod
    def zero(n: int) -> "Mat":
        return _mat(((GR_ZERO,) * n,) * n)

    @staticmethod
    def identity(n: int) -> "Mat":
        return _mat(
            tuple(
                tuple(GR_ONE if i == j else GR_ZERO for j in range(n))
                for i in range(n)
            )
        )

    @staticmethod
    def basis_elt(n: int, i: int, j: int) -> "Mat":
        rows = [[GR_ZERO] * n for _ in range(n)]
        rows[i][j] = GR_ONE
        return Mat(rows)

    @staticmethod
    def diag(values: Sequence) -> "Mat":
        n = len(values)
        m = [[GR_ZERO] * n for _ in range(n)]
        for i, v in enumerate(values):
            m[i][i] = GaussRational.coerce(v)
        return Mat(m)

    # -- arithmetic --------------------------------------------------

    def __add__(self, other: "Mat") -> "Mat":
        self._check(other)
        return _mat(
            tuple(
                tuple([a + b for a, b in zip(r1, r2)])
                for r1, r2 in zip(self.entries, other.entries)
            )
        )

    def __sub__(self, other: "Mat") -> "Mat":
        self._check(other)
        return _mat(
            tuple(
                tuple([a - b for a, b in zip(r1, r2)])
                for r1, r2 in zip(self.entries, other.entries)
            )
        )

    def __neg__(self) -> "Mat":
        return _mat(tuple(tuple([-a for a in row]) for row in self.entries))

    def __matmul__(self, other: "Mat") -> "Mat":
        self._check(other)
        n = self.n
        # (k, b) for each nonzero b = other[j][k], per row j
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
        return _mat(tuple(out))

    def scale(self, c: GaussRational | int | Fraction) -> "Mat":
        c = GaussRational.coerce(c)
        return _mat(tuple(tuple([a * c for a in row]) for row in self.entries))

    def _check(self, other: "Mat"):
        if self.n != other.n:
            raise ValueError(f"matrix size mismatch: {self.n} vs {other.n}")

    # -- queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return all(a.is_zero() for row in self.entries for a in row)

    def trace(self) -> GaussRational:
        t = GR_ZERO
        for i in range(self.n):
            t = t + self.entries[i][i]
        return t

    def traceless_part(self) -> "Mat":
        t = self.trace().scale(Fraction(1, self.n))
        return self - Mat.identity(self.n).scale(t)

    def conjugate_transpose(self) -> "Mat":
        return _mat(
            tuple(tuple([a.conjugate() for a in col]) for col in zip(*self.entries))
        )

    def is_hermitian(self) -> bool:
        return self == self.conjugate_transpose()

    def flatten(self) -> list[GaussRational]:
        return [a for row in self.entries for a in row]

    @staticmethod
    def unflatten(vec: Sequence[GaussRational], n: int) -> "Mat":
        if len(vec) != n * n:
            raise ValueError("vector length mismatch")
        return Mat([[vec[i * n + j] for j in range(n)] for i in range(n)])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat):
            return NotImplemented
        return self.n == other.n and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

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

        return np.array(
            [
                [a.to_complex(f"{path}/entries/{i}/{j}") for j, a in enumerate(row)]
                for i, row in enumerate(self.entries)
            ],
            dtype=complex,
        )

    # -- json --------------------------------------------------------

    def to_json(self) -> dict:
        return {"n": self.n, "entries": [[a.to_json() for a in row] for row in self.entries]}

    @staticmethod
    def from_json(data: Mapping) -> "Mat":
        def part(x) -> Fraction:
            # "p/q" strings are exact; JSON numbers embed as exact dyadics.
            return fraction_from_str(x) if isinstance(x, str) else Fraction(float(x))

        m = Mat(
            [
                [GaussRational(part(cell["re"]), part(cell["im"])) for cell in row]
                for row in data["entries"]
            ]
        )
        if m.n != int(data["n"]):
            raise ValueError("matrix size field does not match the entries")
        return m


def pauli() -> tuple[Mat, Mat, Mat]:
    """(sigma_x, sigma_y, sigma_z) with exact entries."""
    sx = Mat.from_rows([[0, 1], [1, 0]])
    sy = Mat([[GR_ZERO, -GR_I], [GR_I, GR_ZERO]])
    sz = Mat.from_rows([[1, 0], [0, -1]])
    return sx, sy, sz


def full_matrix_basis(n: int) -> list[Mat]:
    """The standard basis E_ij of Mat_n, row-major."""
    return [Mat.basis_elt(n, i, j) for i in range(n) for j in range(n)]
