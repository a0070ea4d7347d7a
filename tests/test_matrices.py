"""Exact matrices: size checks, the nonzero-entry product against a dense
reference, and the tuple-of-tuples invariant of every arithmetic result."""

import random

import pytest

from aldyn.matrices import Mat
from aldyn.scalars import GR_I, GR_ZERO, GaussRational

from conftest import random_gauss


def ref_matmul(x: Mat, y: Mat) -> Mat:
    """The dense triple loop: every entry product tested for zero."""
    cols = list(zip(*y.entries))
    out = []
    for row in x.entries:
        out_row = []
        for col in cols:
            s = GR_ZERO
            for a, b in zip(row, col):
                if not (a.is_zero() or b.is_zero()):
                    s = s + a * b
            out_row.append(s)
        out.append(out_row)
    return Mat(out)


def sparse_random_mat(rng: random.Random, n: int) -> Mat:
    """Random Q(i) entries, about half of them zero, with a zero row and a
    zero column planted at random."""
    rows = [
        [random_gauss(rng) if rng.random() < 0.5 else GR_ZERO for _ in range(n)]
        for _ in range(n)
    ]
    zero_row, zero_col = rng.randrange(n), rng.randrange(n)
    rows[zero_row] = [GR_ZERO] * n
    for row in rows:
        row[zero_col] = GR_ZERO
    return Mat(rows)


def dense_random_mat(rng: random.Random, n: int) -> Mat:
    return Mat([[random_gauss(rng) for _ in range(n)] for _ in range(n)])


class TestSizeChecks:
    def test_public_constructor_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            Mat([[GR_ZERO, GR_ZERO]])
        with pytest.raises(ValueError, match="square"):
            Mat.from_rows([[1, 2], [3]])

    @pytest.mark.parametrize("op", ["__add__", "__sub__", "__matmul__"])
    def test_binary_ops_reject_size_mismatch(self, op):
        with pytest.raises(ValueError, match="size mismatch"):
            getattr(Mat.identity(2), op)(Mat.identity(3))


class TestMatmul:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_dense_reference(self, n):
        rng = random.Random(7000 + n)
        makers = (sparse_random_mat, dense_random_mat)
        for _ in range(6):
            for make_x in makers:
                for make_y in makers:
                    x, y = make_x(rng, n), make_y(rng, n)
                    assert x @ y == ref_matmul(x, y)

    def test_cancelling_products_give_zero_entries(self):
        x = Mat.from_rows([[1, 1], [0, 0]])
        y = Mat.from_rows([[1, 0], [-1, 0]])
        assert x @ y == Mat.zero(2)
        assert (x @ y).is_zero()


class TestTrustedResults:
    """Every arithmetic result is a tuple of row tuples of GaussRational,
    equal to and hashing like the public construction of its values."""

    @staticmethod
    def assert_canonical(m: Mat):
        assert type(m.entries) is tuple
        assert all(type(row) is tuple and len(row) == m.n for row in m.entries)
        assert all(type(a) is GaussRational for row in m.entries for a in row)
        rebuilt = Mat.from_rows([list(row) for row in m.entries])
        assert m == rebuilt
        assert hash(m) == hash(rebuilt)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_arithmetic_results(self, n):
        rng = random.Random(9000 + n)
        x, y = sparse_random_mat(rng, n), dense_random_mat(rng, n)
        c = random_gauss(rng)
        for result in (
            x + y,
            x - y,
            -x,
            x @ y,
            y @ x,
            x.scale(c),
            x.scale(2),
            y.conjugate_transpose(),
            y.traceless_part(),
            Mat.zero(n),
            Mat.identity(n),
        ):
            self.assert_canonical(result)

    def test_conjugate_transpose(self):
        m = Mat([[GR_I, GaussRational.of(2)], [GaussRational.of(3, 4), GR_ZERO]])
        assert m.conjugate_transpose() == Mat(
            [[-GR_I, GaussRational.of(3, -4)], [GaussRational.of(2), GR_ZERO]]
        )
