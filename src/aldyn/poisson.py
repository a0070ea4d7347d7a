"""Poisson tensors with polynomial components, brackets and their checks.

The bracket is {f,g} = Lambda^{ab} d_a f d_b g; only the a < b components
are stored, antisymmetry fills in the rest.  Includes the Jacobi cyclic-sum
verifier, Hamiltonian vector fields, Lie-Poisson tensors for 3d Lie
algebras with Casimir checks, and the bounded-degree inverse searches
(given a dynamics, find a Hamiltonian or a tensor by one exact sparse
solve over the monomial coefficients, columns by exponent arithmetic).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Mapping, Sequence

from . import linalg
from .derivations import PolyDerivation
from .poly import GeneratorMismatch, GeneratorSet, Poly, monomials
from .poly import coefficient_column, derivation_columns, shifted_columns

DEFAULT_INVERSE_DEGREE_CAP = 6


class PoissonTensor:
    """Antisymmetric bivector with Poly components on a generator set."""

    __slots__ = ("gens", "components")

    def __init__(self, gens: GeneratorSet, components: Mapping[tuple[int, int], Poly]):
        self.gens = gens
        comp: dict[tuple[int, int], Poly] = {}
        for (a, b), poly in components.items():
            if a == b:
                if not poly.is_zero():
                    raise ValueError("diagonal components must vanish")
                continue
            if poly.gens != gens:
                raise GeneratorMismatch("component over a different generator set")
            if poly.is_zero():
                continue
            if a < b:
                comp[(a, b)] = comp.get((a, b), Poly.zero(gens)) + poly
            else:
                comp[(b, a)] = comp.get((b, a), Poly.zero(gens)) - poly
        self.components = {k: v for k, v in comp.items() if not v.is_zero()}

    @property
    def dim(self) -> int:
        return len(self.gens)

    def component(self, a: int, b: int) -> Poly:
        """Lambda^{ab} with antisymmetry applied."""
        if a == b:
            return Poly.zero(self.gens)
        if a < b:
            return self.components.get((a, b), Poly.zero(self.gens))
        return -self.components.get((b, a), Poly.zero(self.gens))

    @staticmethod
    def canonical(n_pairs: int) -> "PoissonTensor":
        """{q^a, p^b} = delta^{ab} on the phase-space generator set."""
        gens = GeneratorSet.phase_space(n_pairs)
        comps = {
            (a, n_pairs + a): Poly.one(gens) for a in range(n_pairs)
        }
        return PoissonTensor(gens, comps)

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "generators": self.gens.to_json(),
            "components": [
                {"a": a, "b": b, "poly": poly.to_json()}
                for (a, b), poly in sorted(self.components.items())
            ],
        }

    @staticmethod
    def from_json(data: Mapping) -> "PoissonTensor":
        if "generators" in data:
            gens = GeneratorSet.from_json(data["generators"])
        else:
            gens = GeneratorSet.plain([f"x{i+1}" for i in range(int(data["dim"]))])
        comps = {}
        for entry in data["components"]:
            comps[(int(entry["a"]), int(entry["b"]))] = Poly.from_json(entry["poly"])
        return PoissonTensor(gens, comps)


@dataclass(frozen=True)
class LieAlgebra3d:
    """3d Lie algebra by structure constants: [x_i, x_j] = sum_k c[i][j][k] x_k."""

    c: tuple  # c[i][j][k] as Fractions, antisymmetric in (i, j)

    @staticmethod
    def from_constants(c: Sequence[Sequence[Sequence]]) -> "LieAlgebra3d":
        tc = tuple(
            tuple(tuple(Fraction(x) for x in row) for row in plane) for plane in c
        )
        if len(tc) != 3 or any(len(p) != 3 or any(len(r) != 3 for r in p) for p in tc):
            raise ValueError("structure constants must be 3x3x3")
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    if tc[i][j][k] != -tc[j][i][k]:
                        raise ValueError("structure constants not antisymmetric in (i,j)")
        return LieAlgebra3d(tc)

    @staticmethod
    def su2() -> "LieAlgebra3d":
        c = [[[Fraction(0)] * 3 for _ in range(3)] for _ in range(3)]
        c[0][1][2], c[1][0][2] = Fraction(1), Fraction(-1)
        c[1][2][0], c[2][1][0] = Fraction(1), Fraction(-1)
        c[2][0][1], c[0][2][1] = Fraction(1), Fraction(-1)
        return LieAlgebra3d.from_constants(c)

    @staticmethod
    def heisenberg() -> "LieAlgebra3d":
        c = [[[Fraction(0)] * 3 for _ in range(3)] for _ in range(3)]
        c[0][1][2], c[1][0][2] = Fraction(1), Fraction(-1)
        return LieAlgebra3d.from_constants(c)

    @staticmethod
    def abelian() -> "LieAlgebra3d":
        c = [[[Fraction(0)] * 3 for _ in range(3)] for _ in range(3)]
        return LieAlgebra3d.from_constants(c)

    def to_json(self) -> dict:
        return {"c": [[[str(x) for x in row] for row in plane] for plane in self.c]}

    @staticmethod
    def from_json(data: Mapping) -> "LieAlgebra3d":
        return LieAlgebra3d.from_constants(data["c"])


def bracket(tensor: PoissonTensor, f: Poly, g: Poly) -> Poly:
    """{f,g} = Lambda^{ab} d_a f d_b g (sum over a < b with both signs)."""
    if f.gens != tensor.gens or g.gens != tensor.gens:
        raise GeneratorMismatch("polynomial over a different generator set")
    out = Poly.zero(tensor.gens)
    names = tensor.gens.names
    for (a, b), comp in tensor.components.items():
        fa, gb = f.partial(names[a]), g.partial(names[b])
        fb, ga = f.partial(names[b]), g.partial(names[a])
        term = fa * gb - fb * ga
        if not term.is_zero():
            out = out + comp * term
    return out


@dataclass
class JacobiReport:
    ok: bool
    witness: tuple[int, int, int] | None = None
    residual: Poly | None = None


def jacobi_check(tensor: PoissonTensor) -> JacobiReport:
    """Cyclic-sum polynomial identity over all index triples a < b < c."""
    names = tensor.gens.names
    n = tensor.dim
    for a, b, c in combinations(range(n), 3):
        residual = Poly.zero(tensor.gens)
        for k in range(n):
            for (i, j, l) in ((c, k, (a, b)), (a, k, (b, c)), (b, k, (c, a))):
                lam = tensor.component(i, k)
                if lam.is_zero():
                    continue
                d = tensor.component(*l).partial(names[k])
                if not d.is_zero():
                    residual = residual + lam * d
        if not residual.is_zero():
            return JacobiReport(False, (a, b, c), residual)
    return JacobiReport(True)


def hamiltonian_field(tensor: PoissonTensor, h: Poly) -> PolyDerivation:
    """The derivation f -> {f, H}, through its generator components."""
    images = {}
    for name in tensor.gens.names:
        images[name] = bracket(tensor, Poly.generator(tensor.gens, name), h)
    return PolyDerivation(tensor.gens, images)


def conserved_check(tensor: PoissonTensor, h: Poly, f: Poly) -> bool:
    """True iff {f, H} = 0 exactly."""
    return bracket(tensor, f, h).is_zero()


def lie_poisson(algebra: LieAlgebra3d) -> PoissonTensor:
    """Linear tensor on the dual: {x_i, x_j} = c[i][j][k] x_k."""
    gens = GeneratorSet.plain(("x", "y", "z"))
    comps = {}
    for i in range(3):
        for j in range(i + 1, 3):
            poly = Poly.zero(gens)
            for k in range(3):
                coeff = algebra.c[i][j][k]
                if coeff:
                    poly = poly + Poly.generator(gens, gens.names[k]).scale(coeff)
            comps[(i, j)] = poly
    tensor = PoissonTensor(gens, comps)
    if not jacobi_check(tensor).ok:
        raise ValueError("structure constants violate the Jacobi identity")
    return tensor


@dataclass
class CasimirReport:
    ok: bool
    witness: str | None = None
    residual: Poly | None = None


def casimir_check(tensor: PoissonTensor, c: Poly) -> CasimirReport:
    """Pass iff {x^a, C} = 0 for every generator."""
    for name in tensor.gens.names:
        r = bracket(tensor, Poly.generator(tensor.gens, name), c)
        if not r.is_zero():
            return CasimirReport(False, name, r)
    return CasimirReport(True)


def find_hamiltonian(
    tensor: PoissonTensor,
    delta: PolyDerivation,
    degree_cap: int = DEFAULT_INVERSE_DEGREE_CAP,
) -> Poly | None:
    """Search H of degree <= cap with {x^a, H} = delta^a for all generators.

    Exact linear solve over the coefficient space; None when no polynomial
    Hamiltonian of that degree exists.  Inputs must be theta-free.
    """
    gens = tensor.gens
    if delta.gens != gens:
        raise GeneratorMismatch("dynamics over a different generator set")
    # {x^a, f} = Y_a(f) for the field Y_a^b = Lambda^{ab} d_a(x^a).
    fields = [
        [tensor.component(a, b) * Poly.generator(gens, na).partial(na) for b in range(len(gens))]
        for a, na in enumerate(gens.names)
    ]
    if not all(y.is_theta_free() for field in fields for y in field):
        raise ValueError("inverse search requires theta-free tensors")
    images = [delta.images[name] for name in gens.names]
    if not all(img.is_theta_free() for img in images):
        raise ValueError("inverse search requires theta-free dynamics")
    # Unknown j is the coefficient of basis[j]; its column holds {x^a, x^m}.
    basis = monomials(len(gens), degree_cap)
    sol = linalg.solve_columns(derivation_columns(fields, basis), coefficient_column(images))
    if sol is None:
        return None
    return Poly.from_coefficients(gens, basis, sol)


def find_poisson_tensor(
    delta: PolyDerivation,
    h: Poly,
    degree_cap: int = DEFAULT_INVERSE_DEGREE_CAP,
) -> PoissonTensor | None:
    """Search a tensor with polynomial components of degree <= cap making
    the given H a Hamiltonian for delta; the linear constraint
    Lambda^{ab} d_b H = delta^a is solved exactly, then Jacobi is verified
    on the solution.  None when the solve fails or Jacobi does."""
    gens = delta.gens
    if h.gens != gens:
        raise GeneratorMismatch("Hamiltonian over a different generator set")
    basis = monomials(len(gens), degree_cap)
    pairs = list(combinations(range(len(gens)), 2))
    # Unknown (pair a<b, m) is the coefficient of m in Lambda^{ab}; it adds
    # m d_b H to component a and -m d_a H to component b.
    columns = []
    for a, b in pairs:
        comps = [Poly.zero(gens)] * len(gens)
        comps[a], comps[b] = h.partial(gens.names[b]), -h.partial(gens.names[a])
        columns += shifted_columns(comps, basis)
    target = coefficient_column([delta.images[name] for name in gens.names])
    sol = linalg.solve_columns(columns, target)
    if sol is None:
        return None
    nb = len(basis)
    comps = {
        pair: Poly.from_coefficients(gens, basis, sol[pi * nb : (pi + 1) * nb])
        for pi, pair in enumerate(pairs)
    }
    tensor = PoissonTensor(gens, comps)
    if not jacobi_check(tensor).ok:
        return None
    return tensor
