"""Poisson tensors with polynomial components, brackets and their checks.

Only the a < b components of Lambda are stored, antisymmetry fills in the
rest.  Everything else is read off one formula, the row fields
Y_a = Lambda^{ab} d_b of the tensor (``PoissonTensor.rows``, derivations
with components along ``Poly.partial``): the Hamiltonian field X_H has the
components X_H^a = Y_a(H), the bracket is {f, g} = X_g(f), a Casimir has
X_C = 0, and Jacobi is the cyclic sum Y_a(Lambda^{bc}) + Y_b(Lambda^{ca}) +
Y_c(Lambda^{ab}).  Lie-Poisson tensors read off 3d structure constants and the
bounded-degree inverse searches complete the module: the Hamiltonian is a
``poly.solve_preimage`` of the row fields, the tensor a
``poly.solve_combination`` with one vector per pair a < b.
"""

from __future__ import annotations

from itertools import combinations
from typing import Mapping, Sequence

from .derivations import PolyDerivation, apply
from .poly import DEFAULT_ANSATZ_CAP, GeneratorMismatch, GeneratorSet, Poly
from .poly import solve_combination, solve_preimage
from .report import Verdict
from .scalars import check_budget, json_field, json_int, json_list, named, rational


class PoissonTensor:
    """Antisymmetric bivector with Poly components on a generator set;
    ``rows[a]`` is the field Y_a = Lambda^{ab} d_b."""

    __slots__ = ("gens", "components", "rows")

    def __init__(self, gens: GeneratorSet, components: Mapping[tuple[int, int], Poly]):
        self.gens = gens
        comp: dict[tuple[int, int], Poly] = {}
        for (a, b), poly in components.items():
            if not (0 <= a < len(gens) and 0 <= b < len(gens)):
                raise ValueError(f"component index ({a}, {b}) out of range")
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
        rows: list[dict[str, Poly]] = [{} for _ in gens.names]
        for (a, b), poly in self.components.items():
            rows[a][gens.names[b]] = poly
            rows[b][gens.names[a]] = -poly
        self.rows = tuple(PolyDerivation(gens, row) for row in rows)

    @property
    def dim(self) -> int:
        return len(self.gens)

    def component(self, a: int, b: int) -> Poly:
        """Lambda^{ab} with antisymmetry applied."""
        return self.rows[a].images[self.gens.names[b]]

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
    def from_json(data, path: str = "tensor") -> "PoissonTensor":
        """{"generators" or "dim", "components": [{"a", "b", "poly"}]}.
        ``dim`` may be left out when ``generators`` is given; when both are
        present they must agree.  Malformed input is a ValueError naming the
        JSON path at fault, below `path`, the path of data."""
        entries = json_list(json_field(data, "components", path), f"{path}/components")
        if "generators" in data:
            gens = GeneratorSet.from_json(data["generators"], f"{path}/generators")
            if "dim" in data and json_int(data["dim"], f"{path}/dim") != len(gens):
                raise ValueError(
                    f"{path}/dim: {data['dim']!r} does not match the {len(gens)} generators"
                )
        else:
            dim = json_int(json_field(data, "dim", path), f"{path}/dim")
            check_budget(f"{path}/dim", dim * dim, "dim^2 row components")
            gens = GeneratorSet.plain([f"x{i+1}" for i in range(dim)])
        comps = {}
        for k, entry in enumerate(entries):
            at = f"{path}/components/{k}"
            a = json_int(json_field(entry, "a", at), f"{at}/a")
            b = json_int(json_field(entry, "b", at), f"{at}/b")
            comps[(a, b)] = Poly.from_json(json_field(entry, "poly", at), f"{at}/poly")
        return named(path, PoissonTensor, gens, comps)


def bracket(tensor: PoissonTensor, f: Poly, g: Poly) -> Poly:
    """{f,g} = Lambda^{ab} d_a f d_b g = X_g(f)."""
    return apply(hamiltonian_field(tensor, g), f)


def jacobi_check(tensor: PoissonTensor) -> Verdict:
    """The cyclic sum Y_a(Lambda^{bc}) + Y_b(Lambda^{ca}) + Y_c(Lambda^{ab})
    over all index triples a < b < c; the first triple with a nonzero sum
    is the witness, and that sum the residual."""
    y, lam = tensor.rows, tensor.component
    for a, b, c in combinations(range(tensor.dim), 3):
        residual = apply(y[a], lam(b, c)) + apply(y[b], lam(c, a)) + apply(y[c], lam(a, b))
        if not residual.is_zero():
            return Verdict(False, (a, b, c), residual)
    return Verdict(True)


def hamiltonian_field(tensor: PoissonTensor, h: Poly) -> PolyDerivation:
    """X_H = Lambda(dH), the derivation f -> {f, H}: X_H^a = Y_a(H)."""
    return PolyDerivation(
        tensor.gens, {name: apply(y, h) for name, y in zip(tensor.gens.names, tensor.rows)}
    )


def lie_poisson(c: Sequence[Sequence[Sequence]]) -> PoissonTensor:
    """Linear tensor {x_i, x_j} = c[i][j][k] x_k on the generators x, y, z:
    the dual of the 3d Lie algebra [x_i, x_j] = c[i][j][k] x_k.

    c must be 3x3x3 (nested lists or tuples), each c[i][j][k] is read by
    ``scalars.rational``, and c must be antisymmetric in (i, j) and satisfy
    Jacobi, else ValueError."""

    def triple(x) -> bool:
        return isinstance(x, (list, tuple)) and len(x) == 3

    if not (triple(c) and all(triple(p) and all(triple(r) for r in p) for p in c)):
        raise ValueError("structure constants must be 3x3x3")
    c = tuple(tuple(tuple(rational(x, "c") for x in row) for row in plane) for plane in c)
    if any(c[i][j][k] != -c[j][i][k] for i in range(3) for j in range(3) for k in range(3)):
        raise ValueError("structure constants not antisymmetric in (i,j)")
    gens = GeneratorSet.plain(("x", "y", "z"))
    tensor = PoissonTensor(
        gens, {(i, j): Poly.linear(gens, c[i][j]) for i, j in combinations(range(3), 2)}
    )
    if not jacobi_check(tensor).ok:
        raise ValueError("structure constants violate the Jacobi identity")
    return tensor


# Structure constants c[i][j][k] of the preset 3d Lie algebras.
SU2 = (
    ((0, 0, 0), (0, 0, 1), (0, -1, 0)),
    ((0, 0, -1), (0, 0, 0), (1, 0, 0)),
    ((0, 1, 0), (-1, 0, 0), (0, 0, 0)),
)
HEISENBERG = (
    ((0, 0, 0), (0, 0, 1), (0, 0, 0)),
    ((0, 0, -1), (0, 0, 0), (0, 0, 0)),
    ((0, 0, 0), (0, 0, 0), (0, 0, 0)),
)
ABELIAN = (((0, 0, 0),) * 3,) * 3


def casimir_check(tensor: PoissonTensor, c: Poly) -> Verdict:
    """Pass iff X_C = 0, i.e. {x^a, C} = 0 for every generator; the witness
    is the first generator with a nonzero component of X_C, and that
    component the residual."""
    for name, r in hamiltonian_field(tensor, c).images.items():
        if not r.is_zero():
            return Verdict(False, name, r)
    return Verdict(True)


def find_hamiltonian(
    tensor: PoissonTensor,
    delta: PolyDerivation,
    degree_cap: int = DEFAULT_ANSATZ_CAP,
) -> Poly | None:
    """Search H of degree <= cap with X_H = delta, i.e. Lambda^{ab} d_b H =
    delta^a for all generators.

    Exact linear solve over the coefficient space, over Q(i) like every
    exact search (``poly.coefficient_column`` refuses a theta-carrying
    tensor or dynamics); None when no polynomial Hamiltonian of that degree
    exists.
    """
    gens = tensor.gens
    if delta.gens != gens:
        raise GeneratorMismatch("dynamics over a different generator set")
    fields = [y.components() for y in tensor.rows]
    [h] = solve_preimage(gens, fields, [delta.components()], degree_cap)
    return h


def find_poisson_tensor(
    delta: PolyDerivation,
    h: Poly,
    degree_cap: int = DEFAULT_ANSATZ_CAP,
) -> PoissonTensor | None:
    """Search a tensor with polynomial components of degree <= cap making
    the given H a Hamiltonian for delta; the linear constraint
    Lambda^{ab} d_b H = delta^a is solved exactly, then Jacobi is verified
    on the solution.  None when the solve fails or Jacobi does."""
    gens = delta.gens
    if h.gens != gens:
        raise GeneratorMismatch("Hamiltonian over a different generator set")
    pairs = list(combinations(range(len(gens)), 2))
    # Lambda^{ab} (a < b) adds Lambda^{ab} d_b H to component a and
    # -Lambda^{ab} d_a H to component b.
    vectors = []
    for a, b in pairs:
        comps = [Poly.zero(gens)] * len(gens)
        comps[a], comps[b] = h.partial(gens.names[b]), -h.partial(gens.names[a])
        vectors.append(comps)
    [sol] = solve_combination(gens, vectors, [delta.components()], degree_cap)
    if sol is None:
        return None
    tensor = PoissonTensor(gens, dict(zip(pairs, sol)))
    if not jacobi_check(tensor).ok:
        return None
    return tensor
