"""Poisson structures: bracket axioms, fields, Lie-Poisson, inverse searches."""

import json
import random
from fractions import Fraction
from itertools import combinations

import pytest

from aldyn.derivations import PolyDerivation, apply, commutator_der
from aldyn.poisson import (
    ABELIAN,
    HEISENBERG,
    SU2 as SU2_CONSTANTS,
    PoissonTensor,
    bracket,
    casimir_check,
    find_hamiltonian,
    find_poisson_tensor,
    hamiltonian_field,
    jacobi_check,
    lie_poisson,
)
from aldyn.poly import GeneratorSet, Poly
from aldyn.scalars import Scalar

from conftest import random_gauss, random_poly

GENS = GeneratorSet.phase_space(1)
Q = Poly.generator(GENS, "q")
P = Poly.generator(GENS, "p")
CAN = PoissonTensor.canonical(1)

SU2 = lie_poisson(SU2_CONSTANTS)
G3 = SU2.gens
X, Y, Z = (Poly.generator(G3, n) for n in ("x", "y", "z"))

AA1 = GeneratorSet.action_angle(1)
AA2 = GeneratorSet.action_angle(2)


# -- the index formulas the row fields replaced, kept as oracles ---------------


def oracle_bracket(tensor, f, g):
    """{f,g} = Lambda^{ab} d_a f d_b g, summed over the stored a < b."""
    out = Poly.zero(tensor.gens)
    names = tensor.gens.names
    for (a, b), comp in tensor.components.items():
        fa, gb = f.partial(names[a]), g.partial(names[b])
        fb, ga = f.partial(names[b]), g.partial(names[a])
        term = fa * gb - fb * ga
        if not term.is_zero():
            out = out + comp * term
    return out


def oracle_jacobi(tensor):
    """(witness, residual) of the first triple whose cyclic sum
    Lambda^{ck} d_k Lambda^{ab} + cyclic is nonzero, else None."""
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
            return (a, b, c), residual
    return None


def _laurent_poly(gens, rng, degree=2, terms=3):
    """A seeded polynomial with, on angle-phase generators, a Laurent term."""
    p = random_poly(gens, rng, degree, terms)
    for i, kind in enumerate(gens.kinds):
        if kind == "angle-phase":
            exps = [0] * len(gens)
            exps[i] = -rng.randint(1, 2)
            p = p + Poly(gens, {tuple(exps): Scalar.from_gauss(random_gauss(rng))})
    return p


def _random_tensor(gens, rng, degree=1):
    pairs = combinations(range(len(gens)), 2)
    return PoissonTensor(gens, {pair: _laurent_poly(gens, rng, degree) for pair in pairs})


ORACLE_SETS = {
    "plain(x,y,z)": G3,
    "phase_space(2)": GeneratorSet.phase_space(2),
    "action_angle(1)": AA1,
    "action_angle(2)": AA2,
}
oracle_sets = pytest.mark.parametrize("gens", ORACLE_SETS.values(), ids=ORACLE_SETS.keys())


class TestIndexOracles:
    @oracle_sets
    def test_bracket_matches_index_formula(self, gens):
        rng = random.Random(len(gens) * 71 + gens.kinds.count("angle-phase"))
        for _ in range(4):
            tensor = _random_tensor(gens, rng)
            for _ in range(3):
                f, g = _laurent_poly(gens, rng), _laurent_poly(gens, rng)
                assert bracket(tensor, f, g) == oracle_bracket(tensor, f, g)

    @oracle_sets
    def test_jacobi_matches_index_loop(self, gens):
        rng = random.Random(len(gens) * 73 + gens.kinds.count("angle-phase"))
        verdicts = set()
        for _ in range(6):
            tensor = _random_tensor(gens, rng)
            rep, want = jacobi_check(tensor), oracle_jacobi(tensor)
            assert rep.ok == (want is None)
            if want is not None:
                assert (rep.witness, rep.residual) == want
            verdicts.add(rep.ok)
        # with no triple Jacobi holds; on three or more generators some
        # random tensor breaks it, so witnesses are compared too
        assert (False in verdicts) == (len(gens) >= 3)

    @oracle_sets
    def test_casimir_residual_is_the_generator_bracket(self, gens):
        rng = random.Random(len(gens) * 79 + gens.kinds.count("angle-phase"))
        tensor = _random_tensor(gens, rng)
        c = _laurent_poly(gens, rng)
        rep = casimir_check(tensor, c)
        assert not rep.ok
        x = Poly.generator(gens, rep.witness)
        assert rep.residual == hamiltonian_field(tensor, c).images[rep.witness]
        if gens.kinds[gens.index(rep.witness)] != "angle-phase":
            assert rep.residual == oracle_bracket(tensor, x, c)


class TestBracket:
    def test_canonical_pair(self):
        assert bracket(CAN, Q, P) == Poly.one(GENS)

    def test_antisymmetry_diagonal(self):
        rng = random.Random(11)
        f = random_poly(GENS, rng)
        assert bracket(CAN, f, f).is_zero()

    def test_squares(self):
        assert bracket(CAN, Q**2, P**2) == (Q * P).scale(4)

    def test_axioms_exact(self):
        rng = random.Random(12)
        for tensor in (CAN, PoissonTensor.canonical(2), SU2):
            gens = tensor.gens
            for _ in range(12):
                f = random_poly(gens, rng, degree=3, terms=3)
                g = random_poly(gens, rng, degree=3, terms=3)
                h = random_poly(gens, rng, degree=3, terms=3)
                assert bracket(tensor, f, g) == -bracket(tensor, g, f)
                assert bracket(tensor, f + g, h) == bracket(tensor, f, h) + bracket(
                    tensor, g, h
                )
                assert bracket(tensor, f * g, h) == f * bracket(tensor, g, h) + bracket(
                    tensor, f, h
                ) * g
                jac = (
                    bracket(tensor, f, bracket(tensor, g, h))
                    + bracket(tensor, g, bracket(tensor, h, f))
                    + bracket(tensor, h, bracket(tensor, f, g))
                )
                assert jac.is_zero()


class TestJacobiCheck:
    def test_constant_tensor_passes(self):
        assert jacobi_check(CAN).ok
        assert jacobi_check(PoissonTensor.canonical(2)).ok

    def test_su2_passes(self):
        assert jacobi_check(SU2).ok

    def test_failing_tensor_reports_witness(self):
        comps = {(0, 1): Z, (1, 2): Y}  # {x,y}=z, {y,z}=y, {z,x}=0
        bad = PoissonTensor(G3, comps)
        rep = jacobi_check(bad)
        assert not rep.ok
        assert rep.witness == (0, 1, 2)
        assert rep.residual == Z


class TestHamiltonianField:
    def test_free_hamiltonian(self):
        h = (P**2).scale(Fraction(1, 2))
        d = hamiltonian_field(CAN, h)
        assert d.images["q"] == P
        assert d.images["p"].is_zero()

    def test_constant_hamiltonian(self):
        d = hamiltonian_field(CAN, Poly.constant(GENS, Scalar.of(7)))
        assert d.is_zero()

    def test_oscillator_hamiltonian(self):
        omega_sq = 4
        h = (P**2 + (Q**2).scale(omega_sq)).scale(Fraction(1, 2))
        d = hamiltonian_field(CAN, h)
        assert d.images["q"] == P
        assert d.images["p"] == Q.scale(-omega_sq)

    def test_field_reproduces_bracket(self):
        rng = random.Random(13)
        h = random_poly(GENS, rng)
        d = hamiltonian_field(CAN, h)
        for _ in range(5):
            f = random_poly(GENS, rng)
            assert apply(d, f) == bracket(CAN, f, h)

    def test_field_reproduces_bracket_on_action_angle(self):
        """X_H^u is the component along d/dtheta, so X_H(u) = i u X_H^u."""
        rng = random.Random(16)
        for gens in (AA1, AA2):
            tensor = _random_tensor(gens, rng, degree=0)
            h = _laurent_poly(gens, rng)
            d = hamiltonian_field(tensor, h)
            for _ in range(5):
                f = _laurent_poly(gens, rng)
                assert apply(d, f) == oracle_bracket(tensor, f, h)
            for name, kind in zip(gens.names, gens.kinds):
                x = Poly.generator(gens, name)
                chain = x.scale(Scalar.i()) if kind == "angle-phase" else Poly.one(gens)
                assert apply(d, x) == chain * d.images[name]

    def test_antihomomorphism_up_to_sign(self):
        # [X_H1, X_H2] = X_{{H2, H1}} for the convention delta_H(f) = {f, H}
        rng = random.Random(14)
        u, action = Poly.generator(AA1, "u"), Poly.generator(AA1, "I")
        angle = PoissonTensor(AA1, {(0, 1): Poly.one(AA1) + u * action})
        for tensor in (CAN, SU2, angle):
            for _ in range(5):
                h1 = random_poly(tensor.gens, rng, degree=3, terms=3)
                h2 = random_poly(tensor.gens, rng, degree=3, terms=3)
                lhs = commutator_der(
                    hamiltonian_field(tensor, h1), hamiltonian_field(tensor, h2)
                )
                rhs = hamiltonian_field(tensor, bracket(tensor, h2, h1))
                assert lhs == rhs


class TestConserved:
    def test_hamiltonian_self_conserved(self):
        rng = random.Random(15)
        h = random_poly(GENS, rng)
        assert bracket(CAN, h, h).is_zero()

    def test_momentum_conserved_for_free(self):
        h = (P**2).scale(Fraction(1, 2))
        assert bracket(CAN, P, h).is_zero()

    def test_position_not_conserved_for_free(self):
        h = (P**2).scale(Fraction(1, 2))
        assert not bracket(CAN, Q, h).is_zero()


class TestLiePoisson:
    def test_su2_components(self):
        assert SU2.component(0, 1) == Z
        assert SU2.component(1, 2) == X
        assert SU2.component(2, 0) == Y

    def test_abelian_gives_zero_tensor(self):
        t = lie_poisson(ABELIAN)
        assert not t.components

    def test_heisenberg(self):
        t = lie_poisson(HEISENBERG)
        assert t.component(0, 1) == Poly.generator(t.gens, "z")
        assert t.component(1, 2).is_zero()
        assert t.component(2, 0).is_zero()

    def test_bad_constants_rejected(self):
        c = [[[Fraction(0)] * 3 for _ in range(3)] for _ in range(3)]
        c[0][1][2], c[1][0][2] = Fraction(1), Fraction(-1)  # {x,y} = z
        c[1][2][1], c[2][1][1] = Fraction(1), Fraction(-1)  # {y,z} = y: breaks Jacobi
        with pytest.raises(ValueError):
            lie_poisson(c)


class TestCasimir:
    def test_su2_quadratic(self):
        assert casimir_check(SU2, X**2 + Y**2 + Z**2).ok

    def test_heisenberg_center(self):
        t = lie_poisson(HEISENBERG)
        assert casimir_check(t, Poly.generator(t.gens, "z")).ok

    def test_su2_x_fails_with_witness(self):
        rep = casimir_check(SU2, X)
        assert not rep.ok
        assert rep.witness == "y"
        assert rep.residual == -Z


class TestInverseSearch:
    def test_recovers_hamiltonian_for_free_dynamics(self):
        free = PolyDerivation(GENS, {"q": P})
        h = find_hamiltonian(CAN, free, degree_cap=4)
        assert h is not None
        assert hamiltonian_field(CAN, h).images == free.images

    def test_euler_field_obstruction_all_degrees(self):
        euler = PolyDerivation(GENS, {"q": Q, "p": P})
        for cap in range(0, 7):
            assert find_hamiltonian(CAN, euler, degree_cap=cap) is None

    def test_find_tensor_for_free_dynamics(self):
        free = PolyDerivation(GENS, {"q": P})
        h = (P**2).scale(Fraction(1, 2))
        tensor = find_poisson_tensor(free, h, degree_cap=2)
        assert tensor is not None
        assert jacobi_check(tensor).ok
        assert hamiltonian_field(tensor, h).images == free.images

    def test_action_angle_searches_regenerate_the_field(self):
        """Both searches solve Lambda^{ab} d_b H = X_H^a, so on constant
        tensors over action-angle sets they find X_H again."""
        rng = random.Random(17)
        for gens in (AA1, AA2):
            pairs = combinations(range(len(gens)), 2)
            tensor = PoissonTensor(
                gens, {pair: Poly.constant(gens, random_gauss(rng)) for pair in pairs}
            )
            h = random_poly(gens, rng, degree=3, terms=4)  # inside the ansatz
            field = hamiltonian_field(tensor, h)
            found_h = find_hamiltonian(tensor, field, degree_cap=3)
            assert found_h is not None and hamiltonian_field(tensor, found_h) == field
            found_t = find_poisson_tensor(field, h, degree_cap=0)
            assert found_t is not None and hamiltonian_field(found_t, h) == field

    def test_action_angle_tensor_regenerated(self):
        """Lambda^{uI} = 1 and H = I^2 give X_H = 2I d/dtheta, and the tensor
        search on (X_H, H) returns Lambda^{uI} = 1 itself."""
        tensor = PoissonTensor(AA1, {(0, 1): Poly.one(AA1)})
        action = Poly.generator(AA1, "I")
        field = hamiltonian_field(tensor, action**2)
        assert field.images == {"u": action.scale(2), "I": Poly.zero(AA1)}
        found = find_poisson_tensor(field, action**2, degree_cap=2)
        assert found is not None and found.components == tensor.components
        assert find_hamiltonian(tensor, field, degree_cap=2) == action**2

    def test_find_tensor_fails_for_euler(self):
        # delta(H) = {H,H} = 0 forces delta to annihilate H; the Euler field
        # does not annihilate any non-constant polynomial Hamiltonian.
        euler = PolyDerivation(GENS, {"q": Q, "p": P})
        h = (P**2).scale(Fraction(1, 2))
        assert find_poisson_tensor(euler, h, degree_cap=2) is None


def test_tensor_json_round_trip():
    for tensor in (CAN, SU2):
        back = PoissonTensor.from_json(tensor.to_json())
        assert back.gens == tensor.gens
        assert back.components == tensor.components


def test_lie_algebra_json_round_trip():
    """The constants written as JSON rationals read back to the same tensor."""
    doc = {"c": [[[str(Fraction(x)) for x in row] for row in plane] for plane in SU2_CONSTANTS]}
    assert lie_poisson(json.loads(json.dumps(doc))["c"]).components == SU2.components
