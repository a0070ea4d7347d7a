"""Derivations: Leibniz extension, nilpotency, flows, commutators."""

import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from aldyn.derivations import (
    NonTruncatingFlow,
    PolyDerivation,
    apply,
    commutator_der,
    flow_action_angle,
    flow_at,
    flow_linear,
    flow_nilpotent,
    flow_series_truncated,
    nilpotency_order,
)
from aldyn.poly import GeneratorSet, Poly
from aldyn.scalars import Scalar

from conftest import polys, random_poly

GENS = GeneratorSet.phase_space(1)
Q = Poly.generator(GENS, "q")
P = Poly.generator(GENS, "p")

FREE = PolyDerivation(GENS, {"q": P})
ZERO = PolyDerivation(GENS, {})


def oscillator(omega_sq: int = 1) -> PolyDerivation:
    return PolyDerivation(GENS, {"q": P, "p": Q.scale(-omega_sq)})


class TestApply:
    def test_free_on_q_squared(self):
        assert apply(FREE, Q**2) == (Q * P).scale(2)

    def test_constants_die(self):
        rng = random.Random(1)
        d = PolyDerivation(GENS, {"q": random_poly(GENS, rng), "p": random_poly(GENS, rng)})
        assert apply(d, Poly.one(GENS)).is_zero()

    def test_oscillator_on_qp(self):
        # independent oracle: sum_a delta^a d_a (qp) = p*p + (-w^2 q)*q
        omega_sq = 4
        expected = P**2 - (Q**2).scale(omega_sq)
        assert apply(oscillator(omega_sq), Q * P) == expected

    @settings(max_examples=30, deadline=None)
    @given(polys(GENS), polys(GENS))
    def test_leibniz(self, f, g):
        d = oscillator()
        assert apply(d, f * g) == f * apply(d, g) + apply(d, f) * g


class TestNilpotency:
    def test_free_is_order_two(self):
        assert nilpotency_order(FREE) == 2

    def test_zero_is_order_one(self):
        assert nilpotency_order(ZERO) == 1

    def test_oscillator_is_not_nilpotent(self):
        assert nilpotency_order(oscillator(), cutoff=32) is None

    def test_cutoff_validation(self):
        with pytest.raises(ValueError):
            nilpotency_order(FREE, cutoff=0)


class TestFlowNilpotent:
    def test_free_flow_on_q(self):
        flow = flow_nilpotent(FREE, Q)
        ext = flow.gens
        expected = Poly.generator(ext, "q") + Poly.generator(ext, "p") * Poly.generator(ext, "t")
        assert flow == expected

    def test_free_flow_on_p(self):
        flow = flow_nilpotent(FREE, P)
        assert flow == Poly.generator(flow.gens, "p")

    def test_free_flow_on_q_squared(self):
        # series truncates at k = 2: q^2 + 2tqp + t^2 p^2
        flow = flow_nilpotent(FREE, Q**2)
        ext = flow.gens
        q, p, t = (Poly.generator(ext, n) for n in ("q", "p", "t"))
        assert flow == q**2 + (t * q * p).scale(2) + t**2 * p**2

    def test_substitution_oracle(self):
        # e^{t delta} f = f(q + tp, p) for the free dynamics
        rng = random.Random(2)
        for _ in range(10):
            f = random_poly(GENS, rng)
            flow = flow_nilpotent(FREE, f)
            ext = flow.gens
            q, p, t = (Poly.generator(ext, n) for n in ("q", "p", "t"))
            subs = f.substitute({"q": q + t * p, "p": p})
            assert flow == subs

    def test_automorphism_exact(self):
        rng = random.Random(3)
        for _ in range(10):
            f, g = random_poly(GENS, rng), random_poly(GENS, rng)
            lhs = flow_nilpotent(FREE, f * g)
            rhs = flow_nilpotent(FREE, f) * flow_nilpotent(FREE, g)
            assert lhs == rhs

    def test_derivative_at_zero(self):
        rng = random.Random(4)
        for _ in range(10):
            f = random_poly(GENS, rng)
            flow = flow_nilpotent(FREE, f)
            ext = flow.gens
            back = {n: Poly.generator(GENS, n) for n in GENS.names}
            back["t"] = Poly.zero(GENS)
            assert flow.partial("t").substitute(back) == apply(FREE, f)

    def test_non_nilpotent_rejected(self):
        with pytest.raises(NonTruncatingFlow):
            flow_nilpotent(oscillator(), Q)

    def test_high_degree_image_truncates(self):
        """delta(q) = p^2 is nilpotent of order 2 on the generators, so the
        flow of q is q + t p^2 (no degree condition on the images)."""
        d = PolyDerivation(GENS, {"q": P**2})
        flow = flow_nilpotent(d, Q)
        q, p, t = (Poly.generator(flow.gens, n) for n in ("q", "p", "t"))
        assert flow == q + t * p**2

    def test_leibniz_bound_on_higher_degree(self):
        """delta^k = 0 on generators kills delta^N f for N > (k - 1) deg f:
        the flow equals the substitution q -> q + t p^2, p -> p + t."""
        d = PolyDerivation(GENS, {"q": P**2, "p": Poly.one(GENS)})
        rng = random.Random(6)
        for _ in range(5):
            f = random_poly(GENS, rng)
            flow = flow_nilpotent(d, f)
            q, p, t = (Poly.generator(flow.gens, n) for n in ("q", "p", "t"))
            q_t = q + t * p**2 + t**2 * p + (t**3).scale(Fraction(1, 3))
            assert flow == f.substitute({"q": q_t, "p": p + t})

    def test_laurent_observable_flows(self):
        """u^-2 I under d/dI: u is not moved, so its negative power stays."""
        gens = GeneratorSet.action_angle(1)
        u_inv2 = Poly.generator(gens, "u", -2)
        d = PolyDerivation(gens, {"I": Poly.one(gens)})
        flow = flow_nilpotent(d, u_inv2 * Poly.generator(gens, "I"))
        ext = flow.gens
        t, action = Poly.generator(ext, "t"), Poly.generator(ext, "I")
        assert flow == Poly.generator(ext, "u", -2) * (action + t)
        assert flow_series_truncated(d, u_inv2, order=0) == (
            Poly.generator(ext, "u", -2), True
        )

    def test_negative_power_of_a_moved_generator_rejected(self):
        """delta(u) = I, delta(I) = 0 is nilpotent on generators, but a
        locally nilpotent derivation kills every unit, so u^-1 never
        truncates."""
        gens = GeneratorSet.action_angle(1)
        action = Poly.generator(gens, "I")
        # the component along d/dtheta: delta(u) = i u delta^u = I
        u_inv = Poly.generator(gens, "u", -1)
        d = PolyDerivation(gens, {"u": (action * u_inv).scale(-Scalar.i())})
        assert apply(d, Poly.generator(gens, "u")) == action
        assert nilpotency_order(d) == 2
        with pytest.raises(NonTruncatingFlow):
            flow_nilpotent(d, u_inv)


class TestTruncatedSeries:
    def test_terminating_series_is_flagged_exact(self):
        flow, exact = flow_series_truncated(FREE, Q**2, order=5)
        assert exact
        assert flow == flow_nilpotent(FREE, Q**2)

    def test_non_terminating_series_is_flagged(self):
        # quadratic image: delta(q) = q^2 never truncates on q
        d = PolyDerivation(GENS, {"q": Q**2})
        flow, exact = flow_series_truncated(d, Q, order=3)
        assert not exact
        ext = flow.gens
        q, t = Poly.generator(ext, "q"), Poly.generator(ext, "t")
        expected = (
            q
            + t * q**2
            + (t**2 * q**3)
            + (t**3 * q**4)
        )
        assert flow == expected

    def test_time_variable_avoids_a_generator_named_t(self):
        gens = GeneratorSet.plain(["t", "x", "t_"])
        t, x = Poly.generator(gens, "t"), Poly.generator(gens, "x")
        flow, exact = flow_series_truncated(PolyDerivation(gens, {"t": x}), t, order=3)
        assert exact
        assert flow.gens.names == ("t", "x", "t_", "t__")
        time = Poly.generator(flow.gens, "t__")
        assert flow == Poly.generator(flow.gens, "t") + time * Poly.generator(flow.gens, "x")
        assert flow_at(flow, 2) == t + x.scale(2)

    def test_oscillator_partial_sum(self):
        flow, exact = flow_series_truncated(oscillator(), Q, order=2)
        assert not exact
        ext = flow.gens
        q, p, t = (Poly.generator(ext, n) for n in ("q", "p", "t"))
        assert flow == q + t * p - (t**2 * q).scale(Fraction(1, 2))


class TestFlowLinear:
    def test_oscillator_quarter_period(self):
        t = math.pi / 2
        fq = flow_linear(oscillator(), t, Q)
        fp = flow_linear(oscillator(), t, P)
        # q -> p, p -> -q within 1e-12
        for flow, target in ((fq, {"q": 0.0, "p": 1.0}), (fp, {"q": -1.0, "p": 0.0})):
            for name, expected in target.items():
                got = flow.coefficient({name: 1}).constant().to_complex()
                assert abs(got - expected) < 1e-12

    def test_identity_at_zero(self):
        rng = random.Random(5)
        f = random_poly(GENS, rng)
        assert flow_linear(oscillator(), 0.0, f) == f

    def test_free_matches_nilpotent_branch(self):
        flow = flow_nilpotent(FREE, Q)
        back = {n: Poly.generator(GENS, n) for n in GENS.names}
        back["t"] = Poly.constant(GENS, Scalar.of(2))
        exact = flow.substitute(back)
        numeric = flow_linear(FREE, 2.0, Q)
        diff = exact - numeric
        for coeff in diff.terms.values():
            assert abs(coeff.constant().to_complex()) < 1e-12

    def test_one_parameter_group(self):
        t1, t2 = 0.7, -1.3
        for name in GENS.names:
            x = Poly.generator(GENS, name)
            once = flow_linear(oscillator(), t1 + t2, x)
            twice = flow_linear(oscillator(), t2, flow_linear(oscillator(), t1, x))
            for exps in set(once.terms) | set(twice.terms):
                a = once.terms.get(exps, Scalar.zero()).constant().to_complex()
                b = twice.terms.get(exps, Scalar.zero()).constant().to_complex()
                assert abs(a - b) < 1e-10

    def test_angle_rotation(self):
        """d/dtheta has the component 1 along d_u and moves u -> i u, so its
        flow is u -> e^{it} u."""
        gens = GeneratorSet.action_angle(1)
        u = Poly.generator(gens, "u")
        t = 0.7
        flow = flow_linear(PolyDerivation(gens, {"u": Poly.one(gens)}), t, u)
        assert set(flow.terms) == {(1, 0)}
        assert abs(flow.coefficient({"u": 1}).constant().to_complex() - cmath.exp(1j * t)) < 1e-12

    def test_nonlinear_rejected(self):
        d = PolyDerivation(GENS, {"q": Q * P})
        with pytest.raises(ValueError):
            flow_linear(d, 1.0, Q)


class TestActionAngle:
    def test_half_turn(self):
        (u,) = flow_action_angle([1.0], [0.0], math.pi)
        assert abs(u - (-1.0)) < 1e-12

    def test_time_zero(self):
        theta0 = 0.37
        (u,) = flow_action_angle([2.0], [theta0], 0.0)
        assert abs(u - cmath.exp(1j * theta0)) < 1e-15

    def test_exact_eigen_equation(self):
        """d(u) = i I u and d(I) = 0 on the angle-phase generator, so
        d^k(u) = (i I)^k u and e^{t d} u = e^{i t I} u."""
        gens = GeneratorSet.action_angle(1)
        u, action = Poly.generator(gens, "u"), Poly.generator(gens, "I")
        d = PolyDerivation(gens, {"u": action})
        i_action = action.scale(Scalar.i())
        assert apply(d, u) == i_action * u
        assert apply(d, action).is_zero()
        term, power = u, Poly.one(gens)
        for _ in range(4):
            term, power = apply(d, term), power * i_action
            assert term == power * u
        (closed,) = flow_action_angle([1.0], [0.0], 1.0)
        assert abs(closed - cmath.exp(1j)) < 1e-15

    def test_unit_modulus(self):
        us = flow_action_angle([0.5, -2.0, 3.0], [0.1, 0.2, -0.3], 7.7)
        for u in us:
            assert abs(abs(u) - 1.0) < 1e-12


class TestCommutator:
    def test_constant_fields_commute(self):
        d1 = PolyDerivation(GENS, {"q": Poly.one(GENS)})
        d2 = PolyDerivation(GENS, {"p": Poly.one(GENS)})
        assert commutator_der(d1, d2).is_zero()

    def test_mixed_fields(self):
        d1 = PolyDerivation(GENS, {"q": P})   # p d_q
        d2 = PolyDerivation(GENS, {"p": Q})   # q d_p
        expected = PolyDerivation(GENS, {"q": -Q, "p": P})  # p d_p - q d_q
        assert commutator_der(d1, d2) == expected

    def test_self_commutator(self):
        rng = random.Random(6)
        d = PolyDerivation(GENS, {"q": random_poly(GENS, rng), "p": random_poly(GENS, rng)})
        assert commutator_der(d, d).is_zero()

    def test_jacobi_identity(self):
        rng = random.Random(7)
        for _ in range(5):
            ds = [
                PolyDerivation(
                    GENS,
                    {
                        "q": random_poly(GENS, rng, degree=2, terms=2),
                        "p": random_poly(GENS, rng, degree=2, terms=2),
                    },
                )
                for _ in range(3)
            ]
            total = (
                commutator_der(commutator_der(ds[0], ds[1]), ds[2])
                + commutator_der(commutator_der(ds[1], ds[2]), ds[0])
                + commutator_der(commutator_der(ds[2], ds[0]), ds[1])
            )
            assert total.is_zero()

    def test_action_on_polynomials_matches_operator_commutator(self):
        rng = random.Random(8)
        d1 = PolyDerivation(GENS, {"q": random_poly(GENS, rng, 2, 2), "p": random_poly(GENS, rng, 2, 2)})
        d2 = PolyDerivation(GENS, {"q": random_poly(GENS, rng, 2, 2), "p": random_poly(GENS, rng, 2, 2)})
        f = random_poly(GENS, rng)
        lhs = apply(commutator_der(d1, d2), f)
        rhs = apply(d1, apply(d2, f)) - apply(d2, apply(d1, f))
        assert lhs == rhs


def test_linear_map_needs_one_row_per_generator():
    with pytest.raises(ValueError, match="takes 2 rows, got 1"):
        PolyDerivation.from_linear_map(GENS, [[0, 1]])
    with pytest.raises(ValueError, match="takes 2 coefficients, got 1"):
        PolyDerivation.from_linear_map(GENS, [[0, 1], [0]])
    assert PolyDerivation.from_linear_map(GENS, [[0, 1], [-1, 0]]) == oscillator()


def test_json_round_trip():
    d = oscillator(9)
    assert PolyDerivation.from_json(d.to_json()) == d
