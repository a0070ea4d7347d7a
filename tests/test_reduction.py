"""Classical reduction: invariant subalgebras, normalizers, connections, splits."""

import random

import pytest

from aldyn.derivations import PolyDerivation, apply, commutator_der, flow_linear
from aldyn.poly import GeneratorMismatch, GeneratorSet, Poly
from aldyn.reduction import (
    ConnectionP,
    Distribution,
    connection_apply,
    express_in_fields,
    f_related_reduce,
    find_connection,
    invariance_of_subalgebra,
    invariant_subalgebra,
    normalizer_check,
    split_dynamics,
)
from aldyn.scalars import Scalar

from conftest import random_poly

GENS = GeneratorSet.phase_space(1)
Q = Poly.generator(GENS, "q")
P = Poly.generator(GENS, "p")

D_Q = Distribution([PolyDerivation(GENS, {"q": Poly.one(GENS)})])       # span{d_q}
D_P = Distribution([PolyDerivation(GENS, {"p": Poly.one(GENS)})])       # span{d_p}
ROTATION = PolyDerivation(GENS, {"q": -P, "p": Q})                      # q d_p - p d_q
D_ROT = Distribution([ROTATION])
FREE = PolyDerivation(GENS, {"q": P})
OSC = PolyDerivation(GENS, {"q": P, "p": -Q})
EULER = PolyDerivation(GENS, {"q": Q, "p": P})


class TestInvariantSubalgebra:
    def test_kernel_of_dq(self):
        basis = invariant_subalgebra(D_Q, 2)
        assert basis == [Poly.one(GENS), P, P**2]

    def test_rotation_invariants(self):
        basis = invariant_subalgebra(D_ROT, 2)
        assert basis == [Poly.one(GENS), P**2 + Q**2]

    def test_zero_field_gives_everything(self):
        zero = Distribution([PolyDerivation(GENS, {})])
        basis = invariant_subalgebra(zero, 2)
        assert len(basis) == 6  # all monomials of degree <= 2 in two variables

    def test_basis_elements_are_annihilated(self):
        for dist, cap in ((D_Q, 3), (D_ROT, 4)):
            for f in invariant_subalgebra(dist, cap):
                for y in dist.fields:
                    assert apply(y, f).is_zero()

    def test_product_closure_up_to_cap(self):
        cap = 4
        basis = invariant_subalgebra(D_ROT, cap)
        for f in basis:
            for g in basis:
                fg = f * g
                if fg.total_degree() <= cap:
                    for y in D_ROT.fields:
                        assert apply(y, fg).is_zero()


class TestNormalizer:
    def test_free_normalizes_dq(self):
        rep = normalizer_check(FREE, D_Q)
        assert rep.status == "member"

    def test_free_does_not_normalize_dp(self):
        rep = normalizer_check(FREE, D_P)
        assert rep.status == "non-member"
        assert rep.witness is not None

    def test_self_distribution(self):
        rep = normalizer_check(FREE, Distribution([FREE]))
        assert rep.status == "member"

    def test_member_coefficients_certify(self):
        rep = normalizer_check(OSC, D_ROT)
        assert rep.status == "member"
        for j, coeffs in enumerate(rep.coefficients):
            target = commutator_der(OSC, D_ROT.fields[j])
            combo = PolyDerivation(GENS, {})
            for h, y in zip(coeffs, D_ROT.fields):
                combo = combo + PolyDerivation(
                    GENS, {n: h * y.images[n] for n in GENS.names}
                )
            assert combo == target

    def test_inconclusive_case(self):
        # Y = (1 + q^2) d_q: [d_q, Y] = 2q d_q is in the pointwise span at
        # every sample point but is not a polynomial multiple of Y.
        y = PolyDerivation(GENS, {"q": Poly.one(GENS) + Q**2})
        rep = normalizer_check(PolyDerivation(GENS, {"q": Poly.one(GENS)}), Distribution([y]))
        assert rep.status == "inconclusive"


class TestFRelated:
    def test_free_momentum_projection(self):
        reduced = f_related_reduce(FREE, [P])
        assert reduced is not None
        assert reduced.is_zero()

    def test_oscillator_energy_projection(self):
        reduced = f_related_reduce(OSC, [Q**2 + P**2])
        assert reduced is not None
        assert reduced.is_zero()

    def test_euler_dilation(self):
        reduced = f_related_reduce(EULER, [Q * P])
        assert reduced is not None
        x1 = Poly.generator(reduced.gens, "x1")
        assert reduced.images["x1"] == x1.scale(2)

    def test_not_reducible_case(self):
        # delta(q) = p is not a polynomial in F = q alone
        reduced = f_related_reduce(FREE, [Q])
        assert reduced is None

    @pytest.mark.parametrize(
        "components, error",
        [
            ([], ValueError),
            ([Poly.generator(GeneratorSet.plain(["x"]), "x")], GeneratorMismatch),
            ([Q.scale(Scalar.theta())], ValueError),
        ],
        ids=["empty", "other-generators", "theta"],
    )
    def test_map_is_checked(self, components, error):
        """The map has components, over the dynamics' generators, theta-free."""
        with pytest.raises(error):
            f_related_reduce(FREE, components)

    def test_pushforward_identity_on_composites(self):
        # when it exists, delta(F) = g(F) exactly
        reduced = f_related_reduce(EULER, [Q * P])
        composed = reduced.images["x1"].substitute({"x1": Q * P})
        assert composed == apply(EULER, Q * P)


class TestConnection:
    def test_dual_form_for_dq(self):
        conn = find_connection(D_Q, 2)
        assert conn is not None
        assert conn.forms[0]["q"] == Poly.one(GENS)

    def test_apply_projects(self):
        conn = ConnectionP(D_Q, [{"q": Poly.one(GENS)}])
        x = PolyDerivation(GENS, {"q": P, "p": Q})  # p d_q + q d_p
        px = connection_apply(conn, x)
        assert px == PolyDerivation(GENS, {"q": P})

    def test_fixes_spanning_fields(self):
        conn = ConnectionP(D_Q, [{"q": Poly.one(GENS)}])
        assert connection_apply(conn, D_Q.fields[0]) == D_Q.fields[0]

    def test_horizontal_fields_map_to_zero(self):
        conn = ConnectionP(D_Q, [{"q": Poly.one(GENS)}])
        x = PolyDerivation(GENS, {"p": Q**2})
        assert connection_apply(conn, x).is_zero()

    def test_idempotence(self):
        rng = random.Random(61)
        conn = ConnectionP(D_Q, [{"q": Poly.one(GENS)}])
        for _ in range(5):
            x = PolyDerivation(
                GENS,
                {"q": random_poly(GENS, rng, 2, 2), "p": random_poly(GENS, rng, 2, 2)},
            )
            px = connection_apply(conn, x)
            assert connection_apply(conn, px) == px

    def test_duality_enforced(self):
        with pytest.raises(ValueError):
            ConnectionP(D_Q, [{"q": Q}])

    def test_no_polynomial_connection_for_rotation(self):
        # i_Y alpha = 1 has no polynomial solution: the field vanishes at 0
        assert find_connection(D_ROT, 4) is None

    def test_no_polynomial_connection_for_euler_direction(self):
        d_euler = Distribution([PolyDerivation(GENS, {"q": Q})])
        assert find_connection(d_euler, 4) is None


class TestSplit:
    def test_free_along_dq_is_constants_of_motion(self):
        conn = ConnectionP(D_Q, [{"q": Poly.one(GENS)}])
        res = split_dynamics(FREE, D_Q, conn)
        assert res.status == "ok"
        assert res.delta_d == FREE
        assert res.delta_prime.is_zero()
        assert res.commuting
        assert res.case == "constants-of-motion"

    def test_membership_shortcut_without_connection(self):
        res = split_dynamics(FREE, D_Q)
        assert res.status == "ok"
        assert res.delta_d == FREE and res.delta_prime.is_zero()

    def test_dynamics_inside_distribution(self):
        res = split_dynamics(OSC, D_ROT)
        assert res.status == "ok"
        assert res.delta_prime.is_zero()
        assert res.case == "constants-of-motion"

    def test_euler_reports_missing_connection(self):
        d_euler = Distribution([PolyDerivation(GENS, {"q": Q})])
        res = split_dynamics(EULER, d_euler)
        assert res.status == "inconclusive"
        assert "connection" in res.note

    def test_non_member_rejected(self):
        res = split_dynamics(FREE, D_P)
        assert res.status == "non-member"
        assert res.normalizer.status == "non-member"
        assert res.normalizer.witness is not None
        assert res.delta_d is None and res.delta_prime is None

    def test_nontrivial_commuting_split(self):
        gens4 = GeneratorSet.phase_space(2)
        q1, q2, p1, p2 = (Poly.generator(gens4, n) for n in gens4.names)
        dist = Distribution([PolyDerivation(gens4, {"q1": Poly.one(gens4)})])
        delta = PolyDerivation(gens4, {"q1": p1, "q2": p2})
        res = split_dynamics(delta, dist)
        assert res.status == "ok"
        assert res.delta_d == PolyDerivation(gens4, {"q1": p1})
        assert res.delta_prime == PolyDerivation(gens4, {"q2": p2})
        assert res.commuting
        assert res.case == "independent-motions"

    def test_split_resums(self):
        gens4 = GeneratorSet.phase_space(2)
        p1 = Poly.generator(gens4, "p1")
        p2 = Poly.generator(gens4, "p2")
        dist = Distribution([PolyDerivation(gens4, {"q1": Poly.one(gens4)})])
        delta = PolyDerivation(gens4, {"q1": p1, "q2": p2})
        res = split_dynamics(delta, dist)
        rng = random.Random(62)
        for _ in range(5):
            f = random_poly(gens4, rng, degree=3, terms=3)
            assert apply(res.delta_d, f) + apply(res.delta_prime, f) == apply(delta, f)

    def test_commuting_flows_agree_in_either_order(self):
        gens4 = GeneratorSet.phase_space(2)
        p1 = Poly.generator(gens4, "p1")
        p2 = Poly.generator(gens4, "p2")
        dist = Distribution([PolyDerivation(gens4, {"q1": Poly.one(gens4)})])
        delta = PolyDerivation(gens4, {"q1": p1, "q2": p2})
        res = split_dynamics(delta, dist)
        t1, t2 = 0.8, -1.7
        for name in gens4.names:
            x = Poly.generator(gens4, name)
            ab = flow_linear(res.delta_prime, t2, flow_linear(res.delta_d, t1, x))
            ba = flow_linear(res.delta_d, t1, flow_linear(res.delta_prime, t2, x))
            for exps in set(ab.terms) | set(ba.terms):
                za = ab.terms.get(exps, Scalar.zero()).constant().to_complex()
                zb = ba.terms.get(exps, Scalar.zero()).constant().to_complex()
                assert abs(za - zb) < 1e-10

    def test_delta_prime_preserves_invariant_subalgebra(self):
        gens4 = GeneratorSet.phase_space(2)
        p1 = Poly.generator(gens4, "p1")
        p2 = Poly.generator(gens4, "p2")
        dist = Distribution([PolyDerivation(gens4, {"q1": Poly.one(gens4)})])
        delta = PolyDerivation(gens4, {"q1": p1, "q2": p2})
        res = split_dynamics(delta, dist)
        basis = invariant_subalgebra(dist, 2)
        for f in basis:
            g = apply(res.delta_prime, f)
            for y in dist.fields:
                assert apply(y, g).is_zero()


class TestInvarianceOfSubalgebra:
    def test_free_preserves_momentum_invariants(self):
        basis = invariant_subalgebra(D_Q, 2)
        assert invariance_of_subalgebra(FREE, basis, D_Q).ok

    def test_oscillator_preserves_rotation_invariants(self):
        basis = invariant_subalgebra(D_ROT, 2)
        assert invariance_of_subalgebra(OSC, basis, D_ROT).ok

    def test_free_breaks_rotation_invariants(self):
        basis = invariant_subalgebra(D_ROT, 2)
        rep = invariance_of_subalgebra(FREE, basis, D_ROT)
        assert not rep.ok
        assert rep.witness == P**2 + Q**2


class TestExpressInFields:
    def test_polynomial_coefficients_found(self):
        # p d_q = p * d_q
        [sol] = express_in_fields([FREE], D_Q.fields, 2)
        assert sol is not None
        assert sol[0] == P

    def test_unsolvable_within_cap(self):
        assert express_in_fields([FREE], D_P.fields, 3) == [None]

    def test_no_targets_give_no_answers(self):
        assert express_in_fields([], D_Q.fields, 2) == []
