"""CLI: dispatch, exit codes, JSON round trips, determinism."""

import argparse
import ast
import contextlib
import copy
import functools
import inspect
import io
import json
import math
import operator
import os
import textwrap
import subprocess
import random
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aldyn
from aldyn.cli import _build_parser, main
from aldyn.demos import DEMOS
from aldyn.derivations import PolyDerivation
from aldyn.matrices import Mat
from aldyn.parsing import parse_poly
from aldyn.poisson import ABELIAN, HEISENBERG, SU2, PoissonTensor
from aldyn.poly import GeneratorSet, Poly
from aldyn.report import EXIT_BAD_INPUT, EXIT_FAIL, EXIT_INCONCLUSIVE, EXIT_OK, Report
from aldyn.scalars import MAX_UNKNOWNS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


def run_json(capsys, *argv):
    """Run with --json; the payload must be strict JSON (no NaN or Infinity)."""
    code, out, err = run_cli(capsys, *argv, "--json")
    return code, json.loads(out, parse_constant=_reject_constant) if out else None, err


GENS = GeneratorSet.phase_space(1)


def derivation_json(images: dict) -> str:
    gens = GENS
    d = PolyDerivation(
        gens, {k: Poly.from_json(v) if isinstance(v, dict) else v for k, v in images.items()}
    )
    return json.dumps(d.to_json())


FREE_JSON = derivation_json({"q": Poly.generator(GENS, "p")})
_DQ_JSON = PolyDerivation(GENS, {"q": Poly.one(GENS)}).to_json()
_DP_JSON = PolyDerivation(GENS, {"p": Poly.one(GENS)}).to_json()
_REDUCE_INPUT = json.dumps({"dynamics": json.loads(FREE_JSON), "distribution": [_DQ_JSON]})
_XYZ = [{"name": "x"}, {"name": "y"}, {"name": "z"}]
# {x, y} = z, {y, z} = y: the cyclic sum on (x, y, z) is z.
JACOBI_FAILING_TENSOR = json.dumps({
    "dim": 3,
    "generators": _XYZ,
    "components": [
        {
            "a": a,
            "b": b,
            "poly": {
                "generators": _XYZ,
                "terms": [{"exps": exps, "coeff": [{"theta": 0, "re": "1", "im": "0"}]}],
            },
        }
        for a, b, exps in ((0, 1, [0, 0, 1]), (1, 2, [0, 1, 0]))
    ],
})
AA = GeneratorSet.action_angle(1)
# Lambda^{uI} = 1 on the action-angle pair (u, I).
ACTION_ANGLE_TENSOR = json.dumps(PoissonTensor(AA, {(0, 1): Poly.one(AA)}).to_json())
SIGMA_X = json.dumps(Mat.from_rows([[0, 1], [1, 0]]).to_json())
SIGMA_Z = json.dumps(Mat.from_rows([[1, 0], [0, -1]]).to_json())


def _matrix_cells(rows) -> str:
    """A square matrix JSON from its (re, im) cells, given as written in JSON."""
    return json.dumps({"n": len(rows), "entries": [[{"re": re, "im": im} for re, im in row] for row in rows]})


# Exact "1/10" against the float 0.1 across the diagonal: not Hermitian.
NEAR_HERMITIAN = _matrix_cells([[("1", "0"), ("1/10", "0")], [(0.1, 0), ("2", "0")]])


class TestBracketCommands:
    def test_bracket(self, capsys):
        code, payload, _ = run_json(
            capsys, "bracket", "--tensor", "canonical2", "--f", "q^2", "--g", "p^2"
        )
        assert code == EXIT_OK
        assert payload["status"] == "ok"
        assert payload["result"]["text"] == "4*q*p"

    def test_jacobi_pass(self, capsys):
        code, payload, _ = run_json(capsys, "jacobi", "--tensor", "su2")
        assert code == EXIT_OK and payload["result"]["jacobi"]

    def test_jacobi_fail_exit_code(self, capsys):
        code, payload, _ = run_json(capsys, "jacobi", "--tensor", JACOBI_FAILING_TENSOR)
        assert code == EXIT_FAIL
        assert payload["result"]["witness"] == [0, 1, 2]

    def test_hamfield(self, capsys):
        code, payload, _ = run_json(
            capsys, "hamfield", "--tensor", "canonical2", "--h", "1/2*p^2"
        )
        assert code == EXIT_OK
        images = payload["result"]["derivation"]["images"]
        assert images["q"]["terms"] == [
            {"exps": [0, 1], "coeff": [{"theta": 0, "re": "1", "im": "0"}]}
        ]

    def test_hamfield_on_action_angle(self, capsys):
        """X_H for H = I^2 is 2I d/dtheta: the component along d_u is 2I."""
        code, payload, _ = run_json(
            capsys, "hamfield", "--tensor", ACTION_ANGLE_TENSOR, "--h", "I^2"
        )
        assert code == EXIT_OK
        images = payload["result"]["derivation"]["images"]
        assert images["u"]["terms"] == [
            {"exps": [0, 1], "coeff": [{"theta": 0, "re": "2", "im": "0"}]}
        ]
        assert images["I"]["terms"] == []
        assert payload["verification"] == ["X_H(H) = 0 exactly: pass"]

    def test_casimir(self, capsys):
        code, payload, _ = run_json(
            capsys, "casimir", "--tensor", "su2", "--c", "x^2 + y^2 + z^2"
        )
        assert code == EXIT_OK
        code, payload, _ = run_json(capsys, "casimir", "--tensor", "su2", "--c", "x")
        assert code == EXIT_FAIL
        assert payload["result"]["witness"] == "y"

    def test_casimir_witness_names_the_component(self, capsys):
        """On an angle-phase witness the residual is X_C^u, not {u, C} = i u X_C^u."""
        argv = ["casimir", "--tensor", ACTION_ANGLE_TENSOR, "--c", "I"]
        code, payload, _ = run_json(capsys, *argv)
        assert code == EXIT_FAIL
        assert payload["verification"][0] == "witness generator u: X_C^u = 1"
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_FAIL and "not a Casimir: X_C^u = 1" in out


# Structure constants that break one of the checks of `lie_poisson`.
_NOT_ANTISYMMETRIC = [[[0, 0, 0], [0, 0, 1], [0, 0, 0]], [[0] * 3] * 3, [[0] * 3] * 3]
_BREAKS_JACOBI = [[list(r) for r in plane] for plane in HEISENBERG]  # {x,y} = z ...
_BREAKS_JACOBI[1][2][1], _BREAKS_JACOBI[2][1][1] = 1, -1  # ... and {y,z} = y


class TestStructureConstantsInput:
    """`--tensor '{"c": [[[...]]]}'` reads c[i][j][k], [x_i, x_j] = c_ij^k x_k."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["jacobi"],
            ["casimir", "--c", "x^2 + y^2 + z^2"],
            ["casimir", "--c", "z"],
            ["bracket", "--f", "x^2*z", "--g", "y + z"],
        ],
        ids=["jacobi", "casimir-quadratic", "casimir-z", "bracket"],
    )
    @pytest.mark.parametrize(
        "preset, c",
        [("su2", SU2), ("heisenberg", HEISENBERG), ("abelian", ABELIAN)],
        ids=["su2", "heisenberg", "abelian"],
    )
    def test_constants_give_the_preset_bytes(self, capsys, argv, preset, c):
        command, *rest = argv
        by_name = run_cli(capsys, command, "--tensor", preset, *rest, "--json")
        by_constants = run_cli(capsys, command, "--tensor", json.dumps({"c": c}), *rest, "--json")
        assert by_constants[:2] == by_name[:2]

    @pytest.mark.parametrize(
        "c, message",
        [
            (_NOT_ANTISYMMETRIC, "structure constants not antisymmetric in (i,j)"),
            (_BREAKS_JACOBI, "structure constants violate the Jacobi identity"),
            (SU2[:2], "structure constants must be 3x3x3"),
        ],
        ids=["not-antisymmetric", "breaks-jacobi", "shape-2x3x3"],
    )
    def test_bad_constants_are_bad_input(self, capsys, c, message):
        code, out, err = run_cli(capsys, "jacobi", "--tensor", json.dumps({"c": c}), "--json")
        assert code == EXIT_BAD_INPUT and out == ""
        assert err == f"input error: /tensor: {message}\n"


class TestStarCommands:
    def test_star(self, capsys):
        code, payload, _ = run_json(capsys, "star", "--f", "q", "--g", "p")
        assert code == EXIT_OK
        assert payload["result"]["text"] == "1/2*i*theta + q*p"

    def test_starcomm(self, capsys):
        code, payload, _ = run_json(capsys, "starcomm", "--f", "q", "--g", "p")
        assert code == EXIT_OK
        assert payload["result"]["text"] == "i*theta"

    def test_starcomm_rechecks_against_two_products(self, capsys):
        code, payload, _ = run_json(capsys, "starcomm", "--f", "q^3*p + q", "--g", "p^3 - q*p")
        assert code == EXIT_OK
        assert (
            "one-pass commutator equals f*g - g*f from two star products: pass"
            in payload["verification"]
        )

    @pytest.mark.parametrize(
        "f, g",
        [
            ("theta*q^2", "p^2"),
            ("q + theta*q^3*p", "p^3 + theta^2*q*p"),
            ("theta*q^2*p + q", "theta^3*p^2 + q*p^2"),
        ],
    )
    def test_starcomm_checks_theta_one_on_theta_carrying_operands(
        self, capsys, monkeypatch, f, g
    ):
        """[f, g]_* = i theta {f, g} + O(theta^3) holds for any operands, so
        the leading-order check runs, and can fail, when they carry theta."""
        import aldyn.moyal as moyal
        from aldyn.scalars import Scalar

        code, payload, _ = run_json(capsys, "starcomm", "--f", f, "--g", g)
        assert code == EXIT_OK
        assert "theta^1 coefficient is i{f,g}: pass" in payload["verification"]

        # The handler imports star_commutator when it runs, so it reads the patched one.
        real = moyal.star_commutator
        monkeypatch.setattr(
            moyal, "star_commutator",
            lambda ctx, a, b: real(ctx, a, b) + Poly.constant(ctx.gens, Scalar.theta()),
        )
        code, payload, _ = run_json(capsys, "starcomm", "--f", f, "--g", g)
        assert code == EXIT_FAIL
        assert "theta^1 coefficient is i{f,g}: fail" in payload["verification"]

    def test_coefficients_beyond_the_digit_limit_print_exactly(self, capsys):
        """theta = 10^-3000: theta^2 has 6001 digits, beyond the default
        int-to-str limit of 4300."""
        code, payload, _ = run_json(
            capsys, "star", "--f", "q^2", "--g", "p^2", "--theta", "1e-3000"
        )
        assert code == EXIT_OK
        terms = {
            tuple(t["exps"]): (c["re"], c["im"])
            for t in payload["result"]["theta_substituted"]["terms"]
            for c in t["coeff"]
        }
        assert terms == {
            (0, 0): ("-1/2" + "0" * 6000, "0"),
            (1, 1): ("0", "1/5" + "0" * 2999),
            (2, 2): ("1", "0"),
        }

    def test_theta_substitution(self, capsys):
        code, payload, _ = run_json(
            capsys, "star", "--f", "q", "--g", "p", "--theta", "2"
        )
        assert code == EXIT_OK
        subs = payload["result"]["theta_substituted"]
        assert {"exps": [0, 0], "coeff": [{"theta": 0, "re": "0", "im": "1"}]} in subs[
            "terms"
        ]


class TestFlowCommands:
    def test_nilpotent_flow(self, capsys):
        code, payload, _ = run_json(
            capsys, "flow", "--derivation", "free", "--f", "q", "--t", "2"
        )
        assert code == EXIT_OK
        assert payload["result"]["text"] == "2*p + q"

    def test_flow_beyond_the_digit_limit_prints_exactly(self, capsys):
        """(q + t p)^3 at t = 10^-2000: t^3 has 6001 digits."""
        code, payload, _ = run_json(
            capsys, "flow", "--derivation", "free", "--f", "q^3", "--t", "1e-2000"
        )
        assert code == EXIT_OK
        terms = {
            tuple(t["exps"]): (c["re"], c["im"])
            for t in payload["result"]["poly"]["terms"]
            for c in t["coeff"]
        }
        assert terms == {
            (3, 0): ("1", "0"),
            (2, 1): ("3/1" + "0" * 2000, "0"),
            (1, 2): ("3/1" + "0" * 4000, "0"),
            (0, 3): ("1/1" + "0" * 6000, "0"),
        }

    def test_quadratic_image_flows_exactly(self, capsys):
        """delta(q) = p^2 is nilpotent of order 2, so q flows to q + t p^2."""
        d = derivation_json({"q": Poly.generator(GENS, "p") ** 2})
        code, payload, _ = run_json(capsys, "flow", "--derivation", d, "--f", "q")
        assert code == EXIT_OK
        assert payload["result"]["text"] == "q + p^2*t"
        code, payload, _ = run_json(capsys, "flow", "--derivation", d, "--f", "q", "--t", "3")
        assert payload["result"]["text"] == "q + 3*p^2"

    def test_generator_named_t_keeps_its_name(self, capsys, tmp_path):
        """With generators (t, x) the series runs in t_, and --t still
        substitutes the time, not the generator t."""
        gens = GeneratorSet.plain(["t", "x"])
        d = tmp_path / "d.json"
        d.write_text(json.dumps(PolyDerivation(gens, {"t": Poly.generator(gens, "x")}).to_json()))
        argv = ["flow", "--derivation", f"@{d}", "--f", "t"]
        code, payload, _ = run_json(capsys, *argv, "--t", "2")
        assert code == EXIT_OK
        assert payload["result"]["text"] == "2*x + t"
        code, payload, _ = run_json(capsys, *argv)
        assert code == EXIT_OK
        assert payload["result"]["text"] == "t + x*t_"
        assert [g["name"] for g in payload["result"]["poly"]["generators"]] == ["t", "x", "t_"]
        code, payload, _ = run_json(capsys, "flow", "--derivation", "free", "--f", "q")
        assert payload["result"]["text"] == "q + p*t"
        assert [g["name"] for g in payload["result"]["poly"]["generators"]] == ["q", "p", "t"]

    def test_laurent_observable_flows(self, capsys):
        """u^-2 I under d/dI keeps its negative power: u^-2 I + t u^-2."""
        d = json.dumps(PolyDerivation(AA, {"I": Poly.one(AA)}).to_json())
        code, payload, _ = run_json(capsys, "flow", "--derivation", d, "--f", "u^-2*I", "--t", "2")
        assert code == EXIT_OK
        assert payload["result"]["text"] == "2*u^-2 + u^-2*I"

    def test_laurent_unit_flows_linearly(self, capsys):
        """d/dtheta on the action-angle pair rotates u^-1 to e^(-it) u^-1."""
        d = json.dumps(PolyDerivation(AA, {"u": Poly.one(AA)}).to_json())
        argv = ["flow", "--derivation", d, "--t", "1"]
        code, payload, _ = run_json(capsys, *argv, "--f", "u^-1")
        assert code == EXIT_OK
        (term,) = payload["result"]["poly_float"]["terms"]
        assert term["exps"] == [-1, 0]
        assert term["re"] == pytest.approx(math.cos(1), abs=1e-15)
        assert term["im"] == pytest.approx(-math.sin(1), abs=1e-15)
        code, _, err = run_cli(capsys, *argv, "--f", "(u + I)^-1")
        assert code == EXIT_BAD_INPUT and "Laurent unit" in err
        code, _, err = run_cli(
            capsys, "flow", "--derivation", "oscillator", "--f", "q^-1", "--t", "1"
        )
        assert code == EXIT_BAD_INPUT and "Laurent unit" in err

    def test_linear_flow(self, capsys):
        code, payload, _ = run_json(
            capsys, "flow", "--derivation", "oscillator", "--f", "q", "--t", "1"
        )
        assert code == EXIT_OK
        assert payload["result"]["mode"] == "linear"

    def test_linear_needs_t(self, capsys):
        code, _, err = run_cli(
            capsys, "flow", "--derivation", "oscillator", "--f", "q"
        )
        assert code == EXIT_BAD_INPUT
        assert "t" in err

    def test_nilpotency(self, capsys):
        code, payload, _ = run_json(capsys, "nilpotency", "--derivation", "free")
        assert code == EXIT_OK and payload["result"]["order"] == 2
        code, payload, _ = run_json(capsys, "nilpotency", "--derivation", "oscillator")
        assert code == EXIT_OK and payload["result"]["order"] == "not nilpotent within 16"


class TestQuantumCommands:
    def test_evolve(self, capsys):
        h = json.dumps(Mat.from_rows([[0, 1], [1, 0]]).to_json())
        a = json.dumps(Mat.from_rows([[1, 0], [0, -1]]).to_json())
        code, payload, _ = run_json(
            capsys, "evolve", "--h", h, "--a", a, "--t", "0.25"
        )
        assert code == EXIT_OK
        assert payload["result"]["matrix"]["n"] == 2

    EVOLVE_STIFF = (
        "--h", json.dumps(Mat.from_rows([[50, 1], [1, -50]]).to_json()),
        "--a", json.dumps(Mat.from_rows([[0, 1], [1, 0]]).to_json()),
        "--t", "0.1",
    )

    def test_evolve_self_check_scales_with_norms(self, capsys):
        # A correct evolution whose central-difference truncation error,
        # dt^2 (2|H|)^3 |A| / 6 ~ 1.7e-7, is large because |H| is: the bound
        # scales with the norms, and the line prints the bound used.
        from aldyn.cli import _central_difference_bound

        code, out, _ = run_cli(capsys, "evolve", *self.EVOLVE_STIFF)
        assert code == EXIT_OK
        bound = _central_difference_bound(math.sqrt(2501), 1.0, 1e-6)
        line = next(l for l in out.splitlines() if "derivative error" in l)
        assert line.endswith(f"(<= {bound:.2e}): pass")

    def test_evolve_self_check_rejects_wrong_evolution(self, capsys, monkeypatch):
        import aldyn.quantum as quantum

        real = quantum.evolve
        monkeypatch.setattr(quantum, "evolve", lambda a, h, t: real(a, h, -t))
        code, _, _ = run_cli(capsys, "evolve", *self.EVOLVE_STIFF)
        assert code == EXIT_FAIL

    def test_commutant(self, capsys):
        space = json.dumps(
            [Mat.basis_elt(2, i, j).to_json() for i in range(2) for j in range(2)]
        )
        code, payload, _ = run_json(capsys, "commutant", "--subspace", space)
        assert code == EXIT_OK
        assert payload["result"]["dimension"] == 1

    def test_invariance_exit_codes(self, capsys):
        block = json.dumps(
            [Mat.basis_elt(4, i, j).to_json() for i in range(2) for j in range(2)]
        )
        good = json.dumps(Mat.diag([1, 2, 3, 4]).to_json())
        code, _, _ = run_json(capsys, "invariance", "--h", good, "--subspace", block)
        assert code == EXIT_OK
        bad = json.dumps((Mat.diag([1, 2, 3, 4]) + Mat.basis_elt(4, 0, 3)).to_json())
        code, payload, _ = run_json(capsys, "invariance", "--h", bad, "--subspace", block)
        assert code == EXIT_FAIL
        assert not payload["result"]["invariant"]

    def test_blocksplit(self, capsys):
        h = json.dumps(Mat.diag([1, 2, 3]).to_json())
        code, payload, _ = run_json(capsys, "blocksplit", "--h", h, "--k", "1")
        assert code == EXIT_OK
        assert payload["result"]["commute"] and payload["result"]["resums"]

    def test_blocksplit_of_an_integer_beyond_the_float_range(self, capsys):
        """A JSON integer entry is read exactly: diag(10^400, 0) splits into
        the exact traceless part diag(10^400/2, -10^400/2)."""
        h = _matrix_cells([[(10**400, 0), (0, 0)], [(0, 0), (0, 0)]])
        code, payload, err = run_json(capsys, "blocksplit", "--h", h, "--k", "1")
        assert code == EXIT_OK, err
        half = 10**400 // 2
        assert Mat.from_json(payload["result"]["generator_top"]) == Mat.diag([half, -half])

    def test_blocksplit_rejects_a_wrong_split(self, capsys, monkeypatch):
        """The re-sum check compares the split with ad_H itself, so a wrong
        bottom block fails it."""
        import aldyn.quantum
        from aldyn.quantum import InnerDerivation, block_split

        def wrong_bottom(h, k):
            top, _ = block_split(h, k)
            return top, InnerDerivation(Mat.diag([0, 0, 0, 1]))

        monkeypatch.setattr(aldyn.quantum, "block_split", wrong_bottom)
        h = Mat.from_rows([[1, 2, 0, 0], [2, -1, 0, 0], [0, 0, 3, 1], [0, 0, 1, 4]])
        code, payload, _ = run_json(capsys, "blocksplit", "--h", json.dumps(h.to_json()), "--k", "2")
        assert code == EXIT_FAIL
        assert payload["result"]["resums"] is False

    def test_biderivation(self, capsys):
        code, payload, _ = run_json(capsys, "biderivation", "--n", "2")
        assert code == EXIT_OK
        result = payload["result"]
        assert result["dimension"] == 1
        assert result["spanned_by_commutator"]
        # the intersection system solved: its nonzero equations, 2 d dim Der
        # unknowns (d = n^2, dim Der = n^2 - 1), rank one less
        assert (result["equations"], result["unknowns"], result["rank"]) == (54, 24, 23)
        code, payload, _ = run_json(capsys, "biderivation", "--n", "3")
        assert code == EXIT_OK
        result = payload["result"]
        assert (result["equations"], result["unknowns"], result["rank"]) == (558, 144, 143)

    def test_biderivation_solves_the_structure_once(self, capsys, monkeypatch):
        """The kernels and the commutator check share one solve of the
        structure constants, the d^2 = 16 products at n = 2."""
        from aldyn.quantum import MatrixSubspace

        solved = []
        coordinates = MatrixSubspace.coordinates

        def counted(space, mats):
            solved.append(len(mats))
            return coordinates(space, mats)

        monkeypatch.setattr(MatrixSubspace, "coordinates", counted)
        code, _, _ = run_json(capsys, "biderivation", "--n", "2")
        assert code == EXIT_OK
        assert solved == [16]

    def test_biderivation_on_mat1_is_the_zero_space(self, capsys):
        """The commutator vanishes on Mat_1, and so does the answer."""
        code, payload, _ = run_json(capsys, "biderivation", "--n", "1")
        assert code == EXIT_OK
        result = payload["result"]
        assert (result["dimension"], result["spanned_by_commutator"]) == (0, True)
        assert (result["equations"], result["unknowns"], result["rank"]) == (0, 0, 0)

    def test_biderivation_rejects_a_wrong_answer(self, capsys, monkeypatch):
        """A solver that returns a two-vector space fails the span check."""
        import aldyn.quantum
        from aldyn.quantum import biderivations
        from aldyn.scalars import GR_ONE

        def two_vectors(space):
            brackets, shape = biderivations(space)
            return brackets + [{(0, 0, 0): GR_ONE}], shape

        monkeypatch.setattr(aldyn.quantum, "biderivations", two_vectors)
        code, payload, _ = run_json(capsys, "biderivation", "--n", "2")
        assert code == EXIT_FAIL
        assert payload["status"] == "fail"
        assert payload["result"]["dimension"] == 2
        assert payload["result"]["spanned_by_commutator"] is False


class TestReductionCommands:
    def test_reduce_free_along_dq(self, capsys):
        gens = GENS
        dq = PolyDerivation(gens, {"q": Poly.one(gens)})
        payload_in = {"dynamics": json.loads(FREE_JSON), "distribution": [dq.to_json()]}
        code, payload, _ = run_json(
            capsys, "reduce", "--input", json.dumps(payload_in), "--degree-cap", "2"
        )
        assert code == EXIT_OK
        assert payload["result"]["normalizer"] == "member"
        assert payload["result"]["invariant_basis_text"] == ["1", "p", "p^2"]
        assert payload["result"]["split"]["case"] == "constants-of-motion"

    def test_reduce_non_member_fails(self, capsys):
        dp = PolyDerivation(GENS, {"p": Poly.one(GENS)})
        payload_in = {
            "dynamics": json.loads(FREE_JSON),
            "distribution": [dp.to_json()],
        }
        code, payload, _ = run_json(capsys, "reduce", "--input", json.dumps(payload_in))
        assert code == EXIT_FAIL
        assert payload["result"]["normalizer"] == "non-member"

    @pytest.mark.parametrize("dist", [_DQ_JSON, _DP_JSON], ids=["member", "non-member"])
    def test_reduce_runs_the_normalizer_ansatz_once(self, capsys, monkeypatch, dist):
        import aldyn.cli as cli
        import aldyn.reduction as reduction

        calls = []
        real = reduction.normalizer_check

        def counted(*args):
            calls.append(args)
            return real(*args)

        # Also where the CLI might call it under its own name.
        monkeypatch.setattr(reduction, "normalizer_check", counted)
        monkeypatch.setattr(cli, "normalizer_check", counted, raising=False)
        payload_in = {"dynamics": json.loads(FREE_JSON), "distribution": [dist]}
        code, payload, _ = run_json(capsys, "reduce", "--input", json.dumps(payload_in))
        assert code == (EXIT_OK if dist is _DQ_JSON else EXIT_FAIL)
        assert len(calls) == 1
        assert ("witness" in payload["result"]) is (dist is _DP_JSON)

    def test_frelate(self, capsys):
        code, payload, _ = run_json(
            capsys, "frelate", "--dynamics", "euler", "--map", "q*p"
        )
        assert code == EXIT_OK
        assert payload["result"]["reducible"]

    def test_frelate_inconclusive(self, capsys):
        code, payload, _ = run_json(
            capsys, "frelate", "--dynamics", "free", "--map", "q"
        )
        assert code == EXIT_INCONCLUSIVE

    def test_connection_found_and_missing(self, capsys):
        dq = PolyDerivation(GENS, {"q": Poly.one(GENS)})
        code, payload, _ = run_json(
            capsys, "connection", "--distribution", json.dumps([dq.to_json()])
        )
        assert code == EXIT_OK and payload["result"]["found"]
        qdq = PolyDerivation(GENS, {"q": Poly.generator(GENS, "q")})
        code, payload, _ = run_json(
            capsys, "connection", "--distribution", json.dumps([qdq.to_json()])
        )
        assert code == EXIT_INCONCLUSIVE

    def test_reduce_with_a_given_connection_splits_coupled(self, capsys):
        """delta = p d_q + p d_p along d_q with alpha = dq: delta^D = p d_q and
        delta' = p d_p do not commute."""
        p = Poly.generator(GENS, "p")
        payload_in = {
            "dynamics": json.loads(derivation_json({"q": p, "p": p})),
            "distribution": [_DQ_JSON],
            "connection": [{"q": Poly.one(GENS).to_json()}],
        }
        code, payload, err = run_json(capsys, "reduce", "--input", json.dumps(payload_in))
        assert code == EXIT_OK, err
        split = payload["result"]["split"]
        assert split["case"] == "coupled" and split["commuting"] is False

    def test_reduce_without_a_polynomial_connection_is_inconclusive(self, capsys):
        """d_p normalizes span(q d_q), but no polynomial alpha has q alpha_q = 1."""
        payload_in = {"dynamics": _DP_JSON, "distribution": [_QDQ_JSON]}
        code, payload, _ = run_json(capsys, "reduce", "--input", json.dumps(payload_in))
        assert code == EXIT_INCONCLUSIVE
        assert payload["result"]["split"]["status"] == "inconclusive"

    @pytest.mark.parametrize("key", ["degree_cap", "conection"])
    def test_reduce_input_takes_no_other_key(self, capsys, key):
        """The input holds dynamics, distribution and an optional connection;
        any other key, a misspelt one included, is bad input naming it."""
        payload_in = {**json.loads(_REDUCE_INPUT), key: 2}
        code, out, err = run_cli(capsys, "reduce", "--input", json.dumps(payload_in), "--json")
        assert code == EXIT_BAD_INPUT and out == ""
        assert f"/input/{key}: unknown key" in err


_MATRIX_GOLDENS = json.loads((Path(__file__).parent / "golden" / "matrix_commands.json").read_text())


class TestFormCommands:
    def form_json(self):
        from aldyn.diffcalc import DerivationBasis, KForm

        basis = DerivationBasis.gell_mann(2)
        return json.dumps(KForm.dual_form(basis, 0).to_json())

    def test_dform(self, capsys):
        code, payload, _ = run_json(capsys, "dform", "--form", self.form_json())
        assert code == EXIT_OK
        assert payload["result"]["form"]["degree"] == 2

    def test_dform_golden_output(self, capsys):
        # d of an N = 3 degree-1 form with mixed rational entries, against
        # stdout recorded from the GaussRational implementation of d: pins
        # the normalisation of every entry and the key order.
        golden = Path(__file__).parent / "golden"
        form = (golden / "dform_n3_degree1_form.json").read_text()
        code, out, _ = run_cli(capsys, "dform", "--form", form, "--json")
        assert code == EXIT_OK
        assert out == (golden / "dform_n3_degree1.out").read_text()

    @pytest.mark.parametrize("case", _MATRIX_GOLDENS, ids=[c["name"] for c in _MATRIX_GOLDENS])
    def test_matrix_command_golden_output(self, capsys, case):
        # --json stdout of commutant, invariance, blocksplit, wedge, contract,
        # lieder, dform, biderivation and the matrix demos, recorded from the
        # Mat that held GaussRational entries: pins every entry's
        # normalisation, the key order and the exit code.
        code, out, _ = run_cli(capsys, *case["argv"], "--json")
        assert (code, out) == (case["code"], case["stdout"])

    def test_wedge(self, capsys):
        code, payload, _ = run_json(
            capsys, "wedge", "--form1", self.form_json(), "--form2", self.form_json()
        )
        assert code == EXIT_OK

    @pytest.mark.parametrize(
        "n, drop_n", [(3, False), (2, True)], ids=["N2-with-N3", "form2-without-n"]
    )
    def test_wedge_form2_must_share_the_algebra(self, capsys, n, drop_n):
        from aldyn.diffcalc import DerivationBasis, KForm

        form2 = KForm.dual_form(DerivationBasis.gell_mann(n), 1).to_json()
        if drop_n:
            del form2["n"]
        code, _, err = run_cli(
            capsys, "wedge", "--form1", self.form_json(), "--form2", json.dumps(form2)
        )
        assert code == EXIT_BAD_INPUT
        assert "/form2" in err and "Traceback" not in err

    def test_contract(self, capsys):
        code, payload, _ = run_json(
            capsys, "contract", "--x", "1,0,0", "--form", self.form_json()
        )
        assert code == EXIT_OK
        assert payload["result"]["form"]["degree"] == 0

    def test_lieder(self, capsys):
        code, payload, _ = run_json(
            capsys, "lieder", "--x", "0,1,0", "--form", self.form_json()
        )
        assert code == EXIT_OK

    def test_lieder_on_a_degree_0_form_is_the_commutator(self, capsys):
        from aldyn.diffcalc import DerivationBasis, KForm

        form = KForm.from_matrix(DerivationBasis.gell_mann(2), Mat.from_json(json.loads(SIGMA_Z)))
        code, payload, _ = run_json(
            capsys, "lieder", "--x", "1,1/2,0", "--form", json.dumps(form.to_json())
        )
        assert code == EXIT_OK
        assert "degree-0 Lie derivative equals [A, X]: pass" in payload["verification"]


class TestErrorHandling:
    def test_parse_error_is_bad_input(self, capsys):
        code, _, err = run_cli(
            capsys, "bracket", "--tensor", "canonical2", "--f", "q^", "--g", "p"
        )
        assert code == EXIT_BAD_INPUT
        assert "input error" in err

    def test_malformed_json_is_bad_input(self, capsys):
        code, _, err = run_cli(capsys, "jacobi", "--tensor", "{not json")
        assert code == EXIT_BAD_INPUT
        assert "/tensor" in err

    def test_schema_violation_reports_path(self, capsys):
        code, _, err = run_cli(capsys, "evolve", "--h", '{"n": 2}', "--a", '{"n": 2}', "--t", "1")
        assert code == EXIT_BAD_INPUT
        assert "/h" in err

    def test_zero_denominator_in_json_is_bad_input(self, capsys):
        h = {"n": 2, "entries": [[{"re": "1/0", "im": "0"}, {"re": "0", "im": "0"}]] * 2}
        a = json.dumps(Mat.from_rows([[1, 0], [0, -1]]).to_json())
        code, _, err = run_cli(capsys, "evolve", "--h", json.dumps(h), "--a", a, "--t", "1")
        assert code == EXIT_BAD_INPUT
        assert "/h" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["flow", "--derivation", "oscillator", "--f", "q"],
            ["biderivation", "--n", "5"],
            ["biderivation", "--n", "-1"],
            ["biderivation", "--n", "0"],
            ["star", "--f", "q", "--g", "p", "--theta", "abc"],
            ["flow", "--derivation", "free", "--f", "q", "--t", "x"],
            ["blocksplit", "--h", json.dumps(Mat.from_rows([[1, 1], [1, 0]]).to_json()), "--k", "1"],
            [
                "evolve",
                "--h", json.dumps(Mat.from_rows([[0, 1], [2, 0]]).to_json()),
                "--a", json.dumps(Mat.from_rows([[1, 0], [0, -1]]).to_json()),
                "--t", "0.5",
            ],
            ["star", "--f", "q", "--g", "p", "--theta", "1/0"],
            ["starcomm", "--f", "q", "--g", "p", "--theta", "1/0"],
            ["flow", "--derivation", "free", "--f", "q", "--t", "1/0"],
            ["star", "--f", "1/0", "--g", "p"],
            ["connection", "--distribution", json.dumps([_DQ_JSON]), "--degree-cap", "-1"],
            ["reduce", "--input", _REDUCE_INPUT, "--ansatz-cap", "-1"],
            ["frelate", "--dynamics", "euler", "--map", "q*p", "--ansatz-cap", "-1"],
            ["star", "--f", "q", "--g", "p", "--pairs", "0"],
            ["star", "--f", "q", "--g", "p", "--pairs", "-1"],
            ["starcomm", "--f", "q", "--g", "p", "--pairs", "0"],
            ["starcomm", "--f", "q", "--g", "p", "--pairs", "-1"],
            ["flow", "--derivation", "oscillator", "--f", "theta*q", "--t", "1"],
            ["evolve", "--h", SIGMA_X, "--a", SIGMA_Z, "--t", "nan"],
            ["evolve", "--h", SIGMA_X, "--a", SIGMA_Z, "--t", "inf"],
            ["evolve", "--h", SIGMA_X, "--a", SIGMA_Z, "--t=-inf"],
            ["demo", "action-angle", "--action", "inf"],
            ["demo", "action-angle", "--theta0", "nan"],
            ["demo", "block-reduction", "--tol", "nan"],
            ["demo", "action-angle", "--t", "1e400"],
            ["demo", "action-angle", "--action", "1e308", "--t", "10"],
            ["demo", "oscillator", "--t", "1e400"],
            ["flow", "--derivation", "oscillator", "--f", "q", "--t", "1e400"],
            ["evolve", "--h", _matrix_cells([[("1e400", "0"), ("0", "0")], [("0", "0"), ("1", "0")]]),
             "--a", SIGMA_Z, "--t", "1"],
            ["evolve", "--h", NEAR_HERMITIAN, "--a", SIGMA_Z, "--t", "1"],
            ["reduce", "--input", "5"],
            ["reduce", "--input", json.dumps(
                {"dynamics": json.loads(FREE_JSON), "distribution": [_DQ_JSON], "connection": 5})],
            ["reduce", "--input", json.dumps(
                {"dynamics": json.loads(FREE_JSON), "distribution": [_DQ_JSON], "connection": [5]})],
            ["reduce", "--input", json.dumps({"dynamics": json.loads(FREE_JSON), "distribution": 5})],
            ["connection", "--distribution", "5"],
            ["flow", "--derivation", '{"images": 5}', "--f", "q"],
            ["jacobi", "--tensor", "5"],
        ],
        ids=["flow-nilpotent-oscillator", "biderivation-n5", "biderivation-n-1",
             "biderivation-n0", "star-theta-abc",
             "flow-t-x", "blocksplit-not-block", "evolve-not-hermitian",
             "star-theta-zero-denominator", "starcomm-theta-zero-denominator",
             "flow-t-zero-denominator", "star-literal-zero-denominator",
             "connection-degree-cap-negative", "reduce-ansatz-cap-negative",
             "frelate-ansatz-cap-negative", "star-pairs-0", "star-pairs-negative",
             "starcomm-pairs-0", "starcomm-pairs-negative", "flow-linear-theta",
             "evolve-t-nan", "evolve-t-inf", "evolve-t-minus-inf",
             "demo-action-angle-action-inf", "demo-action-angle-theta0-nan",
             "demo-block-reduction-tol-nan",
             "demo-action-angle-t-overflow", "demo-action-angle-phase-overflow",
             "demo-oscillator-t-overflow", "flow-linear-t-overflow",
             "evolve-entry-overflow", "evolve-near-hermitian",
             "reduce-input-not-object", "reduce-connection-number",
             "reduce-connection-form-number", "reduce-distribution-number",
             "connection-distribution-number", "flow-images-number", "jacobi-tensor-number"],
    )
    def test_malformed_invocation_exits_bad_input(self, argv):
        """A bad input must exit 2 in a fresh process, never crash as 1."""
        proc = run_fresh(argv)
        assert proc.returncode == EXIT_BAD_INPUT, proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["evolve", "--h", json.dumps(Mat.from_rows([[10]]).to_json()),
             "--a", json.dumps(Mat.from_rows([[1]]).to_json()), "--t", "1e308"],
            ["demo", "oscillator", "--t", "1e300"],
            ["flow", "--derivation", "oscillator", "--f", "q", "--t", "1e300"],
            ["flow", "--derivation", "oscillator", "--f", "q", "--t", "1e308"],
        ],
        ids=["evolve-phase-overflow", "demo-oscillator-expm-overflow", "flow-linear-expm-overflow",
             "flow-linear-expm-scaling-overflow"],
    )
    def test_overflowing_time_is_bad_input(self, capsys, argv, as_json):
        """A finite time whose phase t w or exponential e^(t c) overflows is
        bad input naming --t in both output modes, with no numpy warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, *argv, *(["--json"] if as_json else []))
        assert code == EXIT_BAD_INPUT
        assert out == ""
        assert err.startswith("input error: --t")

    @pytest.mark.parametrize(
        "argv",
        [
            ["jacobi", "--tensor", "su2", "--theta", "1/2"],
            ["bracket", "--tensor", "canonical2", "--f", "q", "--g", "p", "--tol", "1"],
            ["star", "--f", "q", "--g", "p", "--degree-cap", "2"],
            ["connection", "--distribution", "[]", "--ansatz-cap", "2"],
            ["demo", "action-angle", "--tol", "1e-30"],
            ["demo", "free", "--n", "3"],
            ["flow", "--derivation", "free", "--f", "q", "--mode", "linear"],
            ["evolve", "--h", SIGMA_X, "--a", SIGMA_Z, "--t", "1", "--tol", "1"],
            ["demo", "oscillator", "--tol", "1"],
        ],
        ids=["jacobi-theta", "bracket-tol", "star-degree-cap", "connection-ansatz-cap",
             "demo-action-angle-tol", "demo-free-n", "flow-mode", "evolve-tol",
             "demo-oscillator-tol"],
    )
    def test_unread_flag_exits_bad_input(self, capsys, argv):
        """A flag the subcommand or demo does not read is malformed input."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_BAD_INPUT
        assert "Traceback" not in capsys.readouterr().err

    def test_deep_parentheses_are_bad_input(self, capsys):
        deep = "(" * 200 + "q" + ")" * 200
        code, out, err = run_cli(
            capsys, "bracket", "--tensor", "canonical2", "--f", deep, "--g", "p"
        )
        assert code == EXIT_BAD_INPUT and out == ""
        assert err.startswith("input error: /f: expression nested too deeply")

    def test_deeply_nested_json_is_bad_input(self, capsys, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run_cli(capsys, "jacobi", "--tensor", f"@{deep}")
        assert code == EXIT_BAD_INPUT and out == ""
        assert err == "input error: /tensor: JSON nested too deeply\n"

    @pytest.mark.parametrize(
        "command, small, large, where",
        [("invariance", "--h", "--subspace", "/h"), ("evolve", "--h", "--a", "/a")],
        ids=["invariance", "evolve"],
    )
    def test_matrix_size_mismatch_names_the_input(self, capsys, command, small, large, where):
        h = json.dumps(Mat.identity(2).to_json())
        m = Mat.identity(3).to_json()
        big = json.dumps([m] if command == "invariance" else m)
        extra = ["--t", "1"] if command == "evolve" else []
        code, out, err = run_cli(capsys, command, small, h, large, big, *extra)
        assert code == EXIT_BAD_INPUT and out == ""
        assert err.startswith(f"input error: {where}: a ")

    def test_a_huge_decimal_exponent_is_refused_at_once(self, capsys):
        """Read as a Fraction, 1e-10000000 would build 10^10000000 first."""
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "star", "--f", "q", "--g", "p", "--theta", "1e-10000000")
        assert time.perf_counter() - start < 1
        assert code == EXIT_BAD_INPUT and out == ""
        assert "/theta" in err


def run_python(args, stdin=None) -> subprocess.CompletedProcess:
    """`python args` in a fresh process that imports this aldyn."""
    src = str(Path(aldyn.__file__).resolve().parents[1])
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
    }
    return subprocess.run(
        [sys.executable, *args],
        input=stdin, capture_output=True, text=True, env=env, timeout=60,
    )


def run_fresh(argv) -> subprocess.CompletedProcess:
    """`python -m aldyn.cli argv` in a fresh process."""
    return run_python(["-m", "aldyn.cli", *argv])


def test_no_module_level_numpy_import():
    """numpy is imported only inside the functions that compute in floats,
    so importing aldyn, or running an exact subcommand, never loads it."""
    top_level = []
    for path in sorted(Path(aldyn.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        nested = {
            id(node)
            for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(fn)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n.split(".")[0] == "numpy" for n in names) and id(node) not in nested:
                top_level.append(f"{path.name}:{node.lineno}")
    assert top_level == []


def test_cold_import_adds_no_dataclasses_inspect_or_numpy():
    """In fresh processes: `import aldyn` loads no submodule; `import
    aldyn.cli` loads only the modules its parser needs, and none of
    dataclasses, inspect or numpy beyond the ones a bare interpreter has
    already loaded (through `site`, say); a cold `bracket` loads none of
    the library modules it does not use."""
    show = "import sys; print(*sorted(sys.modules))"
    argv = ["bracket", "--tensor", "canonical2", "--f", "q^2", "--g", "p^3", "--json"]
    runs = [
        run_python(["-c", code])
        for code in (
            show,
            f"import aldyn; {show}",
            f"import aldyn.cli; {show}",
            f"import aldyn.cli; aldyn.cli.main({argv!r}); {show}",
        )
    ]
    assert [r.returncode for r in runs] == [0] * 4, "".join(r.stderr for r in runs)
    bare, package, cold, bracket = (set(r.stdout.splitlines()[-1].split()) for r in runs)
    aldyn_modules = lambda names: {m for m in names if m.split(".")[0] == "aldyn"}
    assert aldyn_modules(package) == {"aldyn"}
    assert aldyn_modules(cold) == {"aldyn", "aldyn.cli", "aldyn.report", "aldyn.scalars", "aldyn.demos"}
    assert (cold - bare) & {"dataclasses", "inspect", "numpy"} == set()
    assert json.loads(runs[3].stdout.splitlines()[0])["status"] == "ok"
    unused = {f"aldyn.{m}" for m in ("moyal", "diffcalc", "quantum", "matrices", "reduction")}
    assert bracket & unused == set()


def test_cold_matrix_commands_load_only_what_they_use():
    """In fresh processes: a cold `commutant` on a 2x2 subspace and a cold
    `dform` on a Gell-Mann form load no `aldyn.poly`, a cold `evolve` on
    malformed or non-Hermitian input exits 2 without importing numpy, and
    the float linear flow, in the oscillator demo and in `flow`, imports no
    numpy either."""
    from aldyn.diffcalc import DerivationBasis, KForm

    diag = json.dumps([Mat.diag([1, -1]).to_json()])
    form = json.dumps(KForm.dual_form(DerivationBasis.gell_mann(3), 1).to_json())
    nilpotent = json.dumps(Mat.from_rows([[0, 1], [0, 0]]).to_json())
    cases = [
        (["commutant", "--subspace", diag, "--json"], EXIT_OK, "aldyn.poly"),
        (["dform", "--form", form, "--json"], EXIT_OK, "aldyn.poly"),
        (["evolve", "--h", "x", "--a", "y", "--t", "1"], EXIT_BAD_INPUT, "numpy"),
        (["evolve", "--h", nilpotent, "--a", nilpotent, "--t", "1"], EXIT_BAD_INPUT, "numpy"),
        (["demo", "oscillator", "--json"], EXIT_OK, "numpy"),
        (["flow", "--derivation", "oscillator", "--f", "q", "--t", "1", "--json"], EXIT_OK, "numpy"),
    ]
    bare = set(run_python(["-c", "import sys; print(*sorted(sys.modules))"]).stdout.split())
    for argv, code, unused in cases:
        run = run_python(
            ["-c", f"import aldyn.cli, sys; print(aldyn.cli.main({argv!r}), *sorted(sys.modules))"]
        )
        exit_code, *modules = run.stdout.splitlines()[-1].split()
        assert int(exit_code) == code, run.stderr
        assert unused not in set(modules) - bare, argv[0]


_NUMPY_BLOCKED = """
import contextlib, io, json, sys

sys.modules["numpy"] = None  # every numpy import now raises ImportError
import aldyn, aldyn.cli


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = aldyn.cli.main(argv)
        except ImportError:
            code = None
    return [code, out.getvalue()]


json.dump({name: run(argv) for name, argv in json.load(sys.stdin).items()}, sys.stdout)
"""


def test_exact_paths_run_with_numpy_blocked(capsys):
    """One cold process in which numpy cannot be imported runs every exact
    subcommand, the float linear flow and every demo to the same stdout as a
    normal run; `evolve`, which needs numpy, shows that the block holds."""
    from aldyn.diffcalc import DerivationBasis, KForm

    form = json.dumps(KForm.dual_form(DerivationBasis.gell_mann(2), 0).to_json())
    block = json.dumps([Mat.basis_elt(4, i, j).to_json() for i in range(2) for j in range(2)])
    full = json.dumps([Mat.basis_elt(2, i, j).to_json() for i in range(2) for j in range(2)])
    exact = {
        "bracket": ["bracket", "--tensor", "canonical2", "--f", "q^2", "--g", "p^3"],
        "star": ["star", "--f", "q^2", "--g", "p^2"],
        "starcomm": ["starcomm", "--f", "q^3", "--g", "p^2"],
        "flow": ["flow", "--derivation", "free", "--f", "q^2", "--t", "3/2"],
        "flow-linear": ["flow", "--derivation", "oscillator", "--f", "q", "--t", "1"],
        "hamfield": ["hamfield", "--tensor", "canonical2", "--h", "1/2*p^2"],
        "jacobi": ["jacobi", "--tensor", "su2"],
        "casimir": ["casimir", "--tensor", "su2", "--c", "x^2 + y^2 + z^2"],
        "biderivation-n2": ["biderivation", "--n", "2"],
        "biderivation-n3": ["biderivation", "--n", "3"],
        "commutant": ["commutant", "--subspace", full],
        **{f"demo-{name}": ["demo", name] for name in DEMOS},
        "reduce": ["reduce", "--input", _REDUCE_INPUT],
        "dform": ["dform", "--form", form],
        "invariance": ["invariance", "--h", json.dumps(Mat.diag([1, 2, 3, 4]).to_json()),
                       "--subspace", block],
        "blocksplit": ["blocksplit", "--h", json.dumps(Mat.diag([1, 2, 3]).to_json()), "--k", "1"],
    }
    exact = {name: [*argv, "--json"] for name, argv in exact.items()}
    proc = run_python(
        ["-c", _NUMPY_BLOCKED],
        json.dumps({**exact, "evolve": ["evolve", "--h", SIGMA_X, "--a", SIGMA_Z, "--t", "1"]}),
    )
    assert proc.returncode == 0, proc.stderr
    blocked = json.loads(proc.stdout)
    assert blocked.pop("evolve")[0] != EXIT_OK
    expected = {name: list(run_cli(capsys, *argv)[:2]) for name, argv in exact.items()}
    assert {name: run[0] for name, run in expected.items()} == dict.fromkeys(exact, EXIT_OK)
    assert blocked == expected


def _subparsers(parser: argparse.ArgumentParser) -> dict:
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def _options(parser: argparse.ArgumentParser) -> set[str]:
    """Destinations of the options a parser declares, beyond -h and --json/--text."""
    return {a.dest for a in parser._actions if a.option_strings and a.dest not in ("help", "as_json")}


def _function_ast(fn) -> ast.FunctionDef:
    return ast.parse(textwrap.dedent(inspect.getsource(fn))).body[0]


def test_every_declared_option_is_read():
    """A subcommand handler reads each of its options as args.<dest>; a demo
    reads each of its options as the parameter of that name."""
    unread = []
    for command, parser in _subparsers(_build_parser()).items():
        handler = _function_ast(parser.get_default("fn"))
        read = {
            node.attr
            for node in ast.walk(handler)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "args"
        }
        unread += [f"{command} {dest}" for dest in sorted(_options(parser) - read)]
    for name, parser in _subparsers(_subparsers(_build_parser())["demo"]).items():
        body = _function_ast(DEMOS[name][0]).body
        read = {
            node.id
            for stmt in body
            for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unread += [f"demo {name} {dest}" for dest in sorted(_options(parser) - read)]
    assert unread == []


# The options of every subcommand and demo: a new option is an edit here.
OPTION_SETS = {
    "bracket": {"tensor", "f", "g", "theta"},
    "jacobi": {"tensor"},
    "hamfield": {"tensor", "h"},
    "star": {"f", "g", "pairs", "theta"},
    "starcomm": {"f", "g", "pairs", "theta"},
    "flow": {"derivation", "f", "t"},
    "nilpotency": {"derivation", "cutoff"},
    "evolve": {"h", "a", "t"},
    "commutant": {"subspace"},
    "invariance": {"h", "subspace"},
    "blocksplit": {"h", "k"},
    "biderivation": {"n"},
    "reduce": {"input", "degree_cap", "ansatz_cap"},
    "frelate": {"dynamics", "map", "ansatz_cap"},
    "connection": {"distribution", "degree_cap"},
    "dform": {"form"},
    "wedge": {"form1", "form2"},
    "contract": {"form", "x"},
    "lieder": {"form", "x"},
    "casimir": {"tensor", "c"},
    "demo": set(),
    "demo free": {"t", "observable"},
    "demo oscillator": {"t"},
    "demo action-angle": {"t", "action", "theta0"},
    "demo block-reduction": set(),
    "demo s-space": set(),
    "demo wigner": set(),
    "demo maurer-cartan": {"n"},
}


def test_option_sets_are_pinned():
    parser = _build_parser()
    found = {name: _options(p) for name, p in _subparsers(parser).items()}
    demos = _subparsers(_subparsers(parser)["demo"])
    found.update((f"demo {name}", _options(p)) for name, p in demos.items())
    assert found == OPTION_SETS


# Argvs whose output must not depend on how much of the parser is built.
PARSER_ARGVS = [
    [], ["--help"], ["nosuch"], ["bracket", "--help"], ["demo"], ["demo", "--help"],
    ["demo", "nosuch"], ["demo", "--json", "free"], ["demo", "free", "--bogus"],
    ["bracket", "--tensor", "su2", "--f", "x", "--g", "y", "extra"],
]


def _parse(parser: argparse.ArgumentParser, argv) -> tuple:
    """(exit code, stdout, stderr, parsed options) of parsing argv; the exit
    code is None and the options a dict when the parse succeeds."""
    out, err = io.StringIO(), io.StringIO()
    code, parsed = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            parsed = vars(parser.parse_args(argv))
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue(), parsed


@pytest.mark.parametrize("argv", PARSER_ARGVS, ids=" ".join)
def test_one_command_parser_prints_what_the_full_one_prints(argv):
    """The parser `main` builds from argv's first two tokens parses, prints
    and exits as the parser of every subcommand does."""
    assert _parse(_build_parser(*argv[:2]), argv) == _parse(_build_parser(), argv)


def test_a_command_builds_only_its_subparser():
    full = _build_parser()
    assert len(_subparsers(full)) == len(OPTION_SETS) - len(DEMOS)
    assert set(_subparsers(_build_parser("bracket"))) == {"bracket"}
    assert set(_subparsers(_build_parser("demo", "--json"))) == {"demo"}
    assert set(_subparsers(_subparsers(_build_parser("demo", "--json"))["demo"])) == set(DEMOS)
    assert set(_subparsers(_subparsers(_build_parser("demo", "free"))["demo"])) == {"free"}
    assert set(_subparsers(_build_parser("nosuch"))) == set(_subparsers(full))


# Each invocation reaches the code that reads its last option.
INTEGER_OPTIONS = {
    "biderivation-n": ["biderivation", "--n"],
    "demo-maurer-cartan-n": ["demo", "maurer-cartan", "--n"],
    "star-pairs": ["star", "--f", "q", "--g", "p", "--pairs"],
    "starcomm-pairs": ["starcomm", "--f", "q", "--g", "p", "--pairs"],
    "blocksplit-k": ["blocksplit", "--h", json.dumps(Mat.diag([1, 2, 3]).to_json()), "--k"],
    "nilpotency-cutoff": ["nilpotency", "--derivation", "free", "--cutoff"],
    "connection-degree-cap": ["connection", "--distribution", json.dumps([_DQ_JSON]), "--degree-cap"],
    "reduce-degree-cap": ["reduce", "--input", _REDUCE_INPUT, "--degree-cap"],
    "reduce-ansatz-cap": ["reduce", "--input", _REDUCE_INPUT, "--ansatz-cap"],
    "frelate-ansatz-cap": ["frelate", "--dynamics", "euler", "--map", "q*p", "--ansatz-cap"],
}


@pytest.mark.parametrize("value", ["-1", "0", "1"])
@pytest.mark.parametrize("option", sorted(INTEGER_OPTIONS))
def test_integer_options_keep_the_exit_code_contract(capsys, option, value):
    """Every integer option at -1, 0 and 1 ends in a contract exit code;
    an exception escaping main would fail the test."""
    code, _, err = run_cli(capsys, *INTEGER_OPTIONS[option], value, "--json")
    assert code in (EXIT_OK, EXIT_FAIL, EXIT_BAD_INPUT, EXIT_INCONCLUSIVE), err


def _form_doc() -> dict:
    from aldyn.diffcalc import DerivationBasis, KForm

    return KForm.dual_form(DerivationBasis.gell_mann(2), 0).to_json()


# Each entry point as (argv, {option: valid JSON document}); the fuzz breaks
# one of the documents and passes the others as they are.
_TENSOR_DOC = PoissonTensor.canonical(1).to_json()
# hamfield takes its tensor as structure constants, the other tensor
# commands as components.
_SU2_DOC = {"c": [[[str(x) for x in row] for row in plane] for plane in SU2]}
_FREE_DOC = json.loads(FREE_JSON)
_SIGMA_X_DOC, _SIGMA_Z_DOC = json.loads(SIGMA_X), json.loads(SIGMA_Z)
JSON_ENTRY_POINTS = {
    "bracket": (["--f", "q", "--g", "p"], {"--tensor": _TENSOR_DOC}),
    "jacobi": ([], {"--tensor": _TENSOR_DOC}),
    "hamfield": (["--h", "x*y"], {"--tensor": _SU2_DOC}),
    "casimir": (["--c", "q"], {"--tensor": _TENSOR_DOC}),
    "flow": (["--f", "q", "--t", "1"], {"--derivation": _FREE_DOC}),
    "nilpotency": ([], {"--derivation": _FREE_DOC}),
    "evolve": (["--t", "0.5"], {"--h": _SIGMA_X_DOC, "--a": _SIGMA_Z_DOC}),
    "commutant": ([], {"--subspace": [_SIGMA_Z_DOC]}),
    "invariance": ([], {"--h": _SIGMA_Z_DOC, "--subspace": [_SIGMA_Z_DOC]}),
    "blocksplit": (["--k", "1"], {"--h": _SIGMA_Z_DOC}),
    "reduce": ([], {"--input": json.loads(_REDUCE_INPUT)}),
    "frelate": (["--map", "p"], {"--dynamics": _FREE_DOC}),
    "connection": ([], {"--distribution": [_DQ_JSON]}),
    "dform": ([], {"--form": _form_doc()}),
    "wedge": ([], {"--form1": _form_doc(), "--form2": _form_doc()}),
    "contract": (["--x", "1,0,0"], {"--form": _form_doc()}),
    "lieder": (["--x", "0,1,0"], {"--form": _form_doc()}),
}

# Small numbers only: a valid but huge exponent, size or cap is not
# malformed, and it can exhaust time or memory.
_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 4),
    st.sampled_from([0.5, 2.5, float("inf"), float("nan")]),
    st.sampled_from(["1/0", "", "q", "x", "1/2", "-1"]),
    st.lists(st.integers(-1, 2), max_size=3),
    st.dictionaries(st.sampled_from(["n", "a", "re", "terms"]), st.integers(-1, 2), max_size=2),
)


def _paths(doc, path=()):
    yield path
    if isinstance(doc, dict):
        items = doc.items()
    else:
        items = enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


@st.composite
def _malformed_invocations(draw):
    command = draw(st.sampled_from(sorted(JSON_ENTRY_POINTS)))
    argv, docs = JSON_ENTRY_POINTS[command]
    option = draw(st.sampled_from(sorted(docs)))
    doc = copy.deepcopy(docs[option])
    path = draw(st.sampled_from(list(_paths(doc))))
    if not path:
        doc = draw(_JUNK)  # a wrong top-level type
    else:
        parent = functools.reduce(operator.getitem, path[:-1], doc)
        if draw(st.booleans()):
            del parent[path[-1]]  # a missing key or list entry
        else:
            parent[path[-1]] = draw(_JUNK)
    texts = {opt: json.dumps(d) for opt, d in docs.items()}
    texts[option] = json.dumps(doc)
    return [command, *argv, *(arg for opt, text in texts.items() for arg in (opt, text))]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_malformed_invocations())
def test_malformed_json_options_keep_the_exit_code_contract(argv):
    """Broken JSON documents on every JSON option end in a contract exit code
    with empty or strict-JSON stdout; no exception escapes main."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--json"])
    assert code in (EXIT_OK, EXIT_FAIL, EXIT_BAD_INPUT, EXIT_INCONCLUSIVE), err.getvalue()
    if out.getvalue():
        json.loads(out.getvalue(), parse_constant=_reject_constant)


def _tensor_with_indices(a: int, b: int) -> str:
    doc = copy.deepcopy(_TENSOR_DOC)
    doc["components"][0].update(a=a, b=b)
    return json.dumps(doc)


def _form_with_idx(idx) -> str:
    doc = _form_doc()
    doc["degree"] = 1
    doc["coeffs"] = [{"idx": [idx], "value": _SIGMA_Z_DOC}]
    return json.dumps(doc)


@pytest.mark.parametrize(
    "argv",
    [
        ["jacobi", "--tensor", _tensor_with_indices(0, 4)],
        ["jacobi", "--tensor", _tensor_with_indices(-1, 0)],
        ["dform", "--form", _form_with_idx(0.5)],
        ["blocksplit", "--k", "1", "--h", _matrix_cells([[(1, 0), (math.inf, 0)], [(0, 0), (0, 0)]])],
        ["blocksplit", "--k", "1", "--h", json.dumps({**_SIGMA_Z_DOC, "n": float("inf")})],
    ],
    ids=["tensor-index-4", "tensor-index-minus-1", "form-index-float", "matrix-entry-infinity",
         "matrix-n-infinity"],
)
def test_json_values_found_by_the_fuzz_are_bad_input(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--json")
    assert code == EXIT_BAD_INPUT and out == "", err


def _edited(doc: dict, path: tuple, value) -> str:
    doc = copy.deepcopy(doc)
    functools.reduce(operator.getitem, path[:-1], doc)[path[-1]] = value
    return json.dumps(doc)


_TERM_PATH = ("components", 0, "poly", "terms", 0)
_FORM_DOC = _form_doc()


@pytest.mark.parametrize(
    "argv, where",
    [
        (["bracket", "--tensor", _edited(_TENSOR_DOC, ("components", 0, "a"), 0.5),
          "--f", "q", "--g", "p"], "/tensor"),
        (["bracket", "--tensor", _edited(_TENSOR_DOC, (*_TERM_PATH, "exps"), [0.9, 0]),
          "--f", "q", "--g", "p"], "/tensor"),
        (["jacobi", "--tensor", _edited(_TENSOR_DOC, (*_TERM_PATH, "coeff", 0, "theta"), 1.5)],
         "/tensor"),
        (["jacobi", "--tensor", json.dumps(
            {"dim": 2.5, "components": [{"a": 0, "b": 1, "poly": {"generators": [
                {"name": "x1"}, {"name": "x2"}], "terms": []}}]})], "/tensor"),
        (["dform", "--form", _edited(_FORM_DOC, ("n",), 2.5)], "/form"),
        (["dform", "--form", _edited(_FORM_DOC, ("degree",), 0.5)], "/form"),
        (["wedge", "--form1", json.dumps(_FORM_DOC), "--form2", _edited(_FORM_DOC, ("n",), 2.5)],
         "/form2"),
    ],
    ids=["tensor-index", "tensor-exps", "tensor-theta", "tensor-dim", "form-n", "form-degree",
         "wedge-n"],
)
def test_non_integral_json_numbers_are_bad_input(capsys, argv, where):
    """A fractional number in an integer field is bad input naming its
    JSON path, never an integer truncated towards zero."""
    code, out, err = run_cli(capsys, *argv, "--json")
    assert code == EXIT_BAD_INPUT and out == "", err
    assert where in err and "is not an integer" in err


@pytest.mark.parametrize("dim", [7, 2.5], ids=["dim-7", "dim-2.5"])
def test_tensor_dim_must_match_generators(capsys, dim):
    """With both keys present, `dim` is an integer equal to the number of
    generators; a contradicting or fractional `dim` is bad input."""
    tensor = _edited(_TENSOR_DOC, ("dim",), dim)
    code, out, err = run_cli(capsys, "bracket", "--tensor", tensor, "--f", "q", "--g", "p", "--json")
    assert code == EXIT_BAD_INPUT and out == "", err
    assert "/tensor" in err and "dim" in err


# main() in a fresh process whose address space is capped at 1 GiB (as by
# `ulimit -v`), so a size check that fails cannot exhaust the machine.
_MAIN_UNDER_ULIMIT = (
    "import resource, sys\n"
    "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
    "from aldyn.cli import main\n"
    "sys.exit(main(sys.argv[1:]))\n"
)


@pytest.mark.parametrize("size", [1000000, 1e308], ids=["tensor-dim-1000000", "tensor-dim-1e308"])
def test_sizes_beyond_the_budget_are_bad_input(size):
    """A tensor dim whose dim^2 components exceed `scalars.MAX_UNKNOWNS` is
    refused before anything is built: exit 2 naming the field, no
    MemoryError."""
    argv = ["jacobi", "--tensor", json.dumps({"dim": size, "components": []})]
    proc = run_python(["-c", _MAIN_UNDER_ULIMIT, *argv, "--json"])
    assert proc.returncode == EXIT_BAD_INPUT and proc.stdout == "", proc.stderr
    assert "/tensor/dim: " in proc.stderr and "budget" in proc.stderr
    assert "Traceback" not in proc.stderr


def _gell_mann_form(n: int) -> str:
    return json.dumps({"degree": 0, "basis": "gell-mann", "n": n, "coeffs": []})


@pytest.mark.parametrize(
    "argv, where",
    [
        (["frelate", "--dynamics", "euler", "--map", "q*p", "--ansatz-cap", "100000000"],
         "--ansatz-cap: "),
        (["reduce", "--input", _REDUCE_INPUT, "--ansatz-cap", "100000000"], "--ansatz-cap: "),
        (["reduce", "--input", _REDUCE_INPUT, "--degree-cap", "100000000"], "--degree-cap: "),
        (["connection", "--distribution", json.dumps([_DQ_JSON]), "--degree-cap", "100000000"],
         "--degree-cap: "),
        (["demo", "maurer-cartan", "--n", "100000"], "--n: "),
        (["dform", "--form", _gell_mann_form(100000)], "/form/n: "),
        (["wedge", "--form1", _gell_mann_form(100000), "--form2", _gell_mann_form(2)],
         "/form1/n: "),
        (["contract", "--form", _gell_mann_form(100000), "--x", "1"], "/form/n: "),
        (["lieder", "--form", _gell_mann_form(100000), "--x", "1"], "/form/n: "),
        (["star", "--f", "q1", "--g", "p1", "--pairs", "10000000"], "--pairs: "),
        (["starcomm", "--f", "q1", "--g", "p1", "--pairs", "10000000"], "--pairs: "),
    ],
    ids=["frelate-ansatz-cap", "reduce-ansatz-cap", "reduce-degree-cap", "connection-degree-cap",
         "demo-maurer-cartan-n", "dform-n", "wedge-n", "contract-n", "lieder-n", "star-pairs",
         "starcomm-pairs"],
)
def test_option_sizes_beyond_the_budget_are_bad_input(argv, where):
    """Ansatz caps (C(n + cap, n) unknowns), a form's n (n^4 generator
    entries) and star pairs ((2 pairs)^2 components) are compared with
    `scalars.MAX_UNKNOWNS` before anything is built: exit 2 naming the option
    or JSON field, no MemoryError."""
    proc = run_python(["-c", _MAIN_UNDER_ULIMIT, *argv, "--json"])
    assert proc.returncode == EXIT_BAD_INPUT and proc.stdout == "", proc.stderr
    assert where in proc.stderr and "budget" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_power_beyond_the_budget_is_bad_input(capsys):
    """The terms a caret power can have are compared with
    `scalars.MAX_UNKNOWNS` before it is expanded: (q+p)^100000 (100,001
    terms) is bad input naming the option, not a run of minutes."""
    code, out, err = run_cli(
        capsys, "bracket", "--tensor", "canonical2", "--f", "(q+p)^100000", "--g", "q"
    )
    assert code == EXIT_BAD_INPUT and out == ""
    assert err == (
        "input error: /f: ^100000: the 100001 possible terms of the power exceed the budget"
        f" of {MAX_UNKNOWNS} (at position 5)\n"
    )


@pytest.mark.parametrize(
    "argv, where",
    [
        (["reduce", "--input", _REDUCE_INPUT, "--degree-cap", "-1"], "--degree-cap"),
        (["reduce", "--input", _REDUCE_INPUT, "--ansatz-cap", "-1"], "--ansatz-cap"),
        (["connection", "--distribution", json.dumps([_DQ_JSON]), "--degree-cap", "-1"],
         "--degree-cap"),
        (["frelate", "--dynamics", "euler", "--map", "q*p", "--ansatz-cap", "-1"], "--ansatz-cap"),
    ],
    ids=["reduce-degree-cap", "reduce-ansatz-cap", "connection-degree-cap", "frelate-ansatz-cap"],
)
def test_negative_cap_names_its_option(capsys, argv, where):
    """`reduce` reads two caps, so the error must say which one is negative."""
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_BAD_INPUT and out == ""
    assert err == f"input error: {where}: degree cap must be >= 0\n"


@pytest.mark.parametrize(
    "argv, error",
    [
        (["nilpotency", "--derivation", "free", "--cutoff", "0"], "--cutoff: cutoff must be >= 1"),
        (["nilpotency", "--derivation", "oscillator", "--cutoff", "1000000000"],
         f"--cutoff: applications of the derivation exceed the budget of {MAX_UNKNOWNS}"),
        (["star", "--f", "q", "--g", "p", "--pairs", "0"],
         "--pairs: phase space needs at least one pair"),
        (["starcomm", "--f", "q", "--g", "p", "--pairs", "0"],
         "--pairs: phase space needs at least one pair"),
        (["blocksplit", "--h", SIGMA_Z, "--k", "0"], "--k: need 0 < k < n, and /h is 2x2"),
        (["demo", "free", "--observable", "x"],
         "--observable: unknown name 'x'; generators are ['q', 'p'] (at position 0)"),
    ],
    ids=["nilpotency-cutoff", "nilpotency-cutoff-budget", "star-pairs", "starcomm-pairs", "blocksplit-k", "demo-free-observable"],
)
def test_option_errors_name_their_option(capsys, argv, error):
    """An option value the command cannot use is bad input naming the option."""
    for mode in ("--json", "--text"):
        code, out, err = run_cli(capsys, *argv, mode)
        assert (code, out, err) == (EXIT_BAD_INPUT, "", f"input error: {error}\n")


_DERIVATION_BASIS_SIZE = "matrix size must be >= 2 for a derivation basis, got {}"
_BIDERIVATION_SIZE = "matrix size must be in 1..4 for the biderivation solver, got {}"


@pytest.mark.parametrize(
    "argv, error",
    [
        *((["demo", "maurer-cartan", "--n", n], "--n: " + _DERIVATION_BASIS_SIZE.format(n))
          for n in ("1", "0", "-1")),
        (["dform", "--form", _gell_mann_form(1)], "/form/n: " + _DERIVATION_BASIS_SIZE.format(1)),
        *((["biderivation", "--n", n], "--n: " + _BIDERIVATION_SIZE.format(n))
          for n in ("5", "0", "-1")),
    ],
    ids=["demo-maurer-cartan-n1", "demo-maurer-cartan-n0", "demo-maurer-cartan-n-1", "dform-n1",
         "biderivation-n5", "biderivation-n0", "biderivation-n-1"],
)
def test_matrix_sizes_out_of_range_name_the_option_and_rule(capsys, argv, error):
    """A matrix size outside what the command can build is bad input that
    names the option or JSON field and the allowed range."""
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_BAD_INPUT and out == ""
    assert err == f"input error: {error}\n"


def test_sizes_within_the_budget_run(capsys):
    argv = ["reduce", "--input", _REDUCE_INPUT, "--degree-cap", "12", "--json"]
    code, _, err = run_cli(capsys, *argv)
    assert code == EXIT_OK, err
    code, _, err = run_cli(capsys, "jacobi", "--tensor", json.dumps({"dim": 4, "components": []}))
    assert code == EXIT_OK, err


def test_integral_floats_are_integers(capsys):
    argv = ["--f", "q", "--g", "p", "--json"]
    doc = json.loads(_edited(_TENSOR_DOC, ("components", 0, "a"), 0.0))
    doc["components"][0]["poly"]["terms"][0]["exps"] = [0.0, 0.0]
    assert run_cli(capsys, "bracket", "--tensor", json.dumps(doc), *argv)[:2] == run_cli(
        capsys, "bracket", "--tensor", json.dumps(_TENSOR_DOC), *argv
    )[:2]


# Keys whose values, and lists whose entries, JSON input gives as integers.
_INTEGER_KEYS = {"a", "b", "n", "dim", "degree", "theta"}
_INTEGER_LISTS = {"exps", "idx"}
# Keys whose values JSON input gives as rationals; the entries c[i][j][k]
# of structure constants are rationals too.
_RATIONAL_KEYS = {"re", "im"}


def _number_kind(path: tuple) -> str | None:
    if path[-1] in _INTEGER_KEYS or (len(path) > 1 and path[-2] in _INTEGER_LISTS):
        return "integer"
    if path[-1] in _RATIONAL_KEYS or (path[:1] == ("c",) and len(path) == 4):
        return "rational"
    return None


def _number_fields(command: str, kinds) -> tuple[list, dict, list]:
    """A command's argv, documents and (option, path) of its number fields
    of the given kinds."""
    argv, docs = JSON_ENTRY_POINTS[command]
    docs = copy.deepcopy(docs)
    fields = [
        (opt, path)
        for opt, doc in docs.items()
        for path in _paths(doc)
        if path and _number_kind(path) in kinds
    ]
    return argv, docs, fields


@st.composite
def _invalid_number_invocations(draw, values):
    """Valid documents but for one number field, of a kind `values` maps to
    the strategy that draws its value."""
    commands = [c for c in sorted(JSON_ENTRY_POINTS) if _number_fields(c, values)[2]]
    command = draw(st.sampled_from(commands))
    argv, docs, fields = _number_fields(command, values)
    option, path = draw(st.sampled_from(fields))
    value = draw(values[_number_kind(path)])
    texts = {opt: json.dumps(d) for opt, d in docs.items()}
    texts[option] = _edited(docs[option], path, value)
    return [command, *argv, *(arg for opt, text in texts.items() for arg in (opt, text))]


def _assert_bad_input(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--json"])
    assert code == EXIT_BAD_INPUT and out.getvalue() == "", (argv, err.getvalue())


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_invalid_number_invocations({"integer": st.floats().filter(lambda x: not x.is_integer())}))
def test_non_integral_numbers_in_integer_fields_are_bad_input(argv):
    _assert_bad_input(argv)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_invalid_number_invocations({"integer": st.booleans(), "rational": st.booleans()}))
def test_booleans_in_number_fields_are_bad_input(argv):
    """JSON `true` is not the integer or the rational 1 (Python's bool is an int)."""
    _assert_bad_input(argv)


@pytest.mark.parametrize(
    "argv, where",
    [
        (["commutant", "--subspace", '[{"n":1,"entries":[[{"re":true,"im":"0"}]]}]'],
         "/subspace/0/entries/0/0/re: "),
        (["jacobi", "--tensor", _edited(_TENSOR_DOC, (*_TERM_PATH, "coeff", 0, "im"), False)],
         "/tensor/components/0/poly/terms/0/coeff/0/im: "),
        (["jacobi", "--tensor", json.dumps({"c": [[[True] * 3] * 3] * 3})], "/tensor: c: "),
    ],
    ids=["matrix-entry", "coefficient", "structure-constant"],
)
def test_json_booleans_are_not_rationals(capsys, argv, where):
    code, out, err = run_cli(capsys, *argv, "--json")
    assert code == EXIT_BAD_INPUT and out == ""
    assert where in err and "is not a rational" in err


_ONE_BY_ONE = '{"n":1,"entries":[[{"re":1,"im":0}]]}'
_MALFORMED_MATRICES = [
    ('{"n":1,"entries":[[{"re":1}]]}', '/entries/0/0: missing "im"'),
    ('{"n":1,"entries":[[1]]}', "/entries/0/0: expected an object, got a number"),
    ("[[1]]", ": expected an object, got a list"),
    ('{"n":1}', ': missing "entries"'),
]


@pytest.mark.parametrize(
    "argv, message",
    [
        *((["commutant", "--subspace", f"[{m}]"], f"/subspace/0{where}") for m, where in
          _MALFORMED_MATRICES),
        *((["invariance", "--h", m, "--subspace", f"[{_ONE_BY_ONE}]"], f"/h{where}") for m, where
          in _MALFORMED_MATRICES),
        (["commutant", "--subspace", '{"n":1}'], "/subspace: expected a list, got an object"),
    ],
    ids=[*(f"commutant-{i}" for i in range(4)), *(f"invariance-h-{i}" for i in range(4)),
         "commutant-object"],
)
def test_malformed_matrix_json_names_its_cell(capsys, argv, message):
    """A matrix document with a cell or field missing or of the wrong JSON
    type is bad input naming its path and what is missing or expected."""
    for mode in ("--json", "--text"):
        code, out, err = run_cli(capsys, *argv, mode)
        assert (code, out, err) == (EXIT_BAD_INPUT, "", f"input error: {message}\n")


_GOOD_FORM = json.dumps(_FORM_DOC)
_BAD_CELL = {"n": 2, "entries": [[{"re": 1}, {"re": 0, "im": 0}], [{"re": 0, "im": 0}] * 2]}
_MALFORMED_FORMS = [
    ('{"n":2,"coeffs":[]}', ': missing "degree"'),
    ('{"n":2,"degree":1,"coeffs":5}', "/coeffs: expected a list, got a number"),
    ('{"n":2,"degree":1,"coeffs":[{"idx":[0]}]}', '/coeffs/0: missing "value"'),
    (json.dumps({"n": 2, "degree": 1, "coeffs": [{"idx": [0], "value": _BAD_CELL}]}),
     '/coeffs/0/value/entries/0/0: missing "im"'),
    ("[1]", ": expected an object, got a list"),
]
_MALFORMED_TENSORS = [
    ("[1]", ": expected an object, got a list"),
    ('{"dim":2}', ': missing "components"'),
    ('{"dim":2,"components":5}', "/components: expected a list, got a number"),
    ('{"dim":2,"components":[{"a":0,"b":1}]}', '/components/0: missing "poly"'),
]


@pytest.mark.parametrize(
    "argv, message",
    [
        *((["wedge", "--form1", m, "--form2", _GOOD_FORM], f"/form1{where}")
          for m, where in _MALFORMED_FORMS),
        *((["wedge", "--form1", _GOOD_FORM, "--form2", m], f"/form2{where}")
          for m, where in _MALFORMED_FORMS),
        *((["lieder", "--form", m, "--x", "1,0,0"], f"/form{where}") for m, where in _MALFORMED_FORMS),
        *((["bracket", "--tensor", m, "--f", "q", "--g", "p"], f"/tensor{where}")
          for m, where in _MALFORMED_TENSORS),
        *((["casimir", "--tensor", m, "--c", "q"], f"/tensor{where}") for m, where in _MALFORMED_TENSORS),
        (["wedge", "--form1", _GOOD_FORM, "--form2", _gell_mann_form(3)],
         "/form2: forms over different algebras"),
    ],
    ids=[*(f"wedge-form1-{i}" for i in range(5)), *(f"wedge-form2-{i}" for i in range(5)),
         *(f"lieder-{i}" for i in range(5)), *(f"bracket-{i}" for i in range(4)),
         *(f"casimir-{i}" for i in range(4)), "wedge-different-n"],
)
def test_malformed_form_and_tensor_json_names_its_path(capsys, argv, message):
    """A form or tensor document with a field missing or of the wrong JSON
    type is bad input naming the path at fault, down to a matrix cell."""
    for mode in ("--json", "--text"):
        code, out, err = run_cli(capsys, *argv, mode)
        assert (code, out, err) == (EXIT_BAD_INPUT, "", f"input error: {message}\n")


def _images(**polys) -> str:
    return json.dumps({"images": polys})


_QP = ["q", "p"]
_CRASH = _images(q={"generators": [{"name": 5}, {"name": "q"}], "terms": [
    {"exps": [1, 0], "coeff": [{"re": "1", "im": "0"}]}]})
_FREE_DQ = {"dynamics": _FREE_DOC, "distribution": [_DQ_JSON]}


@pytest.mark.parametrize(
    "argv, message",
    [
        (["flow", "--f", "q", "--derivation", '{"images":[]}'],
         "/derivation/images: expected an object, got a list"),
        (["flow", "--f", "q", "--derivation", _images(q={"generators": _QP, "terms": [
            {"exps": "10", "coeff": [{"re": "1", "im": "0"}]}]})],
         "/derivation/images/q/terms/0/exps: expected a list, got a string"),
        (["flow", "--f", "q", "--derivation", _CRASH],
         "/derivation/images/q/generators: generator names must be strings: [5, 'q']"),
        (["nilpotency", "--derivation", _images(q={"generators": _QP})],
         '/derivation/images/q: missing "terms"'),
        (["nilpotency", "--derivation", _images()],
         "/derivation/images: derivation needs at least one generator image"),
        (["nilpotency", "--derivation", _images(x=_DQ_JSON["images"]["q"])],
         "/derivation: image given for unknown generator 'x'"),
        (["frelate", "--map", "p", "--dynamics", _images(q={"generators": [{}], "terms": []})],
         '/dynamics/images/q/generators/0: missing "name"'),
        (["reduce", "--input", "[1]"], "/input: expected an object, got a list"),
        (["reduce", "--input", json.dumps({"distribution": [_DQ_JSON], "extra": 1})],
         "/input/extra: unknown key"),
        (["reduce", "--input", json.dumps({"distribution": [_DQ_JSON]})],
         '/input: missing "dynamics"'),
        (["reduce", "--input", json.dumps({**_FREE_DQ, "dynamics": 5})],
         "/input/dynamics: expected an object, got a number"),
        (["reduce", "--input", json.dumps({**_FREE_DQ, "distribution": 5})],
         "/input/distribution: expected a list, got a number"),
        (["reduce", "--input", json.dumps({**_FREE_DQ, "distribution": []})],
         "/input/distribution: distribution needs at least one field"),
        (["reduce", "--input", json.dumps({**_FREE_DQ, "connection": 5})],
         "/input/connection: expected a list, got a number"),
        # a falsy value is refused too, not read as no connection
        *[(["reduce", "--input", json.dumps({**_FREE_DQ, "connection": value})],
           f"/input/connection: expected a list, got {kind}")
          for value, kind in [(0, "a number"), (False, "a boolean"), ("", "a string"),
                              ({}, "an object"), (None, "null")]],
        (["reduce", "--input", json.dumps({**_FREE_DQ, "connection": [5]})],
         "/input/connection/0: expected an object, got a number"),
        (["reduce", "--input", json.dumps({**_FREE_DQ, "connection": [{"q": 5}]})],
         "/input/connection/0/q: expected an object, got a number"),
        (["reduce", "--input", json.dumps({**_FREE_DQ, "connection": [{}, {}]})],
         "/input/connection: one dual 1-form per spanning field required"),
        (["connection", "--distribution", '{"a":1}'], "/distribution: expected a list, got an object"),
        (["connection", "--distribution", json.dumps([{"images": {"q": {
            "generators": _QP, "terms": [{"exps": [1], "coeff": [{"re": "1", "im": "0"}]}]}}}])],
         "/distribution/0/images/q: exponent vector length mismatch"),
        (["bracket", "--f", "q", "--g", "p", "--tensor", '{"generators":"qp","components":[]}'],
         "/tensor/generators: expected a list, got a string"),
        (["bracket", "--f", "q", "--g", "p", "--tensor",
          json.dumps({"generators": ["q", "q"], "components": []})],
         "/tensor/generators: generator names must be distinct: ['q', 'q']"),
        (["bracket", "--f", "q", "--g", "p", "--tensor",
          _edited(_TENSOR_DOC, (*_TERM_PATH, "coeff"), 5)],
         "/tensor/components/0/poly/terms/0/coeff: expected a list, got a number"),
        (["bracket", "--f", "q", "--g", "p", "--tensor",
          _edited(_TENSOR_DOC, (*_TERM_PATH, "coeff", 0, "theta"), -1)],
         "/tensor/components/0/poly/terms/0/coeff: theta-exponent must be non-negative"),
        (["bracket", "--f", "x", "--g", "y", "--tensor", '{"c":5}'],
         "/tensor: structure constants must be 3x3x3"),
        (["bracket", "--f", "x", "--g", "y", "--tensor", json.dumps({"c": [[[0] * 3] * 3] * 2})],
         "/tensor: structure constants must be 3x3x3"),
        (["bracket", "--f", "x", "--g", "y", "--tensor", json.dumps({"c": [[["x"] * 3] * 3] * 3})],
         "/tensor: c: 'x' is not a rational"),
    ],
    ids=["flow-images-list", "flow-exps-string", "flow-name-not-string", "nilpotency-terms",
         "nilpotency-no-image", "nilpotency-unknown-generator", "frelate-name", "reduce-list",
         "reduce-unknown-key", "reduce-dynamics-missing", "reduce-dynamics", "reduce-distribution",
         "reduce-distribution-empty", "reduce-connection", "reduce-connection-zero",
         "reduce-connection-false", "reduce-connection-empty-string",
         "reduce-connection-empty-object", "reduce-connection-null", "reduce-connection-form",
         "reduce-connection-component", "reduce-connection-rank", "connection-object",
         "connection-exps-length", "bracket-generators", "bracket-generators-repeated",
         "bracket-poly-coeff", "bracket-poly-theta", "bracket-c-number", "bracket-c-shape",
         "bracket-c-entry"],
)
def test_malformed_poly_and_derivation_json_names_its_path(capsys, argv, message):
    """A polynomial, derivation, distribution, connection or generator
    document with a field missing, of the wrong JSON type or refused by its
    constructor is bad input naming the path at fault."""
    for mode in ("--json", "--text"):
        code, out, err = run_cli(capsys, *argv, mode)
        assert (code, out, err) == (EXIT_BAD_INPUT, "", f"input error: {message}\n")


def test_an_empty_or_absent_connection_is_none(capsys):
    """`reduce` reads `"connection": []` as it reads a left-out key."""
    runs = [
        run_cli(capsys, "reduce", "--input", json.dumps(doc), "--json")
        for doc in (_FREE_DQ, {**_FREE_DQ, "connection": []})
    ]
    assert runs[0] == runs[1] and runs[0][0] == EXIT_OK


def _parsed_derivation(**images: str) -> dict:
    return PolyDerivation(GENS, {k: parse_poly(v, GENS) for k, v in images.items()}).to_json()


_THETA_DQ = [_parsed_derivation(q="theta")]
_THETA_DYNAMICS = _parsed_derivation(q="theta*p")
_ONE, _ZERO = Poly.one(GENS).to_json(), Poly.zero(GENS).to_json()
_THETA = parse_poly("theta", GENS).to_json()
_X_DYNAMICS = PolyDerivation.from_linear_map(GeneratorSet.plain(["x"]), [[1]]).to_json()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["blocksplit", "--h", SIGMA_X, "--k", "1"], "/h: H is not block-diagonal at block size 1"),
        (["evolve", "--h", json.dumps(Mat.from_rows([[0, 1], [0, 0]]).to_json()),
          "--a", SIGMA_Z, "--t", "1"], "/h: Hamiltonian must be Hermitian"),
        (["flow", "--f", "q", "--t", "1",
          "--derivation", json.dumps(_parsed_derivation(q="q^2"))],
         "/derivation: image of 'q' is not homogeneous linear"),
        (["flow", "--f", "q", "--t", "1",
          "--derivation", json.dumps(_parsed_derivation(q="theta*p", p="-q"))],
         "/derivation: linear flow needs theta-free coefficients"),
        (["reduce", "--input",
          json.dumps({**_FREE_DQ, "dynamics": _THETA_DYNAMICS})],
         "/input/dynamics: exact searches need theta-free polynomials"),
        # the same dynamics with a connection given: the split still asks
        # whether it lies in the distribution, so it is refused the same way
        (["reduce", "--input", json.dumps({**_FREE_DQ, "dynamics": _THETA_DYNAMICS,
                                           "connection": [{"q": _ONE, "p": _ZERO}]})],
         "/input/dynamics: exact searches need theta-free polynomials"),
        (["reduce", "--input", json.dumps({**_FREE_DQ, "distribution": _THETA_DQ})],
         "/input/distribution: exact searches need theta-free polynomials"),
        # the fields are refused before a connection is built on them
        (["reduce", "--input", json.dumps({**_FREE_DQ, "distribution": _THETA_DQ,
                                           "connection": [{"q": _ONE}]})],
         "/input/distribution: exact searches need theta-free polynomials"),
        (["connection", "--distribution", json.dumps(_THETA_DQ)],
         "/distribution: exact searches need theta-free polynomials"),
        (["reduce", "--input", json.dumps({**_FREE_DQ, "dynamics": _X_DYNAMICS})],
         "/input/dynamics: dynamics over a different generator set"),
        (["reduce", "--input", json.dumps({**_FREE_DQ, "connection": [{"q": _ONE, "r": _ZERO}]})],
         "/input/connection: form component given for unknown generator 'r'"),
        # i_Y alpha = 1 holds, but the split would carry theta into a
        # theta-free dynamics: the forms pass the gate too
        (["reduce", "--input", json.dumps({**_FREE_DQ, "dynamics": _parsed_derivation(q="p", p="p"),
                                           "connection": [{"q": _ONE, "p": _THETA}]})],
         "/input/connection: exact searches need theta-free polynomials"),
        (["frelate", "--dynamics", "free", "--map", "theta*q"],
         "/map/0: exact searches need theta-free polynomials"),
        (["frelate", "--dynamics", "free", "--map", "q; p; theta*p"],
         "/map/2: exact searches need theta-free polynomials"),
        (["frelate", "--dynamics", json.dumps(_THETA_DYNAMICS), "--map", "q"],
         "/dynamics: exact searches need theta-free polynomials"),
    ],
    ids=["blocksplit", "evolve", "flow-nonlinear", "flow-theta", "reduce-dynamics-theta",
         "reduce-dynamics-theta-connection", "reduce-distribution-theta",
         "reduce-distribution-theta-connection", "connection-theta",
         "reduce-dynamics-generators", "reduce-connection-unknown-generator",
         "reduce-connection-theta", "frelate-map-theta", "frelate-map-theta-third",
         "frelate-dynamics-theta"],
)
def test_semantic_errors_name_their_input(capsys, argv, message):
    """A document that reads well but that the command cannot use is bad
    input naming the document at fault."""
    for mode in ("--json", "--text"):
        code, out, err = run_cli(capsys, *argv, mode)
        assert (code, out, err) == (EXIT_BAD_INPUT, "", f"input error: {message}\n")


@pytest.mark.parametrize(
    "subspace, what",
    [
        (Mat.from_rows([[(3 * i + 5 * j) % 7 - 3 for j in range(15)] for i in range(15)]),
         "n^2 unknowns x k n^2 commutant equations"),
        (Mat.identity(7), "d^2 n^2 entries of the closure check's products"),
    ],
    ids=["dense-15x15", "identity-7x7"],
)
def test_commutant_work_beyond_the_budget_is_bad_input(capsys, subspace, what):
    """The commutant's n^2 unknowns x k n^2 equations, and the d^2 products of
    n x n matrices that check its closure, are compared with
    `scalars.MAX_UNKNOWNS`: exit 2 naming /subspace."""
    code, out, err = run_cli(capsys, "commutant", "--subspace", json.dumps([subspace.to_json()]))
    assert (code, out) == (EXIT_BAD_INPUT, "")
    assert err == f"input error: /subspace: {what} exceed the budget of {MAX_UNKNOWNS}\n"


# Spellings of one rational: as an int, a string and a float; a float and
# the string of its exact binary value; an int beyond 2^53 and its string.
_SAME_RATIONALS = [
    (2, "2", 2.0),
    (0.1, "3602879701896397/36028797018963968"),
    (9007199254740993, "9007199254740993"),
]
_RATIONAL_FIELDS = [
    (command, option, path)
    for command in sorted(JSON_ENTRY_POINTS)
    for option, path in _number_fields(command, {"rational"})[2]
]


@pytest.mark.parametrize(
    "command, option, path",
    _RATIONAL_FIELDS,
    ids=[f"{c}{o}/{'/'.join(map(str, p))}" for c, o, p in _RATIONAL_FIELDS],
)
def test_every_rational_field_reads_one_value_the_same_way(command, option, path):
    """Every rational field of JSON input reads a number by the one rule of
    `scalars.rational`: the same exit code and byte-identical output for
    every spelling of the same rational."""
    argv, docs, _ = _number_fields(command, {"rational"})
    texts = {opt: json.dumps(d) for opt, d in docs.items()}
    for spellings in _SAME_RATIONALS:
        runs = []
        for value in spellings:
            texts[option] = _edited(docs[option], path, value)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, *argv, *(a for o, t in texts.items() for a in (o, t)), "--json"])
            runs.append((code, out.getvalue(), err.getvalue()))
        # The value was read: the run printed its payload, or refused the
        # document for what the value means (say, a non-Hermitian matrix).
        code, stdout, stderr = runs[0]
        assert stdout or (code == EXIT_BAD_INPUT and stderr), spellings
        assert "is not a rational" not in stderr, spellings
        assert all(run == runs[0] for run in runs), spellings


class TestDemos:
    @pytest.mark.parametrize(
        "argv",
        [["--action", "3", "--theta0", "1"], ["--action", "1e10"]],
        ids=["action-3-theta0-1", "action-1e10"],
    )
    def test_action_angle_at_a_large_phase(self, capsys, argv):
        """The verdict is exact, so a large phase t I + theta0 still passes,
        and the payload is strict JSON."""
        code, payload, _ = run_json(capsys, "demo", "action-angle", *argv)
        assert code == EXIT_OK
        assert payload["result"]["modulus_error"] < 1e-12


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_demo_defaults_are_the_functions_own(capsys, name):
    """A demo run with no options prints the same payload as one given every
    option at the default of the demo function; a None default has no
    spelling on the command line and stays unset."""
    demo, options = DEMOS[name]
    params = inspect.signature(demo).parameters
    explicit = []
    for option, type_ in options.items():
        default = params[option].default
        if default is not None:
            assert type_(str(default)) == default
            explicit += [f"--{option}", str(default)]
    bare = run_cli(capsys, "demo", name, "--json")
    assert bare[0] == EXIT_OK
    assert run_cli(capsys, "demo", name, *explicit, "--json") == bare


class TestDeterminism:
    @pytest.mark.parametrize(
        "name",
        ["free", "oscillator", "action-angle", "s-space", "wigner", "maurer-cartan"],
    )
    def test_demo_payloads_are_byte_identical(self, capsys, name):
        code1, out1, _ = run_cli(capsys, "demo", name, "--json")
        code2, out2, _ = run_cli(capsys, "demo", name, "--json")
        assert code1 == code2 == EXIT_OK
        assert out1 == out2

    def test_round_trip_poly_payload(self, capsys):
        _, payload, _ = run_json(
            capsys, "star", "--f", "q^2", "--g", "p^2"
        )
        again = Poly.from_json(payload["result"]["poly"])
        assert again.to_json() == payload["result"]["poly"]


DEMO_INVOCATIONS = {f"demo-{name}": ["demo", name] for name in DEMOS}
README_INVOCATIONS = {
    "bracket": ["bracket", "--tensor", "canonical2", "--f", "q^2", "--g", "p^2"],
    "star": ["star", "--f", "q", "--g", "p"],
    "starcomm": ["starcomm", "--f", "q", "--g", "p"],
    "flow": ["flow", "--derivation", "free", "--f", "q", "--t", "2"],
    "jacobi": ["jacobi", "--tensor", "su2"],
    "casimir": ["casimir", "--tensor", "su2", "--c", "x^2 + y^2 + z^2"],
    "evolve": ["evolve", "--h", SIGMA_X, "--a", SIGMA_Z, "--t", "0.5"],
    "biderivation": ["biderivation", "--n", "3"],
}
_QDQ_JSON = PolyDerivation(GENS, {"q": Poly.generator(GENS, "q")}).to_json()
FAILING_INVOCATIONS = {
    "casimir-x": ["casimir", "--tensor", "su2", "--c", "x"],
    "jacobi-violated": ["jacobi", "--tensor", JACOBI_FAILING_TENSOR],
    "reduce-non-member": [
        "reduce", "--input",
        json.dumps({"dynamics": json.loads(FREE_JSON), "distribution": [_DP_JSON]}),
    ],
}
INCONCLUSIVE_INVOCATIONS = {
    "frelate-cap": ["frelate", "--dynamics", "free", "--map", "q"],
    "connection-cap": ["connection", "--distribution", json.dumps([_QDQ_JSON])],
}


@pytest.mark.parametrize(
    "argv, status",
    [
        pytest.param(argv, status, id=name)
        for status, invocations in (
            ("ok", {**DEMO_INVOCATIONS, **README_INVOCATIONS}),
            ("fail", FAILING_INVOCATIONS),
            ("inconclusive", INCONCLUSIVE_INVOCATIONS),
        )
        for name, argv in invocations.items()
    ],
)
def test_status_is_read_off_the_listed_checks(capsys, argv, status):
    """"fail" exactly when a verification line ends in ": fail",
    "inconclusive" exactly when none does and one ends in ": inconclusive".
    run_json also holds every demo and README payload to strict JSON."""
    code, payload, _ = run_json(capsys, *argv)
    verdicts = {line.rsplit(": ", 1)[-1] for line in payload["verification"]}
    derived = next((v for v in ("fail", "inconclusive") if v in verdicts), "ok")
    assert payload["status"] == derived == status
    assert code == {"ok": EXIT_OK, "fail": EXIT_FAIL, "inconclusive": EXIT_INCONCLUSIVE}[status]


@pytest.mark.parametrize("t, code", [("1e6", EXIT_OK), ("1e17", EXIT_INCONCLUSIVE)])
def test_oscillator_rotation_bound_grows_with_t(capsys, t, code):
    """The float rotation check allows 10 eps max(1, |t|), the growth of
    the exponential's rounding, and prints that bound; once the bound
    reaches 1 the comparison decides nothing and reads inconclusive."""
    got, payload, _ = run_json(capsys, "demo", "oscillator", "--t", t)
    assert got == code
    (label,) = [v for v in payload["verification"] if v.startswith("flow matrix")]
    bound = float(label.split(", bound ", 1)[1].split(")", 1)[0])
    assert bound == pytest.approx(10 * sys.float_info.epsilon * float(t), rel=1e-2)
    assert label.endswith(": pass" if code == EXIT_OK else ": inconclusive")


def test_oscillator_rotation_passes_over_a_sweep_of_t(capsys):
    """Seeded |t| from 1e-6 to 1e14 (where the bound is still below 1)."""
    rng = random.Random(20)
    for _ in range(300):
        t = rng.choice((-1, 1)) * 10 ** rng.uniform(-6, 14)
        code, payload, _ = run_json(capsys, "demo", "oscillator", f"--t={t!r}")
        assert code == EXIT_OK, (t, payload["verification"])


def _random_matrix(rng, n: int, hermitian: bool) -> str:
    def entry():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 4))

    rows = [[(entry(), entry()) for _ in range(n)] for _ in range(n)]
    if hermitian:
        for i in range(n):
            rows[i][i] = (rows[i][i][0], 0)
            for j in range(i):
                rows[i][j] = (rows[j][i][0], -rows[j][i][1])
    return _matrix_cells([[(str(re), str(im)) for re, im in row] for row in rows])


def test_evolve_passes_its_checks_over_a_sweep_of_h_and_t(capsys):
    """Seeded Hermitian H and arbitrary A on C^2 to C^8, |t| up to 1e9: the
    finite-difference and norm-drift checks hold with bounds read off the
    input alone."""
    rng = random.Random(20)
    for _ in range(300):
        n = rng.randint(2, 8)
        h, a = _random_matrix(rng, n, True), _random_matrix(rng, n, False)
        t = rng.choice((-1, 1)) * 10 ** rng.uniform(-3, 9)
        code, payload, _ = run_json(capsys, "evolve", "--h", h, "--a", a, f"--t={t!r}")
        assert code == EXIT_OK, (n, t, payload["verification"])


def test_report_status_rule():
    assert Report({}).status == "ok"
    assert Report({}, {"a": True, "b": None}).status == "inconclusive"
    assert Report({}, {"a": None, "b": False}).status == "fail"
    report = Report({}, {"a": True, "b": None, "c": False}, notes=["n"])
    assert report.verification == ["n", "a: pass", "b: inconclusive", "c: fail"]
    assert report.exit_code() == EXIT_FAIL
