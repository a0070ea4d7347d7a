"""CLI: dispatch, exit codes, JSON round trips, determinism."""

import argparse
import ast
import inspect
import json
import math
import os
import textwrap
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import aldyn
from aldyn.cli import _build_parser, main
from aldyn.demos import DEMOS
from aldyn.derivations import PolyDerivation
from aldyn.matrices import Mat
from aldyn.poly import GeneratorSet, Poly
from aldyn.report import EXIT_BAD_INPUT, EXIT_FAIL, EXIT_INCONCLUSIVE, EXIT_OK, Report


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
SIGMA_X = json.dumps(Mat.from_rows([[0, 1], [1, 0]]).to_json())
SIGMA_Z = json.dumps(Mat.from_rows([[1, 0], [0, -1]]).to_json())


def _matrix_cells(rows) -> str:
    """A 2x2 matrix JSON from its (re, im) cells, given as written in JSON."""
    return json.dumps({"n": 2, "entries": [[{"re": re, "im": im} for re, im in row] for row in rows]})


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

    def test_casimir(self, capsys):
        code, payload, _ = run_json(
            capsys, "casimir", "--tensor", "su2", "--c", "x^2 + y^2 + z^2"
        )
        assert code == EXIT_OK
        code, payload, _ = run_json(capsys, "casimir", "--tensor", "su2", "--c", "x")
        assert code == EXIT_FAIL
        assert payload["result"]["witness"] == "y"


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
        import aldyn.cli as cli
        from aldyn.scalars import Scalar

        code, payload, _ = run_json(capsys, "starcomm", "--f", f, "--g", g)
        assert code == EXIT_OK
        assert "theta^1 coefficient is i{f,g}: pass" in payload["verification"]

        real = cli.star_commutator
        monkeypatch.setattr(
            cli, "star_commutator",
            lambda ctx, a, b: real(ctx, a, b) + Poly.constant(ctx.gens, Scalar.theta()),
        )
        code, payload, _ = run_json(capsys, "starcomm", "--f", f, "--g", g)
        assert code == EXIT_FAIL
        assert "theta^1 coefficient is i{f,g}: fail" in payload["verification"]

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

    def test_linear_flow(self, capsys):
        code, payload, _ = run_json(
            capsys,
            "flow",
            "--derivation",
            "oscillator",
            "--f",
            "q",
            "--t",
            "1",
            "--mode",
            "linear",
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
        import aldyn.cli as cli

        real = cli.evolve
        monkeypatch.setattr(cli, "evolve", lambda a, h, t: real(a, h, -t))
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

    def test_blocksplit_rejects_a_wrong_split(self, capsys, monkeypatch):
        """The re-sum check compares the split with ad_H itself, so a wrong
        bottom block fails it."""
        import aldyn.cli
        from aldyn.quantum import InnerDerivation, block_split

        def wrong_bottom(h, k):
            top, _ = block_split(h, k)
            return top, InnerDerivation(Mat.diag([0, 0, 0, 1]))

        monkeypatch.setattr(aldyn.cli, "block_split", wrong_bottom)
        h = Mat.from_rows([[1, 2, 0, 0], [2, -1, 0, 0], [0, 0, 3, 1], [0, 0, 1, 4]])
        code, payload, _ = run_json(capsys, "blocksplit", "--h", json.dumps(h.to_json()), "--k", "2")
        assert code == EXIT_FAIL
        assert payload["result"]["resums"] is False

    def test_biderivation(self, capsys):
        code, payload, _ = run_json(capsys, "biderivation", "--n", "2")
        assert code == EXIT_OK
        assert payload["result"]["dimension"] == 1
        assert payload["result"]["spanned_by_commutator"]


class TestReductionCommands:
    def test_reduce_free_along_dq(self, capsys):
        gens = GENS
        dq = PolyDerivation(gens, {"q": Poly.one(gens)})
        payload_in = {
            "dynamics": json.loads(FREE_JSON),
            "distribution": [dq.to_json()],
            "degree_cap": 2,
        }
        code, payload, _ = run_json(capsys, "reduce", "--input", json.dumps(payload_in))
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


class TestFormCommands:
    def form_json(self):
        from aldyn.diffcalc import DerivationBasis, KForm

        basis = DerivationBasis.gell_mann(2)
        return json.dumps(KForm.dual_form(basis, 0).to_json())

    def test_dform(self, capsys):
        code, payload, _ = run_json(capsys, "dform", "--form", self.form_json())
        assert code == EXIT_OK
        assert payload["result"]["form"]["degree"] == 2

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


class TestEnvironment:
    def test_degree_cap_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("ALDYN_DEGREE_CAP", "0")
        code, _, _ = run_json(capsys, "frelate", "--dynamics", "euler", "--map", "q*p")
        assert code == EXIT_INCONCLUSIVE  # cap 0 cannot express g(x) = 2x
        monkeypatch.delenv("ALDYN_DEGREE_CAP")
        code, _, _ = run_json(capsys, "frelate", "--dynamics", "euler", "--map", "q*p")
        assert code == EXIT_OK


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
            ["flow", "--derivation", "oscillator", "--f", "q", "--mode", "nilpotent"],
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
            ["flow", "--derivation", "oscillator", "--f", "theta*q", "--t", "1", "--mode", "linear"],
            ["evolve", "--h", SIGMA_X, "--a", SIGMA_Z, "--t", "nan"],
            ["evolve", "--h", SIGMA_X, "--a", SIGMA_Z, "--t", "inf"],
            ["evolve", "--h", SIGMA_X, "--a", SIGMA_Z, "--t=-inf"],
            ["evolve", "--h", SIGMA_X, "--a", SIGMA_Z, "--t", "1", "--tol", "nan"],
            ["demo", "action-angle", "--action", "inf"],
            ["demo", "action-angle", "--theta0", "nan"],
            ["demo", "oscillator", "--tol=-inf"],
            ["demo", "block-reduction", "--tol", "nan"],
            ["demo", "action-angle", "--t", "1e400"],
            ["demo", "action-angle", "--action", "1e308", "--t", "10"],
            ["demo", "oscillator", "--t", "1e400"],
            ["flow", "--derivation", "oscillator", "--f", "q", "--t", "1e400", "--mode", "linear"],
            ["evolve", "--h", _matrix_cells([[("1e400", "0"), ("0", "0")], [("0", "0"), ("1", "0")]]),
             "--a", SIGMA_Z, "--t", "1"],
            ["evolve", "--h", NEAR_HERMITIAN, "--a", SIGMA_Z, "--t", "1"],
        ],
        ids=["flow-nilpotent-oscillator", "biderivation-n5", "biderivation-n-1",
             "biderivation-n0", "star-theta-abc",
             "flow-t-x", "blocksplit-not-block", "evolve-not-hermitian",
             "star-theta-zero-denominator", "starcomm-theta-zero-denominator",
             "flow-t-zero-denominator", "star-literal-zero-denominator",
             "connection-degree-cap-negative", "reduce-ansatz-cap-negative",
             "frelate-ansatz-cap-negative", "star-pairs-0", "star-pairs-negative",
             "starcomm-pairs-0", "starcomm-pairs-negative", "flow-linear-theta",
             "evolve-t-nan", "evolve-t-inf", "evolve-t-minus-inf", "evolve-tol-nan",
             "demo-action-angle-action-inf", "demo-action-angle-theta0-nan",
             "demo-oscillator-tol-minus-inf", "demo-block-reduction-tol-nan",
             "demo-action-angle-t-overflow", "demo-action-angle-phase-overflow",
             "demo-oscillator-t-overflow", "flow-linear-t-overflow",
             "evolve-entry-overflow", "evolve-near-hermitian"],
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
            ["flow", "--derivation", "oscillator", "--f", "q", "--t", "1e300", "--mode", "linear"],
            ["flow", "--derivation", "oscillator", "--f", "q", "--t", "1e308", "--mode", "linear"],
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
        "argv, code",
        [
            (["frelate", "--dynamics", "euler", "--map", "q*p"], EXIT_BAD_INPUT),
            (["connection", "--distribution", json.dumps([_DQ_JSON])], EXIT_BAD_INPUT),
            (["jacobi", "--tensor", "su2"], EXIT_OK),
        ],
        ids=["frelate", "connection", "jacobi-reads-no-cap"],
    )
    def test_malformed_degree_cap_env(self, argv, code):
        """A malformed ALDYN_DEGREE_CAP is bad input to the subcommands that
        read a cap, and does not reach the others."""
        proc = run_fresh(argv, ALDYN_DEGREE_CAP="x")
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr


    @pytest.mark.parametrize(
        "argv",
        [
            ["jacobi", "--tensor", "su2", "--theta", "1/2"],
            ["bracket", "--tensor", "canonical2", "--f", "q", "--g", "p", "--tol", "1"],
            ["star", "--f", "q", "--g", "p", "--degree-cap", "2"],
            ["connection", "--distribution", "[]", "--ansatz-cap", "2"],
            ["demo", "action-angle", "--tol", "1e-30"],
            ["demo", "free", "--n", "3"],
        ],
        ids=["jacobi-theta", "bracket-tol", "star-degree-cap", "connection-ansatz-cap",
             "demo-action-angle-tol", "demo-free-n"],
    )
    def test_unread_flag_exits_bad_input(self, capsys, argv):
        """A flag the subcommand or demo does not read is malformed input."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_BAD_INPUT
        assert "Traceback" not in capsys.readouterr().err


def run_python(args, stdin=None, **env) -> subprocess.CompletedProcess:
    """`python args` in a fresh process that imports this aldyn, with env added."""
    src = str(Path(aldyn.__file__).resolve().parents[1])
    env = {
        **os.environ,
        **env,
        "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
    }
    return subprocess.run(
        [sys.executable, *args],
        input=stdin, capture_output=True, text=True, env=env, timeout=60,
    )


def run_fresh(argv, **env) -> subprocess.CompletedProcess:
    """`python -m aldyn.cli argv` in a fresh process, with env added."""
    return run_python(["-m", "aldyn.cli", *argv], **env)


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


# The demos that evaluate an exponential in floats, and so need numpy.
FLOAT_DEMOS = {"oscillator"}

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
    subcommand and demo to the same stdout as a normal run; the oscillator
    demo, which needs numpy, shows that the block holds."""
    from aldyn.diffcalc import DerivationBasis, KForm

    form = json.dumps(KForm.dual_form(DerivationBasis.gell_mann(2), 0).to_json())
    block = json.dumps([Mat.basis_elt(4, i, j).to_json() for i in range(2) for j in range(2)])
    full = json.dumps([Mat.basis_elt(2, i, j).to_json() for i in range(2) for j in range(2)])
    exact = {
        "bracket": ["bracket", "--tensor", "canonical2", "--f", "q^2", "--g", "p^3"],
        "star": ["star", "--f", "q^2", "--g", "p^2"],
        "starcomm": ["starcomm", "--f", "q^3", "--g", "p^2"],
        "flow": ["flow", "--derivation", "free", "--f", "q^2", "--t", "3/2"],
        "hamfield": ["hamfield", "--tensor", "canonical2", "--h", "1/2*p^2"],
        "jacobi": ["jacobi", "--tensor", "su2"],
        "casimir": ["casimir", "--tensor", "su2", "--c", "x^2 + y^2 + z^2"],
        "biderivation-n2": ["biderivation", "--n", "2"],
        "biderivation-n3": ["biderivation", "--n", "3"],
        "commutant": ["commutant", "--subspace", full],
        **{f"demo-{name}": ["demo", name] for name in DEMOS if name not in FLOAT_DEMOS},
        "reduce": ["reduce", "--input", _REDUCE_INPUT],
        "dform": ["dform", "--form", form],
        "invariance": ["invariance", "--h", json.dumps(Mat.diag([1, 2, 3, 4]).to_json()),
                       "--subspace", block],
        "blocksplit": ["blocksplit", "--h", json.dumps(Mat.diag([1, 2, 3]).to_json()), "--k", "1"],
    }
    exact = {name: [*argv, "--json"] for name, argv in exact.items()}
    proc = run_python(
        ["-c", _NUMPY_BLOCKED],
        json.dumps({**exact, "demo-oscillator": ["demo", "oscillator", "--json"]}),
    )
    assert proc.returncode == 0, proc.stderr
    blocked = json.loads(proc.stdout)
    assert blocked.pop("demo-oscillator")[0] != EXIT_OK
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
_DP_JSON = PolyDerivation(GENS, {"p": Poly.one(GENS)}).to_json()
FAILING_INVOCATIONS = {
    "evolve-tol": ["evolve", "--h", SIGMA_X, "--a", SIGMA_Z, "--t", "0.5", "--tol", "1e-30"],
    "demo-oscillator-tol": ["demo", "oscillator", "--tol", "1e-30"],
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


def test_report_status_rule():
    assert Report({}).status == "ok"
    assert Report({}, {"a": True, "b": None}).status == "inconclusive"
    assert Report({}, {"a": None, "b": False}).status == "fail"
    report = Report({}, {"a": True, "b": None, "c": False}, notes=["n"])
    assert report.verification == ["n", "a: pass", "b: inconclusive", "c: fail"]
    assert report.exit_code() == EXIT_FAIL
