"""cli-oneshot: cold ``python -m aldyn.cli`` processes, one at a time.

The only path through cli, parsing, argparse and the cold import, which is
most of each invocation.  Every cycle runs the seven demos with --json and
the README subcommands with known outputs; the seed draws exponents,
coefficients and flow times.

The six malformed invocations, whose contract exit code is 2, are not timed
checks: today each exits 1 with a traceback, and a timed operation must not
fail.  ``bad_input_exits`` runs them once a run, untimed, and the run
reports every exit code other than 2.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import threading
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Callable

from perfbench.calibrate import NOMINAL_PROCESS_S, PROCESS_INTERVAL_S, reference_process
from perfbench.inputs import Check, cycle_rng

CHILD_TIMEOUT_S = 120
# Largest peak resident memory (MB) of a CLI child so far.  Read per child,
# because the reference processes are children too.
_peak_rss_mb = 0.0
# Each check is a cold process, so times are scaled by a cold process.
REFERENCE = (reference_process, NOMINAL_PROCESS_S, PROCESS_INTERVAL_S)


@dataclass
class Invocation:
    name: str
    argv: list
    verify: Callable  # (returncode, stdout) -> bool


def _payload(stdout):
    try:
        data = json.loads(stdout)
    except ValueError:
        return None
    return data if data.get("status") == "ok" else None


def _terms(poly_json) -> dict:
    """{exps: {theta: (re, im)}} from the wire format."""
    out = {}
    for t in poly_json["terms"]:
        out[tuple(t["exps"])] = {
            int(c.get("theta", 0)): (Fraction(c["re"]), Fraction(c["im"])) for c in t["coeff"]
        }
    return out


def _poly_check(expected: dict, path=("poly",)):
    def verify(code, stdout):
        data = _payload(stdout)
        if code != 0 or data is None:
            return False
        node = data["result"]
        for key in path:
            node = node[key]
        return _terms(node) == expected

    return verify


def _fields(**expected):
    """Exit 0, status ok, and the named result fields equal to the values."""

    def verify(code, stdout):
        data = _payload(stdout)
        if code != 0 or data is None:
            return False
        return all(pred(data["result"].get(k)) for k, pred in expected.items())

    return verify


def _is(value):
    return lambda v: v == value


def _real(v):
    return (Fraction(v), Fraction(0))


def _demos() -> list[Invocation]:
    wigner = {
        "free": True,
        "oscillator": True,
        "euler": False,
    }

    def wigner_ok(code, stdout):
        data = _payload(stdout)
        return (
            code == 0
            and data is not None
            and all(
                data["result"][k]["star_derivation"] is v
                and data["result"][k]["pointwise_derivation"] is True
                for k, v in wigner.items()
            )
        )

    demos = {
        "free": _fields(nilpotency_order=_is(2)),
        "oscillator": _fields(energy_conserved=_is(True)),
        "action-angle": _fields(modulus_error=lambda v: v is not None and abs(v) < 1e-12),
        "block-reduction": _fields(
            invariance=_is(True), perturbations_fail=_is(True),
            split_resums=_is(True), split_commutes=_is(True),
        ),
        "s-space": _fields(
            dimension=_is(15), all_equal=_is(True),
            closed_poisson=_is(True), closed_star=_is(True),
        ),
        "wigner": wigner_ok,
        "maurer-cartan": _fields(
            basis_dim=_is(3), maurer_cartan=_is(True), dual_forms_not_exact=_is(True),
        ),
    }
    return [Invocation(f"demo-{d}", ["demo", d, "--json"], v) for d, v in demos.items()]


def _star_terms(a, b, odd_only=False):
    """q^a * p^b = sum_k (i theta/2)^k / k! a!/(a-k)! b!/(b-k)! q^(a-k) p^(b-k);
    p^b * q^a has (-1)^k in place of 1, so the commutator keeps 2x the odd k."""
    out = {}
    for k in range(min(a, b) + 1):
        if odd_only and k % 2 == 0:
            continue
        w = Fraction(factorial(a) * factorial(b), factorial(a - k) * factorial(b - k) * factorial(k))
        w /= 2**k
        if odd_only:
            w *= 2
        # i^k
        unit = [(1, 0), (0, 1), (-1, 0), (0, -1)][k % 4]
        out[(a - k, b - k)] = {k: (w * unit[0], w * unit[1])}
    return out


def _seeded(rng, tag: str) -> list[Invocation]:
    """README subcommands whose arguments the seed draws."""
    out = []
    a, b = rng.randint(1, 4), rng.randint(1, 4)
    out.append(Invocation(
        f"bracket-{tag}",
        ["bracket", "--tensor", "canonical2", "--f", f"q^{a}", "--g", f"p^{b}", "--json"],
        _poly_check({(a - 1, b - 1): {0: _real(a * b)}}),
    ))
    a, b = rng.randint(1, 3), rng.randint(1, 3)
    out.append(Invocation(
        f"star-{tag}", ["star", "--f", f"q^{a}", "--g", f"p^{b}", "--json"], _poly_check(_star_terms(a, b)),
    ))
    a, b = rng.randint(1, 3), rng.randint(1, 3)
    out.append(Invocation(
        f"starcomm-{tag}", ["starcomm", "--f", f"q^{a}", "--g", f"p^{b}", "--json"],
        _poly_check(_star_terms(a, b, odd_only=True)),
    ))
    # Free flow q -> p: e^{t d}(q^k) = (q + t p)^k.
    k, t = rng.randint(1, 3), Fraction(rng.randint(-5, 5) or 2, rng.randint(1, 3))
    out.append(Invocation(
        f"flow-{tag}",
        ["flow", "--derivation", "free", "--f", f"q^{k}", f"--t={t}", "--json"],
        _poly_check({(k - j, j): {0: _real(comb(k, j) * t**j)} for j in range(k + 1)}),
    ))
    # X_H(q) = dH/dp, X_H(p) = -dH/dq for H = c q^a p^b.
    c, a, b = rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3), rng.randint(1, 3)
    field_q = {(a, b - 1): {0: _real(c * b)}}
    field_p = {(a - 1, b): {0: _real(-c * a)}}
    out.append(Invocation(
        f"hamfield-{tag}",
        ["hamfield", "--tensor", "canonical2", f"--h={c}*q^{a}*p^{b}", "--json"],
        lambda code, stdout: _poly_check(field_q, ("derivation", "images", "q"))(code, stdout)
        and _poly_check(field_p, ("derivation", "images", "p"))(code, stdout),
    ))
    out.append(Invocation(
        f"jacobi-{tag}", ["jacobi", "--tensor", rng.choice(("su2", "heisenberg")), "--json"],
        _fields(jacobi=_is(True)),
    ))
    s, m = Fraction(rng.randint(1, 5), rng.randint(1, 3)), rng.randint(1, 2)
    out.append(Invocation(
        f"casimir-{tag}",
        ["casimir", "--tensor", "su2", "--c", f"{s}*(x^2 + y^2 + z^2)^{m}", "--json"],
        _fields(casimir=_is(True)),
    ))
    return out


def _subcommands(rng) -> list[Invocation]:
    """Three rounds of the seeded subcommands, then the fixed ones."""
    out = _seeded(rng, "a") + _seeded(rng, "b") + _seeded(rng, "c")
    out.append(Invocation(
        "star-qp", ["star", "--f", "q", "--g", "p", "--json"],
        _poly_check({(1, 1): {0: _real(1)}, (0, 0): {1: (Fraction(0), Fraction(1, 2))}}),
    ))
    for n in (2, 3):
        out.append(Invocation(
            f"biderivation-n{n}", ["biderivation", "--n", str(n), "--json"],
            _fields(dimension=_is(1), spanned_by_commutator=_is(True)),
        ))
    n, k = 4, 2
    corner = [
        {"n": n, "entries": [[{"re": str(int((r, c) == (i, j))), "im": "0"} for c in range(n)] for r in range(n)]}
        for i in range(k) for j in range(k)
    ]
    out.append(Invocation(
        "commutant-4-2", ["commutant", "--subspace", json.dumps(corner), "--json"],
        _fields(dimension=_is(1 + (n - k) ** 2)),
    ))
    return out


def _matrix_json(rows):
    return json.dumps({"n": len(rows), "entries": [[{"re": str(x), "im": "0"} for x in r] for r in rows]})


MALFORMED = (
    ("flow-nilpotent-oscillator", ["flow", "--derivation", "oscillator", "--f", "q", "--mode", "nilpotent"]),
    ("biderivation-n5", ["biderivation", "--n", "5"]),
    ("star-theta-abc", ["star", "--f", "q", "--g", "p", "--theta", "abc"]),
    ("flow-t-x", ["flow", "--derivation", "free", "--f", "q", "--t", "x"]),
    ("blocksplit-not-block", ["blocksplit", "--h", _matrix_json([[1, 1], [1, 0]]), "--k", "1"]),
    ("evolve-not-hermitian", ["evolve", "--h", _matrix_json([[0, 1], [2, 0]]),
                              "--a", _matrix_json([[1, 0], [0, -1]]), "--t", "0.5"]),
)


# Invocations that take about 1.5x an import-bound one; they run twice.
SLOWER = ("demo-block-reduction", "demo-s-space", "demo-wigner", "commutant-4-2")


def invocations(seed: int, cycle: int) -> list[Invocation]:
    """36 a cycle.  26 are import-bound invocations of about the same time,
    so the median falls inside that group; the eight SLOWER ones hold the
    90th percentile, so it does not sit on an edge between groups, where
    a few slow outliers of the large group would move it."""
    out = _demos() + _subcommands(cycle_rng(seed, cycle))
    return out + [Invocation(f"{inv.name}-again", inv.argv, inv.verify) for inv in out if inv.name in SLOWER]


def bad_input_exits() -> dict:
    """Exit code of each malformed invocation in a cold process; the
    contract answer is 2 (bad input)."""
    return {name: run_cold(argv)[0] for name, argv in MALFORMED}


def run_cold(argv) -> tuple[int, str]:
    global _peak_rss_mb
    proc = subprocess.Popen(
        [sys.executable, "-m", "aldyn.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, env=os.environ.copy(),
    )
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    _peak_rss_mb = max(_peak_rss_mb, usage.ru_maxrss / 1024)
    return proc.returncode, out


def peak_rss_mb() -> float:
    """Peak memory is the largest CLI child's, not the launcher's."""
    return _peak_rss_mb


def run_in_process(main, argv) -> tuple[int, str]:
    """aldyn.cli.main(argv) with its output captured; an uncaught exception
    maps to exit code 1, as it does for the interpreter."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 1
        except Exception:
            code = 1
    return code, out.getvalue()


def _checks(seed: int, cycle: int, runner) -> list[Check]:
    return [
        Check(
            inv.name,
            lambda argv=inv.argv: runner(argv),
            lambda out, verify=inv.verify: verify(*out),
        )
        for inv in invocations(seed, cycle)
    ]


def build(seed: int, cycle: int) -> list[Check]:
    return _checks(seed, cycle, run_cold)


def build_in_process(seed: int, cycle: int) -> list[Check]:
    """The same invocations through a warm in-process ``aldyn.cli.main``,
    for the traced run (a cold child process is outside the trace)."""
    import aldyn.cli

    return _checks(seed, cycle, lambda argv: run_in_process(aldyn.cli.main, argv))
