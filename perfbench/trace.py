"""Per-layer tracing from outside aldyn: wrappers around each module's
public functions and methods, installed and removed by the benchmark.

Every wrapped call adds to its function's count, outermost inclusive time
and self time (inclusive minus the time of wrapped callees).  The
arithmetic classes run hundreds of thousands of calls per check, so they
are only aggregated; the other calls also leave a span (id, name, start,
end, parent id, check id) in memory, written out when the run ends.
A module-level function is replaced in every aldyn module that imported it
by name, so inner calls do not escape the trace.
"""

from __future__ import annotations

import gc
import importlib
import inspect
import json
import time
from collections import Counter

MODULES = (
    "scalars", "poly", "derivations", "poisson", "moyal", "linalg",
    "matrices", "quantum", "reduction", "diffcalc", "parsing", "cli",
)
# Methods of these classes are counted and timed but leave no spans.
AGGREGATED_CLASSES = frozenset(
    ("GaussRational", "Scalar", "Poly", "GeneratorSet", "Mat", "SparseEliminator",
     "KForm", "PolyDerivation", "DerivationBasis", "InnerDerivation", "_Tokenizer")
)
AGGREGATED_FUNCTIONS = frozenset(
    ("quantum.commutator", "derivations.apply", "poisson.bracket", "linalg.rank",
     "linalg.in_span", "linalg.solve", "linalg.rref", "linalg.nullspace",
     "linalg.coordinates_in_basis")
)
# __post_init__ runs inside __init__ of the same class, so its time is
# already the layer's; the others are never on a hot path or must not be
# replaced.
SKIPPED_METHODS = frozenset(
    ("__repr__", "__str__", "__setattr__", "__delattr__", "__getattribute__",
     "__getattr__", "__new__", "__init_subclass__", "__post_init__")
)
SPAN_CAP = 50_000
GAUSS_OPS = tuple(f"scalars.GaussRational.{m}" for m in ("__add__", "__sub__", "__mul__", "__truediv__"))

# Counts that depend only on the inputs; two traced runs of one seed must
# agree on them exactly.
DETERMINISTIC = (
    "scalars.gauss_ops", "poly.mul_calls", "poly.partial_calls", "moyal.star_calls",
    "moyal.poly_mul_per_star", "poisson.bracket_calls", "derivations.apply_calls",
    "linalg.rref_calls", "linalg.rref_cells", "linalg.rref_nnz_share",
    "linalg.sparse_rows", "matrices.matmul_calls", "quantum.commutator_calls",
    "reduction.inconclusive", "diffcalc.coordinates_calls", "diffcalc.act_calls",
    "parsing.parse_calls", "cli.bad_input_not_2",
)


def _public(name: str) -> bool:
    return not name.startswith("_") or (name.startswith("__") and name.endswith("__"))


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # key -> [calls, outermost inclusive s, self s, depth]
        self.counters: Counter = Counter()
        self.frames = [0.0]  # wrapped-callee time of each open call
        self.spans: list[tuple] = []
        self.span_stack = [-1]
        self.next_span = 0
        self.check = -1
        self.rref_shapes: list[tuple[int, int]] = []
        self._patches: list[tuple] = []
        self._gc_start = 0.0

    # -- wrappers ---------------------------------------------------------

    def _rec(self, key):
        return self.stats.setdefault(key, [0, 0.0, 0.0, 0])

    def _wrap(self, key, fn, span):
        rec, frames, pc = self._rec(key), self.frames, time.perf_counter
        if not span:
            def wrapper(*args, **kwargs):
                frames.append(0.0)
                rec[3] += 1
                t0 = pc()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = pc() - t0
                    rec[3] -= 1
                    rec[0] += 1
                    rec[2] += dt - frames.pop()
                    frames[-1] += dt
                    if not rec[3]:
                        rec[1] += dt
        else:
            spans, stack, tracer = self.spans, self.span_stack, self

            def wrapper(*args, **kwargs):
                sid = tracer.next_span
                tracer.next_span += 1
                parent = stack[-1]
                stack.append(sid)
                frames.append(0.0)
                rec[3] += 1
                t0 = pc()
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1 = pc()
                    dt = t1 - t0
                    rec[3] -= 1
                    rec[0] += 1
                    rec[2] += dt - frames.pop()
                    frames[-1] += dt
                    if not rec[3]:
                        rec[1] += dt
                    stack.pop()
                    if len(spans) < SPAN_CAP:
                        spans.append((sid, key, t0, t1, parent, tracer.check))
        wrapper.__wrapped__ = fn
        return self._hooked(key, wrapper)

    def _hooked(self, key, inner):
        """Extra bookkeeping for the few calls whose arguments or results
        carry a per-layer count.  Time spent here is kept out of the
        caller's self time."""
        counters, frames, pc = self.counters, self.frames, time.perf_counter
        if key == "linalg.rref":
            shapes = self.rref_shapes

            def wrapper(matrix):
                t = pc()
                rows = len(matrix)
                cols = len(matrix[0]) if rows else 0
                counters["rref_cells"] += rows * cols
                counters["rref_nnz"] += sum(1 for r in matrix for x in r if x.re or x.im)
                shapes.append((rows, cols))
                frames[-1] += pc() - t
                return inner(matrix)

            return wrapper
        if key == "moyal.star":
            star, mul = self._rec(key), self._rec("poly.Poly.__mul__")

            def wrapper(*args, **kwargs):
                if star[3]:
                    return inner(*args, **kwargs)
                before = mul[0]
                try:
                    return inner(*args, **kwargs)
                finally:
                    counters["poly_mul_in_star"] += mul[0] - before

            return wrapper
        if key.startswith("reduction."):
            def wrapper(*args, **kwargs):
                out = inner(*args, **kwargs)
                if getattr(out, "status", None) == "inconclusive":
                    counters["inconclusive"] += 1
                return out

            return wrapper
        return inner

    # -- install / remove ---------------------------------------------------

    def _gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.counters["gc_collections"] += 1
            self.counters["gc_us"] += int((time.perf_counter() - self._gc_start) * 1e6)

    def install(self):
        mods = {m: importlib.import_module(f"aldyn.{m}") for m in MODULES}
        replaced = {}
        for layer, mod in mods.items():
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val.__module__ == mod.__name__ and _public(attr):
                    key = f"{layer}.{attr}"
                    replaced[id(val)] = (val, self._wrap(key, val, key not in AGGREGATED_FUNCTIONS))
                elif inspect.isclass(val) and val.__module__ == mod.__name__:
                    self._wrap_class(layer, val)
        for mod in [importlib.import_module("aldyn"), *mods.values()]:
            for attr, val in list(vars(mod).items()):
                hit = replaced.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._patches.append((mod, attr, val))
        gc.callbacks.append(self._gc)

    def _wrap_class(self, layer, cls):
        span = cls.__name__ not in AGGREGATED_CLASSES
        for name, val in list(vars(cls).items()):
            if name in SKIPPED_METHODS or not _public(name):
                continue
            key = f"{layer}.{cls.__name__}.{name}"
            if isinstance(val, staticmethod):
                new = staticmethod(self._wrap(key, val.__func__, span))
            elif inspect.isfunction(val):
                new = self._wrap(key, val, span)
            else:
                continue
            setattr(cls, name, new)
            self._patches.append((cls, name, val))

    def uninstall(self):
        for owner, attr, val in reversed(self._patches):
            setattr(owner, attr, val)
        self._patches.clear()
        if self._gc in gc.callbacks:
            gc.callbacks.remove(self._gc)

    # -- results ------------------------------------------------------------

    def calls(self, key) -> int:
        return self.stats.get(key, (0,))[0]

    def inclusive(self, *keys) -> float:
        return sum(self.stats[k][1] for k in keys if k in self.stats)

    def layer_self(self, layer) -> float:
        return sum(v[2] for k, v in self.stats.items() if k.split(".", 1)[0] == layer)

    def metrics(self, traced_s: float) -> dict:
        """The per-layer figures; ``traced_s`` is the traced checks' total time."""
        c = self.counters
        star_calls = self.calls("moyal.star")
        scalars_self = self.layer_self("scalars")
        return {
            "scalars.gauss_ops": sum(self.calls(k) for k in GAUSS_OPS),
            "scalars.self_s": scalars_self,
            "scalars.share": scalars_self / traced_s if traced_s else 0.0,
            "poly.mul_calls": self.calls("poly.Poly.__mul__"),
            "poly.partial_calls": self.calls("poly.Poly.partial"),
            "poly.self_s": self.layer_self("poly"),
            "moyal.star_calls": star_calls,
            "moyal.star_s": self.inclusive("moyal.star"),
            "moyal.poly_mul_per_star": c["poly_mul_in_star"] / star_calls if star_calls else 0.0,
            "poisson.bracket_calls": self.calls("poisson.bracket"),
            "poisson.bracket_s": self.inclusive("poisson.bracket"),
            "poisson.find_hamiltonian_s": self.inclusive("poisson.find_hamiltonian"),
            "poisson.find_poisson_tensor_s": self.inclusive("poisson.find_poisson_tensor"),
            "poisson.jacobi_s": self.inclusive("poisson.jacobi_check"),
            "derivations.apply_calls": self.calls("derivations.apply"),
            "derivations.apply_s": self.inclusive("derivations.apply"),
            "derivations.commutator_der_s": self.inclusive("derivations.commutator_der"),
            "linalg.rref_calls": self.calls("linalg.rref"),
            "linalg.rref_s": self.inclusive("linalg.rref"),
            "linalg.rref_cells": c["rref_cells"],
            "linalg.rref_nnz_share": c["rref_nnz"] / c["rref_cells"] if c["rref_cells"] else 0.0,
            "linalg.sparse_rows": self.calls("linalg.SparseEliminator.add_row"),
            "linalg.sparse_s": self.inclusive(
                "linalg.SparseEliminator.add_row", "linalg.SparseEliminator.kernel_basis"
            ),
            "matrices.matmul_calls": self.calls("matrices.Mat.__matmul__"),
            "matrices.matmul_s": self.inclusive("matrices.Mat.__matmul__"),
            "matrices.self_s": self.layer_self("matrices"),
            "quantum.commutator_calls": self.calls("quantum.commutator"),
            "quantum.biderivation_s": self.inclusive("quantum.biderivation_solver"),
            "quantum.commutant_s": self.inclusive("quantum.commutant"),
            "quantum.invariance_s": self.inclusive("quantum.invariance_check"),
            "reduction.invariant_subalgebra_s": self.inclusive("reduction.invariant_subalgebra"),
            "reduction.normalizer_check_s": self.inclusive("reduction.normalizer_check"),
            "reduction.inconclusive": c["inconclusive"],
            "diffcalc.basis_build_s": self.inclusive("diffcalc.DerivationBasis.__init__"),
            "diffcalc.coordinates_calls": self.calls("diffcalc.DerivationBasis.coordinates"),
            "diffcalc.act_calls": self.calls("diffcalc.DerivationBasis.act"),
            "diffcalc.exterior_d_s": self.inclusive("diffcalc.exterior_d"),
            "diffcalc.wedge_s": self.inclusive("diffcalc.wedge"),
            "parsing.parse_calls": self.calls("parsing.parse_poly"),
            "parsing.parse_s": self.inclusive("parsing.parse_poly"),
            "cli.main_s": self.inclusive("cli.main"),
            "runtime.gc_s": c["gc_us"] / 1e6,
            "runtime.gc_collections": c["gc_collections"],
        }

    def write_spans(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, key, t0, t1, parent, check in self.spans:
                fh.write(json.dumps([sid, key, round(t0 * 1e6), round(t1 * 1e6), parent, check]) + "\n")
