"""aldyn: exact-arithmetic engine for algebraic dynamics.

Polynomial algebras over Q(i)[theta] with the pointwise and Moyal star
products, derivation-generated flows, Poisson structures, reduction of
dynamics along distributions, finite-level quantum systems with commutant
and block reductions, and a derivation-based differential calculus on
matrix algebras.

The package is lazy (PEP 562): ``import aldyn`` loads no submodule.  Each
public name is imported from its submodule on first access and then kept,
so a cold ``aldyn <command>`` process loads only the modules its command
uses.
"""

from importlib import import_module

__version__ = "0.1.0"

__all__ = [
    "ConnectionP",
    "DerivationBasis",
    "Distribution",
    "GaussRational",
    "GeneratorMismatch",
    "GeneratorSet",
    "InnerDerivation",
    "KForm",
    "Mat",
    "MatrixSubspace",
    "NonTruncatingFlow",
    "ParseError",
    "Poly",
    "PolyDerivation",
    "PoissonTensor",
    "Scalar",
    "StarAlgebraContext",
    "apply",
    "biderivation_solver",
    "block_split",
    "bracket",
    "casimir_check",
    "commutant",
    "commutator",
    "commutator_der",
    "connection_apply",
    "contract",
    "evolve",
    "exactness_obstruction",
    "exterior_d",
    "f_related_reduce",
    "find_connection",
    "find_hamiltonian",
    "find_poisson_tensor",
    "flow_action_angle",
    "flow_linear",
    "flow_nilpotent",
    "flow_series_truncated",
    "full_matrix_basis",
    "gell_mann_basis",
    "hamiltonian_field",
    "heisenberg_derivative",
    "invariance_check",
    "invariance_of_subalgebra",
    "invariant_subalgebra",
    "jacobi_check",
    "lie_derivative",
    "lie_poisson",
    "nilpotency_order",
    "normalizer_check",
    "parse_poly",
    "s_space_basis",
    "s_space_check",
    "split_dynamics",
    "star",
    "star_commutator",
    "wedge",
    "wigner_ambiguity_check",
]

# The submodule that defines each name of __all__.
_SOURCE = {
    name: module
    for module, names in {
        "derivations": (
            "NonTruncatingFlow", "PolyDerivation", "apply", "commutator_der",
            "flow_action_angle", "flow_linear", "flow_nilpotent", "flow_series_truncated",
            "nilpotency_order",
        ),
        "diffcalc": (
            "DerivationBasis", "KForm", "contract", "exactness_obstruction", "exterior_d",
            "gell_mann_basis", "lie_derivative", "wedge",
        ),
        "matrices": ("Mat", "full_matrix_basis"),
        "moyal": (
            "StarAlgebraContext", "s_space_basis", "s_space_check", "star", "star_commutator",
            "wigner_ambiguity_check",
        ),
        "parsing": ("ParseError", "parse_poly"),
        "poisson": (
            "PoissonTensor", "bracket", "casimir_check", "find_hamiltonian",
            "find_poisson_tensor", "hamiltonian_field", "jacobi_check", "lie_poisson",
        ),
        "poly": ("GeneratorMismatch", "GeneratorSet", "Poly"),
        "quantum": (
            "InnerDerivation", "MatrixSubspace", "biderivation_solver", "block_split",
            "commutant", "commutator", "evolve", "heisenberg_derivative", "invariance_check",
        ),
        "reduction": (
            "ConnectionP", "Distribution", "connection_apply", "f_related_reduce",
            "find_connection", "invariance_of_subalgebra", "invariant_subalgebra",
            "normalizer_check", "split_dynamics",
        ),
        "scalars": ("GaussRational", "Scalar"),
    }.items()
    for name in names
}


def __getattr__(name: str):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_SOURCE[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
