"""Exact loop calculus for Markov inclusions of multi-matrix algebras.

The package classifies unital inclusions of finite dimensional multi-matrix
algebras, builds the weighted bipartite graph of a Markov inclusion with
integer index, spans degree-graded spaces on based loops with exact radical
coefficients, applies the generating annular operations (gluing, inclusion,
shift, expectation, cup-cap idempotents, trace), and verifies fixed-point
subalgebras under finite graph symmetry groups.

Each public name is imported from its module on first use (PEP 562), so a
process loads only the modules it touches.
"""

from importlib import import_module

__version__ = "0.1.0"

# Module -> the public names it exports; the one list of the package's API.
_EXPORTS = {
    "errors": (
        "DegreeMismatchError EigenvectorViolationError GroupTooLargeError"
        " InvalidAutomorphismError NotAbelianError NotInvertibleError NotMarkovError"
        " NotRepresentableError PlanarAlgError ResourceLimitError ValidationError"
    ),
    "graph": "BipartiteGraph Edge Loop PlanarElement build_graph",
    "markov": (
        "AlgebraDims InclusionData MarkovReport analyze canonical_trace_weights"
        " jones_tower loop_space_dim markov_index word_norm"
    ),
    "radical": "RadicalScalar sqrt_of_int sum_scalars",
    "symmetry": (
        "GraphAutomorphism GroupAction SubalgebraReport act act_loop close_group"
        " fixed_dims_report fixed_space_basis is_centrally_ergodic make_automorphism"
        " reynolds verify_planar_subalgebra"
    ),
    "tangles": (
        "RelationCheck expect include jones_projection jones_projection_raw shift trace"
        " verify_temperley_lieb"
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return list(__all__)
