"""Symbolic calculus for strata of compactified configuration spaces.

The package covers the combinatorics that index these spaces (forests,
building sets, nests, blow-up orders), the chain-level functor that packages
forgetful and insertion structure, and the Frobenius-weight bookkeeping that
drives purity and Koszulness checks for configuration spaces of X x R.

Submodules load on first use: importing the package (or `confstrata.cli`)
runs none of them, and a re-exported name loads only the module defining it.
"""

import importlib.util
import sys

__version__ = "0.1.0"

_EXPORTS = {
    "finchains": """FinChain FiniteSet SetMap SimplexMap degeneracy enumerate_chains face
        validate_chain""",
    "forests": """ForMorphism Forest ForestPoset enumerate_forests from_poset is_forest
        level_functor_morphism level_functor_object minimal_forest pullback to_poset
        trees_of""",
    "wonderful": """BlowUpSchedule BuildingSet DiagonalLattice default_order diagonal
        diagonal_building_set diagonal_lattice forgetful_centers is_building_set is_nest
        validate_li_order""",
    "confcat": """StrataPoset Stratum StratumMap con_morphism strata_poset stratum_codim
        stratum_intersect""",
    "weights": """HypothesisRefusal PresentationAlgebra VarietyDescriptor WeightMultiset
        WeightedGradedSpace affine_line affine_space check_pure conf2_purity_report
        elliptic_curve hilbert_series kunneth_power presentation purity_theorem_check
        tate_twist tensor thom_relative""",
    "koszul": """QuadraticPresentation TruncatedSeries hilbert_of_quadratic koszul_criterion
        quadratic_dual""",
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names.split()}


def _lazy(name):
    # the LazyLoader recipe of the importlib docs: the module's code runs on first attribute access
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


globals().update((name, _lazy(name)) for name in (
    "finchains", "forests", "wonderful", "confcat", "weights", "koszul", "linalg", "checks"))


def __getattr__(name):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_SOURCE[name]], name)


def __dir__():
    return sorted({*globals(), *_SOURCE})
