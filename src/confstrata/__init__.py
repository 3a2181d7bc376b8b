"""Symbolic calculus for strata of compactified configuration spaces.

The package covers the combinatorics that index these spaces (forests,
building sets, nests, blow-up orders), the chain-level functor that packages
forgetful and insertion structure, and the Frobenius-weight bookkeeping that
drives purity and Koszulness checks for configuration spaces of X x R.

Submodules load on first use: importing the package (or `confstrata.cli`)
runs none of them, and a re-exported name loads only the module defining it.
The one base of the package's immutable values, _Value, lives here, where
every submodule finds it already loaded.
"""

import importlib.util
import sys
from operator import attrgetter

__version__ = "0.1.0"

_EXPORTS = {
    "finchains": "FinChain FiniteSet SetMap SimplexMap degeneracy enumerate_chains face",
    "forests": """ForMorphism Forest ForestPoset enumerate_forests from_poset is_forest
        level_functor_morphism level_functor_object minimal_forest pullback to_poset
        trees_of""",
    "wonderful": """BlowUpSchedule BuildingSet DiagonalLattice default_order diagonal
        diagonal_building_set diagonal_lattice forgetful_centers is_building_set is_nest
        validate_li_order""",
    "confcat": "StrataPoset con_morphism strata_poset stratum_codim stratum_intersect",
    "weights": """HypothesisRefusal PresentationAlgebra VarietyDescriptor WeightMultiset
        WeightedGradedSpace affine_line affine_space check_pure conf2_purity_report
        elliptic_curve hilbert_series kunneth_power presentation purity_theorem_check
        tate_twist tensor thom_relative""",
    "koszul": """QuadraticPresentation TruncatedSeries hilbert_of_quadratic koszul_criterion
        quadratic_dual""",
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names.split()}


class _Value:
    """An immutable value on __slots__: equal to another of its class with equal _fields.

    A subclass lists its fields in __slots__.  _fields is an attrgetter of the
    fields that make the value, all of them unless the class names its own;
    the hash of (class name, fields) is computed on first use and kept.  The
    constructor takes the fields by position or keyword; a class that
    validates its input defines its own and stores the fields with _fill.
    """

    __slots__ = ("_hash",)

    def __init_subclass__(cls):
        if "_fields" not in vars(cls):
            cls._fields = attrgetter(*cls.__slots__)

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        values = dict(zip(names, args), **kwargs)
        if len(args) + len(kwargs) != len(names) or values.keys() != set(names):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}")
        _fill(self, *[values[name] for name in names])

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        return self is other or (type(other) is type(self)
                                 and self._fields(self) == self._fields(other))

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", hash((type(self).__name__, self._fields(self))))
            return self._hash

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


def _fill(obj, *values):
    """Set the slots of obj's class, in order: construction without the immutability guard."""
    for name, value in zip(type(obj).__slots__, values):
        object.__setattr__(obj, name, value)
    return obj


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
