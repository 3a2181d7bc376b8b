"""Symbolic calculus for strata of compactified configuration spaces.

The package covers the combinatorics that index these spaces (forests,
building sets, nests, blow-up orders), the chain-level functor that packages
forgetful and insertion structure, and the Frobenius-weight bookkeeping that
drives purity and Koszulness checks for configuration spaces of X x R.
"""

from .finchains import (
    FinChain,
    FiniteSet,
    SetMap,
    SimplexMap,
    degeneracy,
    enumerate_chains,
    face,
    validate_chain,
)
from .forests import (
    ForMorphism,
    Forest,
    ForestPoset,
    enumerate_forests,
    forest_count,
    from_poset,
    hom_count,
    is_forest,
    level_functor_morphism,
    level_functor_object,
    minimal_forest,
    pullback,
    to_poset,
    trees_of,
)
from .wonderful import (
    BlowUpSchedule,
    BuildingSet,
    DiagonalLattice,
    default_order,
    diagonal,
    diagonal_building_set,
    diagonal_lattice,
    divisor_components,
    forgetful_centers,
    is_building_set,
    is_nest,
    nest_count,
    validate_li_order,
)
from .confcat import (
    StrataPoset,
    Stratum,
    StratumMap,
    con_morphism,
    con_object,
    strata_poset,
    stratum_codim,
    stratum_intersect,
)
from .weights import (
    HypothesisRefusal,
    PresentationAlgebra,
    VarietyDescriptor,
    WeightMultiset,
    WeightedGradedSpace,
    affine_line,
    affine_space,
    check_pure,
    conf2_purity_report,
    elliptic_curve,
    hilbert_series,
    kunneth_power,
    presentation,
    purity_theorem_check,
    tate_twist,
    tensor,
    thom_relative,
)
from .koszul import (
    QuadraticPresentation,
    TruncatedSeries,
    hilbert_of_quadratic,
    koszul_criterion,
    quadratic_dual,
)

__version__ = "0.1.0"
