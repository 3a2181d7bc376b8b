import ast
import importlib
import re
from pathlib import Path

import pytest

import confstrata

# The names the package re-exported when it imported every submodule eagerly.
EXPORTS = {
    "finchains": ["FinChain", "FiniteSet", "SetMap", "SimplexMap", "degeneracy",
                  "enumerate_chains", "face", "validate_chain"],
    "forests": ["ForMorphism", "Forest", "ForestPoset", "enumerate_forests", "forest_count",
                "from_poset", "hom_count", "is_forest", "level_functor_morphism",
                "level_functor_object", "minimal_forest", "pullback", "to_poset", "trees_of"],
    "wonderful": ["BlowUpSchedule", "BuildingSet", "DiagonalLattice", "default_order", "diagonal",
                  "diagonal_building_set", "diagonal_lattice", "divisor_components",
                  "forgetful_centers", "is_building_set", "is_nest", "nest_count",
                  "validate_li_order"],
    "confcat": ["StrataPoset", "Stratum", "StratumMap", "con_morphism", "con_object",
                "strata_poset", "stratum_codim", "stratum_intersect"],
    "weights": ["HypothesisRefusal", "PresentationAlgebra", "VarietyDescriptor", "WeightMultiset",
                "WeightedGradedSpace", "affine_line", "affine_space", "check_pure",
                "conf2_purity_report", "elliptic_curve", "hilbert_series", "kunneth_power",
                "presentation", "purity_theorem_check", "tate_twist", "tensor", "thom_relative"],
    "koszul": ["QuadraticPresentation", "TruncatedSeries", "hilbert_of_quadratic",
               "koszul_criterion", "quadratic_dual"],
}
EXPORTED = [(module, name) for module, names in EXPORTS.items() for name in names]


@pytest.mark.parametrize("module,name", EXPORTED, ids=[name for _, name in EXPORTED])
def test_exported_name_is_the_submodule_attribute(module, name):
    defined = getattr(importlib.import_module(f"confstrata.{module}"), name)
    namespace = {}
    exec(f"from confstrata import {name}", namespace)
    assert getattr(confstrata, name) is defined
    assert namespace[name] is defined
    assert name in dir(confstrata)


def test_version_and_unknown_names():
    assert confstrata.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        confstrata.no_such_name
    with pytest.raises(ImportError):
        exec("from confstrata import no_such_name", {})


def test_only_cli_holds_size_limits():
    """cli.CAPS is the one table of caps: no other module defines MAX_* or raises a cap."""
    offenders = []
    for path in sorted(Path(confstrata.__file__).parent.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) \
                    and node.id.startswith("MAX_"):
                offenders.append(f"{path.name}:{node.lineno} defines {node.id}")
            if isinstance(node, ast.Raise):
                for part in ast.walk(node):
                    if isinstance(part, ast.Constant) and isinstance(part.value, str) \
                            and re.search(r"\bcap", part.value, re.IGNORECASE):
                        offenders.append(f"{path.name}:{node.lineno} raises {part.value!r}")
    assert offenders == []
