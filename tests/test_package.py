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
    "forests": ["ForMorphism", "Forest", "ForestPoset", "enumerate_forests", "from_poset",
                "is_forest", "level_functor_morphism", "level_functor_object", "minimal_forest",
                "pullback", "to_poset", "trees_of"],
    "wonderful": ["BlowUpSchedule", "BuildingSet", "DiagonalLattice", "default_order", "diagonal",
                  "diagonal_building_set", "diagonal_lattice", "forgetful_centers",
                  "is_building_set", "is_nest", "validate_li_order"],
    "confcat": ["StrataPoset", "Stratum", "StratumMap", "con_morphism", "strata_poset",
                "stratum_codim", "stratum_intersect"],
    "weights": ["HypothesisRefusal", "PresentationAlgebra", "VarietyDescriptor", "WeightMultiset",
                "WeightedGradedSpace", "affine_line", "affine_space", "check_pure",
                "conf2_purity_report", "elliptic_curve", "hilbert_series", "kunneth_power",
                "presentation", "purity_theorem_check", "tate_twist", "tensor", "thom_relative"],
    "koszul": ["QuadraticPresentation", "TruncatedSeries", "hilbert_of_quadratic",
               "koszul_criterion", "quadratic_dual"],
}
EXPORTED = [(module, name) for module, names in EXPORTS.items() for name in names]
# Names the package never had, and names deleted because nothing but their own tests used them.
UNKNOWN = ["no_such_name", "HomCount", "building_set_from_json", "building_set_to_json",
           "con_object", "descriptor_to_json", "divisor_components", "forest_count",
           "forest_from_json", "hom_count", "nest_count"]


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
    for name in UNKNOWN:
        assert name not in dir(confstrata)
        with pytest.raises(AttributeError, match=f"no attribute '{name}'"):
            getattr(confstrata, name)
        with pytest.raises(ImportError):
            exec(f"from confstrata import {name}", {})


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


def test_no_module_level_import_goes_unused():
    """Every name a module imports at its top level is read somewhere in that module."""
    offenders = []
    for path in sorted(Path(confstrata.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        offenders.append(f"{path.name}:{node.lineno} imports {name} unused")
    assert offenders == []
