import ast
import importlib
import re
from pathlib import Path

import pytest

import confstrata

# The names the package re-exported when it imported every submodule eagerly.
EXPORTS = {
    "finchains": ["FinChain", "FiniteSet", "SetMap", "SimplexMap", "degeneracy",
                  "enumerate_chains", "face"],
    "forests": ["ForMorphism", "Forest", "ForestPoset", "enumerate_forests", "from_poset",
                "is_forest", "level_functor_morphism", "level_functor_object", "minimal_forest",
                "pullback", "to_poset", "trees_of"],
    "wonderful": ["BlowUpSchedule", "BuildingSet", "DiagonalLattice", "default_order", "diagonal",
                  "diagonal_building_set", "diagonal_lattice", "forgetful_centers",
                  "is_building_set", "is_nest", "validate_li_order"],
    "confcat": ["StrataPoset", "con_morphism", "strata_poset", "stratum_codim",
                "stratum_intersect"],
    "weights": ["HypothesisRefusal", "PresentationAlgebra", "VarietyDescriptor", "WeightMultiset",
                "WeightedGradedSpace", "affine_line", "affine_space", "check_pure",
                "conf2_purity_report", "elliptic_curve", "hilbert_series", "kunneth_power",
                "presentation", "purity_theorem_check", "tate_twist", "tensor", "thom_relative"],
    "koszul": ["QuadraticPresentation", "TruncatedSeries", "hilbert_of_quadratic",
               "koszul_criterion", "quadratic_dual"],
}
EXPORTED = [(module, name) for module, names in EXPORTS.items() for name in names]
# Names the package never had, names deleted because nothing but their own tests used them,
# the chain checks the FinChain constructor replaced, and the stratum wrappers of a forest
# and of a forest morphism.
UNKNOWN = ["no_such_name", "HomCount", "building_set_from_json", "building_set_to_json",
           "con_object", "descriptor_to_json", "divisor_components", "forest_count",
           "forest_from_json", "hom_count", "nest_count", "validate_chain", "chain_violations",
           "Stratum", "StratumMap"]


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


def test_modules_reach_siblings_through_the_module():
    """A sibling is imported as a module and named as sibling.name at each use, so the lazy
    module alone decides when its code runs: no module imports a name from a submodule, and
    from the package itself only the submodules, _Value and _fill."""
    paths = sorted(Path(confstrata.__file__).parent.glob("*.py"))
    allowed = {path.stem for path in paths} - {"__init__"} | {"_Value", "_fill"}
    offenders = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level and node.module or (node.module or "").startswith("confstrata"):
                offenders.append(f"{path.name}:{node.lineno} imports from {node.module}")
            elif node.level:
                offenders += [f"{path.name}:{node.lineno} imports {alias.name} from the package"
                              for alias in node.names if alias.name not in allowed]
    assert offenders == []


def test_only_finchains_reads_the_maps_view():
    """A chain holds its sets and position tables, and FinChain.maps builds a SetMap per map on
    each read: no module but finchains reads an attribute named maps."""
    offenders = [f"{path.name}:{node.lineno} reads .maps"
                 for path in sorted(Path(confstrata.__file__).parent.glob("*.py"))
                 if path.stem != "finchains"
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Attribute) and node.attr == "maps"]
    assert offenders == []


def test_no_method_is_cached():
    """No lru_cache or cache decorates a method: its table would keep every instance alive."""
    offenders = []
    for path in sorted(Path(confstrata.__file__).parent.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                for decorator in node.decorator_list:
                    target = decorator.func if isinstance(decorator, ast.Call) else decorator
                    name = target.attr if isinstance(target, ast.Attribute) else \
                        getattr(target, "id", None)
                    if name in ("lru_cache", "cache"):
                        offenders.append(f"{path.name}:{node.lineno} caches {cls.name}.{node.name}")
    assert offenders == []


def test_finchains_and_forests_keep_no_cache():
    """No lru_cache or cache appears in finchains, forests or wonderful, at module level or
    on a method: their results are computed per call, and a memo lives with its caller."""
    offenders = []
    for name in ("finchains.py", "forests.py", "wonderful.py"):
        tree = ast.parse((Path(confstrata.__file__).parent / name).read_text())
        for node in ast.walk(tree):
            used = getattr(node, "id", None) or getattr(node, "attr", None) or \
                (node.name if isinstance(node, ast.alias) else None)
            if used in ("lru_cache", "cache"):
                offenders.append(f"{name}:{node.lineno} uses {used}")
    assert offenders == []


def test_only_the_value_base_defines_equality_and_immutability():
    """__init__.py holds the one value base: no other module defines __setattr__, __eq__
    or __hash__, or imports namedtuple or dataclasses."""
    offenders = []
    for path in sorted(Path(confstrata.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and node.name in (
                    "__setattr__", "__eq__", "__hash__"):
                offenders.append(f"{path.name}:{node.lineno} defines {node.name}")
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module, *(alias.name for alias in node.names)]
            else:
                continue
            for name in {"namedtuple", "dataclasses"} & set(names):
                offenders.append(f"{path.name}:{node.lineno} imports {name}")
    assert offenders == []


def _values():
    """For each value class, a function that builds a new, equal value on every call."""
    from confstrata import confcat, finchains, forests, koszul, weights, wonderful

    ground = finchains.FiniteSet([1, 2])
    chain = finchains.FinChain([ground, ground], [finchains.SetMap.identity(ground)])
    forest = forests.Forest(ground, [(1,), (2,), (1, 2)])
    bset = wonderful.diagonal_building_set(3)
    gen = weights.Generator("u", 2, 2)
    line = weights.DegreeLine(0, 1, weights.WeightMultiset({0: 1}))
    return {
        "FiniteSet": lambda: finchains.FiniteSet([2, 1]),
        "SetMap": lambda: finchains.SetMap(ground, ground, {1: 2, 2: 2}),
        "FinChain": lambda: finchains.FinChain([ground, ground], chain.maps),
        "SimplexMap": lambda: finchains.SimplexMap.identity(chain),
        "Forest": lambda: forests.Forest(ground, [(1, 2), (2,), (1,)]),
        "ForestPoset": lambda: forests.to_poset(forest),
        "ForMorphism": lambda: forests.ForMorphism(forest, forest, [(b, b) for b in forest.blocks]),
        "DiagonalLattice": lambda: wonderful.DiagonalLattice(3),
        "BuildingSet": lambda: wonderful.BuildingSet(wonderful.DiagonalLattice(3), bset.members),
        "BlowUpSchedule": lambda: wonderful.default_order(bset),
        "StrataPoset": lambda: confcat.StrataPoset(3),
        "WeightMultiset": lambda: weights.WeightMultiset({2: 1, 0: 1}),
        "WeightedGradedSpace": lambda: weights.WeightedGradedSpace({0: {0: 1}, 2: {2: 1}}),
        "VarietyDescriptor": weights.elliptic_curve,
        "Conf2Report": lambda: weights.conf2_purity_report(weights.elliptic_curve()),
        "Generator": lambda: weights.Generator("u", 2, 2),
        "Relation": lambda: weights.Relation("square", ((1, ("u", "u")),)),
        "PresentationAlgebra": lambda: weights.PresentationAlgebra((gen,), ()),
        "DegreeLine": lambda: weights.DegreeLine(0, 1, weights.WeightMultiset({0: 1})),
        "HilbertReport": lambda: weights.HilbertReport((line,), True, None),
        "TruncatedSeries": lambda: koszul.TruncatedSeries((1, 2, 1)),
        "QuadraticPresentation": koszul.genus_one_presentation,
        "KoszulVerdict": lambda: koszul.koszul_criterion(koszul.exterior_presentation(2), 4),
    }


VALUES = _values()
for _module in ("finchains", "forests", "wonderful", "confcat", "weights", "koszul", "linalg",
                "checks"):
    dir(getattr(confstrata, _module))  # runs the lazily loaded module
VALUE_CLASSES = sorted(confstrata._Value.__subclasses__(), key=lambda cls: cls.__name__)


def test_every_value_class_derives_from_the_base():
    assert [cls.__name__ for cls in VALUE_CLASSES] == sorted(VALUES)


@pytest.mark.parametrize("cls", VALUE_CLASSES, ids=[cls.__name__ for cls in VALUE_CLASSES])
def test_values_are_immutable_and_equal_by_fields(cls):
    name = cls.__name__
    a, b = VALUES[name](), VALUES[name]()
    assert type(a) is cls and a is not b
    assert a == b and not a != b and a != (a,)
    assert hash(a) == hash(b)
    field = cls.__slots__[0]
    with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
        setattr(a, field, getattr(b, field))
