"""Strata of compactified configuration spaces, indexed by forests.

A stratum is determined by its forest; the codimension counts the blocks with
more than one element.  Closed strata intersect along the union of their
forests when that union is again a forest, and are empty otherwise.  The
contravariant functor on chains is the level construction followed by this
stratum bookkeeping: every chain morphism factors as a point-forgetting map
followed by a stratum inclusion.
"""

from __future__ import annotations

from .finchains import FinChain, SetMap, SimplexMap
from .forests import (
    ForMorphism,
    Forest,
    enumerate_forests,
    is_forest,
    level_functor_morphism,
    level_functor_object,
    pullback,
)

MAX_STRATA_POINTS = 5


class Stratum:
    """A closed stratum, carried entirely by its indexing forest."""

    __slots__ = ("forest",)

    def __init__(self, forest: Forest):
        object.__setattr__(self, "forest", forest)

    def __setattr__(self, name, value):
        raise AttributeError("Stratum is immutable")

    @property
    def codim(self) -> int:
        return len(self.forest.non_singleton_blocks())

    def is_interior(self) -> bool:
        return self.codim == 0

    def __eq__(self, other):
        return isinstance(other, Stratum) and self.forest == other.forest

    def __hash__(self):
        return hash(("Stratum", self.forest))

    def __repr__(self):
        return f"Stratum(codim={self.codim}, {self.forest!r})"


def stratum_codim(phi: Forest) -> int:
    """Codimension: the number of non-singleton blocks."""
    return len(phi.non_singleton_blocks())


def stratum_intersect(phi: Forest, psi: Forest):
    """Stratum of the union forest, or None when the union is not a forest."""
    if phi.ground != psi.ground:
        raise ValueError("strata live over different ground sets")
    blocks = set(phi.blocks) | set(psi.blocks)
    if not is_forest(phi.ground, blocks):
        return None
    return Stratum(Forest(phi.ground, blocks))


class StratumMap:
    """A map of strata: a point-forgetting step followed by a stratum inclusion.

    Built from a forest morphism g: (S, phi) -> (T, psi); the stratum of psi
    maps to the stratum of phi by forgetting points along a ground injection j
    (witness), landing in the pullback forest, which contains phi and so
    includes into its stratum.
    """

    __slots__ = ("morphism", "witness", "mid")

    def __init__(self, morphism: ForMorphism, witness: SetMap | None = None):
        if witness is None:
            witness = morphism.canonical_lift()
        mid = pullback(witness, morphism.target)
        if not set(morphism.source.blocks) <= set(mid.blocks):
            raise ValueError("witness injection does not dominate the source forest")
        object.__setattr__(self, "morphism", morphism)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "mid", mid)

    def __setattr__(self, name, value):
        raise AttributeError("StratumMap is immutable")

    @property
    def source(self) -> Stratum:
        return Stratum(self.morphism.target)

    @property
    def target(self) -> Stratum:
        return Stratum(self.morphism.source)

    @property
    def kind(self) -> str:
        forgetful_trivial = self.witness.is_identity() and self.mid == self.morphism.target
        if forgetful_trivial:
            return "inclusion"
        if self.mid == self.morphism.source:
            return "forgetful"
        return "composite"

    def is_identity(self) -> bool:
        return self.morphism.is_identity()

    def then(self, other: "StratumMap") -> "StratumMap":
        """Composite stratum map; other is applied after self."""
        if other.source != self.target:
            raise ValueError("stratum maps do not compose")
        return StratumMap(other.morphism.then(self.morphism))

    def signature(self):
        return (self.source, self.target, self.morphism.signature())

    def __eq__(self, other):
        return (
            isinstance(other, StratumMap)
            and self.morphism == other.morphism
            and self.witness == other.witness
        )

    def __hash__(self):
        return hash(("StratumMap", self.morphism, self.witness))

    def __repr__(self):
        return f"StratumMap({self.kind}: {self.source!r} -> {self.target!r})"


def con_object(chain: FinChain) -> Stratum:
    """The stratum indexed by the level forest of a chain."""
    return Stratum(level_functor_object(chain))


def con_morphism(sm: SimplexMap) -> StratumMap:
    """Contravariant image of a chain morphism: forgetful then inclusion."""
    return StratumMap(level_functor_morphism(sm))


def stratum_maps_equivalent(a: StratumMap, b: StratumMap) -> bool:
    return a.signature() == b.signature()


class StrataPoset:
    """All strata over a fixed ground set, ordered by inclusion of forests."""

    __slots__ = ("n", "strata", "covers")

    def __init__(self, n: int):
        if not 1 <= n <= MAX_STRATA_POINTS:
            raise ValueError(f"n must satisfy 1 <= n <= {MAX_STRATA_POINTS}")
        forests = enumerate_forests(n)
        strata = [Stratum(f) for f in forests]
        # g covers exactly the forests g minus one non-singleton block; deleting
        # from the canonically sorted blocks leaves them canonically sorted
        index = {f.blocks: i for i, f in enumerate(forests)}
        covers = [
            (index[tuple(c for c in g.blocks if c != b)], index[g.blocks])
            for g in forests for b in g.non_singleton_blocks()
        ]
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "strata", tuple(strata))
        object.__setattr__(self, "covers", tuple(sorted(covers)))

    def __setattr__(self, name, value):
        raise AttributeError("StrataPoset is immutable")

    def interior(self) -> Stratum:
        interiors = [s for s in self.strata if s.is_interior()]
        assert len(interiors) == 1
        return interiors[0]

    def to_dot(self) -> str:
        lines = ["digraph strata {", "  rankdir=BT;", "  node [shape=box];"]
        for i, s in enumerate(self.strata):
            blocks = " ".join(
                "{" + ",".join(str(x) for x in b) + "}" for b in s.forest.non_singleton_blocks()
            ) or "interior"
            lines.append(f'  s{i} [label="codim {s.codim}: {blocks}"];')
        for a, b in self.covers:
            lines.append(f"  s{a} -> s{b};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def strata_poset(n: int) -> StrataPoset:
    return StrataPoset(n)
