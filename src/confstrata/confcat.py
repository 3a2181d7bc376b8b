"""Strata of compactified configuration spaces, indexed by forests.

A stratum is determined by its forest; the codimension counts the blocks with
more than one element.  Closed strata intersect along the union of their
forests when that union is again a forest, and are empty otherwise.  The
contravariant functor on chains is the level construction followed by this
stratum bookkeeping: every chain morphism factors as a point-forgetting map
followed by a stratum inclusion.
"""

from __future__ import annotations

from . import _Value, _fill, finchains, forests


class Stratum(_Value):
    """A closed stratum, carried entirely by its indexing forest."""

    __slots__ = ("forest",)

    def __init__(self, forest: forests.Forest):
        _fill(self, forest)

    @property
    def codim(self) -> int:
        return len(self.forest.non_singleton_blocks())

    def __repr__(self):
        return f"Stratum(codim={self.codim}, {self.forest!r})"


def stratum_codim(phi: forests.Forest) -> int:
    """Codimension: the number of non-singleton blocks."""
    return len(phi.non_singleton_blocks())


def stratum_intersect(phi: forests.Forest, psi: forests.Forest):
    """Stratum of the union forest, or None when the union is not a forest."""
    if phi.ground != psi.ground:
        raise ValueError("strata live over different ground sets")
    blocks = forests._canonical_blocks(set(phi.blocks) | set(psi.blocks))
    return Stratum(forests._forest(phi.ground, blocks)) if forests.is_forest(phi.ground, blocks) else None


class StratumMap(_Value):
    """A map of strata: a point-forgetting step followed by a stratum inclusion.

    Fixed by a forest morphism g: (S, phi) -> (T, psi); the stratum of psi
    maps to the stratum of phi by forgetting points along g's canonical lift
    (witness), landing in g's one pullback forest (mid, g.signature()), which
    contains phi and so includes into its stratum.  For a lawful g
    (forests.morphism_violations) mid dominates phi: for s in A, a lift sends s
    into g({s}), inside g(A); for s not in A, {s} and A are independent, so
    their images are disjoint.  Nothing is proved on construction; factors states
    the domination, and checks.check_level_functor tests it on every face
    image and composite it checks.
    """

    __slots__ = ("morphism",)

    def __init__(self, morphism: forests.ForMorphism):
        _fill(self, morphism)

    @property
    def witness(self) -> finchains.SetMap:
        return self.morphism.canonical_lift()

    @property
    def mid(self) -> forests.Forest:
        return self.morphism.signature()

    @property
    def source(self) -> Stratum:
        return Stratum(self.morphism.target)

    @property
    def target(self) -> Stratum:
        return Stratum(self.morphism.source)

    @property
    def kind(self) -> str:
        mid = self.mid
        if self.witness.is_identity() and mid == self.morphism.target:
            return "inclusion"
        if mid == self.morphism.source:
            return "forgetful"
        return "composite"

    def is_identity(self) -> bool:
        return self.morphism.is_identity()

    def __repr__(self):
        return f"StratumMap({self.kind}: {self.source!r} -> {self.target!r})"


def con_morphism(sm: finchains.SimplexMap) -> StratumMap:
    """Contravariant image of a chain morphism: forgetful then inclusion."""
    return StratumMap(forests.level_functor_morphism(sm))


def factors(sm: StratumMap) -> bool:
    """Whether sm factors as forget then include: phi's blocks are all blocks of mid."""
    return set(sm.morphism.source.blocks) <= set(sm.mid.blocks)


class StrataPoset(_Value):
    """The strata over {1..n}, one per forest, ordered by inclusion; the caller bounds n."""

    __slots__ = ("n", "strata", "covers")

    def __init__(self, n: int):
        every = forests.enumerate_forests(n)
        covers = forests.inclusion_covers([f.non_singleton_blocks() for f in every])
        _fill(self, n, tuple([Stratum(f) for f in every]), tuple(covers))

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
