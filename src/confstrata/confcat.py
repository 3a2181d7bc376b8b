"""Strata of compactified configuration spaces, indexed by forests.

A stratum is its forest; the codimension counts the blocks with more than one
element.  Closed strata intersect along the union of their forests when that
union is again a forest, and are empty otherwise.  A map of strata is a forest
morphism, read contravariantly: the contravariant functor on chains is the
level construction, and every chain morphism's image factors as a
point-forgetting map followed by a stratum inclusion.
"""

from __future__ import annotations

from . import _Value, _fill, finchains, forests


def stratum_codim(phi: forests.Forest) -> int:
    """Codimension: the number of non-singleton blocks."""
    return len(phi.non_singleton_blocks())


def stratum_intersect(phi: forests.Forest, psi: forests.Forest):
    """The union forest, whose stratum is the intersection, or None when the union is not a forest."""
    if phi.ground != psi.ground:
        raise ValueError("strata live over different ground sets")
    blocks = forests._canonical_blocks(set(phi.blocks) | set(psi.blocks))
    return forests._forest(phi.ground, blocks) if forests.is_forest(phi.ground, blocks) else None


def con_morphism(sm: finchains.SimplexMap) -> forests.ForMorphism:
    """Contravariant image of a chain morphism: its forest morphism, a map of strata."""
    return forests.level_functor_morphism(sm)


def factors(g: forests.ForMorphism) -> bool:
    """Whether the map of strata of g: (S, phi) -> (T, psi) factors as forget then include.

    The stratum of psi maps to the stratum of phi by forgetting points along
    g.canonical_lift(), landing in the stratum of g's one pullback forest,
    g.signature(); that includes into phi's stratum when phi's blocks are all
    blocks of it.  For a lawful g (forests.morphism_violations) they are: for s
    in A, a lift sends s into g({s}), inside g(A); for s not in A, {s} and A are
    independent, so their images are disjoint.  Nothing proves this beforehand;
    checks.check_level_functor asks it of every face image and composite it checks.
    """
    return _factors(*forests._integers(g))


def _factors(source, target, table) -> bool:
    """factors on the integer form of g (see forests): phi's block masks among the signature's."""
    return set(source) <= forests._signature(source, target, table)


class StrataPoset(_Value):
    """The strata over {1..n}, one forest each, ordered by inclusion; the caller bounds n."""

    __slots__ = ("n", "strata", "covers")

    def __init__(self, n: int):
        every = forests.enumerate_forests(n)
        covers = forests.inclusion_covers([f.non_singleton_blocks() for f in every])
        _fill(self, n, tuple(every), tuple(covers))

    def to_dot(self) -> str:
        lines = ["digraph strata {", "  rankdir=BT;", "  node [shape=box];"]
        for i, phi in enumerate(self.strata):
            blocks = " ".join(
                "{" + ",".join(str(x) for x in b) + "}" for b in phi.non_singleton_blocks()
            ) or "interior"
            lines.append(f'  s{i} [label="codim {stratum_codim(phi)}: {blocks}"];')
        for a, b in self.covers:
            lines.append(f"  s{a} -> s{b};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def strata_poset(n: int) -> StrataPoset:
    return StrataPoset(n)
