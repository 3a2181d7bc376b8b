import collections
import itertools

import pytest

from confstrata.confcat import (
    con_morphism,
    factors,
    strata_poset,
    stratum_codim,
    stratum_intersect,
)
from confstrata.finchains import (
    FinChain,
    FiniteSet,
    SetMap,
    SimplexMap,
    enumerate_chains,
    identity_chain,
)
from confstrata.forests import (
    ForMorphism,
    Forest,
    enumerate_forests,
    level_functor_morphism,
    level_functor_object,
    minimal_forest,
    morphisms_equivalent,
)
from confstrata.wonderful import diagonal_building_set, enumerate_nests, nest_to_forest
from test_level_functor import elementary_into


def F(ground, blocks):
    return Forest(FiniteSet(ground), blocks)


def test_codim_examples():
    assert stratum_codim(minimal_forest(FiniteSet([1, 2, 3]))) == 0
    assert stratum_codim(F([1, 2, 3], [(1,), (2,), (3,), (1, 2)])) == 1
    assert stratum_codim(F([1, 2, 3], [(1,), (2,), (3,), (1, 2), (1, 2, 3)])) == 2


def test_codim_counts_all_forests_up_to_5():
    for n in range(1, 6):
        for phi in enumerate_forests(n):
            assert stratum_codim(phi) == sum(1 for b in phi.blocks if len(b) > 1)


def test_intersect_union_is_forest():
    phi = F([1, 2, 3], [(1,), (2,), (3,), (1, 2)])
    psi = F([1, 2, 3], [(1,), (2,), (3,), (1, 2, 3)])
    meet = stratum_intersect(phi, psi)
    assert meet == F([1, 2, 3], [(1,), (2,), (3,), (1, 2), (1, 2, 3)])
    assert stratum_codim(meet) == 2


def test_intersect_empty():
    phi = F([1, 2, 3], [(1,), (2,), (3,), (1, 2)])
    psi = F([1, 2, 3], [(1,), (2,), (3,), (1, 3)])
    assert stratum_intersect(phi, psi) is None


def test_intersect_idempotent_and_commutative():
    for phi, psi in itertools.product(enumerate_forests(3), repeat=2):
        meet = stratum_intersect(phi, psi)
        assert meet == stratum_intersect(psi, phi)
        if phi == psi:
            assert meet == phi


def test_intersect_associative_where_defined():
    def opt(a, b):
        if a is None or b is None:
            return None
        return stratum_intersect(a, b)

    forests3 = enumerate_forests(3)
    for a, b, c in itertools.product(forests3, repeat=3):
        left = opt(opt(a, b), c)
        right = opt(a, opt(b, c))
        assert left == right


def test_intersect_ground_mismatch():
    with pytest.raises(ValueError):
        stratum_intersect(minimal_forest(FiniteSet([1])), minimal_forest(FiniteSet([1, 2])))


def test_con_object_examples():
    s = FiniteSet([1, 2, 3])
    assert level_functor_object(identity_chain(s)) == minimal_forest(s)

    s2, star = FiniteSet([1, 2]), FiniteSet(["*"])
    pair = FinChain([s2, star], [SetMap(s2, star, {1: "*", 2: "*"})])
    assert stratum_codim(level_functor_object(pair)) == 1

    ab = FiniteSet(["a", "b"])
    partial = FinChain([s, ab], [SetMap(s, ab, {1: "a", 2: "a", 3: "b"})])
    phi = level_functor_object(partial)
    assert stratum_codim(phi) == 1
    assert phi == F([1, 2, 3], [(1,), (2,), (3,), (1, 2)])


def test_con_morphism_degeneracy_is_identity():
    s2, star = FiniteSet([1, 2]), FiniteSet(["*"])
    pair = FinChain([s2, star], [SetMap(s2, star, {1: "*", 2: "*"})])
    for i in range(2):
        mor = con_morphism(SimplexMap.degeneracy(pair, i))
        assert mor.is_identity()
        assert kind(mor) == "inclusion"


def test_con_morphism_outer_face_is_divisor_inclusion():
    s2, star = FiniteSet([1, 2]), FiniteSet(["*"])
    pair = FinChain([s2, star], [SetMap(s2, star, {1: "*", 2: "*"})])
    mor = con_morphism(SimplexMap.face(pair, 1))
    # the forest morphism runs from the divisor's forest to the interior's
    assert stratum_codim(mor.target) == 1
    assert mor.source == minimal_forest(s2)
    assert kind(mor) == "inclusion"


def test_con_morphism_relabel_is_forgetful():
    # dropping the first level only renames the surviving points
    s2, ab = FiniteSet([1, 2]), FiniteSet(["a", "b"])
    chain = FinChain([s2, ab], [SetMap(s2, ab, {1: "a", 2: "b"})])
    mor = con_morphism(SimplexMap.face(chain, 0))
    assert kind(mor) == "forgetful"
    assert stratum_codim(mor.source) == 0 and stratum_codim(mor.target) == 0


def test_con_functoriality_on_a_composite():
    s = FiniteSet([1, 2, 3])
    ab = FiniteSet(["a", "b"])
    star = FiniteSet(["*"])
    chain = FinChain([s, ab, star],
                     [SetMap(s, ab, {1: "a", 2: "a", 3: "b"}),
                      SetMap(ab, star, {"a": "*", "b": "*"})])
    f = SimplexMap.face(chain, 2)
    g = SimplexMap.face(f.source, 0)
    left = con_morphism(g.then(f))
    right = level_functor_morphism(g).then(level_functor_morphism(f))
    assert morphisms_equivalent(left, right)
    assert factors(left)


def test_stratum_map_is_its_morphism():
    # a map of strata is the forest morphism of F: con_morphism adds nothing to it
    s, ab, star = FiniteSet([1, 2, 3]), FiniteSet(["a", "b"]), FiniteSet(["*"])
    chain = FinChain([s, ab, star],
                     [SetMap(s, ab, {1: "a", 2: "a", 3: "b"}),
                      SetMap(ab, star, {"a": "*", "b": "*"})])
    f = SimplexMap.face(chain, 2)
    g = SimplexMap.face(f.source, 0)
    composite = con_morphism(g.then(f))
    through = level_functor_morphism(g).then(level_functor_morphism(f))
    assert type(composite) is ForMorphism
    assert composite == through and hash(composite) == hash(through)
    assert con_morphism(f) == level_functor_morphism(f) != con_morphism(g)
    assert [kind(m) for m in (con_morphism(f), con_morphism(g), composite)] == [
        "inclusion", "forgetful", "composite"]


def kind(g: ForMorphism) -> str:
    """Which step of g's map of strata is not trivial (see factors): "inclusion" when the
    lift is the identity and the pullback forest is psi, "forgetful" when the pullback
    forest is phi, "composite" otherwise."""
    mid = g.signature()
    if g.canonical_lift().is_identity() and mid == g.target:
        return "inclusion"
    if mid == g.source:
        return "forgetful"
    return "composite"


def test_stratum_map_kinds_on_elementary_maps_and_composites():
    kinds = collections.Counter()
    for chain in enumerate_chains(2, 2):
        for g_sm in elementary_into(chain):
            kinds[kind(con_morphism(g_sm))] += 1
            for f_sm in elementary_into(g_sm.source):
                kinds["composite of two: " + kind(con_morphism(f_sm.then(g_sm)))] += 1
    assert kinds == {
        "inclusion": 78, "forgetful": 18, "composite": 4,
        "composite of two: inclusion": 408, "composite of two: forgetful": 104,
        "composite of two: composite": 34,
    }


def test_stratum_map_witness_dominates():
    s = FiniteSet([1, 2, 3])
    ab = FiniteSet(["a", "b"])
    chain = FinChain([s, ab], [SetMap(s, ab, {1: "a", 2: "a", 3: "b"})])
    mor = con_morphism(SimplexMap.face(chain, 1))
    assert set(mor.source.blocks) <= set(mor.signature().blocks)
    assert factors(mor)
    assert kind(mor) in {"inclusion", "forgetful", "composite"}


def test_strata_poset_counts():
    two = strata_poset(2)
    assert len(two.strata) == 2
    assert len(two.covers) == 1
    assert [stratum_codim(phi) for phi in two.strata].count(0) == 1

    three = strata_poset(3)
    assert len(three.strata) == 8


def test_strata_poset_codim_monotone():
    for n in range(2, 6):
        poset = strata_poset(n)
        assert poset.covers
        for a, b in poset.covers:
            assert stratum_codim(poset.strata[a]) < stratum_codim(poset.strata[b])


def test_strata_covers_match_pairwise_definition():
    for n in range(1, 5):
        poset = strata_poset(n)
        forests = poset.strata
        oracle = sorted(
            (i, j)
            for i, f in enumerate(forests)
            for j, g in enumerate(forests)
            if set(f.blocks) < set(g.blocks) and len(g.blocks) == len(f.blocks) + 1
        )
        assert list(poset.covers) == oracle


def test_strata_poset_cap():
    # the size cap lives in cli.CAPS; the library keeps only its domain, n >= 1
    with pytest.raises(ValueError, match=r"^n must be at least 1$"):
        strata_poset(0)


def test_strata_dot():
    dot = strata_poset(2).to_dot()
    assert "interior" in dot and dot.startswith("digraph strata {")


def test_nonempty_strata_are_nests_plus_singletons():
    # ties the stratum index set to the nest calculus
    for n in range(1, 5):
        nest_forests = {nest_to_forest(n, nest) for nest in enumerate_nests(n)}
        strata_forests = set(strata_poset(n).strata)
        assert nest_forests == strata_forests
        assert diagonal_building_set(n, 1)  # building set exists alongside
