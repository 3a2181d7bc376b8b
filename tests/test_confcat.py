import itertools

import pytest

from confstrata.confcat import (
    Stratum,
    con_morphism,
    con_object,
    strata_poset,
    stratum_codim,
    stratum_intersect,
    stratum_maps_equivalent,
)
from confstrata.finchains import FinChain, FiniteSet, SetMap, SimplexMap, identity_chain
from confstrata.forests import Forest, enumerate_forests, minimal_forest
from confstrata.wonderful import diagonal_building_set, enumerate_nests, nest_to_forest


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
    assert meet == Stratum(F([1, 2, 3], [(1,), (2,), (3,), (1, 2), (1, 2, 3)]))
    assert meet.codim == 2


def test_intersect_empty():
    phi = F([1, 2, 3], [(1,), (2,), (3,), (1, 2)])
    psi = F([1, 2, 3], [(1,), (2,), (3,), (1, 3)])
    assert stratum_intersect(phi, psi) is None


def test_intersect_idempotent_and_commutative():
    for phi, psi in itertools.product(enumerate_forests(3), repeat=2):
        meet = stratum_intersect(phi, psi)
        assert meet == stratum_intersect(psi, phi)
        if phi == psi:
            assert meet == Stratum(phi)


def test_intersect_associative_where_defined():
    def opt(a, b):
        if a is None or b is None:
            return None
        return stratum_intersect(a.forest if isinstance(a, Stratum) else a,
                                 b.forest if isinstance(b, Stratum) else b)

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
    assert con_object(identity_chain(s)) == Stratum(minimal_forest(s))

    s2, star = FiniteSet([1, 2]), FiniteSet(["*"])
    pair = FinChain([s2, star], [SetMap(s2, star, {1: "*", 2: "*"})])
    assert con_object(pair).codim == 1

    ab = FiniteSet(["a", "b"])
    partial = FinChain([s, ab], [SetMap(s, ab, {1: "a", 2: "a", 3: "b"})])
    stratum = con_object(partial)
    assert stratum.codim == 1
    assert stratum.forest == F([1, 2, 3], [(1,), (2,), (3,), (1, 2)])


def test_con_morphism_degeneracy_is_identity():
    s2, star = FiniteSet([1, 2]), FiniteSet(["*"])
    pair = FinChain([s2, star], [SetMap(s2, star, {1: "*", 2: "*"})])
    for i in range(2):
        mor = con_morphism(SimplexMap.degeneracy(pair, i))
        assert mor.is_identity()
        assert mor.kind == "inclusion"


def test_con_morphism_outer_face_is_divisor_inclusion():
    s2, star = FiniteSet([1, 2]), FiniteSet(["*"])
    pair = FinChain([s2, star], [SetMap(s2, star, {1: "*", 2: "*"})])
    mor = con_morphism(SimplexMap.face(pair, 1))
    assert mor.source.codim == 1
    assert mor.target == Stratum(minimal_forest(s2))
    assert mor.kind == "inclusion"


def test_con_morphism_relabel_is_forgetful():
    # dropping the first level only renames the surviving points
    s2, ab = FiniteSet([1, 2]), FiniteSet(["a", "b"])
    chain = FinChain([s2, ab], [SetMap(s2, ab, {1: "a", 2: "b"})])
    mor = con_morphism(SimplexMap.face(chain, 0))
    assert mor.kind == "forgetful"
    assert mor.source.codim == 0 and mor.target.codim == 0


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
    right = con_morphism(f).then(con_morphism(g))
    assert stratum_maps_equivalent(left, right)


def test_stratum_map_witness_dominates():
    s = FiniteSet([1, 2, 3])
    ab = FiniteSet(["a", "b"])
    chain = FinChain([s, ab], [SetMap(s, ab, {1: "a", 2: "a", 3: "b"})])
    mor = con_morphism(SimplexMap.face(chain, 1))
    assert set(mor.morphism.source.blocks) <= set(mor.mid.blocks)
    assert mor.kind in {"inclusion", "forgetful", "composite"}


def test_strata_poset_counts():
    two = strata_poset(2)
    assert len(two.strata) == 2
    assert len(two.covers) == 1
    assert two.interior().codim == 0

    three = strata_poset(3)
    assert len(three.strata) == 8


def test_strata_poset_codim_monotone():
    for n in range(2, 6):
        poset = strata_poset(n)
        assert poset.covers
        for a, b in poset.covers:
            assert poset.strata[a].codim < poset.strata[b].codim


def test_strata_covers_match_pairwise_definition():
    for n in range(1, 5):
        poset = strata_poset(n)
        forests = [s.forest for s in poset.strata]
        oracle = sorted(
            (i, j)
            for i, f in enumerate(forests)
            for j, g in enumerate(forests)
            if set(f.blocks) < set(g.blocks) and len(g.blocks) == len(f.blocks) + 1
        )
        assert list(poset.covers) == oracle


def test_strata_poset_cap():
    with pytest.raises(ValueError):
        strata_poset(6)


def test_strata_dot():
    dot = strata_poset(2).to_dot()
    assert "interior" in dot and dot.startswith("digraph strata {")


def test_nonempty_strata_are_nests_plus_singletons():
    # ties the stratum index set to the nest calculus
    for n in range(1, 5):
        nest_forests = {nest_to_forest(n, nest) for nest in enumerate_nests(n)}
        strata_forests = {s.forest for s in strata_poset(n).strata}
        assert nest_forests == strata_forests
        assert diagonal_building_set(n, 1)  # building set exists alongside
