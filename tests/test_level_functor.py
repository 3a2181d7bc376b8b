import pytest

from confstrata import checks
from confstrata.checks import check_level_functor
from confstrata.finchains import (
    FinChain,
    FiniteSet,
    SetMap,
    SimplexMap,
    enumerate_chains,
    identity_chain,
)
from confstrata.forests import (
    Forest,
    ForMorphism,
    level_functor_morphism,
    level_functor_object,
    minimal_forest,
    pullback,
)


def F(ground, blocks):
    return Forest(FiniteSet(ground), blocks)


def collapse_pair():
    s, t = FiniteSet([1, 2]), FiniteSet(["*"])
    return FinChain([s, t], [SetMap(s, t, {1: "*", 2: "*"})])


def test_object_collapsing_pair():
    # no gluing: the fiber over * is not a singleton
    assert level_functor_object(collapse_pair()) == F([1, 2], [(1,), (2,), (1, 2)])


def test_object_identity_chain_collapses():
    s = FiniteSet(["a", "b", "c"])
    chain = FinChain([s, s], [SetMap.identity(s)])
    assert level_functor_object(chain) == minimal_forest(s)


def test_object_single_level():
    s = FiniteSet([1, 2, 3])
    assert level_functor_object(identity_chain(s)) == minimal_forest(s)


def test_object_partial_collapse():
    s = FiniteSet([1, 2, 3])
    t = FiniteSet(["a", "b"])
    chain = FinChain([s, t], [SetMap(s, t, {1: "a", 2: "a", 3: "b"})])
    assert level_functor_object(chain) == F([1, 2, 3], [(1,), (2,), (3,), (1, 2)])


def test_object_unhit_elements_become_leaves():
    s = FiniteSet([1, 2])
    t = FiniteSet(["c", "e"])
    chain = FinChain([s, t], [SetMap(s, t, {1: "c", 2: "c"})])
    assert level_functor_object(chain) == F([1, 2, "e"], [(1,), (2,), ("e",), (1, 2)])


def test_object_label_disambiguation():
    # value 1 appears as an unrelated leaf on two levels: ranks keep them apart
    s = FiniteSet([1])
    t = FiniteSet([1, 2])
    chain = FinChain([s, t], [SetMap(s, t, {1: 2})])
    phi = level_functor_object(chain)
    assert phi.ground == FiniteSet(["1#0", "1#1"])


def test_degeneracies_map_to_identity():
    for chain in enumerate_chains(2, 3):
        for i in range(chain.level_count + 1):
            mor = level_functor_morphism(SimplexMap.degeneracy(chain, i))
            assert mor.is_identity()


def test_outer_face_is_subforest_inclusion():
    chain = collapse_pair()
    sm = SimplexMap.face(chain, 1)  # drops the last level
    mor = level_functor_morphism(sm)
    assert mor.source == minimal_forest(FiniteSet([1, 2]))
    assert mor.target == level_functor_object(chain)
    assert mor.mapping() == {(1,): (1,), (2,): (2,)}


def test_morphism_endpoints_match_objects():
    for chain in enumerate_chains(2, 3):
        if chain.level_count < 1:
            continue
        for i in range(chain.level_count + 1):
            sm = SimplexMap.face(chain, i)
            mor = level_functor_morphism(sm)
            assert mor.source == level_functor_object(sm.source)
            assert mor.target == level_functor_object(chain)


def test_morphism_respects_pullback_law():
    # the canonical ground lift always dominates the source forest
    for chain in enumerate_chains(2, 3):
        if chain.level_count < 1:
            continue
        for i in range(chain.level_count + 1):
            mor = level_functor_morphism(SimplexMap.face(chain, i))
            lifted = pullback(mor.canonical_lift(), mor.target)
            assert set(mor.source.blocks) <= set(lifted.blocks)


def test_inner_face_can_target_a_root():
    # collapsing through a two-element fiber lands on the root vertex
    x, zz, w = FiniteSet(["x"]), FiniteSet(["z", "zz"]), FiniteSet(["w"])
    gamma = FinChain([x, zz, w], [SetMap(x, zz, {"x": "z"}),
                                  SetMap(zz, w, {"z": "w", "zz": "w"})])
    sm = SimplexMap.face(gamma, 1)
    mor = level_functor_morphism(sm)
    assert mor.source == minimal_forest(FiniteSet(["x"]))
    assert mor.mapping() == {("x",): ("x", "zz")}


def test_invalid_simplex_map_rejected():
    chain = collapse_pair()
    bad = SimplexMap((0, 0), chain, chain)
    for _ in range(2):  # the cache stores no exceptions, so the second call is checked too
        with pytest.raises(ValueError):
            level_functor_morphism(bad)


def test_memoised_results_equal_the_uncached_originals():
    maps = []
    for chain in enumerate_chains(2, 2):
        for g_sm in checks._elementary_into(chain):
            maps.append(g_sm)
            maps.extend(f_sm.then(g_sm) for f_sm in checks._elementary_into(g_sm.source))
    assert len(maps) > 300
    for sm in maps:
        mor = level_functor_morphism(sm)
        assert mor == level_functor_morphism.__wrapped__(sm)
        assert level_functor_morphism(sm) is mor
        assert mor.signature() == ForMorphism.signature.__wrapped__(mor)
        for j in mor.max_lifts():
            assert pullback(j, mor.target) == pullback.__wrapped__(j, mor.target)


def test_functor_laws_small_range():
    result = check_level_functor(2, 2, pair_samples=150, seed=3)
    assert result.ok, result.failures[:3]


def test_functor_check_reports_a_level_forest_moved_by_a_degeneracy(monkeypatch):
    # mutant: chains with an identity map (all degeneracies) get another forest
    real = level_functor_object

    def moved(chain):
        if any(f.is_identity() for f in chain.maps):
            return minimal_forest(FiniteSet(["moved"]))
        return real(chain)

    monkeypatch.setattr(checks, "level_functor_object", moved)
    result = check_level_functor(2, 2, pair_samples=20, seed=3)
    assert any("changed the level forest" in f for f in result.failures)


def test_functor_check_reports_a_morphism_that_merges_blocks(monkeypatch):
    # mutant: the first two source blocks share one image block
    real = level_functor_morphism

    def merging(sm):
        mor = real(sm)
        mapping = mor.mapping()
        if len(mapping) >= 2:
            first, second = list(mapping)[:2]
            mapping[second] = mapping[first]
        return ForMorphism(mor.source, mor.target, mapping)

    monkeypatch.setattr(checks, "level_functor_morphism", merging)
    result = check_level_functor(2, 2, pair_samples=20, seed=3)
    faces = [f for f in result.failures if f.startswith("face into")]
    composites = [f for f in result.failures if f.startswith("F of")]
    assert faces and composites
    assert all("block map is not injective" in f for f in faces + composites)
