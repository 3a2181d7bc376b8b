import itertools

import pytest
from shared_oracles import oracles

from confstrata.finchains import FiniteSet, SetMap
from confstrata.forests import (
    Forest,
    ForestPoset,
    ForMorphism,
    enumerate_forests,
    forest_to_dot,
    from_poset,
    is_forest,
    minimal_forest,
    morphism_violations,
    morphisms_equivalent,
    pullback,
    to_poset,
    trees_of,
)


def F(ground, blocks):
    return Forest(FiniteSet(ground), blocks)


def test_is_forest_nested_chain():
    assert is_forest(FiniteSet([1, 2, 3]), [(1,), (2,), (3,), (1, 2), (1, 2, 3)])


def test_is_forest_overlap_fails():
    assert not is_forest(FiniteSet([1, 2, 3]), [(1,), (2,), (3,), (1, 2), (2, 3)])


def test_is_forest_minimal():
    assert is_forest(FiniteSet([1, 2]), [(1,), (2,)])


def test_is_forest_missing_singleton():
    assert not is_forest(FiniteSet([1, 2]), [(1,)])


def test_is_forest_bad_block_raises():
    with pytest.raises(ValueError):
        is_forest(FiniteSet([1, 2]), [(1,), (2,), (9,)])


def test_pullback_direct_intersection():
    j = SetMap(FiniteSet([1, 2]), FiniteSet([1, 2, 3]), {1: 1, 2: 2})
    psi = F([1, 2, 3], [(1,), (2,), (3,), (1, 2, 3)])
    assert pullback(j, psi) == F([1, 2], [(1,), (2,), (1, 2)])


def test_pullback_identity_and_minimal():
    psi = F([1, 2, 3], [(1,), (2,), (3,), (1, 2)])
    ident = SetMap.identity(FiniteSet([1, 2, 3]))
    assert pullback(ident, psi) == psi
    j = SetMap(FiniteSet([2, 3]), FiniteSet([1, 2, 3]), {2: 2, 3: 3})
    assert pullback(j, minimal_forest(FiniteSet([1, 2, 3]))) == minimal_forest(FiniteSet([2, 3]))


def test_pullback_requires_injection():
    j = SetMap(FiniteSet([1, 2]), FiniteSet([1]), {1: 1, 2: 1})
    with pytest.raises(ValueError):
        pullback(j, minimal_forest(FiniteSet([1])))


def test_pullback_functorial():
    # pullback(j o i, psi) == pullback(i, pullback(j, psi)), exhaustive for |T| = 3
    t = FiniteSet([1, 2, 3])
    for psi in enumerate_forests(3):
        for mid in itertools.combinations([1, 2, 3], 2):
            for values in itertools.permutations([1, 2, 3], 2):
                j = SetMap(FiniteSet(mid), t, dict(zip(mid, values)))
                inner = pullback(j, psi)
                for src in mid:
                    for tgt in mid:
                        i = SetMap(FiniteSet([src]), FiniteSet(mid), {src: tgt})
                        assert pullback(i.then(j), psi) == pullback(i, inner)


def test_trees_of():
    one_tree = F([1, 2], [(1,), (2,), (1, 2)])
    [(root, tree)] = trees_of(one_tree)
    assert root == (1, 2) and tree == one_tree

    minimal = minimal_forest(FiniteSet([1, 2, 3]))
    roots = [root for root, _ in trees_of(minimal)]
    assert roots == [(1,), (2,), (3,)]

    mixed = F([1, 2, 3], [(1,), (2,), (3,), (1, 2)])
    assert [root for root, _ in trees_of(mixed)] == [(3,), (1, 2)]


def test_to_poset_examples():
    phi = F([1, 2], [(1,), (2,), (1, 2)])
    poset = to_poset(phi)
    assert set(poset.maximal()) == {(1,), (2,)}
    assert poset.leq((1, 2), (1,)) and poset.leq((1, 2), (2,))

    antichain = to_poset(minimal_forest(FiniteSet([1, 2, 3])))
    assert len(antichain.maximal()) == 3
    assert not antichain.less


def test_round_trip_small():
    for n in range(1, 5):
        for phi in enumerate_forests(n):
            assert from_poset(to_poset(phi)) == phi


def test_poset_conditions_rejected():
    # chain a < b < c with a unary middle: condition (ii) fails
    with pytest.raises(ValueError):
        ForestPoset(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    # diamond: down-set of the bottom is not totally ordered
    with pytest.raises(ValueError):
        ForestPoset(["a", "b", "c", "d"],
                    [("d", "b"), ("d", "c"), ("b", "a"), ("c", "a"), ("d", "a")])


def test_from_poset_generic_labels():
    poset = ForestPoset([1, 2, 3], [(3, 1), (3, 2)])
    phi = from_poset(poset)
    assert phi == F([1, 2], [(1,), (2,), (1, 2)])


def test_enumeration_counts():
    assert [len(enumerate_forests(n)) for n in (1, 2, 3)] == [1, 2, 8]


@pytest.mark.parametrize("n", range(1, 7))
def test_enumeration_matches_laminar_oracle(n):
    """The non-singleton blocks of each forest are one laminar family, each family once."""
    families = [frozenset(frozenset(b) for b in phi.non_singleton_blocks())
                for phi in enumerate_forests(n)]
    oracle = oracles.laminar_families(n)
    assert len(families) == len(oracle)
    assert set(families) == set(oracle)
    if n == 4:
        assert len(families) == 52


def test_enumeration_no_duplicates():
    for n in range(1, 5):
        forests = enumerate_forests(n)
        assert len(forests) == len(set(forests))


def test_enumeration_cap():
    # the size cap lives in cli.CAPS; the library keeps only its domain, n >= 1
    with pytest.raises(ValueError, match=r"^n must be at least 1$"):
        enumerate_forests(0)


def test_dot_export_shape():
    phi = F([1, 2, 3], [(1,), (2,), (3,), (1, 2)])
    dot = forest_to_dot(phi)
    assert dot.startswith("graph forest {")
    # two trees, so two added root vertices
    assert dot.count('"root_') == 4  # two declarations + two edges
    assert '"b_1_2"' in dot


def test_morphism_violations_flags_each_broken_law():
    # the constructor only normalises, so broken block maps can be built and diagnosed
    point = F([1], [(1,)])
    pair = F([1, 2], [(1,), (2,), (1, 2)])
    antichain = F([1, 2], [(1,), (2,)])
    tree = F([1, 2, 3], [(1,), (2,), (3,), (1, 2)])
    assert morphism_violations(ForMorphism(point, pair, {(1,): (1,)})) == []
    assert morphism_violations(ForMorphism.identity(tree)) == []
    merged = ForMorphism(antichain, pair, {(1,): (1,), (2,): (1,)})
    assert "block map is not injective" in morphism_violations(merged)
    # in a forest a reversed pair always drags a comparability fault along
    reversed_ = ForMorphism(pair, tree, {(1,): (1, 2), (2,): (3,), (1, 2): (1,)})
    assert "order of (1,),(1, 2) reversed" in morphism_violations(reversed_)
    flattened = ForMorphism(pair, tree, {(1,): (1,), (2,): (2,), (1, 2): (3,)})
    assert morphism_violations(flattened) == [
        "comparability of (1,),(1, 2) not preserved",
        "comparability of (2,),(1, 2) not preserved",
    ]


def test_morphism_violations_reports_a_non_canonical_block():
    # the constructor keeps blocks as given, so an unsorted block is reported, not repaired
    pair = F([1, 2], [(1,), (2,), (1, 2)])
    singletons = {(1,): (1,), (2,): (2,)}
    unsorted_key = ForMorphism(pair, pair, {**singletons, (2, 1): (1, 2)})
    assert (2, 1) in unsorted_key.mapping()
    assert morphism_violations(unsorted_key) == ["block map is not total on the source blocks"]
    unsorted_value = ForMorphism(pair, pair, {**singletons, (1, 2): (2, 1)})
    assert morphism_violations(unsorted_value) == ["block map hits a non-block"]
    assert unsorted_value != ForMorphism.identity(pair)


def test_morphisms_equivalent_compares_pullback_forests():
    phi = F([1, 2], [(1,), (2,)])
    psi = F(["a", "b", "c"], [("a",), ("b",), ("c",), ("a", "b")])

    def sending(x, y):
        return ForMorphism(phi, psi, {(1,): (x,), (2,): (y,)})

    ab, ac, bc = sending("a", "b"), sending("a", "c"), sending("b", "c")
    assert [morphism_violations(m) for m in (ab, ac, bc)] == [[], [], []]
    assert ab.signature() == F([1, 2], [(1,), (2,), (1, 2)])
    assert ac.signature() == bc.signature() == phi
    assert not morphisms_equivalent(ab, ac)
    # different block maps, one pullback forest
    assert ac.mapping() != bc.mapping() and morphisms_equivalent(ac, bc)
