"""Objects the package builds without checks equal what the validating constructors build.

Chains and maps built inside the package compose position tables, and
forests built inside it come from block bitmasks or position tuples; none of
them is re-validated.  Each one is compared here with the same object built
from labels through the public constructors (SetMap(source, target,
assignment), FinChain(sets, maps), SimplexMap(delta, source, target),
Forest(ground, blocks), ForMorphism(source, target, block_map)): they must be
equal, with equal hashes.  The chains include seeded random ones, built
unchecked by checks._random_chain, whose maps are not monotone in the label
order as the enumerated representatives' maps are.
"""

import itertools
import random

from confstrata import checks
from confstrata.finchains import (
    FinChain,
    FiniteSet,
    SetMap,
    SimplexMap,
    degeneracy,
    enumerate_chains,
    face,
    precompose,
)
from confstrata.forests import (
    Forest,
    ForMorphism,
    enumerate_forests,
    is_forest,
    level_functor_morphism,
    level_functor_object,
    minimal_forest,
    pullback,
)
from test_level_functor import assert_one_pullback_forest, elementary_into


def assert_same(built, expected):
    assert built == expected and expected == built
    assert hash(built) == hash(expected)


# -- label-level constructions, through the validating constructors ----------------


def composite(chain, start, stop):
    """S_start -> S_stop by following labels map by map."""
    assignment = {x: x for x in chain.sets[start]}
    for f in chain.maps[start:stop]:
        step = f.as_dict()
        assignment = {x: step[y] for x, y in assignment.items()}
    return SetMap(chain.sets[start], chain.sets[stop], assignment)


def reindexed(chain, delta):
    return FinChain([chain.sets[j] for j in delta],
                    [composite(chain, a, b) for a, b in zip(delta, delta[1:])])


def face_by_labels(chain, i):
    k = chain.level_count
    return reindexed(chain, [t for t in range(k + 1) if t != i])


def degeneracy_by_labels(chain, i):
    k = chain.level_count
    return reindexed(chain, [t if t <= i else t - 1 for t in range(k + 2)])


def rebuilt(chain):
    return FinChain(chain.sets, [SetMap(f.source, f.target, f.as_dict()) for f in chain.maps])


def random_chains(count, seed):
    rng = random.Random(seed)
    chains = [checks._random_chain(rng, 3, 3) for _ in range(count)]
    # string labels, out of the order of the integer positions
    names = [FiniteSet(["c", "a", "b"][:m]) for m in range(1, 4)]
    for _ in range(count // 10):
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(1, 3) + 1)]
        sets = [names[m - 1] for m in sizes]
        maps = [SetMap(s, t, {x: rng.choice(t.labels) for x in s}) for s, t in zip(sets, sets[1:])]
        chains.append(FinChain(sets, maps))
    return chains


CHAINS = list(enumerate_chains(2, 3)) + random_chains(200, 7)


def test_chain_operations_match_the_label_level_constructions():
    for chain in CHAINS:
        assert_same(chain, rebuilt(chain))
        k = chain.level_count
        for i in range(k + 1):
            assert_same(SetMap.identity(chain.sets[i]),
                        SetMap(chain.sets[i], chain.sets[i], {x: x for x in chain.sets[i]}))
            assert_same(degeneracy(chain, i), degeneracy_by_labels(chain, i))
            if k >= 1:
                assert_same(face(chain, i), face_by_labels(chain, i))
                if i < k:
                    assert_same(chain.maps[i].then(composite(chain, i + 1, k)),
                                composite(chain, i, k))
        for length in range(1, k + 3):
            for delta in itertools.combinations_with_replacement(range(k + 1), length):
                assert_same(precompose(chain, delta), reindexed(chain, delta))


def test_elementary_composites_match_the_label_level_constructions():
    for chain in CHAINS:
        for g in elementary_into(chain):
            for f in elementary_into(g.source):
                composite_map = f.then(g)
                assert_same(composite_map, SimplexMap(composite_map.delta, composite_map.source,
                                                      composite_map.target))
                assert_same(composite_map.source, reindexed(chain, composite_map.delta))


def test_level_forests_and_morphisms_are_sound():
    for chain in CHAINS:
        phi = level_functor_object(chain)
        assert_same(phi, Forest(phi.ground, phi.blocks))
        for g in elementary_into(chain):
            mor = level_functor_morphism(g)
            assert_same(mor.source, level_functor_object(g.source))
            assert_same(mor, ForMorphism(mor.source, mor.target, mor.mapping()))
            j, signature = mor.canonical_lift(), mor.signature()
            assert_same(j, SetMap(j.source, j.target, j.as_dict()))
            assert all(j(x) in mor.mapping()[(x,)] for x in j.source)
            assert_same(signature, Forest(signature.ground, signature.blocks))
            assert_one_pullback_forest(mor)


def pullback_by_labels(j, psi):
    image = j.as_dict()
    blocks = {tuple(x for x in j.source if image[x] in block) for block in psi.blocks}
    return Forest(j.source, [b for b in blocks if b])


def test_enumerated_forests_and_their_pullbacks_are_sound():
    names = "edcba"
    for n in range(1, 6):
        ground = FiniteSet(range(1, n + 1))
        assert_same(minimal_forest(ground), Forest(ground, [(x,) for x in ground]))
        forests = enumerate_forests(n)
        assert all(is_forest(ground, phi.blocks) for phi in forests)
        # every injection for n <= 4; the inclusion of every subset at n = 5
        if n <= 4:
            images = [v for m in range(1, n + 1) for v in itertools.permutations(ground, m)]
        else:
            images = [v for m in range(1, n + 1) for v in itertools.combinations(ground, m)]
        injections = [SetMap(FiniteSet(names[:len(v)]), ground, dict(zip(names, v)))
                      for v in images]
        for phi in forests:
            assert_same(phi, Forest(ground, phi.blocks))
            for j in injections:
                assert_same(pullback(j, phi), pullback_by_labels(j, phi))
