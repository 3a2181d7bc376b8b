import gc
import itertools
import json

import pytest

from confstrata import checks, confcat, forests
from confstrata.checks import check_level_functor
from confstrata.cli import main
from confstrata.finchains import (
    FinChain,
    FiniteSet,
    SetMap,
    SimplexMap,
    _setmap,
    enumerate_chains,
    identity_chain,
    precompose,
)
from confstrata.forests import (
    Forest,
    ForMorphism,
    enumerate_forests,
    level_functor_morphism,
    level_functor_object,
    minimal_forest,
    morphism_violations,
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


def elementary_into(chain):
    """The faces (none at k = 0), then the k + 1 degeneracies, into chain."""
    k = chain.level_count
    faces = [SimplexMap.face(chain, i) for i in range(k + 1)] if k >= 1 else []
    return faces + [SimplexMap.degeneracy(chain, i) for i in range(k + 1)]


def elementary_maps_and_composites(max_level, max_size):
    """Every face and degeneracy into the enumerated chains, and every composite of two."""
    for chain in enumerate_chains(max_level, max_size):
        for g_sm in elementary_into(chain):
            yield g_sm
            for f_sm in elementary_into(g_sm.source):
                yield f_sm.then(g_sm)


def ground_lifts(mor):
    """Every ground injection j with j(s) in the image block of {s}, least labels first."""
    mapping, source = mor.mapping(), mor.source.ground
    for images in itertools.product(*[mapping[(s,)] for s in source]):
        yield SetMap(source, mor.target.ground, dict(zip(source, images)))


def assert_one_pullback_forest(mor):
    """Every lift pulls the target back to signature(), which dominates the source,
    and canonical_lift() is the least lift; returns the number of lifts."""
    lifts = list(ground_lifts(mor))
    assert mor.canonical_lift() == min(lifts, key=lambda j: j.table)
    signature = mor.signature()
    for j in lifts:
        pulled = pullback(j, mor.target)
        assert pulled == signature
        assert set(mor.source.blocks) <= set(pulled.blocks)
    return len(lifts)


def test_morphism_respects_pullback_law():
    # a lawful image has one pullback forest, and it dominates the source
    # forest; confcat.factors relies on this without re-proving it
    maps = list(elementary_maps_and_composites(2, 2))
    maps += [SimplexMap.face(chain, i) for chain in enumerate_chains(2, 3)
             for i in range(chain.level_count + 1) if chain.level_count >= 1]
    for sm in maps:
        mor = level_functor_morphism(sm)
        assert morphism_violations(mor) == []
        assert_one_pullback_forest(mor)


def lawful_morphisms(n, m):
    """Every lawful morphism from a forest on n points to a forest on m points."""
    for phi, psi in itertools.product(enumerate_forests(n), enumerate_forests(m)):
        for image in itertools.permutations(psi.blocks, len(phi.blocks)):
            mor = ForMorphism(phi, psi, dict(zip(phi.blocks, image)))
            if not morphism_violations(mor):
                yield mor


def test_every_lawful_morphism_has_one_pullback_forest():
    # exhaustive for n <= 2 points into m <= 4, and for n = m = 3; n = 3 into
    # m = 4 is left out, as it alone costs about twenty times all of these
    ranges = [(n, m) for n in (1, 2) for m in range(1, 5)] + [(3, 3)]
    morphisms = [mor for n, m in ranges for mor in lawful_morphisms(n, m)]
    lifts = sum(assert_one_pullback_forest(mor) for mor in morphisms)
    assert (len(morphisms), lifts) == (2262, 3067)


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
    for _ in range(2):  # refused at construction, every time
        with pytest.raises(ValueError):
            SimplexMap((0, 0), chain, chain)


def test_memoised_results_equal_the_uncached_originals():
    # the check's per-call table finds F by (target chain, image mask); the public
    # function computes it afresh, and only the image of delta matters
    table = checks._Chains(3)
    maps = list(elementary_maps_and_composites(2, 2))
    assert len(maps) > 300
    for sm in maps:
        mor = level_functor_morphism(sm)
        assert table.image(table.index(sm.target), checks._mask(sm.delta)) == mor
        image = tuple(dict.fromkeys(sm.delta))
        assert level_functor_morphism(SimplexMap(image, precompose(sm.target, image),
                                                 sm.target)) == mor
        assert level_functor_morphism(sm) == mor


def test_morphisms_of_one_target_and_image_are_equal():
    chain = collapse_pair()
    identity = level_functor_morphism(SimplexMap.identity(chain))
    for i in range(2):
        assert level_functor_morphism(SimplexMap.degeneracy(chain, i)) == identity
    assert identity.then(identity) == identity
    assert ForMorphism.identity(level_functor_object(chain)) == identity
    # within one check, equal morphisms are one object: a degeneracy keeps the forest
    table = checks._Chains(1)
    c = table.index(chain)
    b = table.sources(c)[-1]
    assert b != c and table.image(b, 0b111) is table.image(c, 0b11) == identity


def test_functor_check_builds_each_level_data_once_per_call(monkeypatch):
    built = []

    class Counted(forests._LevelData):
        def __init__(self, chain):
            built.append(chain)
            super().__init__(chain)

    monkeypatch.setattr(forests, "_LevelData", Counted)
    first = check_level_functor(3, 2, pair_samples=300, seed=1)
    count = len(built)
    assert len(set(built)) == count > 0
    # nothing is kept between calls: the second call builds them all again
    second = check_level_functor(3, 2, pair_samples=300, seed=1)
    assert len(built) == 2 * count and set(built[count:]) == set(built[:count])
    assert (first.checked, first.failures) == (second.checked, second.failures) == (6655, [])


def test_functor_check_runs_without_the_cycle_collector_and_restores_it(monkeypatch):
    seen = []
    monkeypatch.setattr(confcat, "factors", lambda g: seen.append(gc.isenabled()) or True)
    for enabled in (True, False):
        (gc.enable if enabled else gc.disable)()
        try:
            assert check_level_functor(1, 2, pair_samples=5, seed=0).ok
            assert gc.isenabled() is enabled
        finally:
            gc.enable()
    assert seen and not any(seen)


def test_functor_check_reports_every_failing_pair(monkeypatch):
    # each distinct (F f, F g, F(f then g)) triple is decided once, but every
    # pair still counts its two checks and reports its own failure; every face
    # image is asked too
    monkeypatch.setattr(confcat, "factors", lambda g: False)
    result = check_level_functor(3, 2, pair_samples=300, seed=1)
    assert result.checked == 6655
    assert len([f for f in result.failures if " then " in f]) == 3022
    assert len([f for f in result.failures if ": face into " in f]) == 185
    assert all(f.startswith("con factorization failed: ") for f in result.failures)


def test_sampled_pairs_build_no_simplex_map_unless_they_fail(monkeypatch):
    built = []
    real = SimplexMap.__init__

    def counted(self, *args):
        built.append(args)
        real(self, *args)

    monkeypatch.setattr(SimplexMap, "__init__", counted)
    result = check_level_functor(3, 2, pair_samples=300, seed=1)
    assert result.ok and built == []


def test_functor_check_catches_a_lift_that_does_not_factor(monkeypatch, capsys):
    # mutant: the witness sends the i-th source point to the i-th target point.
    # Every block map stays lawful, so only the factorization through the
    # pullback forest can see it, on the face images and on the composites; on
    # sets of at most 2 it changes nothing, so the check needs size 3
    monkeypatch.setattr(ForMorphism, "canonical_lift", lambda self: _setmap(
        self.source.ground, self.target.ground, tuple(range(len(self.source.ground)))))
    assert main(["deltafin-check", "--max-level", "2", "--max-size", "3", "--functor"]) == 1
    report = json.loads(capsys.readouterr().out)
    functor = report["result"]["checks"][-1]
    assert functor["failures"]
    assert all(f.startswith("con factorization failed: ") for f in functor["failures"])
    assert any(f.startswith("con factorization failed: face into ") for f in functor["failures"])


def test_functor_laws_small_range():
    result = check_level_functor(2, 2, pair_samples=150, seed=3)
    assert result.ok, result.failures[:3]


def test_functor_check_reports_a_level_forest_moved_by_a_degeneracy(monkeypatch):
    # mutant: chains with an identity map (all degeneracies) get another forest
    class Moved(forests._LevelData):
        def __init__(self, chain):
            super().__init__(chain)
            if any(f.is_identity() for f in chain.maps):
                self.forest = minimal_forest(FiniteSet(["moved"]))

    monkeypatch.setattr(forests, "_LevelData", Moved)
    result = check_level_functor(2, 2, pair_samples=20, seed=3)
    assert any("changed the level forest" in f for f in result.failures)


def test_functor_check_reports_a_morphism_that_merges_blocks(monkeypatch):
    # mutant: the first two source blocks share one image block
    real = forests.image_morphism

    def merging(chain, image, level):
        mor = real(chain, image, level)
        mapping = mor.mapping()
        if len(image) < chain.level_count + 1 and len(mapping) >= 2:
            first, second = list(mapping)[:2]
            mapping[second] = mapping[first]
        return ForMorphism(mor.source, mor.target, mapping)

    monkeypatch.setattr(forests, "image_morphism", merging)
    result = check_level_functor(2, 2, pair_samples=20, seed=3)
    faces = [f for f in result.failures if f.startswith("face into")]
    composites = [f for f in result.failures if f.startswith("F of")]
    assert faces and composites
    assert all("block map is not injective" in f for f in faces + composites)
