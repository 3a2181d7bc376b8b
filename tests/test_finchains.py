import itertools
import random

import pytest

from confstrata import checks, finchains
from confstrata.finchains import (
    FinChain,
    FiniteSet,
    SetMap,
    SimplexMap,
    chain_from_json,
    chain_to_json,
    degeneracy,
    enumerate_chains,
    face,
    identity_chain,
    injection_from_json,
    precompose,
)
from confstrata.forests import level_functor_object


def two_to_one():
    s = FiniteSet([1, 2])
    t = FiniteSet([1])
    return FinChain([s, t], [SetMap(s, t, {1: 1, 2: 1})])


def test_finite_set_canonical_order():
    assert FiniteSet([3, 1, 2]) == FiniteSet([1, 2, 3])
    with pytest.raises(ValueError):
        FiniteSet([1, 1])


def test_set_map_validation():
    s, t = FiniteSet([1, 2]), FiniteSet([1])
    with pytest.raises(ValueError):
        SetMap(s, t, {1: 1})  # missing source label
    with pytest.raises(ValueError):
        SetMap(s, t, {1: 1, 2: 9})  # image outside target


def revalidated_chain(chain):
    """A built chain put through the validating constructor."""
    return FinChain(chain.sets, chain.maps)


def test_validate_chain_single_map():
    chain = two_to_one()
    assert revalidated_chain(chain) == chain


def test_validate_chain_mismatched_target():
    # two_to_one with S_1 replaced: map 0 no longer lands in it
    s, t, u = FiniteSet([1, 2]), FiniteSet([1]), FiniteSet([5])
    with pytest.raises(ValueError) as err:
        FinChain([s, u], [SetMap(s, t, {1: 1, 2: 1})])
    assert str(err.value) == "map 0 has target != S_1"


def test_validate_chain_degenerate():
    chain = identity_chain(FiniteSet([1, 2, 3]))
    assert revalidated_chain(chain) == chain


A, B, C = FiniteSet([1, 2]), FiniteSet([1]), FiniteSet(["x"])
MISMATCHES = [
    ((A, B, B), (SetMap(B, B, {1: 1}), SetMap(B, B, {1: 1})), "map 0 has source != S_0"),
    ((A, B, C), (SetMap(A, B, {1: 1, 2: 1}), SetMap(B, B, {1: 1})), "map 1 has target != S_2"),
    ((B, A, C), (SetMap(A, B, {1: 1, 2: 1}), SetMap(B, C, {1: "x"})),
     "map 0 has source != S_0; map 0 has target != S_1; map 1 has source != S_1"),
]


@pytest.mark.parametrize("sets,maps,message", MISMATCHES,
                         ids=["source-only", "target-only", "both"])
def test_chain_constructor_names_every_map_that_does_not_compose(sets, maps, message):
    with pytest.raises(ValueError) as err:
        FinChain(sets, maps)
    assert str(err.value) == message


def test_inner_face_composes():
    s0 = FiniteSet([1, 2, 3])
    s1 = FiniteSet(["a", "b"])
    s2 = FiniteSet(["z"])
    f0 = SetMap(s0, s1, {1: "a", 2: "a", 3: "b"})
    f1 = SetMap(s1, s2, {"a": "z", "b": "z"})
    chain = FinChain([s0, s1, s2], [f0, f1])
    inner = face(chain, 1)
    assert inner.sets == (s0, s2)
    assert inner.maps[0] == f0.then(f1)


def test_outer_faces():
    chain = two_to_one()
    assert face(chain, 0) == identity_chain(FiniteSet([1]))
    assert face(chain, 1) == identity_chain(FiniteSet([1, 2]))
    with pytest.raises(IndexError):
        face(chain, 2)
    with pytest.raises(IndexError):
        face(identity_chain(FiniteSet([1])), 0)


def test_degeneracy_inserts_identity():
    s = FiniteSet([1, 2])
    single = identity_chain(s)
    degen = degeneracy(single, 0)
    assert degen.sets == (s, s)
    assert degen.maps[0].is_identity()

    chain = two_to_one()
    tail = degeneracy(chain, 1)
    assert tail.sets == chain.sets + (chain.sets[1],)
    assert tail.maps[1].is_identity()
    with pytest.raises(IndexError):
        degeneracy(chain, 5)


def _all_identities(chain):
    k = chain.level_count
    if k >= 2:
        for i in range(k + 1):
            for j in range(i + 1, k + 1):
                assert face(face(chain, j), i) == face(face(chain, i), j - 1)
    for i in range(k + 1):
        for j in range(i, k + 1):
            assert degeneracy(degeneracy(chain, j), i) == degeneracy(degeneracy(chain, i), j + 1)
    for j in range(k + 1):
        assert face(degeneracy(chain, j), j) == chain
        assert face(degeneracy(chain, j), j + 1) == chain
    for j in range(k + 1):
        for i in range(k + 2):
            if i < j:
                assert face(degeneracy(chain, j), i) == degeneracy(face(chain, i), j - 1)
            elif i > j + 1 and k >= 1:
                assert face(degeneracy(chain, j), i) == degeneracy(face(chain, i - 1), j)


def test_simplicial_identities_exhaustive_small():
    count = 0
    for chain in enumerate_chains(2, 2):
        _all_identities(chain)
        count += 1
    assert count >= 20  # representatives up to relabelling


def test_simplicial_identities_random_larger():
    rng = random.Random(11)
    for _ in range(60):
        k = rng.randint(1, 3)
        sizes = [rng.randint(1, 4) for _ in range(k + 1)]
        sets = [FiniteSet(range(m)) for m in sizes]
        maps = [
            SetMap(sets[i], sets[i + 1], {x: rng.randrange(sizes[i + 1]) for x in range(sizes[i])})
            for i in range(k)
        ]
        _all_identities(FinChain(sets, maps))


@pytest.mark.parametrize("tables", [((0, 2),), ((0,),)], ids=["entry-out-of-range", "short-table"])
def test_a_bad_table_is_one_invalid_chain_failure(tables):
    # built unchecked, as inside the package: the tables are checked before any identity
    s = FiniteSet([0, 1])
    chain = finchains._chain((s, s), tables)
    result = checks.CheckResult("identities")
    checks._identities_on(chain, result)
    assert result.failures == [f"enumerated chain invalid: {chain!r}"]
    assert result.checked == 1


# the failure text of each identity at k = 2, in the order the check tries them
IDENTITY_FAILURES = """d_0 d_1 != d_0 d_0
d_0 d_2 != d_1 d_0
d_1 d_2 != d_1 d_1
s_0 s_0 != s_1 s_0
s_0 s_1 != s_2 s_0
s_0 s_2 != s_3 s_0
s_1 s_1 != s_2 s_1
s_1 s_2 != s_3 s_1
s_2 s_2 != s_3 s_2
d_0 s_0 != id
d_1 s_0 != id
d_1 s_1 != id
d_2 s_1 != id
d_2 s_2 != id
d_3 s_2 != id
d_0 s_1 != s_0 d_0
d_0 s_2 != s_1 d_0
d_1 s_2 != s_1 d_1
d_2 s_0 != s_0 d_1
d_3 s_0 != s_0 d_2
d_3 s_1 != s_1 d_2""".splitlines()


def test_each_failed_identity_is_named_in_order(monkeypatch):
    # every face and degeneracy a fresh object, equal to nothing: each identity fails once
    monkeypatch.setattr(finchains, "face", lambda *args: object())
    monkeypatch.setattr(finchains, "degeneracy", lambda *args: object())
    s = FiniteSet([0])
    chain = finchains._chain((s, s, s), ((0,), (0,)))
    result = checks.CheckResult("identities")
    checks._identities_on(chain, result)
    assert result.failures == [f"{text} on {chain!r}" for text in IDENTITY_FAILURES]
    assert result.checked == 1 + len(IDENTITY_FAILURES)


def test_chain_operations_build_no_set_map(monkeypatch):
    """Faces, degeneracies, reindexings and the JSON write tables: no SetMap is built."""
    calls = []
    setmap = finchains._setmap
    monkeypatch.setattr(finchains, "_setmap", lambda *args: calls.append(args) or setmap(*args))
    chains = list(enumerate_chains(3, 3))
    for chain in chains:
        k = chain.level_count
        chain_to_json(chain)
        for i in range(k + 1):
            precompose(chain, finchains._degeneracy_delta(k, i))
            SimplexMap.degeneracy(chain, i)
            if k:
                precompose(chain, finchains._face_delta(k, i))
                SimplexMap.face(chain, i)
    assert len(chains) == 624 and calls == []
    chains[-1].maps  # the view builds its SetMaps through _setmap, and the patch sees them
    assert len(calls) == chains[-1].level_count == 3


def test_face_degeneracy_preserve_validity():
    for chain in enumerate_chains(2, 3):
        for i in range(chain.level_count + 1):
            assert revalidated_chain(degeneracy(chain, i)) == degeneracy(chain, i)
            if chain.level_count >= 1:
                assert revalidated_chain(face(chain, i)) == face(chain, i)


def revalidated(sm):
    """A built simplex map put through the validating constructor."""
    return SimplexMap(sm.delta, sm.source, sm.target)


def test_simplex_map_face_and_degeneracy_are_valid():
    chain = two_to_one()
    for i in range(2):
        sm = SimplexMap.face(chain, i)
        assert revalidated(sm) == sm
    for i in range(2):
        sm = SimplexMap.degeneracy(chain, i)
        assert revalidated(sm) == sm
        assert set(sm.delta) == set(range(chain.level_count + 1))  # onto every level


def test_simplex_maps_on_equal_chains_are_equal():
    chain = two_to_one()
    rebuilt = FinChain(list(chain.sets), list(chain.maps))
    assert rebuilt == chain and rebuilt is not chain
    first, second = SimplexMap.face(chain, 0), SimplexMap.face(rebuilt, 0)
    assert first == second and hash(first) == hash(second)
    assert first.target == second.target and first.source == second.source
    composite = SimplexMap.degeneracy(first.source, 0).then(first)
    assert composite.source == SimplexMap.degeneracy(second.source, 0).source
    assert composite.target == first.target


def test_simplex_map_rejects_wrong_source():
    chain = two_to_one()
    with pytest.raises(ValueError):
        SimplexMap((0,), identity_chain(FiniteSet([7])), chain)
    with pytest.raises(ValueError):
        SimplexMap((1, 0), chain, chain)


@pytest.mark.parametrize("delta,source,message", [
    ((0, 1, 1), two_to_one(), "delta length != source level count + 1"),
    ((0, 2), two_to_one(), "delta image out of range"),
    ((1, 0), two_to_one(), "delta is not weakly monotone"),
    ((1,), identity_chain(FiniteSet([1, 2])),
     "source chain != target chain reindexed along delta"),
], ids=["wrong-length", "out-of-range", "not-monotone", "not-a-reindexing"])
def test_simplex_map_constructor_names_the_violation(delta, source, message):
    with pytest.raises(ValueError) as err:
        SimplexMap(delta, source, two_to_one())
    assert str(err.value) == message


def test_canonical_maps_and_the_level_forest_accept_any_chain():
    # a chain a caller builds composes, so what is built from it passes the validating constructor
    s0, s1, s2 = FiniteSet(["a", "b", "c"]), FiniteSet([1, 2]), FiniteSet(["z"])
    chain = FinChain([s0, s1, s2], [SetMap(s0, s1, {"a": 1, "b": 1, "c": 2}),
                                    SetMap(s1, s2, {1: "z", 2: "z"})])
    built = [SimplexMap.identity(chain)]
    built += [SimplexMap.face(chain, i) for i in range(3)]
    built += [SimplexMap.degeneracy(chain, i) for i in range(3)]
    assert [revalidated(sm) for sm in built] == built
    assert level_functor_object(chain).blocks == (
        ("a",), ("b",), ("c",), ("a", "b"), ("a", "b", "c"))


def test_precompose_identity():
    chain = two_to_one()
    assert precompose(chain, (0, 1)) == chain
    assert precompose(chain, (0, 0)).maps[0].is_identity()


def relabelling_class(sizes, tables):
    """Least map-table form of a chain on levels range(n) over all level-wise relabellings."""
    forms = []
    for perms in itertools.product(*(itertools.permutations(range(n)) for n in sizes)):
        form = []
        for i, table in enumerate(tables):
            new = [None] * sizes[i]
            for x, y in enumerate(table):
                new[perms[i][x]] = perms[i + 1][y]
            form.append(tuple(new))
        forms.append(tuple(form))
    return sizes, min(forms)


def raw_chains(max_level, max_size):
    """Every chain on levels range(n) with k <= max_level and 1 <= n <= max_size, as map tables."""
    for k in range(max_level + 1):
        for sizes in itertools.product(range(1, max_size + 1), repeat=k + 1):
            for tables in itertools.product(
                    *(itertools.product(range(sizes[i + 1]), repeat=sizes[i]) for i in range(k))):
                yield sizes, tables


def tree_types(sizes, tables):
    """Relabelling invariant in the style of Aho-Hopcroft-Ullman tree isomorphism.

    A point of S_0 has type (); a point of S_{i+1} has the sorted tuple of the
    types of its fiber.  The key is the size vector and the sorted root types.
    """
    types = [()] * sizes[0]
    for i, table in enumerate(tables):
        fibers = [[] for _ in range(sizes[i + 1])]
        for x, y in enumerate(table):
            fibers[y].append(types[x])
        types = [tuple(sorted(fiber)) for fiber in fibers]
    return tuple(sizes), tuple(sorted(types))


def chain_tables(chain):
    positions = [{x: j for j, x in enumerate(s)} for s in chain.sets]
    tables = tuple(tuple(positions[i + 1][f(x)] for x in chain.sets[i])
                   for i, f in enumerate(chain.maps))
    return tuple(len(s) for s in chain.sets), tables


# (max_level, max_size, relabelling classes, oracle): "orbits" also checks the
# tree-type key against the brute-force relabelling classes, "raw" compares the
# representatives with the keys of every raw chain in range.  The 7,242 classes
# at (3, 4) come from a brute-force orbit count; their raw chains are too many
# to scan here, so that case pins the count and the distinctness only.
EXACT_RANGES = [
    (2, 2, 20, "orbits"),
    (2, 3, 99, "orbits"),
    (3, 2, 54, "raw"),
    (3, 3, 624, "raw"),
    (2, 4, 465, "raw"),
    (3, 4, 7242, None),
]


@pytest.mark.parametrize("max_level,max_size,classes,oracle", EXACT_RANGES,
                         ids=[f"k{k}-m{m}" for k, m, _, _ in EXACT_RANGES])
def test_enumerate_chains_is_one_per_relabelling_class(max_level, max_size, classes, oracle):
    if oracle == "orbits":
        orbits = {}
        for sizes, tables in raw_chains(max_level, max_size):
            orbits.setdefault(tree_types(sizes, tables), set()).add(
                relabelling_class(sizes, tables))
        assert all(len(orbit) == 1 for orbit in orbits.values())
        assert len(set().union(*orbits.values())) == len(orbits) == classes
    keys = [tree_types(*chain_tables(chain)) for chain in enumerate_chains(max_level, max_size)]
    assert len(set(keys)) == len(keys) == classes
    if oracle is not None:
        assert set(keys) == {tree_types(*raw) for raw in raw_chains(max_level, max_size)}


def test_json_round_trip():
    chain = two_to_one()
    data = chain_to_json(chain)
    assert data["maps"][0]["from"] == 0
    assert chain_from_json(data) == chain

    s = FiniteSet(["a", "b"])
    named = FinChain([s, FiniteSet(["c"])], [SetMap(s, FiniteSet(["c"]), {"a": "c", "b": "c"})])
    assert chain_from_json(chain_to_json(named)) == named


GOOD_MAP = {"from": 0, "assignment": {"0": 0, "1": 0}}
BAD_CHAIN_JSON = [
    ({"sets": 5}, 'chain JSON "sets" must be a list of lists of labels'),
    ({"sets": [5, [0]]}, r"chain JSON sets\[0\] must be a list of labels"),
    ({"sets": [[[0]], [0]]}, r"chain JSON sets\[0\]\[0\] is \[0\]: a label must be"),
    ([[0, 1], [0]], "chain JSON must be an object"),
    ({"sets": [[0, 1], [0]], "maps": GOOD_MAP}, 'chain JSON "maps" must be a list of objects'),
    ({"sets": [[0, 1], [0]], "maps": [3]}, 'chain JSON "maps" must be a list of objects'),
    ({"sets": [[0, 1], [0]], "maps": [{**GOOD_MAP, "from": 3}]}, r'maps\[0\]\["from"\] is 3'),
    ({"sets": [[0], [0]], "maps": [{"from": -1, "assignment": {"0": 0}}]},
     r'maps\[0\]\["from"\] is -1'),
    ({"sets": [[0, 1], [0]], "maps": [{**GOOD_MAP, "from": "0"}]}, r"maps\[0\]\[\"from\"\] is '0'"),
    ({"sets": [[0, 1], [0]], "maps": [{**GOOD_MAP, "from": True}]}, r'maps\[0\]\["from"\] is True'),
    ({"sets": [[0, 1], [0]], "maps": [{"assignment": GOOD_MAP["assignment"]}]},
     r'maps\[0\]\["from"\] is None'),
    ({"sets": [[0, 1], [0]], "maps": [GOOD_MAP, GOOD_MAP]},
     r'maps\[1\]\["from"\] is 0: each map index 0 <= from < 1 must appear once'),
    ({"sets": [[0, 1], [0]], "maps": [{"from": 0, "assignment": [0, 0]}]},
     r'maps\[0\]\["assignment"\] must be an object'),
    ({"sets": [[0, 1], [0]], "maps": []}, "missing map in chain JSON"),
    ({"sets": [[0, 1], [0]], "maps": [{"from": 0, "assignment": {"0": 0, "7": 0}}]},
     "unknown label '7'"),
    ({"sets": [[0], [False]]}, r"sets\[1\]\[0\] is False: a label must be an integer or a string"),
    ({"sets": [[0, 2.0]]}, r"sets\[0\]\[1\] is 2.0: a label must be"),
    ({"sets": [["a", None]]}, r"sets\[0\]\[1\] is None: a label must be"),
    ({"sets": [["7", 3, 7]]}, r"sets\[0\]\[0\] is '7': the set also holds the integer 7"),
    ({"sets": [[7, 3, "7"]]}, r"sets\[0\]\[2\] is '7': the set also holds the integer 7"),
    ({"sets": [[0], [1, 1]]}, r"sets\[1\]\[1\] is 1: chain JSON sets\[1\]\[0\] holds it too"),
    ({"sets": [[1, 2], [0]], "maps": [{"from": 0, "assignment": {"1": 0, "01": 0, "2": 0}}]},
     r"maps\[0\]\[\"assignment\"\] has an unknown label '01'"),
    ({"sets": [[1, 2], [0]], "maps": [{"from": 0, "assignment": {"1": 0}}]},
     r"maps\[0\]\[\"assignment\"\] has no key for 2"),
    ({"sets": [[1], [0]], "maps": [{"from": 0, "assignment": {"1": 5}}]},
     r"maps\[0\]\[\"assignment\"\]\[\"1\"\] is 5: no label of the target"),
]


@pytest.mark.parametrize("data,message", BAD_CHAIN_JSON)
def test_chain_from_json_names_the_bad_field(data, message):
    with pytest.raises(ValueError, match=message):
        chain_from_json(data)


def test_chain_from_json_keeps_int_and_str_labels_apart_across_sets():
    # "1" and 1 may live in different sets: each map key is read in its own source set
    data = {"sets": [["1", "x"], [1]],
            "maps": [{"from": 0, "assignment": {"1": 1, "x": 1}}]}
    chain = chain_from_json(data)
    assert chain.sets[0].labels == ("1", "x") and chain.sets[1].labels == (1,)
    assert chain_from_json(chain_to_json(chain)) == chain


def test_an_injection_map_decodes_as_a_chain_map():
    inj = injection_from_json({"source": [1, "a"], "target": [1, 2, "a"], "map": {"1": 2, "a": "a"}})
    assert inj.as_dict() == {1: 2, "a": "a"}
    chain = chain_from_json({"sets": [[1, "a"], [1, 2, "a"]],
                             "maps": [{"from": 0, "assignment": {"1": 2, "a": "a"}}]})
    assert chain.maps[0] == inj
    assert injection_from_json({"source": [2], "target": [1, 2]}).as_dict() == {2: 2}
    with pytest.raises(ValueError, match=r'^"map" has an unknown label \'01\'$'):
        injection_from_json({"source": [1], "target": [1], "map": {"01": 1}})
