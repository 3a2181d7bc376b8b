import itertools
import json
import random
from pathlib import Path

import pytest
from shared_oracles import oracles

from confstrata import wonderful
from confstrata.checks import check_forest_nest_bijection
from confstrata.finchains import FiniteSet, SetMap
from confstrata.forests import Forest, enumerate_forests, is_forest
from confstrata.wonderful import (
    BlowUpSchedule,
    BuildingSet,
    building_set_from_json,
    building_set_to_json,
    default_order,
    diagonal,
    diagonal_building_set,
    diagonal_lattice,
    divisor_components,
    enumerate_nests,
    first_invalid_prefix,
    forgetful_centers,
    is_building_set,
    is_nest,
    nest_count,
    nest_poset_dot,
    nest_to_forest,
    partition_blocks,
    partition_join,
    partition_key,
    partition_label,
    validate_li_order,
)


# -- the independent partition oracle of perfbench/oracles.py, on label sets ----

def points(mask):
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def as_sets(key):
    """A partition of block masks as the oracle's set of label frozensets."""
    return frozenset(frozenset(points(b)) for b in key)


def oracle_refines(p, q):
    return oracles._refines(as_sets(p), as_sets(q))


BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52}


def test_join_matches_oracle():
    for n, d in itertools.product(range(1, 6), (1, 2)):
        lattice = diagonal_lattice(n, d)
        assert len(lattice.elements) == BELL[n] - 1  # every partition but the finest
        for a, b in itertools.product(lattice.elements, repeat=2):
            assert lattice.leq(a, b) == oracle_refines(a, b)
            if a != b and oracle_refines(a, b):
                assert lattice.codim[a] < lattice.codim[b]
        for a, b in itertools.combinations_with_replacement(lattice.elements, 2):
            j = lattice.join(a, b)
            assert j == lattice.join(b, a)
            assert as_sets(j) == oracles._join(as_sets(a), as_sets(b))
            assert oracle_refines(a, j) and oracle_refines(b, j)
            for u in lattice.elements:
                if oracle_refines(a, u) and oracle_refines(b, u):
                    assert oracle_refines(j, u)


def test_codim_formula():
    lattice = diagonal_lattice(4, 2)
    assert lattice.codim[diagonal([1, 2])] == 2
    assert lattice.codim[diagonal([1, 2, 3, 4])] == 6
    assert lattice.codim[partition_join(diagonal([1, 2]), diagonal([3, 4]))] == 4


def test_building_set_equality_ignores_how_the_lattice_was_fetched():
    members = [diagonal(u) for u in [(1, 2), (1, 3), (2, 3), (1, 2, 3)]]
    bset = BuildingSet(diagonal_lattice(3), members)
    assert bset == diagonal_building_set(3) == diagonal_building_set(3, 1)
    assert hash(bset) == hash(diagonal_building_set(3))
    assert bset != diagonal_building_set(3, 2)


def test_building_set_full_diagonals():
    lattice = diagonal_lattice(3, 1)
    members = [diagonal(u) for u in [(1, 2), (1, 3), (2, 3), (1, 2, 3)]]
    assert is_building_set(lattice, members)


def test_building_set_pairs_only_fails():
    lattice = diagonal_lattice(3, 1)
    assert not is_building_set(lattice, [diagonal([1, 2]), diagonal([1, 3]), diagonal([2, 3])])


def test_building_set_singleton():
    lattice = diagonal_lattice(3, 1)
    for element in lattice.elements:
        assert is_building_set(lattice, [element])


def test_building_set_unknown_member():
    lattice = diagonal_lattice(3, 1)
    with pytest.raises(ValueError):
        is_building_set(lattice, [(("nope",),)])


def test_is_nest_examples():
    bset = diagonal_building_set(3, 1)
    lattice = bset.lattice
    assert is_nest(lattice, bset, [diagonal([1, 2]), diagonal([1, 2, 3])])
    assert not is_nest(lattice, bset, [diagonal([1, 2]), diagonal([1, 3])])
    assert is_nest(lattice, bset, [])


def test_is_nest_requires_membership():
    bset = diagonal_building_set(4, 1)
    poly = partition_join(diagonal([1, 2]), diagonal([3, 4]))  # not a diagonal
    with pytest.raises(ValueError):
        is_nest(bset.lattice, bset, [poly])


def test_nest_counts_small():
    assert nest_count(1) == 1
    assert nest_count(2) == 2
    assert nest_count(3) == 8


def test_nests_agree_with_forests_exhaustively():
    for n in range(2, 5):
        bset = diagonal_building_set(n, 1)
        lattice = bset.lattice
        ground = FiniteSet(range(1, n + 1))
        singletons = [(x,) for x in ground]
        for r in range(len(bset.members) + 1):
            for subset in itertools.combinations(bset.members, r):
                blocks = singletons + [points(m[0]) for m in subset]
                assert is_nest(lattice, bset, subset) == is_forest(ground, blocks)


def test_nest_bijection_with_forests():
    for n in range(1, 5):
        nests = enumerate_nests(n)
        forests = enumerate_forests(n)
        assert len(nests) == len(forests)
        assert {nest_to_forest(n, nest) for nest in nests} == set(forests)


def test_enumerate_nests_validates_and_builds_no_lattice():
    with pytest.raises(ValueError, match=r"^n must be at least 1$"):
        enumerate_nests(0, 0)
    with pytest.raises(ValueError, match=r"^complex dimension must be positive$"):
        enumerate_nests(3, 0)
    diagonal_lattice.cache_clear()
    assert set(enumerate_nests(4, 2)) == set(enumerate_nests(4, 1))
    assert diagonal_lattice.cache_info().currsize == 0


@pytest.mark.parametrize("keep_count", [False, True])
def test_nest_check_reports_a_non_laminar_family(monkeypatch, keep_count):
    # mutant: {1,2} and {1,3} overlap, so together they are no nest
    real = enumerate_nests
    bad = frozenset({diagonal([1, 2]), diagonal([1, 3])})

    def padded(n, d=1):
        nests = real(n, d)
        if n < 3:
            return nests
        return nests[:-1] + [bad] if keep_count else nests + [bad]

    monkeypatch.setattr(wonderful, "enumerate_nests", padded)
    result = check_forest_nest_bijection(4)
    assert result.failures == [
        f"enumerated nests differ from the is_nest subsets at n={n}" for n in (3, 4)]


def test_li_order_increasing_dimension():
    bset = diagonal_building_set(3, 1)
    schedule = default_order(bset)
    assert [partition_label(c) for c in schedule.order] == [
        "{1,2,3}", "{1,2}", "{1,3}", "{2,3}"]
    assert validate_li_order(schedule)


def test_li_order_pairs_first_fails_at_three():
    bset = diagonal_building_set(3, 1)
    bad = BlowUpSchedule(bset, [diagonal([1, 2]), diagonal([1, 3]),
                                diagonal([2, 3]), diagonal([1, 2, 3])])
    assert not validate_li_order(bad)
    assert first_invalid_prefix(bad) == 3


def test_li_order_singleton_building_set():
    lattice = diagonal_lattice(2, 1)
    bset = BuildingSet(lattice, [diagonal([1, 2])])
    schedule = default_order(bset)
    assert validate_li_order(schedule)
    assert [c for c in schedule.order] == [diagonal([1, 2])]


def test_default_order_n2():
    schedule = default_order(diagonal_building_set(2, 1))
    assert list(schedule.order) == [diagonal([1, 2])]


def test_default_order_n4():
    schedule = default_order(diagonal_building_set(4, 1))
    assert len(schedule.order) == 11
    assert schedule.order[0] == diagonal([1, 2, 3, 4])
    assert validate_li_order(schedule)


def test_schedule_requires_permutation():
    bset = diagonal_building_set(2, 1)
    with pytest.raises(ValueError):
        BlowUpSchedule(bset, [])


def test_divisor_registry_order():
    schedule = default_order(diagonal_building_set(3, 1))
    assert [r.index for r in schedule.divisor_registry] == [0, 1, 2, 3]
    assert schedule.divisor_registry[0].label == "E_{1,2,3}"


def test_forgetful_centers_examples():
    inj = SetMap(FiniteSet([1, 2]), FiniteSet([1, 2, 3]), {1: 1, 2: 2})
    assert forgetful_centers(inj) == [diagonal([1, 2])]

    single = SetMap(FiniteSet([1]), FiniteSet([1, 2]), {1: 1})
    assert forgetful_centers(single) == []

    inj4 = SetMap(FiniteSet([1, 2, 3]), FiniteSet([1, 2, 3, 4]), {1: 1, 2: 2, 3: 3})
    assert forgetful_centers(inj4) == [
        diagonal([1, 2, 3]), diagonal([1, 2]), diagonal([1, 3]), diagonal([2, 3])]


def test_forgetful_centers_relabels():
    inj = SetMap(FiniteSet([1, 2]), FiniteSet([1, 2, 3]), {1: 3, 2: 1})
    assert forgetful_centers(inj) == [diagonal([1, 3])]


def test_forgetful_centers_rejects_non_injection():
    bad = SetMap(FiniteSet([1, 2]), FiniteSet([1]), {1: 1, 2: 1})
    with pytest.raises(ValueError):
        forgetful_centers(bad)


def test_divisor_components():
    two = divisor_components(diagonal_building_set(2, 1))
    assert len(two) == 1
    member, forest = two[0]
    assert member == diagonal([1, 2])
    assert forest == Forest(FiniteSet([1, 2]), [(1,), (2,), (1, 2)])

    assert len(divisor_components(diagonal_building_set(3, 1))) == 4
    assert divisor_components(diagonal_building_set(1, 1)) == []


def test_building_set_json_round_trip():
    bset = diagonal_building_set(3, 2)
    data = building_set_to_json(bset)
    assert data["n"] == 3 and data["d"] == 2
    assert building_set_from_json(data).members == bset.members


def test_nest_poset_dot():
    dot = nest_poset_dot(2)
    assert dot.startswith("digraph nests {")
    assert "(empty)" in dot


def test_forgetful_centers_rejects_non_positive_dimension():
    inj = SetMap(FiniteSet([1, 2]), FiniteSet([1, 2, 3]), {1: 1, 2: 2})
    for d in (0, -3):
        with pytest.raises(ValueError, match=r"^complex dimension must be positive$"):
            forgetful_centers(inj, d)


def test_partition_key_decodes_lenient_forms_and_refuses_non_partitions():
    # blocks and labels in any order; singleton and empty blocks dropped
    assert partition_key([[3, 2], [5, 4, 1]], 5) == partition_key([(1, 4, 5), (2, 3)], 6) == (6, 25)
    assert partition_key([[2, 1], [3], []], 3) == diagonal([1, 2]) == (3,)
    assert partition_key([[1]], 3) == partition_key([[7]], 3) == partition_key([], 3) == ()
    # a repeated label, or one outside 1..n, is no partition: neither folded nor shifted
    for blocks in ([[0, 1]], [[1, 1, 2]], [[-1, 2]], [[1, 2], [2, 3]], [[1, 2], [1, 2]],
                   [["a", "b"]], [[1, 4]], [[1, 2 ** 70]]):
        assert partition_key(blocks, 3) is None
    with pytest.raises(ValueError):
        diagonal([1, 1])


def test_partition_blocks_list_label_order_not_mask_order():
    # as masks {1,2,3} = 7 < {4,5} = 24, but reports list the smaller block first
    key = partition_join(diagonal([4, 5]), diagonal([1, 2, 3]))
    assert key == (7, 24)
    assert partition_blocks(key) == ((4, 5), (1, 2, 3))
    assert partition_label(key) == "{4,5}|{1,2,3}"
    assert partition_label(key, "abcde") == "{d,e}|{a,b,c}"
    # {1,3} < {2,3} < {1,2,3} as masks; {1,2,3} comes second in label order
    pairs = sorted(diagonal(u) for u in [(1, 2), (1, 3), (2, 3), (1, 2, 3)])
    assert [partition_label(m) for m in sorted(pairs, key=partition_blocks)] == [
        "{1,2}", "{1,2,3}", "{1,3}", "{2,3}"]


PAIRS_FIRST = Path(__file__).resolve().parent / "fixtures" / "blowup_order_pairs_first_n4.json"


def _orders_for_the_oracle():
    for n in range(2, 7):
        yield diagonal_building_set(n), default_order(diagonal_building_set(n)).order
    rng = random.Random(2009)
    for _ in range(200):
        bset = diagonal_building_set(rng.randint(2, 5))
        yield bset, rng.sample(bset.members, len(bset.members))
    members = [partition_key(m, 4) for m in json.loads(PAIRS_FIRST.read_text())]
    yield diagonal_building_set(4), members


def test_first_invalid_prefix_matches_the_definition_oracle():
    outcomes = []
    for bset, order in _orders_for_the_oracle():
        got = first_invalid_prefix(BlowUpSchedule(bset, order))
        assert got == oracles.first_invalid_prefix([points(m[0]) for m in order])
        outcomes.append(got is None)
    assert min(outcomes.count(True), outcomes.count(False)) > 50  # both outcomes compared
