"""The intersection lattice of the diagonal arrangement, building sets, and nests.

The lattice order is reverse inclusion of subvarieties (larger = smaller
subvariety), join is intersection, and codimension is carried in complex
units.  Transversality is proxied by codimension additivity of the minimal
members over each intersection, which is exact for diagonal arrangements.
"""

from __future__ import annotations

import functools
import itertools
from collections import namedtuple

from .finchains import FiniteSet, SetMap, label_key
from .forests import Forest, _set_partitions, enumerate_forests


# -- partitions of {1..n}: the polydiagonal bookkeeping ------------------------

def partition_key(blocks):
    """Canonical key: the sorted tuple of sorted non-singleton blocks."""
    blocks = [tuple(sorted(b, key=label_key)) for b in blocks if len(b) > 1]
    return tuple(sorted(blocks, key=lambda b: (len(b), tuple(label_key(x) for x in b))))


def diagonal(labels):
    """The diagonal indexed by one subset with at least two elements."""
    labels = tuple(sorted(labels, key=label_key))
    if len(labels) < 2:
        raise ValueError("a diagonal needs at least two labels")
    return partition_key([labels])


def partition_label(key) -> str:
    return "|".join("{" + ",".join(str(x) for x in b) + "}" for b in key)


def partition_refines(p, q) -> bool:
    """Every non-singleton block of p sits inside a block of q."""
    return all(any(set(b) <= set(c) for c in q) for b in p)


def partition_join(p, q):
    """Finest common coarsening: merge overlapping blocks."""
    blocks = [set(b) for b in p] + [set(b) for b in q]
    merged = True
    while merged:
        merged = False
        for i, j in itertools.combinations(range(len(blocks)), 2):
            if blocks[i] & blocks[j]:
                blocks[i] |= blocks[j]
                del blocks[j]
                merged = True
                break
    return partition_key(blocks)


def partition_codim(key, n: int, d: int) -> int:
    merged = sum(len(b) - 1 for b in key)
    assert merged <= n - 1
    return d * merged


# -- the diagonal lattice ---------------------------------------------------------


def _check_points(n: int, d: int):
    if n < 1:
        raise ValueError("n must be at least 1")
    _check_dimension(d)


def _check_dimension(d: int):
    if d < 1:
        raise ValueError("complex dimension must be positive")


class DiagonalLattice:
    """The polydiagonal lattice of X^n for X of complex dimension d.

    Its elements are the set partitions of {1..n} with a non-singleton block,
    as partition keys.  The order is refinement (reverse inclusion of
    subvarieties), the join merges overlapping blocks (intersection), and the
    codimension is d times (n minus the number of blocks).  Order and join are
    tabulated once from these closed forms, one join per pair of partitions;
    the caller bounds n.
    """

    __slots__ = ("n", "d", "elements", "codim", "_up", "_joins")

    def __init__(self, n: int, d: int = 1):
        _check_points(n, d)
        keys = {partition_key(p) for p in _set_partitions(range(1, n + 1))}
        elements = tuple(sorted(keys - {()}))
        joins = {}
        for a, b in itertools.combinations(elements, 2):
            joins[a, b] = joins[b, a] = partition_join(a, b)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "codim", {e: partition_codim(e, n, d) for e in elements})
        object.__setattr__(self, "_up", {
            a: frozenset(b for b in elements if partition_refines(a, b)) for a in elements})
        object.__setattr__(self, "_joins", joins)

    def __setattr__(self, name, value):
        raise AttributeError("DiagonalLattice is immutable")

    def leq(self, a, b) -> bool:
        return b in self._up[a]

    def join(self, a, b):
        return a if a == b else self._joins[a, b]

    def join_all(self, items):
        items = list(items)
        if not items:
            raise ValueError("join of an empty family")
        return functools.reduce(self.join, items)


@functools.lru_cache(maxsize=None)
def diagonal_lattice(n: int, d: int = 1) -> DiagonalLattice:
    """The polydiagonal lattice of X^n, built once per (n, d)."""
    return DiagonalLattice(n, d)


# -- building sets --------------------------------------------------------------


def intersection_closure(lattice: DiagonalLattice, members):
    closure = set(members)
    frontier = list(closure)
    while frontier:
        new = []
        for a, b in itertools.product(frontier, sorted(closure)):
            j = lattice.join(a, b)
            if j not in closure:
                closure.add(j)
                new.append(j)
        frontier = new
    return closure


def factors(lattice: DiagonalLattice, members, s):
    """Minimal members containing s as subvarieties (lattice-maximal below s)."""
    below = [m for m in members if lattice.leq(m, s)]
    return [m for m in below if not any(m != m2 and lattice.leq(m, m2) for m2 in below)]


def is_building_set(lattice: DiagonalLattice, members) -> bool:
    """Codimension additivity and join-exactness of the factors over every intersection."""
    members = set(members)
    unknown = members - set(lattice.elements)
    if unknown:
        raise ValueError(f"members not in the lattice: {sorted(unknown)}")
    for s in intersection_closure(lattice, members):
        fs = factors(lattice, members, s)
        if not fs:
            return False
        if sum(lattice.codim[f] for f in fs) != lattice.codim[s]:
            return False
        if lattice.join_all(fs) != s:
            return False
    return True


class BuildingSet:
    """A validated building set inside an arrangement lattice."""

    __slots__ = ("lattice", "members")

    def __init__(self, lattice: DiagonalLattice, members):
        members = tuple(sorted(set(members)))
        if not is_building_set(lattice, members):
            raise ValueError("not a building set")
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "members", members)

    def __setattr__(self, name, value):
        raise AttributeError("BuildingSet is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, BuildingSet)
            and (self.lattice.n, self.lattice.d) == (other.lattice.n, other.lattice.d)
            and self.members == other.members
        )

    def __hash__(self):
        return hash(("BuildingSet", self.lattice.n, self.lattice.d, self.members))

    def __repr__(self):
        return f"BuildingSet({len(self.members)} members)"


def diagonal_building_set(n: int, d: int = 1) -> BuildingSet:
    lattice = diagonal_lattice(n, d)
    members = [e for e in lattice.elements if len(e) == 1]
    return BuildingSet(lattice, members)


# -- nests -----------------------------------------------------------------------


def is_nest(lattice: DiagonalLattice, building_set, subset) -> bool:
    """No antichain of >= 2 elements of the subset joins to a building-set member."""
    members = set(building_set.members if isinstance(building_set, BuildingSet) else building_set)
    subset = list(subset)
    if any(s not in members for s in subset):
        raise ValueError("subset is not contained in the building set")
    for size in range(2, len(subset) + 1):
        for combo in itertools.combinations(subset, size):
            if any(lattice.leq(a, b) or lattice.leq(b, a)
                   for a, b in itertools.combinations(combo, 2)):
                continue
            if lattice.join_all(combo) in members:
                return False
    return True


def enumerate_nests(n: int, d: int = 1):
    """All nests of the full diagonal building set: the non-singleton blocks of each forest.

    These laminar families of subsets of size >= 2 do not depend on d
    (De Concini-Procesi); checks.check_forest_nest_bijection compares them with is_nest.
    """
    _check_points(n, d)
    return [frozenset(diagonal(b) for b in phi.non_singleton_blocks())
            for phi in enumerate_forests(n)]


def nest_count(n: int, d: int = 1) -> int:
    """Number of nests (the empty nest included) of the full diagonal building set."""
    return len(enumerate_nests(n, d))


def nest_to_forest(n: int, nest) -> Forest:
    """Adjoin the singletons: the forest a nest corresponds to."""
    ground = FiniteSet(range(1, n + 1))
    blocks = [(x,) for x in ground]
    for member in nest:
        if len(member) != 1:
            raise ValueError("only diagonal members correspond to forest blocks")
        blocks.append(member[0])
    return Forest(ground, blocks)


# -- blow-up schedules -------------------------------------------------------------

DivisorRecord = namedtuple("DivisorRecord", ["index", "center", "label"])


class BlowUpSchedule:
    """An ordering of a building set with the exceptional-divisor registry."""

    __slots__ = ("building_set", "order", "divisor_registry")

    def __init__(self, building_set: BuildingSet, order):
        order = tuple(order)
        if sorted(order) != sorted(building_set.members):
            raise ValueError("order must be a permutation of the building-set members")
        registry = tuple(
            DivisorRecord(i, center, f"E_{partition_label(center)}")
            for i, center in enumerate(order)
        )
        object.__setattr__(self, "building_set", building_set)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "divisor_registry", registry)

    def __setattr__(self, name, value):
        raise AttributeError("BlowUpSchedule is immutable")

    def __repr__(self):
        return f"BlowUpSchedule({[partition_label(c) for c in self.order]})"


def first_invalid_prefix(schedule: BlowUpSchedule):
    """Length of the shortest prefix that is not a building set, or None."""
    lattice = schedule.building_set.lattice
    for i in range(1, len(schedule.order) + 1):
        if not is_building_set(lattice, schedule.order[:i]):
            return i
    return None


def validate_li_order(schedule: BlowUpSchedule) -> bool:
    """Every prefix of the order must itself be a building set."""
    return first_invalid_prefix(schedule) is None


def default_order(building_set: BuildingSet) -> BlowUpSchedule:
    """Members in order of increasing dimension (decreasing codimension), lex ties."""
    lattice = building_set.lattice
    ordered = sorted(building_set.members, key=lambda m: (-lattice.codim[m], m))
    return BlowUpSchedule(building_set, ordered)


def forgetful_centers(inj: SetMap, d: int = 1):
    """Diagonal centers {Delta_i(U)} for U a subset of the source with |U| >= 2.

    These are the blow-up centers of the intermediate space through which the
    point-forgetting map along the injection factors, in default order.
    """
    _check_dimension(d)
    if not inj.is_injective():
        raise ValueError("forgetful centers require an injective map")
    table = inj.as_dict()
    centers = []
    for size in range(2, len(inj.source) + 1):
        for combo in itertools.combinations(inj.source.labels, size):
            centers.append(diagonal(table[x] for x in combo))
    n = len(inj.target)
    centers.sort(key=lambda c: (-partition_codim(c, n, d), c))
    return centers


def divisor_components(building_set: BuildingSet):
    """One divisor component per member, labelled by the one-big-block forest."""
    lattice = building_set.lattice
    ground = FiniteSet(range(1, lattice.n + 1))
    out = []
    for member in sorted(building_set.members, key=lambda m: (-lattice.codim[m], m)):
        if len(member) != 1:
            raise ValueError("divisor components require the diagonal building set")
        blocks = [(x,) for x in ground] + [member[0]]
        out.append((member, Forest(ground, blocks)))
    return out


# -- export ------------------------------------------------------------------------

def building_set_to_json(bset: BuildingSet) -> dict:
    return {
        "n": bset.lattice.n,
        "d": bset.lattice.d,
        "members": [[list(b) for b in m] for m in bset.members],
    }


def building_set_from_json(data) -> BuildingSet:
    lattice = diagonal_lattice(int(data["n"]), int(data.get("d", 1)))
    members = [partition_key([tuple(b) for b in m]) for m in data["members"]]
    return BuildingSet(lattice, members)


def schedule_to_json(schedule: BlowUpSchedule) -> list:
    return [[list(b) for b in m] for m in schedule.order]


def nest_poset_dot(n: int, d: int = 1) -> str:
    """The poset of nests under inclusion, as a DOT digraph (covers only)."""
    nests = sorted(enumerate_nests(n, d), key=lambda s: (len(s), sorted(s)))
    names = {}
    lines = ["digraph nests {", "  rankdir=BT;", "  node [shape=box];"]
    for i, nest in enumerate(nests):
        names[nest] = f"n{i}"
        text = ", ".join(partition_label(m) for m in sorted(nest)) or "(empty)"
        lines.append(f'  n{i} [label="{text}"];')
    for a, b in itertools.permutations(nests, 2):
        if a < b and len(b) == len(a) + 1:
            lines.append(f"  {names[a]} -> {names[b]};")
    lines.append("}")
    return "\n".join(lines) + "\n"
