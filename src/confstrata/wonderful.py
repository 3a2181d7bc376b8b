"""The intersection lattice of the diagonal arrangement, building sets, and nests.

The lattice order is reverse inclusion of subvarieties (larger = smaller
subvariety), join is intersection, and codimension is carried in complex
units.  Transversality is proxied by codimension additivity of the minimal
members over each intersection, which is exact for diagonal arrangements.

Inside, a partition of {1..n} is the sorted tuple of its non-singleton
blocks, each block a bitmask (bit i - 1 for point i).  Labels are read only by
partition_key and written only through partition_blocks and partition_label,
which list blocks by size, then by labels, as every report does.
"""

from __future__ import annotations

import functools
import itertools
from operator import attrgetter

from . import _Value, _fill, finchains, forests


# -- partitions of {1..n}: the polydiagonal bookkeeping ------------------------

def partition_key(blocks, n: int):
    """The partition of {1..n} with these blocks, or None if they are not one.

    Blocks and their labels may come in any order; singleton and empty blocks
    are dropped.  A block label outside 1..n, or one that appears twice, makes
    the blocks no partition.
    """
    blocks = [b for b in blocks if len(b) > 1]
    labels = [x for b in blocks for x in b]
    if not all(isinstance(x, int) and 0 < x <= n for x in labels) or len(set(labels)) < len(labels):
        return None
    return tuple(sorted(sum(1 << (x - 1) for x in b) for b in blocks))


def diagonal(labels):
    """The diagonal indexed by one subset of {1, 2, ...} with at least two elements."""
    labels = tuple(labels)
    key = partition_key([labels], max(labels, default=0))
    if not key:
        raise ValueError("a diagonal needs at least two distinct points 1, 2, ...")
    return key


def partition_blocks(key, labels=None) -> tuple:
    """The blocks as label tuples, by size, then by labels: the form every report shows.

    Bit i names labels[i], or the point i + 1 when no labels are given.
    """
    blocks = sorted((tuple(i for i in range(b.bit_length()) if b >> i & 1) for b in key),
                    key=lambda p: (len(p), p))
    return tuple(tuple(i + 1 if labels is None else labels[i] for i in p) for p in blocks)


def partition_label(key, labels=None) -> str:
    return "|".join("{" + ",".join(map(str, b)) + "}" for b in partition_blocks(key, labels))


def partition_refines(p, q) -> bool:
    """Every non-singleton block of p sits inside a block of q."""
    return all(any(b & c == b for c in q) for b in p)


def partition_join(p, q):
    """Finest common coarsening: each block of q absorbs the blocks it overlaps."""
    merged = list(p)
    for b in q:
        rest = []
        for c in merged:
            if c & b:
                b |= c
            else:
                rest.append(c)
        merged = rest + [b]
    return tuple(sorted(merged))


# -- the diagonal lattice ---------------------------------------------------------


def _check_points(n: int, d: int):
    if n < 1:
        raise ValueError("n must be at least 1")
    _check_dimension(d)


def _check_dimension(d: int):
    if d < 1:
        raise ValueError("complex dimension must be positive")


class DiagonalLattice(_Value):
    """The polydiagonal lattice of X^n for X of complex dimension d.

    Its elements are the set partitions of {1..n} with a non-singleton block,
    as partition keys.  The order is refinement (reverse inclusion of
    subvarieties), the join merges overlapping blocks (intersection), and the
    codimension is d times (n minus the number of blocks).  Order and join are
    computed on demand from these closed forms; the caller bounds n.
    """

    __slots__ = ("n", "d", "elements", "codim")
    _fields = attrgetter("n", "d")
    leq = staticmethod(partition_refines)
    join = staticmethod(partition_join)

    def __init__(self, n: int, d: int = 1):
        _check_points(n, d)
        parts = [()]  # the set partitions of the first i points: each joins a block or starts one
        for bit in (1 << i for i in range(n)):
            parts = [p + (bit,) for p in parts] + [
                p[:j] + (p[j] | bit,) + p[j + 1:] for p in parts for j in range(len(p))]
        elements = sorted(tuple(sorted(b for b in p if b & (b - 1))) for p in parts)
        elements = tuple(elements[1:])  # all but the finest partition, ()
        _fill(self, n, d, elements, {e: d * sum(b.bit_count() - 1 for b in e) for e in elements})

    def join_all(self, items):
        items = list(items)
        if not items:
            raise ValueError("join of an empty family")
        return functools.reduce(self.join, items)


def diagonal_lattice(n: int, d: int = 1) -> DiagonalLattice:
    """The polydiagonal lattice of X^n, built afresh on each call."""
    return DiagonalLattice(n, d)


# -- building sets --------------------------------------------------------------


def intersection_closure(lattice: DiagonalLattice, members):
    """All joins of members: adding m to G adds m and m v c for every c in closure(G)."""
    closure = set()
    for m in members:
        closure |= {m, *(lattice.join(m, c) for c in closure)}
    return closure


def factors(lattice: DiagonalLattice, members, s):
    """Minimal members containing s as subvarieties (lattice-maximal below s)."""
    maximal = []
    # a member below another has the smaller codimension, so it comes after it here
    for m in sorted((m for m in members if lattice.leq(m, s)), key=lattice.codim.get, reverse=True):
        if not any(lattice.leq(m, f) for f in maximal):
            maximal.append(m)
    return maximal


def _transversal(lattice: DiagonalLattice, members, s) -> bool:
    """Codimension additivity and join-exactness of the factors over one intersection s."""
    fs = factors(lattice, members, s)
    return (bool(fs) and sum(lattice.codim[f] for f in fs) == lattice.codim[s]
            and lattice.join_all(fs) == s)


def is_building_set(lattice: DiagonalLattice, members) -> bool:
    """The factors over every intersection are transversal and meet in it."""
    members = set(members)
    unknown = [m for m in members if m not in lattice.codim]
    if unknown:
        raise ValueError(f"members not in the lattice: {', '.join(sorted(map(repr, unknown)))}")
    return all(_transversal(lattice, members, s) for s in intersection_closure(lattice, members))


class BuildingSet(_Value):
    """A building set inside an arrangement lattice, validated by the constructor."""

    __slots__ = ("lattice", "members")

    def __init__(self, lattice: DiagonalLattice, members):
        members = set(members)
        if not is_building_set(lattice, members):
            raise ValueError("not a building set")
        _fill(self, lattice, tuple(sorted(members)))

    def __repr__(self):
        return f"BuildingSet({len(self.members)} members)"


def diagonal_building_set(n: int, d: int = 1) -> BuildingSet:
    """The diagonals, a building set by theorem (Fulton-MacPherson), not re-proved here:
    first_invalid_prefix proves it for any order, as its last prefix is the whole set."""
    lattice = diagonal_lattice(n, d)
    return _fill(object.__new__(BuildingSet), lattice,
                 tuple([e for e in lattice.elements if len(e) == 1]))


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
    return [frozenset([(b,) for b in blocks if b & (b - 1)]) for blocks in forests._mask_forests(n)]


def nest_to_forest(n: int, nest) -> forests.Forest:
    """Adjoin the singletons: the forest a nest corresponds to."""
    ground = finchains.FiniteSet(range(1, n + 1))
    blocks = [(x,) for x in ground]
    for member in nest:
        if len(member) != 1:
            raise ValueError("only diagonal members correspond to forest blocks")
        blocks.append(partition_blocks(member)[0])
    return forests.Forest(ground, blocks)


# -- blow-up schedules -------------------------------------------------------------


class BlowUpSchedule(_Value):
    """An ordering of a building set; the i-th center's exceptional divisor is E_{its label}."""

    __slots__ = ("building_set", "order")

    def __init__(self, building_set: BuildingSet, order):
        order = tuple(order)
        if len(order) != len(building_set.members) or set(order) != set(building_set.members):
            raise ValueError("order must be a permutation of the building-set members")
        _fill(self, building_set, order)

    def __repr__(self):
        return f"BlowUpSchedule({[partition_label(c) for c in self.order]})"


def first_invalid_prefix(schedule: BlowUpSchedule):
    """Length of the shortest prefix that is not a building set, or None.

    One intersection closure grows along the order.  Adding m changes the
    factors only over the intersections above m; every other one passed at
    the previous prefix, so only those above m are checked (L. Li, 2009).
    """
    lattice = schedule.building_set.lattice
    members, closure = set(), set()
    for i, m in enumerate(schedule.order, 1):
        members.add(m)
        closure |= {m, *(lattice.join(m, c) for c in closure)}
        if not all(_transversal(lattice, members, s) for s in closure if lattice.leq(m, s)):
            return i
    return None


def validate_li_order(schedule: BlowUpSchedule) -> bool:
    """Every prefix of the order must itself be a building set."""
    return first_invalid_prefix(schedule) is None


def default_order(building_set: BuildingSet) -> BlowUpSchedule:
    """Members in order of increasing dimension (decreasing codimension), ties in label order."""
    lattice = building_set.lattice
    ordered = sorted(building_set.members, key=lambda m: (-lattice.codim[m], partition_blocks(m)))
    return BlowUpSchedule(building_set, ordered)


def forgetful_centers(inj: finchains.SetMap, d: int = 1):
    """Diagonal centers {Delta_i(U)} for U a subset of the source with |U| >= 2.

    These are the blow-up centers of the intermediate space through which the
    point-forgetting map along the injection factors, in default order:
    larger centers first, ties in the target's label order.  A center is a
    diagonal over the target's positions; partition_blocks(c, inj.target.labels)
    names it.
    """
    _check_dimension(d)
    if not inj.is_injective():
        raise ValueError("forgetful centers require an injective map")
    positions = sorted(inj.table)  # combinations of sorted positions come in label order
    return [(sum(1 << j for j in combo),) for size in range(len(positions), 1, -1)
            for combo in itertools.combinations(positions, size)]


# -- export ------------------------------------------------------------------------

def schedule_to_json(schedule: BlowUpSchedule) -> list:
    return [[list(b) for b in partition_blocks(m)] for m in schedule.order]


def schedule_from_json(building_set: BuildingSet, data) -> BlowUpSchedule:
    """Decode an order: a list of members, each a list of blocks of integer labels."""
    if not isinstance(data, list):
        raise ValueError("the order must be a list of members")
    for i, member in enumerate(data):
        if not (isinstance(member, list) and all(
                isinstance(b, list) and all(type(x) is int for x in b) for b in member)):
            raise ValueError(f"order[{i}] must be a list of blocks of integer labels")
    return BlowUpSchedule(building_set, [partition_key(m, building_set.lattice.n) for m in data])


def nest_poset_dot(n: int, d: int = 1) -> str:
    """The poset of nests under inclusion, as a DOT digraph (covers only)."""
    nests = sorted(enumerate_nests(n, d),
                   key=lambda s: (len(s), sorted(map(partition_blocks, s))))
    lines = ["digraph nests {", "  rankdir=BT;", "  node [shape=box];"]
    for i, nest in enumerate(nests):
        text = ", ".join(partition_label(m) for m in sorted(nest, key=partition_blocks)) or "(empty)"
        lines.append(f'  n{i} [label="{text}"];')
    lines += [f"  n{i} -> n{j};" for i, j in forests.inclusion_covers(nests)]
    lines.append("}")
    return "\n".join(lines) + "\n"
