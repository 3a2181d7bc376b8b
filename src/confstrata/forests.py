"""Forests on finite sets and the level construction on chains of set maps.

A forest on S is a family of non-empty subsets (blocks) of S that contains
every singleton and in which any two blocks are disjoint or nested.  Forests
index the strata of compactified configuration spaces; the poset view (blocks
under reverse inclusion) is the bridge to morphisms, which are injective,
order- and independence-preserving poset maps.

The level construction turns a chain S_0 -> ... -> S_k into a forest: elements
of consecutive levels are glued when the connecting fiber is a singleton, the
leftover classes are ordered by "is a forward image of", and the maximal
classes become the ground set.  Equivalently, as it is computed: the ground
set is the leaves, the points that no map hits, and a point's block is its
leaf set, the leaves whose forward images reach it.
"""

from __future__ import annotations

import itertools
from operator import attrgetter

from . import _Value, _fill, finchains


def _block_key(block):
    return (len(block), tuple(finchains.label_key(x) for x in block))


def _canonical_blocks(blocks):
    uniq = {tuple(sorted(b, key=finchains.label_key)) for b in blocks}
    return tuple(sorted(uniq, key=_block_key))


def is_forest(ground: finchains.FiniteSet, blocks) -> bool:
    """Both forest conditions: all singletons present, blocks disjoint or nested."""
    blocks = [frozenset(b) for b in blocks]
    for b in blocks:
        if not b:
            return False
        if not b <= set(ground.labels):
            raise ValueError(f"block {sorted(b, key=finchains.label_key)} "
                             "is not a subset of the ground set")
    block_set = set(blocks)
    for x in ground:
        if frozenset((x,)) not in block_set:
            return False
    for a, b in itertools.combinations(block_set, 2):
        if a & b and not (a <= b or b <= a):
            return False
    return True


class Forest(_Value):
    """A forest; blocks are canonically sorted so equality is structural.

    The constructor validates; forests built inside the package (enumeration,
    pullback, the level construction) have canonical blocks by construction
    and are not re-checked.
    """

    __slots__ = ("ground", "blocks")
    _fields = attrgetter("blocks", "ground")

    def __init__(self, ground: finchains.FiniteSet, blocks):
        blocks = _canonical_blocks(blocks)
        if not is_forest(ground, blocks):
            raise ValueError("not a forest: missing singleton or overlapping blocks")
        _fill(self, ground, blocks)

    def block_sets(self):
        return [frozenset(b) for b in self.blocks]

    def non_singleton_blocks(self):
        return tuple(b for b in self.blocks if len(b) > 1)

    def __repr__(self):
        return f"Forest({list(self.ground.labels)!r}, {[list(b) for b in self.blocks]!r})"


def _forest(ground: finchains.FiniteSet, blocks: tuple) -> Forest:
    """The forest with these canonical blocks, unchecked."""
    return _fill(object.__new__(Forest), ground, blocks)


def minimal_forest(ground: finchains.FiniteSet) -> Forest:
    return _forest(ground, tuple((x,) for x in ground.labels))


def pullback(j: finchains.SetMap, psi: Forest) -> Forest:
    """Intersect a forest on T with the image of an injection j: S -> T."""
    if not j.is_injective():
        raise ValueError("pullback requires an injective map")
    if psi.ground != j.target:
        raise ValueError("forest is not on the target of the injection")
    return _forest_of(j.source, _pulled(j.table, _block_masks(psi)))


def trees_of(phi: Forest):
    """Split a forest into its trees: (root block, tree as a forest on the root)."""
    blocks = phi.block_sets()
    roots = [b for b in phi.blocks if not any(frozenset(b) < c for c in blocks)]
    return [(root, Forest(finchains.FiniteSet(root), [b for b in blocks if b <= frozenset(root)]))
            for root in roots]


# -- poset view ---------------------------------------------------------------


def _transitive_closure(pairs):
    closure = set(pairs)
    changed = True
    while changed:
        changed = False
        for (a, b), (c, d) in itertools.product(list(closure), repeat=2):
            if b == c and (a, d) not in closure:
                closure.add((a, d))
                changed = True
    return closure


def poset_violations(elements, less) -> list[str]:
    """Check the two forest-poset conditions on a strict order relation."""
    problems = []
    elements = list(elements)
    less = set(less)
    for a, b in less:
        if (b, a) in less:
            problems.append(f"not antisymmetric: {a!r} and {b!r}")
    for v in elements:
        down = [w for w in elements if (w, v) in less]
        for a, b in itertools.combinations(down, 2):
            if (a, b) not in less and (b, a) not in less:
                problems.append(f"down-set of {v!r} is not totally ordered")
    maximal = [v for v in elements if not any((v, w) in less for w in elements)]
    images = {}
    for v in elements:
        above = frozenset(m for m in maximal if m == v or (v, m) in less)
        if above in images:
            problems.append(f"{v!r} and {images[above]!r} lie under the same maximal elements")
        images[above] = v
    return problems


class ForestPoset(_Value):
    """A finite poset with totally ordered down-sets and no repeated maximal fibers.

    `less` holds the strict relation as (smaller, larger) pairs; the input is
    transitively closed at construction.
    """

    __slots__ = ("elements", "less")

    def __init__(self, elements, less):
        elements = tuple(sorted(set(elements), key=finchains.label_key))
        less = frozenset(_transitive_closure({(a, b) for a, b in less if a != b}))
        for a, b in less:
            if a not in elements or b not in elements:
                raise ValueError("relation mentions unknown element")
        problems = poset_violations(elements, less)
        if problems:
            raise ValueError("; ".join(problems))
        _fill(self, elements, less)

    def leq(self, a, b) -> bool:
        return a == b or (a, b) in self.less

    def maximal(self):
        return tuple(v for v in self.elements if not any((v, w) in self.less for w in self.elements))

    def __repr__(self):
        return f"ForestPoset({len(self.elements)} elements)"


def to_poset(phi: Forest) -> ForestPoset:
    """Blocks ordered by reverse inclusion; singletons become the maximal elements."""
    elements = phi.blocks
    less = set()
    for a, b in itertools.permutations(elements, 2):
        if set(a) > set(b):
            less.add((a, b))
    return ForestPoset(elements, less)


def from_poset(p: ForestPoset) -> Forest:
    """Rebuild the forest whose blocks are the maximal-element fibers.

    Maximal elements become the ground set.  When every maximal element is a
    1-tuple (as produced by to_poset) the label is unwrapped, which makes
    from_poset(to_poset(phi)) == phi on the nose.
    """
    maximal = p.maximal()
    unwrap = all(isinstance(m, tuple) and len(m) == 1 for m in maximal)
    name = (lambda m: m[0]) if unwrap else (lambda m: m)
    ground = finchains.FiniteSet(name(m) for m in maximal)
    blocks = set()
    for v in p.elements:
        blocks.add(tuple(sorted((name(m) for m in maximal if p.leq(v, m)),
                                key=finchains.label_key)))
    return Forest(ground, blocks)


# -- enumeration --------------------------------------------------------------


def _mask_forests(n: int):
    """All forests on bits 0..n-1, each a tuple of block bitmasks.

    Built bottom-up over masks, each after its submasks: a forest is the tree
    holding the lowest point plus a forest on the rest, and a tree on two or
    more points is its full block over a forest of at least two trees.
    """
    trees, forests = {}, {0: [()]}
    for mask in range(1, 1 << n):
        low = mask & -mask
        rest = mask ^ low
        split = [tree + other for sub in range(rest) if sub & rest == sub
                 for tree in trees[low | sub] for other in forests[rest ^ sub]]
        trees[mask] = [(mask,) + f for f in split] if rest else [(mask,)]
        forests[mask] = split + trees[mask]
    return forests[(1 << n) - 1]


def enumerate_forests(n: int):
    """All forests on {1, ..., n}, canonically sorted, no duplicates; the caller bounds n.

    Blocks are enumerated as bitmasks over the ground index; each mask's
    label tuple and its rank in the canonical block order are tabulated once.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    ground = finchains.FiniteSet(range(1, n + 1))
    points = [tuple(b for b in range(n) if mask >> b & 1) for mask in range(1 << n)]
    block = [tuple(ground.labels[b] for b in p) for p in points]
    order = sorted(range(1 << n), key=lambda m: (len(points[m]), points[m]))
    rank = {mask: r for r, mask in enumerate(order)}
    forests = [_forest(ground, tuple([block[m] for m in sorted(f, key=rank.__getitem__)]))
               for f in _mask_forests(n)]
    return sorted(forests, key=lambda f: (len(f.blocks), f.blocks))


def inclusion_covers(families) -> list:
    """The covers (i, j) under inclusion, sorted, of families closed under removing a member
    (forests' non-singleton blocks, nests): family i is family j minus one member."""
    index = {frozenset(f): i for i, f in enumerate(families)}
    return sorted((index[family - {m}], j) for family, j in index.items() for m in family)


# -- morphisms (poset maps) ----------------------------------------------------


class ForMorphism(_Value):
    """A morphism of forests as an injective poset map on blocks.

    The map must preserve the reverse-inclusion order and independence
    (incomparable blocks stay incomparable).  Morphisms induced by a ground
    injection j send a block A to the least block containing j(A); not every
    morphism is of that form.  Only library code builds morphisms, and it
    passes canonical blocks, so the constructor keeps the blocks as given and
    only orders the pairs by source block; morphism_violations checks the laws
    and reports a block that is not one of the forests'.
    """

    __slots__ = ("source", "target", "block_map")
    _fields = attrgetter("block_map", "source", "target")

    def __init__(self, source: Forest, target: Forest, block_map):
        items = tuple(sorted(dict(block_map).items(), key=lambda kv: _block_key(kv[0])))
        _fill(self, source, target, items)

    def mapping(self):
        return dict(self.block_map)

    @classmethod
    def identity(cls, forest: Forest) -> "ForMorphism":
        return _morphism(forest, forest, tuple([(b, b) for b in forest.blocks]))

    def then(self, other: "ForMorphism") -> "ForMorphism":
        # the pairs keep self's order, which is the canonical source order
        if other.source != self.target:
            raise ValueError("morphisms do not compose")
        table = other.mapping()
        return _morphism(self.source, other.target,
                         tuple([(k, table[v]) for k, v in self.block_map]))

    def is_identity(self) -> bool:
        return self.source == self.target and all(k == v for k, v in self.block_map)

    def canonical_lift(self) -> finchains.SetMap:
        """The least ground lift: each point to the first label of its image block."""
        return finchains._setmap(self.source.ground, self.target.ground,
                                 tuple(_lift(*_integers(self))))

    def signature(self) -> Forest:
        """The pullback of the target forest along a ground lift: the quotient-category card.

        A lawful morphism has one pullback forest, whatever the lift.  It sends
        the points s to pairwise disjoint blocks B_s of a laminar family, so a
        target block C pulls back to {s : B_s <= C}, or to at most one point
        when C lies inside some B_s.  Morphisms with equal endpoints and
        signatures are identified in the forest category.
        """
        return _forest_of(self.source.ground, _signature(*_integers(self)))

    def __repr__(self):
        return f"ForMorphism({self.source!r} -> {self.target!r})"


def _morphism(source: Forest, target: Forest, block_map: tuple) -> ForMorphism:
    """The morphism with these pairs, already in canonical source order, unchecked."""
    return _fill(object.__new__(ForMorphism), source, target, block_map)


def morphism_violations(f: ForMorphism) -> list[str]:
    """Diagnostics for every violated morphism law (empty list iff f is a morphism)."""
    mapping = f.mapping()
    if set(mapping) != set(f.source.blocks):
        return ["block map is not total on the source blocks"]
    if not set(mapping.values()) <= set(f.target.blocks):
        return ["block map hits a non-block"]
    return _violations(f.source.blocks, *_integers(f))


def morphisms_equivalent(f: ForMorphism, g: ForMorphism) -> bool:
    """Equality in the quotient forest category (shared endpoints and pullback forests)."""
    return (
        f.source == g.source
        and f.target == g.target
        and _signature(*_integers(f)) == _signature(*_integers(g))
    )


# -- the morphism laws on integers ---------------------------------------------
# A morphism's integer form is (source, target, table): each forest's blocks as
# bitmasks over its ground positions, in canonical order (the points first), and
# table[j] the number of the image of source block j.


def _bits(mask: int):
    """The indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _block_masks(phi: Forest) -> list:
    """phi's blocks in integer form."""
    positions = phi.ground.positions
    return [sum([1 << positions[x] for x in block]) for block in phi.blocks]


def _canonical(mask: int):
    """The sort key of a block mask: blocks of one size are disjoint, so they sort as
    their first points do."""
    return mask.bit_count(), mask & -mask


def _forest_of(ground: finchains.FiniteSet, masks) -> Forest:
    """The forest on ground with these block masks."""
    labels = ground.labels
    return _forest(ground, tuple([tuple([labels[p] for p in _bits(mask)])
                                  for mask in sorted(masks, key=_canonical)]))


def _integers(f: ForMorphism):
    """The integer form of f, whose block map is total on the source blocks and hits blocks."""
    number = {block: j for j, block in enumerate(f.target.blocks)}
    return (_block_masks(f.source), _block_masks(f.target),
            tuple([number[image] for _, image in f.block_map]))


def _violations(names, source, target, table) -> list[str]:
    """The violated laws of a total block map, naming the source blocks by names."""
    problems = [] if len(set(table)) == len(table) else ["block map is not injective"]
    blocks = list(zip(names, source, [target[t] for t in table]))
    for (a, sa, ia), (b, sb, ib) in itertools.combinations(blocks, 2):
        s, i = sa & sb, ia & ib
        comparable = s == sa or s == sb
        if comparable != (i == ia or i == ib):
            problems.append(f"comparability of {a!r},{b!r} not preserved")
        elif comparable and (s == sb) != (i == ib):
            problems.append(f"order of {a!r},{b!r} reversed")
    return problems


def _lift(source, target, table) -> list:
    """The canonical lift as a position table: each point to the first point of its image."""
    return [(target[t] & -target[t]).bit_length() - 1
            for mask, t in zip(source, table) if mask & mask - 1 == 0]


def _pulled(lift, blocks) -> set:
    """The non-empty preimages of these block masks along a position table, as masks."""
    back = {}  # each hit position's preimage
    for s, t in enumerate(lift):
        back[t] = back.get(t, 0) | 1 << s
    hit = sum([1 << t for t in back])
    pulled = set()
    for mask in {block & hit for block in blocks}:
        preimage = 0
        while mask:  # the loop of _bits, inline: the check calls this for each morphism
            low = mask & -mask
            preimage |= back[low.bit_length() - 1]
            mask ^= low
        pulled.add(preimage)
    pulled.discard(0)
    return pulled


def _signature(source, target, table) -> set:
    """The blocks of the pullback forest (see ForMorphism.signature) as masks."""
    return _pulled(_lift(source, target, table), target)


# -- the level construction ----------------------------------------------------


def _ground(leaves: tuple):
    """The ground set named by these leaf values, in order of occurrence, and each leaf
    as a bitmask over the ground positions.  A leaf is named by its value, or value#rank
    by first occurrence when values repeat, so that degeneracies do not disturb the
    labels."""
    by_value = {}
    for bit, value in enumerate(leaves):
        by_value.setdefault(value, []).append(bit)
    names = list(leaves)
    for value, bits in by_value.items():
        if len(bits) > 1:
            for rank, bit in enumerate(bits):
                names[bit] = f"{value}#{rank}"
    ground = finchains.FiniteSet(names)
    return ground, [1 << ground.positions[name] for name in names]


class _LevelData:
    """The leaf sets of a chain's points: the scaffolding behind the level forest.

    A leaf is a point that no map hits, and a point's leaf set is the union of
    its fiber's, or a leaf of its own when the fiber is empty: a bitmask over
    the ground positions.  The blocks are the distinct leaf sets: gluing along a
    singleton fiber keeps one, and two points of one level have disjoint ones.
    masks lists them in the canonical block order, the forest's blocks in
    integer form; block[i][y] is the number of the block of point y of S_i, and
    deepest lists each block's deepest point as (level, position).  ground_of is
    _ground, or a cache of it that the chains of one check share.
    """

    __slots__ = ("ground", "masks", "block", "deepest")

    def __init__(self, chain: finchains.FinChain, ground_of=_ground):
        sets, tables = chain.sets, chain.tables
        leaves = list(sets[0].labels)
        for s, table in zip(sets[1:], tables):
            hit = set(table)
            leaves += [x for y, x in enumerate(s.labels) if y not in hit]
        self.ground, leaf_masks = ground_of(tuple(leaves))
        leaf, masks, deepest = iter(leaf_masks), [], {}
        for i, s in enumerate(sets):
            level = [0] * len(s.labels)
            if i:
                below = masks[-1]
                for x, y in enumerate(tables[i - 1]):
                    level[y] |= below[x]
            for y, mask in enumerate(level):
                if not mask:
                    mask = level[y] = next(leaf)
                deepest[mask] = (i, y)
            masks.append(level)
        # the leaves are the singleton blocks, which come first
        self.masks = tuple(sorted(leaf_masks) + sorted([mask for mask in deepest if mask & mask - 1],
                                                       key=_canonical))
        number = {mask: j for j, mask in enumerate(self.masks)}
        self.block = [[number[mask] for mask in level] for level in masks]
        self.deepest = [deepest[mask] for mask in self.masks]

    @property
    def forest(self) -> Forest:
        return _forest_of(self.ground, self.masks)


def level_functor_object(chain: finchains.FinChain) -> Forest:
    """The forest of a chain, not re-checked: its points' leaf sets, named by the leaves' values."""
    return _LevelData(chain).forest


def level_functor_morphism(sm: finchains.SimplexMap) -> ForMorphism:
    """The forest morphism of a chain morphism, which depends only on its target and
    the image of delta, computed afresh on each call from image_morphism's table.

    Surjective reindexings induce the identity.  For an injective delta the
    block map sends a block to the target block of the image of its deepest
    point; general deltas compose the two.  Composition holds in the quotient
    category (morphisms_equivalent: equal pullback forests);
    checks.check_level_functor checks the laws.
    """
    image = tuple(dict.fromkeys(sm.delta))
    data = _LevelData(sm.target)
    mid = data if len(image) == len(data.block) else _LevelData(
        finchains.precompose(sm.target, image))
    phi, psi = mid.forest, data.forest
    return _morphism(phi, psi, tuple(zip(
        phi.blocks, [psi.blocks[j] for j in image_morphism(data.block, mid.deepest, image)])))


def image_morphism(block: list, deepest: list, image: tuple) -> tuple:
    """F of every simplex map into a chain whose delta has this image, its levels in
    increasing order, as a table of integers: entry j is the number of the image of
    block j of the chain reindexed along image.  block is the chain's _LevelData.block
    and deepest the reindexed chain's _LevelData.deepest.  Delta factors through its
    image, and the surjective part is the identity; point y of level i of the
    reindexed chain is point y of level image[i]."""
    return tuple([block[image[i]][y] for i, y in deepest])


# -- export -------------------------------------------------------------------

def forest_to_json(phi: Forest) -> dict:
    return {"ground": list(phi.ground.labels), "blocks": [list(b) for b in phi.blocks]}


def forest_to_dot(phi: Forest) -> str:
    """Graph of a forest: one vertex per block, an extra root vertex per tree."""

    def node_id(block):
        return '"b_' + "_".join(str(x) for x in block) + '"'

    lines = ["graph forest {", "  node [shape=circle];"]
    for block in phi.blocks:
        fill = ' style=filled fillcolor="lightgrey"' if len(block) == 1 else ""
        label = ",".join(str(x) for x in block)
        lines.append(f"  {node_id(block)} [label=\"{label}\"{fill}];")
    for a, b in itertools.combinations(phi.blocks, 2):
        sa, sb = set(a), set(b)
        small, big = (a, b) if sa < sb else (b, a) if sb < sa else (None, None)
        if small is None:
            continue
        between = any(set(small) < set(c) < set(big) for c in phi.blocks)
        if not between:
            lines.append(f"  {node_id(small)} -- {node_id(big)};")
    for t, (root, _) in enumerate(trees_of(phi)):
        lines.append(f'  "root_{t}" [shape=point];')
        lines.append(f'  "root_{t}" -- {node_id(root)};')
    lines.append("}")
    return "\n".join(lines) + "\n"
