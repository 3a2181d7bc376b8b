"""Forests on finite sets and the level construction on chains of set maps.

A forest on S is a family of non-empty subsets (blocks) of S that contains
every singleton and in which any two blocks are disjoint or nested.  Forests
index the strata of compactified configuration spaces; the poset view (blocks
under reverse inclusion) is the bridge to morphisms, which are injective,
order- and independence-preserving poset maps.

The level construction turns a chain S_0 -> ... -> S_k into a forest: elements
of consecutive levels are glued when the connecting fiber is a singleton, the
leftover classes are ordered by "is a forward image of", and the maximal
classes become the ground set.
"""

from __future__ import annotations

import functools
import itertools
from collections import namedtuple
from operator import attrgetter

from .finchains import (
    FinChain,
    FiniteSet,
    SetMap,
    SimplexMap,
    _Value,
    _fill,
    _setmap,
    chain_violations,
    label_key,
    precompose,
)


def _block_key(block):
    return (len(block), tuple(label_key(x) for x in block))


def _canonical_blocks(blocks):
    uniq = {tuple(sorted(b, key=label_key)) for b in blocks}
    return tuple(sorted(uniq, key=_block_key))


def is_forest(ground: FiniteSet, blocks) -> bool:
    """Both forest conditions: all singletons present, blocks disjoint or nested."""
    blocks = [frozenset(b) for b in blocks]
    for b in blocks:
        if not b:
            return False
        if not b <= set(ground.labels):
            raise ValueError(f"block {sorted(b, key=label_key)} is not a subset of the ground set")
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

    def __init__(self, ground: FiniteSet, blocks):
        blocks = _canonical_blocks(blocks)
        if not is_forest(ground, blocks):
            raise ValueError("not a forest: missing singleton or overlapping blocks")
        _fill(self, ground, blocks)

    def block_sets(self):
        return [frozenset(b) for b in self.blocks]

    def non_singleton_blocks(self):
        return tuple(b for b in self.blocks if len(b) > 1)

    def __le__(self, other):
        if self.ground != other.ground:
            raise ValueError("forests on different ground sets are incomparable")
        return set(self.blocks) <= set(other.blocks)

    def __repr__(self):
        return f"Forest({list(self.ground.labels)!r}, {[list(b) for b in self.blocks]!r})"


def _forest(ground: FiniteSet, blocks: tuple) -> Forest:
    """The forest with these canonical blocks, unchecked."""
    return _fill(object.__new__(Forest), ground, blocks)


def minimal_forest(ground: FiniteSet) -> Forest:
    return _forest(ground, tuple((x,) for x in ground.labels))


@functools.lru_cache(maxsize=65536)
def pullback(j: SetMap, psi: Forest) -> Forest:
    """Intersect a forest on T with the image of an injection j: S -> T.

    Memoised: equal arguments share one immutable result.
    """
    if not j.is_injective():
        raise ValueError("pullback requires an injective map")
    if psi.ground != j.target:
        raise ValueError("forest is not on the target of the injection")
    # blocks as sorted source positions, which sort canonically by (size, positions)
    labels, names = j.target.labels, j.source.labels
    back = {labels[t]: s for s, t in enumerate(j.table)}
    pulled = {tuple(sorted([back[x] for x in block if x in back])) for block in psi.blocks}
    pulled.discard(())
    return _forest(j.source, tuple([tuple([names[s] for s in block])
                                    for block in sorted(pulled, key=lambda b: (len(b), b))]))


def trees_of(phi: Forest):
    """Split a forest into its trees: (root block, tree as a forest on the root)."""
    blocks = phi.block_sets()
    roots = [b for b in phi.blocks if not any(frozenset(b) < c for c in blocks)]
    return [(root, Forest(FiniteSet(root), [b for b in blocks if b <= frozenset(root)]))
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
    _fields = attrgetter("elements", "less")

    def __init__(self, elements, less):
        elements = tuple(sorted(set(elements), key=label_key))
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
    ground = FiniteSet(name(m) for m in maximal)
    blocks = set()
    for v in p.elements:
        blocks.add(tuple(sorted((name(m) for m in maximal if p.leq(v, m)), key=label_key)))
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
    ground = FiniteSet(range(1, n + 1))
    points = [tuple(b for b in range(n) if mask >> b & 1) for mask in range(1 << n)]
    block = [tuple(ground.labels[b] for b in p) for p in points]
    order = sorted(range(1 << n), key=lambda m: (len(points[m]), points[m]))
    rank = {mask: r for r, mask in enumerate(order)}
    forests = [_forest(ground, tuple([block[m] for m in sorted(f, key=rank.__getitem__)]))
               for f in _mask_forests(n)]
    return sorted(forests, key=lambda f: (len(f.blocks), f.blocks))


def forest_count(n: int) -> int:
    return len(enumerate_forests(n))


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
        return _fill(object.__new__(cls), forest, forest, tuple([(b, b) for b in forest.blocks]))

    def then(self, other: "ForMorphism") -> "ForMorphism":
        # the pairs keep self's order, which is the canonical source order
        if other.source != self.target:
            raise ValueError("morphisms do not compose")
        table = other.mapping()
        return _fill(object.__new__(ForMorphism), self.source, other.target,
                     tuple([(k, table[v]) for k, v in self.block_map]))

    def is_identity(self) -> bool:
        return self.source == self.target and all(k == v for k, v in self.block_map)

    def max_lifts(self):
        """All ground injections j with j(s) in the image block of {s}, least labels first."""
        mapping = self.mapping()
        source, target = self.source.ground, self.target.ground
        choices = [[target.positions[x] for x in mapping[(s,)]] for s in source]
        for combo in itertools.product(*choices):
            yield _setmap(source, target, combo)

    @functools.lru_cache(maxsize=65536)
    def signature(self) -> frozenset:
        """The pullback forests of all ground lifts: the quotient-category identity card.

        Two morphisms with equal signatures are identified in the forest
        category, whose hom-sets remember only the pullback of the target
        forest along the underlying injection.  Memoised per equal morphism.
        """
        return frozenset(pullback(j, self.target) for j in self.max_lifts())

    def canonical_lift(self) -> SetMap:
        """Deterministic ground injection: least available label in each image block."""
        return next(self.max_lifts())

    def __repr__(self):
        return f"ForMorphism({self.source!r} -> {self.target!r})"


def morphism_violations(f: ForMorphism) -> list[str]:
    """Diagnostics for every violated morphism law (empty list iff f is a morphism)."""
    problems = []
    mapping = f.mapping()
    if set(mapping) != set(f.source.blocks):
        problems.append("block map is not total on the source blocks")
        return problems
    if not set(mapping.values()) <= set(f.target.blocks):
        problems.append("block map hits a non-block")
        return problems
    if len(set(mapping.values())) != len(mapping):
        problems.append("block map is not injective")
    sets = {a: (frozenset(a), frozenset(v)) for a, v in mapping.items()}
    for a, b in itertools.combinations(f.source.blocks, 2):
        (sa, ia), (sb, ib) = sets[a], sets[b]
        fault = _pair_fault(sa, sb, ia, ib)
        if fault == "comparability":
            problems.append(f"comparability of {a!r},{b!r} not preserved")
        elif fault:
            problems.append(f"order of {a!r},{b!r} reversed")
    return problems


def _pair_fault(sa, sb, ia, ib):
    """Which law blocks sa, sb with images ia, ib break: "comparability", "order" or None."""
    comparable = sa <= sb or sb <= sa
    if comparable != (ia <= ib or ib <= ia):
        return "comparability"
    if comparable and (sa >= sb) != (ia >= ib):
        return "order"
    return None


def morphisms_equivalent(f: ForMorphism, g: ForMorphism) -> bool:
    """Equality in the quotient forest category (shared endpoints + signatures)."""
    return (
        f.source == g.source
        and f.target == g.target
        and f.signature() == g.signature()
    )


HomCount = namedtuple("HomCount", ["poset_maps", "injection_classes"])


def hom_count(phi: Forest, psi: Forest) -> HomCount:
    """Count morphisms phi -> psi both ways.

    poset_maps counts injective order- and independence-preserving block maps;
    injection_classes counts ground injections modulo equality of pullback
    forests.  The two counts can disagree, which is exactly the subtlety the
    canonical representation resolves in favour of poset maps.
    """
    src_blocks = list(phi.blocks)

    def compatible(assigned, a, b):
        return not any(b2 == b or _pair_fault(set(a), set(a2), set(b), set(b2))
                       for a2, b2 in assigned.items())

    def extend(assigned):
        """The number of lawful extensions of a partial map on the first blocks."""
        if len(assigned) == len(src_blocks):
            return 1
        a = src_blocks[len(assigned)]
        return sum(extend({**assigned, a: b}) for b in psi.blocks if compatible(assigned, a, b))

    classes = set()
    for values in itertools.permutations(psi.ground.labels, len(phi.ground)):
        j = SetMap(phi.ground, psi.ground, dict(zip(phi.ground, values)))
        pulled = pullback(j, psi)
        if set(phi.blocks) <= set(pulled.blocks):
            classes.add(pulled)
    return HomCount(extend({}), len(classes))


# -- the level construction ----------------------------------------------------


class _LevelData:
    """Quotient classes of a chain: the scaffolding behind the level forest.

    Points are flat integers, level by level in label order.  A class is a run
    of points glued along singleton fibers, numbered by its earliest point;
    last[c] is its deepest point as (level, position), blocks[c] its block and
    order lists the classes in the forest's canonical block order.
    """

    __slots__ = ("offsets", "class_of", "last", "blocks", "order", "forest")

    def __init__(self, chain: FinChain):
        problems = chain_violations(chain)
        if problems:
            raise ValueError("; ".join(problems))
        sets = chain.sets
        offsets = [0, *itertools.accumulate(len(s) for s in sets)]

        # glue x ~ f_i(x) exactly when the fiber over f_i(x) is {x}
        class_of, first, last = [], [], []
        for i, s in enumerate(sets):
            fibers = [[] for _ in range(len(s))]
            if i:
                for x, y in enumerate(chain.maps[i - 1].table):
                    fibers[y].append(offsets[i - 1] + x)
            for y, fiber in enumerate(fibers):
                if len(fiber) == 1:
                    c = class_of[fiber[0]]
                    last[c] = (i, y)
                else:
                    c = len(first)
                    first.append(offsets[i] + y)
                    last.append((i, y))
                class_of.append(c)

        # forward images sit below their sources
        forward = [offsets[i + 1] + y for i, f in enumerate(chain.maps) for y in f.table]
        less = set()
        for e, c in enumerate(class_of):
            while e < len(forward):
                e = forward[e]
                if class_of[e] != c:
                    less.add((class_of[e], c))
        if any((b, a) in less for a, b in less):
            raise AssertionError("level order is not antisymmetric")
        lower = {a for a, _ in less}
        maximal = [c for c in range(len(first)) if c not in lower]

        # ground labels: the earliest representative's value, disambiguated by
        # occurrence rank so that degeneracies do not disturb the labels
        points = [x for s in sets for x in s.labels]
        by_value = {}
        for c in maximal:
            by_value.setdefault(points[first[c]], []).append(c)
        labels = {}
        for value, group in by_value.items():
            for rank, c in enumerate(group):
                labels[c] = value if len(group) == 1 else f"{value}#{rank}"
        ground = FiniteSet(labels.values())

        # a class's block: the maximal classes at or above it, as ground positions
        above = [[] for _ in first]
        for a, b in less | {(c, c) for c in maximal}:
            if b in labels:
                above[a].append(ground.positions[labels[b]])
        keys = [tuple(sorted(p)) for p in above]
        if len(set(keys)) != len(keys):
            raise AssertionError("level quotient has a repeated maximal fiber")
        order = sorted(range(len(keys)), key=lambda c: (len(keys[c]), keys[c]))
        names = ground.labels
        blocks = [tuple([names[p] for p in key]) for key in keys]

        self.offsets, self.class_of, self.last, self.blocks, self.order = (
            offsets, class_of, last, blocks, order)
        self.forest = _forest(ground, tuple([blocks[c] for c in order]))


@functools.lru_cache(maxsize=65536)
def _level_data(chain: FinChain) -> _LevelData:
    return _LevelData(chain)


def level_functor_object(chain: FinChain) -> Forest:
    """The forest of a chain: glue singleton fibers, order by forward images."""
    return _level_data(chain).forest


@functools.lru_cache(maxsize=65536)
def level_functor_morphism(sm: SimplexMap) -> ForMorphism:
    """The forest morphism of a chain morphism.

    Surjective reindexings induce the identity.  For an injective delta the
    block map sends a class to the class of the image of its deepest
    representative; general deltas compose the two.  Composition of the
    results holds in the quotient category (compare with morphisms_equivalent
    or signatures), not as strict block-map equality.  The morphism laws and
    degeneracy invariance are checked by checks.check_level_functor, not here.
    Memoised: equal simplex maps share one immutable result, and an invalid
    one raises on every call, since exceptions are not cached.
    """
    problems = sm.violations()
    if problems:
        raise ValueError("; ".join(problems))
    target = _level_data(sm.target)
    image = sorted(set(sm.delta))
    if len(image) == sm.target.level_count + 1:
        return ForMorphism.identity(target.forest)

    # factor delta through its image; the surjective part is the identity.  A
    # point of the image chain sits at the same position of level image[level]
    mid = _level_data(precompose(sm.target, image))
    items = []
    for c in mid.order:
        level, y = mid.last[c]
        items.append((mid.blocks[c],
                      target.blocks[target.class_of[target.offsets[image[level]] + y]]))
    return _fill(object.__new__(ForMorphism), mid.forest, target.forest, tuple(items))


# -- export -------------------------------------------------------------------

def forest_to_json(phi: Forest) -> dict:
    return {"ground": list(phi.ground.labels), "blocks": [list(b) for b in phi.blocks]}


def forest_from_json(data) -> Forest:
    return Forest(FiniteSet(data["ground"]), [tuple(b) for b in data["blocks"]])


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
