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

from .finchains import (
    FinChain,
    FiniteSet,
    SetMap,
    SimplexMap,
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


class Forest:
    """A validated forest; blocks are canonically sorted so equality is structural."""

    __slots__ = ("ground", "blocks")

    def __init__(self, ground: FiniteSet, blocks):
        blocks = _canonical_blocks(blocks)
        if not is_forest(ground, blocks):
            raise ValueError("not a forest: missing singleton or overlapping blocks")
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "blocks", blocks)

    def __setattr__(self, name, value):
        raise AttributeError("Forest is immutable")

    def block_sets(self):
        return [frozenset(b) for b in self.blocks]

    def non_singleton_blocks(self):
        return tuple(b for b in self.blocks if len(b) > 1)

    def __eq__(self, other):
        return isinstance(other, Forest) and self.ground == other.ground and self.blocks == other.blocks

    def __hash__(self):
        return hash(("Forest", self.ground, self.blocks))

    def __le__(self, other):
        if self.ground != other.ground:
            raise ValueError("forests on different ground sets are incomparable")
        return set(self.blocks) <= set(other.blocks)

    def __repr__(self):
        return f"Forest({list(self.ground.labels)!r}, {[list(b) for b in self.blocks]!r})"


def minimal_forest(ground: FiniteSet) -> Forest:
    return Forest(ground, [(x,) for x in ground])


@functools.lru_cache(maxsize=65536)
def pullback(j: SetMap, psi: Forest) -> Forest:
    """Intersect a forest on T with the image of an injection j: S -> T.

    Memoised: equal arguments share one immutable result.
    """
    if not j.is_injective():
        raise ValueError("pullback requires an injective map")
    if psi.ground != j.target:
        raise ValueError("forest is not on the target of the injection")
    inverse = {v: k for k, v in j.pairs}
    blocks = set()
    for block in psi.blocks:
        pulled = tuple(inverse[x] for x in block if x in inverse)
        if pulled:
            blocks.add(pulled)
    return Forest(j.source, blocks)


def trees_of(phi: Forest):
    """Split a forest into its trees: (root block, tree as a forest on the root)."""
    blocks = phi.block_sets()
    roots = [b for b in blocks if not any(b < c for c in blocks)]
    out = []
    for root in sorted(roots, key=lambda b: _block_key(tuple(sorted(b, key=label_key)))):
        members = [b for b in blocks if b <= root]
        out.append((tuple(sorted(root, key=label_key)), Forest(FiniteSet(root), members)))
    return out


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


class ForestPoset:
    """A finite poset with totally ordered down-sets and no repeated maximal fibers.

    `less` holds the strict relation as (smaller, larger) pairs; the input is
    transitively closed at construction.
    """

    __slots__ = ("elements", "less")

    def __init__(self, elements, less):
        elements = tuple(sorted(set(elements), key=label_key))
        less = frozenset(_transitive_closure({(a, b) for a, b in less if a != b}))
        for a, b in less:
            if a not in elements or b not in elements:
                raise ValueError("relation mentions unknown element")
        problems = poset_violations(elements, less)
        if problems:
            raise ValueError("; ".join(problems))
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "less", less)

    def __setattr__(self, name, value):
        raise AttributeError("ForestPoset is immutable")

    def leq(self, a, b) -> bool:
        return a == b or (a, b) in self.less

    def maximal(self):
        return tuple(v for v in self.elements if not any((v, w) in self.less for w in self.elements))

    def __eq__(self, other):
        return isinstance(other, ForestPoset) and self.elements == other.elements and self.less == other.less

    def __hash__(self):
        return hash(("ForestPoset", self.elements, self.less))

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

MAX_ENUMERATION = 6


def _trees_on(labels, cache):
    """All trees on a label set: the full block plus a forest of proper sub-blocks.

    The sub-forest must not contain the full block itself, so it decomposes
    along a partition into at least two parts.
    """
    key = frozenset(labels)
    if key in cache:
        return cache[key]
    labels = tuple(sorted(labels, key=label_key))
    if len(labels) == 1:
        result = [frozenset({labels})]
    else:
        result = []
        for partition in _set_partitions(list(labels)):
            if len(partition) < 2:
                continue
            choices = [_trees_on(tuple(sorted(p, key=label_key)), cache) for p in partition]
            for combo in itertools.product(*choices):
                result.append(frozenset({labels}).union(*combo))
    cache[key] = result
    return result


def _set_partitions(labels):
    labels = list(labels)
    if not labels:
        yield []
        return
    first, rest = labels[0], labels[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def _forests_on(labels, cache):
    """All forests as frozensets of blocks (blocks as sorted tuples)."""
    out = []
    for partition in _set_partitions(labels):
        choices = [_trees_on(tuple(sorted(p, key=label_key)), cache) for p in partition]
        for combo in itertools.product(*choices):
            out.append(frozenset().union(*combo))
    return out


def enumerate_forests(n: int):
    """All forests on {1, ..., n}, canonically sorted, no duplicates."""
    if not 1 <= n <= MAX_ENUMERATION:
        raise ValueError(f"n must satisfy 1 <= n <= {MAX_ENUMERATION}")
    ground = FiniteSet(range(1, n + 1))
    forests = [Forest(ground, blocks) for blocks in _forests_on(ground.labels, {})]
    return sorted(forests, key=lambda f: (len(f.blocks), f.blocks))


def forest_count(n: int) -> int:
    return len(enumerate_forests(n))


# -- morphisms (poset maps) ----------------------------------------------------


class ForMorphism:
    """A morphism of forests as an injective poset map on blocks.

    The map must preserve the reverse-inclusion order and independence
    (incomparable blocks stay incomparable).  Morphisms induced by a ground
    injection j send a block A to the least block containing j(A); not every
    morphism is of that form.  Only library code builds morphisms, so the
    constructor only normalises; morphism_violations checks the laws.
    """

    __slots__ = ("source", "target", "block_map")

    def __init__(self, source: Forest, target: Forest, block_map):
        block_map = dict(block_map)
        items = tuple(sorted(
            ((tuple(sorted(k, key=label_key)), tuple(sorted(v, key=label_key)))
             for k, v in block_map.items()),
            key=lambda kv: _block_key(kv[0]),
        ))
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "block_map", items)

    def __setattr__(self, name, value):
        raise AttributeError("ForMorphism is immutable")

    def mapping(self):
        return dict(self.block_map)

    @classmethod
    def identity(cls, forest: Forest) -> "ForMorphism":
        return cls(forest, forest, {b: b for b in forest.blocks})

    def then(self, other: "ForMorphism") -> "ForMorphism":
        if other.source != self.target:
            raise ValueError("morphisms do not compose")
        table = other.mapping()
        return ForMorphism(self.source, other.target, {k: table[v] for k, v in self.block_map})

    def is_identity(self) -> bool:
        return self.source == self.target and all(k == v for k, v in self.block_map)

    def max_lifts(self):
        """All ground injections j with j(s) in the image block of {s}."""
        mapping = self.mapping()
        ground = list(self.source.ground)
        choices = [mapping[(s,)] for s in ground]
        for combo in itertools.product(*choices):
            yield SetMap(self.source.ground, self.target.ground, dict(zip(ground, combo)))

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
        mapping = self.mapping()
        assignment = {s: mapping[(s,)][0] for s in self.source.ground}
        return SetMap(self.source.ground, self.target.ground, assignment)

    def __eq__(self, other):
        return (
            isinstance(other, ForMorphism)
            and self.source == other.source
            and self.target == other.target
            and self.block_map == other.block_map
        )

    def __hash__(self):
        return hash(("ForMorphism", self.source, self.target, self.block_map))

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
        comparable_src = sa <= sb or sb <= sa
        comparable_img = ia <= ib or ib <= ia
        if comparable_src != comparable_img:
            problems.append(f"comparability of {a!r},{b!r} not preserved")
        elif comparable_src and ((sa >= sb) != (ia >= ib)):
            problems.append(f"order of {a!r},{b!r} reversed")
    return problems


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
    if len(phi.ground) > 5 or len(psi.ground) > 5:
        raise ValueError("hom counting is capped at ground sets of size 5")
    src_blocks = list(phi.blocks)
    tgt_blocks = list(psi.blocks)

    def compatible(assigned, a, b):
        sa, ib = set(a), set(b)
        for a2, b2 in assigned.items():
            if b2 == b:
                return False
            sa2, ib2 = set(a2), set(b2)
            comp_src = sa <= sa2 or sa2 <= sa
            comp_img = ib <= ib2 or ib2 <= ib
            if comp_src != comp_img:
                return False
            if comp_src and ((sa >= sa2) != (ib >= ib2)):
                return False
        return True

    count = 0

    def extend(i, assigned):
        nonlocal count
        if i == len(src_blocks):
            count += 1
            return
        a = src_blocks[i]
        for b in tgt_blocks:
            if compatible(assigned, a, b):
                assigned[a] = b
                extend(i + 1, assigned)
                del assigned[a]

    extend(0, {})

    classes = set()
    for values in itertools.permutations(psi.ground.labels, len(phi.ground)):
        j = SetMap(phi.ground, psi.ground, dict(zip(phi.ground, values)))
        pulled = pullback(j, psi)
        if set(phi.blocks) <= set(pulled.blocks):
            classes.add(pulled)
    return HomCount(count, len(classes))


# -- the level construction ----------------------------------------------------


class _LevelData:
    """Quotient classes of a chain: the scaffolding behind the level forest."""

    __slots__ = ("chain", "class_of", "classes", "less", "maximal", "labels", "forest")

    def __init__(self, chain: FinChain):
        problems = chain_violations(chain)
        if problems:
            raise ValueError("; ".join(problems))
        elems = [(i, x) for i, s in enumerate(chain.sets) for x in s]
        parent = {e: e for e in elems}

        def find(e):
            while parent[e] != e:
                parent[e] = parent[parent[e]]
                e = parent[e]
            return e

        def union(a, b):
            parent[find(a)] = find(b)

        # glue x ~ f_i(x) exactly when the fiber over f_i(x) is {x}
        for i, f in enumerate(chain.maps):
            for y in chain.sets[i + 1]:
                fiber = f.fiber(y)
                if len(fiber) == 1:
                    union((i, fiber[0]), (i + 1, y))

        elem_key = lambda e: (e[0], label_key(e[1]))
        roots = sorted({find(e) for e in elems}, key=elem_key)
        index = {r: n for n, r in enumerate(roots)}
        class_of = {e: index[find(e)] for e in elems}
        classes = [[] for _ in roots]
        for e in elems:
            classes[class_of[e]].append(e)
        classes = [tuple(sorted(c, key=elem_key)) for c in classes]

        # forward images sit below their sources
        less = set()
        for (i, x) in elems:
            ci = class_of[(i, x)]
            y = x
            for j in range(i, chain.level_count):
                y = chain.maps[j](y)
                cj = class_of[(j + 1, y)]
                if cj != ci:
                    less.add((cj, ci))
        for a, b in less:
            if (b, a) in less:
                raise AssertionError("level order is not antisymmetric")

        maximal = [c for c in range(len(classes)) if not any((c, d) in less for d in range(len(classes)))]

        # ground labels: the earliest representative's value, disambiguated by
        # occurrence rank so that degeneracies do not disturb the labels
        earliest = {c: classes[c][0] for c in range(len(classes))}
        by_value = {}
        for c in sorted(maximal, key=lambda c: elem_key(earliest[c])):
            by_value.setdefault(earliest[c][1], []).append(c)
        labels = {}
        for value, group in by_value.items():
            for rank, c in enumerate(group):
                labels[c] = value if len(group) == 1 else f"{value}#{rank}"

        ground = FiniteSet(labels.values())
        blocks = set()
        for c in range(len(classes)):
            block = tuple(sorted(
                (labels[m] for m in maximal if m == c or (c, m) in less), key=label_key
            ))
            blocks.add(block)
        if len(blocks) != len(classes):
            raise AssertionError("level quotient has a repeated maximal fiber")

        self.chain = chain
        self.class_of = class_of
        self.classes = classes
        self.less = less
        self.maximal = maximal
        self.labels = labels
        self.forest = Forest(ground, blocks)

    def block_of(self, c: int):
        return tuple(sorted(
            (self.labels[m] for m in self.maximal if m == c or (c, m) in self.less),
            key=label_key,
        ))


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
    target_data = _level_data(sm.target)
    image = sorted(set(sm.delta))
    if len(image) == sm.target.level_count + 1:
        return ForMorphism.identity(target_data.forest)

    # factor delta through its image; the surjective part is the identity
    mid_data = _level_data(precompose(sm.target, image))
    mapping = {}
    for c, members in enumerate(mid_data.classes):
        level, value = members[-1]
        target_class = target_data.class_of[(image[level], value)]
        mapping[mid_data.block_of(c)] = target_data.block_of(target_class)
    return ForMorphism(mid_data.forest, target_data.forest, mapping)


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
    blocks = phi.block_sets()
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
