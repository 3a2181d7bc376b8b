"""Finite sets, maps between them, and composable chains with simplicial operators.

A chain is a sequence S_0 -> S_1 -> ... -> S_k of total maps of finite sets.
Chains support face operators (compose adjacent maps, or drop an end) and
degeneracy operators (insert an identity map), satisfying the simplicial
identities.  A SimplexMap is a monotone reindexing [k] -> [l] exhibiting one
chain as the reindexing of another; these are the morphisms the level
construction in `forests` is functorial over.
"""

from __future__ import annotations

import itertools


def label_key(label):
    """Sort key valid for mixed int/str label sets."""
    return (label.__class__.__name__, label)


class FiniteSet:
    """Ordered finite set of labels; order is canonical so equality is structural."""

    __slots__ = ("labels",)

    def __init__(self, labels=()):
        labels = tuple(sorted(labels, key=label_key))
        for a, b in zip(labels, labels[1:]):
            if a == b:
                raise ValueError(f"duplicate label {a!r}")
        object.__setattr__(self, "labels", labels)

    def __setattr__(self, name, value):
        raise AttributeError("FiniteSet is immutable")

    def __iter__(self):
        return iter(self.labels)

    def __len__(self):
        return len(self.labels)

    def __contains__(self, label):
        return label in self.labels

    def __eq__(self, other):
        return isinstance(other, FiniteSet) and self.labels == other.labels

    def __hash__(self):
        return hash(("FiniteSet", self.labels))

    def __repr__(self):
        return f"FiniteSet({list(self.labels)!r})"


class SetMap:
    """A total map of finite sets, stored as explicit label assignments."""

    __slots__ = ("source", "target", "pairs")

    def __init__(self, source: FiniteSet, target: FiniteSet, assignment):
        assignment = dict(assignment)
        if set(assignment) != set(source.labels):
            raise ValueError("assignment must be defined exactly on the source labels")
        for value in assignment.values():
            if value not in target:
                raise ValueError(f"image label {value!r} not in target")
        pairs = tuple((x, assignment[x]) for x in source.labels)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "pairs", pairs)

    def __setattr__(self, name, value):
        raise AttributeError("SetMap is immutable")

    @classmethod
    def identity(cls, s: FiniteSet) -> "SetMap":
        return cls(s, s, {x: x for x in s})

    def __call__(self, label):
        for k, v in self.pairs:
            if k == label:
                return v
        raise KeyError(label)

    def as_dict(self):
        return dict(self.pairs)

    def then(self, other: "SetMap") -> "SetMap":
        """Diagrammatic composite: first self, then other."""
        if other.source != self.target:
            raise ValueError("maps do not compose")
        table = other.as_dict()
        return SetMap(self.source, other.target, {k: table[v] for k, v in self.pairs})

    def fiber(self, label):
        return tuple(k for k, v in self.pairs if v == label)

    def image(self):
        return frozenset(v for _, v in self.pairs)

    def is_injective(self) -> bool:
        return len(self.image()) == len(self.source)

    def is_identity(self) -> bool:
        return self.source == self.target and all(k == v for k, v in self.pairs)

    def __eq__(self, other):
        return (
            isinstance(other, SetMap)
            and self.source == other.source
            and self.target == other.target
            and self.pairs == other.pairs
        )

    def __hash__(self):
        return hash(("SetMap", self.source, self.target, self.pairs))

    def __repr__(self):
        return f"SetMap({self.source!r}, {self.target!r}, {dict(self.pairs)!r})"


class FinChain:
    """A composable chain S_0 -> ... -> S_k of maps of finite sets.

    Construction enforces shape only (len(maps) == len(sets) - 1); whether the
    maps actually compose is the job of validate_chain, so malformed chains can
    be inspected and diagnosed rather than being unrepresentable.
    """

    __slots__ = ("sets", "maps")

    def __init__(self, sets, maps=()):
        sets = tuple(sets)
        maps = tuple(maps)
        if not sets:
            raise ValueError("a chain needs at least one set")
        if len(maps) != len(sets) - 1:
            raise ValueError("a chain on k+1 sets needs exactly k maps")
        object.__setattr__(self, "sets", sets)
        object.__setattr__(self, "maps", maps)

    def __setattr__(self, name, value):
        raise AttributeError("FinChain is immutable")

    @property
    def level_count(self) -> int:
        return len(self.sets) - 1

    def __eq__(self, other):
        return isinstance(other, FinChain) and self.sets == other.sets and self.maps == other.maps

    def __hash__(self):
        return hash(("FinChain", self.sets, self.maps))

    def __repr__(self):
        sizes = "->".join(str(len(s)) for s in self.sets)
        return f"FinChain({sizes})"


def identity_chain(s: FiniteSet) -> FinChain:
    return FinChain((s,), ())


def chain_violations(chain: FinChain) -> list[str]:
    """Diagnostics for every violated chain invariant (empty list iff valid)."""
    problems = []
    for i, f in enumerate(chain.maps):
        if f.source != chain.sets[i]:
            problems.append(f"map {i} has source != S_{i}")
        if f.target != chain.sets[i + 1]:
            problems.append(f"map {i} has target != S_{i + 1}")
    return problems


def validate_chain(chain: FinChain) -> bool:
    return not chain_violations(chain)


def _composite(chain: FinChain, start: int, stop: int) -> SetMap:
    """The composite S_start -> S_stop along the chain (identity if start == stop)."""
    f = SetMap.identity(chain.sets[start])
    for i in range(start, stop):
        f = f.then(chain.maps[i])
    return f


def face(chain: FinChain, i: int) -> FinChain:
    """Face operator: outer faces drop an end set, inner faces compose two maps."""
    k = chain.level_count
    if k < 1:
        raise IndexError("face needs a chain with at least one map")
    if not 0 <= i <= k:
        raise IndexError(f"face index {i} out of range 0..{k}")
    if i == 0:
        return FinChain(chain.sets[1:], chain.maps[1:])
    if i == k:
        return FinChain(chain.sets[:-1], chain.maps[:-1])
    maps = (
        chain.maps[: i - 1]
        + (chain.maps[i - 1].then(chain.maps[i]),)
        + chain.maps[i + 1 :]
    )
    return FinChain(chain.sets[:i] + chain.sets[i + 1 :], maps)


def degeneracy(chain: FinChain, i: int) -> FinChain:
    """Degeneracy operator: insert the identity map at position i."""
    k = chain.level_count
    if not 0 <= i <= k:
        raise IndexError(f"degeneracy index {i} out of range 0..{k}")
    s = chain.sets[i]
    sets = chain.sets[: i + 1] + (s,) + chain.sets[i + 1 :]
    maps = chain.maps[:i] + (SetMap.identity(s),) + chain.maps[i:]
    return FinChain(sets, maps)


def precompose(chain: FinChain, delta) -> FinChain:
    """The reindexed chain chain∘delta for a monotone delta: [k] -> [l]."""
    delta = tuple(delta)
    sets = tuple(chain.sets[j] for j in delta)
    maps = tuple(_composite(chain, delta[t], delta[t + 1]) for t in range(len(delta) - 1))
    return FinChain(sets, maps)


class SimplexMap:
    """A morphism of chains: monotone delta: [k] -> [l] with source = target∘delta."""

    __slots__ = ("delta", "source", "target")

    def __init__(self, delta, source: FinChain, target: FinChain):
        object.__setattr__(self, "delta", tuple(delta))
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)

    def __setattr__(self, name, value):
        raise AttributeError("SimplexMap is immutable")

    def violations(self) -> list[str]:
        problems = []
        k, l = self.source.level_count, self.target.level_count
        if len(self.delta) != k + 1:
            problems.append("delta length != source level count + 1")
            return problems
        if any(not 0 <= j <= l for j in self.delta):
            problems.append("delta image out of range")
            return problems
        if any(a > b for a, b in zip(self.delta, self.delta[1:])):
            problems.append("delta is not weakly monotone")
            return problems
        bad = chain_violations(self.source) + chain_violations(self.target)
        if bad:
            problems.extend(bad)
            return problems
        if precompose(self.target, self.delta) != self.source:
            problems.append("source chain != target chain reindexed along delta")
        return problems

    def is_valid(self) -> bool:
        return not self.violations()

    @classmethod
    def identity(cls, chain: FinChain) -> "SimplexMap":
        return cls(range(chain.level_count + 1), chain, chain)

    @classmethod
    def face(cls, chain: FinChain, i: int) -> "SimplexMap":
        """The canonical morphism face(chain, i) -> chain."""
        k = chain.level_count
        delta = tuple(t for t in range(k + 1) if t != i)
        return cls(delta, face(chain, i), chain)

    @classmethod
    def degeneracy(cls, chain: FinChain, i: int) -> "SimplexMap":
        """The canonical morphism degeneracy(chain, i) -> chain."""
        k = chain.level_count
        delta = tuple(t if t <= i else t - 1 for t in range(k + 2))
        return cls(delta, degeneracy(chain, i), chain)

    def then(self, other: "SimplexMap") -> "SimplexMap":
        if other.source != self.target:
            raise ValueError("simplex maps do not compose")
        delta = tuple(other.delta[j] for j in self.delta)
        return SimplexMap(delta, self.source, other.target)

    def is_surjective(self) -> bool:
        return set(self.delta) == set(range(self.target.level_count + 1))

    def __eq__(self, other):
        return (
            isinstance(other, SimplexMap)
            and self.delta == other.delta
            and self.source == other.source
            and self.target == other.target
        )

    def __hash__(self):
        return hash(("SimplexMap", self.delta, self.source, self.target))

    def __repr__(self):
        return f"SimplexMap({list(self.delta)!r}: {self.source!r} -> {self.target!r})"


# -- enumeration of representative chains -----------------------------------

def _fiber_patterns(a: int, b: int):
    """Maps [a] -> [b] up to relabelling both sides: weakly decreasing fiber sizes."""

    def parts(total, slots, cap):
        if slots == 0:
            if total == 0:
                yield ()
            return
        for first in range(min(total, cap), -1, -1):
            for rest in parts(total - first, slots - 1, first):
                yield (first,) + rest

    for sizes in parts(a, b, a):
        assignment = {}
        src = 0
        for tgt, size in enumerate(sizes):
            for _ in range(size):
                assignment[src] = tgt
                src += 1
        yield assignment


def _canonical_key(chain: FinChain):
    """Cheap canonical form under level-wise relabelling (sound, not complete)."""
    relabel = {x: x for x in chain.sets[0]}
    key = [tuple(len(s) for s in chain.sets)]
    for i, f in enumerate(chain.maps):
        sig = {}
        for y in chain.sets[i + 1]:
            sig[y] = tuple(sorted(relabel[x] for x in f.fiber(y)))
        order = sorted(chain.sets[i + 1], key=lambda y: (not sig[y], sig[y], label_key(y)))
        new = {y: j for j, y in enumerate(order)}
        key.append(tuple(sorted((relabel[x], new[f(x)]) for x in chain.sets[i])))
        relabel = new
    return tuple(key)


def enumerate_chains(max_level: int, max_size: int):
    """Representatives of chains with k <= max_level and |S_i| <= max_size.

    All operations in this package commute with level-wise relabelling, so
    properties verified on these representatives hold for every chain in the
    range.  The first map is normalized, and a chain whose canonical key was
    already seen is skipped.
    """
    seen = set()
    for k in range(max_level + 1):
        for sizes in itertools.product(range(1, max_size + 1), repeat=k + 1):
            sets = [FiniteSet(range(n)) for n in sizes]
            if k == 0:
                yield FinChain(sets)
                continue
            first_maps = [
                SetMap(sets[0], sets[1], pat) for pat in _fiber_patterns(sizes[0], sizes[1])
            ]
            rest_choices = [
                [SetMap(sets[i], sets[i + 1], dict(zip(sets[i], values)))
                 for values in itertools.product(sets[i + 1].labels, repeat=sizes[i])]
                for i in range(1, k)
            ]
            for f0 in first_maps:
                for rest in itertools.product(*rest_choices):
                    chain = FinChain(sets, (f0,) + rest)
                    key = _canonical_key(chain)
                    if key in seen:
                        continue
                    seen.add(key)
                    yield chain


# -- JSON --------------------------------------------------------------------

def chain_to_json(chain: FinChain) -> dict:
    return {
        "sets": [list(s.labels) for s in chain.sets],
        "maps": [
            {"from": i, "assignment": {str(k): v for k, v in f.pairs}}
            for i, f in enumerate(chain.maps)
        ],
    }


def _decode_label(key: str, labels):
    if key in labels:
        return key
    try:
        as_int = int(key)
    except ValueError:
        raise ValueError(f"unknown label {key!r}")
    if as_int in labels:
        return as_int
    raise ValueError(f"unknown label {key!r}")


def chain_from_json(data) -> FinChain:
    """Decode a chain; a malformed shape raises one ValueError naming the field."""
    if not isinstance(data, dict):
        raise ValueError("chain JSON must be an object")
    raw_sets, entries = data["sets"], data.get("maps", [])
    if not (isinstance(raw_sets, list) and all(
            isinstance(s, list) and not any(isinstance(x, (list, dict)) for x in s)
            for s in raw_sets)):
        raise ValueError('chain JSON "sets" must be a list of lists of labels')
    if not (isinstance(entries, list) and all(isinstance(e, dict) for e in entries)):
        raise ValueError('chain JSON "maps" must be a list of objects')
    sets = [FiniteSet(s) for s in raw_sets]
    maps = [None] * (len(sets) - 1)
    for n, entry in enumerate(entries):
        i, assignment = entry.get("from"), entry.get("assignment")
        if type(i) is not int or not 0 <= i < len(maps) or maps[i] is not None:
            raise ValueError(f'chain JSON maps[{n}]["from"] is {i!r}: each map index '
                             f'0 <= from < {len(maps)} must appear once')
        if not isinstance(assignment, dict):
            raise ValueError(f'chain JSON maps[{n}]["assignment"] must be an object')
        src, tgt = sets[i], sets[i + 1]
        maps[i] = SetMap(src, tgt, {_decode_label(k, src.labels): v for k, v in assignment.items()})
    if any(m is None for m in maps):
        raise ValueError("missing map in chain JSON")
    return FinChain(sets, maps)
