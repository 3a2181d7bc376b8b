"""Finite sets, maps between them, and composable chains with simplicial operators.

A chain is a sequence S_0 -> S_1 -> ... -> S_k of total maps of finite sets.
Chains support face operators (compose adjacent maps, or drop an end) and
degeneracy operators (insert an identity map), satisfying the simplicial
identities.  A SimplexMap is a monotone reindexing [k] -> [l] exhibiting one
chain as the reindexing of another; these are the morphisms the level
construction in `forests` is functorial over.
"""

from __future__ import annotations

from operator import attrgetter, le, sub


def label_key(label):
    """Sort key valid for mixed int/str label sets."""
    return (label.__class__.__name__, label)


_set = object.__setattr__


class _Value:
    """An immutable value: equal to another of its class with equal _fields.

    _fields is an attrgetter of the fields that make the value; the hash of
    (class name, fields) is computed on first use and kept.
    """

    __slots__ = ("_hash",)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        return self is other or (type(other) is type(self)
                                 and self._fields(self) == self._fields(other))

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            _set(self, "_hash", hash((type(self).__name__, self._fields(self))))
            return self._hash


class FiniteSet(_Value):
    """Ordered finite set of labels; order is canonical so equality is structural.

    positions maps each label to its index in labels.
    """

    __slots__ = ("labels", "positions", "_identity")
    _fields = attrgetter("labels")

    def __init__(self, labels=()):
        labels = tuple(sorted(labels, key=label_key))
        for a, b in zip(labels, labels[1:]):
            if a == b:
                raise ValueError(f"duplicate label {a!r}")
        _fill(self, labels, {x: i for i, x in enumerate(labels)})

    def __iter__(self):
        return iter(self.labels)

    def __len__(self):
        return len(self.labels)

    def __contains__(self, label):
        return label in self.labels

    def __repr__(self):
        return f"FiniteSet({list(self.labels)!r})"


class SetMap(_Value):
    """A total map of finite sets, stored as a position table.

    table[i] is the position in target.labels of the image of source.labels[i];
    pairs, as_dict and calls are views of it.  The constructor validates a
    label assignment; maps built inside the package compose tables unchecked.
    """

    __slots__ = ("source", "target", "table")
    _fields = attrgetter("table", "source", "target")

    def __init__(self, source: FiniteSet, target: FiniteSet, assignment):
        assignment = dict(assignment)
        if set(assignment) != set(source.labels):
            raise ValueError("assignment must be defined exactly on the source labels")
        for value in assignment.values():
            if value not in target:
                raise ValueError(f"image label {value!r} not in target")
        _fill(self, source, target, tuple(target.positions[assignment[x]] for x in source))

    @classmethod
    def identity(cls, s: FiniteSet) -> "SetMap":
        """The identity of s, built once per set."""
        try:
            return s._identity
        except AttributeError:
            _set(s, "_identity", _setmap(s, s, tuple(range(len(s)))))
            return s._identity

    @property
    def pairs(self):
        labels = self.target.labels
        return tuple(zip(self.source.labels, [labels[j] for j in self.table]))

    def __call__(self, label):
        return self.target.labels[self.table[self.source.positions[label]]]

    def as_dict(self):
        return dict(self.pairs)

    def then(self, other: "SetMap") -> "SetMap":
        """Diagrammatic composite: first self, then other."""
        if other.source is not self.target and other.source != self.target:
            raise ValueError("maps do not compose")
        table = other.table
        return _setmap(self.source, other.target, tuple([table[i] for i in self.table]))

    def fiber(self, label):
        return tuple(k for k, v in self.pairs if v == label)

    def image(self):
        labels = self.target.labels
        return frozenset(labels[j] for j in self.table)

    def is_injective(self) -> bool:
        return len(set(self.table)) == len(self.table)

    def is_identity(self) -> bool:
        return self.source == self.target and self.table == tuple(range(len(self.table)))

    def __repr__(self):
        return f"SetMap({self.source!r}, {self.target!r}, {self.as_dict()!r})"


def _fill(obj, *values):
    """Set the slots of obj's class, in order: construction without the immutability guard."""
    for name, value in zip(type(obj).__slots__, values):
        _set(obj, name, value)
    return obj


_map_source, _map_target, _map_table = (SetMap.source.__set__, SetMap.target.__set__,
                                        SetMap.table.__set__)


def _setmap(source: FiniteSet, target: FiniteSet, table: tuple) -> SetMap:
    """The map with this position table, unchecked: _fill without its loop, since
    the simplicial checks build hundreds of thousands of maps and chains."""
    f = object.__new__(SetMap)
    _map_source(f, source)
    _map_target(f, target)
    _map_table(f, table)
    return f


class FinChain(_Value):
    """A composable chain S_0 -> ... -> S_k of maps of finite sets.

    Construction enforces shape only (len(maps) == len(sets) - 1); whether the
    maps actually compose is the job of validate_chain, so malformed chains can
    be inspected and diagnosed rather than being unrepresentable.
    """

    __slots__ = ("sets", "maps")
    _fields = attrgetter("sets", "maps")

    def __init__(self, sets, maps=()):
        sets = tuple(sets)
        maps = tuple(maps)
        if not sets:
            raise ValueError("a chain needs at least one set")
        if len(maps) != len(sets) - 1:
            raise ValueError("a chain on k+1 sets needs exactly k maps")
        _fill(self, sets, maps)

    @property
    def level_count(self) -> int:
        return len(self.sets) - 1

    def __repr__(self):
        sizes = "->".join(str(len(s)) for s in self.sets)
        return f"FinChain({sizes})"


_chain_sets, _chain_maps = FinChain.sets.__set__, FinChain.maps.__set__


def _chain(sets: tuple, maps: tuple) -> FinChain:
    """The chain on these tuples, unchecked (slot setters as in _setmap)."""
    chain = object.__new__(FinChain)
    _chain_sets(chain, sets)
    _chain_maps(chain, maps)
    return chain


def identity_chain(s: FiniteSet) -> FinChain:
    return _chain((s,), ())


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


def _table(chain: FinChain, start: int, stop: int) -> tuple:
    """Position table of the composite S_start -> S_stop of a valid chain."""
    table = tuple(range(len(chain.sets[start])))
    for f in chain.maps[start:stop]:
        step = f.table
        table = tuple([step[i] for i in table])
    return table


def _composite(chain: FinChain, start: int, stop: int) -> SetMap:
    """The composite S_start -> S_stop along a valid chain (identity if start == stop)."""
    return chain.maps[start] if stop == start + 1 else _setmap(
        chain.sets[start], chain.sets[stop], _table(chain, start, stop))


def face(chain: FinChain, i: int) -> FinChain:
    """Face operator: outer faces drop an end set, inner faces compose two maps."""
    k = len(chain.sets) - 1
    if k < 1:
        raise IndexError("face needs a chain with at least one map")
    if not 0 <= i <= k:
        raise IndexError(f"face index {i} out of range 0..{k}")
    if i == 0:
        return _chain(chain.sets[1:], chain.maps[1:])
    if i == k:
        return _chain(chain.sets[:-1], chain.maps[:-1])
    maps = (
        chain.maps[: i - 1]
        + (chain.maps[i - 1].then(chain.maps[i]),)
        + chain.maps[i + 1 :]
    )
    return _chain(chain.sets[:i] + chain.sets[i + 1 :], maps)


def degeneracy(chain: FinChain, i: int) -> FinChain:
    """Degeneracy operator: insert the identity map at position i."""
    k = len(chain.sets) - 1
    if not 0 <= i <= k:
        raise IndexError(f"degeneracy index {i} out of range 0..{k}")
    s = chain.sets[i]
    sets = chain.sets[: i + 1] + (s,) + chain.sets[i + 1 :]
    maps = chain.maps[:i] + (SetMap.identity(s),) + chain.maps[i:]
    return _chain(sets, maps)


def precompose(chain: FinChain, delta) -> FinChain:
    """The reindexed chain chain∘delta for a valid chain and a monotone delta: [k] -> [l]."""
    delta = tuple(delta)
    sets = tuple([chain.sets[j] for j in delta])
    maps = tuple([_composite(chain, a, b) for a, b in zip(delta, delta[1:])])
    return _chain(sets, maps)


class SimplexMap(_Value):
    """A morphism of chains: monotone delta: [k] -> [l] with source = target∘delta."""

    __slots__ = ("delta", "source", "target")
    _fields = attrgetter("delta", "source", "target")

    def __init__(self, delta, source: FinChain, target: FinChain):
        _fill(self, tuple(delta), source, target)

    def violations(self) -> list[str]:
        problems = []
        source, target, delta = self.source, self.target, self.delta
        k, l = source.level_count, target.level_count
        if len(delta) != k + 1:
            problems.append("delta length != source level count + 1")
            return problems
        if any(not 0 <= j <= l for j in delta):
            problems.append("delta image out of range")
            return problems
        if any(a > b for a, b in zip(delta, delta[1:])):
            problems.append("delta is not weakly monotone")
            return problems
        bad = chain_violations(source) + chain_violations(target)
        if bad:
            problems.extend(bad)
            return problems
        # compare tables: the source's maps against the target's composites along delta
        if any(s != target.sets[j] for s, j in zip(source.sets, delta)) or any(
                f.table != _table(target, a, b)
                for f, a, b in zip(source.maps, delta, delta[1:])):
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

    def __repr__(self):
        return f"SimplexMap({list(self.delta)!r}: {self.source!r} -> {self.target!r})"


# -- enumeration: one chain per relabelling class ----------------------------

def _multisets(kinds, budget):
    """Multisets of kinds, in kind order, whose node counts fit under budget.

    kinds holds (tree type, nodes per level) pairs; yields (types, budget left).
    """
    yield (), budget
    kinds = [entry for entry in kinds if all(map(le, entry[1], budget))]
    for j, (kind, counts) in enumerate(kinds):
        for rest, unused in _multisets(kinds[j:], tuple(map(sub, budget, counts))):
            yield (kind,) + rest, unused


def _types(level: int, m: int):
    """Tree types rooted at `level` with at most m nodes per level, with their node counts."""
    if level == 0:
        return [((), (1,))]
    return [(children, tuple(m - u for u in unused) + (1,))
            for children, unused in _multisets(_types(level - 1, m), (m,) * level)]


def _realise(roots, k: int, ranges) -> FinChain:
    """The chain with these level-k tree types, each level labelled 0.. top-down.

    ranges[m] is the set {0, ..., m-1}, shared by every chain of the enumeration.
    """
    levels, tables = [roots], []
    for _ in range(k):
        tables.insert(0, tuple([p for p, node in enumerate(levels[0]) for _ in node]))
        levels.insert(0, [child for node in levels[0] for child in node])
    sets = tuple([ranges[len(nodes)] for nodes in levels])
    return _chain(sets, tuple([_setmap(sets[i], sets[i + 1], table)
                               for i, table in enumerate(tables)]))


def enumerate_chains(max_level: int, max_size: int):
    """One chain per level-wise relabelling class with k <= max_level, 1 <= |S_i| <= max_size.

    A chain up to relabelling is a multiset of levelled rooted trees: the roots
    are the points of S_k, the children of a point of S_{i+1} its fiber in S_i.
    A type lists its children's types in the order of the types one level
    down, so each multiset is built exactly once (orderly generation; McKay,
    J. Algorithms 26, 1998) and no two representatives are relabellings of
    each other.  Every operation in this package commutes with relabelling, so
    a property verified on the representatives holds for every chain in range.
    Order: by k, then by (|S_0|, ..., |S_k|), then by the multiset of types.
    """
    ranges = [FiniteSet(range(m)) for m in range(max_size + 1)]
    for k in range(max_level + 1):
        forests = [(tuple(max_size - u for u in unused), roots)
                   for roots, unused in _multisets(_types(k, max_size), (max_size,) * (k + 1))]
        for sizes, roots in sorted(forests, key=lambda forest: forest[0]):
            if min(sizes) >= 1:
                yield _realise(roots, k, ranges)


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


def _check_labels(i: int, raw: list):
    """A label is an int or a str, and a map key must name one label of the set."""
    ints = {str(x) for x in raw if type(x) is int}
    for j, x in enumerate(raw):
        if type(x) not in (int, str):
            raise ValueError(f"chain JSON sets[{i}][{j}] is {x!r}: "
                             "a label must be an integer or a string")
        if type(x) is str and x in ints:
            raise ValueError(f"chain JSON sets[{i}][{j}] is {x!r}: the set also holds the "
                             f"integer {x}, and a map key cannot tell them apart")


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
    for i, raw in enumerate(raw_sets):
        _check_labels(i, raw)
    sets = [FiniteSet(s) for s in raw_sets]
    maps = [None] * (len(sets) - 1)
    for n, entry in enumerate(entries):
        i, assignment = entry.get("from"), entry.get("assignment")
        if type(i) is not int or not 0 <= i < len(maps) or maps[i] is not None:
            raise ValueError(f'chain JSON maps[{n}]["from"] is {i!r}: each map index '
                             f'0 <= from < {len(maps)} must appear once')
        if not isinstance(assignment, dict):
            raise ValueError(f'chain JSON maps[{n}]["assignment"] must be an object')
        for k, v in assignment.items():
            if type(v) not in (int, str):
                raise ValueError(f'chain JSON maps[{n}]["assignment"]["{k}"] is {v!r}: '
                                 "an image label must be an integer or a string")
        src, tgt = sets[i], sets[i + 1]
        maps[i] = SetMap(src, tgt, {_decode_label(k, src.labels): v for k, v in assignment.items()})
    if any(m is None for m in maps):
        raise ValueError("missing map in chain JSON")
    return FinChain(sets, maps)
