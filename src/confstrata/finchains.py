"""Finite sets, maps between them, and composable chains with simplicial operators.

A chain is a sequence S_0 -> S_1 -> ... -> S_k of total maps of finite sets.
Chains support face operators (compose adjacent maps, or drop an end) and
degeneracy operators (insert an identity map), satisfying the simplicial
identities.  A SimplexMap is a monotone reindexing [k] -> [l] exhibiting one
chain as the reindexing of another; these are the morphisms the level
construction in `forests` is functorial over.
"""

from __future__ import annotations

import reprlib
from operator import attrgetter, le, sub

from . import _Value, _fill


def label_key(label):
    """Sort key valid for mixed int/str label sets."""
    return (label.__class__.__name__, label)


class FiniteSet(_Value):
    """Ordered finite set of labels; order is canonical so equality is structural.

    positions maps each label to its index in labels.
    """

    __slots__ = ("labels", "positions")
    _fields = attrgetter("labels")

    def __init__(self, labels=()):
        labels = tuple(sorted(labels, key=label_key))
        for a, b in zip(labels, labels[1:]):
            if a == b:
                raise ValueError(f"duplicate label {reprlib.repr(a)}")
        _fill(self, labels, {x: i for i, x in enumerate(labels)})

    def __iter__(self):
        return iter(self.labels)

    def __len__(self):
        return len(self.labels)

    def __contains__(self, label):
        try:
            return label in self.positions
        except TypeError:  # an unhashable value is in no set
            return False

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
                raise ValueError(f"image label {reprlib.repr(value)} not in target")
        _fill(self, source, target, tuple(target.positions[assignment[x]] for x in source))

    @classmethod
    def identity(cls, s: FiniteSet) -> "SetMap":
        return _setmap(s, s, tuple(range(len(s))))

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

    def is_injective(self) -> bool:
        return len(set(self.table)) == len(self.table)

    def is_identity(self) -> bool:
        return self.source == self.target and self.table == tuple(range(len(self.table)))

    def __repr__(self):
        return f"SetMap({self.source!r}, {self.target!r}, {self.as_dict()!r})"


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
    """A composable chain S_0 -> ... -> S_k of maps of finite sets, held as its sets
    and position tables: tables[i] is the table (as SetMap.table) of S_i -> S_{i+1}.

    FinChain(sets, maps) validates: one ValueError names each map i that does not run
    S_i -> S_{i+1}.  maps is a view that builds the SetMaps on each read.  The chains
    the package builds write tables that compose by construction and are not re-checked.
    """

    __slots__ = ("sets", "tables")

    def __init__(self, sets, maps=()):
        sets = tuple(sets)
        maps = tuple(maps)
        if not sets:
            raise ValueError("a chain needs at least one set")
        if len(maps) != len(sets) - 1:
            raise ValueError("a chain on k+1 sets needs exactly k maps")
        problems = [f"map {i} has {end} != S_{j}"
                    for i, f in enumerate(maps)
                    for end, j in (("source", i), ("target", i + 1))
                    if getattr(f, end) != sets[j]]
        if problems:
            raise ValueError("; ".join(problems))
        _fill(self, sets, tuple([f.table for f in maps]))

    @property
    def maps(self) -> tuple:
        sets = self.sets
        return tuple([_setmap(s, t, table) for s, t, table in zip(sets, sets[1:], self.tables)])

    @property
    def level_count(self) -> int:
        return len(self.sets) - 1

    def __repr__(self):
        sizes = "->".join(str(len(s)) for s in self.sets)
        return f"FinChain({sizes})"


_chain_sets, _chain_tables = FinChain.sets.__set__, FinChain.tables.__set__


def _chain(sets: tuple, tables: tuple) -> FinChain:
    """The chain on these tuples, unchecked (slot setters as in _setmap)."""
    chain = object.__new__(FinChain)
    _chain_sets(chain, sets)
    _chain_tables(chain, tables)
    return chain


def identity_chain(s: FiniteSet) -> FinChain:
    return _chain((s,), ())


def _table(chain: FinChain, start: int, stop: int) -> tuple:
    """Position table of the composite S_start -> S_stop of a chain."""
    if stop == start:
        return tuple(range(len(chain.sets[start])))
    table = chain.tables[start]
    for step in chain.tables[start + 1:stop]:
        table = tuple([step[i] for i in table])
    return table


def _face_delta(k: int, i: int) -> tuple:
    """The delta [k-1] -> [k] of the i-th face of a level-k chain."""
    return tuple(t for t in range(k + 1) if t != i)


def _degeneracy_delta(k: int, i: int) -> tuple:
    """The delta [k+1] -> [k] of the i-th degeneracy of a level-k chain."""
    return tuple(t if t <= i else t - 1 for t in range(k + 2))


def face(chain: FinChain, i: int) -> FinChain:
    """Face operator: outer faces drop an end set, inner faces compose two maps."""
    k = len(chain.sets) - 1
    if k < 1:
        raise IndexError("face needs a chain with at least one map")
    if not 0 <= i <= k:
        raise IndexError(f"face index {i} out of range 0..{k}")
    if i == 0:
        return _chain(chain.sets[1:], chain.tables[1:])
    if i == k:
        return _chain(chain.sets[:-1], chain.tables[:-1])
    tables = chain.tables[: i - 1] + (_table(chain, i - 1, i + 1),) + chain.tables[i + 1 :]
    return _chain(chain.sets[:i] + chain.sets[i + 1 :], tables)


def degeneracy(chain: FinChain, i: int) -> FinChain:
    """Degeneracy operator: insert the identity map at position i."""
    k = len(chain.sets) - 1
    if not 0 <= i <= k:
        raise IndexError(f"degeneracy index {i} out of range 0..{k}")
    s = chain.sets[i]
    sets = chain.sets[: i + 1] + (s,) + chain.sets[i + 1 :]
    return _chain(sets, chain.tables[:i] + (tuple(range(len(s))),) + chain.tables[i:])


def precompose(chain: FinChain, delta) -> FinChain:
    """The reindexed chain chain∘delta for a monotone delta: [k] -> [l]."""
    delta = tuple(delta)
    sets = tuple([chain.sets[j] for j in delta])
    return _chain(sets, tuple([_table(chain, a, b) for a, b in zip(delta, delta[1:])]))


class SimplexMap(_Value):
    """A morphism of chains: monotone delta: [k] -> [l] with source = target∘delta.

    The constructor validates delta and the reindexing (every FinChain composes).
    The canonical maps and composites check nothing: they are simplex maps by
    construction.
    """

    __slots__ = ("delta", "source", "target")

    def __init__(self, delta, source: FinChain, target: FinChain):
        delta = tuple(delta)
        if len(delta) != source.level_count + 1:
            raise ValueError("delta length != source level count + 1")
        if any(not 0 <= j <= target.level_count for j in delta):
            raise ValueError("delta image out of range")
        if any(a > b for a, b in zip(delta, delta[1:])):
            raise ValueError("delta is not weakly monotone")
        # compare tables: the source's maps against the target's composites along delta
        if any(s != target.sets[j] for s, j in zip(source.sets, delta)) or any(
                table != _table(target, a, b)
                for table, a, b in zip(source.tables, delta, delta[1:])):
            raise ValueError("source chain != target chain reindexed along delta")
        _fill(self, delta, source, target)

    @staticmethod
    def identity(chain: FinChain) -> "SimplexMap":
        return _simplex_map(tuple(range(chain.level_count + 1)), chain, chain)

    @staticmethod
    def face(chain: FinChain, i: int) -> "SimplexMap":
        """The canonical morphism face(chain, i) -> chain."""
        return _simplex_map(_face_delta(chain.level_count, i), face(chain, i), chain)

    @staticmethod
    def degeneracy(chain: FinChain, i: int) -> "SimplexMap":
        """The canonical morphism degeneracy(chain, i) -> chain."""
        return _simplex_map(_degeneracy_delta(chain.level_count, i), degeneracy(chain, i), chain)

    def then(self, other: "SimplexMap") -> "SimplexMap":
        if other.source != self.target:
            raise ValueError("simplex maps do not compose")
        delta = other.delta
        return _simplex_map(tuple([delta[j] for j in self.delta]), self.source, other.target)

    def __repr__(self):
        return f"SimplexMap({list(self.delta)!r}: {self.source!r} -> {self.target!r})"


def _simplex_map(delta: tuple, source: FinChain, target: FinChain) -> SimplexMap:
    """The simplex map on these chains, unchecked (as _setmap)."""
    return _fill(object.__new__(SimplexMap), delta, source, target)


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
    return _chain(tuple([ranges[len(nodes)] for nodes in levels]), tuple(tables))


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
    sets = chain.sets
    return {
        "sets": [list(s.labels) for s in sets],
        "maps": [
            {"from": i, "assignment": {str(x): sets[i + 1].labels[j]
                                       for x, j in zip(sets[i].labels, table)}}
            for i, table in enumerate(chain.tables)
        ],
    }


def _check_labels(field: str, raw) -> FiniteSet:
    """The set of a list field's labels, ints or strs: a map key names a label by its
    JSON text, str(label), so neither a repeated label nor an int beside its string."""
    if not isinstance(raw, list):
        raise ValueError(f"{field} must be a list of labels")
    named = {}
    for j, x in enumerate(raw):
        if type(x) not in (int, str):
            raise ValueError(f"{field}[{j}] is {reprlib.repr(x)}: "
                             "a label must be an integer or a string")
        i = named.setdefault(str(x), j)
        if i != j:  # a repeated label, or an int and its string: the line names the string
            at = i if type(raw[i]) is str and raw[i] != x else j
            raise ValueError(f"{field}[{at}] is {reprlib.repr(raw[at])}: " + (
                f"{field}[{i}] holds it too" if raw[i] == x else f"the set also holds the integer "
                f"{reprlib.repr(int(raw[at]))}, and a map key cannot tell them apart"))
    return FiniteSet(raw)


def _map_from_json(field: str, raw, source: FiniteSet, target: FiniteSet) -> SetMap:
    """The map of the JSON object raw.  A key names the source label whose JSON text it
    is, so "01", " 1" or "+1" name nothing; each label needs a key, each value is a label."""
    if not isinstance(raw, dict):
        raise ValueError(f"{field} must be an object")
    positions = {str(x): i for i, x in enumerate(source.labels)}
    table = [None] * len(source)
    for key, value in raw.items():
        if key not in positions:
            raise ValueError(f"{field} has an unknown label {reprlib.repr(key)}")
        if type(value) not in (int, str) or value not in target.positions:
            raise ValueError(f'{field}["{reprlib.repr(key)[1:-1]}"] is {reprlib.repr(value)}: ' + (
                "no label of the target" if type(value) in (int, str)
                else "an image label must be an integer or a string"))
        table[positions[key]] = target.positions[value]
    if None in table:
        raise ValueError(f"{field} has no key for {reprlib.repr(source.labels[table.index(None)])}")
    return _setmap(source, target, tuple(table))


def chain_from_json(data) -> FinChain:
    """Decode a chain; a malformed shape raises one ValueError naming the field."""
    if not isinstance(data, dict):
        raise ValueError("chain JSON must be an object")
    raw_sets, entries = data["sets"], data.get("maps", [])
    if not isinstance(raw_sets, list):
        raise ValueError('chain JSON "sets" must be a list of lists of labels')
    if not (isinstance(entries, list) and all(isinstance(e, dict) for e in entries)):
        raise ValueError('chain JSON "maps" must be a list of objects')
    sets = [_check_labels(f"chain JSON sets[{i}]", raw) for i, raw in enumerate(raw_sets)]
    maps = [None] * (len(sets) - 1)
    for n, entry in enumerate(entries):
        i = entry.get("from")
        if type(i) is not int or not 0 <= i < len(maps) or maps[i] is not None:
            raise ValueError(f'chain JSON maps[{n}]["from"] is {reprlib.repr(i)}: each map index '
                             f'0 <= from < {len(maps)} must appear once')
        maps[i] = _map_from_json(f'chain JSON maps[{n}]["assignment"]', entry.get("assignment"),
                                 sets[i], sets[i + 1])
    if any(m is None for m in maps):
        raise ValueError("missing map in chain JSON")
    return FinChain(sets, maps)


def injection_from_json(data) -> SetMap:
    """Decode {"source", "target", "map"}, "map" as a chain map (the identity if absent)."""
    if not isinstance(data, dict):
        raise ValueError("injection JSON must be an object")
    source = _check_labels('"source"', data["source"])
    target = _check_labels('"target"', data["target"])
    raw = data.get("map")
    inj = _map_from_json('"map"', {str(x): x for x in source} if raw is None else raw,
                         source, target)
    if not inj.is_injective():
        raise ValueError('"map" sends two source labels to one target label')
    return inj
