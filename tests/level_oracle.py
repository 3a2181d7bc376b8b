"""The level functor from its definition, on chain JSON.

A chain S_0 -> ... -> S_k is given as `finchains.chain_to_json` writes it:
"sets" lists the labels of each level, and map i sends the key str(x) to the
label of f_i(x).  A point is a pair (level, label); within a level, points
are in label order (integers first, then strings, each ascending).  The
level forest, as the docstring of `confstrata.forests` defines it:

- a point x of S_i is glued to f_i(x) when the fiber over f_i(x) is {x};
  the classes are the runs of points glued together;
- a class lies below another when a point of it is a forward image (under
  one or more maps) of a point of the other;
- the maximal classes are the ground set.  Each is named by the label of its
  earliest point, or label#rank when labels repeat, ranked by first
  occurrence (level by level, in label order);
- a class's block is the set of maximal classes at or above it.

For a strictly increasing delta: [k'] -> [k], the source chain is the target
reindexed along delta: levels S_delta(0), ..., S_delta(k') and the composite
maps between them.  F sends a class of the source chain to the class of the
target point at level delta(level) with the label of its deepest point.

Nothing here is imported from confstrata; a test keeps it that way.
"""

import itertools


def _order(labels):
    return sorted(labels, key=lambda x: (type(x).__name__, x))


def _decode(chain):
    """The levels as ordered label lists and the maps as dicts on labels."""
    sets = [_order(s) for s in chain["sets"]]
    maps = [None] * (len(sets) - 1)
    for entry in chain["maps"]:
        i = entry["from"]
        label = {str(x): x for x in sets[i]}
        maps[i] = {label[key]: value for key, value in entry["assignment"].items()}
    return sets, maps


class Level:
    """The classes of a chain's points, their order and their blocks.

    cls[p] is the class of point p, named by its earliest point; block[c] is
    the block of class c as a frozenset of ground names; ground lists the
    names.  Raises AssertionError if the order is not antisymmetric or two
    classes get one block, which the definition rules out.
    """

    def __init__(self, sets, maps):
        self.cls = cls = {}
        for i, s in enumerate(sets):
            for y in s:
                fiber = [x for x in sets[i - 1] if maps[i - 1][x] == y] if i else []
                cls[(i, y)] = cls[(i - 1, fiber[0])] if len(fiber) == 1 else (i, y)
        classes = list(dict.fromkeys(cls.values()))  # in order of their earliest points

        above = {c: set() for c in classes}  # the classes with a point that maps into c
        for (i, x), c in cls.items():
            for j in range(i, len(maps)):
                x = maps[j][x]
                if cls[(j + 1, x)] != c:
                    above[cls[(j + 1, x)]].add(c)
        assert not any(c in above[d] for c in classes for d in above[c]), "not antisymmetric"

        maximal = [c for c in classes if not above[c]]
        values = [c[1] for c in maximal]
        ranks, name = {}, {}
        for c, value in zip(maximal, values):
            rank = ranks[value] = ranks.get(value, -1) + 1
            name[c] = value if values.count(value) == 1 else f"{value}#{rank}"
        self.ground = [name[c] for c in maximal]
        self.block = {c: frozenset(name[m] for m in maximal if m == c or m in above[c])
                      for c in classes}
        assert len(set(self.block.values())) == len(classes), "two classes share a block"


def level_forest(chain):
    """(ground names, set of blocks) of the level forest of chain JSON."""
    level = Level(*_decode(chain))
    return set(level.ground), set(level.block.values())


def level_morphisms(chain):
    """{delta: block map of F} on the reindexings of chain JSON along every strictly
    increasing delta."""
    sets, maps = _decode(chain)
    target = Level(sets, maps)

    def composite(a, b):
        out = {}
        for x in sets[a]:
            y = x
            for t in range(a, b):
                y = maps[t][y]
            out[x] = y
        return out

    out = {}
    for n in range(1, len(sets) + 1):
        for delta in itertools.combinations(range(len(sets)), n):
            source = Level([sets[j] for j in delta],
                           [composite(a, b) for a, b in zip(delta, delta[1:])])
            deepest = {c: p for p, c in source.cls.items()}  # points come level by level
            out[delta] = {source.block[c]: target.block[target.cls[(delta[level], x)]]
                          for c, (level, x) in deepest.items()}
    return out
