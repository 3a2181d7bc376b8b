"""The level functor against its definition (level_oracle), which shares no code with it.

The library computes a point's leaf set as a bitmask; the oracle glues
classes along singleton fibers, orders them by forward images and reads each
class's block off the maximal classes above it.  They must agree on ground
names, blocks and block maps, exhaustively on small chains and on seeded
random chains with string labels and repeated values.
"""

import ast
import random
from pathlib import Path

from level_oracle import level_forest, level_morphisms

from confstrata.finchains import (
    SimplexMap,
    chain_from_json,
    chain_to_json,
    enumerate_chains,
    precompose,
)
from confstrata.forests import level_functor_morphism, level_functor_object

ORACLE = Path(__file__).resolve().parent / "level_oracle.py"


def test_oracle_imports_nothing_from_confstrata():
    imported = []
    for node in ast.walk(ast.parse(ORACLE.read_text())):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
    assert imported and not [name for name in imported if name.split(".")[0] == "confstrata"]


def assert_matches_oracle(chain, data):
    """F of chain and of every strictly increasing delta into it; returns the deltas compared."""
    phi = level_functor_object(chain)
    assert (set(phi.ground.labels), set(map(frozenset, phi.blocks))) == level_forest(data)
    expected = level_morphisms(data)
    for delta, mapping in expected.items():
        mor = level_functor_morphism(SimplexMap(delta, precompose(chain, delta), chain))
        assert mor.target == phi
        assert {frozenset(a): frozenset(b) for a, b in mor.block_map} == mapping, (data, delta)
    return len(expected)


def test_enumerated_chains_match_the_definition():
    chains = list(enumerate_chains(3, 3))
    assert len(chains) == 624
    assert sum(assert_matches_oracle(chain, chain_to_json(chain)) for chain in chains) == 8494


LABELS = ["a", "b", "c", "d", "e", 0, 1, 2]


def random_chain_json(rng):
    """Up to four levels of up to five labels each, drawn from one pool so that values repeat."""
    sets = [rng.sample(LABELS, rng.randint(1, 5)) for _ in range(rng.randint(1, 4))]
    maps = [{"from": i, "assignment": {str(x): rng.choice(sets[i + 1]) for x in sets[i]}}
            for i in range(len(sets) - 1)]
    return {"sets": sets, "maps": maps}


def test_random_chains_with_repeated_labels_match_the_definition():
    rng = random.Random(19)
    repeated = 0
    for _ in range(1000):
        data = random_chain_json(rng)
        chain = chain_from_json(data)
        assert_matches_oracle(chain, data)
        repeated += any("#" in str(x) for x in level_functor_object(chain).ground)
    assert repeated > 300
