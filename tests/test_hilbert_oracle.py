"""Hilbert series against the Boedigheimer-Cohen-Taylor product.

The oracle is `bct_series` from perfbench/oracles.py, which the benchmark
uses too: prod_{j<n} (P_X(t, u) + j t^{2d} u^{2d}), weight-refined, the
Poincare series of n points in X x R (Topology 28, 1989).  `shared_oracles`
reads and executes the file from its path, so nothing is imported from or
written under perfbench/, and a test keeps it free of imports from this package.
"""

import ast
import random

import pytest
from shared_oracles import ORACLES, oracles

from confstrata.weights import (
    VarietyDescriptor,
    affine_line,
    affine_space,
    elliptic_curve,
    hilbert_series,
    presentation,
    projective_line,
)


def test_oracle_module_imports_nothing_from_confstrata():
    imported = []
    for node in ast.walk(ast.parse(ORACLES.read_text())):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
    assert imported and not [name for name in imported if name.split(".")[0] == "confstrata"]


def assert_matches_bct(x, n, N):
    cohomology = {deg: ws.as_dict() for deg, ws in x.cohomology.by_degree}
    report = hilbert_series(presentation(x, n), N)
    expected = oracles.bct_series(cohomology, x.d, n, N)
    assert [line.weights.as_dict() for line in report.lines] == expected
    assert report.pure
    return report


# the total dimension at n = 6 is prod_{j<6} (P_X(1) + j); every builtin's top
# degree is at most 6 * 2d <= 24, so degree 40 covers the whole algebra
BUILTINS = [(affine_line(), 720), (projective_line(), 5040), (elliptic_curve(), 60480),
            (affine_space(2), 720)]


@pytest.mark.parametrize("x,total", BUILTINS, ids=[x.name for x, _ in BUILTINS])
def test_builtins_at_the_caps_match_bct(x, total):
    assert_matches_bct(x, 5, 40)
    assert sum(assert_matches_bct(x, 6, 40).dims()) == total


def random_pure_descriptor(rng, i):
    d = rng.choice([1, 2])
    cohomology = {0: {0: 1}}
    for deg in range(1, 2 * d + 1):
        mult = rng.randint(0, 2 if d == 1 else 1)
        if mult:
            cohomology[deg] = {deg: mult}
    return VarietyDescriptor(f"random-{i}", d, cohomology, True)


def test_seeded_random_pure_descriptors_match_bct():
    rng = random.Random(2024)
    for i in range(24):
        x = random_pure_descriptor(rng, i)
        assert_matches_bct(x, rng.randint(1, 4), rng.randint(0, 4 * x.d * 4))
