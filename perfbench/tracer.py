"""Run one CLI request, or the layer probe, with spans around each layer's public calls.

    python3 tracer.py SPANS_FILE REQUEST_ID -- CLI_ARG...
    python3 tracer.py SPANS_FILE probe SEED

The tracer imports confstrata itself (the `cli.import` span), then replaces
each traced function by a wrapper in every confstrata module that holds a
reference to it, so calls between modules are seen as well as calls from the
CLI.  Spans stay in memory and are written to SPANS_FILE as one JSON object
when the process ends.  A span is [name, start, end, parent index, counts].

The probe calls every traced function once on small seeded inputs, in a
process of its own so that it warms none of the request's caches.  It also
times `linalg.rank` on seeded sparse +-1 matrices (no request calls it) and
`level_functor_morphism` on the elementary face and degeneracy maps of small
chains.
"""

from __future__ import annotations

import json
import random
import sys
import time

_now = time.perf_counter
SPANS: list = []
_STACK: list = []
_DUALS: list = []  # presentations returned by quadratic_dual, kept alive so ids stay unique

# Every per-layer span, in the order of the per-layer table, with the count keys
# it reports.  Each span also reports `.s` (total time inside the call) and
# `.self_s` (that time minus the traced calls it made); `calls` is the number
# of spans of that name.  `run.py` reports exactly these.
LAYER_SPANS = [
    ("cli.import", ()), ("cli.main", ()),
    ("finchains.enumerate_chains", ("items",)), ("finchains.chain_from_json", ()),
    ("forests.enumerate_forests", ("items",)), ("forests.level_functor_object", ("calls",)),
    ("forests.level_functor_morphism", ("calls",)),
    ("wonderful.diagonal_lattice", ("items",)), ("wonderful.diagonal_building_set", ()),
    ("wonderful.enumerate_nests", ("items",)), ("wonderful.first_invalid_prefix", ("prefixes",)),
    ("confcat.strata_poset", ("items",)), ("confcat.con_morphism", ("calls",)),
    ("checks.check_simplicial_identities", ("checked",)),
    ("checks.check_level_functor", ("checked",)),
    ("weights.presentation", ("generators", "relations")),
    ("weights.hilbert_series", ("dim_sum",)), ("weights.purity_theorem_check", ()),
    ("weights.descriptor_from_json", ()),
    ("koszul.effective_relations", ()), ("koszul.quadratic_dual", ()),
    ("koszul.hilbert_of_quadratic.primal", ("dim_sum",)),
    ("koszul.hilbert_of_quadratic.dual", ("dim_sum",)),
    ("koszul.presentation_from_json", ()),
    ("linalg.nullspace", ()), ("linalg.rank", ("rows",)),
    ("linalg.Echelon.add", ("calls", "pivots")),
    ("linalg.Echelon.back_substitute", ("calls",)),
]

# counts(result, *args) of the spans whose count keys are not just `calls`
_COUNTS = {
    "forests.enumerate_forests": lambda r, *a: {"items": len(r)},
    "wonderful.diagonal_lattice": lambda r, *a: {"items": len(r.elements)},
    "wonderful.enumerate_nests": lambda r, *a: {"items": len(r)},
    "wonderful.first_invalid_prefix":
        lambda r, schedule: {"prefixes": len(schedule.order) if r is None else r},
    "confcat.strata_poset": lambda r, *a: {"items": len(r.strata)},
    "checks.check_simplicial_identities": lambda r, *a: {"checked": r.checked},
    "checks.check_level_functor": lambda r, *a: {"checked": r.checked},
    "weights.presentation":
        lambda r, *a: {"generators": len(r.generators), "relations": len(r.relations)},
    "weights.hilbert_series": lambda r, *a: {"dim_sum": sum(r.dims())},
    "linalg.rank": lambda r, rows, *a: {"rows": len(rows)},
    "linalg.Echelon.add": lambda r, *a: {"pivots": int(r)},
}

# Spans opened by the tracer itself rather than by wrapping the attribute of
# the same dotted name.
_OPENED_HERE = {"cli.import", "cli.main", "finchains.enumerate_chains",
                "koszul.hilbert_of_quadratic.primal", "koszul.hilbert_of_quadratic.dual"}
# The attribute path inside its module, for spans not named module.attribute.
_WHERE = {"koszul.effective_relations": "QuadraticPresentation.effective_relations"}


def _open(name):
    SPANS.append([name, _now(), None, _STACK[-1] if _STACK else None, None])
    _STACK.append(len(SPANS) - 1)
    return SPANS[-1]


def _close(span, counts=None):
    span[2] = _now()
    _STACK.pop()
    span[4] = counts


def _wrap(name, fn, counts):
    def traced(*args, **kwargs):
        span = _open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            _close(span)
            raise
        _close(span, counts(result, *args) if counts else None)
        return result

    traced.__wrapped__ = fn
    return traced


def _wrap_generator(name, fn):
    """Generators are drained inside the span, so the span covers their work."""
    def traced(*args, **kwargs):
        span = _open(name)
        try:
            items = list(fn(*args, **kwargs))
        except BaseException:
            _close(span)
            raise
        _close(span, {"items": len(items)})
        return iter(items)

    traced.__wrapped__ = fn
    return traced


def install():
    """Import confstrata (timed) and put wrappers in place of every traced function.

    A module-level function is replaced in every confstrata module that holds
    a reference to it; a method is replaced on its class.
    """
    span = _open("cli.import")
    import confstrata.cli  # noqa: F401
    _close(span)
    from confstrata import finchains, koszul

    modules = [m for key, m in sys.modules.items()
               if key == "confstrata" or key.startswith("confstrata.")]
    replacements = {}
    for name, _ in LAYER_SPANS:
        if name in _OPENED_HERE:
            continue
        mod_name, _, path = name.partition(".")
        *owners, attr = _WHERE.get(name, path).split(".")
        owner = sys.modules[f"confstrata.{mod_name}"]
        for key in owners:
            owner = getattr(owner, key)
        original = getattr(owner, attr)
        wrapper = _wrap(name, original, _COUNTS.get(name))
        if owners:
            setattr(owner, attr, wrapper)
        else:
            replacements[id(original)] = wrapper
    original = finchains.enumerate_chains
    replacements[id(original)] = _wrap_generator("finchains.enumerate_chains", original)
    for mod in modules:
        for key, value in list(vars(mod).items()):
            wrapper = replacements.get(id(value))
            if wrapper is not None:
                setattr(mod, key, wrapper)

    quadratic_dual = koszul.quadratic_dual

    def dual_recorded(p):
        result = quadratic_dual(p)
        _DUALS.append(result)
        return result

    koszul.quadratic_dual = dual_recorded

    hilbert_of_quadratic = koszul.hilbert_of_quadratic

    def hilbert_split(p, N):
        side = "dual" if any(p is d for d in _DUALS) else "primal"
        span = _open(f"koszul.hilbert_of_quadratic.{side}")
        try:
            result = hilbert_of_quadratic(p, N)
        except BaseException:
            _close(span)
            raise
        _close(span, {"dim_sum": sum(result.coefficients)})
        return result

    koszul.hilbert_of_quadratic = hilbert_split


def probe(seed: int):
    """One small seeded call into every traced function."""
    install()
    from confstrata import (checks, confcat, finchains, forests, koszul, linalg, weights,
                            wonderful)

    rng = random.Random(seed)
    for size in (30, 45, 60):
        rows = [{c: rng.choice((1, -1)) for c in rng.sample(range(size), 4)} for _ in range(size)]
        linalg.rank(rows)
    chains = list(finchains.enumerate_chains(2, 2))
    for chain in rng.sample(chains, 12):
        forests.level_functor_object(chain)
        for i in range(chain.level_count + 1):
            if chain.level_count >= 1:
                face = finchains.SimplexMap.face(chain, i)
                forests.level_functor_morphism(face)
                confcat.con_morphism(face)
            forests.level_functor_morphism(finchains.SimplexMap.degeneracy(chain, i))
    n = rng.randint(3, 4)
    forests.enumerate_forests(n)
    bset = wonderful.diagonal_building_set(n)
    wonderful.enumerate_nests(n)
    wonderful.first_invalid_prefix(wonderful.default_order(bset))
    confcat.strata_poset(3)
    checks.check_simplicial_identities(1, 2, samples=20, seed=seed)
    checks.check_level_functor(1, 2, pair_samples=20, seed=seed)
    finchains.chain_from_json({"sets": [[0, 1], [0]],
                               "maps": [{"from": 0, "assignment": {"0": 0, "1": 0}}]})
    x = weights.descriptor_from_json({
        "name": "probe", "d": 1, "diagonal_class_vanishes": True,
        "cohomology": {"0": [{"weight": 0, "mult": 1}],
                       "1": [{"weight": 1, "mult": rng.randint(1, 2)}]}})
    weights.hilbert_series(weights.presentation(x, 2), 4)
    weights.purity_theorem_check(weights.affine_line(), 3, 4)
    p = koszul.presentation_from_json({"generators": rng.randint(2, 3), "relations": []})
    koszul.koszul_criterion(p, 5)


def main(argv):
    spans_file, rid = argv[0], argv[1]
    code = 0
    try:
        if rid == "probe":
            probe(int(argv[2]))
        else:
            install()
            from confstrata import cli

            span = _open("cli.main")
            try:
                code = cli.main(argv[3:])
            finally:
                _close(span)
    finally:
        with open(spans_file, "w") as fh:
            json.dump({"rid": rid, "spans": SPANS}, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
