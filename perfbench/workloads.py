"""Seeded request lists and input files for each benchmark workload.

A workload is a list of CLI requests.  Every request names its expected exit
status and, where it succeeds, the oracle that checks its answer.  Input
files are generated from the workload seed alone, so the same seed writes
byte-identical files; `build` returns their digest.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import oracles

DEFAULT_TIMEOUT_S = 120.0
# The in-cap purity request of ROADMAP item 4 must finish or refuse within this.
HEAVY_IN_CAP_TIMEOUT_S = 3.0


@dataclass
class Request:
    rid: str
    argv: list
    expect_exit: int | None = 0  # None: an answer (0) or a refusal with one error line (1)
    # payload -> None or a description of the wrong answer; None means "no answer to check"
    check: Callable | None = None
    text: bool = False
    timeout: float = DEFAULT_TIMEOUT_S
    # set for the ROADMAP item 4/5 shapes that fail at the seed commit
    known_defect: str | None = None


@dataclass
class Workload:
    requests: list
    known_defects: list
    digest: str


WHY = {
    "compute": "near-cap chain/forest/lattice core and functor checks, weights engine, and "
               "the linalg kernel used two ways (hilbert, koszul); printed per-subcommand "
               "times show which part moved",
    "requests": "~100 small seeded requests over every subcommand: interpreter start, import "
                "and input validation dominate; cli.* and *_from_json spans move setup_s, wall_s",
}


def _count(n):
    return functools.partial(oracles.check_count, n=n)


ELLIPTIC = ({0: {0: 1}, 1: {1: 2}, 2: {2: 1}}, 1)
AFFINE_LINE = ({0: {0: 1}}, 1)
PROJECTIVE_LINE = ({0: {0: 1}, 2: {2: 1}}, 1)


def _hilbert(variety, n, max_deg):
    cohomology, d = variety
    return functools.partial(oracles.check_hilbert_payload, cohomology=cohomology, d=d,
                             n=n, max_deg=max_deg)


def _purity(variety, n, max_deg):
    cohomology, d = variety
    return functools.partial(oracles.check_purity_payload, cohomology=cohomology, d=d,
                             n=n, max_deg=max_deg)


def _koszul(kind, g, max_deg, forbidden=()):
    return functools.partial(oracles.check_koszul, kind=kind, g=g, max_deg=max_deg,
                             forbidden=forbidden)


# -- the compute workload: near-cap requests, one group per layer it stresses -------


def _compute(seed):
    """The chain/forest/lattice core, the weights engine, and the linalg kernel two ways."""
    s = str(seed)
    core = [
        Request("forests-6", ["forests", "--n", "6", "--count"], check=_count(6), text=True),
        Request("nests-5", ["nests", "--n", "5", "--count"], check=_count(5), text=True),
        Request("blowup-5", ["blowup-validate", "--n", "5"],
                check=functools.partial(oracles.check_blowup, order=oracles.default_order(5))),
        Request("strata-5", ["strata", "--n", "5"], check=functools.partial(oracles.check_strata, n=5)),
        Request("functor-l2s2", ["deltafin-check", "--max-level", "2", "--max-size", "2",
                                 "--functor", "--samples", "300", "--seed", s],
                check=oracles.check_deltafin),
        Request("functor-l3s2", ["deltafin-check", "--max-level", "3", "--max-size", "2",
                                 "--functor", "--unsafe-no-cap", "--samples", "300", "--seed", s],
                check=oracles.check_deltafin),
    ]
    hilbert = [
        Request("hilbert-affine-6", ["hilbert", "--variety", "affine-line", "--n", "6",
                                     "--max-deg", "8"], check=_hilbert(AFFINE_LINE, 6, 8)),
        Request("hilbert-affine-5", ["hilbert", "--variety", "affine-line", "--n", "5",
                                     "--max-deg", "12"], check=_hilbert(AFFINE_LINE, 5, 12)),
        Request("hilbert-elliptic-4", ["hilbert", "--variety", "elliptic", "--n", "4",
                                       "--max-deg", "8"], check=_hilbert(ELLIPTIC, 4, 8)),
        Request("hilbert-p1-4", ["hilbert", "--variety", "projective-line", "--n", "4",
                                 "--max-deg", "10"], check=_hilbert(PROJECTIVE_LINE, 4, 10)),
        Request("purity-elliptic-3", ["purity", "--variety", "elliptic", "--n", "3",
                                      "--max-deg", "12"], check=_purity(ELLIPTIC, 3, 12)),
    ]
    koszul = [
        Request("koszul-symmetric-6", ["koszul", "--presentation", "symmetric-6", "--max-deg", "10"],
                check=_koszul("symmetric", 6, 10)),
        Request("koszul-exterior-6", ["koszul", "--presentation", "exterior-6", "--max-deg", "10"],
                check=_koszul("exterior", 6, 10)),
        Request("koszul-genus-1", ["koszul", "--presentation", "genus-1", "--max-deg", "12"],
                check=_koszul("exterior", 2, 12)),
    ]
    return core + hilbert + koszul


# -- the requests workload: small seeded inputs over every subcommand ----------------


def _random_chain(rng):
    levels = rng.randint(0, 3)
    sizes = [rng.randint(1, 3) for _ in range(levels + 1)]
    maps = [{"from": i, "assignment": {str(x): rng.randrange(sizes[i + 1]) for x in range(sizes[i])}}
            for i in range(levels)]
    return {"sets": [list(range(m)) for m in sizes], "maps": maps}


def _random_descriptor(rng, name, pure=True):
    d = rng.choice([1, 1, 2])
    cohomology = {"0": [{"weight": 0, "mult": 1}]}
    for deg in range(1, 2 * d + 1):
        mult = rng.randint(0, 2 if d == 1 else 1)
        if mult:
            cohomology[str(deg)] = [{"weight": deg, "mult": mult}]
    if not pure:
        deg = rng.randint(1, 2 * d)
        cohomology[str(deg)] = [{"weight": deg + 1, "mult": 1}]
    data = {"name": name, "d": d, "q": 2, "diagonal_class_vanishes": True,
            "cohomology": cohomology}
    parsed = {int(k): {e["weight"]: e["mult"] for e in v} for k, v in cohomology.items()}
    return data, (parsed, d)


def _random_presentation(rng, g):
    """A JSON presentation of a known Koszul algebra, with rescaled relation vectors."""
    kind = rng.choice(["exterior", "symmetric", "monomial"])

    def scale():
        return str(rng.choice([1, -1, 2, -3]) * Fraction(1, rng.choice([1, 2, 5])))

    relations, forbidden = [], []
    if kind == "exterior":
        convention = "graded-commutative"
        for i in range(g):
            if rng.random() < 0.5:  # explicit squares are already implied by the convention
                vec = ["0"] * (g * g)
                vec[i * g + i] = scale()
                relations.append(vec)
    elif kind == "symmetric":
        convention = "free"
        for i, j in itertools.combinations(range(g), 2):
            c = scale()
            vec = ["0"] * (g * g)
            vec[i * g + j] = c
            vec[j * g + i] = c[1:] if c.startswith("-") else "-" + c
            relations.append(vec)
    else:
        convention = "free"
        for i, j in itertools.product(range(g), repeat=2):
            if rng.random() < 0.4:
                vec = ["0"] * (g * g)
                vec[i * g + j] = scale()
                relations.append(vec)
                forbidden.append((i, j))
    data = {"generators": g, "convention": convention, "relations": relations}
    return data, kind, tuple(forbidden)


def _requests(seed, files):
    """About a hundred small requests; `files` collects name -> bytes to write."""
    rng = random.Random(seed)
    out = []

    def add_file(name, data):
        files[name] = data if isinstance(data, bytes) else (json.dumps(data, sort_keys=True) + "\n").encode()
        return f"in/{name}"

    for i in range(8):
        n = rng.randint(1, 4)
        if rng.random() < 0.5:
            out.append(Request(f"forests-{i}", ["forests", "--n", str(n), "--count"],
                               check=_count(n), text=True))
        else:
            argv = ["forests", "--n", str(n)]
            if rng.random() < 0.5:
                argv += ["--dot", f"out/forest-{i}.dot"]
            out.append(Request(f"forests-{i}", argv, check=functools.partial(oracles.check_forests, n=n)))
    for i in range(6):
        n = rng.randint(1, 4)
        out.append(Request(f"nests-{i}", ["nests", "--n", str(n)],
                           check=functools.partial(oracles.check_nests, n=n)))
    for i in range(5):
        n = rng.randint(1, 4)
        out.append(Request(f"strata-{i}", ["strata", "--n", str(n)],
                           check=functools.partial(oracles.check_strata, n=n)))
    for i in range(10):
        path = add_file(f"chain-{i}.json", _random_chain(rng))
        out.append(Request(f"chain-{i}", ["deltafin-check", "--chain", path], check=oracles.check_chain))
    for i in range(5):
        chain = _random_chain(rng)
        while not chain["maps"]:
            chain = _random_chain(rng)
        entry = rng.choice(chain["maps"])
        x = rng.choice(sorted(entry["assignment"]))
        entry["assignment"][x] = len(chain["sets"][entry["from"] + 1]) + rng.randint(0, 3)
        path = add_file(f"chain-bad-{i}.json", chain)
        out.append(Request(f"chain-bad-{i}", ["deltafin-check", "--chain", path], expect_exit=1))
    for i in range(4):
        argv = ["deltafin-check", "--max-level", "1", "--max-size", str(rng.randint(1, 2)),
                "--samples", str(rng.randint(10, 60)), "--seed", str(rng.randrange(10**6))]
        if rng.random() < 0.5:
            argv.append("--functor")
        out.append(Request(f"deltafin-{i}", argv, check=oracles.check_deltafin))
    for i in range(14):
        n = rng.randint(3, 5)
        members = [c for k in range(2, n + 1) for c in itertools.combinations(range(1, n + 1), k)]
        rng.shuffle(members)
        if rng.random() < 0.4:  # non-increasing size: every prefix is a building set
            members.sort(key=lambda u: -len(u))
        path = add_file(f"order-{i}.json", [[list(u)] for u in members])
        out.append(Request(f"order-{i}", ["blowup-validate", "--n", str(n), "--order", path],
                           check=functools.partial(oracles.check_blowup, order=members)))
    for i in range(8):
        target = list(range(1, rng.randint(2, 5) + 1))
        source = sorted(rng.sample(target, rng.randint(1, len(target))))
        table = dict(zip(source, rng.sample(target, len(source))))
        path = add_file(f"injection-{i}.json", {"source": source, "target": target,
                                               "map": {str(k): v for k, v in table.items()}})
        out.append(Request(f"injection-{i}", ["forget-centers", "--injection", path],
                           check=functools.partial(oracles.check_forget_centers,
                                                   source=source, table=table)))
    for i in range(3):
        target = list(range(1, rng.randint(2, 5) + 1))
        source = target[:rng.randint(1, len(target))]
        out.append(Request(f"centers-{i}", ["forget-centers", "--source", ",".join(map(str, source)),
                                            "--target", ",".join(map(str, target))],
                           check=functools.partial(oracles.check_forget_centers, source=source,
                                                   table={x: x for x in source})))
    for i in range(18):
        data, variety = _random_descriptor(rng, f"x{i}")
        path = add_file(f"variety-{i}.json", data)
        n, max_deg = rng.randint(1, 3), rng.randint(2, 8)
        if i % 2:
            out.append(Request(f"purity-{i}", ["purity", "--variety", path, "--n", str(n),
                                               "--max-deg", str(max_deg)],
                               check=_purity(variety, n, max_deg)))
        else:
            out.append(Request(f"hilbert-{i}", ["hilbert", "--variety", path, "--n", str(n),
                                                "--max-deg", str(max_deg)],
                               check=_hilbert(variety, n, max_deg)))
    data, _ = _random_descriptor(rng, "impure", pure=False)
    path = add_file("variety-impure.json", data)
    out.append(Request("purity-impure", ["purity", "--variety", path, "--n", "2"], expect_exit=2))
    for i in range(12):
        g = rng.randint(1, 3)
        data, kind, forbidden = _random_presentation(rng, g)
        max_deg = rng.randint(3, 7 - g)
        path = add_file(f"presentation-{i}.json", data)
        out.append(Request(f"koszul-{i}", ["koszul", "--presentation", path, "--max-deg", str(max_deg)],
                           check=_koszul(kind, g, max_deg, forbidden)))
    errors = [
        ["forests", "--n", "7", "--count"],
        ["nests", "--n", "7"],
        ["hilbert", "--variety", "affine-line", "--max-deg", "41"],
        ["koszul", "--presentation", "genus-1", "--max-deg", "13"],
        ["forget-centers"],
        ["deltafin-check", "--chain", add_file("malformed.json", b"{\"sets\": [[0]\n")],
        ["deltafin-check", "--chain", "in/absent.json"],
        ["deltafin-check", "--chain", add_file("chain-missing-map.json", {"sets": [[0], [0]], "maps": []})],
        ["koszul", "--presentation", add_file("presentation-short.json",
                                              {"generators": 2, "relations": [["1", "0", "0"]]})],
    ]
    out += [Request(f"error-{i}", argv, expect_exit=1) for i, argv in enumerate(errors)]
    rng.shuffle(out)
    return out


def _known_defects(files):
    """The ROADMAP item 5 shapes (expect one error line) and the item 4 in-cap request."""
    shapes = [
        ("sets-int", "deltafin-check", "--chain", {"sets": 5}),
        ("from-out-of-range", "deltafin-check", "--chain",
         {"sets": [[0, 1], [0]], "maps": [{"from": 3, "assignment": {"0": 0, "1": 0}}]}),
        ("cohomology-list", "purity", "--variety",
         {"name": "x", "d": 1, "cohomology": [[0, 1]], "diagonal_class_vanishes": True}),
        ("d-string", "hilbert", "--variety",
         {"name": "x", "d": "1", "cohomology": {"0": [{"weight": 0, "mult": 1}]},
          "diagonal_class_vanishes": True}),
        ("map-list", "forget-centers", "--injection", {"source": [1, 2], "target": [1, 2, 3], "map": [1, 2]}),
        ("order-member-int", "blowup-validate", "--order", [5, [[1, 2]], [[1, 2, 3]]]),
    ]
    out = []
    for name, command, flag, data in shapes:
        files[f"defect-{name}.json"] = (json.dumps(data, sort_keys=True) + "\n").encode()
        argv = [command, flag, f"in/defect-{name}.json"]
        if command == "blowup-validate":
            argv += ["--n", "3"]
        out.append(Request(f"defect-{name}", argv, expect_exit=1, known_defect="ROADMAP item 5"))
    out.append(Request("defect-dot-unwritable", ["forests", "--n", "3", "--dot", "absent-dir/forest.dot"],
                       expect_exit=1, known_defect="ROADMAP item 5"))
    out.append(Request("defect-purity-in-cap", ["purity", "--variety", "elliptic", "--n", "6",
                                                "--max-deg", "40"],
                       expect_exit=None, timeout=HEAVY_IN_CAP_TIMEOUT_S, known_defect="ROADMAP item 4"))
    return out


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Generate the workload's request list and write its input files under workdir/in."""
    files: dict = {}
    if name == "requests":
        requests = _requests(seed, files)
        defects = _known_defects(files)
    else:
        requests = _compute(seed)
        random.Random(seed).shuffle(requests)
        defects = []
    (workdir / "in").mkdir(parents=True, exist_ok=True)
    (workdir / "out").mkdir(exist_ok=True)
    digest = hashlib.sha256()
    for req in requests + defects:
        digest.update(json.dumps(req.argv).encode() + b"\n")
    for fname in sorted(files):
        (workdir / "in" / fname).write_bytes(files[fname])
        digest.update(fname.encode() + b"\0" + files[fname])
    return Workload(requests, defects, digest.hexdigest())


WORKLOADS = ("compute", "requests")
