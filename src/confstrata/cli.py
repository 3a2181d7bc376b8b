"""Command-line entry point.

Subcommands: forests, nests, strata, deltafin-check, blowup-validate,
forget-centers, purity, hilbert, koszul.  Every subcommand supports
--selftest to run its module's property suite.  Reports are deterministic
JSON (sorted keys, no timestamps); exit status is 0 on success, 1 on input
errors (a bad or unknown flag too) or exceeded caps, 2 on hypothesis refusal.
"""

from __future__ import annotations

import argparse
import functools
import json
import reprlib
import sys

from . import checks, confcat, finchains, forests, koszul, weights, wonderful

SCHEMA = "confstrata/1"

# Every size limit: the library checks only its domains, --unsafe-no-cap lifts
# every entry, and an over-cap request is refused (functor_level clamps).
CAPS = {"n": 6, "max_deg": 40, "max_level": 3, "max_size": 4,
        "koszul_deg": 12, "functor_level": 2, "generators": 6, "samples": 10000}


class InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """A bad or unknown flag is an input error, one line and exit 1, not argparse's exit 2."""

    def error(self, message):
        raise InputError(message)


def _cap(args, name: str, value: int, cap_key: str, least: int | None = 0):
    if least is not None and value < least:
        raise InputError(f"{name} must be at least {least}" if least
                         else f"{name} must be non-negative")
    if not args.unsafe_no_cap and value > CAPS[cap_key]:
        raise InputError(
            f"{name}={value} exceeds the cap {CAPS[cap_key]} (use --unsafe-no-cap to override)")
    return value


def _refuse_unread(args, path: str, dests) -> None:
    """Refuse each of these flags given a value other than its parser default: path reads none."""
    defaults = vars(_build_parser().parse_args([args.command]))
    for dest in dests:
        if getattr(args, dest) != defaults[dest]:
            raise InputError(f"--{dest.replace('_', '-')} is not read with {path}")


def _unique_keys(pairs):
    """The JSON object of these pairs, refusing a key given twice rather than keeping the last."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        key = next(k for k, _ in pairs if k in seen or seen.add(k))
        raise ValueError(f"the key {reprlib.repr(key)} appears twice in one object")
    return obj


def _load(path: str, decode, args):
    """Read, hash and decode one input file: every fault is one line naming the file."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    import hashlib

    args.input_digest = hashlib.sha256(raw).hexdigest()
    try:
        return decode(json.loads(raw, object_pairs_hook=_unique_keys))
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {path}: line {exc.lineno} column {exc.colno}")
    except RecursionError:
        raise InputError(f"malformed JSON in {path}: nested too deeply")
    except KeyError as exc:
        raise InputError(f"{path}: missing field {exc}")
    except (InputError, ValueError) as exc:
        raise InputError(f"{path}: {exc}")


def _emit(args, result: dict, text: str) -> None:
    # bare counts read better as plain text; everything else defaults to JSON
    if (args.format or ("text" if getattr(args, "count", False) else "json")) == "text":
        body = text
    else:
        params = {k: v for k, v in vars(args).items() if v is not None and k not in
                  {"command", "out", "format", "unsafe_no_cap", "selftest", "log", "input_digest"}}
        body = json.dumps({"schema": SCHEMA, "command": args.command, "params": params,
                           "input_digest": getattr(args, "input_digest", None), "result": result},
                          sort_keys=True, indent=2) + "\n"
    _send(args, body)


def _send(args, body: str) -> None:
    if args.out:
        _write_artifact(args.out, body)
    else:
        sys.stdout.write(body)


def _write_artifact(path: str, body: str, mode: str = "w") -> None:
    try:
        with open(path, mode) as fh:
            fh.write(body)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}")


def _selftest(command: str) -> int:
    results = checks.ALL_CHECKS[command]()
    ok = True
    for res in results:
        print(res.summary())
        for failure in res.failures[:10]:
            print(f"  counterexample: {failure}")
        ok = ok and res.ok
    return 0 if ok else 1


# -- subcommand handlers -----------------------------------------------------------


def _cmd_forests(args) -> int:
    if args.index is not None and args.dot is None:
        raise InputError("--index needs --dot")
    n = _cap(args, "n", args.n, "n", least=1)
    # a bare count needs no labelled, sorted forests: count the bitmask ones
    all_forests = (forests._mask_forests(n) if args.count and args.dot is None
                   else forests.enumerate_forests(n))
    result: dict = {"n": n, "count": len(all_forests)}
    if not args.count:
        result["forests"] = [forests.forest_to_json(f) for f in all_forests]
    if args.dot is not None:
        index = args.index if args.index is not None else len(all_forests) - 1
        if not 0 <= index < len(all_forests):
            raise InputError(f"--index out of range 0..{len(all_forests) - 1}")
        _write_artifact(args.dot, forests.forest_to_dot(all_forests[index]))
        result["dot"] = args.dot
    _emit(args, result, text=f"{len(all_forests)}\n")
    return 0


def _cmd_nests(args) -> int:
    n = _cap(args, "n", args.n, "n", least=1)
    nests = wonderful.enumerate_nests(n, args.d)
    result: dict = {"n": n, "d": args.d, "count": len(nests)}
    if not args.count:
        result["nests"] = sorted([[list(b) for b in m] for m in sorted(
            map(wonderful.partition_blocks, nest))] for nest in nests)
    if args.dot is not None:
        _write_artifact(args.dot, wonderful.nest_poset_dot(n, args.d))
        result["dot"] = args.dot
    _emit(args, result, text=f"{len(nests)}\n")
    return 0


def _cmd_strata(args) -> int:
    n = _cap(args, "n", args.n, "n", least=1)
    poset = confcat.strata_poset(n)
    result = {
        "n": n,
        "count": len(poset.strata),
        "by_codim": {},
    }
    for phi in poset.strata:
        key = str(confcat.stratum_codim(phi))
        result["by_codim"][key] = result["by_codim"].get(key, 0) + 1
    if args.dot is not None:
        _write_artifact(args.dot, poset.to_dot())
        result["dot"] = args.dot
    _emit(args, result, text=f"{len(poset.strata)}\n")
    return 0


def _cmd_deltafin_check(args) -> int:
    if args.chain:
        _refuse_unread(args, "--chain",
                       ("functor", "max_level", "max_size", "samples", "seed", "unsafe_no_cap"))
        chain = _load(args.chain, finchains.chain_from_json, args)
        level_forest = forests.forest_to_json(forests.level_functor_object(chain))
        _emit(args, {"valid": True, "violations": [], "level_forest": level_forest},
              text="valid\n")
        return 0
    max_level = _cap(args, "max-level", args.max_level, "max_level")
    max_size = _cap(args, "max-size", args.max_size, "max_size", least=1)
    samples = _cap(args, "samples", args.samples, "samples")
    if not samples and not args.functor:
        _refuse_unread(args, "--samples 0", ("seed",))  # no chain or pair is drawn
    results = [checks.check_simplicial_identities(max_level, max_size,
                                                  samples=samples, seed=args.seed)]
    if args.functor:
        results.append(checks.check_level_functor(
            max_level if args.unsafe_no_cap else min(max_level, CAPS["functor_level"]),
            max_size, pair_samples=samples or 300, seed=args.seed))
    ok = all(r.ok for r in results)
    result = {
        "passed": ok,
        "checks": [
            {"name": r.name, "checked": r.checked, "failures": r.failures[:20]}
            for r in results
        ],
    }
    _emit(args, result, text="".join(r.summary() + "\n" for r in results))
    return 0 if ok else 1


def _cmd_blowup_validate(args) -> int:
    n = _cap(args, "n", args.n, "n", least=1)
    bset = wonderful.diagonal_building_set(n, args.d)
    if args.order:
        schedule = _load(args.order, lambda data: wonderful.schedule_from_json(bset, data), args)
    else:
        schedule = wonderful.default_order(bset)
    bad_prefix = wonderful.first_invalid_prefix(schedule)
    result = {
        "n": n,
        "d": args.d,
        "order": wonderful.schedule_to_json(schedule),
        "valid": bad_prefix is None,
        "first_invalid_prefix": bad_prefix,
        "divisors": [f"E_{wonderful.partition_label(c)}" for c in schedule.order],
    }
    _emit(args, result, text=("valid\n" if bad_prefix is None else f"invalid at prefix {bad_prefix}\n"))
    return 0


def _int_labels(flag: str, text: str):
    labels = []
    for x in text.split(","):
        try:
            labels.append(int(x))
        except ValueError:
            raise InputError(f"--{flag} label {x!r} is not an integer")
    return finchains.FiniteSet(labels)


def _cmd_forget_centers(args) -> int:
    if args.injection:
        _refuse_unread(args, "--injection", ("source", "target"))
        inj = _load(args.injection, finchains.injection_from_json, args)
    elif args.source and args.target:
        source = _int_labels("source", args.source)
        target = _int_labels("target", args.target)
        inj = finchains.SetMap(source, target, {x: x for x in source})
    else:
        raise InputError("forget-centers needs --injection or both --source and --target")
    # one center per subset of the source with two or more labels
    _cap(args, "target size", len(inj.target), "n")
    centers = wonderful.forgetful_centers(inj, args.d)
    labels = inj.target.labels
    result = {
        "source": list(inj.source.labels),
        "target": list(labels),
        "d": args.d,
        "centers": [[list(b) for b in wonderful.partition_blocks(c, labels)] for c in centers],
    }
    _emit(args, result,
          text="".join(wonderful.partition_label(c, labels) + "\n" for c in centers))
    return 0


def _load_descriptor(args):
    builtin = {
        "elliptic": weights.elliptic_curve,
        "affine-line": weights.affine_line,
        "projective-line": weights.projective_line,
    }
    if args.variety in builtin:
        return builtin[args.variety]()
    return _load(args.variety, weights.descriptor_from_json, args)


def _cmd_purity(args) -> int:
    x = _load_descriptor(args)
    n = _cap(args, "n", args.n, "n", least=1)
    max_deg = _cap(args, "max-deg", args.max_deg, "max_deg")
    hilbert = weights.purity_theorem_check(x, n, max_deg).to_json()
    verdict = "pure" if hilbert["pure"] else "violations"
    result = {
        "variety": x.name,
        "n": n,
        "verdict": verdict,
        "purity": {"verdict": verdict, "max_degree": max_deg,
                   "first_violation": hilbert["first_violation"], "hilbert": hilbert},
        "conf2": weights.conf2_purity_report(x).to_json(),
    }
    _emit(args, result, text=f"{result['verdict']}\n")
    return 0


def _cmd_hilbert(args) -> int:
    x = _load_descriptor(args)
    n = _cap(args, "n", args.n, "n", least=1)
    max_deg = _cap(args, "max-deg", args.max_deg, "max_deg")
    algebra = weights.presentation(x, n, args.relations)
    report = weights.hilbert_series(algebra, max_deg)
    result = {
        "variety": x.name,
        "n": n,
        "relation_set": args.relations,
        "dims": report.dims(),
        "report": report.to_json(),
    }
    _emit(args, result, text=" ".join(str(d) for d in report.dims()) + "\n")
    return 0


def _cmd_koszul(args) -> int:
    builtin = {"exterior": koszul.exterior_presentation, "symmetric": koszul.symmetric_presentation}
    kind, dash, size = args.presentation.partition("-")
    if args.presentation == "genus-1":
        p = koszul.genus_one_presentation()
    elif dash and kind in builtin:
        # isdecimal, not isdigit: int() refuses digits such as "²" that isdigit accepts
        if not (size.isdecimal() and int(size) > 0):
            raise InputError(f"bad presentation {args.presentation}: N must be a positive integer")
        # symmetric-N builds N(N-1)/2 vectors of N^2 entries: cap N first
        p = builtin[kind](_cap(args, "generators", int(size), "generators"))
    else:
        def decode(data):  # inside _load, so a count over the cap names the file
            p = koszul.presentation_from_json(data)
            _cap(args, "generators", p.generator_count, "generators")
            return p

        p = _load(args.presentation, decode, args)
    # the criterion keeps its own lower bound, N >= 2
    order = _cap(args, "max-deg", args.max_deg, "koszul_deg", least=None)
    verdict = koszul.koszul_criterion(p, order)
    result = verdict.to_json()
    _emit(args, result, text=verdict.note + "\n")
    return 0


# -- argument parsing ---------------------------------------------------------------


@functools.cache  # built once per process: _refuse_unread reads the defaults from it too
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="confstrata",
        description="Symbolic calculus for strata of compactified configuration spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="write the JSON report to this path")
        p.add_argument("--format", choices=["json", "text"], default=None)
        p.add_argument("--unsafe-no-cap", action="store_true",
                       help="override the hard size caps")
        p.add_argument("--selftest", action="store_true",
                       help="run this subcommand's property suite and exit")
        p.add_argument("--log", help="append a timestamped line to this sidecar log")

    p = sub.add_parser("forests", help="enumerate forests on {1..n}")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--count", action="store_true", help="emit the count only")
    p.add_argument("--dot", help="write the graph of one forest to this DOT file")
    p.add_argument("--index", type=int, help="which forest to export with --dot")
    common(p)

    p = sub.add_parser("nests", help="enumerate nests of the diagonal building set")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--count", action="store_true")
    p.add_argument("--dot", help="write the nest poset to this DOT file")
    common(p)

    p = sub.add_parser("strata", help="the poset of strata for n points")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--dot", help="write the strata poset to this DOT file")
    common(p)

    p = sub.add_parser("deltafin-check", help="simplicial identities and functor laws")
    p.add_argument("--max-level", type=int, default=2)
    p.add_argument("--max-size", type=int, default=3)
    p.add_argument("--functor", action="store_true",
                   help="also check the level/configuration functor composition laws; "
                        "at k <= min(max-level, functor_level) unless --unsafe-no-cap")
    p.add_argument("--samples", type=int, default=0,
                   help="random chains added to the simplicial identities, and random pairs "
                        "for --functor (0 draws no chains and 300 pairs)")
    p.add_argument("--seed", type=int, default=0, help="seed of the random chains and pairs")
    p.add_argument("--chain", help="validate a single chain JSON file instead")
    common(p)

    p = sub.add_parser("blowup-validate", help="prefix-validate a blow-up order")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--order", help="JSON file with an ordered member list")
    common(p)

    p = sub.add_parser("forget-centers", help="blow-up centers of a point-forgetting map")
    p.add_argument("--source", help="comma-separated labels, e.g. 1,2")
    p.add_argument("--target", help="comma-separated labels, e.g. 1,2,3")
    p.add_argument("--injection", help="JSON file {source, target, map}")
    p.add_argument("--d", type=int, default=1)
    common(p)

    p = sub.add_parser("purity", help="weight purity for n points in X x R")
    p.add_argument("--variety", required=False, default="elliptic",
                   help="descriptor JSON path or builtin name")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--max-deg", type=int, default=6)
    common(p)

    p = sub.add_parser("hilbert", help="Hilbert series with weight decomposition")
    p.add_argument("--variety", required=False, default="affine-line")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--max-deg", type=int, default=8)
    p.add_argument("--relations", default="default", choices=["default", "none"])
    common(p)

    p = sub.add_parser("koszul", help="quadratic dual and the Hilbert-series criterion")
    p.add_argument("--presentation", default="genus-1",
                   help="presentation JSON path or builtin (genus-1, exterior-N, symmetric-N)")
    p.add_argument("--max-deg", type=int, default=10)
    common(p)

    return parser


HANDLERS = {
    "forests": _cmd_forests,
    "nests": _cmd_nests,
    "strata": _cmd_strata,
    "deltafin-check": _cmd_deltafin_check,
    "blowup-validate": _cmd_blowup_validate,
    "forget-centers": _cmd_forget_centers,
    "purity": _cmd_purity,
    "hilbert": _cmd_hilbert,
    "koszul": _cmd_koszul,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.log:
            import datetime

            stamp = datetime.datetime.now().isoformat()
            _write_artifact(args.log, f"{stamp} {args.command}\n", mode="a")
        if args.selftest:
            # every flag but --log, sorted so that the one named does not hang on set order
            _refuse_unread(args, "--selftest",
                           sorted(vars(args).keys() - {"command", "selftest", "log"}))
            return _selftest(args.command)
        try:
            return HANDLERS[args.command](args)
        except weights.HypothesisRefusal as exc:  # no text form: JSON, to --out when given
            _send(args, json.dumps({"schema": SCHEMA, "command": args.command,
                                    "refusal": exc.to_json()}, sort_keys=True, indent=2) + "\n")
            return 2
    except (InputError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
