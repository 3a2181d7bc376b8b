"""Command-line entry point.

Subcommands: forests, nests, strata, deltafin-check, blowup-validate,
forget-centers, purity, hilbert, koszul.  Every subcommand supports
--selftest to run its module's property suite.  Reports are deterministic
JSON (sorted keys, no timestamps); exit status is 0 on success, 1 on input
errors or exceeded caps, 2 on hypothesis refusal.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import checks, confcat, finchains, forests, koszul, weights, wonderful

SCHEMA = "confstrata/1"

# Every size limit: the library checks only its domains, --unsafe-no-cap lifts
# every entry, and an over-cap request is refused (functor_level clamps).
CAPS = {"n": 6, "max_deg": 40, "max_level": 3, "max_size": 4,
        "koszul_deg": 12, "functor_level": 2, "generators": 6}


class RunConfig:
    def __init__(self, command: str, params: dict, out: str | None, fmt: str,
                 unsafe_no_cap: bool):
        self.command = command
        self.params = params
        self.out = out
        self.fmt = fmt
        self.unsafe_no_cap = unsafe_no_cap
        self.input_digest = None


class InputError(Exception):
    pass


def _cap(config: RunConfig, name: str, value: int, cap_key: str, least: int | None = 0):
    if least is not None and value < least:
        raise InputError(f"{name} must be at least {least}" if least
                         else f"{name} must be non-negative")
    if not config.unsafe_no_cap and value > CAPS[cap_key]:
        raise InputError(
            f"{name}={value} exceeds the cap {CAPS[cap_key]} (use --unsafe-no-cap to override)")
    return value


def _load(path: str, decode, config: RunConfig):
    """Read, hash and decode one input file: every fault is one line naming the file."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    import hashlib

    config.input_digest = hashlib.sha256(raw).hexdigest()
    try:
        return decode(json.loads(raw))
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {path}: line {exc.lineno} column {exc.colno}")
    except RecursionError:
        raise InputError(f"malformed JSON in {path}: nested too deeply")
    except KeyError as exc:
        raise InputError(f"{path}: missing field {exc}")
    except (InputError, ValueError) as exc:
        raise InputError(f"{path}: {exc}")


def _emit(config: RunConfig, result: dict, text: str | None = None) -> None:
    payload = {
        "schema": SCHEMA,
        "command": config.command,
        "params": config.params,
        "input_digest": config.input_digest,
        "result": result,
    }
    if config.fmt == "text" and text is not None:
        body = text
    else:
        body = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if config.out:
        _write_artifact(config.out, body)
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


def _cmd_forests(args, config: RunConfig) -> int:
    n = _cap(config, "n", args.n, "n", least=1)
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
    _emit(config, result, text=f"{len(all_forests)}\n")
    return 0


def _cmd_nests(args, config: RunConfig) -> int:
    n = _cap(config, "n", args.n, "n", least=1)
    nests = wonderful.enumerate_nests(n, args.d)
    result: dict = {"n": n, "d": args.d, "count": len(nests)}
    if not args.count:
        result["nests"] = sorted([[list(b) for b in m] for m in sorted(
            map(wonderful.partition_blocks, nest))] for nest in nests)
    if args.dot is not None:
        _write_artifact(args.dot, wonderful.nest_poset_dot(n, args.d))
        result["dot"] = args.dot
    _emit(config, result, text=f"{len(nests)}\n")
    return 0


def _cmd_strata(args, config: RunConfig) -> int:
    n = _cap(config, "n", args.n, "n", least=1)
    poset = confcat.strata_poset(n)
    result = {
        "n": n,
        "count": len(poset.strata),
        "by_codim": {},
    }
    for s in poset.strata:
        key = str(s.codim)
        result["by_codim"][key] = result["by_codim"].get(key, 0) + 1
    if args.dot is not None:
        _write_artifact(args.dot, poset.to_dot())
        result["dot"] = args.dot
    _emit(config, result, text=f"{len(poset.strata)}\n")
    return 0


def _cmd_deltafin_check(args, config: RunConfig) -> int:
    if args.chain:
        chain = _load(args.chain, finchains.chain_from_json, config)
        level_forest = forests.forest_to_json(forests.level_functor_object(chain))
        _emit(config, {"valid": True, "violations": [], "level_forest": level_forest},
              text="valid\n")
        return 0
    max_level = _cap(config, "max-level", args.max_level, "max_level")
    max_size = _cap(config, "max-size", args.max_size, "max_size", least=1)
    if args.samples < 0:
        raise InputError("samples must be non-negative")
    results = [checks.check_simplicial_identities(max_level, max_size,
                                                  samples=args.samples, seed=args.seed)]
    if args.functor:
        results.append(checks.check_level_functor(
            max_level if config.unsafe_no_cap else min(max_level, CAPS["functor_level"]),
            max_size, pair_samples=args.samples or 300, seed=args.seed))
    ok = all(r.ok for r in results)
    result = {
        "passed": ok,
        "checks": [
            {"name": r.name, "checked": r.checked, "failures": r.failures[:20]}
            for r in results
        ],
    }
    _emit(config, result, text="".join(r.summary() + "\n" for r in results))
    return 0 if ok else 1


def _cmd_blowup_validate(args, config: RunConfig) -> int:
    n = _cap(config, "n", args.n, "n", least=1)
    bset = wonderful.diagonal_building_set(n, args.d)
    if args.order:
        schedule = _load(args.order, lambda data: wonderful.schedule_from_json(bset, data), config)
    else:
        schedule = wonderful.default_order(bset)
    bad_prefix = wonderful.first_invalid_prefix(schedule)
    result = {
        "n": n,
        "d": args.d,
        "order": wonderful.schedule_to_json(schedule),
        "valid": bad_prefix is None,
        "first_invalid_prefix": bad_prefix,
        "divisors": [record.label for record in schedule.divisor_registry],
    }
    _emit(config, result, text=("valid\n" if bad_prefix is None else f"invalid at prefix {bad_prefix}\n"))
    return 0


def _int_labels(flag: str, text: str):
    labels = []
    for x in text.split(","):
        try:
            labels.append(int(x))
        except ValueError:
            raise InputError(f"--{flag} label {x!r} is not an integer")
    return finchains.FiniteSet(labels)


def _cmd_forget_centers(args, config: RunConfig) -> int:
    if args.injection:
        inj = _load(args.injection, finchains.injection_from_json, config)
    elif args.source and args.target:
        source = _int_labels("source", args.source)
        target = _int_labels("target", args.target)
        inj = finchains.SetMap(source, target, {x: x for x in source})
    else:
        raise InputError("forget-centers needs --injection or both --source and --target")
    # one center per subset of the source with two or more labels
    _cap(config, "target size", len(inj.target), "n")
    centers = wonderful.forgetful_centers(inj, args.d)
    labels = inj.target.labels
    result = {
        "source": list(inj.source.labels),
        "target": list(labels),
        "d": args.d,
        "centers": [[list(b) for b in wonderful.partition_blocks(c, labels)] for c in centers],
    }
    _emit(config, result,
          text="".join(wonderful.partition_label(c, labels) + "\n" for c in centers))
    return 0


def _load_descriptor(args, config: RunConfig):
    builtin = {
        "elliptic": weights.elliptic_curve,
        "affine-line": weights.affine_line,
        "projective-line": weights.projective_line,
    }
    if args.variety in builtin:
        return builtin[args.variety]()
    return _load(args.variety, weights.descriptor_from_json, config)


def _cmd_purity(args, config: RunConfig) -> int:
    x = _load_descriptor(args, config)
    n = _cap(config, "n", args.n, "n", least=1)
    max_deg = _cap(config, "max-deg", args.max_deg, "max_deg")
    verdict = weights.purity_theorem_check(x, n, max_deg)
    conf2 = weights.conf2_purity_report(x)
    result = {
        "variety": x.name,
        "n": n,
        "verdict": verdict.to_json()["verdict"],
        "purity": verdict.to_json(),
        "conf2": conf2.to_json(),
    }
    _emit(config, result, text=f"{result['verdict']}\n")
    return 0


def _cmd_hilbert(args, config: RunConfig) -> int:
    x = _load_descriptor(args, config)
    n = _cap(config, "n", args.n, "n", least=1)
    max_deg = _cap(config, "max-deg", args.max_deg, "max_deg")
    algebra = weights.presentation(x, n, args.relations)
    report = weights.hilbert_series(algebra, max_deg)
    result = {
        "variety": x.name,
        "n": n,
        "relation_set": args.relations,
        "dims": report.dims(),
        "report": report.to_json(),
    }
    _emit(config, result, text=" ".join(str(d) for d in report.dims()) + "\n")
    return 0


def _cmd_koszul(args, config: RunConfig) -> int:
    builtin = {"exterior": koszul.exterior_presentation, "symmetric": koszul.symmetric_presentation}
    kind, dash, size = args.presentation.partition("-")
    if args.presentation == "genus-1":
        p = koszul.genus_one_presentation()
    elif dash and kind in builtin:
        # isdecimal, not isdigit: int() refuses digits such as "²" that isdigit accepts
        if not (size.isdecimal() and int(size) > 0):
            raise InputError(f"bad presentation {args.presentation}: N must be a positive integer")
        # symmetric-N builds N(N-1)/2 vectors of N^2 entries: cap N first
        p = builtin[kind](_cap(config, "generators", int(size), "generators"))
    else:
        def decode(data):  # inside _load, so a count over the cap names the file
            p = koszul.presentation_from_json(data)
            _cap(config, "generators", p.generator_count, "generators")
            return p

        p = _load(args.presentation, decode, config)
    # the criterion keeps its own lower bound, N >= 2
    order = _cap(config, "max-deg", args.max_deg, "koszul_deg", least=None)
    verdict = koszul.koszul_criterion(p, order)
    result = verdict.to_json()
    _emit(config, result, text=verdict.note + "\n")
    return 0


# -- argument parsing ---------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="confstrata",
        description="Symbolic calculus for strata of compactified configuration spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="write the JSON report to this path")
        p.add_argument("--format", dest="fmt", choices=["json", "text"], default=None)
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
    parser = _build_parser()
    args = parser.parse_args(argv)
    fmt = args.fmt
    if fmt is None:
        # bare counts read better as plain text; everything else defaults to JSON
        fmt = "text" if getattr(args, "count", False) else "json"
    params = {
        k: v for k, v in vars(args).items()
        if k not in {"command", "out", "fmt", "unsafe_no_cap", "selftest", "log"} and v is not None
    }
    config = RunConfig(args.command, params, args.out, fmt, args.unsafe_no_cap)
    try:
        if args.log:
            import datetime

            stamp = datetime.datetime.now().isoformat()
            _write_artifact(args.log, f"{stamp} {args.command}\n", mode="a")
        if args.selftest:
            return _selftest(args.command)
        return HANDLERS[args.command](args, config)
    except (InputError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except weights.HypothesisRefusal as exc:
        body = json.dumps({"schema": SCHEMA, "command": args.command,
                           "refusal": exc.to_json()}, sort_keys=True, indent=2)
        print(body)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
