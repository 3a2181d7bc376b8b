"""Benchmark of the confstrata CLI, driven from outside the program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --repeat K

Run it from the root of a source checkout; the package is not installed,
each request is a fresh `python -m confstrata.cli ...` process with `src`
on PYTHONPATH.  One closed-loop client sends each request when the previous
one has exited.  Every answer is checked against an oracle in
`oracles.py`, which shares no code with `src/`; a wrong answer makes the run
exit 1 and names the request.

With --trace 0 the run measures end-to-end metrics: it sweeps the
workload's request list forward, then backward, and so on, for about
--seconds.  With --trace 1 it makes one plain pass, one pass with
every request under `tracer.py`, and one probe process, and reports
per-layer time, self time and counts.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import LAYER_SPANS  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
# One `import confstrata.cli` sample is taken before a request whenever this
# long has passed since the last one, so setup_s spans the whole run.
SETUP_EVERY_S = 2.0
SETUP_ARGV = [sys.executable, "-c", "import confstrata.cli"]


class BenchmarkError(Exception):
    """The benchmark itself cannot give a valid result."""


def per_layer_names():
    """Every per-layer metric with its unit: total and self time, then the counts."""
    out = []
    for span, counts in LAYER_SPANS:
        out += [(f"{span}.s", "s"), (f"{span}.self_s", "s")]
        out += [(f"{span}.{key}", "count") for key in counts]
    return out + [("trace.wall_s", "s"), ("trace.overhead_s", "s")]


# -- running one process ------------------------------------------------------------


@dataclass
class Outcome:
    code: int | None
    wall: float
    rss_mb: float
    cpu: float
    stdout: str
    stderr: str
    timed_out: bool


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"  # set iteration order, hence every count, repeats exactly
    return env


def spawn(argv, workdir: Path, timeout: float) -> Outcome:
    """Run one process to completion; wall time, peak RSS and CPU come from wait4."""
    out_path, err_path = workdir / "stdout.txt", workdir / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=workdir, env=_child_env(), stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        reaped = []

        def reap():
            _, status, usage = os.wait4(proc.pid, 0)
            reaped.append((time.perf_counter(), status, usage))

        waiter = threading.Thread(target=reap)
        waiter.start()
        try:
            waiter.join(timeout)
        finally:
            # On timeout or interrupt, kill the child and let the waiter reap it.
            # An interrupted join() can mark the waiter stopped while it still
            # waits, so the test is whether the child was reaped.
            timed_out = not reaped
            if timed_out:
                os.kill(proc.pid, signal.SIGKILL)
                while not reaped:
                    time.sleep(0.01)
    end, status, usage = reaped[0]
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(
        code=None if timed_out else proc.returncode,
        wall=end - start,
        rss_mb=usage.ru_maxrss / 1024.0,
        cpu=usage.ru_utime + usage.ru_stime,
        stdout=out_path.read_text(errors="replace"),
        stderr=err_path.read_text(errors="replace"),
        timed_out=timed_out,
    )


def cli_argv(request):
    return [sys.executable, "-m", "confstrata.cli", *request.argv]


def traced_argv(request, spans_file):
    return [sys.executable, str(HERE / "tracer.py"), str(spans_file), request.rid, "--",
            *request.argv]


# -- judging one request ----------------------------------------------------------------


def failure_of(request, out: Outcome):
    """Why the request failed (exit status, traceback, error shape, timeout), or None."""
    if out.timed_out:
        return f"no answer within {request.timeout:g} s"
    if "Traceback (most recent call last)" in out.stderr:
        return "Python traceback: " + out.stderr.strip().splitlines()[-1]
    allowed = (0, 1) if request.expect_exit is None else (request.expect_exit,)
    if out.code not in allowed:
        return f"exit {out.code}, expected {request.expect_exit}"
    if out.code == 1:
        lines = out.stderr.splitlines()
        if len(lines) != 1 or not lines[0].startswith("error: "):
            return f"stderr is not exactly one error: line ({len(lines)} lines)"
    return None


def wrong_answer_of(request, out: Outcome):
    """The oracle's objection to a successful answer, or None."""
    if out.code == 2:
        try:
            refusal = json.loads(out.stdout).get("refusal")
        except ValueError:
            refusal = None
        return None if refusal else "exit 2 without a refusal report"
    if out.code != 0 or request.check is None:
        return None
    try:
        payload = int(out.stdout) if request.text else json.loads(out.stdout)
        return request.check(payload)
    except Exception as exc:  # an answer the oracle cannot even read is wrong
        return f"unreadable answer: {exc!r}"


@dataclass
class Tally:
    times: list = field(default_factory=list)
    rss: list = field(default_factory=list)
    attempted: int = 0
    failures: list = field(default_factory=list)
    wrong: list = field(default_factory=list)

    def record(self, request, out: Outcome):
        self.attempted += 1
        self.rss.append(out.rss_mb)
        reason = failure_of(request, out)
        if reason:
            self.failures.append((request.rid, reason))
        else:
            self.times.append(out.wall)
        problem = wrong_answer_of(request, out)
        if problem:
            self.wrong.append((request.rid, problem))


def run_pass(requests, workdir, tally: Tally, argv_of=cli_argv):
    """One closed-loop pass; returns the sum of the requests' own wall times."""
    wall = 0.0
    for request in requests:
        out = spawn(argv_of(request), workdir, request.timeout)
        wall += out.wall
        tally.record(request, out)
    return wall


def nearest_rank(sorted_values, q):
    """The q-quantile by the nearest-rank rule: an observed value, never an interpolation."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


# -- the two kinds of run -----------------------------------------------------------------


def run_plain(workload, workdir, seconds):
    """End-to-end metrics from about `seconds` of requests.

    The client sweeps the request list forward, then backward, and so on.  It
    always finishes the first sweep; after that it starts a request only if
    the request's median time so far still fits in `seconds`.  wall_s is the
    time of one pass, estimated as the sum over requests of each request's
    median wall time.  setup_s is the median of the import samples taken
    every SETUP_EVERY_S between requests.  Returns the gated metrics, the
    printed-only figures, the tally and the known-defect tally.
    """
    spawn(SETUP_ARGV, workdir, 60)  # the first import writes bytecode caches; users pay that once
    setups = []
    tally = Tally()
    walls, cpus = {}, {}
    begin = last_setup = time.perf_counter()
    sweeps, full = 0, True
    while full:
        order = workload.requests if sweeps % 2 == 0 else workload.requests[::-1]
        for request in order:
            past = walls.get(request.rid)
            now = time.perf_counter()
            if sweeps and now - begin + statistics.median(past) > seconds:
                full = False
                break
            if not setups or now - last_setup >= SETUP_EVERY_S:
                setups.append(spawn(SETUP_ARGV, workdir, 60).wall)
                last_setup = time.perf_counter()
            out = spawn(cli_argv(request), workdir, request.timeout)
            tally.record(request, out)
            walls.setdefault(request.rid, []).append(out.wall)
            cpus.setdefault(request.rid, []).append(out.cpu)
        sweeps += 1
    defects = Tally()
    run_pass(workload.known_defects, workdir, defects)
    times = sorted(tally.times) or [0.0]
    samples = sum(len(v) for v in walls.values())
    metrics = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "wall_s": (sum(statistics.median(v) for v in walls.values()), "s", samples),
        "peak_rss_mb": (max(tally.rss), "MB", len(tally.rss)),
    }
    printed = {}
    for request in workload.requests:  # wall_s split by subcommand, to show which part moved
        key = f"wall_s[{request.argv[0]}]"
        value, _, n = printed.get(key, (0.0, "s", 0))
        printed[key] = (value + statistics.median(walls[request.rid]), "s",
                        n + len(walls[request.rid]))
    printed |= {
        "req_p50_s": (nearest_rank(times, 0.5), "s", len(times)),
        "req_p90_s": (nearest_rank(times, 0.9), "s", len(times)),
        "cpu_s (user+sys, diagnostic)": (sum(statistics.median(v) for v in cpus.values()),
                                         "s", samples),
    }
    return metrics, printed, tally, defects


def aggregate_spans(span_files):
    """Total time, self time and counts per span name over every traced process."""
    totals = {}
    for path in span_files:
        spans = json.loads(path.read_text())["spans"]
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent is not None:
                child_time[parent] += end - start
        for i, (name, start, end, parent, counts) in enumerate(spans):
            entry = totals.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            entry["s"] += end - start
            entry["self_s"] += end - start - child_time[i]
            entry["calls"] += 1
            for key, value in (counts or {}).items():
                entry[key] = entry.get(key, 0) + value
    return totals


def run_traced(workload, workdir, seed):
    """Per-layer metrics: one plain pass, one traced pass, one probe process."""
    tally = Tally()
    plain_wall = run_pass(workload.requests, workdir, tally)
    spans_dir = workdir / "spans"
    spans_dir.mkdir()
    traced_wall = run_pass(workload.requests, workdir, tally,
                           argv_of=lambda r: traced_argv(r, spans_dir / f"{r.rid}.json"))
    probe = workloads.Request("probe", [])
    tally.record(probe, spawn([sys.executable, str(HERE / "tracer.py"),
                               str(spans_dir / "probe.json"), "probe", str(seed)], workdir, 120))
    totals = aggregate_spans(sorted(spans_dir.glob("*.json")))
    missing = [f"{span}.{key}" for span, keys in LAYER_SPANS
               for key in ("calls", *keys) if key not in totals.get(span, {})]
    if missing:
        raise BenchmarkError("the traced run recorded no " + ", ".join(missing))
    metrics = {}
    for name, unit in per_layer_names():
        span, _, key = name.rpartition(".")
        if span != "trace":
            metrics[name] = (totals[span][key], unit, totals[span]["calls"])
    metrics["trace.wall_s"] = (traced_wall, "s", 1)
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s", 1)
    return metrics, tally


# -- metadata and report ---------------------------------------------------------------------


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def metadata(seed, digest):
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {"nproc": os.cpu_count(), "cpu_model": cpu_model,
            "python": platform.python_version(), "git_commit": _git_commit(),
            "seed": seed, "input_digest": digest, "src_lines": src_lines}


def report_line(name, value, unit, samples):
    return f"  {name:<44} {value:>14.6f} {unit:<6} n={samples}"


def run_workload(name, seed, seconds, trace):
    """Run one workload; returns (metrics, tally, known-defect tally, printed lines)."""
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        workload = workloads.build(name, seed, workdir)
        lines = [f"workload {name}: {workloads.WHY[name]}",
                 "meta " + json.dumps(metadata(seed, workload.digest), sort_keys=True)]
        printed, defects = {}, Tally()
        if trace:
            metrics, tally = run_traced(workload, workdir, seed)
        else:
            metrics, printed, tally, defects = run_plain(workload, workdir, seconds)
        for metric, (value, unit, samples) in {**metrics, **printed}.items():
            lines.append(report_line(metric, value, unit, samples))
        failed = len(tally.failures) + len(defects.failures)
        attempted = tally.attempted + defects.attempted
        lines.append(f"  failed_frac {failed}/{attempted} = {failed / attempted:.4f}"
                     f" ({len(defects.failures)} of {defects.attempted} known-defect probes)")
        item = {r.rid: r.known_defect for r in workload.known_defects}
        lines += [f"    known defect still present ({item[rid]}): {rid}: {reason}"
                  for rid, reason in defects.failures]
        still = {rid for rid, _ in defects.failures}
        lines += [f"    known defect no longer fails ({r.known_defect}): {r.rid}"
                  for r in workload.known_defects if not trace and r.rid not in still]
        lines += [f"    FAILED {rid}: {reason}" for rid, reason in tally.failures]
        lines += [f"    WRONG ANSWER {rid}: {problem}" for rid, problem in tally.wrong + defects.wrong]
        return metrics, tally, defects, lines
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="with --workload all: rounds over every workload, "
                             "in alternating order")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind like an interrupt: the running child is killed and reaped
    # and the work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "confstrata" / "cli.py").is_file():
        print(f"error: no confstrata sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    if args.workload == "all":
        rounds = [list(workloads.WORKLOADS) if r % 2 == 0 else list(workloads.WORKLOADS)[::-1]
                  for r in range(args.repeat)]
        jobs = [name for order in rounds for name in order]
    else:
        jobs = [args.workload]
    collected = {}
    attempted = failed = 0
    wrong = []
    for name in jobs:
        try:
            metrics, tally, defects, lines = run_workload(name, args.seed, args.seconds,
                                                          args.trace)
        except BenchmarkError as exc:
            print(f"error: workload {name}: {exc}", file=sys.stderr)
            return 1
        print("\n".join(lines), flush=True)
        attempted += tally.attempted
        failed += len(tally.failures)
        wrong += [(name, rid, problem) for rid, problem in tally.wrong + defects.wrong]
        for metric, (value, unit, _) in metrics.items():
            key = metric if args.workload != "all" else f"{name}.{metric}"
            collected.setdefault(key, ([], unit))[0].append(value)
    for name, rid, problem in wrong:
        print(f"oracle mismatch: workload {name}, request {rid}: {problem}", file=sys.stderr)
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": statistics.median(v), "unit": u} for k, (v, u) in collected.items()},
    }
    print(json.dumps(result))
    return 1 if wrong else 0


if __name__ == "__main__":
    raise SystemExit(main())
