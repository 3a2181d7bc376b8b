import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import confstrata
from confstrata import cli
from confstrata.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_forests_count(capsys):
    code, out = run_cli(capsys, "forests", "--n", "3", "--count", "--format", "text")
    assert code == 0
    assert out.strip() == "8"


def test_forests_count_defaults_to_text(capsys):
    code, out = run_cli(capsys, "forests", "--n", "3", "--count")
    assert code == 0
    assert out.strip() == "8"


def test_deltafin_chain_validation(tmp_path, capsys):
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps({
        "sets": [[1, 2], ["*"]],
        "maps": [{"from": 0, "assignment": {"1": "*", "2": "*"}}],
    }))
    code, out = run_cli(capsys, "deltafin-check", "--chain", str(chain))
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["valid"] is True
    assert payload["result"]["level_forest"]["blocks"] == [[1], [2], [1, 2]]


def test_forests_json_payload(capsys):
    code, out = run_cli(capsys, "forests", "--n", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "confstrata/1"
    assert payload["result"]["count"] == 2
    assert len(payload["result"]["forests"]) == 2


def test_reports_are_deterministic(capsys):
    _, first = run_cli(capsys, "nests", "--n", "3")
    _, second = run_cli(capsys, "nests", "--n", "3")
    assert first == second


def test_cap_exceeded_is_input_error(capsys):
    code, _ = run_cli(capsys, "forests", "--n", "9")
    assert code == 1


def test_unsafe_no_cap_override(capsys):
    code, out = run_cli(capsys, "forests", "--n", "6", "--count", "--format", "text",
                        "--unsafe-no-cap")
    assert code == 0 and out.strip() == "5504"
    hilbert = ["hilbert", "--variety", "affine-line", "--n", "1", "--max-deg", "41"]
    assert main(hilbert) == 1
    assert "exceeds the cap 40" in capsys.readouterr().err
    assert main(hilbert + ["--unsafe-no-cap"]) == 0
    assert len(json.loads(capsys.readouterr().out)["result"]["dims"]) == 42


# (CAPS entry, lowered cap, a request one over it, the name in the error line).
# Lowering the caps keeps every request small, with the flag too.
CAPPED = [
    ("n", 2, ["forests", "--n", "3", "--count"], "n"),
    ("n", 2, ["nests", "--n", "3", "--count"], "n"),
    ("n", 2, ["blowup-validate", "--n", "3"], "n"),
    ("n", 2, ["hilbert", "--n", "3", "--max-deg", "2"], "n"),
    ("n", 2, ["purity", "--n", "3", "--max-deg", "2"], "n"),
    ("n", 2, ["forget-centers", "--source", "1,2", "--target", "1,2,3"], "target size"),
    ("n", 2, ["strata", "--n", "3"], "n"),
    ("max_deg", 2, ["hilbert", "--n", "2", "--max-deg", "3"], "max-deg"),
    ("max_deg", 2, ["purity", "--n", "2", "--max-deg", "3"], "max-deg"),
    ("max_level", 1, ["deltafin-check", "--max-level", "2", "--max-size", "1"], "max-level"),
    ("max_size", 1, ["deltafin-check", "--max-level", "1", "--max-size", "2"], "max-size"),
    ("koszul_deg", 3, ["koszul", "--presentation", "genus-1", "--max-deg", "4"], "max-deg"),
    ("generators", 2, ["koszul", "--presentation", "exterior-3", "--max-deg", "3"], "generators"),
    ("generators", 2, ["koszul", "--presentation", "symmetric-3", "--max-deg", "3"], "generators"),
]


def test_every_cap_is_in_the_table():
    assert len(cli.CAPS) == 7
    assert {row[0] for row in CAPPED} | {"functor_level"} == set(cli.CAPS)


@pytest.mark.parametrize("key,cap,argv,name", CAPPED,
                         ids=[f"{row[0]}:{' '.join(row[2][:3])}" for row in CAPPED])
def test_over_cap_is_refused_and_the_flag_lifts_it(monkeypatch, capsys, key, cap, argv, name):
    monkeypatch.setitem(cli.CAPS, key, cap)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {name}={cap + 1} exceeds the cap {cap} (use --unsafe-no-cap to override)\n")
    assert main(argv + ["--unsafe-no-cap"]) == 0
    assert capsys.readouterr().err == ""


def test_functor_level_cap_clamps_and_the_flag_lifts_it(monkeypatch, capsys):
    monkeypatch.setitem(cli.CAPS, "functor_level", 1)
    argv = ["deltafin-check", "--max-level", "2", "--max-size", "1", "--functor", "--format", "text"]
    assert main(argv) == 0
    assert "level functor (k<=1, |S|<=1)" in capsys.readouterr().out
    assert main(argv + ["--unsafe-no-cap"]) == 0
    assert "level functor (k<=2, |S|<=1)" in capsys.readouterr().out


def test_strata_at_the_n_cap_matches_closed_forms(capsys):
    code, out = run_cli(capsys, "strata", "--n", "6")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["count"] == 2 * 2752  # one stratum per forest: twice OEIS A000311(6)
    by_codim = result["by_codim"]
    assert by_codim["1"] == 2 ** 6 - 7  # one diagonal per subset of two or more points
    assert by_codim["5"] == 9 * 7 * 5 * 3  # the points: (2n - 3)!! binary trees on 6 leaves
    assert by_codim == {"0": 1, "1": 57, "2": 546, "3": 1750, "4": 2205, "5": 945}
    assert main(["strata", "--n", "7"]) == 1
    assert capsys.readouterr().err == (
        "error: n=7 exceeds the cap 6 (use --unsafe-no-cap to override)\n")


def test_strata_dot_artifact(tmp_path, capsys):
    dot = tmp_path / "strata.dot"
    code, out = run_cli(capsys, "strata", "--n", "2", "--dot", str(dot))
    assert code == 0
    assert dot.read_text().startswith("digraph strata {")
    payload = json.loads(out)
    assert payload["result"]["count"] == 2


def test_purity_elliptic(capsys):
    code, out = run_cli(capsys, "purity", "--variety", "elliptic", "--n", "2", "--max-deg", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["verdict"] == "pure"
    assert payload["result"]["conf2"]["pure"] is True


def test_purity_refusal_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "name": "bad", "d": 1, "q": 2, "diagonal_class_vanishes": True,
        "cohomology": {"0": [{"weight": 0, "mult": 1}], "1": [{"weight": 0, "mult": 2}]},
    }))
    code, out = run_cli(capsys, "purity", "--variety", str(bad), "--n", "2", "--max-deg", "4")
    assert code == 2
    payload = json.loads(out)
    assert payload["refusal"]["refused"] is True
    assert payload["refusal"]["violations"] == [[1, 0]]


def test_purity_embeds_input_digest(tmp_path, capsys):
    good = tmp_path / "elliptic.json"
    good.write_text(json.dumps({
        "name": "e", "d": 1, "q": 2, "diagonal_class_vanishes": True,
        "cohomology": {"0": [{"weight": 0, "mult": 1}],
                       "1": [{"weight": 1, "mult": 2}],
                       "2": [{"weight": 2, "mult": 1}]},
    }))
    code, out = run_cli(capsys, "purity", "--variety", str(good), "--n", "2", "--max-deg", "4")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["input_digest"]) == 64


def test_malformed_json_is_input_error(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    code, _ = run_cli(capsys, "purity", "--variety", str(bad), "--n", "2", "--max-deg", "4")
    assert code == 1
    # the decoder's own recursion limit, not a traceback
    bad.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["deltafin-check", "--chain", str(bad)]) == 1
    assert capsys.readouterr().err == f"error: malformed JSON in {bad}: nested too deeply\n"


def test_hilbert_text(capsys):
    code, out = run_cli(capsys, "hilbert", "--variety", "affine-line", "--n", "3",
                        "--max-deg", "8", "--format", "text")
    assert code == 0
    assert out.split() == ["1", "0", "3", "0", "2", "0", "0", "0", "0"]


def test_koszul_builtin(capsys):
    code, out = run_cli(capsys, "koszul", "--presentation", "genus-1", "--max-deg", "10")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["verdict"] == "PASS"


def test_koszul_from_file(tmp_path, capsys):
    pres = tmp_path / "p.json"
    pres.write_text(json.dumps({
        "generators": 2, "convention": "graded-commutative",
        "relations": [["1", "0", "0", "0"], ["0", "0", "0", "1"]],
    }))
    code, out = run_cli(capsys, "koszul", "--presentation", str(pres), "--max-deg", "6")
    assert code == 0
    assert json.loads(out)["result"]["verdict"] == "PASS"


def test_koszul_fail_verdict_still_exits_zero(tmp_path, capsys):
    pres = tmp_path / "nk.json"
    pres.write_text(json.dumps({
        "generators": 3, "convention": "free",
        "relations": [
            [-1, 0, 1, -1, -1, 1, -1, 0, 1],
            [-1, 1, -1, -1, -1, 0, 0, -1, -1],
            [-1, 1, 0, -1, 1, -1, -1, 1, 1],
        ],
    }))
    code, out = run_cli(capsys, "koszul", "--presentation", str(pres), "--max-deg", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["verdict"] == "FAIL"
    assert payload["result"]["first_discrepancy"] == [6, "27"]


def test_out_file_written(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out = run_cli(capsys, "forests", "--n", "2", "--out", str(out_path))
    assert code == 0
    assert out == ""  # report went to the file
    assert json.loads(out_path.read_text())["result"]["count"] == 2


def test_blowup_validate_bad_order(tmp_path, capsys):
    order = tmp_path / "order.json"
    order.write_text(json.dumps([
        [[1, 2]], [[1, 3]], [[2, 3]], [[1, 2, 3]],
    ]))
    code, out = run_cli(capsys, "blowup-validate", "--n", "3", "--order", str(order))
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["valid"] is False
    assert payload["result"]["first_invalid_prefix"] == 3


# each member in place of {1,2} (or the last row, a repeated member) is no member
REST = [[[1, 3]], [[2, 3]], [[1, 2, 3]]]
BAD_ORDERS = [
    ("label-zero", [[[0, 1]], *REST]),
    ("label-twice", [[[1, 1, 2]], *REST]),
    ("label-negative", [[[-1, 2]], *REST]),
    ("blocks-overlap", [[[1, 2], [2, 3]], *REST]),
    ("singleton", [[[1]], *REST]),
    ("member-repeated", [[[1, 3]], *REST]),
]


@pytest.mark.parametrize("name,order", BAD_ORDERS, ids=[b[0] for b in BAD_ORDERS])
def test_blowup_validate_refuses_an_order_that_is_no_permutation(tmp_path, capsys, name, order):
    path = tmp_path / "order.json"
    path.write_text(json.dumps(order))
    assert main(["blowup-validate", "--n", "3", "--order", str(path)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", f"error: {path}: order must be a permutation of the building-set members\n")


def test_forget_centers_inline(capsys):
    code, out = run_cli(capsys, "forget-centers", "--source", "1,2", "--target", "1,2,3")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["centers"] == [[[1, 2]]]


def test_forget_centers_injection_file(tmp_path, capsys):
    inj = tmp_path / "inj.json"
    inj.write_text(json.dumps({"source": [1, 2], "target": [1, 2, 3], "map": {"1": 3, "2": 1}}))
    code, out = run_cli(capsys, "forget-centers", "--injection", str(inj))
    assert code == 0
    assert json.loads(out)["result"]["centers"] == [[[1, 3]]]


def test_forget_centers_on_mixed_labels_sorts_ties_in_label_order(tmp_path, capsys):
    inj = tmp_path / "inj.json"
    inj.write_text(json.dumps({"source": [1, "a", 2], "target": [1, "a", 2, "b"]}))
    code, out = run_cli(capsys, "forget-centers", "--injection", str(inj))
    assert code == 0
    assert json.loads(out)["result"]["centers"] == [
        [[1, 2, "a"]], [[1, 2]], [[1, "a"]], [[2, "a"]]]
    assert main(["forget-centers", "--injection", str(inj), "--format", "text"]) == 0
    assert capsys.readouterr().out == "{1,2,a}\n{1,2}\n{1,a}\n{2,a}\n"


def test_forget_centers_cap_counts_target_labels(tmp_path, capsys):
    labels = list(range(1, 8))
    inj = tmp_path / "inj.json"
    inj.write_text(json.dumps({"source": labels, "target": labels}))
    inline = ["forget-centers", "--source", "1,2,3,4,5,6,7", "--target", "1,2,3,4,5,6,7"]
    for argv in (inline, ["forget-centers", "--injection", str(inj)]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: target size=7 exceeds the cap 6 (use --unsafe-no-cap to override)\n"
        assert main(argv + ["--unsafe-no-cap"]) == 0
        centers = json.loads(capsys.readouterr().out)["result"]["centers"]
        assert len(centers) == 2 ** 7 - 7 - 1  # every subset of two or more labels


def test_deltafin_check_passes(capsys):
    code, out = run_cli(capsys, "deltafin-check", "--max-level", "1", "--max-size", "2",
                        "--functor", "--samples", "25")
    assert code == 0
    assert json.loads(out)["result"]["passed"] is True


def test_selftest_smoke(capsys):
    code = main(["blowup-validate", "--selftest"])
    out = capsys.readouterr().out
    assert code == 0
    assert "ok" in out


def run_child(*args):
    """Run a fresh interpreter without bytecode that imports the package under test,
    however pytest found it."""
    package_root = str(Path(confstrata.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


# A child's ru_maxrss starts at its forking parent's RSS, so a small launcher runs the
# request and reads the peak of that one child (kilobytes on Linux).
LAUNCHER = """
import resource, subprocess, sys
proc = subprocess.run(sys.argv[1:], capture_output=True, text=True)
print(proc.returncode, sum(map(int, proc.stdout.split())),
      resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""
# elliptic with eight classes of degree 1: 240,240 standard monomials at n = 5
WIDE = {"name": "wide", "d": 1, "diagonal_class_vanishes": True,
        "cohomology": {"0": [{"weight": 0, "mult": 1}], "1": [{"weight": 1, "mult": 8}],
                       "2": [{"weight": 2, "mult": 1}]}}


def test_hilbert_counts_standard_monomials_without_keeping_them(tmp_path):
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(WIDE))
    proc = run_child("-c", LAUNCHER, sys.executable, "-m", "confstrata.cli", "hilbert",
                     "--variety", str(path), "--n", "5", "--max-deg", "40", "--format", "text")
    code, total, peak_kb = map(int, proc.stdout.split())
    assert (code, total) == (0, 10 * 11 * 12 * 13 * 14)  # prod_{j<5} (P_X(1) + j), X of total 10
    assert peak_kb < 40 * 1024  # 56 MB when every monomial was kept, about 22 MB streamed


def test_console_module_runs():
    proc = run_child("-m", "confstrata.cli", "forests", "--n", "2", "--count", "--format", "text")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "2"


ONE_PER_SUBCOMMAND = [
    ["forests", "--n", "3"],
    ["nests", "--n", "3", "--count"],
    ["strata", "--n", "3"],
    ["deltafin-check", "--max-level", "1", "--max-size", "2"],
    ["blowup-validate", "--n", "3"],
    ["forget-centers", "--source", "1,2", "--target", "1,2,3"],
    ["purity", "--n", "2", "--max-deg", "4"],
    ["hilbert", "--n", "2", "--max-deg", "4"],
    ["koszul", "--presentation", "exterior-2", "--max-deg", "4"],
]


@pytest.mark.parametrize("argv", ONE_PER_SUBCOMMAND, ids=[a[0] for a in ONE_PER_SUBCOMMAND])
def test_module_process_matches_in_process_main(capsys, argv):
    proc = run_child("-m", "confstrata.cli", *argv)
    code = main(argv)
    captured = capsys.readouterr()
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, captured.out, captured.err)


# Each request runs in a fresh process, so it loads exactly what it uses.  A
# lazily registered module is a `_LazyModule` in `sys.modules` until its code
# has run; the tracer in perfbench relies on all eight being registered.
# Neither is needed on these paths: dataclasses alone costs about 10 ms of
# imports (inspect, ast, dis, tokenize), and fractions brings decimal.
LOAD_CONTRACT = """
import json, sys, types
from confstrata.cli import main
{call}
registered = [k for k in sys.modules if k.startswith("confstrata.")]
ran = [k for k in registered if type(sys.modules[k]) is types.ModuleType]
stdlib = [k for k in ("dataclasses", "fractions") if k in sys.modules]
print(json.dumps([sorted(registered), sorted(ran), stdlib]))
"""
LAZY = ["checks", "confcat", "finchains", "forests", "koszul", "linalg", "weights", "wonderful"]


@pytest.mark.parametrize("call,ran,stdlib", [
    ("", ["cli"], []),
    ('main(["forests", "--n", "2", "--count"])', ["cli", "finchains", "forests"], []),
    ('main(["hilbert", "--n", "2", "--max-deg", "4"])', ["cli", "linalg", "weights"], []),
    ('main(["koszul", "--presentation", "exterior-2", "--max-deg", "4"])',
     ["cli", "koszul", "linalg"], []),
    ('main(["koszul", "--presentation", "genus-1", "--max-deg", "4"])',
     ["cli", "koszul", "linalg"], []),
    ('main(["deltafin-check", "--max-level", "1", "--max-size", "2", "--functor"])',
     ["checks", "cli", "confcat", "finchains", "forests"], []),
], ids=["import", "forests", "hilbert", "koszul", "genus-1", "deltafin-check"])
def test_a_request_runs_only_the_modules_it_uses(call, ran, stdlib):
    proc = run_child("-c", LOAD_CONTRACT.format(call=call))
    assert proc.returncode == 0, proc.stderr
    registered = sorted(f"confstrata.{m}" for m in ["cli", *LAZY])
    assert json.loads(proc.stdout.splitlines()[-1]) == [
        registered, [f"confstrata.{m}" for m in ran], stdlib]


def test_nests_dot(tmp_path, capsys):
    dot = tmp_path / "nests.dot"
    code, _ = run_cli(capsys, "nests", "--n", "2", "--dot", str(dot), "--count")
    assert code == 0
    assert "digraph nests" in dot.read_text()


def test_unwritable_dot_path_is_input_error(tmp_path, capsys):
    dot = tmp_path / "absent-dir" / "forest.dot"
    code = main(["forests", "--n", "3", "--dot", str(dot)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: cannot write {dot}: ")
    assert err.count("\n") == 1


def test_unwritable_out_path_is_input_error(tmp_path, capsys):
    out_path = tmp_path / "absent-dir" / "report.json"
    code = main(["forests", "--n", "2", "--out", str(out_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {out_path}: ")
    assert captured.err.count("\n") == 1


def test_unwritable_log_path_is_input_error(tmp_path, capsys):
    log = tmp_path / "absent-dir" / "run.log"
    code = main(["forests", "--n", "2", "--log", str(log)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {log}: ")
    assert captured.err.count("\n") == 1
    log = tmp_path / "run.log"
    for _ in range(2):
        assert main(["forests", "--n", "2", "--count", "--log", str(log)]) == 0
    assert [line.split()[1:] for line in log.read_text().splitlines()] == [["forests"]] * 2


def test_n_zero_names_the_valid_range(capsys):
    for command in ("forests", "nests", "strata", "blowup-validate", "hilbert", "purity"):
        for n in ("-1", "0"):
            assert main([command, "--n", n]) == 1
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", "error: n must be at least 1\n")


BAD_FLAGS = [
    ("max-size-zero", ["deltafin-check", "--max-size", "0"], "error: max-size must be at least 1\n"),
    ("max-level-negative", ["deltafin-check", "--max-level", "-1"],
     "error: max-level must be non-negative\n"),
    ("samples-negative", ["deltafin-check", "--samples", "-3"],
     "error: samples must be non-negative\n"),
    ("d-zero", ["forget-centers", "--source", "1,2", "--target", "1,2,3", "--d", "0"],
     "error: complex dimension must be positive\n"),
    ("d-negative", ["forget-centers", "--source", "1,2", "--target", "1,2,3", "--d", "-3"],
     "error: complex dimension must be positive\n"),
    ("presentation-size-not-integer", ["koszul", "--presentation", "exterior-x"],
     "error: bad presentation exterior-x: N must be a positive integer\n"),
    ("presentation-size-negative", ["koszul", "--presentation", "symmetric--1"],
     "error: bad presentation symmetric--1: N must be a positive integer\n"),
    ("presentation-size-superscript", ["koszul", "--presentation", "exterior-²"],
     "error: bad presentation exterior-²: N must be a positive integer\n"),
    ("source-label-not-integer", ["forget-centers", "--source", "a,b", "--target", "1,2"],
     "error: --source label 'a' is not an integer\n"),
    ("target-label-empty", ["forget-centers", "--source", "1,2", "--target", "1,,3"],
     "error: --target label '' is not an integer\n"),
    ("target-over-cap", ["forget-centers", "--source", "1,2", "--target", "1,2,3,4,5,6,7"],
     "error: target size=7 exceeds the cap 6 (use --unsafe-no-cap to override)\n"),
    ("generators-over-cap", ["koszul", "--presentation", "exterior-7", "--max-deg", "2"],
     "error: generators=7 exceeds the cap 6 (use --unsafe-no-cap to override)\n"),
]


@pytest.mark.parametrize("name,argv,err", BAD_FLAGS, ids=[f[0] for f in BAD_FLAGS])
def test_bad_flag_value_is_one_error_line(capsys, name, argv, err):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == err


ONE_MAP = {"from": 0, "assignment": {"0": 0}}
HILBERT = ["hilbert", "--n", "1", "--max-deg", "2"]
H0 = {"0": [{"weight": 0, "mult": 1}]}
KOSZUL = ["koszul", "--max-deg", "4", "--presentation"]
NAN = float("nan")
BAD_SHAPES = [
    ("sets-int", ["deltafin-check", "--chain"], {"sets": 5}, 'chain JSON "sets"'),
    ("from-out-of-range", ["deltafin-check", "--chain"],
     {"sets": [[0, 1], [0]], "maps": [{"from": 3, "assignment": {"0": 0, "1": 0}}]},
     'chain JSON maps[0]["from"] is 3'),
    ("from-negative", ["deltafin-check", "--chain"],
     {"sets": [[0], [0]], "maps": [{**ONE_MAP, "from": -1}]}, 'chain JSON maps[0]["from"] is -1'),
    ("from-repeated", ["deltafin-check", "--chain"],
     {"sets": [[0], [0]], "maps": [ONE_MAP, ONE_MAP]}, 'chain JSON maps[1]["from"] is 0'),
    ("map-list", ["forget-centers", "--injection"],
     {"source": [1, 2], "target": [1, 2, 3], "map": [1, 2]}, '"map" must be an object'),
    ("source-int", ["forget-centers", "--injection"],
     {"source": 5, "target": [1, 2, 3]}, '"source" must be a list'),
    ("order-member-int", ["blowup-validate", "--n", "3", "--order"],
     [5, [[1, 2]], [[1, 2, 3]]], "order[0] must be a list of blocks"),
    ("order-block-int", ["blowup-validate", "--n", "3", "--order"],
     [[[1, 2]], [3], [[1, 2, 3]]], "order[1] must be a list of blocks"),
    ("cohomology-list", [*HILBERT, "--variety"],
     {"name": "x", "d": 1, "cohomology": [[0, 1]], "diagonal_class_vanishes": True},
     '"cohomology" must be an object'),
    ("d-string", [*HILBERT, "--variety"],
     {"name": "x", "d": "1", "cohomology": H0, "diagonal_class_vanishes": True},
     '"d" must be an integer'),
    ("entries-object", [*HILBERT, "--variety"],
     {"name": "x", "d": 1, "cohomology": {"0": {"weight": 0, "mult": 1}}},
     'cohomology["0"] must be a list'),
    ("descriptor-list", [*HILBERT, "--variety"], [1, 2], "descriptor JSON must be an object"),
    ("descriptor-no-name", [*HILBERT, "--variety"], {"d": 1, "cohomology": H0},
     "missing field 'name'"),
    ("presentation-list", KOSZUL, [1, 2], "presentation JSON must be an object"),
    ("relations-int", KOSZUL, {"generators": 2, "relations": 5}, '"relations" must be a list'),
    ("relation-int", KOSZUL, {"generators": 2, "relations": [5]}, "relations[0] must be a list"),
    ("coefficient-null", KOSZUL, {"generators": 2, "relations": [["1", None, "0", "0"]]},
     "relations[0][1] must be a number or a numeric string, not None"),
    ("coefficient-zero-denominator", KOSZUL, {"generators": 2, "relations": [["1/0", 0, 0, 0]]},
     "relations[0][0] must be a number or a numeric string, not '1/0'"),
    # the work of an exact value grows with its exponent: a string's stays in a JSON number's range
    ("coefficient-huge-exponent", KOSZUL,
     {"generators": 2, "relations": [["1e999999999", 0, 0, 0]]},
     "relations[0][0] must be a number or a numeric string, not '1e999999999'"),
    ("coefficient-tiny-exponent", KOSZUL,
     {"generators": 2, "relations": [["1e-999999999", 0, 0, 0]]},
     "relations[0][0] must be a number or a numeric string, not '1e-999999999'"),
    # and so does its fractional part: Fraction scales by 10**digits before int() refuses them
    ("coefficient-long-fraction", KOSZUL,
     {"generators": 2, "relations": [["0." + "1" * 3_000_000, 0, 0, 0]]},
     "relations[0][0] must be a number or a numeric string, not '0.111"),
    ("generators-list", KOSZUL, {"generators": [2], "relations": []},
     '"generators" must be an integer, not [2]'),
    ("generators-over-cap", KOSZUL, {"generators": 7, "relations": []},
     "generators=7 exceeds the cap 6"),
    ("generators-huge", KOSZUL, {"generators": 100000, "relations": []},
     "generators=100000 exceeds the cap 6"),
    ("regraded-from-object", KOSZUL, {"generators": 2, "regraded_from": {"x": [1]}},
     '"regraded_from" must be null or a positive integer'),
    ("regraded-from-zero", KOSZUL, {"generators": 2, "regraded_from": 0},
     '"regraded_from" must be null or a positive integer'),
    ("name-list", [*HILBERT, "--variety"], {"name": ["x"], "d": 1, "cohomology": H0},
     '"name" must be a string'),
    # a long value is echoed as a short repr
    ("name-huge", [*HILBERT, "--variety"],
     {"name": list(range(100_000)), "d": 1, "cohomology": H0},
     '"name" must be a string, not [0, 1, 2, 3, 4, 5, ...]'),
    ("d-huge", [*HILBERT, "--variety"],
     {"name": "x", "d": list(range(50_000)), "cohomology": H0},
     '"d" must be an integer, not [0, 1, 2, 3, 4, 5, ...]'),
    ("degree-key-huge", [*HILBERT, "--variety"],
     {"name": "x", "d": 1, "cohomology": {"x" * 100_000: [{"weight": 0, "mult": 1}]}},
     'cohomology["xxxxxxxxxxxx...xxxxxxxxxxxxx"]: the degree must be an integer'),
    ("weight-huge", [*HILBERT, "--variety"],
     {"name": "x", "d": 1, "cohomology": {"0": [{"weight": list(range(50_000)), "mult": 1}]}},
     'cohomology["0"][0]["weight"] must be an integer, not [0, 1, 2, 3, 4, 5, ...]'),
    ("label-list", ["forget-centers", "--injection"], {"source": [[1]], "target": [1]},
     '"source"[0] is [1]: a label must be an integer or a string'),
    ("label-bool", ["forget-centers", "--injection"], {"source": [1], "target": [1, True]},
     '"target"[1] is True: a label must be an integer or a string'),
    # chain labels are ints or strings, and a map key must name exactly one of them
    ("chain-label-nan-twice", ["deltafin-check", "--chain"], {"sets": [[NAN, NAN]]},
     "chain JSON sets[0][0] is nan: a label must be an integer or a string"),
    ("chain-label-nan-image", ["deltafin-check", "--chain"],
     {"sets": [[0], [NAN]], "maps": [{"from": 0, "assignment": {"0": NAN}}]},
     "chain JSON sets[1][0] is nan"),
    ("chain-label-true", ["deltafin-check", "--chain"],
     {"sets": [[0], [True]], "maps": [{"from": 0, "assignment": {"0": True}}]},
     "chain JSON sets[1][0] is True"),
    ("chain-label-float", ["deltafin-check", "--chain"],
     {"sets": [[0], [1.5]], "maps": [{"from": 0, "assignment": {"0": 1.5}}]},
     "chain JSON sets[1][0] is 1.5"),
    ("chain-label-null", ["deltafin-check", "--chain"],
     {"sets": [[0], [None]], "maps": [{"from": 0, "assignment": {"0": None}}]},
     "chain JSON sets[1][0] is None"),
    ("chain-label-int-and-str", ["deltafin-check", "--chain"],
     {"sets": [[1, "1"], [0]], "maps": [{"from": 0, "assignment": {"1": 0}}]},
     "chain JSON sets[0][1] is '1': the set also holds the integer 1"),
    # an assignment value equal to a label under == but of another type is no label
    ("chain-value-true", ["deltafin-check", "--chain"],
     {"sets": [[0], [1]], "maps": [{"from": 0, "assignment": {"0": True}}]},
     'chain JSON maps[0]["assignment"]["0"] is True: an image label must be an integer'),
    ("chain-value-float", ["deltafin-check", "--chain"],
     {"sets": [[0], [1]], "maps": [{"from": 0, "assignment": {"0": 1.0}}]},
     'chain JSON maps[0]["assignment"]["0"] is 1.0'),
    # an image is a label, not a list
    ("injection-image-list", ["forget-centers", "--injection"],
     {"source": [1], "target": [1], "map": {"1": [1]}},
     '"map"["1"] is [1]: an image label must be an integer or a string'),
    # map keys decode as chain-file keys do: each names one source label, and every label has one
    ("injection-key-unknown", ["forget-centers", "--injection"],
     {"source": [1, 2], "target": [1, 2, 3], "map": {"1": 1, "2": 2, "7": 3}},
     '.json: "map" has an unknown label \'7\''),
    ("injection-key-missing", ["forget-centers", "--injection"],
     {"source": [1, 2], "target": [1, 2, 3], "map": {"1": 1}},
     '.json: "map" has no key for 2'),
    ("injection-label-int-and-str", ["forget-centers", "--injection"],
     {"source": [1, "1"], "target": [1, 2, 3], "map": {"1": 1}},
     '.json: "source"[1] is \'1\': the set also holds the integer 1'),
    # a key is the JSON text of its label: a key that int() reads as 1 but is not "1" names nothing
    *[(f"{kind}-key-{name}", argv, data(key), f"{field} has an unknown label {key!r}")
      for name, key in [("zero-padded", "01"), ("space", " 1"), ("plus", "+1"), ("arabic", "١")]
      for kind, argv, data, field in [
          ("chain", ["deltafin-check", "--chain"],
           lambda key: {"sets": [[1, 2], [0]], "maps": [{"from": 0, "assignment": {
               "1": 0, key: 0, "2": 0}}]}, 'chain JSON maps[0]["assignment"]'),
          ("injection", ["forget-centers", "--injection"],
           lambda key: {"source": [1, 2], "target": [1, 2, 3], "map": {"1": 1, key: 3, "2": 2}},
           '"map"')]],
    ("chain-key-unknown", ["deltafin-check", "--chain"],
     {"sets": [[1, 2], [0]], "maps": [{"from": 0, "assignment": {"1": 0, "2": 0, "7": 0}}]},
     'chain JSON maps[0]["assignment"] has an unknown label \'7\''),
    ("chain-label-twice", ["deltafin-check", "--chain"],
     {"sets": [[1, 2, 1], [0]], "maps": [{"from": 0, "assignment": {"1": 0, "2": 0}}]},
     "chain JSON sets[0][2] is 1: chain JSON sets[0][0] holds it too"),
    ("injection-label-twice", ["forget-centers", "--injection"],
     {"source": ["a", "a"], "target": ["a", "b"]}, '"source"[1] is \'a\': "source"[0] holds it too'),
    ("injection-image-unknown", ["forget-centers", "--injection"],
     {"source": [1], "target": [1, 2], "map": {"1": 3}}, '"map"["1"] is 3: no label of the target'),
    ("injection-not-injective", ["forget-centers", "--injection"],
     {"source": [1, 2], "target": [1, 2], "map": {"1": 1, "2": 1}},
     '"map" sends two source labels to one target label'),
]


@pytest.mark.parametrize("name,argv,data,field", BAD_SHAPES, ids=[s[0] for s in BAD_SHAPES])
def test_bad_input_shape_is_one_error_line(tmp_path, capsys, name, argv, data, field):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(data))
    assert main(argv + [str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert field in captured.err and str(path) in captured.err
    # the line names the file and the field, and echoes no more than a short repr of the value
    assert len(captured.err.replace(str(path), "").encode()) < 200
