import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import confstrata
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


def test_console_module_runs():
    # the child imports the package under test, however pytest found it
    package_root = str(Path(confstrata.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "confstrata.cli", "forests", "--n", "2", "--count",
         "--format", "text"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "2"


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
    for command in ("nests", "blowup-validate"):
        assert main([command, "--n", "0"]) == 1
        assert capsys.readouterr().err == "error: n must satisfy 1 <= n <= 6\n"


ONE_MAP = {"from": 0, "assignment": {"0": 0}}
HILBERT = ["hilbert", "--n", "1", "--max-deg", "2"]
H0 = {"0": [{"weight": 0, "mult": 1}]}
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
     'bad variety descriptor: "cohomology"'),
    ("d-string", [*HILBERT, "--variety"],
     {"name": "x", "d": "1", "cohomology": H0, "diagonal_class_vanishes": True},
     'bad variety descriptor: "d" must be an integer'),
    ("entries-object", [*HILBERT, "--variety"],
     {"name": "x", "d": 1, "cohomology": {"0": {"weight": 0, "mult": 1}}},
     'bad variety descriptor: cohomology["0"] must be a list'),
    ("descriptor-list", [*HILBERT, "--variety"], [1, 2], "bad variety descriptor: "),
]


@pytest.mark.parametrize("name,argv,data,field", BAD_SHAPES, ids=[s[0] for s in BAD_SHAPES])
def test_bad_input_shape_is_one_error_line(tmp_path, capsys, name, argv, data, field):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(data))
    assert main(argv + [str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert field in captured.err
