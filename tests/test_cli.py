import json
from fractions import Fraction

import pytest

from twosquares import cli, quantum


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def test_ap_sums_dispatch(capsys):
    code, out = run(capsys, ["ap-sums", "--sum", "r", "--N", "1e4", "--q", "3", "--a", "1"])
    assert code == 0
    rep = json.loads(out)
    assert rep["experiment"] == "ap-sums"
    assert rep["results"][0]["rel_error"] < 0.05
    # resolved config embeds defaults
    assert rep["config"]["d"] == 1 and rep["config"]["h"] == 4


def test_functionals_dispatch(capsys):
    code, out = run(capsys, ["functionals", "--k", "3", "--beta", "0.5"])
    assert code == 0
    rep = json.loads(out)
    kinds = {r["kind"]: r for r in rep["results"]}
    assert kinds["L"]["abs_difference"] < 1e-6
    assert kinds["L_ml"]["abs_difference"] < 1e-6


def test_witness_search_dispatch(capsys, tmp_path):
    csv = tmp_path / "wit.csv"
    code, out = run(
        capsys,
        ["witness-search", "--tuple", "0,4,16", "--bins", "1:1,2:2", "--N", "1e4", "--limit", "1.1e4", "--csv", str(csv)],
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["results"][0]["count"] >= 1
    assert rep["results"][0]["all_verified"] is True
    lines = csv.read_text().splitlines()
    assert lines[0] == "n,bin,h,x,y"
    n, b, h, x, y = map(int, lines[1].split(","))
    assert x * x + y * y == n + h


def test_pigeonhole_dispatch(capsys):
    code, out = run(capsys, ["pigeonhole", "--rows", "5;5,7;5,7,9"])
    assert code == 0
    assert json.loads(out)["results"][0]["a"] == [5, 7, 9]


def test_quantum_dispatch(capsys):
    code, out = run(capsys, ["quantum", "--what", "shell", "--n", "5", "--dim", "2"])
    assert code == 0
    assert json.loads(out)["results"][0]["count"] == 8
    code, out = run(capsys, ["quantum", "--what", "btau", "--k", "4", "--tau", "4,0,0"])
    assert code == 0
    res = json.loads(out)["results"][0]
    assert res["exact"] == {"num": 4, "den": 15}


def test_constants_dispatch(capsys):
    code, out = run(capsys, ["constants", "--prime-bound", "1e4"])
    assert code == 0
    rows = {r["name"]: r for r in json.loads(out)["results"]}
    assert abs(rows["L1_chi4"]["value"] - 0.7853981634) < 1e-9
    assert "A" in rows and "A2" in rows


def test_validation_exit_code(capsys):
    code, out = run(capsys, ["ap-sums", "--sum", "rr", "--N", "100", "--h", "12"])
    assert code == 2
    assert json.loads(out)["error"]["type"] == "validation"


def test_guard_exit_code(capsys):
    code, out = run(capsys, ["quantum", "--what", "shell", "--n", "1e9", "--dim", "6"])
    assert code == 3
    err = json.loads(out)["error"]
    assert err["type"] == "resource_guard" and err["cost_estimate"]


def test_internal_exit_code_forced(capsys, monkeypatch):
    monkeypatch.setattr(
        cli, "special_constants", lambda: (_ for _ in ()).throw(AssertionError("boom"))
    )
    code, out = run(capsys, ["constants"])
    assert code == 4
    assert json.loads(out)["error"]["type"] == "internal"


def test_byte_identity_modulo_timestamp(capsys):
    _, out1 = run(capsys, ["aux-sums", "--v", "500", "--which", "x,z2"])
    _, out2 = run(capsys, ["aux-sums", "--v", "500", "--which", "x,z2"])
    l1, l2 = out1.splitlines(), out2.splitlines()
    assert len(l1) == len(l2)
    diff = [i for i, (a, b) in enumerate(zip(l1, l2)) if a != b]
    assert len(diff) <= 1
    if diff:
        assert "timestamp" in l1[diff[0]]


def test_config_file_and_flag_override(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N": 2000, "q": 3, "a": 1}))
    code, out = run(capsys, ["ap-sums", "--config", str(cfg), "--sum", "r"])
    assert code == 0
    rep = json.loads(out)
    assert rep["config"]["N"] == 2000 and rep["config"]["q"] == 3
    # flag overrides file
    code, out = run(capsys, ["ap-sums", "--config", str(cfg), "--sum", "r", "--N", "4000"])
    rep = json.loads(out)
    assert rep["config"]["N"] == 4000


def test_output_file(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code = cli.main(["functionals", "--k", "2", "--output", str(out_path)])
    capsys.readouterr()
    assert code == 0
    rep = json.loads(out_path.read_text())
    assert rep["experiment"] == "functionals"


def test_sieve_run_dispatch(capsys):
    code, out = run(
        capsys,
        ["sieve-run", "--N", "1e4", "--theta1", "0.1", "--theta2", "1.2", "--D0", "10", "--tuple", "0,4", "--which", "S1"],
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["results"][0]["ratio"] > 0


def test_certificate_dispatch(capsys):
    code, out = run(
        capsys,
        ["certificate", "--N", "1e4", "--theta1", "0.12", "--theta2", "1.0", "--D0", "10", "--mu", "1.5,2.5", "--t", "1.0,2.0"],
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["results"][0]["rel_difference"] < 1e-6


def test_c_gamma_and_tech_sum(capsys):
    code, out = run(capsys, ["c-gamma", "--D0", "10", "--prime-bound", "1e4"])
    assert code == 0
    code, out = run(capsys, ["tech-sum", "--N", "1e4", "--theta1", "0.1", "--theta2", "1.2", "--D0", "10", "--G-rule", "linear"])
    assert code == 0


def test_build_table_dispatch(capsys):
    code, out = run(capsys, ["build-table", "--N", "1e4"])
    assert code == 0
    assert json.loads(out)["results"][0]["primes_below_limit"] == 1229


def test_bin_sizes_positions(capsys):
    assert cli._bin_sizes("1:1,2:2") == (1, 2)
    assert cli._bin_sizes("1,2") == (1, 2)
    for bad in ("1:1,3:2", "2:5,1:1", "0:1"):
        code, out = run(capsys, ["witness-search", "--N", "1e4", "--bins", bad])
        assert code == 2, bad
        assert json.loads(out)["error"]["message"].startswith("--bins"), bad


@pytest.mark.parametrize(
    "argv,flag,entry",
    [
        (["witness-search", "--N", "1e4", "--bins", "1:x"], "--bins", "1:x"),
        (["witness-search", "--N", "1e4", "--tuple", "0,a"], "--tuple", "a"),
        (["quantum", "--what", "btau", "--tau", "0,x,0"], "--tau", "x"),
    ],
)
def test_non_numeric_list_entry_is_a_validation_error(capsys, argv, flag, entry):
    code, out = run(capsys, argv)
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "validation"
    assert err["message"].startswith(flag) and repr(entry) in err["message"]


def test_btable_guard_exit_code(capsys, monkeypatch):
    # a hand-built family of 10^5 points: ~10^10 pairs, far over the byte budget
    n = 10**5
    support = {(x, 0, 0): (1, Fraction(1, n)) for x in range(n)}
    big = quantum.CoefficientFamily("main", 1, 3, 0, support)
    monkeypatch.setattr(quantum, "build_family", lambda rule, inputs: big)
    code, out = run(capsys, ["quantum", "--what", "btable"])
    assert code == 3
    err = json.loads(out)["error"]
    assert err["type"] == "resource_guard" and "bytes" in err["cost_estimate"]
