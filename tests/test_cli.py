import argparse
import contextlib
import io
import itertools
import json
import math
import re
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from twosquares import ap_sums, arith, bins, cli, errors, hooley, quantum, sieve


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


@pytest.mark.parametrize("argv", [["--N", "0"], ["--trend", "0,100"]], ids=["N", "trend"])
def test_ap_sums_r2_at_zero(capsys, argv):
    # the empty sum is 0, and so is its main term: no log(0)
    code, out = run(capsys, ["ap-sums", "--sum", "r2", *argv])
    assert code == 0
    first = json.loads(out)["results"][0]
    assert (first["N"], first["empirical"], first["predicted_main"], first["rel_error"]) == (0, 0, 0, 0)


@pytest.mark.parametrize("trend", ["", ","], ids=["empty", "comma"])
def test_ap_sums_empty_trend_exit_code(capsys, trend):
    code, out = run(capsys, ["ap-sums", "--sum", "r", f"--trend={trend}"])
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "validation" and "--trend" in err["message"]


def test_ap_sums_guard_exit_code(capsys, monkeypatch):
    # 2.5e8 progression terms are over the byte budget: exit 3 before r2_on
    def unreachable(*args, **kwargs):
        raise AssertionError("r2 array built past the guard")

    monkeypatch.setattr(ap_sums, "r2_on", unreachable)
    code, out = run(capsys, ["ap-sums", "--sum", "rr", "--N", "1e9", "--h", "4"])
    assert code == 3
    err = json.loads(out)["error"]
    assert err["type"] == "resource_guard" and "250000001 progression terms" in err["cost_estimate"]


@pytest.mark.parametrize(
    "name, query",
    [
        ("r", dict(q=1)),
        ("r", dict(q=3, a=1)),
        ("r", dict(d=5)),
        ("rr", dict(h=4)),
        ("rr", dict(q=3, a=1, d1=5, d2=7, h=12)),
        ("r2", dict(q=1)),
    ],
    ids=["r", "r-q3", "r-d5", "rr", "rr-q3-d5-d7-h12", "r2"],
)
def test_ap_sums_peak_within_charged_bytes(monkeypatch, name, query):
    # each sum's tracemalloc peak stays under what it charges the byte guard
    # (0.01-0.29 of it at N = 10^5, where the fixed 1 MiB dominates)
    charged = []
    monkeypatch.setattr(ap_sums, "check_bytes", lambda what, need, workload: charged.append(need))
    fn = getattr(ap_sums, f"empirical_trend_{name}")
    peak = traced_peak(lambda: fn(ap_sums.APQuery(N=10**5, **query), [10**5]))
    assert len(charged) == 1 and peak < charged[0]


def test_ap_sums_per_term_charge():
    # at 10^6 terms the per-term figure alone covers the peak 1.33 times over
    terms = 10**6
    peak = traced_peak(lambda: ap_sums.empirical_trend_rr(ap_sums.APQuery(N=4 * terms - 3, h=4), [4 * terms - 3]))
    assert 1.33 * peak < ap_sums.AP_BYTES[1] * terms


@pytest.mark.parametrize(
    "argv",
    [
        ["constants"],
        ["c-gamma", "--D0", "10"],
        ["tech-sum", "--N", "1e4"],
        ["aux-sums", "--v", "1000"],
    ],
    ids=["constants", "c-gamma", "tech-sum", "aux-sums"],
)
def test_prime_bound_guard_exit_code(capsys, monkeypatch, argv):
    # a prime bound of 12345679 charges the prime sieve 2.47e7 bytes: over a
    # 10^6 budget it exits 3 before the sieve allocates its 6 MB.  No other
    # test uses this bound, so no cached constant skips the sieve.
    monkeypatch.setattr(errors, "BYTE_BUDGET", 10**6)
    result = []
    peak = traced_peak(lambda: result.append(run(capsys, [*argv, "--prime-bound", "12345679"])))
    code, out = result[0]
    err = json.loads(out)["error"]
    assert code == 3 and err["type"] == "resource_guard" and peak < 1 << 20
    assert err["cost_estimate"].startswith("2.47e+07 bytes peak for n 12345679")


def test_functionals_dispatch(capsys):
    code, out = run(capsys, ["functionals", "--k", "3", "--beta", "0.5"])
    assert code == 0
    rep = json.loads(out)
    kinds = {r["kind"]: r for r in rep["results"]}
    assert kinds["L"]["abs_difference"] < 1e-12
    assert kinds["L_ml"]["abs_difference"] < 1e-12


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


def test_witness_search_builds_no_factor_table(capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("factor table built")

    monkeypatch.setattr(cli, "build_factor_table", unreachable)
    code, out = run(capsys, ["witness-search", "--N", "1e4", "--limit", "2e4"])
    assert code == 0
    assert json.loads(out)["results"][0]["all_verified"] is True


def test_witness_search_limit_exit_code(capsys, monkeypatch):
    # n + h near 9e18 is past bins.WITNESS_LIMIT: exit 3 before any window or sieve
    def unreachable(*args, **kwargs):
        raise AssertionError("witness scan started")

    monkeypatch.setattr(bins, "window", unreachable)
    monkeypatch.setattr(bins, "two_squares_on", unreachable)
    code, out = run(capsys, ["witness-search", "--N", "9e18", "--limit", "9000000000001000000"])
    assert code == 3
    assert json.loads(out)["error"]["type"] == "resource_guard"


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


@pytest.mark.parametrize(
    "argv, want",
    [
        (["--what", "family", "--rule", "main", "--dim", "7"], 2),
        (["--what", "family", "--rule", "ql_i", "--dim", "5"], 2),
        (["--what", "limits", "--rule", "ql_i", "--dim", "3"], 2),
        (["--what", "family", "--rule", "main", "--dim", "3"], 0),
        (["--what", "family", "--rule", "ql_i", "--dim", "4"], 0),
    ],
    ids=["main-7", "ql_i-5", "ql_i-limits-3", "main-3", "ql_i-4"],
)
def test_quantum_fixed_rule_dimension(capsys, argv, want):
    # main runs in dimension 3 and ql_i in 4: another --dim would be echoed
    # without having run
    code, out = run(capsys, ["quantum", *argv])
    assert code == want
    if want:
        assert json.loads(out)["error"]["type"] == "validation"


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


def test_config_file_values_take_the_flag_type(capsys, tmp_path):
    # a file value goes through the flag's type, as a flag value does; null
    # counts as unset, so the echo shows the declared default, or null where
    # the command works the value out
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N": 2e3, "q": None, "sum": "r"}))
    code, out = run(capsys, ["ap-sums", "--config", str(cfg)])
    assert code == 0
    got = json.loads(out)["config"]
    assert (got["N"], got["q"], got["sum"]) == (2000, 1, "r") and isinstance(got["N"], int)
    # a zero in the file is used as given
    cfg.write_text(json.dumps({"what": "shell", "n": 0.0, "dim": None}))
    code, out = run(capsys, ["quantum", "--config", str(cfg)])
    assert code == 0
    rep = json.loads(out)
    assert (rep["config"]["n"], rep["config"]["dim"], rep["config"]["epsilon"]) == (0, None, 0.5)
    assert rep["results"][0]["count"] == 1


@pytest.mark.parametrize(
    "content, message",
    [
        (None, "No such file or directory"),
        ("{N: 1", "not JSON"),
        ("[1, 2]", "not a JSON object"),
        ('{"N": "abc"}', "N='abc' is not valid"),
        ('{"N": Infinity}', "N=inf is not valid"),
        ('{"N": 100.9}', "N=100.9 is not valid"),
        ('{"N": "100.9"}', "N='100.9' is not valid"),
    ],
    ids=["missing", "not-json", "list", "bad-value", "infinite", "fractional", "fractional-string"],
)
def test_bad_config_file_exit_code(capsys, tmp_path, content, message):
    path = tmp_path / "cfg.json"
    if content is not None:
        path.write_text(content)
    code, out = run(capsys, ["build-table", "--config", str(path)])
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "validation"
    assert err["message"].startswith(f"--config {path}: ") and message in err["message"]


@pytest.mark.parametrize("flag", ["k", "beta"])  # an int flag and a float flag
@pytest.mark.parametrize("value", [True, False])
def test_config_boolean_is_not_a_number(capsys, tmp_path, flag, value):
    # no flag is boolean; int(True) is 1 and float(False) is 0.0, so a JSON
    # true or false would otherwise run the command at 1 or 0
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({flag: value}))
    code, out = run(capsys, ["functionals", "--config", str(path)])
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "validation"
    assert err["message"] == f"--config {path}: {flag}={value!r} is not valid"


@pytest.mark.parametrize("value", ["inf", "1e400", "100.9", "2.5e-1", "1e-400"])
def test_integer_flag_past_the_floats_is_a_usage_error(capsys, value):
    # int(float("inf")) raises OverflowError, which argparse would not catch;
    # a value that is not whole is not rounded to one
    with pytest.raises(SystemExit) as exc:
        cli.main(["build-table", "--N", value])
    assert exc.value.code == 2
    assert f"argument --N: invalid num value: '{value}'" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag, value", [("functionals", "k", 2.9), ("c-gamma", "D0", 10.7)])
def test_config_integer_is_not_truncated(capsys, tmp_path, command, flag, value):
    # int(2.9) is 2; an integer flag reads a file value through num, as it
    # reads a command-line value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({flag: value}))
    code, out = run(capsys, [command, "--config", str(path)])
    assert code == 2
    err = json.loads(out)["error"]
    assert err == {"type": "validation", "message": f"--config {path}: {flag}={value!r} is not valid"}


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (["sieve-run", "--N", "1e4", "--beta", "nan"], "--beta", "nan"),
        (["functionals", "--beta", "nan"], "--beta", "nan"),
        (["sieve-run", "--N", "1e4", "--theta1", "1e400"], "--theta1", "1e400"),
        (["quantum", "--what", "bounds", "--rule", "ql_ii", "--dim", "5", "--k", "2", "--epsilon", "inf"], "--epsilon", "inf"),
    ],
    ids=["sieve-run-beta", "functionals-beta", "theta1-overflow", "epsilon"],
)
def test_non_finite_float_flag_is_a_usage_error(capsys, argv, flag, value):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert f"argument {flag}: invalid real value: '{value}'" in capsys.readouterr().err


@pytest.mark.parametrize("mu, t, flag, entry", [("nan,1", "1,1", "--mu", "nan"), ("1.5,2.5", "1,-inf", "--t", "-inf")])
def test_non_finite_mu_or_t_is_a_validation_error(capsys, mu, t, flag, entry):
    code, out = run(capsys, ["certificate", "--N", "1e4", "--mu", mu, "--t", t])
    assert code == 2
    err = json.loads(out)["error"]
    assert err == {"type": "validation", "message": f"{flag}: entry {entry!r} is not a finite number"}


def test_every_flag_reads_through_num_real_or_str():
    # one parser per kind of value: an integer flag reads through num, a
    # float flag through real, and a declared default reads as itself
    for command, sp in subcommands(cli.build_parser()).items():
        flags = sp.get_default("flags")
        actions = {a.dest: a.type for a in sp._actions if a.dest not in ("help", "config", "output")}
        assert actions == {flag: typ for flag, typ, _ in flags}, command
        for flag, typ, default in flags:
            assert typ in (cli.num, cli.real, str), (command, flag)
            if default is not None:
                assert type(typ(default)) is type(default) and typ(default) == default, (command, flag)


BIG = 12345678901234567891  # float(BIG) is 12345678901234567168


@pytest.mark.parametrize(
    "source, text, value",
    [
        ("flag", "12345678901234567891", BIG),
        ("flag", "1.2345678901234567891e19", BIG),
        ("flag", "2.5e3", 2500),
        ("config", "12345678901234567891", BIG),  # a JSON int
        ("config", '"1.2345678901234567891e19"', BIG),
        ("config", "2.5e3", 2500),  # a JSON float whose value is whole
        ("list", "12345678901234567891", BIG),
        ("list", "1.2345678901234567891e19", BIG),
    ],
)
def test_integers_are_read_exactly(tmp_path, source, text, value):
    if source == "list":
        assert cli._numbers(f"0,{text}", "--tuple") == (0, value)
        return
    argv = ["aux-sums", "--v", text]
    if source == "config":
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"v": %s}' % text)
        argv = ["aux-sums", "--config", str(cfg)]
    assert cli._resolve(cli.build_parser().parse_args(argv))["v"] == value


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


def test_sieve_run_builds_one_window(capsys, monkeypatch):
    # S1-S4 share one window and one inner weight array, and read one rho
    # array per distinct shift: h_m for S2-S4, h_l for S3
    calls = []
    for name in ("window", "inner_weights", "rho_on"):
        def counted(*args, _fn=getattr(sieve, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(sieve, name, counted)
    argv = ["sieve-run", "--N", "1e5", "--theta1", "0.1", "--theta2", "1.6", "--D0", "10", "--tuple", "0,4"]
    code, out = run(capsys, argv + ["--which", "S1,S2,S3,S4"])
    assert code == 0 and sorted(calls) == ["inner_weights", "rho_on", "rho_on", "window"]
    assert [r["sum"] for r in json.loads(out)["results"]] == ["S1", "S2", "S3", "S4"]
    calls.clear()
    code, _ = run(capsys, argv + ["--which", "S1"])
    assert code == 0 and sorted(calls) == ["inner_weights", "window"]


@pytest.mark.parametrize(
    "owner, name, argv, shifts",
    [
        (bins, "two_squares_on", ["witness-search", "--N", "1e4", "--limit", "4e4"], 16),
        (sieve, "rho_on", ["certificate", "--N", "1e4", "--mu", "1.5,2.5", "--t", "1,2"], 16),
        (sieve, "rho_on", ["sieve-run", "--N", "3e4", "--tuple", "0,4", "--which", "S1,S2,S3,S4"], 4),
    ],
    ids=["witness-search", "certificate", "sieve-run"],
)
def test_one_sieve_for_every_shift(capsys, monkeypatch, owner, name, argv, shifts):
    # at D0 = 1 the window steps by 4 and the shifts (0, 4, 16 or 0, 4) are
    # all 0 (mod 4), so their translates overlap: one sieve over the window
    # run on past its end by the largest shift
    sieved = []
    fn = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: sieved.append(args[-1]) or fn(*args))
    code, out = run(capsys, [*argv, "--D0", "1"])
    assert code == 0 and len(sieved) == 1
    n_terms = json.loads(out)["results"][0].get("n_terms")
    assert sieved[0].step == 4 and n_terms in (None, len(sieved[0]) - shifts // 4)


def test_certificate_dispatch(capsys):
    code, out = run(
        capsys,
        ["certificate", "--N", "1e4", "--theta1", "0.12", "--theta2", "1.0", "--D0", "10", "--mu", "1.5,2.5", "--t", "1.0,2.0"],
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["results"][0]["rel_difference"] < 1e-6


@pytest.mark.parametrize("given", [["--mu", "1.5,2.5"], ["--t", "1,2"]], ids=["mu", "t"])
def test_certificate_mu_without_t_exit_code(capsys, given):
    # one of --mu and --t alone would run with the defaults for both while
    # the report echoed the value given
    code, out = run(capsys, ["certificate", "--N", "1e4", *given])
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "validation" and "--mu and --t" in err["message"]


def test_c_gamma_and_tech_sum(capsys):
    code, out = run(capsys, ["c-gamma", "--D0", "10", "--prime-bound", "1e4"])
    assert code == 0
    # c_gamma reads D0 and the prime bound, and no window
    assert json.loads(out)["config"] == {"D0": 10, "prime_bound": 10**4}
    code, out = run(capsys, ["tech-sum", "--N", "1e4", "--theta1", "0.1", "--theta2", "1.2", "--D0", "10", "--G-rule", "linear"])
    assert code == 0


@pytest.mark.parametrize(
    "argv",
    [["tech-sum", "--N", "1000"], ["witness-search", "--N", "1000", "--limit", "1200"], ["sieve-run", "--N", "1000", "--which", "S1"]],
    ids=["tech-sum", "witness-search", "sieve-run-S1"],
)
def test_commands_that_never_read_v_run_at_v_one(capsys, argv):
    # v = floor(1000^0.1) = 1: only rho and the S2-S4 main terms read v
    code, out = run(capsys, argv)
    assert code == 0, out
    assert json.loads(out)["results"]


@pytest.mark.parametrize(
    "argv",
    [["sieve-run", "--N", "1000", "--which", "S2"], ["certificate", "--N", "1000"]],
    ids=["sieve-run-S2", "certificate"],
)
def test_commands_that_read_v_refuse_v_one(capsys, argv):
    code, out = run(capsys, argv)
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "validation" and "v = floor(N^theta1) >= 2, got v = 1" in err["message"]


def test_limits_builds_one_family(capsys, monkeypatch):
    # the k - 1 family of the convergence diagnostic is the built family
    # restricted, not a second build
    built = []
    build = quantum.build_family
    monkeypatch.setattr(quantum, "build_family", lambda *a: built.append(a) or build(*a))
    argv = ["quantum", "--what", "limits", "--rule", "ql_ii", "--dim", "5", "--k", "4", "--tau", "2,0,0,0,0"]
    code, out = run(capsys, argv)
    assert code == 0 and len(built) == 1
    assert json.loads(out)["results"][0]["value"] > 0


def test_build_table_dispatch(capsys):
    code, out = run(capsys, ["build-table", "--N", "1e4"])
    assert code == 0
    assert json.loads(out)["results"][0]["primes_below_limit"] == 1229


# a tiny run of every subcommand
TINY_ARGV = {
    "build-table": ["--N", "100"],
    "ap-sums": ["--sum", "r", "--N", "100"],
    "aux-sums": ["--v", "100", "--prime-bound", "1e3"],
    "functionals": ["--k", "2"],
    "sieve-run": ["--N", "1e4"],
    "tech-sum": ["--N", "1e4", "--prime-bound", "1e3"],
    "c-gamma": ["--prime-bound", "1e3"],
    "certificate": ["--N", "1e4", "--mu", "1.5,2.5", "--t", "1,2"],
    "witness-search": ["--N", "1e4", "--limit", "1.1e4"],
    "pigeonhole": ["--rows", "5;5,7"],
    "quantum": ["--what", "shell"],
    "constants": ["--prime-bound", "1e3"],
}


# the flags that have no default, or whose default the command works out
# from other inputs: only these may echo null
UNSET_OR_WORKED_OUT = {"csv", "trend", "sum", "limit", "dim", "l", "mu", "t", "rows"}


def subcommands(parser: argparse.ArgumentParser) -> dict:
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


@pytest.mark.parametrize("command", list(TINY_ARGV))
def test_subcommand_report_contract(capsys, command):
    # the report names its subcommand and echoes exactly the flags it
    # declares, each with the value that ran
    choices = subcommands(cli.build_parser())
    assert set(choices) == set(TINY_ARGV)
    declared = {a.dest for a in choices[command]._actions} - {"help", "config", "output"}
    code, out = run(capsys, [command, *TINY_ARGV[command]])
    assert code == 0
    rep = json.loads(out)
    assert set(rep) == {"experiment", "config", "results", "diagnostics", "timestamp"}
    assert rep["experiment"] == command and set(rep["config"]) == declared
    assert {flag for flag, value in rep["config"].items() if value is None} <= UNSET_OR_WORKED_OUT


@pytest.mark.parametrize("command", list(TINY_ARGV))
def test_one_subparser_parses_as_the_full_parser(monkeypatch, tmp_path, command):
    # main declares only the named command's subparser, and it gives the
    # namespace, and so the resolved config, that the full parser gives
    argv = [command, *TINY_ARGV[command], "--output", str(tmp_path / "report.json")]
    built, seen = [], []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda *a: built.append(build(*a)) or built[-1])
    monkeypatch.setattr(cli, "report", lambda args: seen.append(args) or {"experiment": args.command})
    assert cli.main(argv) == 0
    assert list(subcommands(built[0])) == [command]
    full = build().parse_args(argv)
    assert seen[0] == full
    assert cli._resolve(seen[0]) == cli._resolve(full)


@pytest.mark.parametrize("command", list(TINY_ARGV))
def test_subcommand_help_lists_its_flags(capsys, command):
    with pytest.raises(SystemExit) as stop:
        cli.main([command, "-h"])
    assert stop.value.code == 0
    listed = set(re.findall(r"--?[\w-]+", capsys.readouterr().out))
    declared = {opt for a in subcommands(cli.build_parser())[command]._actions for opt in a.option_strings}
    assert {"--config", "--output"} < declared <= listed


@pytest.mark.parametrize("argv, code", [(["-h"], 0), (["no-such-command"], 2), ([], 2)])
def test_top_level_usage_lists_every_command(capsys, argv, code):
    with pytest.raises(SystemExit) as stop:
        cli.main(argv)
    assert stop.value.code == code
    captured = capsys.readouterr()
    choices = re.search(r"\{([\w,-]+)\}", captured.out + captured.err).group(1)
    assert choices.split(",") == list(TINY_ARGV) == list(subcommands(cli.build_parser()))


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_build_table_count_adds_under_two_bytes_per_entry(tmp_path):
    # the prime count comes from the table's own sieve: no index array the
    # length of the table (8 bytes per entry) and no second pass over it
    out = tmp_path / "table.json"
    table_peak = traced_peak(lambda: arith.build_factor_table(10**6))
    peak = traced_peak(lambda: cli.main(["build-table", "--N", "1e6", "--output", str(out)]))
    assert json.loads(out.read_text())["results"][0]["primes_below_limit"] == 78498
    assert peak < table_peak + 2 * 10**6


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
        (["witness-search", "--N", "1e4", "--tuple", "0,1e400"], "--tuple", "1e400"),
        (["witness-search", "--N", "1e4", "--tuple", "0,4.5"], "--tuple", "4.5"),
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


# -- the b_tau table report against the dict encoding it replaced ----------------


def old_encoding(report: dict) -> str:
    """The report as written before tables were written from their columns:
    each BTauTable as a dict keyed "t1,...,td", through json.dumps."""

    def as_dict(table):
        keys = (",".join(map(str, tau)) for tau in table.taus.tolist())
        return dict(zip(keys, table.values.tolist()))

    results = [
        {**r, "b_tau": as_dict(r["b_tau"])} if isinstance(r.get("b_tau"), quantum.BTauTable) else r
        for r in report["results"]
    ]
    rounded = cli._round_floats({**report, "results": results, "timestamp": ""})
    return json.dumps(rounded, indent=2, sort_keys=True) + "\n"


def without_timestamp(text: str) -> list[str]:
    return [line for line in text.split("\n") if not line.startswith('  "timestamp": ')]


BTABLE_ARGV = {
    "ql_ii-d5-k2": ["--rule", "ql_ii", "--dim", "5", "--k", "2"],
    "main-k8": ["--rule", "main", "--k", "8"],
    "ql_i-k3": ["--rule", "ql_i", "--k", "3"],
}


@pytest.mark.parametrize("to_file", [True, False], ids=["output", "stdout"])
@pytest.mark.parametrize("family", list(BTABLE_ARGV))
def test_btable_report_matches_dict_encoding(capsys, tmp_path, family, to_file):
    argv = ["quantum", "--what", "btable", *BTABLE_ARGV[family]]
    report = cli.report(cli.build_parser().parse_args(argv))
    assert isinstance(report["results"][0]["b_tau"], quantum.BTauTable)
    path = tmp_path / "btable.json"
    code, out = run(capsys, argv + ["--output", str(path)] if to_file else argv)
    assert code == 0
    got = path.read_text() if to_file else out
    assert without_timestamp(got) == without_timestamp(old_encoding(report))
    assert len(json.loads(got)["results"][0]["b_tau"]) == len(report["results"][0]["b_tau"])


def hand_table(taus, values) -> quantum.BTauTable:
    taus = np.array(taus, dtype=np.int64)
    none = np.empty(0, dtype=np.int64)
    return quantum.BTauTable(
        taus, np.array(values, dtype=np.float64), np.ones(len(values), dtype=bool), none, none.copy(), none.copy(), ()
    )


EDGE_VALUES = [1e-05, 1.5e-4, 123456789012.0, 1e15, 1e16, 0.1 + 0.2, -0.0, math.inf, math.nan, -math.inf, 0.0, 1 / 3]
# 1, 2 and 3 digits of both signs: the key strings sort "-1" < "-10" < "-100"
# < "-2" and "1" < "10" < "100" < "2", which is not the rows' numeric order
EDGE_PARTS = [-134, -100, -12, -10, -2, -1, 0, 1, 2, 9, 10, 12, 100, 134]
EDGE_TAUS = sorted(itertools.product(EDGE_PARTS, repeat=2))


@pytest.mark.parametrize(
    "taus, values",
    [
        (np.empty((0, 3)), []),
        ([[5, -7, 0]], [0.25]),
        ([[-(10**12), 3], [7, 10**15]], [1e-05, math.nan]),
        (EDGE_TAUS, [EDGE_VALUES[i % len(EDGE_VALUES)] for i in range(len(EDGE_TAUS))]),
    ],
    ids=["empty", "one-row", "wide-range", "digits-and-values"],
)
@pytest.mark.parametrize("write_rows", [None, 5], ids=["one-piece", "pieces-of-5"])
def test_btable_writer_edge_cases(tmp_path, monkeypatch, taus, values, write_rows):
    if write_rows:
        monkeypatch.setattr(cli, "_WRITE_ROWS", write_rows)
    report = {"experiment": "quantum", "results": [{"b_tau": hand_table(taus, values), "k": 1}]}
    path = tmp_path / "table.json"
    cli._emit(report, str(path))
    got = path.read_text()
    assert without_timestamp(got) == without_timestamp(old_encoding(report))
    if not values:
        assert '"b_tau": {},' in got


# small components of both signs beside +-10^15; values with -0.0, NaN,
# +-inf, subnormals and 1e16 beside every other float
COMPONENTS = st.one_of(st.integers(-150, 150), st.sampled_from([-(10**15), 10**15]))
VALUES = st.one_of(st.floats(), st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e-310, 1e16]))


@st.composite
def hand_tables(draw):
    d = draw(st.integers(1, 6))
    taus = sorted(draw(st.lists(st.tuples(*[COMPONENTS] * d), unique=True, max_size=40)))
    values = draw(st.lists(VALUES, min_size=len(taus), max_size=len(taus)))
    return hand_table(np.array(taus, dtype=np.int64).reshape(len(taus), d), values)


@given(table=hand_tables(), write_rows=st.sampled_from([1, 2, 7, cli._WRITE_ROWS]))
def test_btable_writer_matches_dict_encoding(table, write_rows):
    report = {"experiment": "quantum", "results": [{"b_tau": table, "k": 1}]}
    out = io.StringIO()
    with mock.patch.object(cli, "_WRITE_ROWS", write_rows), contextlib.redirect_stdout(out):
        cli._emit(report, None)
    assert without_timestamp(out.getvalue()) == without_timestamp(old_encoding(report))


def test_btable_writer_mark_must_be_unique(capsys, tmp_path, monkeypatch):
    # a report string equal to the table's mark cannot be told from it; that
    # is found before the output is opened, and the command exits 4
    report = {"results": [{"b_tau": hand_table([[1]], [1.0]), "note": cli._TABLE_MARK}]}
    path = tmp_path / "table.json"
    with pytest.raises(errors.InternalError):
        cli._emit(report, str(path))
    assert not path.exists()
    with pytest.raises(errors.InternalError):
        cli._emit({"results": [{"note": cli._TABLE_MARK}]}, str(path))
    monkeypatch.setattr(cli, "cmd_quantum", lambda cfg: (report["results"], []))
    code, _ = run(capsys, ["quantum", "--what", "btable", "--output", str(path)])
    assert code == 4
    assert json.loads(path.read_text())["error"]["type"] == "internal"


def test_btable_writer_peak_below_dict_encoding(tmp_path):
    # ql_ii d = 5, k = 3: written in pieces of byte rows from the columns,
    # the report peaks at 4.5 MB under tracemalloc; with one str.format call
    # per entry it peaked at 5.3 MB, and the dict, its rounded copy and the
    # encoder's chunks at 22.1 MB
    argv = ["quantum", "--what", "btable", "--rule", "ql_ii", "--dim", "5", "--k", "3"]
    report = cli.report(cli.build_parser().parse_args(argv))
    old_peak = traced_peak(lambda: (tmp_path / "old.json").write_text(old_encoding(report)))
    peak = traced_peak(lambda: cli._emit(report, str(tmp_path / "new.json")))
    assert peak < old_peak / 2
    assert peak < 5.3 * 10**6
    assert without_timestamp((tmp_path / "new.json").read_text()) == without_timestamp(
        (tmp_path / "old.json").read_text()
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["witness-search", "--N", "1e4", "--limit", "2e4"],
        ["certificate", "--N", "1e4", "--mu", "1.5,2.5", "--t", "1,2"],
    ],
    ids=["witness-search", "certificate"],
)
def test_window_guard_exit_code(capsys, monkeypatch, argv):
    # 2,500 points x 3 shifts need 3.2e5 bytes for the certificate and 4.0e5
    # for the witness search; no window array may be built
    monkeypatch.setattr(errors, "BYTE_BUDGET", 10**5)

    def unreachable(*args, **kwargs):
        raise AssertionError("window array built past the guard")

    monkeypatch.setattr(sieve, "inner_weights", unreachable)
    monkeypatch.setattr(bins, "two_squares_on", unreachable)
    monkeypatch.setattr(hooley, "r2_on", unreachable)
    monkeypatch.setattr(cli, "build_factor_table", unreachable)
    code, out = run(capsys, argv)
    assert code == 3
    err = json.loads(out)["error"]
    assert err["type"] == "resource_guard" and err["message"].startswith("window scan")
    assert "2500 points x 3 shifts" in err["cost_estimate"]


def test_window_guard_is_per_scan(capsys, monkeypatch):
    # on the same 2,500 points x 3 shifts, a budget between the two scans'
    # charges lets the cheaper one run and stops the dearer one
    (a, b), (c, d) = bins.CERTIFICATE_BYTES, bins.WITNESS_BYTES
    scans = {
        2500 * (a + 3 * b): ["certificate", "--N", "1e4", "--mu", "1.5,2.5", "--t", "1,2"],
        2500 * (c + 3 * d): ["witness-search", "--N", "1e4", "--limit", "2e4"],
    }
    cheaper, dearer = sorted(scans)
    assert cheaper < dearer
    monkeypatch.setattr(errors, "BYTE_BUDGET", (cheaper + dearer) // 2)
    code, _ = run(capsys, scans[cheaper])
    assert code == 0
    code, out = run(capsys, scans[dearer])
    assert code == 3
    assert "2500 points x 3 shifts" in json.loads(out)["error"]["cost_estimate"]


@pytest.mark.parametrize(
    "argv",
    [
        ["sieve-run", "--N", "1e4", "--tuple=-20000,0", "--which", "S2"],
        ["certificate", "--N", "1e4", "--tuple=-20000,0,4", "--mu", "1.5,2.5", "--t", "1,2"],
        ["sieve-run", "--N", "1e4", "--tuple=-20000,0", "--which", "S1"],
        ["witness-search", "--N", "1e4", "--tuple=-20000,0", "--bins", "1,1"],
    ],
    ids=["sieve-run", "certificate", "sieve-run-S1", "witness-search"],
)
def test_window_below_one_exit_code(capsys, argv):
    # every window scan rejects a window that reaches n + h < 1 as invalid
    # input, naming N and the shift, S1 too, although it reads no rho
    code, out = run(capsys, argv)
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "validation"
    assert "N = 10000" in err["message"] and "h = -20000" in err["message"], err["message"]


def test_window_reaching_one_runs(capsys):
    # the window starts at n = 10001, so its least n + h is 1: in range; one
    # step of 4 further down is out
    code, _ = run(capsys, ["sieve-run", "--N", "1e4", "--tuple=-10000,0", "--which", "S1,S2"])
    assert code == 0
    code, _ = run(capsys, ["sieve-run", "--N", "1e4", "--tuple=-10004,0", "--which", "S1"])
    assert code == 2


def test_sieve_run_explicit_zero_index(capsys):
    base = ["sieve-run", "--N", "1e4", "--theta1", "0.1", "--theta2", "1", "--tuple", "0,4", "--which", "S3"]
    code, out = run(capsys, base + ["--m", "1", "--l", "0"])
    assert code == 0
    code, swapped = run(capsys, base + ["--m", "0", "--l", "1"])
    assert code == 0
    assert json.loads(out)["results"][0]["direct"] == json.loads(swapped)["results"][0]["direct"]


@pytest.mark.parametrize(
    "index, which, want",
    [
        (["--m", "5"], "S2", 2),
        (["--m", "-1"], "S2", 2),
        (["--m", "2"], "S4", 2),
        (["--l", "7"], "S3", 2),
        (["--l", "-1"], "S3", 2),
        (["--m", "5"], "S1", 0),
    ],
    ids=["m-5-S2", "m-minus-1-S2", "m-2-S4", "l-7-S3", "l-minus-1-S3", "m-5-S1"],
)
def test_sieve_run_shift_index_out_of_range(capsys, index, which, want):
    # m and l index the shifts of the 2-tuple, so each must be 0 or 1 where
    # a sum reads it; S1 reads no shift and runs
    code, out = run(capsys, ["sieve-run", "--N", "1e4", "--tuple", "0,4", "--which", which, *index])
    assert code == want
    if want:
        err = json.loads(out)["error"]
        assert err["type"] == "validation" and "< k = 2" in err["message"]


@pytest.mark.parametrize(
    "argv, key, want",
    [
        # the class-1 bound at epsilon = 0 is (4/3)^2 / 4, not the 1.0887 of epsilon = 0.5
        (["quantum", "--what", "bounds", "--rule", "ql_i", "--k", "2", "--epsilon", "0"], "rhs", (4 / 3) ** 2 / 4),
        (["quantum", "--what", "shell", "--n", "0", "--dim", "2"], "count", 1),
        (["quantum", "--what", "shell", "--dim", "0"], None, 2),
        (["quantum", "--what", "family", "--M", "0"], None, 2),
        (["quantum", "--what", "family", "--k", "0"], None, 2),
        (["quantum", "--what", "family", "--a-list="], None, 2),
        (["quantum", "--what="], None, 2),
        (["sieve-run", "--N", "1e4", "--tuple="], None, 2),
        (["sieve-run", "--N", "1e4", "--which="], None, 2),
        (["aux-sums", "--v", "300", "--which="], None, 2),
        (["certificate", "--N", "1e4", "--bins="], None, 2),
        (["quantum", "--what", "btau", "--tau="], None, 2),
    ],
    ids=[
        "epsilon-0", "n-0", "dim-0", "M-0", "k-0", "a-list-empty", "what-empty",
        "tuple-empty", "which-empty", "aux-which-empty", "bins-empty", "tau-empty",
    ],
)
def test_zero_or_empty_value_is_used_as_given(capsys, argv, key, want):
    # a zero or empty flag value is the value that runs: it is not swapped
    # for the default, and one the command cannot use exits 2
    code, out = run(capsys, argv)
    rep = json.loads(out)
    if key is None:
        assert code == want and rep["error"]["type"] == "validation"
    else:
        assert code == 0 and rep["results"][0][key] == pytest.approx(want, rel=1e-11)
