"""Command-line front end: one subcommand per experiment family.

Reports are JSON objects {experiment, config, results, diagnostics,
timestamp} with numbers at 12 significant digits.  The timestamp line
also carries the wall runtime of the command and is the only line that
differs between identical runs.  Exit codes: 0 success, 2 validation
error, 3 resource guard, 4 internal assertion.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from datetime import datetime, timezone
from decimal import Decimal
from fractions import Fraction
from itertools import chain

import numpy as np

from . import ap_sums, aux_sums, bins, quantum, sieve
from .arith import build_factor_table
from .constants import landau_ramanujan_A, special_constants
from .errors import InternalError, ResourceGuardError, ValidationError


# stands in for a BTauTable in the encoded report; _emit splices the table in
_TABLE_MARK = "\x00b_tau table\x00"
# json.dumps spells the non-finite floats its own way
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# b_tau entries per piece of text: the pieces, not the whole table, are held
_WRITE_ROWS = 1 << 14


def _round_floats(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, Fraction):
        return {"num": obj.numerator, "den": obj.denominator}
    if isinstance(obj, quantum.BTauTable):
        return _TABLE_MARK
    if isinstance(obj, dict):
        return {str(k): _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _btau_json(table: quantum.BTauTable, indent: str):
    """The text json.dumps(indent=2, sort_keys=True) gives the rounded dict
    {"t1,...,td": b_tau} when its key's line starts with `indent`, as an
    iterator of pieces of _WRITE_ROWS entries.  The array passes over the
    table's columns run in this call; a piece is assembled when it is read.

    Each distinct component and each distinct value is spelled once, as a
    zero-padded bytes string.  A piece gathers its entries into one
    fixed-width byte matrix, a row ',\\n<indent>  "t1,...,td": value' per
    entry, and keeps its nonzero bytes: no byte of the text is zero."""
    n, d = table.taus.shape
    if n == 0:
        return iter(["{}"])
    parts = np.unique(np.concatenate([np.unique(column) for column in table.taus.T]))
    small = np.min_scalar_type(len(parts))  # small codes radix-sort
    index = np.empty((d, n), dtype=small)  # coded a column at a time
    for column, codes in zip(table.taus.T, index):
        codes[:] = np.searchsorted(parts, column)
    names = np.array(list(map(str, parts.tolist())), dtype=bytes)
    # sort_keys orders the keys by code point.  "," sorts below every digit,
    # so that order compares the component strings in turn ("-1" < "-10" <
    # "-2" < "1" < "10" < "2"), not the numbers; a zero pad sorts below
    # every byte, so the padded names sort as the strings do.
    rank = np.empty(len(parts), dtype=small)
    rank[np.argsort(names, kind="stable")] = np.arange(len(parts))
    order = np.lexsort(rank[index[::-1]])
    # each distinct value (by its bits, so -0.0 stays apart) is spelled once
    bits, at = np.unique(table.values.view(np.int64), return_inverse=True)
    spelled = map(repr, map(float, map("{:.12g}".format, bits.view(np.float64).tolist())))
    values = np.array([_JSON_NONFINITE.get(v, v) for v in spelled], dtype=bytes)
    # an entry's row: the lead, d slots of a name and the "," or '"' after
    # it, ": " and the value
    lead = f',\n{indent}  "'.encode()
    slot = names.itemsize + 1
    row = lead + b",".join([bytes(names.itemsize)] * d) + b'": ' + bytes(values.itemsize)
    template = np.frombuffer(row, dtype=np.uint8)

    def piece(start: int) -> str:
        rows = order[start : start + _WRITE_ROWS]
        mat = np.empty((len(rows), len(template)), dtype=np.uint8)
        mat[:] = template
        keys = mat[:, len(lead) : len(lead) + slot * d].reshape(len(rows), d, slot)[:, :, :-1]
        keys.view(names.dtype)[:, :, 0] = names[index[:, rows].T]
        mat[:, -values.itemsize :].view(values.dtype)[:, 0] = values[at[rows]]
        if start == 0:
            mat[0, 0] = ord("{")
        return str(mat[mat != 0].data, "ascii")

    return chain(map(piece, range(0, n, _WRITE_ROWS)), ["\n" + indent + "}"])


def _emit(report: dict, out_path: str | None, runtime_ms: float | None = None) -> None:
    """Wall-clock noise lives only on the timestamp line of a report.  A
    BTauTable in the results is written by _btau_json where its mark stands
    in the encoded rest of the report; the mark is checked and the table's
    arrays are set up before the output is opened."""
    stamp = datetime.now(timezone.utc).isoformat()
    if runtime_ms is not None:
        stamp += f" runtime_ms={runtime_ms:.3f}"
    text = json.dumps(_round_floats({**report, "timestamp": stamp}), indent=2, sort_keys=True)
    tables = [r["b_tau"] for r in report.get("results", ()) if isinstance(r.get("b_tau"), quantum.BTauTable)]
    head, *tail = text.split(json.dumps(_TABLE_MARK))
    if len(tail) != len(tables) or len(tables) > 1:
        raise InternalError("report: the b_tau table mark is not unique")
    pieces = [text, "\n"]
    if tables:
        line = head[head.rfind("\n") + 1 :]
        table = _btau_json(tables[0], " " * (len(line) - len(line.lstrip(" "))))
        pieces = chain([head], table, [tail[0], "\n"])
    if out_path:
        with open(out_path, "w") as fh:
            fh.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


def num(text) -> int:
    """An integer, read exactly; a float spelling such as 1e6 or 2.5e3 is
    taken when its value is whole.  100.9, inf, nan and 1e400 raise
    ValueError, so argparse and --config report them as usage errors."""
    if not isinstance(text, float):
        try:
            return int(text)
        except ValueError:
            pass
    if not math.isfinite(float(text)):
        raise ValueError(f"{text!r} is not finite")
    value = Decimal(text if isinstance(text, str) else float(text))  # exact, unlike float(text)
    if value != value.to_integral_value():
        raise ValueError(f"{text!r} is not a whole number")
    return int(value)


def _numbers(text: str, flag: str, parse=num) -> tuple:
    """The entries of a comma list, each through parse; empty ones are skipped."""
    out = []
    for x in text.split(","):
        if x == "":
            continue
        try:
            out.append(parse(x))
        except ValueError:
            raise ValidationError(f"{flag}: entry {x!r} is not {'an integer' if parse is num else 'a number'}") from None
    return tuple(out)


def _bin_sizes(text: str) -> tuple[int, ...]:
    """Parse "1:1,2:2" (position:size pairs, positions 1..M in order) or
    plain "1,2" into sizes."""
    sizes = []
    for i, part in enumerate(text.split(","), start=1):
        pos, colon, size = part.rpartition(":")
        if colon and pos != str(i):
            raise ValidationError(f"--bins: entry {part!r} must have position {i}")
        try:
            sizes.append(int(size))
        except ValueError:
            raise ValidationError(f"--bins: entry {part!r} has no integer size") from None
    return tuple(sizes)


def _config_file(path: str) -> dict:
    """The JSON object in a --config file; ValidationError names the file."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"--config {path}: {exc.strerror or exc}") from None
    except ValueError as exc:
        raise ValidationError(f"--config {path}: not JSON ({exc})") from None
    if not isinstance(cfg, dict):
        raise ValidationError(f"--config {path}: not a JSON object")
    return cfg


def _resolve(args: argparse.Namespace) -> dict:
    """Every flag the subcommand declares: its command-line value, else the
    --config file's through the flag's type (null counts as unset, and a
    JSON true or false is not valid), else the default its declaration
    gives."""
    file_cfg = _config_file(args.config) if args.config else {}
    cfg = {}
    for flag, typ, default in args.flags:
        value = getattr(args, flag)
        if value is None and (raw := file_cfg.get(flag)) is not None:
            try:
                if isinstance(raw, bool):  # no flag is boolean, and int(True) is 1
                    raise TypeError(flag)
                value = typ(raw)
            except (TypeError, ValueError, OverflowError):
                raise ValidationError(f"--config {args.config}: {flag}={raw!r} is not valid") from None
        cfg[flag] = default if value is None else value
    return cfg


def report(args: argparse.Namespace) -> dict:
    """The report of subcommand args.command, which echoes the resolved
    config the command ran with."""
    cfg = _resolve(args)
    results, diagnostics = args.func(cfg)
    return {"experiment": args.command, "config": cfg, "results": results, "diagnostics": diagnostics}


# ---------------------------------------------------------------------------
# subcommand implementations: each takes the resolved config and returns
# (results, diagnostics)
# ---------------------------------------------------------------------------


def cmd_build_table(cfg):
    table = build_factor_table(cfg["N"])
    return [{"limit": table.limit, "primes_below_limit": table.prime_count}], []


def cmd_ap_sums(cfg):
    name = {"r": "ap_r", "rr": "ap_rr", "r2": "ap_r2"}.get(cfg["sum"])
    if name is None:
        raise ValidationError(f"ap-sums: unknown --sum {cfg['sum']!r}")
    ns = [cfg["N"]] if cfg["trend"] is None else _numbers(cfg["trend"], "--trend")
    if not ns:
        raise ValidationError("ap-sums: --trend needs at least one N")
    query = {key: cfg[key] for key in ("q", "a", "d", "d1", "d2", "h")}
    results = [r.as_dict() for r in ap_sums.run_trend(name, ap_sums.APQuery(N=ns[0], **query), ns)]
    if cfg["csv"]:
        with open(cfg["csv"], "w") as fh:
            fh.write("N,empirical,predicted_main,rel_error\n")
            for r in results:
                fh.write(
                    f"{r['N']},{r['empirical']:.12g},{r['predicted_main']:.12g},{r['rel_error']:.12g}\n"
                )
    return results, []


def cmd_aux_sums(cfg):
    params = aux_sums.AuxParams(v=cfg["v"], D0=cfg["D0"])
    table = {
        "x": (aux_sums.x_direct, aux_sums.x_predicted),
        "y": (aux_sums.y_direct, aux_sums.y_predicted),
        "z1": (aux_sums.z1_direct, aux_sums.z1_predicted),
        "z2": (aux_sums.z2_direct, aux_sums.z2_predicted),
    }
    results = []
    for w in cfg["which"].split(","):
        if w not in table:
            raise ValidationError(f"aux-sums: unknown sum {w!r}")
        direct_fn, pred_fn = table[w]
        direct = direct_fn(params)
        pred = pred_fn(params, cfg["prime_bound"])
        results.append(
            {
                "sum": w,
                "direct": direct,
                "predicted": pred,
                "rel_error": abs(direct - pred) / abs(pred) if pred else math.inf,
            }
        )
    return results, [f"W={params.W}", f"W1={params.W1}"]


def cmd_functionals(cfg):
    spec = sieve.single_bin_spec(cfg["k"], cfg["beta"])
    results = []
    for kind, m, l in (("L", None, None), ("L_m", 0, None), ("L_ml", 0, 1)):
        if kind == "L_ml" and spec.k < 2:
            continue
        closed = sieve.functional_value(spec, kind, "closed_form", m=m, l=l)
        quad = sieve.functional_value(spec, kind, "quadrature", m=m, l=l)
        results.append(
            {
                "kind": kind,
                "closed_form": closed,
                "quadrature": quad,
                "abs_difference": abs(closed - quad),
            }
        )
    return results, []


def _sieve_params(cfg) -> sieve.SieveParams:
    return sieve.SieveParams(cfg["N"], cfg["theta1"], cfg["theta2"], cfg["D0"], strict=False)


def _sieve_setup(cfg):
    params = _sieve_params(cfg)
    return params, sieve.AdmissibleTuple(_numbers(cfg["tuple"], "--tuple"))


def cmd_sieve_run(cfg):
    params, tup = _sieve_setup(cfg)
    spec = sieve.single_bin_spec(tup.k, cfg["beta"])
    table = sieve.lambda_from_F(params, spec)
    which, m = cfg["which"].split(","), cfg["m"]
    l = (1 if tup.k > 1 else 0) if cfg["l"] is None else cfg["l"]
    results = []
    diagnostics = list(params.warnings)
    for w, direct in zip(which, sieve.s_direct_sums(which, params, tup, table, m=m, l=l)):
        pred = sieve.s_predicted(w, params, tup, spec, m=m, l=l)
        results.append(
            {
                "sum": w,
                "direct": direct.value,
                "predicted": pred,
                "ratio": direct.value / pred if pred else math.inf,
                "n_terms": direct.n_terms,
            }
        )
        if direct.rho_negative_count:
            diagnostics.append(
                f"{w}: rho < 0 at {direct.rho_negative_count} points, e.g. {direct.rho_negative_examples[:3]}"
            )
    return results, diagnostics


def cmd_tech_sum(cfg):
    params = _sieve_params(cfg)
    f_rules = {"reciprocal": lambda p: Fraction(1, p)}
    g_rules = {"one": lambda x: 1.0, "linear": lambda x: 1.0 - x}
    fr, gr = f_rules.get(cfg["f_rule"]), g_rules.get(cfg["G_rule"])
    if fr is None or gr is None:
        raise ValidationError("tech-sum: unknown rule")
    rep = sieve.tech_sum_check(params, fr, gr, cfg["prime_bound"])
    return [rep.as_dict()], list(params.warnings)


def cmd_c_gamma(cfg):
    res = sieve.c_gamma_check(_sieve_params(cfg), None, cfg["prime_bound"])
    return [
        {
            "truncated": res["truncated"].value,
            "closed_form": res["closed_form"],
            "slack": res["slack"],
            "truncation": res["truncated"].parameters,
        }
    ], []


def cmd_certificate(cfg):
    params, tup = _sieve_setup(cfg)
    sizes = _bin_sizes(cfg["bins"])
    if (cfg["mu"] is None) != (cfg["t"] is None):
        raise ValidationError("certificate: --mu and --t go together; give both or neither")
    if cfg["mu"] is None:
        # the defaults come from regime-legal exponents; desk-scale thetas
        # fall outside the domain of the certificate constants
        mu, t, warn = bins.default_mu_t(sizes, 1 / 40, 1 / 40)
        warn = [f"mu/t defaulted from exponents 1/40, 1/40: mu={mu}, t={t}"] + warn
    else:
        mu, t = _numbers(cfg["mu"], "--mu", float), _numbers(cfg["t"], "--t", float)
        warn = []
    part = bins.BinPartition(sizes=sizes, mu=mu, t=t)
    table = sieve.lambda_from_F(params, part.spec())
    res = bins.second_moment_lhs(params, tup, part, table)
    results = [
        {
            "lhs_direct": res.lhs_direct,
            "lhs_assembled": res.lhs_assembled,
            "rel_difference": res.rel_difference,
            "mu": list(mu),
            "t": list(t),
            "positive": res.lhs_direct > 0,
        }
    ]
    rho_negative = [f"rho < 0 at {res.rho_negative_count} points"] if res.rho_negative_count else []
    return results, warn + list(params.warnings) + rho_negative


def cmd_witness_search(cfg):
    params, tup = _sieve_setup(cfg)
    n_limit = 2 * params.N if cfg["limit"] is None else cfg["limit"]
    part = bins.BinPartition(sizes=_bin_sizes(cfg["bins"]))
    found = bins.witness_search(params, tup, part, n_limit)
    verified = bins.verify_witness(found)
    if cfg["csv"]:
        with open(cfg["csv"], "w") as fh:
            fh.write("\n".join(bins.witness_csv_rows(found)) + "\n")
    first = {"n": int(found.n[0]), "accepted": found.accepted[0].tolist()} if len(found) else None
    return [{"count": len(found), "all_verified": verified, "first": first}], list(params.warnings)


def cmd_pigeonhole(cfg):
    if not cfg["rows"]:
        raise ValidationError("pigeonhole: --rows required, e.g. '5;5,7;5,7,9'")
    rows = [_numbers(r, "--rows") for r in cfg["rows"].split(";") if r]
    res = bins.pigeonhole_extract(rows)
    return [
        {
            "a": list(res.a),
            "depth": res.depth,
            "supporting_rows": [list(s) for s in res.supporting_rows],
        }
    ], []


def cmd_quantum(cfg):
    what, rule, k, M = cfg["what"], cfg["rule"], cfg["k"], cfg["M"]
    results = []
    if what == "shell":
        shell = quantum.enumerate_shell(cfg["n"], 2 if cfg["dim"] is None else cfg["dim"])
        if cfg["csv"]:
            with open(cfg["csv"], "w") as fh:
                fh.write(",".join(f"x{i + 1}" for i in range(shell.d)) + "\n")
                for p in shell.points:
                    fh.write(",".join(map(str, p)) + "\n")
        results.append(
            {"n": shell.n, "d": shell.d, "count": len(shell.points), "points": [list(p) for p in shell.points[:50]]}
        )
    else:
        a = _numbers(cfg["a_list"], "--a-list")
        fixed = {"main": 3, "ql_i": 4}.get(rule)
        d = (fixed or 5) if cfg["dim"] is None else cfg["dim"]
        if fixed not in (None, d):
            raise ValidationError(f"quantum: --rule {rule} runs in dimension {fixed}, not --dim {d}")
        fam = quantum.build_family(rule, quantum.FamilyInputs(k=k, M=M, a=a, d=d))
        if what == "family":
            if cfg["csv"]:
                with open(cfg["csv"], "w") as fh:
                    fh.write("j," + ",".join(f"x{i + 1}" for i in range(fam.d)) + ",amp2_num,amp2_den\n")
                    for xi in sorted(fam.support):
                        j, a2 = fam.support[xi]
                        fh.write(f"{j}," + ",".join(map(str, xi)) + f",{a2.numerator},{a2.denominator}\n")
            results.append(
                {
                    "rule": rule,
                    "k": k,
                    "M": M,
                    "support_size": len(fam.support),
                    "normalization": 1.0,
                }
            )
        elif what == "btable":
            results.append({"rule": rule, "k": k, "b_tau": quantum.all_btau(fam)})
        elif what == "btau":
            tau = _numbers(cfg["tau"], "--tau")
            coef = quantum.b_tau(fam, tau)
            results.append(
                {
                    "tau": list(tau),
                    "value": coef.value,
                    "exact": coef.exact,
                }
            )
        elif what == "limits":
            tau = _numbers(cfg["tau"], "--tau")
            lim = quantum.ctau_limit(
                rule, quantum.constant_M_inputs(M, a, k, d), tau, k
            )
            results.append(
                {
                    "tau": list(tau),
                    "value": lim.value,
                    "diagnostic": lim.convergence_diagnostic,
                }
            )
        elif what == "bounds":
            for i in range(1, k + 1):
                results.append({"i": i, **quantum.mass_lower_bound(fam, i, cfg["epsilon"])})
        else:
            raise ValidationError(f"quantum: unknown --what {what!r}")
    return results, []


def cmd_constants(cfg):
    out = {"A": landau_ramanujan_A(cfg["prime_bound"])}
    out.update(special_constants())
    results = [
        {
            "name": name,
            "value": est.value,
            "truncation_bound": est.truncation_bound,
            "bound_kind": est.bound_kind,
            "parameters": est.parameters,
        }
        for name, est in out.items()
    ]
    return results, []


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """One subparser per subcommand.  Its (flag, type, default) list is the
    one record of the config keys the command reads and its report echoes;
    a default of None is worked out by the command, or means unset."""
    p = argparse.ArgumentParser(
        prog="twosquares",
        description="Empirical toolkit for sums-of-two-squares sieve experiments",
    )
    sub = p.add_subparsers(dest="command", required=True)
    # flags that several subcommands share
    N, D0, beta = ("N", num, 10**4), ("D0", int, 1), ("beta", float, 1.0)
    pb, csv = ("prime_bound", num, 10**6), ("csv", str, None)
    window = [N, ("theta1", float, 0.1), ("theta2", float, 1.0), D0]
    bin_flags = [("tuple", str, "0,4,16"), ("bins", str, "1:1,2:2")]
    commands = [
        ("build-table", cmd_build_table, [N]),
        (
            "ap-sums",
            cmd_ap_sums,
            [("sum", str, None), N, ("q", int, 1), ("a", int, 1), ("d", int, 1), ("d1", int, 1), ("d2", int, 1), ("h", int, 4), ("trend", str, None), csv],
        ),
        ("aux-sums", cmd_aux_sums, [("v", num, 10**4), D0, ("which", str, "x"), pb]),
        ("functionals", cmd_functionals, [("k", int, 2), beta]),
        ("sieve-run", cmd_sieve_run, [*window, ("tuple", str, "0,4"), beta, ("which", str, "S1"), ("m", int, 0), ("l", int, None)]),
        ("tech-sum", cmd_tech_sum, [*window, ("f_rule", str, "reciprocal"), ("G_rule", str, "one"), pb]),
        ("c-gamma", cmd_c_gamma, [*window, pb]),
        ("certificate", cmd_certificate, [*window, *bin_flags, ("mu", str, None), ("t", str, None)]),
        ("witness-search", cmd_witness_search, [*window, ("limit", num, None), *bin_flags, csv]),
        ("pigeonhole", cmd_pigeonhole, [("rows", str, None)]),
        (
            "quantum",
            cmd_quantum,
            [
                ("what", str, "shell"), ("n", num, 5), ("dim", int, None), ("rule", str, "main"), ("M", num, 32045),
                ("a_list", str, "2,19,46,67,74,86,109,122"), ("k", int, 2), ("tau", str, "0,0,0"), ("epsilon", float, 0.5), csv,
            ],
        ),
        ("constants", cmd_constants, [pb]),
    ]
    for name, fn, flags in commands:
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="JSON config file; flags override it")
        sp.add_argument("--output", help="write the JSON report here instead of stdout")
        for flag, typ, _ in flags:
            sp.add_argument(f"--{flag.replace('_', '-')}", dest=flag, type=typ)
        sp.set_defaults(func=fn, flags=flags)
    return p


# exit code and report "type" of each error a command may raise; an
# InternalError is an AssertionError
_ERRORS = {ValidationError: (2, "validation"), ResourceGuardError: (3, "resource_guard"), AssertionError: (4, "internal")}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        _emit(report(args), args.output, (time.perf_counter() - t0) * 1000)
    except tuple(_ERRORS) as exc:
        code, kind = next(v for cls, v in _ERRORS.items() if isinstance(exc, cls))
        error = {"type": kind, "message": str(exc)}
        if isinstance(exc, ResourceGuardError):
            error["cost_estimate"] = exc.cost_estimate
        _emit({"experiment": args.command, "error": error}, args.output)
        return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
