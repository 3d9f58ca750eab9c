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
from fractions import Fraction

from . import ap_sums, aux_sums, bins, quantum, sieve
from .arith import build_factor_table
from .constants import landau_ramanujan_A, special_constants
from .errors import InternalError, ResourceGuardError, ValidationError


def _round_floats(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, Fraction):
        return {"num": obj.numerator, "den": obj.denominator}
    if isinstance(obj, dict):
        return {str(k): _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _emit(report: dict, out_path: str | None, runtime_ms: float | None = None) -> None:
    """Wall-clock noise lives only on the timestamp line of a report."""
    stamp = datetime.now(timezone.utc).isoformat()
    if runtime_ms is not None:
        stamp += f" runtime_ms={runtime_ms:.3f}"
    report = {**report, "timestamp": stamp}
    text = json.dumps(_round_floats(report), indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _numbers(text: str, flag: str, parse) -> list:
    out = []
    for x in text.split(","):
        if x == "":
            continue
        try:
            out.append(parse(x))
        except (ValueError, OverflowError):
            raise ValidationError(f"{flag}: entry {x!r} is not a number") from None
    return out


def _ints(text: str, flag: str) -> list[int]:
    return _numbers(text, flag, lambda x: int(float(x)))


def _floats(text: str, flag: str) -> list[float]:
    return _numbers(text, flag, float)


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


def _resolve(args: argparse.Namespace, keys: list[str]) -> dict:
    """File config overridden by explicit flags; defaults materialised."""
    file_cfg = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            file_cfg = json.load(fh)
    out = {}
    for k in keys:
        flag = getattr(args, k, None)
        out[k] = flag if flag is not None else file_cfg.get(k, _DEFAULTS.get(k))
    return out


_DEFAULTS = {
    "N": 10**4,
    "q": 1,
    "a": 1,
    "d": 1,
    "d1": 1,
    "d2": 1,
    "h": 4,
    "D0": 1,
    "theta1": 0.1,
    "theta2": 1.0,
    "v": 10**4,
    "k": 2,
    "beta": 1.0,
    "prime_bound": 10**6,
}


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------


def cmd_build_table(args) -> dict:
    cfg = _resolve(args, ["N"])
    table = build_factor_table(int(cfg["N"]))
    import numpy as np

    idx = np.arange(2, table.limit + 1)
    n_primes = int((table.spf[2:] == idx).sum())
    return {
        "experiment": "build-table",
        "config": cfg,
        "results": [{"limit": table.limit, "primes_below_limit": n_primes}],
        "diagnostics": [],
    }


def cmd_ap_sums(args) -> dict:
    cfg = _resolve(args, ["sum", "N", "q", "a", "d", "d1", "d2", "h", "trend", "csv"])
    name = {"r": "ap_r", "rr": "ap_rr", "r2": "ap_r2"}.get(cfg["sum"])
    if name is None:
        raise ValidationError(f"ap-sums: unknown --sum {cfg['sum']!r}")
    ns = _ints(cfg["trend"], "--trend") if cfg["trend"] else [int(cfg["N"])]
    results = []
    for n in ns:
        q = ap_sums.APQuery(
            N=n,
            q=int(cfg["q"]),
            a=int(cfg["a"]),
            d=int(cfg["d"]),
            d1=int(cfg["d1"]),
            d2=int(cfg["d2"]),
            h=int(cfg["h"]),
        )
        results.append(ap_sums.run_experiment(name, q).as_dict())
    if cfg["csv"]:
        with open(cfg["csv"], "w") as fh:
            fh.write("N,empirical,predicted_main,rel_error\n")
            for r in results:
                fh.write(
                    f"{r['N']},{r['empirical']:.12g},{r['predicted_main']:.12g},{r['rel_error']:.12g}\n"
                )
    return {
        "experiment": "ap-sums",
        "config": cfg,
        "results": results,
        "diagnostics": [],
    }


def cmd_aux_sums(args) -> dict:
    cfg = _resolve(args, ["v", "D0", "which", "prime_bound"])
    which = (cfg["which"] or "x").split(",")
    params = aux_sums.AuxParams(v=int(cfg["v"]), D0=int(cfg["D0"]))
    pb = int(cfg["prime_bound"])
    table = {
        "x": (aux_sums.x_direct, aux_sums.x_predicted),
        "y": (aux_sums.y_direct, aux_sums.y_predicted),
        "z1": (aux_sums.z1_direct, aux_sums.z1_predicted),
        "z2": (aux_sums.z2_direct, aux_sums.z2_predicted),
    }
    results = []
    for w in which:
        if w not in table:
            raise ValidationError(f"aux-sums: unknown sum {w!r}")
        direct_fn, pred_fn = table[w]
        direct = direct_fn(params)
        pred = pred_fn(params, pb)
        results.append(
            {
                "sum": w,
                "direct": direct,
                "predicted": pred,
                "rel_error": abs(direct - pred) / abs(pred) if pred else math.inf,
            }
        )
    return {
        "experiment": "aux-sums",
        "config": cfg,
        "results": results,
        "diagnostics": [f"W={params.W}", f"W1={params.W1}"],
    }


def cmd_functionals(args) -> dict:
    cfg = _resolve(args, ["k", "beta"])
    spec = sieve.single_bin_spec(int(cfg["k"]), float(cfg["beta"]))
    results = []
    for kind, m, l in (("L", None, None), ("L_m", 0, None), ("L_ml", 0, 1)):
        if kind != "L" and spec.k < 2 and kind == "L_ml":
            continue
        closed = sieve.functional_value(spec, kind, "closed_form", m=m, l=l)
        quad = sieve.functional_value(spec, kind, "quadrature", m=m, l=l)
        results.append(
            {
                "kind": kind,
                "closed_form": closed.value,
                "quadrature": quad.value,
                "abs_difference": abs(closed.value - quad.value),
            }
        )
    return {
        "experiment": "functionals",
        "config": cfg,
        "results": results,
        "diagnostics": [],
    }


def _sieve_setup(cfg):
    params = sieve.SieveParams(
        N=int(cfg["N"]),
        theta1=float(cfg["theta1"]),
        theta2=float(cfg["theta2"]),
        D0=int(cfg["D0"]),
        strict=False,
    )
    tup = sieve.AdmissibleTuple(tuple(_ints(cfg["tuple"], "--tuple")))
    return params, tup


def cmd_sieve_run(args) -> dict:
    cfg = _resolve(
        args, ["N", "theta1", "theta2", "D0", "tuple", "beta", "which", "m", "l"]
    )
    cfg["tuple"] = cfg["tuple"] or "0,4"
    params, tup = _sieve_setup(cfg)
    spec = sieve.single_bin_spec(tup.k, float(cfg["beta"]))
    table = sieve.lambda_from_F(params, spec)
    which = (cfg["which"] or "S1").split(",")
    m = int(cfg["m"] or 0)
    l = int(cfg["l"] or (1 if tup.k > 1 else 0))
    ft = None
    if any(w != "S1" for w in which):
        ft = build_factor_table(2 * params.N + max(abs(min(tup.h)), max(tup.h)) + 1)
    results = []
    diagnostics = list(params.warnings)
    for w in which:
        direct = sieve.s_direct(w, params, tup, table, factor_table=ft, m=m, l=l)
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
    return {
        "experiment": "sieve-run",
        "config": cfg,
        "results": results,
        "diagnostics": diagnostics,
    }


def cmd_tech_sum(args) -> dict:
    cfg = _resolve(args, ["N", "theta1", "theta2", "D0", "f_rule", "G_rule", "prime_bound"])
    params = sieve.SieveParams(
        N=int(cfg["N"]), theta1=float(cfg["theta1"]), theta2=float(cfg["theta2"]),
        D0=int(cfg["D0"]), strict=False,
    )
    f_rules = {"reciprocal": lambda p: Fraction(1, p)}
    g_rules = {"one": lambda x: 1.0, "linear": lambda x: 1.0 - x}
    fr = f_rules.get(cfg["f_rule"] or "reciprocal")
    gr = g_rules.get(cfg["G_rule"] or "one")
    if fr is None or gr is None:
        raise ValidationError("tech-sum: unknown rule")
    rep = sieve.tech_sum_check(params, fr, gr, int(cfg["prime_bound"]))
    return {
        "experiment": "tech-sum",
        "config": cfg,
        "results": [rep.as_dict()],
        "diagnostics": list(params.warnings),
    }


def cmd_c_gamma(args) -> dict:
    cfg = _resolve(args, ["N", "theta1", "theta2", "D0", "prime_bound"])
    params = sieve.SieveParams(
        N=int(cfg["N"]), theta1=float(cfg["theta1"]), theta2=float(cfg["theta2"]),
        D0=int(cfg["D0"]), strict=False,
    )
    res = sieve.c_gamma_check(params, None, int(cfg["prime_bound"]))
    return {
        "experiment": "c-gamma",
        "config": cfg,
        "results": [
            {
                "truncated": res["truncated"].value,
                "closed_form": res["closed_form"],
                "slack": res["slack"],
                "truncation": res["truncated"].parameters,
            }
        ],
        "diagnostics": [],
    }


def cmd_certificate(args) -> dict:
    cfg = _resolve(
        args, ["N", "theta1", "theta2", "D0", "tuple", "bins", "mu", "t"]
    )
    cfg["tuple"] = cfg["tuple"] or "0,4,16"
    cfg["bins"] = cfg["bins"] or "1:1,2:2"
    params, tup = _sieve_setup(cfg)
    sizes = _bin_sizes(cfg["bins"])
    if cfg["mu"] and cfg["t"]:
        mu, t = tuple(_floats(cfg["mu"], "--mu")), tuple(_floats(cfg["t"], "--t"))
        warn = []
    else:
        # the defaults come from regime-legal exponents; desk-scale thetas
        # fall outside the domain of the certificate constants
        mu, t, warn = bins.default_mu_t(sizes, 1 / 40, 1 / 40)
        warn = [f"mu/t defaulted from exponents 1/40, 1/40: mu={mu}, t={t}"] + warn
    part = bins.BinPartition(sizes=sizes, mu=mu, t=t)
    table = sieve.lambda_from_F(params, part.spec())
    ft = build_factor_table(2 * params.N + max(abs(min(tup.h)), max(tup.h)) + 1)
    res = bins.second_moment_lhs(params, tup, part, table, ft)
    return {
        "experiment": "certificate",
        "config": cfg,
        "results": [
            {
                "lhs_direct": res.lhs_direct,
                "lhs_assembled": res.lhs_assembled,
                "rel_difference": res.rel_difference,
                "mu": list(mu),
                "t": list(t),
                "positive": res.lhs_direct > 0,
            }
        ],
        "diagnostics": warn
        + list(params.warnings)
        + (
            [f"rho < 0 at {res.rho_negative_count} points"]
            if res.rho_negative_count
            else []
        ),
    }


def cmd_witness_search(args) -> dict:
    cfg = _resolve(
        args, ["N", "limit", "theta1", "theta2", "D0", "tuple", "bins", "csv"]
    )
    cfg["tuple"] = cfg["tuple"] or "0,4,16"
    cfg["bins"] = cfg["bins"] or "1:1,2:2"
    params, tup = _sieve_setup(cfg)
    n_limit = int(float(cfg["limit"] or 2 * params.N))
    part = bins.BinPartition(sizes=_bin_sizes(cfg["bins"]))
    ft = build_factor_table(n_limit + max(abs(min(tup.h)), max(tup.h)) + 1)
    records = bins.witness_search(params, tup, part, n_limit, ft)
    verified = all(bins.verify_witness(r, ft) for r in records)
    if cfg["csv"]:
        with open(cfg["csv"], "w") as fh:
            fh.write("\n".join(bins.witness_csv_rows(records)) + "\n")
    return {
        "experiment": "witness-search",
        "config": cfg,
        "results": [
            {
                "count": len(records),
                "all_verified": verified,
                "first": (
                    {"n": records[0].n, "accepted": list(records[0].accepted)}
                    if records
                    else None
                ),
            }
        ],
        "diagnostics": list(params.warnings),
    }


def cmd_pigeonhole(args) -> dict:
    cfg = _resolve(args, ["rows"])
    if not cfg["rows"]:
        raise ValidationError("pigeonhole: --rows required, e.g. '5;5,7;5,7,9'")
    rows = [tuple(_ints(r, "--rows")) for r in cfg["rows"].split(";") if r]
    res = bins.pigeonhole_extract(rows)
    return {
        "experiment": "pigeonhole",
        "config": cfg,
        "results": [
            {
                "a": list(res.a),
                "depth": res.depth,
                "supporting_rows": [list(s) for s in res.supporting_rows],
            }
        ],
        "diagnostics": [],
    }


def cmd_quantum(args) -> dict:
    cfg = _resolve(
        args, ["what", "n", "dim", "rule", "M", "a_list", "k", "tau", "epsilon", "csv"]
    )
    what = cfg["what"] or "shell"
    results = []
    if what == "shell":
        shell = quantum.enumerate_shell(int(cfg["n"] or 5), int(cfg["dim"] or 2))
        if cfg["csv"]:
            with open(cfg["csv"], "w") as fh:
                fh.write(",".join(f"x{i + 1}" for i in range(shell.d)) + "\n")
                for p in shell.points:
                    fh.write(",".join(map(str, p)) + "\n")
        results.append(
            {"n": shell.n, "d": shell.d, "count": len(shell.points), "points": [list(p) for p in shell.points[:50]]}
        )
    else:
        rule = cfg["rule"] or "main"
        a = tuple(_ints(cfg["a_list"] or "2,19,46,67,74,86,109,122", "--a-list"))
        M = int(cfg["M"] or 32045)
        k = int(cfg["k"] or 2)
        d = int(cfg["dim"] or {"main": 3, "ql_i": 4}.get(rule, 5))
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
            table = quantum.all_btau(fam)
            keys = (",".join(map(str, tau)) for tau in table.taus.tolist())
            results.append(
                {"rule": rule, "k": k, "b_tau": dict(zip(keys, table.values.tolist()))}
            )
        elif what == "btau":
            tau = tuple(_ints(cfg["tau"] or "0,0,0", "--tau"))
            coef = quantum.b_tau(fam, tau)
            results.append(
                {
                    "tau": list(tau),
                    "value": coef.value,
                    "exact": coef.exact,
                }
            )
        elif what == "limits":
            tau = tuple(_ints(cfg["tau"] or "0,0,0", "--tau"))
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
            eps = float(cfg["epsilon"] or 0.5)
            for i in range(1, k + 1):
                results.append({"i": i, **quantum.mass_lower_bound(fam, i, eps)})
        else:
            raise ValidationError(f"quantum: unknown --what {what!r}")
    return {"experiment": "quantum", "config": cfg, "results": results, "diagnostics": []}


def cmd_constants(args) -> dict:
    cfg = _resolve(args, ["prime_bound"])
    pb = int(cfg["prime_bound"])
    out = {"A": landau_ramanujan_A(pb)}
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
    return {"experiment": "constants", "config": cfg, "results": results, "diagnostics": []}


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="twosquares",
        description="Empirical toolkit for sums-of-two-squares sieve experiments",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, flags):
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="JSON config file; flags override it")
        sp.add_argument("--output", help="write the JSON report here instead of stdout")
        for flag, typ in flags:
            sp.add_argument(f"--{flag.replace('_', '-')}", dest=flag, type=typ)
        sp.set_defaults(func=fn)

    num = lambda s: int(float(s))
    add("build-table", cmd_build_table, [("N", num)])
    add(
        "ap-sums",
        cmd_ap_sums,
        [("sum", str), ("N", num), ("q", int), ("a", int), ("d", int), ("d1", int), ("d2", int), ("h", int), ("trend", str), ("csv", str)],
    )
    add("aux-sums", cmd_aux_sums, [("v", num), ("D0", int), ("which", str), ("prime_bound", num)])
    add("functionals", cmd_functionals, [("k", int), ("beta", float)])
    add(
        "sieve-run",
        cmd_sieve_run,
        [("N", num), ("theta1", float), ("theta2", float), ("D0", int), ("tuple", str), ("beta", float), ("which", str), ("m", int), ("l", int)],
    )
    add(
        "tech-sum",
        cmd_tech_sum,
        [("N", num), ("theta1", float), ("theta2", float), ("D0", int), ("f_rule", str), ("G_rule", str), ("prime_bound", num)],
    )
    add(
        "c-gamma",
        cmd_c_gamma,
        [("N", num), ("theta1", float), ("theta2", float), ("D0", int), ("prime_bound", num)],
    )
    add(
        "certificate",
        cmd_certificate,
        [("N", num), ("theta1", float), ("theta2", float), ("D0", int), ("tuple", str), ("bins", str), ("mu", str), ("t", str)],
    )
    add(
        "witness-search",
        cmd_witness_search,
        [("N", num), ("limit", num), ("theta1", float), ("theta2", float), ("D0", int), ("tuple", str), ("bins", str), ("csv", str)],
    )
    add("pigeonhole", cmd_pigeonhole, [("rows", str)])
    add(
        "quantum",
        cmd_quantum,
        [("what", str), ("n", num), ("dim", int), ("rule", str), ("M", num), ("a_list", str), ("k", int), ("tau", str), ("epsilon", float), ("csv", str)],
    )
    add("constants", cmd_constants, [("prime_bound", num)])
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        report = args.func(args)
    except ValidationError as exc:
        _emit({"experiment": args.command, "error": {"type": "validation", "message": str(exc)}}, getattr(args, "output", None))
        return 2
    except ResourceGuardError as exc:
        _emit(
            {
                "experiment": args.command,
                "error": {"type": "resource_guard", "message": str(exc), "cost_estimate": exc.cost_estimate},
            },
            getattr(args, "output", None),
        )
        return 3
    except (InternalError, AssertionError) as exc:
        _emit({"experiment": args.command, "error": {"type": "internal", "message": str(exc)}}, getattr(args, "output", None))
        return 4
    _emit(report, getattr(args, "output", None), (time.perf_counter() - t0) * 1000)
    return 0


if __name__ == "__main__":
    sys.exit(main())
