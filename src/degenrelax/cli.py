"""Command line front end.

Subcommands
    analyze   detect the degeneracy structure of a weight
    aux       build the auxiliary weight; report branch values and bounds
    poincare  run weighted mean-gap inequality checks over test functions
    relax     evaluate the original and relaxed energies of one function
    approx    build an approximating sequence and verify its convergence
    cascade   per-bump masses and partial sums of the built-in cascade

Results are emitted as JSON (schema_version 1, keys sorted, indent 2) to
stdout or --out.  --no-timestamp drops the timestamp field so output is
byte-for-byte reproducible.  --csv writes tabular side data next to the JSON
for the commands that have any (aux, approx, cascade).

Exit status: 0 on success, 1 when a requested verification fails, 2 on bad
input.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict
from datetime import datetime, timezone

import numpy as np

from .auxweight import aux_global_bounds, build_aux_weight
from .cascade import cascade_partial_sums
from .degeneracy import IndeterminateIntegrabilityError, detect_structure
from .quadrature import DEFAULT_CONFIG, IntegrandEvaluationError, QuadratureConfig
from .relaxation import (UnsupportedStructureError, build_approx_sequence, original_functional,
                         relaxed_functional, verify_relaxation)
from .spaces import (check_membership, constant_function, log_edge_function, lp_aux_norm,
                     poincare_global_check, poly_function, random_test_functions,
                     spline_function, sqrt_edge_function)
from .weights import Exponent, parse_weight_arg, sorted_unique


def _jsonable(obj):
    """Recursively convert to JSON-safe values; non-finite floats become strings."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    return str(obj)


def _emit(payload: dict, args) -> None:
    body = dict(payload)
    body["schema_version"] = 1
    if not args.no_timestamp:
        body["timestamp"] = datetime.now(timezone.utc).isoformat()
    text = json.dumps(_jsonable(body), sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_csv(path: str, header: list, rows: list) -> None:
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        for row in rows:
            wr.writerow(row)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--p", type=float, default=2.0,
                        help="integrability exponent, 1 < p < inf (default 2)")
    common.add_argument("--rel-tol", type=float, default=DEFAULT_CONFIG.rel_tol,
                        help="relative quadrature tolerance")
    common.add_argument("--abs-tol", type=float, default=DEFAULT_CONFIG.abs_tol,
                        help="quadrature tolerance floor relative to the summed "
                             "magnitude of the panel values (default 1e-13)")
    common.add_argument("--out", default=None, help="write JSON here instead of stdout")
    common.add_argument("--no-timestamp", action="store_true",
                        help="omit the timestamp field (reproducible output)")

    wopt = argparse.ArgumentParser(add_help=False)
    wopt.add_argument("--weight", required=True,
                      help="weight spec: figure1 | power:alpha=A | "
                           "cascade:alpha=A,bumps=N | grid:FILE.csv | FILE.json | FILE.csv")

    ap = argparse.ArgumentParser(
        prog="degenrelax",
        description="degenerate-weight energy relaxation toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("analyze", parents=[common, wopt],
                        help="degeneracy structure of a weight")

    sp = sub.add_parser("aux", parents=[common, wopt],
                        help="auxiliary weight construction and bounds")
    sp.add_argument("--csv", default=None, help="write (x, weight, aux) samples here")
    sp.add_argument("--samples", type=int, default=256,
                    help="sample count per interval for --csv, at least 8 (default 256)")

    sp = sub.add_parser("poincare", parents=[common, wopt],
                        help="weighted mean-gap inequality battery")
    sp.add_argument("--u", action="append", default=[],
                    help="test function spec (repeatable): poly:c0,c1,... | "
                         "const:V | spline:x=y,x=y,... | sqrt | logdist")
    sp.add_argument("--count", type=int, default=8,
                    help="random spline count when no --u given, at least 1 (default 8)")
    sp.add_argument("--seed", type=int, default=0, help="random seed (default 0)")

    sp = sub.add_parser("relax", parents=[common, wopt],
                        help="original and relaxed energy of one function")
    sp.add_argument("--u", required=True, help="test function spec")

    sp = sub.add_parser("approx", parents=[common, wopt],
                        help="approximating sequence for one function")
    sp.add_argument("--u", required=True, help="test function spec")
    sp.add_argument("--h-max", type=int, default=64,
                    help="finest mesh parameter (default 64)")
    sp.add_argument("--h", default=None,
                    help="explicit comma-separated mesh parameters, overrides --h-max")
    sp.add_argument("--csv", default=None, help="write per-member diagnostics here")

    sp = sub.add_parser("cascade", parents=[common],
                        help="partial sums along the built-in cascade")
    sp.add_argument("--alpha", type=float, required=True, help="bump exponent")
    sp.add_argument("--bumps", type=int, default=8, help="bump count (default 8)")
    sp.add_argument("--csv", default=None, help="write per-bump rows here")

    return ap


def parse_function_arg(text: str, domain):
    """Build a test function from a CLI spec string."""
    text = text.strip()
    kind, sep, rest = text.partition(":")
    if kind in ("sqrt", "logdist") and sep:
        raise ValueError(f"test function {kind!r} takes no argument, got {text!r}")
    if kind == "poly":
        tokens = rest.split(",")
        if not rest.strip():
            raise ValueError(f"empty polynomial spec {text!r}")
        empty = [k for k, t in enumerate(tokens) if not t.strip()]
        if empty:
            raise ValueError(f"polynomial spec {text!r}: the coefficient of x^{empty[0]} is empty")
        return poly_function([float(t) for t in tokens], label=text)
    if kind == "const":
        return constant_function(float(rest), label=text)
    if kind == "spline":
        kx, ky = [], []
        for pair in rest.split(","):
            xs, _, ys = pair.partition("=")
            kx.append(float(xs))
            ky.append(float(ys))
        if len(kx) < 2:
            raise ValueError(f"spline spec {text!r} needs at least two x=y knots")
        return spline_function(kx, ky, label=text)
    if kind == "sqrt":
        return sqrt_edge_function(domain, label=text)
    if kind == "logdist":
        return log_edge_function(domain, label=text)
    raise ValueError(f"unknown test function spec {text!r}")


def _structure_dict(structure) -> dict:
    return {
        "kind": structure.kind,
        "count": structure.count,
        "intervals": [{**asdict(iv), "mid": iv.mid, "width": iv.width}
                      for iv in structure.intervals],
        "removable_zeros": [asdict(z) for z in structure.removable_zeros],
        "split_zeros": [asdict(z) for z in structure.split_zeros],
        "zero_regions": structure.zero_regions,
    }


def _setup(args):
    p = Exponent(args.p)
    cfg = QuadratureConfig(args.rel_tol, args.abs_tol)
    w = parse_weight_arg(args.weight, p)
    structure = detect_structure(w, p, cfg)
    return w, p, cfg, structure


def cmd_analyze(args) -> int:
    w, p, cfg, structure = _setup(args)
    _emit({
        "command": "analyze",
        "weight": w.spec_dict(),
        "p": p.p,
        "structure": _structure_dict(structure),
    }, args)
    return 0


def cmd_aux(args) -> int:
    if args.samples < 8:
        raise ValueError(f"--samples must be at least 8, got {args.samples}")
    w, p, cfg, structure = _setup(args)
    aux = build_aux_weight(w, p, structure, cfg)
    bounds = aux_global_bounds(aux)
    per = []
    for part, b in zip(aux.parts, bounds.per_interval):
        per.append({
            "span": [part.base.lo, part.base.hi],
            "plateau": part.plateau,
            "lo_value": part.lo_value,
            "hi_value": part.hi_value,
            "left_limit": part.left_limit,
            "right_limit": part.right_limit,
            "sup": b[0],
            "inf": b[1],
        })
    if args.csv:
        rows = []
        for part in aux.parts:
            xs = np.linspace(part.base.lo, part.base.hi, args.samples)
            xs = sorted_unique(np.concatenate([xs, [part.q1, part.q3]]))
            wv = np.asarray(w(xs), dtype=float)
            av = np.asarray(aux(xs), dtype=float)
            rows += [(float(x), float(wx), float(ax)) for x, wx, ax in zip(xs, wv, av)]
        _write_csv(args.csv, ["x", "weight", "aux"], rows)
    _emit({
        "command": "aux",
        "weight": w.spec_dict(),
        "p": p.p,
        "structure": _structure_dict(structure),
        "intervals": per,
        "sup": bounds.sup,
        "inf": bounds.inf,
        "covers_domain": bounds.covers_domain,
        "csv": args.csv,
    }, args)
    return 0


def cmd_poincare(args) -> int:
    if not args.u and args.count < 1:  # a verification of no function would pass
        raise ValueError(f"--count must be at least 1, got {args.count}")
    w, p, cfg, structure = _setup(args)
    if structure.kind == "zero":
        raise ValueError("weight vanishes a.e.; no structure to test against")
    aux = build_aux_weight(w, p, structure, cfg)
    if args.u:
        funcs = [parse_function_arg(spec, w.domain) for spec in args.u]
    else:
        funcs = random_test_functions(w.domain, args.count, args.seed)
    rows = []
    all_ok = True
    for u in funcs:
        rep = poincare_global_check(u, w, aux, structure, p, cfg)
        rows.append({"label": u.label, "lhs": rep.lhs, "rhs": rep.rhs,
                     "ratio": rep.ratio, "ok": rep.ok})
        all_ok &= rep.ok
    _emit({
        "command": "poincare",
        "weight": w.spec_dict(),
        "p": p.p,
        "checks": rows,
        "ok": all_ok,
    }, args)
    return 0 if all_ok else 1


def cmd_relax(args) -> int:
    w, p, cfg, structure = _setup(args)
    u = parse_function_arg(args.u, w.domain)
    orig = original_functional(u, w, p, cfg)
    aux = build_aux_weight(w, p, structure, cfg)
    rel = relaxed_functional(u, w, aux, structure, p, cfg)
    mem = check_membership(u, w, structure, p, cfg)  # both read what relaxed_functional integrated
    _emit({
        "command": "relax",
        "weight": w.spec_dict(),
        "p": p.p,
        "u": u.label,
        "original": asdict(orig),
        "relaxed": asdict(rel),
        "membership": {"in_space": mem.in_space, "seminorm": mem.seminorm.value_or_inf},
        "ambient_norm_p": lp_aux_norm(u, aux, cfg).value_or_inf,
    }, args)
    return 0


# the per-member columns of approx, in JSON and in --csv
_MEMBER_COLUMNS = ("h", "x_err", "f_value", "f_gap", "seam_mismatch")


def cmd_approx(args) -> int:
    w, p, cfg, structure = _setup(args)
    aux = build_aux_weight(w, p, structure, cfg)
    u = parse_function_arg(args.u, w.domain)
    hs = None
    if args.h:
        hs = [int(t) for t in args.h.split(",") if t.strip()]
    seq = build_approx_sequence(u, w, aux, structure, p,
                                h_values=hs, h_max=args.h_max, cfg=cfg)
    verdict = asdict(verify_relaxation(seq))
    del verdict["rows"]
    rows = [tuple(getattr(m, c) for c in _MEMBER_COLUMNS) for m in seq.members]
    if args.csv:
        _write_csv(args.csv, list(_MEMBER_COLUMNS), rows)
    _emit({
        "command": "approx",
        "weight": w.spec_dict(),
        "p": p.p,
        "u": u.label,
        "h_min": seq.h_min,
        "h_values": list(seq.h_values),
        "junctions": list(seq.junctions),
        "f_limit": seq.f_limit,
        "x_norm_u": seq.x_norm_u,
        "members": [dict(zip(_MEMBER_COLUMNS, row)) for row in rows],
        "verdict": verdict,
        "csv": args.csv,
    }, args)
    return 0 if verdict["ok"] else 1


def cmd_cascade(args) -> int:
    p = Exponent(args.p)
    cfg = QuadratureConfig(args.rel_tol, args.abs_tol)
    rep = cascade_partial_sums(args.alpha, p, args.bumps, cfg)
    if args.csv:
        rows = [
            (i + 1, rep.spans[i][0], rep.spans[i][1], rep.terms[i],
             rep.partial_sums[i], rep.comparison[i], rep.ratios[i])
            for i in range(rep.bumps)
        ]
        _write_csv(args.csv,
                   ["i", "lo", "hi", "term", "partial_sum", "comparison", "ratio"],
                   rows)
    body = asdict(rep)
    del body["spans"]
    _emit({"command": "cascade", **body, "csv": args.csv}, args)
    return 0 if rep.increasing else 1


_HANDLERS = {
    "analyze": cmd_analyze,
    "aux": cmd_aux,
    "poincare": cmd_poincare,
    "relax": cmd_relax,
    "approx": cmd_approx,
    "cascade": cmd_cascade,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, ArithmeticError, OSError,
            IndeterminateIntegrabilityError, IntegrandEvaluationError,
            UnsupportedStructureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
