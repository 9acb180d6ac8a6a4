"""Command-line driver: coefficient tables, verification suites, expansions.

Exit codes are a stable contract for CI: 0 when every requested check
passes, 1 when any check fails, 2 on usage or parse errors, 3 on an
internal error (a fault in qtwist, not in the input).  Reports are
deterministic for a fixed configuration and seed (no timestamps), and
check lists are always sorted by check id.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .coordring import CoordPoly, SIDE_A, SIDE_APRIME
from .divpow import DPElem, LEVELS, PRIMES
from .frobdiv import (FrobCoeffTable, MembershipError, default_r_max,
                      divided_frobenius, envelope_basis_check,
                      level_minus_one_ctx, u_consistency_check)
from .diffcalc import taylor
from .verify import SUITE_NAMES, VerifyConfig, run_suite

DEFAULTS = VerifyConfig()    # the defaults of --p, --m, --n-max and of verify's bounds


class UsageError(Exception):
    pass


def _add_common(sp, m=False, n_max=False, with_csv=False):
    sp.add_argument("--p", type=int, default=DEFAULTS.p, help="prime (2, 3, 5 or 7)")
    if m:
        sp.add_argument("--m", type=int, default=DEFAULTS.m, help="level parameter (0..3)")
    if n_max:
        sp.add_argument("--n-max", type=int, default=DEFAULTS.n_max, dest="n_max",
                        help="index / order bound")
    sp.add_argument("--format", default="text",
                    choices=("json", "csv", "text") if with_csv else ("json", "text"))
    sp.add_argument("--out", metavar="FILE", help="write output to FILE")


def _validate(args):
    if args.p not in PRIMES:
        raise UsageError(f"--p must be one of {PRIMES}, got {args.p}")
    if getattr(args, "m", 0) not in LEVELS:
        raise UsageError(f"--m must be in 0..3, got {args.m}")
    if ((getattr(args, "n_max", 0) or 0) < 0 or (getattr(args, "r_max", 0) or 0) < 0
            or getattr(args, "trunc_N", 1) < 1 or getattr(args, "deg_d", 0) < 0):
        raise UsageError("bounds must be non-negative (--trunc-N at least 1)")


def _check_localized(f, p, where=""):
    """Reject a CoordPoly coefficient outside the localization at (p, q-1)."""
    for j, c in enumerate(f.coeffs):
        if not c.in_localization(p):
            raise UsageError(
                f"{where}coefficient {j} = {c} is not in the localization at "
                f"(p, q-1) for p = {p}: its denominator at q = 1 is divisible by p")


def _emit(args, text):
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as e:
            raise UsageError(f"cannot write {args.out}: {e}")
    else:
        sys.stdout.write(text)


def _read_json_file(path):
    def unique_keys(pairs):
        obj = {}
        for k, v in pairs:
            if k in obj:
                raise UsageError(f"repeated key {k!r} in an object of {path}")
            obj[k] = v
        return obj

    try:
        with open(path) as fh:
            return json.load(fh, object_pairs_hook=unique_keys)
    except OSError as e:
        raise UsageError(f"cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        raise UsageError(
            f"parse error in {path} at line {e.lineno}, column {e.colno}: {e.msg}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_coeffs(args):
    _validate(args)
    rows = list(FrobCoeffTable(args.p, args.n_max).rows())
    if args.format == "json":
        payload = {"p": args.p, "n_max": args.n_max, "rows": [
            {"n": r["n"], "i": r["i"], "a": r["a"].to_json(),
             "b": r["b"].to_json(), "a_str": str(r["a"]), "b_str": str(r["b"]),
             "unit_at_top": r["unit_at_top"]} for r in rows]}
        _emit(args, json.dumps(payload, indent=2) + "\n")
    elif args.format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["p", "n", "i", "a", "b", "unit_at_top"])
        for r in rows:
            w.writerow([args.p, r["n"], r["i"], str(r["a"]), str(r["b"]),
                        "" if r["unit_at_top"] is None else r["unit_at_top"]])
        _emit(args, buf.getvalue())
    else:
        lines = [f"coefficients for p = {args.p}, n <= {args.n_max}"]
        for r in rows:
            flag = "" if r["unit_at_top"] is None else f"  unit={r['unit_at_top']}"
            lines.append(f"n={r['n']:2d} i={r['i']:3d}  a = {r['a']}  |  b = {r['b']}{flag}")
        _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_verify(args):
    _validate(args)
    cfg = VerifyConfig(p=args.p, m=args.m, n_max=args.n_max,
                       trunc_N=args.trunc_N, deg_d=args.deg_d, seed=args.seed)
    checks = run_suite(args.suite, cfg)
    counts = {s: sum(c["status"] == s for c in checks) for s in ("pass", "skip", "fail")}
    report = {
        "config": {"suite": args.suite, "p": args.p, "m": args.m,
                   "n_max": args.n_max, "trunc_N": args.trunc_N,
                   "deg_d": args.deg_d, "seed": args.seed},
        "checks": checks,
        "passed": counts["pass"],
        "skipped": counts["skip"],
        "failed": counts["fail"],
    }
    if args.format == "json":
        _emit(args, json.dumps(report, indent=2) + "\n")
    elif args.format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["id", "ref", "status", "detail"])
        for c in checks:
            w.writerow([c["id"], c["ref"], c["status"], c["detail"]])
        _emit(args, buf.getvalue())
    else:
        lines = []
        for c in checks:
            lines.append(f"[{c['status']:4}] {c['id']}")
            lines.append(f"        {c['detail']}")
        lines.append(f"{report['passed']} passed, {report['skipped']} skipped, "
                     f"{report['failed']} failed")
        _emit(args, "\n".join(lines) + "\n")
    return 1 if report["failed"] else 0


def cmd_taylor(args):
    _validate(args)
    data = _read_json_file(args.input)
    try:
        f = CoordPoly.from_json(data)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as e:
        raise UsageError(f"not a coordinate-polynomial document: {e}")
    if f.side != SIDE_A:
        raise UsageError(f'taylor expands a polynomial over A: set "side" to '
                         f'"{SIDE_A}" in the document (it is "{f.side}")')
    _check_localized(f, args.p)
    expansion = taylor(f, args.n_max, args.p, args.m)
    if args.format == "json":
        _emit(args, json.dumps(expansion.to_json(), indent=2) + "\n")
    else:
        _emit(args, repr(expansion) + "\n")
    return 0


def cmd_frobenius(args):
    _validate(args)
    data = _read_json_file(args.input)
    try:
        e = DPElem.from_json(data)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as e_:
        raise UsageError(f"not a divided-power document: {e_}")
    ctx = e.ctx
    if ctx.p != args.p:
        raise UsageError(f"document prime {ctx.p} != --p {args.p}")
    if ctx != level_minus_one_ctx(ctx.p, SIDE_APRIME, ctx.cap):
        raise UsageError("input must be a level -1 element over the pullback side")
    for n, c in sorted(e.terms.items()):
        _check_localized(c, ctx.p, f"term {n}, ")
    top = max(e.terms, default=0)
    if ctx.p * top > ctx.cap:
        raise UsageError(
            f"term {top} maps to divided-power indices up to {ctx.p * top}, above "
            f'the document\'s cap {ctx.cap}: raise "cap" in its "ctx" to at least '
            f"{ctx.p * top}")
    img = divided_frobenius(e)
    if args.format == "json":
        _emit(args, json.dumps(img.to_json(), indent=2) + "\n")
    else:
        _emit(args, repr(img) + "\n")
    return 0


def cmd_envelope_check(args):
    _validate(args)
    r_max = args.r_max if args.r_max is not None else default_r_max(args.p)
    rep = envelope_basis_check(r_max, args.p)
    if args.format == "json":
        _emit(args, json.dumps(rep, indent=2) + "\n")
    else:
        lines = [f"envelope basis congruences for p = {args.p}, r <= {r_max}"]
        for row in rep["rows"]:
            line = (f"r={row['r']}: congruent={row['congruent']} "
                    f"c={row['c']} unit={row['c_unit']}")
            if "phi_valuation" in row:
                line += (f" valuations=({row['phi_valuation']},"
                         f"{row['power_valuation']}) ok={row['valuations_ok']}")
            lines.append(line)
        lines.append("ok" if rep["ok"] else "FAILED")
        _emit(args, "\n".join(lines) + "\n")
    return 0 if rep["ok"] else 1


def cmd_u_check(args):
    _validate(args)
    if args.n_max == 0:
        raise UsageError("--n-max must be at least 1: index 0 checks nothing")
    try:
        rep = u_consistency_check(args.p, args.n_max)
    except MembershipError as e:
        _emit(args, f"FAILED: {e}\n")
        return 1
    if args.format == "json":
        _emit(args, json.dumps(rep, indent=2) + "\n")
    else:
        lines = [f"diagonal-map checks for p = {args.p}"]
        for c in rep["checks"]:
            lines.append(f"[{'pass' if c['ok'] else 'fail'}] {c['id']}: {c['detail']}")
        lines.append("ok" if rep["ok"] else "FAILED")
        _emit(args, "\n".join(lines) + "\n")
    return 0 if rep["ok"] else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qtwist",
        description="exact verification of twisted divided-power calculus")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("coeffs", help="divided-Frobenius coefficient table")
    _add_common(sp, n_max=True, with_csv=True)
    sp.set_defaults(fn=cmd_coeffs)

    sp = sub.add_parser("verify", help="run a named check suite")
    sp.add_argument("--suite", choices=SUITE_NAMES, default="all")
    _add_common(sp, m=True, n_max=True, with_csv=True)
    sp.add_argument("--trunc-N", type=int, default=DEFAULTS.trunc_N, dest="trunc_N",
                    help="adic truncation order")
    sp.add_argument("--deg-d", type=int, default=DEFAULTS.deg_d, dest="deg_d",
                    help="x-degree bound for truncated probes")
    sp.add_argument("--seed", type=int, default=DEFAULTS.seed,
                    help="seed for randomized suites")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("taylor", help="truncated Taylor expansion of an input")
    sp.add_argument("input", help="coordinate-polynomial JSON file")
    _add_common(sp, m=True, n_max=True)
    sp.set_defaults(fn=cmd_taylor)

    sp = sub.add_parser("frobenius", help="divided Frobenius image of an input")
    sp.add_argument("input", help="divided-power element JSON file")
    _add_common(sp)
    sp.set_defaults(fn=cmd_frobenius)

    sp = sub.add_parser("envelope-check", help="delta-iterate basis congruences")
    _add_common(sp)
    sp.add_argument("--r-max", type=int, default=None, dest="r_max",
                    help="top delta-iterate (default depends on p)")
    sp.set_defaults(fn=cmd_envelope_check)

    sp = sub.add_parser("u-check", help="diagonal-map consistency checks")
    _add_common(sp)
    sp.add_argument("--n-max", type=int, default=None, dest="n_max",
                    help="top basis index of the kills check (default p)")
    sp.set_defaults(fn=cmd_u_check)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        import traceback   # here, not at the top: it would add to every start-up
        traceback.print_exc()
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
