"""Command-line driver: coefficient tables, verification suites, expansions.

Every request takes one path: ``main`` parses argv with the one parser of
the process (built on first use), validates the shared bounds once, runs
one ``cmd_*`` (its own checks and computation) and writes one report with
``_report``, which builds only the requested format.  ``main(argv)``
returns the exit code and may be called repeatedly in one process.

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
from functools import lru_cache
from json.encoder import encode_basestring_ascii

from .coordring import CoordPoly, LocalizationError, SIDE_A, SIDE_APRIME, check_localized
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
    """Check the values the subcommands share; main calls it once per request."""
    if args.p not in PRIMES:
        raise UsageError(f"--p must be one of {PRIMES}, got {args.p}")
    if getattr(args, "m", 0) not in LEVELS:
        raise UsageError(f"--m must be in 0..3, got {args.m}")
    for dest, low in (("n_max", 0), ("r_max", 0), ("trunc_N", 1), ("deg_d", 0)):
        if (value := getattr(args, dest, None)) is not None and value < low:
            raise UsageError(f"bounds must be non-negative (--trunc-N at least 1): "
                             f"--{dest.replace('_', '-')} got {value}")


def _emit(args, text):
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as e:
            raise UsageError(f"cannot write {args.out}: {e}")
    else:
        sys.stdout.write(text)


def _report(args, payload, lines, rows=None):
    """Write one report in args.format.

    payload, lines and rows are thunks for the JSON document, the text lines and the CSV
    rows (header first); only the requested one runs, with CPython's int-to-str digit cap
    lifted: an exact result may outgrow any input, which parsing keeps under the cap.
    """
    cap = getattr(sys, "get_int_max_str_digits", lambda: 0)()     # 0: no cap
    if cap:
        sys.set_int_max_str_digits(0)
    try:
        if args.format == "json":
            text = _json(payload()) + "\n"
        elif args.format == "csv":
            buf = io.StringIO()
            csv.writer(buf).writerows(rows())
            text = buf.getvalue()
        else:
            text = "\n".join(lines()) + "\n"
        _emit(args, text)
    finally:
        if cap:
            sys.set_int_max_str_digits(cap)


def _json(obj, indent="\n"):
    """json.dumps(obj, indent=2) for str-keyed dicts, lists, str, int, bool and
    None, without the Python encoder that json.dumps runs when indenting."""
    t = type(obj)
    if t is str:
        return encode_basestring_ascii(obj)
    if t is int:
        return repr(obj)
    if t is bool or obj is None:
        return "null" if obj is None else "true" if obj else "false"
    if t is not dict and t is not list:
        raise TypeError(f"Object of type {t.__name__} is not JSON serializable")
    if not obj:
        return "{}" if t is dict else "[]"
    inner = indent + "  "
    if t is dict:
        items = [encode_basestring_ascii(k) + ": " + _json(v, inner) for k, v in obj.items()]
    else:
        try:                            # strings with nothing to escape go in as they are
            text = "".join(obj)
            plain = text.isascii() and text.isprintable() and '"' not in text and "\\" not in text
            items = ['"' + ('",' + inner + '"').join(obj) + '"'] if plain else map(
                encode_basestring_ascii, obj)
        except TypeError:               # not all strings
            items = [_json(v, inner) for v in obj]
    left, right = "{}" if t is dict else "[]"
    return left + inner + ("," + inner).join(items) + indent + right


def _read_document(path, cls, what):
    """Read a JSON document of cls; unreadable, malformed or repeated-key input exits 2."""
    def unique_keys(pairs):
        obj = {}
        for k, v in pairs:
            if k in obj:
                raise UsageError(f"repeated key {k!r} in an object of {path}")
            obj[k] = v
        return obj

    try:
        with open(path) as fh:
            data = json.load(fh, object_pairs_hook=unique_keys)
    except (OSError, UnicodeDecodeError) as e:
        raise UsageError(f"cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        raise UsageError(
            f"parse error in {path} at line {e.lineno}, column {e.colno}: {e.msg}")
    except (RecursionError, ValueError) as e:     # nested too deep, or too many digits
        raise UsageError(f"cannot parse {path}: {e}")
    try:
        return cls.from_json(data)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as e:
        raise UsageError(f"not a {what} document: {e}")


# ---------------------------------------------------------------------------
# subcommands: each runs its own checks and computation, then one _report
# ---------------------------------------------------------------------------

def cmd_coeffs(args):
    p, n_max = args.p, args.n_max
    rows = list(FrobCoeffTable(p, n_max).rows())
    _report(args,
            lambda: {"p": p, "n_max": n_max, "rows": [
                {"n": r["n"], "i": r["i"], "a": r["a"].to_json(), "b": r["b"].to_json(),
                 "a_str": str(r["a"]), "b_str": str(r["b"]),
                 "unit_at_top": r["unit_at_top"]} for r in rows]},
            lambda: [f"coefficients for p = {p}, n <= {n_max}"] + [
                f"n={r['n']:2d} i={r['i']:3d}  a = {r['a']}  |  b = {r['b']}"
                + ("" if r["unit_at_top"] is None else f"  unit={r['unit_at_top']}")
                for r in rows],
            lambda: [["p", "n", "i", "a", "b", "unit_at_top"]] + [
                [p, r["n"], r["i"], str(r["a"]), str(r["b"]),
                 "" if r["unit_at_top"] is None else r["unit_at_top"]] for r in rows])
    return 0


def cmd_verify(args):
    config = {name: getattr(args, name)
              for name in ("p", "m", "n_max", "trunc_N", "deg_d", "seed")}
    checks = run_suite(args.suite, VerifyConfig(**config))
    report = {"config": {"suite": args.suite, **config}, "checks": checks,
              **{key: sum(c["status"] == status for c in checks) for key, status in
                 (("passed", "pass"), ("skipped", "skip"), ("failed", "fail"))}}
    _report(args,
            lambda: report,
            lambda: [line for c in checks
                     for line in (f"[{c['status']:4}] {c['id']}", f"        {c['detail']}")]
            + [f"{report['passed']} passed, {report['skipped']} skipped, "
               f"{report['failed']} failed"],
            lambda: [["id", "ref", "status", "detail"]]
            + [[c["id"], c["ref"], c["status"], c["detail"]] for c in checks])
    return 1 if report["failed"] else 0


def cmd_taylor(args):
    f = _read_document(args.input, CoordPoly, "coordinate-polynomial")
    if f.side != SIDE_A:
        raise UsageError(f'taylor expands a polynomial over A: set "side" to '
                         f'"{SIDE_A}" in the document (it is "{f.side}")')
    check_localized(f, args.p)
    expansion = taylor(f, args.n_max, args.p, args.m)
    _report(args, expansion.to_json, lambda: [repr(expansion)])
    return 0


def cmd_frobenius(args):
    e = _read_document(args.input, DPElem, "divided-power")
    ctx = e.ctx
    if ctx.p != args.p:
        raise UsageError(f"document prime {ctx.p} != --p {args.p}")
    if ctx != level_minus_one_ctx(ctx.p, SIDE_APRIME, ctx.cap):
        raise UsageError("input must be a level -1 element over the pullback side")
    for n, c in sorted(e.terms.items()):
        check_localized(c, ctx.p, f"term {n}, ")
    top = max(e.terms, default=0)
    if ctx.p * top > ctx.cap:
        raise UsageError(
            f"term {top} maps to divided-power indices up to {ctx.p * top}, above "
            f'the document\'s cap {ctx.cap}: raise "cap" in its "ctx" to at least '
            f"{ctx.p * top}")
    img = divided_frobenius(e)
    _report(args, img.to_json, lambda: [repr(img)])
    return 0


def cmd_envelope_check(args):
    r_max = args.r_max if args.r_max is not None else default_r_max(args.p)
    rep = envelope_basis_check(r_max, args.p)
    _report(args,
            lambda: rep,
            lambda: [f"envelope basis congruences for p = {args.p}, r <= {r_max}"] + [
                f"r={row['r']}: congruent={row['congruent']} c={row['c']} unit={row['c_unit']}"
                + (f" valuations=({row['phi_valuation']},{row['power_valuation']})"
                   f" ok={row['valuations_ok']}" if "phi_valuation" in row else "")
                for row in rep["rows"]] + ["ok" if rep["ok"] else "FAILED"])
    return 0 if rep["ok"] else 1


def cmd_u_check(args):
    if args.n_max == 0:
        raise UsageError("--n-max must be at least 1: index 0 checks nothing")
    try:
        rep = u_consistency_check(args.p, args.n_max)
    except MembershipError as e:
        _emit(args, f"FAILED: {e}\n")
        return 1
    _report(args,
            lambda: rep,
            lambda: [f"diagonal-map checks for p = {args.p}",
                     *(f"[{'pass' if c['ok'] else 'fail'}] {c['id']}: {c['detail']}"
                       for c in rep["checks"]),
                     "ok" if rep["ok"] else "FAILED"])
    return 0 if rep["ok"] else 1


@lru_cache(maxsize=None)
def build_parser():
    """The command-line parser, built once per process on first use."""
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
    args = build_parser().parse_args(argv)
    try:
        _validate(args)
        return args.fn(args)
    except (UsageError, LocalizationError) as e:     # bad input: a usage error
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        import traceback   # here, not at the top: it would add to every start-up
        traceback.print_exc()
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
