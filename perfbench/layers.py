"""Which qtwist functions the traced run wraps, and the per-layer metrics.

Everything here works from outside the package: it wraps public
functions and methods of ``qarith``, ``coordring``, ``divpow``,
``frobdiv``, ``diffcalc``, ``connect`` and ``cli``, reads memo-table
sizes through ``cache_info()``, and derives the size statistics from the
arguments of each call.  The ``verify`` layer is traced by the workload
itself, one root span per check.
"""

from __future__ import annotations

import importlib

LAYERS = ("qarith", "coordring", "divpow", "frobdiv", "diffcalc", "connect",
          "verify", "cli")

LARGE_TERMS = 32        # a q-polynomial product is "large" from this many terms


def load_modules():
    """Import every qtwist layer; returns {layer: module}."""
    return {name: importlib.import_module(f"qtwist.{name}") for name in LAYERS}


def memo_tables(mod):
    """The lru_cache tables defined in a module, by name."""
    return {name: obj for name, obj in vars(mod).items()
            if hasattr(obj, "cache_info") and hasattr(obj, "cache_clear")
            and getattr(obj, "__module__", None) == mod.__name__}


def all_memo_tables(mods):
    """Every memo table of the package; taken before any wrapper hides one."""
    return [table for mod in mods.values() for table in memo_tables(mod).values()]


class Instrument:
    """Installs the qarith/coordring/... wrappers on a Tracer and reads them back."""

    def __init__(self, tracer, mods):
        self.tracer = tracer
        self.mods = mods
        self.stats = {"poly_mul.large": 0, "scalar.integral": 0, "coordring.term_pairs": 0}
        self.tables = {layer: memo_tables(mods[layer]) for layer in ("qarith", "frobdiv")}

    def install(self):
        t, m, stats = self.tracer, self.mods, self.stats
        qa, cr, dp, fd, dc, cn = (m["qarith"], m["coordring"], m["divpow"],
                                  m["frobdiv"], m["diffcalc"], m["connect"])
        everywhere = list(m.values())

        def poly_mul_stat(args):
            a, b = args
            if type(b) is qa.QPoly and min(len(a.coeffs), len(b.coeffs)) >= LARGE_TERMS:
                stats["poly_mul.large"] += 1

        def scalar_stat(args):
            a, b = args
            d = getattr(b, "den", None)
            if a.den.coeffs == (1,) and (d is None or d.coeffs == (1,)):
                stats["scalar.integral"] += 1

        def coord_mul_stat(args):
            a, b = args
            stats["coordring.term_pairs"] += len(a.coeffs) * (
                len(b.coeffs) if isinstance(b, cr.CoordPoly) else 1)

        def op(name, stat=None):
            return lambda fn: t.op(name, fn, stat)

        def span(name):
            return lambda fn: t.span(name, fn)

        # fine-grained operators: one count and self time per enclosing span
        t.patch_method(qa.QPoly, ("__mul__", "__rmul__"), op("qarith.poly_mul", poly_mul_stat))
        t.patch_method(qa.QPoly, ("divexact",), op("qarith.poly_divexact"))
        t.patch_method(qa.LocScalar, ("__add__", "__radd__"), op("qarith.scalar_add", scalar_stat))
        t.patch_method(qa.LocScalar, ("__mul__", "__rmul__"), op("qarith.scalar_mul", scalar_stat))
        t.patch_method(cr.CoordPoly, ("__mul__", "__rmul__"), op("coordring.mul", coord_mul_stat))
        t.patch_method(cr.CoordPoly, ("__add__", "__radd__"), op("coordring.add"))
        t.patch_method(cr.CoordPoly, ("to_json",), op("coordring.to_json"))
        t.patch_method(cr.CoordPoly, ("from_json",), op("coordring.from_json"))
        t.patch_method(cr.BiCoordPoly, ("__mul__", "__rmul__"), op("coordring.bi_mul"))
        t.patch_method(dp.XiPoly, ("__mul__", "__rmul__"), op("divpow.xi_mul"))
        for fn, name in ((cr.q_derivative, "coordring.q_derivative"),
                         (cr.sigma_power, "coordring.sigma_power"),
                         (fd.coeff_b, "frobdiv.coeff_b")):
            t.patch_function(fn, t.op(name, fn), everywhere)

        # layer entry points: one span per call
        t.patch_method(dp.DPElem, ("to_json",), span("divpow.to_json"))
        t.patch_method(dp.DPElem, ("from_json",), span("divpow.from_json"))
        for fn, name in ((dp.dp_mul, "divpow.dp_mul"),
                         (dp.twisted_power_expand, "divpow.twisted_power_expand"),
                         (fd.divided_frobenius, "frobdiv.divided_frobenius"),
                         (fd.phi_dp, "frobdiv.phi_dp"),
                         (fd.delta_dp, "frobdiv.delta_dp"),
                         (fd.envelope_basis_check, "frobdiv.envelope_basis_check"),
                         (fd.u_consistency_check, "frobdiv.u_consistency_check"),
                         (dc.op_compose, "diffcalc.op_compose"),
                         (dc.op_apply, "diffcalc.op_apply"),
                         (dc.taylor, "diffcalc.taylor"),
                         (cn.theta_apply, "connect.theta_apply"),
                         (cn.commute_check, "connect.commute_check"),
                         (cn.h0_truncated, "connect.h0_truncated"),
                         (m["cli"].main, "cli.main")):
            t.patch_function(fn, t.span(name, fn), everywhere)

    def memo_entries(self, layer):
        return sum(table.cache_info().currsize for table in self.tables[layer].values())

    def coeff_b_hit_ratio(self):
        info = self.tables["frobdiv"]["coeff_b"].cache_info()
        looked_up = info.hits + info.misses
        return info.hits / looked_up if looked_up else 0.0

    def counters(self):
        """Memo sizes and argument-derived counts, read before the tables are cleared."""
        return dict(self.stats,
                    **{"qarith.memo_entries": self.memo_entries("qarith"),
                       "frobdiv.memo_entries": self.memo_entries("frobdiv"),
                       "frobdiv.coeff_b.hit_ratio": self.coeff_b_hit_ratio()})


def _share(part, whole):
    return part / whole if whole else 0.0


def per_layer_metrics(totals, counters, check_ids, check_seconds):
    """The per-layer metric values, by BENCHMARK.json name.

    totals: Tracer.totals(); counters: Instrument.counters();
    check_seconds: traced duration of each verify check that ran.
    """
    def calls(name):
        return totals.get(name, (0, 0.0))[0]

    def self_s(name):
        return totals.get(name, (0, 0.0))[1]

    out = {}

    def both(name):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = self_s(name)

    def self_only(name):
        out[f"{name}.self_s"] = self_s(name)

    both("qarith.poly_mul")
    out["qarith.poly_mul.large_share"] = (
        _share(counters["poly_mul.large"], calls("qarith.poly_mul")))
    both("qarith.poly_divexact")
    both("qarith.scalar_add")
    both("qarith.scalar_mul")
    out["qarith.scalar.integral_share"] = (
        _share(counters["scalar.integral"],
               calls("qarith.scalar_add") + calls("qarith.scalar_mul")))
    out["qarith.memo_entries"] = counters["qarith.memo_entries"]

    both("coordring.mul")
    out["coordring.mul.term_pairs"] = counters["coordring.term_pairs"]
    both("coordring.add")
    for name in ("q_derivative", "sigma_power", "bi_mul", "to_json", "from_json"):
        self_only(f"coordring.{name}")

    both("divpow.dp_mul")
    for name in ("xi_mul", "twisted_power_expand", "to_json", "from_json"):
        self_only(f"divpow.{name}")

    both("frobdiv.coeff_b")
    out["frobdiv.coeff_b.hit_ratio"] = counters["frobdiv.coeff_b.hit_ratio"]
    both("frobdiv.divided_frobenius")
    self_only("frobdiv.phi_dp")
    self_only("frobdiv.delta_dp")
    out["frobdiv.memo_entries"] = counters["frobdiv.memo_entries"]

    both("diffcalc.op_compose")
    self_only("diffcalc.op_apply")
    self_only("diffcalc.taylor")

    both("connect.theta_apply")
    self_only("connect.commute_check")
    self_only("connect.h0_truncated")

    for cid in check_ids:
        out[f"verify.{cid}.s"] = check_seconds.get(cid, 0.0)

    both("cli.main")
    return out
