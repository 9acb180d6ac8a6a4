"""Package-level helpers."""

import importlib

import qtwist
from qtwist import cli, divpow, frobdiv, qarith

MODULES = ("qarith", "coordring", "divpow", "frobdiv", "diffcalc", "connect", "verify", "cli")


def _memo_tables():
    """Every lru_cache table of the package, found by its cache_info/cache_clear."""
    out = {}
    for name in MODULES:
        mod = importlib.import_module(f"qtwist.{name}")
        for attr, obj in vars(mod).items():
            if (hasattr(obj, "cache_info") and hasattr(obj, "cache_clear")
                    and getattr(obj, "__module__", None) == mod.__name__):
                out[f"{mod.__name__}.{attr}"] = obj
    return out


def test_clear_caches_lists_and_empties_every_memo_table():
    tables = _memo_tables()
    assert {"qtwist.qarith.q_int", "qtwist.frobdiv.coeff_b",
            "qtwist.divpow._struct_consts_closed", "qtwist.cli.build_parser"} <= set(tables)
    assert len(tables) == 14           # a q-analog in q^k is a stretch, never a table of its own
    qarith.q_binomial(6, 3)
    frobdiv.coeff_b(3, 4, 2)
    divpow.dp_mul(divpow.DPElem.basis(divpow.DPContext(2), 1),
                  divpow.DPElem.basis(divpow.DPContext(2), 1))
    cli.build_parser()
    before = {name: table.cache_info().currsize for name, table in tables.items()}
    assert before["qtwist.qarith.q_binomial"] > 0 and before["qtwist.cli.build_parser"] == 1
    assert qtwist.clear_caches() == before
    assert all(table.cache_info().currsize == 0 for table in tables.values())
    assert set(qtwist.clear_caches().values()) == {0}
