"""Exact q-twisted divided-power calculus of negative level.

Subpackages build on each other in this order: ``qarith`` (exact base-ring
arithmetic), ``coordring`` (the coordinate rings and their Frobenius
structure), ``divpow`` (twisted divided-power algebras), ``frobdiv`` (the
divided Frobenius and its coefficient tables), ``diffcalc`` (twisted
differential operators), ``connect`` (twisted connections and level
raising), and ``cli`` (the verification command line).
"""

__version__ = "0.1.0"


def clear_caches():
    """Clear every ``lru_cache`` of the package; returns {qualified name: entries before}."""
    import importlib
    import pkgutil
    tables = {f"{fn.__module__}.{fn.__qualname__}": fn for m in pkgutil.iter_modules(__path__)
              for fn in vars(importlib.import_module(f"{__name__}.{m.name}")).values()
              if hasattr(fn, "cache_clear") and fn.__module__.startswith(f"{__name__}.")}
    sizes = {name: fn.cache_info().currsize for name, fn in tables.items()}
    for fn in tables.values():
        fn.cache_clear()
    return sizes
