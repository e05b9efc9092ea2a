"""Outside-in tracing of planarops.

`Tracer.install` wraps the functions in `TRACED` in every planarops module
namespace that binds them, so calls made through any module's globals are
seen, and the package itself is not edited.  Each wrapper counts calls and
adds up total time and self time (total time minus the time of wrapped calls
made inside it).  `cache_counters` reads `cache_info()` from every
`functools.lru_cache` in the package.

Deliberately not wrapped: `diagrams.leaf_count`, `diagrams.edges` and
`FormalSum.add_term`.  They run 700k to over a million times per workload,
and a wrapper on each call would distort the trace more than it informs.
"""

from __future__ import annotations

import functools
import sys
import time

TRACED = {
    "diagrams": ("parse", "fmt", "enumerate_class", "expansions", "graft",
                 "cut", "contract"),
    "operad_c": ("boundary_c", "compose_c", "decompose_corollas"),
    "operad_q": ("boundary_q", "compose_q", "decompose_nonmetric"),
    "transfer": ("q_map", "p_map"),
    "tamari": ("leq", "covers", "dmin", "dmax"),
    "orientations": ("omega_std", "omega_sd"),
    "diagonal": ("delta_q", "delta_c"),
    "homology": ("homology_report", "sparse_rank"),
    "endo": ("eval_generator", "compose_at", "precompose_differential",
             "pair_evaluate", "tensor_structure"),
    "cli": ("main",),
}

# Every lru_cache of the package when the benchmark was defined.  A cache
# that later disappears is reported with zero hits and misses, and its name
# goes to the run record's "missing" list.
CACHES = (
    "diagrams.canonical_addresses", "diagrams.canonical_colors",
    "diagrams.edge_locs", "diagrams.contract", "diagrams.expansions_tagged",
    "diagrams.expansions", "diagrams.enumerate_class",
    "orientations.xi", "orientations.omega_std",
    "tamari.covers", "tamari.cocovers", "tamari.classify_edges",
    "tamari._descendants",
    "transfer._q_corolla", "transfer._p_fullmetric",
    "diagonal.support_formula",
    "verify._catalan", "verify._binary_module_count",
)


def package_modules():
    return {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
            if name.startswith("planarops.") and mod is not None}


def find_caches(modules):
    """{"module.function": lru wrapper} for every lru_cache in the package,
    read before any wrapper hides it."""
    out = {}
    for mod in modules.values():
        for obj in vars(mod).values():
            if hasattr(obj, "cache_info") and \
                    getattr(obj, "__module__", "").startswith("planarops."):
                out["%s.%s" % (obj.__module__.rsplit(".", 1)[-1],
                               obj.__name__)] = obj
    return out


def cache_counters(caches):
    """Hits, misses and hit ratio of every cache in `CACHES` and any new
    one found; a ratio over zero lookups reads 0."""
    out = {}
    for name in sorted(set(CACHES) | set(caches)):
        info = caches[name].cache_info() if name in caches else None
        hits, misses = (info.hits, info.misses) if info else (0, 0)
        out[name] = {"hits": hits, "misses": misses,
                     "hit_ratio": hits / (hits + misses) if hits + misses
                     else 0.0}
    return out


class Tracer:
    """Per-function call counts, total and self time of the traced set."""

    def __init__(self):
        self.stats = {}
        self.missing = []
        self._open = []       # time spent in wrapped callees, per open call

    def _wrap(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        open_calls = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_calls.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = open_calls.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - inner
                if open_calls:
                    open_calls[-1] += dt
        return traced

    def install(self, modules):
        """Rebind every traced function, wherever a planarops module binds
        it, to one shared wrapper."""
        for mod_name, fn_names in TRACED.items():
            home = modules.get(mod_name)
            for fn_name in fn_names:
                name = "%s.%s" % (mod_name, fn_name)
                fn = getattr(home, fn_name, None)
                if fn is None:
                    self.missing.append(name)
                    self.stats[name] = [0, 0.0, 0.0]
                    continue
                wrapper = self._wrap(name, fn)
                for mod in modules.values():
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, wrapper)

    def report(self):
        return {name: {"calls": c, "total_s": total, "self_s": own}
                for name, (c, total, own) in sorted(self.stats.items())}
