"""One fresh interpreter: set up, run one workload iteration, report.

    python3 perfbench/child.py SRC WORKLOAD SEED SCALE PART TRACE

SRC is the `src` directory that holds planarops.  The child prints `ready`
as soon as planarops is imported and the fixtures are loaded (the parent
times spawn-to-ready as set-up); only then does it import the benchmark's
own modules.  It then prints one JSON line with the iteration's result.
WORKLOAD `setup` stops after `ready`.  TRACE 1 wraps the traced functions
before the timed region.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import resource
import sys
import time
import traceback
from pathlib import Path

FIXTURES = ("frobenius.json", "two_term.json", "mu3.json")


def setup(src):
    """Import every planarops module and load the shipped fixtures: the work
    a `planarops` invocation does before its first answer."""
    import planarops
    if Path(planarops.__file__).resolve().parent != src / "planarops":
        raise ImportError("planarops was not imported from %s" % src)
    for info in pkgutil.iter_modules(planarops.__path__):
        importlib.import_module("planarops." + info.name)
    from planarops.endo import load_structures
    return [load_structures(src / "planarops" / "fixtures" / name)
            for name in FIXTURES]


def main(argv):
    src, workload, seed, scale, part, trace = argv
    src = Path(src).resolve()
    sys.path.insert(0, str(src))
    setup(src)
    print("ready", flush=True)
    if workload == "setup":
        return 0

    sys.path.insert(1, str(Path(__file__).resolve().parent))
    import workloads
    import layertrace as tracing
    modules = tracing.package_modules()
    caches = tracing.find_caches(modules)
    tracer = None
    if trace == "1":
        tracer = tracing.Tracer()
        tracer.install(modules)
    job = workloads.WORKLOADS[workload](int(seed), scale, int(part))
    t0, c0 = time.perf_counter(), time.process_time()
    job.run()
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    # read every counter before the checks, which call planarops again
    out = {
        "part": int(part),
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "caches": tracing.cache_counters(caches),
        "missing": sorted(set(tracing.CACHES) - set(caches)),
    }
    if tracer:
        out["functions"] = tracer.report()
        out["missing"] += tracer.missing
    try:
        job.check()
    except Exception:
        job.fail("check", traceback.format_exc())
    out.update(attempted=job.attempted, failures=job.failures,
               latencies_ms=job.latencies_ms)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
