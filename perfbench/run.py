"""Run one workload of the planarops benchmark and print its metrics.

    python3 perfbench/run.py --workload chain_maps --seed 1 --seconds 30 --trace 0

Run it from the root of a planarops checkout: the package is imported from
`src/` there.  Every iteration runs in a fresh interpreter, one at a time,
because planarops keeps unbounded lru caches that a second iteration in the
same process would mostly hit.  `--trace 0` prints the end-to-end metrics;
`--trace 1` alternates plain and traced iterations and prints the
per-layer metrics.  End-to-end times are medians over repetitions, scaled
to a nominal host's speed by a fixed reference loop timed between
iterations.  The last line of standard output is one JSON object;
the full record of the run goes to `.perfbench/` in the checkout.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import selectors
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layertrace  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = tuple(workloads.WORKLOADS)
REFERENCE_S = 0.030       # median `reference_work` of the nominal host
REFERENCE_SHARE = 0.06    # of each step's time, spent timing the host
SETUP_SAMPLES = 5         # set-up-only interpreters per run, besides the
                          # set-up of every iteration
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("query_p50_ms", "ms"), ("query_p99_ms", "ms"))


def per_layer_names():
    """(name, unit) of every per-layer metric, in a fixed order."""
    out = []
    for mod, fns in layertrace.TRACED.items():
        for fn in fns:
            out += [("%s.%s.calls" % (mod, fn), "count"),
                    ("%s.%s.self_s" % (mod, fn), "s")]
    for cache in layertrace.CACHES:
        out += [("%s.hit_ratio" % cache, "ratio"),
                ("%s.hits" % cache, "count"), ("%s.misses" % cache, "count")]
    return out + [("trace.overhead_frac", "ratio")]


class Child:
    """One interpreter: spawn-to-ready time and its JSON report."""

    def __init__(self, root, workload, seed, part, trace, stop_at):
        cmd = [sys.executable, str(HERE / "child.py"), str(root / "src"),
               workload, str(seed), "full", str(part), str(trace)]
        # a fixed hash seed makes set iteration, and so every call count,
        # repeat from one interpreter to the next
        env = dict(os.environ, PYTHONHASHSEED="0")
        self.report, self.error, self.setup_s = None, None, None
        t0 = time.perf_counter()
        # unbuffered, so reading the `ready` line cannot swallow the report
        # that communicate() reads from the same pipe afterwards
        proc = subprocess.Popen(cmd, cwd=root, env=env, bufsize=0,
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
        try:
            with selectors.DefaultSelector() as sel:
                sel.register(proc.stdout, selectors.EVENT_READ)
                if sel.select(max(stop_at - time.perf_counter(), 1)) and \
                        proc.stdout.readline() == b"ready\n":
                    self.setup_s = time.perf_counter() - t0
            out, err = proc.communicate(
                timeout=max(stop_at - time.perf_counter(), 1))
        except subprocess.TimeoutExpired:
            proc.kill()
            _out, err = proc.communicate()
            self.error = "killed at the run's time limit\n" + _tail(err)
            return
        finally:
            if proc.poll() is None:     # interrupted: leave no child behind
                proc.kill()
                proc.wait()
        if self.setup_s is None or proc.returncode != 0:
            self.error = "exit code %s\n%s" % (proc.returncode, _tail(err))
            return
        if workload != "setup":
            try:
                self.report = json.loads(out.decode().splitlines()[-1])
            except (IndexError, ValueError):
                self.error = "no report\n" + _tail(err)


def _tail(err):
    return err.decode(errors="replace")[-4000:]


def reference_work():
    """Fixed work in the standard library alone, of the kinds planarops
    does: small nested tuples hashed into a dict, exact fractions, a sort,
    and products and quotients of big integers."""
    counts, total, trees = {}, Fraction(0), []
    for i in range(6000):
        t = ((i % 7, i * 3 % 11), (i % 5, (i * 13 % 17, i % 3)))
        trees.append(t)
        counts[t] = counts.get(t, 0) + 1
        if i % 8 == 0:
            total += Fraction(i % 13, i % 7 + 1)
    trees.sort()
    a, b, x = 3 ** 4000, 7 ** 3000, 0
    for i in range(100):
        x = (a * b + x) // (b + i + 1)
    return len(counts), total, x


def reference_s():
    """Seconds `reference_work` takes now, in this process, which planarops
    never enters: how fast the host runs Python at this moment."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_work()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def percentile(values, q):
    """Nearest-rank percentile: the smallest value with at least q% of the
    values at or below it."""
    s = sorted(values)
    return s[max(math.ceil(q / 100 * len(s)), 1) - 1]


def sample_reference(at_least_s):
    """Timings of `reference_work`: at least 3 of them, and at least
    `at_least_s` seconds of them."""
    out = []
    while len(out) < 3 or sum(out) < at_least_s:
        out.append(reference_s())
    return out


def run(root, workload, seed, seconds, trace):
    # no child may outlive the run's length twice over plus a minute: a
    # child that does is killed and counted as failed
    stop_at = time.perf_counter() + 2 * seconds + 60
    parts = workloads.PARTS[workload]

    def child(name, part=0, traced=0):
        return Child(root, name, seed, part, traced, stop_at)

    context = {"python": sys.version, "platform": platform.platform(),
               "nproc": os.cpu_count(),
               "cpus_usable": len(os.sched_getaffinity(0)),
               "loadavg_before": os.getloadavg(), "workload": workload,
               "seed": seed, "seconds": seconds, "trace": trace,
               "hash_seed": "0"}
    warm = child("setup")      # compiles bytecode; users do not pay that
    begin = time.perf_counter()
    # A step is one child: SETUP_SAMPLES set-up-only children, then
    # iterations while one more (of mean length so far) fits the time,
    # cycling through the workload's parts.  A traced run alternates plain
    # and traced iterations of the first part.  Before the first step and
    # after every step the host is timed on the reference loop, for a share
    # of the time that step took, so that every stretch of the run is
    # weighed alike.
    steps, reference, first = [], sample_reference(0), None
    while True:
        t0 = time.perf_counter()
        if len(steps) < SETUP_SAMPLES:
            steps.append(child("setup"))
        else:
            first = first or t0
            index = len(steps) - SETUP_SAMPLES
            steps.append(child(workload, 0 if trace else index % parts,
                               index % 2 if trace else 0))
        took = time.perf_counter() - t0
        reference += sample_reference(REFERENCE_SHARE * took)
        now = time.perf_counter()
        if first is not None:
            done = len(steps) - SETUP_SAMPLES
            if now - begin + (now - first) / done > seconds and \
                    not (trace and done % 2):
                break
    context["loadavg_after"] = os.getloadavg()
    context["measured_s"] = time.perf_counter() - begin
    iterations = steps[SETUP_SAMPLES:]

    reports = [c.report for c in iterations if c.report]
    failures = [f for r in reports for f in r["failures"]]
    failures += [{"what": "child", "traceback": c.error}
                 for c in [warm] + steps if c.error]
    attempted = sum(r["attempted"] for r in reports) + \
        sum(1 for c in [warm] + steps if c.error)
    # seconds of the nominal host per second of this run; one scale per
    # run, because one iteration and the reference timings next to it
    # move together too little for a scale per iteration (README.md)
    scale = REFERENCE_S / statistics.median(reference)
    record = {"context": context, "failures": failures,
              "setup_s": [c.setup_s for c in steps], "iterations": reports,
              "reference_s": reference, "scale": scale}
    metrics = {}
    if trace and all(c.report for c in iterations):
        # each later traced iteration is one more determinism check
        traced = reports[1::2]
        attempted += len(traced) - 1
        failures += [{"what": "trace", "traceback": "call counts or cache "
                      "counters differ between traced iterations of one run"}
                     for r in traced[1:] if not same_counts(traced[0], r)]
        metrics = per_layer(reports[0::2], traced)
    elif reports and not trace:
        setup = [s for s in record["setup_s"] if s is not None]
        values = end_to_end(reports, setup, scale)
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}
    record["metrics"] = metrics
    return record, attempted, failures


def end_to_end(reports, setup, scale):
    """End-to-end metrics of one run from its iteration reports, its
    set-up times and its scale.  Each time is a median over the repetitions
    of one part or one request, in seconds of the nominal host."""
    by_part = {}
    for r in reports:
        by_part.setdefault(r["part"], []).append(r)
    # a request is one position in one part
    lat = [statistics.median(times) * scale for reps in by_part.values()
           for times in zip(*(r["latencies_ms"] for r in reps))]
    return {
        "wall_s": scale * statistics.mean(
            statistics.median(r["wall_s"] for r in reps)
            for reps in by_part.values()),
        "setup_s": scale * statistics.median(setup),
        "peak_rss_mb": statistics.mean(
            statistics.median(r["peak_rss_mb"] for r in reps)
            for reps in by_part.values()),
        "query_p50_ms": percentile(lat, 50),
        "query_p99_ms": percentile(lat, 99),
    }


def same_counts(a, b):
    return a["caches"] == b["caches"] and \
        all(a["functions"][n]["calls"] == b["functions"][n]["calls"]
            for n in a["functions"])


def per_layer(plain, traced):
    """Counts of the first traced iteration, median self times, and the
    ratio of median traced to median plain wall time, minus 1."""
    def median(reports, key):
        return statistics.median(key(r) for r in reports)

    values = {"trace.overhead_frac": median(traced, lambda r: r["wall_s"])
              / median(plain, lambda r: r["wall_s"]) - 1}
    for name, st in traced[0]["functions"].items():
        values[name + ".calls"] = st["calls"]
        values[name + ".self_s"] = median(
            traced, lambda r: r["functions"][name]["self_s"])
    for name, c in traced[0]["caches"].items():
        for key in ("hit_ratio", "hits", "misses"):
            values["%s.%s" % (name, key)] = c[key]
    return {n: {"value": values[n], "unit": u} for n, u in per_layer_names()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # turn SIGTERM into SystemExit, so the running child is killed too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()
    if not (root / "src" / "planarops" / "__init__.py").is_file():
        print("error: run from the root of a planarops checkout "
              "(no src/planarops here)", file=sys.stderr)
        return 2
    record, attempted, failures = run(root, args.workload, args.seed,
                                      args.seconds, args.trace)
    out_dir = root / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / ("%s-seed%d-trace%d-%d.json" % (
        args.workload, args.seed, args.trace, time.time_ns()))
    path.write_text(json.dumps(record, indent=1))
    if not record["metrics"]:
        print("error: no iteration reported; failures are in %s" % path,
              file=sys.stderr)
        for f in failures:
            print(f["traceback"], file=sys.stderr)
        return 1
    ctx = record["context"]
    print("# %s seed %d, python %s, nproc %d, load %.2f -> %.2f, record %s"
          % (args.workload, args.seed, platform.python_version(),
             ctx["nproc"], ctx["loadavg_before"][0],
             ctx["loadavg_after"][0], path.relative_to(root)))
    for f in failures:
        print("# FAILED %s\n%s" % (f["what"], f["traceback"]))
    for name, m in record["metrics"].items():
        print("%-48s %14.6f %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures),
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
