"""Checks on the benchmark itself: determinism of the trace, the query
stream, the generator's agreement with planarops, and BENCHMARK.json."""

import collections
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import querygen  # noqa: E402
import run  # noqa: E402


def traced_short_run(workload, seed):
    """One traced iteration of the shortened workload in a fresh child."""
    out = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), str(ROOT / "src"),
         workload, str(seed), "short", "0", "1"],
        cwd=ROOT, env=dict(os.environ, PYTHONHASHSEED="0"),
        capture_output=True, text=True, timeout=120, check=True)
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    one, two = traced_short_run(workload, 7), traced_short_run(workload, 7)
    assert one["failures"] == [] and two["failures"] == []
    assert one["attempted"] >= 1
    calls = {n: s["calls"] for n, s in one["functions"].items()}
    assert calls == {n: s["calls"] for n, s in two["functions"].items()}
    assert sum(calls.values()) > 0
    assert one["caches"] == two["caches"]


def test_seeds_change_the_queries_but_not_the_mix():
    n = 3 * querygen.BLOCK
    a, b = querygen.stream(1, n), querygen.stream(2, n)
    assert [argv for _c, argv in a] != [argv for _c, argv in b]
    mix = collections.Counter(c for c, _a in a)
    assert mix == collections.Counter(c for c, _a in b)
    assert mix == dict.fromkeys(querygen.COMMANDS, 3)
    assert querygen.stream(1, n) == a


def test_generated_diagrams_agree_with_planarops():
    from planarops.diagrams import THICK, canonical_colors, edges, fmt, \
        parse, parse_edge
    rng = random.Random(5)
    for _ in range(300):
        kind = rng.choice(querygen.KINDS)
        d = querygen.random_diagram(rng, kind, rng.randint(2, 9))
        text = querygen.fmt(d)
        parsed = parse(text)
        n = len(querygen.boundary_walk(d))
        assert fmt(parsed) == text
        assert {parse_edge(e, n) for e in querygen.edge_texts(d)} == \
            set(edges(parsed))
        assert querygen.leaf_colors(d) == [
            "thick" if c == THICK else "thin"
            for c in canonical_colors(parsed)]


def test_benchmark_json_matches_what_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        run.per_layer_names()
