"""The four workloads, as run inside one fresh interpreter.

Each workload is a function `(seed, scale, part)` that returns a `Job`:
`job.run()` is the timed region, `job.check()` then judges its outputs with
planarops outside the timed region.  `scale` is "full" for the benchmark
and "short" for the determinism test; `part` numbers the query batch.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
import traceback

import querygen

# (check_chain_maps cap, homology classes, check_endomorphisms cap, queries
# per batch) for each scale.  One "full" iteration takes 1-4 s, so a 30 s
# run holds 6-20 of them: at cap 6 and 5, or with I4,1 and I3,2, single
# iterations take 11-21 s, and on a shared 2-core host two iterations of the
# same run were seen to differ by a third, which a run of one or two samples
# cannot absorb.
SIZES = {
    "full": {"chain_maps": 5, "homology": ((5, 0),), "tensor": 4,
             "queries": 250},
    "short": {"chain_maps": 4, "homology": ((1, 1), (2, 0)), "tensor": 3,
              "queries": querygen.BLOCK},
}
# A run cycles through this many distinct parts (query batches), so it
# measures the same inputs however fast the host is: 4 batches of 250 give
# 1,000 distinct queries, 10 of them beyond p99, and a 30 s run repeats each
# batch three to five times.  The batch workloads have fixed inputs and one
# part.
PARTS = {"chain_maps": 1, "homology": 1, "tensor": 1, "queries": 4}


class Job:
    """Outputs of one timed region and the failures found in them."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.latencies_ms = []

    def fail(self, what, detail=None):
        self.failures.append({"what": what,
                              "traceback": detail or traceback.format_exc()})


class _Verdict(Job):
    """Library calls, one per argument tuple, whose results `judge` checks
    afterwards."""

    def __init__(self, call, arg_tuples, judge):
        super().__init__()
        self.call, self.arg_tuples, self.judge = call, arg_tuples, judge
        self.results = []

    def run(self):
        for args in self.arg_tuples:
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                self.results.append((args, self.call(*args)))
            except Exception:
                self.fail(repr(args))
            self.latencies_ms.append((time.perf_counter() - t0) * 1e3)

    def check(self):
        for args, result in self.results:
            problem = self.judge(result)
            if problem:
                self.fail(repr(args), problem)


def _ok_verdict(result):
    ok, detail = result
    return None if ok else "check returned not ok: %s" % detail


def chain_maps(seed, scale, part):
    from planarops import verify
    return _Verdict(verify.check_chain_maps,
                    [(SIZES[scale]["chain_maps"],)], _ok_verdict)


def tensor(seed, scale, part):
    from planarops import verify
    return _Verdict(verify.check_endomorphisms, [(SIZES[scale]["tensor"],)],
                    _ok_verdict)


def homology(seed, scale, part):
    from planarops import homology as hom
    from planarops.diagrams import INNER, ShapeClass

    def judge(report):
        betti = (1,) + (0,) * (len(report.betti) - 1)
        if report.betti != betti or report.euler != 1:
            return "betti %s, euler %d" % (report.betti, report.euler)
        return None
    # the cubical (q) model only: there sparse_rank takes about three
    # quarters of the time, while the chain (c) model's report is mostly
    # enumeration and boundaries in the diagram kernel
    return _Verdict(hom.homology_report,
                    [(ShapeClass(INNER, jk), "q")
                     for jk in SIZES[scale]["homology"]], judge)


class _Queries(Job):
    """A closed loop with one client: each `cli.main` call is sent when the
    previous one has returned."""

    def __init__(self, queries):
        super().__init__()
        self.queries = queries
        self.outputs = []

    def run(self):
        from planarops import cli
        for command, argv in self.queries:
            self.attempted += 1
            out, err = io.StringIO(), io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    code = cli.main(argv)
            except Exception:
                code = None
                self.fail(" ".join(argv))
            self.latencies_ms.append((time.perf_counter() - t0) * 1e3)
            self.outputs.append((command, argv, code, out.getvalue(),
                                 err.getvalue()))

    def check(self):
        for command, argv, code, out, err in self.outputs:
            if code is None:
                continue
            if code != 0:
                self.fail(" ".join(argv), "exit code %s: %s" % (code, err))
                continue
            try:
                problem = QUERY_CHECKS[command](argv, json.loads(out))
            except Exception:
                self.fail(" ".join(argv))
                continue
            if problem:
                self.fail(" ".join(argv), problem)


def queries(seed, scale, part):
    size = SIZES[scale]["queries"]
    return _Queries(querygen.stream(seed, size * (part + 1))[size * part:])


WORKLOADS = {"chain_maps": chain_maps, "homology": homology,
             "tensor": tensor, "queries": queries}


# --- query checks: each returns None or a description of the failure -----

def _element(items, which):
    from planarops.cli import parse_generator
    from planarops.formal import FormalSum
    out = FormalSum()
    for item in items:
        text = "(%s ; %s ; [%s]" % (item["diagram"],
                                    " ".join(map(str, item["perm"])),
                                    ", ".join(item["orientation"]))
        if which == "q":
            text += " ; metric:[%s]" % ", ".join(item["metric"])
        for gen, coef in parse_generator(text + ")", which).terms.items():
            out.add_term(gen, coef * item["coef"])
    return out


def _check_boundary(argv, data):
    from planarops.operad_c import boundary_c
    from planarops.operad_q import boundary_q
    from planarops.cli import parse_generator
    which = argv[1]
    bnd = boundary_c if which == "c" else boundary_q
    got = _element(data, which)
    if got != bnd(parse_generator(argv[2], which)):
        return "output differs from the library's boundary"
    if bnd(got):
        return "d(d x) != 0"
    return None


def _check_compose(argv, data):
    from planarops.cli import parse_generator
    from planarops.diagrams import degree
    from planarops.operad_c import boundary_c, compose_elements
    x, y = parse_generator(argv[2], "c"), parse_generator(argv[4], "c")
    i = int(argv[3])
    got = _element(data, "c")
    if not got:
        return "composition vanished"
    (gx, _c), = x.terms.items()
    sign = (-1) ** degree(gx.diagram)
    rhs = compose_elements(boundary_c(x), i, y) + \
        compose_elements(x, i, boundary_c(y)).scale(sign)
    if boundary_c(got) != rhs:
        return "d(x o_i y) != dx o_i y + (-1)^|x| x o_i dy"
    return None


def _check_qmap(argv, data):
    from planarops.cli import parse_generator
    from planarops.transfer import p_map
    if p_map(_element(data, "q")) != parse_generator(argv[1], "c"):
        return "p(q x) != x"
    return None


def _check_pmap(argv, data):
    from planarops.cli import parse_generator
    from planarops.operad_c import boundary_c
    from planarops.operad_q import boundary_q
    from planarops.transfer import p_map
    z = parse_generator(argv[1], "q")
    got = _element(data, "c")
    if got != p_map(z):
        return "output differs from the library's p"
    if boundary_c(got) != p_map(boundary_q(z)):
        return "d(p z) != p(d z)"
    return None


def _check_minmax(argv, data):
    from planarops.diagrams import contract, edges, is_binary, parse
    from planarops.tamari import dmax, dmin
    d = parse(argv[1])
    lo, hi = parse(data["min"]), parse(data["max"])
    if (lo, hi) != (dmin(d), dmax(d)):
        return "output differs from the library's min/max"
    for b in (lo, hi):
        # edge keys survive contraction, so contracting the edges that d
        # lacks must give d back
        for e in set(edges(b)) - set(edges(d)):
            b = contract(b, e)
        if b != d:
            return "min or max is not an expansion of the input"
    if not (is_binary(lo) and is_binary(hi)):
        return "min or max is not binary"
    return None


def _check_diagonal(argv, data):
    from planarops.cli import parse_generator
    from planarops.diagonal import support_formula
    from planarops.diagrams import parse
    (gen, _c), = parse_generator(argv[1], "c").terms.items()
    got = {(parse(t["left"]["diagram"]), parse(t["right"]["diagram"]))
           for t in data}
    if got != set(support_formula(gen.diagram)):
        return "unsigned support != support_formula"
    return None


QUERY_CHECKS = {"boundary_c": _check_boundary, "boundary_q": _check_boundary,
                "compose_c": _check_compose, "qmap": _check_qmap,
                "pmap": _check_pmap, "minmax": _check_minmax,
                "diagonal": _check_diagonal}
