"""Betti numbers of the shape-class complexes via exact boundary ranks.

Each shape class carries two cell complexes: the chain complex whose
degree-d cells are the diagrams with d fewer edges than a binary one, and
its cubical refinement whose cells are diagrams with a subset of edges
marked metric, graded by the number of metric edges.  Boundary matrices are
assembled from the operad differentials and ranks are computed by
fraction-free sparse elimination over the integers, so a vanishing Betti
number is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd

from .diagrams import corolla_of, degree, edges, enumerate_class, leaf_count
from .operad_c import boundary_c, c_unit
from .operad_q import boundary_q, q_unit


@dataclass(frozen=True)
class ComplexReport:
    shape: object
    which: str                  # "c" | "q"
    f_vector: tuple
    betti: tuple
    euler: int

    def lines(self):
        yield "%s complex of %r" % (self.which.upper(), self.shape)
        yield "  f-vector: %s" % (self.f_vector,)
        yield "  Euler characteristic: %d" % self.euler
        yield "  Betti numbers: %s" % (self.betti,)


def _normalize_row(row):
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return
    if g > 1:
        for c in row:
            row[c] //= g


def sparse_rank(rows):
    """Rank of an integer matrix given as row dictionaries {col: value}."""
    rows = [dict(r) for r in rows if r]
    col_rows = {}
    for ri, row in enumerate(rows):
        for c in row:
            col_rows.setdefault(c, set()).add(ri)
    active = set(range(len(rows)))
    rank = 0
    by_length = sorted(active, key=lambda ri: len(rows[ri]))
    while active:
        # cheapest pivot: unit value first, then least fill-in; scanning
        # rows shortest-first lets us stop at the first good-enough one
        best = None
        by_length = [ri for ri in by_length if ri in active and rows[ri]]
        by_length.sort(key=lambda ri: len(rows[ri]))
        for ri in by_length:
            row = rows[ri]
            for c, v in row.items():
                key = (abs(v) != 1, (len(row) - 1) * (len(col_rows[c]) - 1),
                       abs(v))
                if best is None or key < best[0]:
                    best = (key, ri, c)
            if best and not best[0][0] and best[0][1] <= 4 * len(row):
                break
        if best is None:
            break
        _key, pi, pc = best
        rank += 1
        active.discard(pi)
        prow = rows[pi]
        pval = prow[pc]
        for ri in list(col_rows.get(pc, ())):
            if ri == pi or ri not in active:
                continue
            row = rows[ri]
            f = row[pc]
            g = gcd(pval, f)
            a, b = pval // g, f // g
            if a != 1:
                for c in row:
                    row[c] *= a
            for c, v in prow.items():
                new = row.get(c, 0) - b * v
                if new:
                    row[c] = new
                    col_rows.setdefault(c, set()).add(ri)
                elif c in row:
                    del row[c]
                    col_rows[c].discard(ri)
            if len(row) > 8:
                _normalize_row(row)
            if not row:
                active.discard(ri)
        for c in prow:
            col_rows[c].discard(pi)
        prow.clear()
    return rank


def c_cells(shape):
    """Cells of the chain complex by degree, canonically ordered."""
    top = degree(corolla_of(shape))
    return [list(enumerate_class(shape, d)) for d in range(top + 1)]


def q_cells(shape):
    """Cells of the cubical complex by degree: (diagram, metric set)."""
    top = degree(corolla_of(shape))
    out = [[] for _ in range(top + 1)]
    for d in range(top + 1):
        for dia in enumerate_class(shape, d):
            es = edges(dia)
            for r in range(len(es) + 1):
                for metric in combinations(es, r):
                    out[r].append((dia, metric))
    for layer in out:
        layer.sort(key=repr)
    return out


def _boundary_rows(gens_low, gens_high, boundary):
    from .formal import unit
    index = {g: i for i, g in enumerate(gens_low)}
    matrix_rows = [dict() for _ in gens_low]
    for j, gen in enumerate(gens_high):
        for out_gen, coef in boundary(unit(gen)).terms.items():
            matrix_rows[index[out_gen]][j] = coef
    return matrix_rows


def cell_generators(shape, which):
    """The cells of the chain ("c") or cubical ("q") complex as generators,
    by degree, and the boundary of that complex."""
    if which == "c":
        return ([[c_unit(cell).support().pop() for cell in layer]
                 for layer in c_cells(shape)], boundary_c)
    return ([[q_unit(d, metric=m).support().pop() for d, m in layer]
             for layer in q_cells(shape)], boundary_q)


def homology_report(shape, which):
    if leaf_count(corolla_of(shape)) > 8:
        raise ValueError("shape class exceeds the size cap")
    keyed, bnd = cell_generators(shape, which)
    f_vector = tuple(len(layer) for layer in keyed)
    euler = sum((-1) ** d * f for d, f in enumerate(f_vector))
    ranks = [0]
    for d in range(1, len(keyed)):
        ranks.append(sparse_rank(_boundary_rows(keyed[d - 1], keyed[d], bnd)))
    ranks.append(0)
    betti = tuple(f_vector[d] - ranks[d] - ranks[d + 1]
                  for d in range(len(f_vector)))
    return ComplexReport(shape, which, f_vector, betti, euler)


def is_contractible(report):
    return report.betti[0] == 1 and all(b == 0 for b in report.betti[1:])
