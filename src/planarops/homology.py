"""Betti numbers of the shape-class complexes via exact boundary ranks.

Each shape class carries two cell complexes: the chain complex whose
degree-d cells are the diagrams with d fewer edges than a binary one, and
its cubical refinement whose cells are diagrams with a subset of edges
marked metric, graded by the number of metric edges.  Boundary matrices are
assembled from the operad differentials and ranks are computed by
fraction-free sparse elimination over the integers, so a vanishing Betti
number is exact (over the rationals: torsion is not detected).

`sparse_rank` picks each pivot by the Markowitz rule: the least key
(|v| != 1, (row length - 1) * (column count - 1), |v|), so a unit entry with
little fill-in first.  Rows are scanned shortest first, and the scan stops
after the first row once the best pivot so far is a unit whose cost is at
most 4 times that row's length.  The candidates live in an index of the
rows not yet eliminated, keyed by length, which each elimination step
updates only for the rows whose length it changes.
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


def _pivot(rows, col_rows, by_length):
    """The pivot (row, column) by the Markowitz rule of the module
    docstring; `by_length` must hold at least one row."""
    best_key, best = (True, float("inf"), 0), None
    for length in sorted(by_length):
        fill = length - 1
        for ri in by_length[length]:
            for c, v in rows[ri].items():
                size = abs(v)
                key = (size != 1, fill * (len(col_rows[c]) - 1), size)
                if key < best_key:
                    best_key, best = key, (ri, c)
            if not best_key[0] and best_key[1] <= 4 * length:
                return best
    return best


def _move(by_length, ri, old, new):
    """Re-file row `ri` from length `old` to `new` (0 drops it)."""
    bucket = by_length[old]
    del bucket[ri]
    if not bucket:
        del by_length[old]
    if new:
        by_length.setdefault(new, {})[ri] = None


def sparse_rank(rows):
    """Rank of an integer matrix given as row dictionaries {col: value}.

    Fraction-free elimination over the integers.  Each pivot follows the
    Markowitz rule (least (|v| != 1, fill-in cost, |v|), rows scanned
    shortest first, stop once a unit pivot costs at most 4 * the row's
    length).  The rows not yet eliminated are indexed by their length,
    `{length: {row: None}}` in insertion order: a row is re-filed only
    when an elimination step changes its length, and leaves the index when
    it becomes the pivot or empties.  A row longer than 8 is divided by the
    gcd of its entries after each step.
    """
    rows = [dict(r) for r in rows if r]
    col_rows = {}
    by_length = {}
    for ri, row in enumerate(rows):
        for c in row:
            col_rows.setdefault(c, set()).add(ri)
        by_length.setdefault(len(row), {})[ri] = None
    rank = 0
    while by_length:
        pi, pc = _pivot(rows, col_rows, by_length)
        rank += 1
        prow = rows[pi]
        _move(by_length, pi, len(prow), 0)
        for c in prow:
            col_rows[c].discard(pi)
        pval = prow[pc]
        for ri in list(col_rows[pc]):
            row = rows[ri]
            old = len(row)
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
                    col_rows[c].add(ri)
                elif c in row:
                    del row[c]
                    col_rows[c].discard(ri)
            if len(row) > 8:
                _normalize_row(row)
            if len(row) != old:
                _move(by_length, ri, old, len(row))
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
