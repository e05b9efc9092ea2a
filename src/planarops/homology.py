"""Homology of the shape-class complexes: elementary collapses, then ranks.

Each shape class carries two cell complexes: the chain complex whose
degree-d cells are the diagrams with d fewer edges than a binary one, and
its cubical refinement whose cells are diagrams with a subset of edges
marked metric, graded by the number of metric edges.  Both list their cells
in one order (`cell_generators`).

The chain complex's boundary matrices are read one column at a time from
the boundary of its cell, `operad_c.boundary_c_image`.  The cubical ones
are built on integer cells (`_cubical_complex`): a cell is its diagram's
number shifted left, OR the bitmask of its metric edges, one bit per edge
key of the class in canonical order.  A diagram's contractions D/e are read
from the `expansions` that `enumerate_class` walked, so each column
`sum_j (-1)^j [(D/e_j, M - e_j) - (D, M - e_j)]` is a few integer
operations and dictionary lookups; `operad_q.boundary_q_image`, the
operad's boundary of one generator, is the oracle it is tested against.

`collapse` removes each face whose only living coface meets it with
coefficient +-1 together with that coface (an elementary collapse, Forman
1998).  Each collapse is a chain homotopy equivalence over the integers and
leaves the restriction of the old boundary, so a complex that collapses to
one vertex is acyclic over the integers.  The Betti numbers of what is left
come from `sparse_rank`, a plain elimination; they are rational.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations
from math import gcd

from .diagrams import (
    check_size_cap, corolla_of, degree, edges, enumerate_class, expansions,
    leaf_count,
)
from .operad_c import boundary_c_image, c_generator
from .operad_q import QGenerator, boundary_q_image
from . import perms


@dataclass(frozen=True)
class ComplexReport:
    shape: object
    which: str                  # "c" | "q"
    f_vector: tuple
    betti: tuple
    euler: int
    critical: tuple             # the f-vector of what `collapse` leaves

    def lines(self):
        yield "%s complex of %r" % (self.which.upper(), self.shape)
        yield "  f-vector: %s" % (self.f_vector,)
        yield "  Euler characteristic: %d" % self.euler
        yield "  Betti numbers: %s" % (self.betti,)


def sparse_rank(rows):
    """Rank of an integer matrix given as row dictionaries {col: value}.

    Plain fraction-free elimination over the integers: each row is reduced
    at its least pivot column against the pivot row of that column, and
    divided by the gcd of its entries, until it is empty or becomes the
    pivot row of its least column.  The rank is exact over the rationals.
    `homology_report` calls it only on the boundaries that `collapse`
    leaves, so it has no pivot strategy.
    """
    pivots = {}
    for row in rows:
        while row:
            c = min((c for c in row if c in pivots), default=None)
            if c is None:
                pivots[min(row)] = row
                break
            prow = pivots[c]
            g = gcd(prow[c], row[c])
            a, b = prow[c] // g, row[c] // g
            row = {k: a * row.get(k, 0) - b * prow.get(k, 0)
                   for k in {**row, **prow}}
            g = gcd(*row.values()) or 1
            row = {k: v // g for k, v in row.items() if v}
    return len(pivots)


def _cubical_layers(shape, edges_of, cell):
    """The cells of the cubical complex by degree, each `cell(diagram, m)`
    for `m` in `combinations(edges_of(diagram), r)`: by the diagram's
    degree, then the diagram in construction order, then the combinations.
    Both the generators and the integer cells are listed by this walk;
    its callers hold the size cap."""
    top = degree(corolla_of(shape))
    layers = [[] for _ in range(top + 1)]
    for k in range(top + 1):
        for dia in enumerate_class(shape, k):
            es = edges_of(dia)
            for r in range(len(es) + 1):
                layers[r] += (cell(dia, m) for m in combinations(es, r))
    return layers


def cell_generators(shape, which):
    """The cells of the chain ("c") or cubical ("q") complex as generators,
    by degree in construction order, and the boundary of one cell
    (`boundary_c_image` or `boundary_q_image`)."""
    check_size_cap(shape)
    if which == "c":
        top = degree(corolla_of(shape))
        return ([[c_generator(d)[0] for d in enumerate_class(shape, k)]
                 for k in range(top + 1)], boundary_c_image)
    # combinations of edges(dia) keep its order, the canonical order of a
    # metric, so each cell is its generator with sign +1
    identity = perms.identity(leaf_count(corolla_of(shape)))
    layers = _cubical_layers(shape, edges,
                             lambda dia, m: QGenerator(dia, identity, m))
    return layers, boundary_q_image


def _cubical_complex(shape):
    """The cubical complex on integer cells: (its cells by degree, its
    boundary matrices as `_boundary_rows` builds them).

    Diagram i of the class is `i << nbits`, and the edge key of rank r in
    canonical order is the bit `1 << r`, so the cell (D, M) is D's number
    OR the bits of M, and `e_j` is the j-th set bit of M.  The cells come
    in the order of `cell_generators`, and each matrix equals
    `_boundary_rows` of its generators entry for entry."""
    check_size_cap(shape)
    top = degree(corolla_of(shape))
    by_degree = [enumerate_class(shape, k) for k in range(top + 1)]
    dias = [d for layer in by_degree for d in layer]
    keys = sorted({e for d in dias for e in edges(d)}, key=sorted)
    nbits = len(keys)
    bit = {e: 1 << r for r, e in enumerate(keys)}
    number = {d: i << nbits for i, d in enumerate(dias)}
    # faces[i]: the (bit of e, number of D/e) of diagram i, by bit; the
    # expansions (D', e') of X are the D' with D'/e' = X
    faces = [[] for _ in dias]
    for layer in by_degree[1:]:
        for x in layer:
            for d2, e2 in expansions(x):
                faces[number[d2] >> nbits].append((bit[e2], number[x]))
    for listed in faces:
        listed.sort()
    layers = _cubical_layers(shape, lambda dia: [bit[e] for e in edges(dia)],
                             lambda dia, m: sum(m, number[dia]))
    mask = (1 << nbits) - 1
    matrices = []
    for low, high in zip(layers, layers[1:]):
        index = {c: i for i, c in enumerate(low)}
        rows = [{} for _ in low]
        for j, c in enumerate(high):
            m, sign = c & mask, -1
            for b, face in faces[c >> nbits]:
                if m & b:
                    rows[index[face | (m ^ b)]][j] = sign
                    rows[index[c ^ b]][j] = -sign
                    sign = -sign
        matrices.append(rows)
    return layers, matrices


def _boundary_rows(gens_low, gens_high, image):
    """The boundary matrix from the cells `gens_high` to `gens_low`, one
    row {column: coefficient} per cell of `gens_low`.  Column j holds the
    terms of `image(gens_high[j])`, the boundary of that one cell, read
    straight from the sum it returns."""
    index = {g: i for i, g in enumerate(gens_low)}
    matrix_rows = [dict() for _ in gens_low]
    for j, gen in enumerate(gens_high):
        for out_gen, coef in image(gen).terms.items():
            matrix_rows[index[out_gen]][j] = coef
    return matrix_rows


def collapse(f_vector, matrices):
    """The cells left by elementary collapses, as index lists by degree.

    `matrices[d - 1]` holds one row {coface: coefficient} per cell of
    degree d - 1, as `_boundary_rows` builds it; it is never changed.
    """
    alive = [[True] * f for f in f_vector]
    faces = [[[] for _ in range(f)] for f in f_vector]
    for d, matrix in enumerate(matrices):
        for i, row in enumerate(matrix):
            for j in row:
                faces[d + 1][j].append(i)
    living = [[len(row) for row in matrix] for matrix in matrices]
    queue = deque((d, i) for d, counts in enumerate(living)
                  for i, n in enumerate(counts) if n == 1)
    while queue:
        d, i = queue.popleft()
        if not alive[d][i] or living[d][i] != 1:
            continue
        j, v = next((j, v) for j, v in matrices[d][i].items()
                    if alive[d + 1][j])
        if abs(v) != 1:
            continue
        alive[d][i] = alive[d + 1][j] = False
        for e, cell in ((d, j), (d - 1, i)):      # faces of both lose one
            for k in faces[e + 1][cell]:
                living[e][k] -= 1
                if living[e][k] == 1 and alive[e][k]:
                    queue.append((e, k))
    return [[i for i, a in enumerate(layer) if a] for layer in alive]


def collapsed_betti(f_vector, matrices):
    """(the f-vector left by `collapse`, the rational Betti numbers from
    the ranks of the boundaries restricted to what is left)."""
    left = collapse(f_vector, matrices)
    ranks = [0]
    for d, matrix in enumerate(matrices, 1):
        kept = set(left[d])
        ranks.append(sparse_rank({j: v for j, v in matrix[i].items()
                                  if j in kept} for i in left[d - 1]))
    ranks.append(0)
    critical = tuple(len(layer) for layer in left)
    return critical, tuple(critical[d] - ranks[d] - ranks[d + 1]
                           for d in range(len(critical)))


def homology_report(shape, which):
    if which == "c":
        layers, image = cell_generators(shape, which)
        matrices = [_boundary_rows(layers[d - 1], layers[d], image)
                    for d in range(1, len(layers))]
    else:
        layers, matrices = _cubical_complex(shape)
    f_vector = tuple(len(layer) for layer in layers)
    euler = sum((-1) ** d * f for d, f in enumerate(f_vector))
    critical, betti = collapsed_betti(f_vector, matrices)
    return ComplexReport(shape, which, f_vector, betti, euler, critical)


def is_contractible(report):
    """True when the collapses leave one vertex: acyclic over the
    integers."""
    return report.critical == (1,) + (0,) * (len(report.critical) - 1)
