from fractions import Fraction

from hypothesis import given, strategies as st

from planarops.diagrams import INNER, MODULE, TREE, ShapeClass
from planarops.homology import (
    homology_report, is_contractible, sparse_rank,
)


def dense_rank(rows):
    """Rank by Gaussian elimination over the rationals, dense."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][c]:
                f = m[r][c] / m[rank][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def sparse(rows):
    return [{c: v for c, v in enumerate(row) if v} for row in rows]


@st.composite
def matrices(draw):
    """Dense integer matrices up to 12 x 12, some without unit entries, with
    zero rows, repeated rows and multiples of rows mixed in."""
    ncols = draw(st.integers(1, 12))
    entries = draw(st.sampled_from([st.integers(-3, 3),
                                    st.sampled_from([-3, -2, 0, 2, 3])]))
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                         max_size=12))
    for i, k in draw(st.lists(st.tuples(st.integers(0, 11),
                                        st.sampled_from([0, 1, -1, 2, -3])),
                              max_size=4)):
        if len(rows) < 12:
            rows.append([k * x for x in rows[i % len(rows)]] if rows
                        else [0] * ncols)
    return rows


def test_sparse_rank_basics():
    assert sparse_rank([]) == 0
    assert sparse_rank([{0: 1, 1: 1}, {0: 2, 1: 2}]) == 1
    assert sparse_rank([{0: 1}, {1: 3}, {0: 1, 1: 3}]) == 2
    assert sparse_rank([{0: 2, 1: 4}, {0: 1, 1: 3}]) == 2


def test_pentagon_reports():
    for shape in [ShapeClass(TREE, (4,)), ShapeClass(MODULE, (0, 3)),
                  ShapeClass(MODULE, (1, 2)), ShapeClass(MODULE, (2, 1)),
                  ShapeClass(MODULE, (3, 0)), ShapeClass(INNER, (2, 0)),
                  ShapeClass(INNER, (0, 2))]:
        rep = homology_report(shape, "c")
        assert rep.f_vector == (5, 5, 1)
        assert rep.euler == 1
        assert rep.betti == (1, 0, 0)


def test_hexagon_report():
    rep = homology_report(ShapeClass(INNER, (1, 1)), "c")
    assert rep.f_vector == (6, 6, 1)
    assert rep.betti == (1, 0, 0)


def test_i20_cubical_subdivision():
    rep = homology_report(ShapeClass(INNER, (2, 0)), "q")
    assert rep.f_vector == (11, 15, 5)
    assert rep.euler == 1
    assert rep.betti == (1, 0, 0)


def test_small_classes_contractible():
    shapes = [ShapeClass(TREE, (n,)) for n in (3, 4, 5)]
    shapes += [ShapeClass(MODULE, (j, k)) for j in range(3) for k in range(3)
               if 1 <= j + k <= 3]
    shapes += [ShapeClass(INNER, (j, k)) for j in range(3) for k in range(3)
               if j + k <= 3]
    for shape in shapes:
        for which in ("c", "q"):
            rep = homology_report(shape, which)
            assert is_contractible(rep), (shape, which, rep.betti)
            assert rep.euler == 1


@given(matrices())
def test_sparse_rank_matches_dense_rational_rank(rows):
    assert sparse_rank(sparse(rows)) == dense_rank(rows)


@given(matrices(), st.data())
def test_sparse_rank_ignores_row_and_column_order(rows, data):
    ncols = len(rows[0]) if rows else 0
    row_order = data.draw(st.permutations(range(len(rows))))
    col_order = data.draw(st.permutations(range(ncols)))
    shuffled = [[rows[r][c] for c in col_order] for r in row_order]
    assert sparse_rank(sparse(shuffled)) == sparse_rank(sparse(rows))
