from fractions import Fraction

from hypothesis import given, strategies as st

from planarops.diagrams import INNER, MODULE, TREE, ShapeClass, shapes_up_to
from planarops.homology import (
    ComplexReport, _boundary_rows, _cubical_complex, cell_generators,
    collapse, collapsed_betti, homology_report, is_contractible, sparse_rank,
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
    # every class up to 6 leaves, both models, collapses to one vertex
    for shape in shapes_up_to(6):
        for which in ("c", "q"):
            rep = homology_report(shape, which)
            assert is_contractible(rep), (shape, which, rep.critical)
            assert rep.euler == 1


def test_cubical_matrices_match_the_operad_boundary():
    # the integer-cell matrices against boundary_q_image of every cell
    # generator: same rows, columns and coefficients, every class up to 6
    # leaves
    for shape in shapes_up_to(6):
        layers, matrices = _cubical_complex(shape)
        gens, image = cell_generators(shape, "q")
        f_vector = tuple(len(layer) for layer in gens)
        assert tuple(len(layer) for layer in layers) == f_vector
        assert homology_report(shape, "q").f_vector == f_vector
        assert matrices == [_boundary_rows(gens[d - 1], gens[d], image)
                            for d in range(1, len(gens))], shape


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


# --- elementary collapses -------------------------------------------------

def hand_made(f_vector, matrices):
    """The report of a complex given by its boundary matrices."""
    critical, betti = collapsed_betti(f_vector, matrices)
    euler = sum((-1) ** d * f for d, f in enumerate(f_vector))
    return ComplexReport(None, "c", f_vector, betti, euler, critical)


def test_collapse_removes_a_unit_pair():
    # an interval: two vertices, one edge with boundary v1 - v0
    assert collapse((2, 1), [[{0: -1}, {0: 1}]]) == [[1], []]
    assert is_contractible(hand_made((2, 1), [[{0: -1}, {0: 1}]]))


def test_collapse_keeps_a_face_with_two_cofaces():
    # a circle: two edges, both with boundary v1 - v0
    circle = [[{0: -1, 1: -1}, {0: 1, 1: 1}]]
    assert collapse((2, 2), circle) == [[0, 1], [0, 1]]
    rep = hand_made((2, 2), circle)
    assert rep.betti == (1, 1) and not is_contractible(rep)


def test_collapse_keeps_a_coefficient_of_two():
    # the real projective plane: de = 0, df = 2e; rationally acyclic, but
    # its H_1 over the integers is Z/2, and no collapse may remove it
    rp2 = [[{}], [{0: 2}]]
    assert collapse((1, 1, 1), rp2) == [[0], [0], [0]]
    rep = hand_made((1, 1, 1), rp2)
    assert rep.critical == (1, 1, 1)
    assert rep.betti == (1, 0, 0)
    assert not is_contractible(rep)
