from collections import Counter
from functools import reduce
from itertools import combinations
from math import comb

import pytest

from planarops.diagrams import (
    INNER, MODULE, TREE, DiagramError, ShapeClass, contract, corolla_of,
    degree, edges, enumerate_class, inner_corolla, parse, shapes_up_to,
    tree_corolla,
)
from planarops.tamari import (
    _reach, classify_edges, cocovers, covers, dmax, dmin, leq,
    positive_edges, poset_extremes, tree_path,
)

SMALL_SHAPES = [
    ShapeClass(TREE, (3,)), ShapeClass(TREE, (4,)), ShapeClass(TREE, (5,)),
    ShapeClass(MODULE, (1, 1)), ShapeClass(MODULE, (2, 1)),
    ShapeClass(MODULE, (0, 3)),
    ShapeClass(INNER, (1, 1)), ShapeClass(INNER, (2, 0)),
    ShapeClass(INNER, (2, 1)),
]


def binaries(shape):
    return enumerate_class(shape, 0)


def test_move_1_on_three_leaves():
    left = parse("((* *) *)")
    right = parse("(* (* *))")
    ups = covers(left)
    assert len(ups) == 1
    assert ups[0][0] == right
    assert ups[0][1].move == 1
    assert not covers(right)
    assert leq(left, right) and not leq(right, left)


def test_hexagon_min_out_degree():
    bmin, bmax = poset_extremes(ShapeClass(INNER, (1, 1)))
    assert bmin == dmin(inner_corolla(1, 1))
    assert bmax == dmax(inner_corolla(1, 1))
    assert len(covers(bmin)) == 2
    assert len(cocovers(bmin)) == 0


def test_cmax_has_no_upward_covers():
    for shape in SMALL_SHAPES:
        c = corolla_of(shape)
        assert covers(dmax(c)) == ()
        assert cocovers(dmin(c)) == ()


def test_leq_is_a_partial_order():
    for shape in SMALL_SHAPES:
        bs = binaries(shape)
        for b in bs:
            assert leq(b, b)
        for b1 in bs:
            for b2 in bs:
                if leq(b1, b2) and leq(b2, b1):
                    assert b1 == b2


def test_leq_shape_mismatch():
    with pytest.raises(DiagramError):
        leq(dmin(tree_corolla(3)), dmin(tree_corolla(4)))


def test_leq_rejects_a_non_binary_diagram_on_either_side():
    binary, corolla = parse("((* *) *)"), parse("(* * *)")
    for b1, b2 in ((corolla, binary), (binary, corolla)):
        with pytest.raises(DiagramError, match="need a binary diagram"):
            leq(b1, b2)


def test_dmin_dmax_of_corollas():
    assert dmin(tree_corolla(4)) == parse("(((* *) *) *)")
    assert dmax(tree_corolla(4)) == parse("(* (* (* *)))")
    # (I_{k,l})_max: upper leaves on the right arm, lower on the left arm
    d = dmax(inner_corolla(2, 1))
    inn = d.payload
    assert not inn.up and not inn.down
    assert all(v.left and not v.right for v in inn.right_arm)
    assert all(v.left and not v.right for v in inn.left_arm)
    d = dmin(inner_corolla(2, 1))
    inn = d.payload
    assert all(v.right and not v.left for v in inn.left_arm)
    assert all(v.right and not v.left for v in inn.right_arm)


def test_dmin_dmax_fix_binaries():
    for shape in SMALL_SHAPES:
        for b in binaries(shape):
            assert dmin(b) == b
            assert dmax(b) == b


def test_dmin_dmax_against_poset_search():
    for shape in SMALL_SHAPES:
        c = corolla_of(shape)
        bmin, bmax = poset_extremes(shape)
        assert bmin == dmin(c)
        assert bmax == dmax(c)


def test_min_max_all_negative_all_positive():
    for shape in SMALL_SHAPES:
        c = corolla_of(shape)
        assert set(classify_edges(dmin(c)).values()) <= {-1}
        assert set(classify_edges(dmax(c)).values()) <= {+1}
        # uniqueness of the all-positive and all-negative diagrams
        for b in binaries(shape):
            signs = set(classify_edges(b).values())
            if signs <= {+1}:
                assert b == dmax(c)
            if signs <= {-1}:
                assert b == dmin(c)


def test_right_comb_all_positive():
    b = dmax(tree_corolla(5))
    assert set(classify_edges(b).values()) == {+1}


def test_positive_count_is_monotone():
    for shape in SMALL_SHAPES:
        for b in binaries(shape):
            np = len(positive_edges(b))
            for b2, _step in covers(b):
                assert len(positive_edges(b2)) >= np


def test_collapse_positive_negative():
    # S = S_max / {positive edges} and D = D_min / {negative edges}
    for shape in SMALL_SHAPES:
        c = corolla_of(shape)
        for deg in range(degree(c) + 1):
            for d in enumerate_class(shape, deg):
                up = dmax(d)
                for e in positive_edges(up) - set(edges(d)):
                    up = contract(up, e)
                assert up == d
                dn = dmin(d)
                for e in (set(edges(dn)) - positive_edges(dn)) - set(edges(d)):
                    dn = contract(dn, e)
                assert dn == d


def test_dmin_inserts_negative_dmax_positive():
    for shape in SMALL_SHAPES:
        c = corolla_of(shape)
        for deg in range(degree(c) + 1):
            for d in enumerate_class(shape, deg):
                mn, mx = dmin(d), dmax(d)
                own = set(edges(d))
                cls_mn = classify_edges(mn)
                assert all(cls_mn[e] == -1 for e in set(edges(mn)) - own)
                cls_mx = classify_edges(mx)
                assert all(cls_mx[e] == +1 for e in set(edges(mx)) - own)


def test_cells_are_the_positive_contractions_of_their_maximum():
    # what `below` walks by: S_max = B exactly when S contracts only
    # positive edges of B, so the B / X, X among the positive edges of B,
    # are every cell of the class once; past the oracles' 6-leaf cap
    nbin = 0
    for shape in shapes_up_to(7):
        counts = Counter()
        for b in binaries(shape):
            nbin += 1
            pos = positive_edges(b)
            for r in range(len(pos) + 1):
                for x in combinations(pos, r):
                    assert dmax(reduce(contract, x, b)) == b, (b, x)
                counts[r] += comb(len(pos), r)
        for k in range(degree(corolla_of(shape)) + 1):
            assert counts[k] == len(enumerate_class(shape, k)), (shape, k)
    assert nbin == 2835


def test_the_down_walk_is_a_spanning_tree_of_the_down_set():
    for shape in SMALL_SHAPES:
        for top in binaries(shape):
            tree = _reach(top, cocovers)
            assert set(tree) == {b for b in binaries(shape) if leq(b, top)}
            assert tree[top] is None
            for b, entry in tree.items():
                if b != top:
                    parent, step = entry
                    assert (b, step) in cocovers(parent)
                path = tree_path(tree, b)
                cur = top
                for nxt, step in path:
                    assert (nxt, step) in cocovers(cur)
                    cur = nxt
                assert cur == b
                assert not path or path[-1][0] == b


def test_move_step_renames_edges_bijectively():
    for shape in SMALL_SHAPES:
        for b in binaries(shape):
            for b2, step in covers(b) + cocovers(b):
                assert {step.apply(k) for k in edges(b)} == set(edges(b2))
