from functools import lru_cache

import pytest

from planarops.diagrams import (
    INNER, MODULE, THICK, THIN, TREE, ColorMismatch, DiagramError, ShapeClass,
    canonical_addresses, canonical_colors, contract, corolla_of, cut, degree,
    edge_count, edge_locs, edges, enumerate_class, expansions, fmt, fmt_edge,
    graft, inner_corolla, leaf_count, module_corolla, parse, parse_edge,
    rotate180, shape_class, shapes_up_to, tree_corolla,
)
from test_kernel_oracles import thick_positions


def all_diagrams(shape):
    c = corolla_of(shape)
    out = []
    for deg in range(degree(c), -1, -1):
        out.extend(enumerate_class(shape, deg))
    return out


# --- grammar ----------------------------------------------------------------

def test_parse_corollas():
    assert parse("(* * *)") == tree_corolla(3)
    assert parse("{* * ; | ; * * *}") == module_corolla(2, 3)
    assert parse("<| ; * * ; | ; >") == inner_corolla(2, 0)


def test_parse_format_roundtrip():
    texts = [
        "((* *) *)",
        "(* (* * (* *)))",
        "{* ; {; | ; * *} ; }",
        "<{* ; | ; (* *)} ; * ; | ; * *>",
        "<| ; ; | ; >",
    ]
    for text in texts:
        d = parse(text)
        assert parse(fmt(d)) == d


def test_parse_rejects_bad_input():
    for bad in ["(*)", "( )", "{ ; | ; }", "(* *", "<| ; * ; |>", "** "]:
        with pytest.raises(DiagramError):
            parse(bad)


def test_format_is_canonical_on_enumeration():
    seen = {}
    for d in all_diagrams(ShapeClass(INNER, (1, 1))):
        assert parse(fmt(d)) == d
        assert fmt(d) not in seen
        seen[fmt(d)] = d


# --- canonical numbering ----------------------------------------------------

def test_fig2_tree_numbering():
    # 8-leaf tree, labels 1..8 left to right
    d = parse("((* *) * (* (* * *) *))")
    assert leaf_count(d) == 8
    assert canonical_colors(d) == (THIN,) * 8


def test_fig2_inner_numbering():
    # the 16-leaf inner diagram: thick leaves must be numbered 1 and 9
    left_arm = "{* ; | ; (* *)}"
    up = "* (* *)"
    right_arm = "{* * ; {; | ; (* *)} ; *}"
    down = "(* * *)"
    d = parse("<%s ; %s ; %s ; %s>" % (left_arm, up, right_arm, down))
    assert leaf_count(d) == 16
    assert thick_positions(d) == (1, 9)
    # upper leaves are 2..8, lower leaves 10..16
    colors = canonical_colors(d)
    assert [i + 1 for i, c in enumerate(colors) if c == THICK] == [1, 9]


def test_inner_corolla_numbering():
    d = inner_corolla(3, 4)
    assert thick_positions(d) == (1, 5)


def test_module_corolla_numbering():
    d = module_corolla(2, 3)
    assert thick_positions(d) == (3,)
    assert canonical_colors(d) == (THIN, THIN, THICK, THIN, THIN, THIN)


# --- degree and edges -------------------------------------------------------

def test_degree_of_corollas():
    assert degree(tree_corolla(4)) == 2
    assert degree(module_corolla(2, 3)) == 4
    assert degree(inner_corolla(2, 0)) == 2
    assert degree(inner_corolla(0, 0)) == 0


def test_edge_keys_are_distinct_and_intervals():
    for shape in [ShapeClass(TREE, (5,)), ShapeClass(MODULE, (2, 2)),
                  ShapeClass(INNER, (2, 1))]:
        for d in all_diagrams(shape):
            n = leaf_count(d)
            ks = edges(d)
            assert len(set(ks)) == len(ks)
            for k in ks:
                assert parse_edge(fmt_edge(k, n), n) == k


def test_edges_read_edge_locs_in_canonical_order():
    count = 0
    for shape in shapes_up_to(7):
        for d in all_diagrams(shape):
            es = edges(d)
            assert es == sorted(edge_locs(d), key=sorted) \
                == list(edge_locs(d)), fmt(d)
            count += 1
    assert count == 17308
    # each call hands out a fresh list
    d = enumerate_class(ShapeClass(INNER, (2, 1)), 0)[0]
    es = edges(d)
    assert len(es) == 3
    es.reverse()
    es.append(frozenset())
    assert edges(d) == sorted(edge_locs(d), key=sorted)


def test_equal_edge_keys_are_one_object():
    """Every edge key is built through one intern point: equal keys of
    different diagrams, the keys a graft maps them to and a parsed key are
    the same frozenset."""
    shared = {}

    def check(key):
        assert shared.setdefault(key, key) is key, sorted(key)

    cuts = 0
    for shape in shapes_up_to(6):
        for d in all_diagrams(shape):
            n = leaf_count(d)
            for key in edges(d):
                check(key)
                assert parse_edge(fmt_edge(key, n), n) is key
            for key in edges(d):
                g = cut(d, key).graft
                assert g.new_edge is key
                for value in (*g.host_edges.values(),
                              *g.guest_edges.values()):
                    check(value)
                cuts += 1
    assert len(shared) == 34 and cuts == 8251


# --- contraction / expansion ------------------------------------------------

def test_contract_single_edge_tree():
    d = parse("((* *) *)")
    (e,) = edges(d)
    assert contract(d, e) == tree_corolla(3)


def test_contract_thick_edge_merges_forests():
    d = parse("{* ; {; | ; *} ; }")           # two stacked module vertices
    thick_edge = [e for e in edges(d) if THICK in
                  [canonical_colors(d)[p - 1] for p in e]]
    assert len(thick_edge) == 1
    assert contract(d, thick_edge[0]) == module_corolla(1, 1)


def test_expansions_counts():
    assert len(expansions(tree_corolla(3))) == 2
    assert len(expansions(tree_corolla(4))) == 5
    assert len(expansions(inner_corolla(1, 1))) == 6
    assert len(expansions(inner_corolla(2, 0))) == 5
    assert len(expansions(module_corolla(1, 2))) == 5


def test_expansion_contract_roundtrip():
    for shape in shapes_up_to(6):
        # every (d2, e) one degree down, filed under contract(d2, e)
        contracts_to = {}
        for d in all_diagrams(shape):
            for e in edges(d):
                contracts_to.setdefault(contract(d, e), set()).add((d, e))
        for d in all_diagrams(shape):
            for d2, e2 in expansions(d):
                assert degree(d2) == degree(d) - 1
                assert contract(d2, e2) == d
            for e in edges(d):
                assert (d, e) in expansions(contract(d, e))
            assert set(expansions(d)) == contracts_to.get(d, set())


def test_contract_preserves_other_keys():
    d = parse("<{ ; | ; (* *)} ; * ; | ; (* *)>")
    for e in edges(d):
        d2 = contract(d, e)
        assert set(edges(d2)) == set(edges(d)) - {e}


# --- enumeration ------------------------------------------------------------

@lru_cache(maxsize=None)
def catalan(n):
    if n <= 1:
        return 1
    return sum(catalan(i) * catalan(n - 1 - i) for i in range(n))


@lru_cache(maxsize=None)
def binary_module_count(j, k):
    # stacks of vertices carrying one binary thin tree each (left or right)
    if j == k == 0:
        return 1
    total = 0
    for a in range(1, j + 1):
        total += catalan(a - 1) * binary_module_count(j - a, k)
    for b in range(1, k + 1):
        total += catalan(b - 1) * binary_module_count(j, k - b)
    return total


def binary_inner_count(j, k):
    total = 0
    for a in range(j + 1):
        for c in range(k + 1):
            total += (binary_module_count(c, a)
                      * binary_module_count(j - a, k - c))
    return total


def test_enumerate_binary_counts():
    assert len(enumerate_class(ShapeClass(TREE, (4,)), 0)) == 5
    assert len(enumerate_class(ShapeClass(TREE, (5,)), 0)) == 14
    assert len(enumerate_class(ShapeClass(INNER, (1, 1)), 0)) == 6
    assert len(enumerate_class(ShapeClass(INNER, (2, 0)), 0)) == 5
    assert len(enumerate_class(ShapeClass(INNER, (0, 2)), 0)) == 5
    for j, k in [(1, 2), (3, 0), (2, 2)]:
        got = len(enumerate_class(ShapeClass(MODULE, (j, k)), 0))
        assert got == binary_module_count(j, k)
    for j, k in [(2, 1), (2, 2), (3, 1)]:
        got = len(enumerate_class(ShapeClass(INNER, (j, k)), 0))
        assert got == binary_inner_count(j, k)


def test_enumerate_is_deterministic_and_unique():
    for deg in (0, 1, 2):
        seq = enumerate_class(ShapeClass(INNER, (2, 1)), deg)
        assert list(seq) == sorted(set(seq), key=fmt)
        for d in seq:
            assert degree(d) == deg
            assert shape_class(d) == ShapeClass(INNER, (2, 1))


def test_pentagon_face_counts():
    for shape in [ShapeClass(TREE, (4,)), ShapeClass(MODULE, (0, 3)),
                  ShapeClass(MODULE, (1, 2)), ShapeClass(MODULE, (2, 1)),
                  ShapeClass(MODULE, (3, 0)), ShapeClass(INNER, (2, 0)),
                  ShapeClass(INNER, (0, 2))]:
        counts = [len(enumerate_class(shape, deg)) for deg in (0, 1, 2)]
        assert counts == [5, 5, 1]
    counts = [len(enumerate_class(ShapeClass(INNER, (1, 1)), deg))
              for deg in (0, 1, 2)]
    assert counts == [6, 6, 1]


# --- grafting ---------------------------------------------------------------

def test_graft_tree_into_tree():
    g = graft(tree_corolla(2), 1, tree_corolla(2))
    assert g.diagram == parse("((* *) *)")
    assert g.host_pos == {2: 3}
    assert g.guest_pos == {1: 1, 2: 2}
    assert g.new_edge == frozenset({1, 2})


def test_graft_module_into_inner_left():
    g = graft(inner_corolla(0, 0), 1, module_corolla(1, 0))
    assert g.diagram == parse("<{* ; | ; } ; ; | ; >")
    # the grafted module tree's thick leaf becomes the new left thick leaf
    assert thick_positions(g.diagram)[0] == 1


def test_graft_counts_and_maps():
    d = parse("<| ; * ; | ; *>")
    e = parse("{* ; | ; *}")
    pos = thick_positions(d)[1]
    g = graft(d, pos, e)
    assert leaf_count(g.diagram) == leaf_count(d) + leaf_count(e) - 1
    assert edge_count(g.diagram) == edge_count(d) + edge_count(e) + 1
    assert set(g.host_pos) == set(range(1, 5)) - {pos}


def test_graft_rotation_on_left_thick_leaf():
    # I_{r',r''} o_1 M_{s',s''}: the composite walk starts at M's thick leaf
    d = inner_corolla(1, 1)
    e = module_corolla(2, 1)
    g = graft(d, 1, e)
    # M's left leaves wrap around to the end of the walk
    assert g.guest_pos == {1: leaf_count(g.diagram) - 1,
                           2: leaf_count(g.diagram), 3: 1, 4: 2}


def test_graft_color_mismatch():
    with pytest.raises(ColorMismatch):
        graft(module_corolla(1, 1), thick_positions(module_corolla(1, 1))[0],
              tree_corolla(2))
    with pytest.raises(ColorMismatch):
        graft(tree_corolla(3), 1, module_corolla(1, 0))
    with pytest.raises(ColorMismatch):
        graft(tree_corolla(3), 1, inner_corolla(0, 0))


def test_cut_inverts_graft():
    for shape in [ShapeClass(TREE, (5,)), ShapeClass(MODULE, (2, 1)),
                  ShapeClass(INNER, (2, 1))]:
        for d in all_diagrams(shape):
            for e in edges(d):
                c = cut(d, e)
                assert c.graft.diagram == d
                assert c.graft.new_edge == e


# --- rotation ---------------------------------------------------------------

def test_rotate180_corollas():
    assert rotate180(inner_corolla(2, 0)) == inner_corolla(0, 2)
    assert rotate180(inner_corolla(1, 3)) == inner_corolla(3, 1)


def test_rotate180_is_involution():
    for shape in [ShapeClass(INNER, (1, 1)), ShapeClass(INNER, (2, 1)),
                  ShapeClass(INNER, (3, 0))]:
        for d in all_diagrams(shape):
            assert rotate180(rotate180(d)) == d
            jk = shape_class(d).params
            assert shape_class(rotate180(d)).params == (jk[1], jk[0])


def test_rotate180_relabels_the_edge_keys():
    # the half turn starts the walk at the right thick leaf, at canonical
    # position r: leaf p becomes leaf (p - r) mod n + 1
    count = 0
    for shape in shapes_up_to(6, kinds=(INNER,)):
        for d in all_diagrams(shape):
            count += 1
            n = leaf_count(d)
            r = canonical_addresses(d).index(("ra", "thick")) + 1
            assert {frozenset((p - r) % n + 1 for p in e)
                    for e in edges(d)} == set(edges(rotate180(d))), fmt(d)
    assert count == 1435


def test_rotate180_rejects_everything_else():
    with pytest.raises(DiagramError):
        rotate180(tree_corolla(3))
