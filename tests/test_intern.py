"""The interned diagram kernel: equal nodes are one object, every node
carries its leaf count, nodes are immutable, and `graft` is memoized."""

import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from planarops import diagrams
from planarops.diagrams import (
    INNER, LEAF, MODULE, TREE, Diagram, InnerData, ModuleVertex, ThinTree,
    corolla_of, cut, degree, edges, enumerate_class, fmt, graft,
    inner_corolla, leaf_count, module_corolla, parse, shape_class,
    shapes_up_to, tree_corolla,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def all_diagrams(max_leaves):
    out = []
    for shape in shapes_up_to(max_leaves):
        for deg in range(degree(corolla_of(shape)) + 1):
            out.extend(enumerate_class(shape, deg))
    return out


ALL6 = all_diagrams(6)


# --- oracles: the recursive counts the nodes no longer run ------------------

def thin_leaves(t):
    if not t.children:
        return 1
    return sum(thin_leaves(c) for c in t.children)


def stack_leaves(stack):
    return 1 + sum(thin_leaves(t) for v in stack for t in v.left + v.right)


def recount(d):
    if d.kind == TREE:
        return thin_leaves(d.payload)
    if d.kind == MODULE:
        return stack_leaves(d.payload)
    inn = d.payload
    return (stack_leaves(inn.left_arm) + stack_leaves(inn.right_arm)
            + sum(thin_leaves(t) for t in inn.up + inn.down))


# --- fresh rebuilds: new tuples at every level ------------------------------

def fresh_thin(t):
    return ThinTree(tuple(fresh_thin(c) for c in t.children))


def fresh_forest(forest):
    return tuple(fresh_thin(t) for t in forest)


def fresh_stack(stack):
    return tuple(ModuleVertex(fresh_forest(v.left), fresh_forest(v.right))
                 for v in stack)


def fresh(d):
    if d.kind == TREE:
        return Diagram(TREE, fresh_thin(d.payload))
    if d.kind == MODULE:
        return Diagram(MODULE, fresh_stack(d.payload))
    inn = d.payload
    return Diagram(INNER, InnerData(
        fresh_stack(inn.left_arm), fresh_forest(inn.up),
        fresh_stack(inn.right_arm), fresh_forest(inn.down)))


def thin_nodes(d):
    """Every thin tree node and module vertex inside `d`."""
    trees, vertices = [], []

    def walk(t):
        trees.append(t)
        for c in t.children:
            walk(c)

    if d.kind == TREE:
        walk(d.payload)
        return trees, vertices
    stacks = ([d.payload] if d.kind == MODULE
              else [d.payload.left_arm, d.payload.right_arm])
    for stack in stacks:
        for v in stack:
            vertices.append(v)
            for t in v.left + v.right:
                walk(t)
    if d.kind == INNER:
        for t in d.payload.up + d.payload.down:
            walk(t)
    return trees, vertices


def test_the_enumeration_reaches_every_kind():
    assert len(ALL6) > 1000
    assert {d.kind for d in ALL6} == {TREE, MODULE, INNER}


def test_parse_of_fmt_is_the_same_object():
    for d in ALL6:
        assert parse(fmt(d)) is d


def test_fresh_rebuild_is_the_same_object():
    for d in ALL6:
        assert fresh(d) is d


def test_stored_leaf_counts_match_a_recount():
    for d in ALL6:
        assert d.leaves == leaf_count(d) == recount(d)
        trees, vertices = thin_nodes(d)
        for t in trees:
            assert t.leaves == thin_leaves(t)
        for v in vertices:
            assert v.nleft == sum(thin_leaves(t) for t in v.left)
            assert v.nright == sum(thin_leaves(t) for t in v.right)


def test_shape_class_reads_the_stored_counts():
    for shape in shapes_up_to(6):
        for deg in range(degree(corolla_of(shape)) + 1):
            for d in enumerate_class(shape, deg):
                assert shape_class(d) == shape


def test_equal_means_identical():
    a = parse("{* ; {; | ; * *} ; }")
    b = parse("{* ; {; | ; * *} ; }")
    assert a is b and a == b
    assert parse("(* *)") != parse("(* * *)")
    assert ThinTree() is LEAF and LEAF.leaves == 1


def test_invalid_nodes_are_rejected_and_not_stored():
    with pytest.raises(diagrams.DiagramError):
        ThinTree((LEAF,))
    with pytest.raises(diagrams.DiagramError):
        ModuleVertex((), ())
    assert (((LEAF,),) not in ThinTree._table
            and ((), ()) not in ModuleVertex._table)


def test_hash_is_structural():
    t = parse("((* *) *)").payload
    assert hash(t) == hash(("t", t.children))
    v = module_corolla(1, 2).payload[0]
    assert hash(v) == hash(("v", v.left, v.right))
    d = inner_corolla(1, 1)
    inn = d.payload
    assert hash(inn) == hash(("i", inn.left_arm, inn.up, inn.right_arm,
                              inn.down))
    assert hash(d) == hash((INNER, inn))


_HASHES = """
from planarops.diagrams import corolla_of, enumerate_class, shapes_up_to
print([hash(d) for s in shapes_up_to(5) for d in enumerate_class(s, 0)])
"""


def test_hash_repeats_across_interpreters():
    def run():
        return subprocess.run(
            [sys.executable, "-c", _HASHES], capture_output=True, text=True,
            check=True, env={"PYTHONHASHSEED": "0", "PYTHONPATH": str(SRC)},
        ).stdout
    first = run()
    assert first.startswith("[") and len(first) > 100
    assert run() == first


def test_repr_is_deterministic():
    assert repr(module_corolla(1, 0).payload[0]) == (
        "ModuleVertex(left=(ThinTree(children=()),), right=())")
    assert repr(tree_corolla(2)) == "Diagram('(* *)')"


@pytest.mark.parametrize("node", [
    LEAF, tree_corolla(3).payload, module_corolla(1, 1).payload[0],
    inner_corolla(1, 0).payload, tree_corolla(2),
])
def test_nodes_are_immutable(node):
    for name in ("children", "left", "payload", "leaves", "_hash", "extra"):
        with pytest.raises(AttributeError):
            setattr(node, name, ())
    with pytest.raises(AttributeError):
        del node._hash


def test_copy_and_pickle_return_the_interned_node():
    nodes = [LEAF, parse("((* *) *)").payload,
             parse("{* ; {; | ; * *} ; }"), module_corolla(2, 1).payload[0],
             inner_corolla(2, 1), inner_corolla(2, 1).payload]
    for node in nodes:
        assert copy.copy(node) is node
        assert copy.deepcopy(node) is node
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(node, protocol)) is node
    assert LEAF.children == () and LEAF.leaves == 1 and LEAF.is_leaf
    assert ThinTree() is LEAF


def test_graft_is_memoized_and_read_only():
    host, guest = tree_corolla(3), tree_corolla(2)
    g = graft(host, 2, guest)
    assert graft(host, 2, guest) is g
    assert g.diagram is parse("(* (* *) *)")
    for mapping in (g.host_pos, g.guest_pos, g.host_edges, g.guest_edges):
        with pytest.raises(TypeError):
            mapping[0] = 0


def test_cut_returns_the_memoized_graft():
    d = parse("<{* ; | ; (* *)} ; * ; | ; * *>")
    for e in edges(d):
        c = cut(d, e)
        assert graft(c.host, c.pos, c.outer) is c.graft
        assert c.graft.diagram is d
