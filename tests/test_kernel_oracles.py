"""The diagram kernel against independent constructions kept here as
oracles: edge keys walked per subtree and per thick edge, thick-leaf
positions counted from the stored forests, `graft`'s leaf order laid out
by hand, `dmax` and `dmin` as the extremes of each face, moves that carry
a full edge bijection, and the pair loops that read S_max <= T_min before
`below`.  The mirror is checked to reverse the order, since `dmax` is
defined through it."""

from functools import reduce

import pytest

from planarops import tamari
from planarops.diagonal import support_formula
from planarops.diagrams import (
    INNER, MODULE, THICK, TREE, ShapeClass, _stacks, canonical_addresses,
    canonical_colors, contract, corolla_of, cut, degree, edge_locs, edges,
    enumerate_class, fmt, inner_corolla, is_binary, leaf_count, mirror, parse,
    rotate180, shape_class, shapes_up_to,
)
from planarops.tamari import (
    _edge_pair, below, classify_edges, cocovers, covers, dmax, dmin, leq,
)
from planarops.verify import class_diagrams


def all_diagrams(max_leaves):
    out = []
    for shape in shapes_up_to(max_leaves):
        for deg in range(degree(corolla_of(shape)) + 1):
            out.extend(enumerate_class(shape, deg))
    return out


ALL6 = all_diagrams(6)


# --- edge keys: one walk per subtree and per thick edge ---------------------

def thin_addresses(t, prefix):
    if not t.children:
        return [prefix]
    return [a for i, c in enumerate(t.children)
            for a in thin_addresses(c, prefix + (i,))]


def stack_addresses(stack):
    pre = [a for vi, v in enumerate(stack) for ti, t in enumerate(v.left)
           for a in thin_addresses(t, ("L", vi, ti))]
    post = [a for vi in range(len(stack) - 1, -1, -1)
            for ti, t in enumerate(stack[vi].right)
            for a in thin_addresses(t, ("R", vi, ti))]
    return pre + [("thick",)] + post


def thin_edges(t, prefix, pos):
    """The edge above `t` (unless a leaf) and every thin edge inside it."""
    if not t.children:
        return []
    out = [(frozenset(pos[a] for a in thin_addresses(t, prefix)),
            ("thin", prefix))]
    for i, c in enumerate(t.children):
        out.extend(thin_edges(c, prefix + (i,), pos))
    return out


def outward(stack, i, wrap, pos):
    """Key of the thick edge below vertex i: every leaf above the edge, its
    address shifted by i vertices."""
    return frozenset(
        pos[wrap + (a if a == ("thick",) else (a[0], a[1] + i) + a[2:])]
        for a in stack_addresses(stack[i:]))


def oracle_edge_locs(d):
    pos = {a: i + 1 for i, a in enumerate(canonical_addresses(d))}
    out = []
    if d.kind == TREE:
        for i, c in enumerate(d.payload.children):
            out.extend(thin_edges(c, ("t", i), pos))
    for wrap, stack in _stacks(d):
        for i in range(0 if wrap else 1, len(stack)):
            out.append((outward(stack, i, wrap, pos), ("thick", wrap, i)))
        for vi, v in enumerate(stack):
            for side, forest in (("L", v.left), ("R", v.right)):
                for ti, t in enumerate(forest):
                    out.extend(thin_edges(t, wrap + (side, vi, ti), pos))
    if d.kind == INNER:
        for tag, forest in (("up", d.payload.up), ("dn", d.payload.down)):
            for i, t in enumerate(forest):
                out.extend(thin_edges(t, (tag, i), pos))
    locs = dict(out)
    assert len(locs) == len(out)
    return locs


def test_the_oracles_reach_every_kind():
    assert {d.kind for d in ALL6} == {TREE, MODULE, INNER}
    assert len(ALL6) == 3154


def test_edge_locs_match_the_per_subtree_walk():
    for d in ALL6:
        assert edge_locs(d) == oracle_edge_locs(d), d


# --- thick leaves: counted from the stored forests --------------------------

def thick_positions(d):
    """1-based canonical positions of the thick leaves.  A module
    diagram's thick leaf follows the leaves of its left forests; an inner
    diagram's right thick leaf follows the upper half-plane: the left arm's
    right forests, the upper trees and the right arm's left forests."""
    if d.kind == MODULE:
        return (1 + sum(v.nleft for v in d.payload),)
    if d.kind == INNER:
        inn = d.payload
        return (1, 2 + sum(v.nright for v in inn.left_arm)
                + sum(t.leaves for t in inn.up)
                + sum(v.nleft for v in inn.right_arm))
    return ()


def test_thick_positions_match_the_canonical_colors():
    for d in ALL6:
        assert thick_positions(d) == tuple(
            i + 1 for i, c in enumerate(canonical_colors(d)) if c == THICK), d


# --- graft: the leaf order laid out by hand ---------------------------------

def oracle_graft_maps(d, pos, e):
    """(host_pos, guest_pos, rot): the spliced leaf order written out and,
    on the left arm's thick leaf, rotated to the guest's thick leaf."""
    k, l = leaf_count(d), leaf_count(e)
    order = ([("D", j) for j in range(1, pos)]
             + [("E", i) for i in range(1, l + 1)]
             + [("D", j) for j in range(pos + 1, k + 1)])
    rot = 0
    if d.kind == INNER and e.kind == MODULE and pos == 1:
        rot = thick_positions(e)[0] - 1
        order = order[rot:] + order[:rot]
    host_pos, guest_pos = {}, {}
    for idx, (src, p) in enumerate(order):
        (host_pos if src == "D" else guest_pos)[p] = idx + 1
    return host_pos, guest_pos, rot


def test_graft_maps_match_the_hand_laid_order():
    cuts = rotated = 0
    for d in ALL6:
        for e in edges(d):
            c = cut(d, e)
            host_pos, guest_pos, rot = oracle_graft_maps(c.host, c.pos,
                                                         c.outer)
            assert dict(c.graft.host_pos) == host_pos, (d, e)
            assert dict(c.graft.guest_pos) == guest_pos, (d, e)
            assert c.graft.rot == rot, (d, e)
            cuts += 1
            rotated += rot > 0
    assert cuts == 8251 and rotated > 0


# --- the order's extremes: the mirror, and the extremes of each face --------

def mirrored_shape(shape):
    """A module vertex's two sides swap; an inner diagram's upper and lower
    forests stay upper and lower."""
    return ShapeClass(shape.kind, shape.params[::-1] if shape.kind == MODULE
                      else shape.params)


def test_mirror_is_an_involution_that_swaps_the_module_sides():
    for d in ALL6:
        m = mirror(d)
        assert mirror(m) is d
        assert shape_class(m) == mirrored_shape(shape_class(d)), d
        assert degree(m) == degree(d)
    for shape in shapes_up_to(6):
        assert mirror(corolla_of(shape)) is corolla_of(mirrored_shape(shape))


# the mirror keeps moves 1, 2, 5 and 6 and swaps 3 (two left trees) with 4
MIRRORED_MOVE = {1: 1, 2: 2, 3: 4, 4: 3, 5: 5, 6: 6}


def test_mirror_reverses_the_order():
    binaries = [d for d in ALL6 if degree(d) == 0]
    for b in binaries:
        assert sorted((fmt(o), s.move) for o, s in covers(mirror(b))) == \
            sorted((fmt(mirror(o)), MIRRORED_MOVE[s.move])
                   for o, s in cocovers(b)), b
    assert len(binaries) == 755


def is_face_extreme(b, d, moves):
    """Whether `b` is a binary expansion of `d` (it contracts back to `d`
    along its edges that are not edges of `d`) from which every move of
    `moves` (`covers` or `cocovers`) leaves the face of `d`, i.e. is made
    at an edge of `d`."""
    old = set(edges(d))
    return (is_binary(b) and old <= set(edges(b))
            and reduce(contract, set(edges(b)) - old, b) == d
            and all(step.site in old for _o, step in moves(b)))


@pytest.mark.parametrize("kind", [TREE, MODULE, INNER])
def test_dmax_and_dmin_are_the_extremes_of_the_face(kind):
    for d in ALL6:
        if d.kind == kind:
            assert is_face_extreme(dmax(d), d, covers), d
            assert is_face_extreme(dmin(d), d, cocovers), d


def test_face_extreme_oracle_rejects_the_minimum_as_maximum():
    # mutation check: dmax = dmin passes only on the binary diagrams, whose
    # face is one point
    faces = [d for d in ALL6 if degree(d) > 0]
    assert not any(is_face_extreme(dmin(d), d, covers) for d in faces)
    assert len(faces) + 755 == len(ALL6) == 3154


# --- moves: every edge of a move with its key before and after ---------------

def oracle_moves(b, up):
    """[(B', move, site, bijection)] sorted by fmt(B'): the bijection pairs
    every key of `b` with its key in B'."""
    out = []
    for e in edges(b):
        move, other, oe, b_small = _edge_pair(b, e)
        if b_small == up:
            bij = tuple(sorted(((k, oe if k == e else k)
                                for k in edge_locs(b)),
                               key=lambda p: sorted(p[0])))
            out.append((other, move, e, bij))
    out.sort(key=lambda t: fmt(t[0]))
    return out


def oracle_classify_edges(b):
    """-1 where `b` is the smaller member of the edge-pair, else +1."""
    return {e: -1 if _edge_pair(b, e)[3] else +1 for e in edges(b)}


def test_moves_match_the_full_bijection():
    binaries = [b for shape in shapes_up_to(7)
                for b in enumerate_class(shape, 0)]
    moves = renamed = 0
    for b in binaries:
        for up, got in ((True, covers(b)), (False, cocovers(b))):
            want = oracle_moves(b, up)
            assert [(o, s.move, s.site) for o, s in got] \
                == [w[:3] for w in want], b
            for (o, step), w in zip(got, want):
                for old, new in w[3]:
                    assert step.apply(old) == new, (b, step)
                assert {step.apply(k) for k in edges(b)} == set(edges(o))
                moves += 1
                renamed += step.new != step.site
        assert classify_edges(b) == oracle_classify_edges(b), b
    assert len(binaries) == 2835 and moves == 13138
    assert renamed > 0


# --- S_max <= T_min: the pair loops that `below` replaced --------------------

def oracle_below(t):
    """The filter p used: every cell of complementary degree, in
    enumeration order, whose maximum lies below t's minimum."""
    n = leaf_count(t)
    return [s for s in enumerate_class(shape_class(t), n - 2 - degree(t))
            if leq(dmax(s), dmin(t))]


def oracle_support_formula(corolla):
    """The double loop over S of each degree and T of the complement."""
    shape = shape_class(corolla)
    k = degree(corolla)
    out = set()
    for i in range(k + 1):
        for s in enumerate_class(shape, i):
            s_max = dmax(s)
            for t in enumerate_class(shape, k - i):
                if leq(s_max, dmin(t)):
                    out.add((s, t))
    return frozenset(out)


def test_below_matches_the_filter_in_order():
    nonempty = 0
    for t in ALL6:
        got = below(t)
        assert got == oracle_below(t), t
        nonempty += bool(got)
    assert nonempty > 0


def test_support_formula_matches_the_double_loop():
    corollas = [corolla_of(shape) for shape in shapes_up_to(6)]
    assert len(corollas) == 40
    assert sum(len(support_formula(c)) for c in corollas) == 1553
    for c in corollas:
        assert support_formula(c) == oracle_support_formula(c), c


def rotation_pairwise(shape):
    """The old rotation block: leq read through `tamari` on every pair of
    complementary degree, in the class and in its rotation."""
    cells = list(class_diagrams(shape))
    n = leaf_count(corolla_of(shape))
    return all(
        tamari.leq(dmax(s), dmin(t))
        == tamari.leq(dmax(rotate180(s)), dmin(rotate180(t)))
        for s in cells for t in cells if degree(s) + degree(t) == n - 2)


def rotation_setwise(shape):
    """Criterion 8's form: below(t) rotated against below of the rotation."""
    return all({rotate180(s) for s in below(t)} == set(below(rotate180(t)))
               for t in class_diagrams(shape))


def test_both_rotation_checks_catch_one_move_dropped(fresh_caches,
                                                    monkeypatch):
    shapes = shapes_up_to(5, kinds=(INNER,))
    for shape in shapes:
        assert rotation_pairwise(shape) and rotation_setwise(shape), shape
    # the order loses one relation of I2,0, which the pairwise oracle reads
    # as S_max <= T_min for the cells s and t below: move 5 of the upper
    # tree from the left arm to the right, dropped from `covers` and
    # `cocovers` together
    c = inner_corolla(2, 0)
    s = parse("<{ ; | ; * *} ;  ; | ; >")
    t = parse("<| ;  ; {* * ; | ; } ; >")
    assert degree(s) + degree(t) == degree(c)
    lo, hi = dmax(s), dmin(t)
    assert [(b, step.move) for b, step in covers(lo)] == [(hi, 5)]
    real_covers, real_cocovers = tamari.covers, tamari.cocovers
    monkeypatch.setattr(tamari, "covers", lambda b: tuple(
        e for e in real_covers(b) if (b, e[0]) != (lo, hi)))
    monkeypatch.setattr(tamari, "cocovers", lambda b: tuple(
        e for e in real_cocovers(b) if (e[0], b) != (lo, hi)))
    fresh_caches()
    assert not tamari.leq(lo, hi)
    # I2,0 and its rotation I0,2 each meet the dropped move
    failing = {shape for shape in shapes if not rotation_pairwise(shape)}
    assert failing == {shape_class(c), shape_class(rotate180(c))}
    assert {shape for shape in shapes
            if not rotation_setwise(shape)} == failing
