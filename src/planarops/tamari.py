"""The partial order on binary diagrams generated by six local moves.

A pair of binary diagrams is an edge-pair when the two arise as the two
binary expansions of a common codimension-one diagram; the junction where
they differ identifies the move type and the smaller member:

  (1) thin vertex:     left-grouped pair  <  right-grouped pair
  (2) module vertex carrying one left and one right tree:
                       left tree below    <  right tree below
  (3) two left trees:  grouped            <  split onto two vertices
  (4) two right trees: split              <  grouped
  (5) central vertex with one upper tree:
                       on the left arm    <  on the right arm
  (6) central vertex with one lower tree:
                       on the right arm   <  on the left arm

The minimum of each subposet is reached by inserting only negative edges,
the maximum by inserting only positive edges; an edge of a binary diagram is
positive exactly when the diagram is the larger member of the edge-pair at
that edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

from .diagrams import (
    MODULE, TREE, DiagramError, ModuleVertex, ThinTree, contract,
    edge_count, edges, enumerate_class, expansions_tagged, fmt, inner_diagram,
    is_binary, mirror, module_diagram, shape_class, tree_diagram,
)


@dataclass(frozen=True)
class MoveStep:
    """One move: the edge `site` of the diagram it starts from becomes the
    edge `new` of the diagram it reaches; every other edge keeps its key."""

    move: int                 # 1..6
    site: frozenset
    new: frozenset

    def apply(self, key):
        return self.new if key == self.site else key


def _orient_pair(d, pair):
    """Return (move id, smaller index) for the edge-pair `pair` of d."""
    (d1, e1, t1), (d2, e2, t2) = pair
    tags = {t1 if isinstance(t1, str) else t1[0],
            t2 if isinstance(t2, str) else t2[0]}
    if tags == {"group"}:
        # thin junction: the smaller groups the left run
        lo = min(min(e1), min(e2))
        return 1, (0 if lo in e1 else 1)
    if tags == {"group", "split"}:
        split_tag = t1 if t1[0] == "split" else t2
        group_idx = 0 if t1 == "group" else 1
        if split_tag[1] == 1:      # two left trees, grouped is smaller
            return 3, group_idx
        return 4, 1 - group_idx    # two right trees, split is smaller
    if tags == {"split"}:
        return 2, (0 if t1 == ("split", 1, 1) else 1)
    if tags == {"cleft", "cright"}:
        move = 5 if d.payload.up else 6
        want = "cleft" if move == 5 else "cright"
        return move, (0 if t1 == want else 1)
    raise DiagramError("unrecognized junction on %s: %s %s" % (fmt(d), t1, t2))


def _edge_pair(b, e):
    """The partner of binary `b` across the move at edge `e`."""
    d = contract(b, e)
    pair = expansions_tagged(d)
    if len(pair) != 2:
        raise DiagramError("expected an edge-pair at %s, got %d expansions"
                           % (fmt(d), len(pair)))
    move, smaller = _orient_pair(d, pair)
    (da, ea, _), (db, eb, _) = pair
    if (da, ea) == (b, e):
        other, oe, b_small = db, eb, smaller == 0
    elif (db, eb) == (b, e):
        other, oe, b_small = da, ea, smaller == 1
    else:
        raise DiagramError("contract/expand mismatch at %s" % fmt(b))
    return move, other, oe, b_small


def _moves(b, up):
    """All (B', MoveStep) with b < B' (up) or B' < b (down) a single move."""
    if not is_binary(b):
        raise DiagramError("covers and cocovers need a binary diagram")
    out = []
    for e in edges(b):
        move, other, oe, b_small = _edge_pair(b, e)
        if b_small == up:
            out.append((other, MoveStep(move, e, oe)))
    out.sort(key=lambda pair: fmt(pair[0]))
    return tuple(out)


@lru_cache(maxsize=None)
def covers(b):
    """All (B', MoveStep) with b < B' an elementary move."""
    return _moves(b, True)


@lru_cache(maxsize=None)
def cocovers(b):
    """All (B', MoveStep) with B' < b an elementary move."""
    return _moves(b, False)


@lru_cache(maxsize=None)
def classify_edges(b):
    """-1 on the negative edges of binary `b`, the sites of its upward
    moves, and +1 on the others, the sites of its downward moves."""
    negative = {step.site for _b, step in covers(b)}
    return {e: -1 if e in negative else +1 for e in edges(b)}


def positive_edges(b):
    return frozenset(e for e, s in classify_edges(b).items() if s > 0)


def _reach(b, moves):
    """The diagrams reached from b by repeated `moves` (`covers` or
    `cocovers`), as a spanning tree: each maps to (parent, MoveStep), where
    (it, MoveStep) is the entry of `moves(parent)` that first reached it,
    and b maps to None."""
    tree = {b: None}
    stack = [b]
    while stack:
        x = stack.pop()
        for y, step in moves(x):
            if y not in tree:
                tree[y] = (x, step)
                stack.append(y)
    return tree


def tree_path(tree, b):
    """The move entries (B', MoveStep) along a tree of `_reach`, from its
    root to b."""
    if tree[b] is None:
        return []
    parent, step = tree[b]
    return tree_path(tree, parent) + [(b, step)]


@lru_cache(maxsize=None)
def _descendants(b):
    """All binary diagrams >= b (including b); the memo behind `leq`."""
    return frozenset(_reach(b, covers))


def leq(b1, b2):
    """Reachability of b2 from b1 by upward moves; both must be binary."""
    if shape_class(b1) != shape_class(b2):
        raise DiagramError("cannot compare diagrams of different shapes")
    if b2 in _descendants(b1):      # raises on a non-binary b1
        return True
    if not is_binary(b2):           # a reachable b2 is binary already
        raise DiagramError("covers and cocovers need a binary diagram")
    return False


def cells_below(t):
    """The tree of `_reach` over the down-set of t_min, and the cells S of
    t's shape class of complementary degree with S_max <= t_min, as pairs
    (S, S_max) in `enumerate_class` order of S.

    S_max = B exactly when S contracts only positive edges of B.  No B
    below t_min has more than edge_count(t) of them: t_min's are edges of
    t, and the count never rises going down a cocover (criterion 6,
    `verify.check_order`, checks it to 7 leaves; the tamari tests check
    the premise itself to 7).  So each cell is met once, as a B with
    exactly edge_count(t) positive edges contracted along all."""
    k = edge_count(t)
    tree = _reach(dmin(t), cocovers)
    cells = [(reduce(contract, pos, b), b) for b in tree
             if len(pos := positive_edges(b)) == k]
    cells.sort(key=lambda cell: fmt(cell[0]))
    return tree, cells


def below(t):
    """The cells S of `cells_below(t)`: the one reading of S_max <= t_min,
    behind p, the diagonal's support and the checks."""
    return [s for s, _b in cells_below(t)[1]]


def _left_comb(cs):
    return reduce(lambda acc, c: ThinTree((acc, c)), cs)


def _min_thin(t):
    return t if t.is_leaf else _left_comb([_min_thin(c) for c in t.children])


def _min_stack(stack):
    out = []
    for v in stack:
        if v.left:
            out.append(ModuleVertex(
                (_left_comb([_min_thin(t) for t in v.left]),), ()))
        out.extend(ModuleVertex((), (_min_thin(s),)) for s in reversed(v.right))
    return tuple(out)


@lru_cache(maxsize=None)
def dmin(d):
    """The unique minimal binary expansion of d."""
    if d.kind == TREE:
        return tree_diagram(_min_thin(d.payload))
    if d.kind == MODULE:
        return module_diagram(_min_stack(d.payload))
    inn = d.payload
    la = tuple(ModuleVertex((), (_min_thin(u),))
               for u in reversed(inn.up)) + _min_stack(inn.left_arm)
    ra = tuple(ModuleVertex((), (_min_thin(t),))
               for t in reversed(inn.down)) + _min_stack(inn.right_arm)
    return inner_diagram(la, (), ra, ())


@lru_cache(maxsize=None)
def dmax(d):
    """The unique maximal binary expansion of d: the reflection reverses
    the order, so it is the mirror of the minimum of the mirror."""
    return mirror(dmin(mirror(d)))


def poset_extremes(shape):
    """Unique source and sink of the cover relation, by exhaustive search."""
    nodes = enumerate_class(shape, 0)
    sources = [b for b in nodes if not cocovers(b)]
    sinks = [b for b in nodes if not covers(b)]
    if len(sources) != 1 or len(sinks) != 1:
        raise DiagramError("poset of %s has %d sources / %d sinks"
                           % (shape, len(sources), len(sinks)))
    return sources[0], sinks[0]
