"""Planar diagrams: trees, module trees and inner-product diagrams.

Three kinds of diagrams generate everything downstream:

* ``tree``   -- planar rooted trees, every internal vertex of valence >= 3;
* ``module`` -- a vertical thick line (root at the bottom, thick leaf at the
  top) carrying a stack of vertices, each with a forest of thin trees on its
  left and right;
* ``inner``  -- a horizontal thick line with a central vertex, two thick
  leaves at the ends, a left and a right arm (module stacks rooted at the
  center) and forests of thin trees attached above and below the center.

Leaves are numbered by the clockwise boundary walk: trees and module trees
left to right, inner diagrams starting at the left thick leaf, then the upper
leaves left to right, the right thick leaf, and the lower leaves right to
left.  Edges are identified by the set of leaf numbers lying outward of the
edge (away from the root, respectively away from the central vertex); these
sets are stable under contraction and expansion, which is what makes them
usable as orientation symbols.  They are read off the leaf addresses: each
leaf lists the edges between it and the root, and an edge's key is the set
of leaves that list it.  ``graft`` numbers the composite's leaves by
arithmetic on positions and ``perms.rotation``.

Conventions pinned here and validated by the test suite:

* forests of a module vertex are stored in planar left-to-right order
  (``left`` bottom-to-top along the thick line, ``right`` top-to-bottom);
* arm stacks of an inner diagram are stored root-first, i.e. the vertex
  nearest the center comes first; the left arm's right forests sit in the
  upper half-plane, the right arm's left forests likewise;
* lower forests of an inner diagram are stored as walked (right to left in
  the drawing), while the sequence of lower trees itself is kept in drawing
  order, so the boundary walk traverses ``reversed(down)``.

Nodes are interned (hash-consed): ``ThinTree``, ``ModuleVertex``,
``InnerData`` and ``Diagram`` each keep one table from their fields to the
node, so structurally equal nodes are one object and equal means identical.
Nodes are immutable, and copying or unpickling one returns the interned node.
Each node carries its leaf count from construction (``leaves``; a module
vertex ``nleft`` and ``nright`` for its two forests).  Hashes stay
structural, so set order repeats across interpreters under a fixed
``PYTHONHASHSEED``.  Edge keys are interned too (``_key``): equal keys are
one frozenset, however many diagrams, grafts and memo entries hold them.
``graft`` is memoized on (host, leaf, guest): its bookkeeping self-check
runs once per distinct triple, and the maps of the shared ``Graft`` it
returns are read-only.  ``graft``, ``cut`` and the images of q and p are
``scoped_memo`` memos, filed by leaf count, so ``release(n)`` drops every
entry about an n-leaf diagram and keeps the smaller ones.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache, update_wrapper
from types import MappingProxyType

from . import perms

THIN = 1
THICK = 2
EMPTY = 0

TREE = "tree"
MODULE = "module"
INNER = "inner"


class DiagramError(ValueError):
    pass


class ColorMismatch(DiagramError):
    """Raised when a graft target leaf and the grafted root disagree."""


# ---------------------------------------------------------------------------
# size-scoped memos

CacheInfo = namedtuple("CacheInfo", "hits misses currsize")

_SCOPED = []        # the `drop(n)` of every scoped memo, for `release`


def scoped_memo(size):
    """Memoize like ``lru_cache(maxsize=None)``, and file each entry under
    ``size(*args)``, the leaf count of the diagram it is about.  The memo
    offers ``cache_info``, ``cache_clear`` and ``sizes`` (the leaf counts it
    holds entries of); ``release(n)`` drops the n-leaf entries of all of
    them.  A hit is one dict lookup and one count."""
    def decorate(fn):
        memo, filed = {}, {}
        hits = misses = 0

        def miss(args):
            nonlocal misses
            misses += 1
            value = memo[args] = fn(*args)
            filed.setdefault(size(*args), []).append(args)
            return value

        def wrapper(*args):
            nonlocal hits
            try:
                value = memo[args]
            except KeyError:
                return miss(args)
            hits += 1
            return value

        def cache_info():
            return CacheInfo(hits, misses, len(memo))

        def cache_clear():
            nonlocal hits, misses
            memo.clear()
            filed.clear()
            hits = misses = 0

        def drop(n):
            for args in filed.pop(n, ()):
                del memo[args]

        update_wrapper(wrapper, fn)
        wrapper.cache_info = cache_info
        wrapper.cache_clear = cache_clear
        wrapper.sizes = lambda: sorted(filed)
        _SCOPED.append(drop)
        return wrapper
    return decorate


def release(n):
    """Drop the entries about n-leaf diagrams from every scoped memo.  Both
    parts of a cut have fewer leaves than the diagram, so a caller done
    with the n-leaf classes loses nothing the smaller ones reuse."""
    for drop in _SCOPED:
        drop(n)


# ---------------------------------------------------------------------------
# edge keys

_KEYS = {}


def _key(leaves):
    """The one frozenset of `leaves`: every edge key is built here, so
    equal keys are the same object.  Keys are cyclic leaf intervals, so the
    table stays small."""
    key = frozenset(leaves)
    return _KEYS.setdefault(key, key)


# ---------------------------------------------------------------------------
# interned nodes

class _Node:
    """Base of the four node classes.  Each class keeps one table from its
    fields to its node, and constructing a node that exists returns it, so
    equal nodes are identical and `==` is `is`.  The hash is structural, not
    `id`-based: set and dict order then repeat across interpreters under a
    fixed PYTHONHASHSEED."""

    __slots__ = ("_hash",)
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._table = {}

    @classmethod
    def _build(cls, values, hashed, **counts):
        """Make, store and return the node with fields `values`; `hashed`
        is the tuple its hash is taken of, `counts` its leaf counts."""
        node = object.__new__(cls)
        for name, value in zip(cls._fields, values):
            object.__setattr__(node, name, value)
        for name, value in counts.items():
            object.__setattr__(node, name, value)
        object.__setattr__(node, "_hash", hash(hashed))
        cls._table[values] = node
        return node

    def __setattr__(self, name, value):
        raise AttributeError("%s nodes are immutable" % type(self).__name__)

    def __delattr__(self, name):
        raise AttributeError("%s nodes are immutable" % type(self).__name__)

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild the node through its table
        return type(self), tuple(getattr(self, f) for f in self._fields)

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % (f, getattr(self, f)) for f in self._fields))


class ThinTree(_Node):
    __slots__ = ("children", "leaves")
    _fields = ("children",)

    def __new__(cls, children=()):
        values = (children,)
        node = cls._table.get(values)
        if node is None:
            if len(children) == 1:
                raise DiagramError("thin vertex needs at least 2 children")
            node = cls._build(values, ("t", children),
                              leaves=sum(c.leaves for c in children) or 1)
        return node

    @property
    def is_leaf(self):
        return not self.children


LEAF = ThinTree()


class ModuleVertex(_Node):
    """`nleft` and `nright` count the leaves of the two forests."""

    __slots__ = ("left", "right", "nleft", "nright")
    _fields = ("left", "right")

    def __new__(cls, left=(), right=()):
        values = (left, right)
        node = cls._table.get(values)
        if node is None:
            if len(left) + len(right) < 1:
                raise DiagramError("module vertex needs at least one thin tree")
            node = cls._build(values, ("v",) + values,
                              nleft=sum(t.leaves for t in left),
                              nright=sum(t.leaves for t in right))
        return node


class InnerData(_Node):
    __slots__ = ("left_arm", "up", "right_arm", "down", "leaves")
    _fields = ("left_arm", "up", "right_arm", "down")

    def __new__(cls, left_arm, up, right_arm, down):
        values = (left_arm, up, right_arm, down)
        node = cls._table.get(values)
        if node is None:
            node = cls._build(values, ("i",) + values, leaves=(
                2 + sum(v.nleft + v.nright for v in left_arm + right_arm)
                + sum(t.leaves for t in up + down)))
        return node


class Diagram(_Node):
    __slots__ = ("kind", "payload", "leaves")
    _fields = ("kind", "payload")

    def __new__(cls, kind, payload):
        values = (kind, payload)
        node = cls._table.get(values)
        if node is None:
            if kind == MODULE:
                leaves = 1 + sum(v.nleft + v.nright for v in payload)
            else:
                leaves = payload.leaves
            node = cls._build(values, values, leaves=leaves)
        return node

    def __repr__(self):
        return "Diagram(%r)" % fmt(self)


@dataclass(frozen=True)
class ShapeClass:
    kind: str
    params: tuple[int, ...]   # (n,) for trees, (j, k) for module/inner

    def __repr__(self):
        return "ShapeClass(%s, %s)" % (self.kind, self.params)


def tree_diagram(root):
    if root.is_leaf:
        raise DiagramError("a tree diagram needs at least 2 leaves")
    return Diagram(TREE, root)


def module_diagram(stack):
    stack = tuple(stack)
    if not stack:
        raise DiagramError("module diagrams need at least one thin leaf "
                           "(the (0,0)-corolla is excluded)")
    return Diagram(MODULE, stack)


def inner_diagram(left_arm, up, right_arm, down):
    return Diagram(INNER, InnerData(tuple(left_arm), tuple(up),
                                    tuple(right_arm), tuple(down)))


def tree_corolla(n):
    if n < 2:
        raise DiagramError("corolla T_n needs n >= 2")
    return tree_diagram(ThinTree((LEAF,) * n))


def _check_jk(j, k):
    if j < 0 or k < 0:
        raise DiagramError("shape parameters must be nonnegative")


def module_corolla(j, k):
    _check_jk(j, k)
    return module_diagram((ModuleVertex((LEAF,) * j, (LEAF,) * k),))


def inner_corolla(j, k):
    _check_jk(j, k)
    return inner_diagram((), (LEAF,) * j, (), (LEAF,) * k)


# ---------------------------------------------------------------------------
# serialization

def _fmt_thin(t):
    if t.is_leaf:
        return "*"
    return "(" + " ".join(_fmt_thin(c) for c in t.children) + ")"


def _fmt_module(stack):
    if not stack:
        return "|"
    v = stack[0]
    return "{%s ; %s ; %s}" % (" ".join(_fmt_thin(t) for t in v.left),
                               _fmt_module(stack[1:]),
                               " ".join(_fmt_thin(t) for t in v.right))


@lru_cache(maxsize=None)
def fmt(d):
    """Canonical serialization; ``parse(fmt(d)) == d``.  Memoized: it is
    the sort key of `expansions` and `enumerate_class`, and interned
    diagrams are cheap keys."""
    if d.kind == TREE:
        return _fmt_thin(d.payload)
    if d.kind == MODULE:
        return _fmt_module(d.payload)
    inn = d.payload
    return "<%s ; %s ; %s ; %s>" % (_fmt_module(inn.left_arm),
                                    " ".join(_fmt_thin(t) for t in inn.up),
                                    _fmt_module(inn.right_arm),
                                    " ".join(_fmt_thin(t) for t in inn.down))


class _Parser:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def error(self, msg):
        raise DiagramError("parse error at position %d: %s" % (self.pos, msg))

    def peek(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch):
        if self.peek() != ch:
            self.error("expected %r" % ch)
        self.pos += 1

    def thin(self):
        ch = self.peek()
        if ch == "*":
            self.pos += 1
            return LEAF
        if ch == "(":
            self.pos += 1
            children = []
            while self.peek() != ")":
                if not self.peek():
                    self.error("unterminated '('")
                children.append(self.thin())
            self.pos += 1
            if len(children) < 2:
                self.error("thin vertex needs at least 2 children")
            return ThinTree(tuple(children))
        self.error("expected thin tree")

    def thin_forest(self, stop):
        trees = []
        while self.peek() not in stop:
            if not self.peek():
                self.error("unterminated forest")
            trees.append(self.thin())
        return tuple(trees)

    def module(self):
        ch = self.peek()
        if ch == "|":
            self.pos += 1
            return ()
        if ch == "{":
            self.pos += 1
            left = self.thin_forest(";")
            self.expect(";")
            child = self.module()
            self.expect(";")
            right = self.thin_forest("}")
            self.expect("}")
            return (ModuleVertex(left, right),) + child
        self.error("expected module tree")

    def diagram(self):
        ch = self.peek()
        if ch == "<":
            self.pos += 1
            la = self.module()
            self.expect(";")
            up = self.thin_forest(";")
            self.expect(";")
            ra = self.module()
            self.expect(";")
            down = self.thin_forest(">")
            self.expect(">")
            return inner_diagram(la, up, ra, down)
        if ch in "|{":
            return module_diagram(self.module())
        return tree_diagram(self.thin())


def parse(text):
    p = _Parser(text)
    d = p.diagram()
    p.peek()
    if p.pos != len(text):
        p.error("trailing input")
    return d


# ---------------------------------------------------------------------------
# leaves, colors, degrees

def leaf_count(d):
    return d.leaves


def edge_count(d):
    return len(edge_locs(d))


def degree(d):
    return leaf_count(d) - edge_count(d) - 2


def is_binary(d):
    return degree(d) == 0


def is_corolla(d):
    return edge_count(d) == 0


def shape_class(d):
    if d.kind == TREE:
        return ShapeClass(TREE, (d.leaves,))
    if d.kind == MODULE:
        return ShapeClass(MODULE, (sum(v.nleft for v in d.payload),
                                   sum(v.nright for v in d.payload)))
    inn = d.payload
    j = (sum(t.leaves for t in inn.up) + sum(v.nright for v in inn.left_arm)
         + sum(v.nleft for v in inn.right_arm))
    k = (sum(t.leaves for t in inn.down) + sum(v.nleft for v in inn.left_arm)
         + sum(v.nright for v in inn.right_arm))
    return ShapeClass(INNER, (j, k))


def corolla_of(shape):
    if shape.kind == TREE:
        return tree_corolla(shape.params[0])
    if shape.kind == MODULE:
        return module_corolla(*shape.params)
    return inner_corolla(*shape.params)


# The most leaves a shape class may have where a whole class is built on
# request: the command line and the homology complexes.  The rest of the
# library takes any size.
SIZE_CAP = 8


def check_size_cap(shape):
    """Refuse a shape class of more than SIZE_CAP leaves.  The count comes
    from the parameters, so an oversized class costs nothing to refuse."""
    n = sum(shape.params) + {TREE: 0, MODULE: 1, INNER: 2}[shape.kind]
    if n > SIZE_CAP:
        raise DiagramError("shape class exceeds the size cap of %d leaves"
                           % SIZE_CAP)


def shapes_up_to(max_leaves, kinds=(TREE, MODULE, INNER)):
    """Every shape class with at most `max_leaves` leaves: trees, then
    module and inner classes by total arity."""
    out = []
    if TREE in kinds:
        for n in range(2, max_leaves + 1):
            out.append(ShapeClass(TREE, (n,)))
    if MODULE in kinds:
        for total in range(1, max_leaves):
            for j in range(total + 1):
                out.append(ShapeClass(MODULE, (j, total - j)))
    if INNER in kinds:
        for total in range(0, max_leaves - 1):
            for j in range(total + 1):
                out.append(ShapeClass(INNER, (j, total - j)))
    return [s for s in out if leaf_count(corolla_of(s)) <= max_leaves]


def root_color(d):
    return {TREE: THIN, MODULE: THICK, INNER: EMPTY}[d.kind]


# ---------------------------------------------------------------------------
# canonical leaf order
#
# Leaf addresses:
#   tree:    ("t",) + path of child indices
#   module:  ("thick",) | ("L", vi, ti) + path | ("R", vi, ti) + path
#   inner:   ("la",) + module address | ("ra",) + module address
#            | ("up", i) + path | ("dn", i) + path

def _thin_addresses(t, prefix):
    if t.is_leaf:
        return [prefix]
    out = []
    for i, c in enumerate(t.children):
        out.extend(_thin_addresses(c, prefix + (i,)))
    return out


def _stack_addresses(stack):
    pre, post = [], []
    for vi, v in enumerate(stack):
        for ti, t in enumerate(v.left):
            pre.extend(_thin_addresses(t, ("L", vi, ti)))
    for vi in range(len(stack) - 1, -1, -1):
        for ti, t in enumerate(stack[vi].right):
            post.extend(_thin_addresses(t, ("R", vi, ti)))
    return pre + [("thick",)] + post


@lru_cache(maxsize=None)
def canonical_addresses(d):
    """Leaf addresses in canonical (clockwise boundary walk) order."""
    if d.kind == TREE:
        return tuple(_thin_addresses(d.payload, ("t",)))
    if d.kind == MODULE:
        return tuple(_stack_addresses(d.payload))
    inn = d.payload
    la = _stack_addresses(inn.left_arm)
    cut = la.index(("thick",))
    la_pre, la_post = la[:cut], la[cut + 1:]
    order = [("la", "thick")]
    order.extend(("la",) + a for a in la_post)
    for i, t in enumerate(inn.up):
        order.extend(_thin_addresses(t, ("up", i)))
    order.extend(("ra",) + a for a in _stack_addresses(inn.right_arm))
    for i in range(len(inn.down) - 1, -1, -1):
        order.extend(_thin_addresses(inn.down[i], ("dn", i)))
    order.extend(("la",) + a for a in la_pre)
    return tuple(order)


def leaf_color(addr):
    return THICK if addr[-1] == "thick" else THIN


@lru_cache(maxsize=None)
def canonical_colors(d):
    return tuple(leaf_color(a) for a in canonical_addresses(d))


# ---------------------------------------------------------------------------
# edges
#
# Edge locations:
#   ("thin", prefix)        thin edge above the subtree at leaf-address prefix
#   ("thick", wrap, i)      thick edge below vertex i of the stack `wrap` (see
#                           _stacks); a module diagram has none below vertex
#                           0, an arm's edge 0 joins it to the central vertex

def fmt_edge(key, n):
    """Render an outward leaf set as a cyclic interval ``a-b``."""
    labels = sorted(key)
    if len(labels) == labels[-1] - labels[0] + 1:
        return "%d-%d" % (labels[0], labels[-1])
    s = set(labels)
    starts = [a for a in labels if (a - 2) % n + 1 not in s]
    if len(starts) != 1:
        raise DiagramError("edge key %s is not a cyclic interval" % labels)
    a = starts[0]
    b = (a + len(labels) - 2) % n + 1
    return "%d-%d" % (a, b)


def parse_edge(text, n):
    try:
        a, b = (int(x) for x in text.split("-"))
    except ValueError:
        raise DiagramError("edges are leaf intervals like 2-4, not %r"
                           % text) from None
    if not (1 <= a <= n and 1 <= b <= n):
        raise DiagramError("edge endpoints are leaves 1..%d, not %r"
                           % (n, text))
    out = []
    x = a
    while True:
        out.append(x)
        if x == b:
            break
        x = x % n + 1
    return _key(out)


@lru_cache(maxsize=None)
def edge_locs(d):
    """Mapping edge key -> structural location, for all internal edges.

    Each leaf lists the edges below it: the thick edges of its stack up to
    its vertex (a thick leaf: all of them), then the thin edges on its path.
    An edge's key is the set of positions of the leaves that list it; the
    mapping lists the keys in canonical order (see `edges`)."""
    above = {}
    for p, addr in enumerate(canonical_addresses(d), 1):
        wrap = addr[:1] if addr[0] in ("la", "ra") else ()
        head, base = addr[len(wrap)], 2     # trees at ("t"|"up"|"dn", i)
        if head in ("thick", "L", "R"):
            top = (len(_stack_at(d, wrap)) - 1 if head == "thick"
                   else addr[len(wrap) + 1])
            for i in range(0 if wrap else 1, top + 1):
                above.setdefault(("thick", wrap, i), []).append(p)
            base = len(wrap) + 3            # trees at wrap + (side, vi, ti)
        for k in range(base, len(addr)):
            above.setdefault(("thin", addr[:k]), []).append(p)
    locs = {_key(ps): loc for loc, ps in above.items()}
    if len(locs) != len(above):
        raise DiagramError("edge keys collide on %s" % fmt(d))
    return dict(sorted(locs.items(), key=lambda kv: sorted(kv[0])))


def edges(d):
    """The edge keys of `d` in canonical order, ascending by their sorted
    leaf positions; a fresh list each call, read off `edge_locs`."""
    return list(edge_locs(d))


# ---------------------------------------------------------------------------
# rebuilding along a path

def _thin_at(t, path):
    for i in path:
        t = t.children[i]
    return t


def _thin_replace_at(t, path, sub):
    """`t` with its subtree at `path` replaced by `sub`."""
    if not path:
        return sub
    i = path[0]
    cs = list(t.children)
    cs[i] = _thin_replace_at(cs[i], path[1:], sub)
    return ThinTree(tuple(cs))


def _forest_splice(forest, i, pieces):
    return forest[:i] + tuple(pieces) + forest[i + 1:]


def _with_forest(stack, vi, side, forest):
    """`stack` with the `side` ("L" or "R") forest of vertex vi replaced."""
    v = stack[vi]
    nv = (ModuleVertex(forest, v.right) if side == "L"
          else ModuleVertex(v.left, forest))
    return stack[:vi] + (nv,) + stack[vi + 1:]


_PART = {"la": 0, "up": 1, "ra": 2, "dn": 3}


def _part(inn, tag):
    """The left arm, upper forest, right arm or lower forest of `inn`."""
    return (inn.left_arm, inn.up, inn.right_arm, inn.down)[_PART[tag]]


def _with_part(inn, tag, value):
    parts = [inn.left_arm, inn.up, inn.right_arm, inn.down]
    parts[_PART[tag]] = value
    return inner_diagram(*parts)


def _stacks(d):
    """The thick-line stacks of `d` as (wrap, stack) pairs: ((), payload)
    for a module diagram, (("la",), left arm) and (("ra",), right arm) for
    an inner diagram, none for a tree.  `wrap` prefixes the addresses and
    edge locations inside the stack."""
    if d.kind == MODULE:
        return (((), d.payload),)
    if d.kind == INNER:
        return ((("la",), d.payload.left_arm), (("ra",), d.payload.right_arm))
    return ()


def _stack_at(d, wrap):
    return _part(d.payload, wrap[0]) if wrap else d.payload


def _with_stack(d, wrap, stack):
    """`d` with the stack `wrap` replaced."""
    if wrap:
        return _with_part(d.payload, wrap[0], stack)
    return module_diagram(stack)


def _replace_forest(d, addr, fn):
    """Rebuild `d` with the thin tree t named by the head of `addr` replaced
    by the trees fn(t, path), where path is the rest of `addr` below t.

    `addr` is a leaf address or the prefix of a thin edge location.  A tree
    diagram counts as a forest of one tree; there fn must return one tree.
    """
    if d.kind == TREE:
        (t,) = fn(d.payload, addr[1:])
        return tree_diagram(t)
    if addr[0] in ("up", "dn"):
        inn, tag, ti = d.payload, addr[0], addr[1]
        forest = _part(inn, tag)
        return _with_part(inn, tag,
                          _forest_splice(forest, ti, fn(forest[ti], addr[2:])))
    wrap = addr[:1] if addr[0] in ("la", "ra") else ()
    stack, addr = _stack_at(d, wrap), addr[len(wrap):]
    side, vi, ti = addr[:3]
    forest = stack[vi].left if side == "L" else stack[vi].right
    return _with_stack(d, wrap, _with_forest(stack, vi, side, _forest_splice(
        forest, ti, fn(forest[ti], addr[3:]))))


# ---------------------------------------------------------------------------
# contraction

def _thin_contract(t, path):
    # collapse the edge above the vertex at `path` (path nonempty)
    parent, i = _thin_at(t, path[:-1]), path[-1]
    merged = (parent.children[:i] + parent.children[i].children
              + parent.children[i + 1:])
    return _thin_replace_at(t, path[:-1], ThinTree(merged))


def _merge_vertices(lower, upper):
    return ModuleVertex(lower.left + upper.left, upper.right + lower.right)


def _stack_merge(stack, i):
    return stack[:i - 1] + (_merge_vertices(stack[i - 1], stack[i]),) + stack[i + 1:]


@lru_cache(maxsize=None)
def contract(d, key):
    """Collapse the internal edge `key`; all other edge keys are unchanged."""
    loc = edge_locs(d).get(key)
    if loc is None:
        raise DiagramError("unknown edge %s on %s" % (sorted(key), fmt(d)))
    if loc[0] == "thin":
        # a forest root dissolves into its forest; lower forests are stored
        # as walked, so their children join in reverse
        reverse = loc[1][0] == "dn"

        def collapse(t, path):
            if path:
                return (_thin_contract(t, path),)
            return tuple(reversed(t.children)) if reverse else t.children

        return _replace_forest(d, loc[1], collapse)
    _thick, wrap, i = loc
    stack = _stack_at(d, wrap)
    if i > 0:
        return _with_stack(d, wrap, _stack_merge(stack, i))
    # an arm's edge 0: the forests of its innermost vertex join the center
    inn, v0 = _with_stack(d, wrap, stack[1:]).payload, stack[0]
    if wrap == ("la",):
        return inner_diagram(inn.left_arm, v0.right + inn.up, inn.right_arm,
                             tuple(reversed(v0.left)) + inn.down)
    return inner_diagram(inn.left_arm, inn.up + v0.left, inn.right_arm,
                         inn.down + tuple(reversed(v0.right)))


# ---------------------------------------------------------------------------
# expansions
#
# All (D', e') with D'/e' = D.  Tags record the junction type so the order
# module can orient edge-pairs:
#   "group"   a consecutive run grouped under a new thin vertex
#   "split"   a module/arm vertex split in two (a, b = forests kept below/above)
#   "cleft"   a run of central forests moved onto a new innermost left-arm vertex
#   "cright"  same, onto the right arm

def _forest_expansions(forest, whole=True, reverse=False):
    """Every forest one thin edge away from `forest`: a consecutive run of
    its trees grouped under a new vertex, or the same inside one tree.  The
    run may be the whole forest only if `whole` (never the children of a
    vertex); a lower forest, stored as walked, groups its run reversed."""
    out = []
    r = len(forest)
    for a in range(r):
        for b in range(a + 2, r + 1):
            if whole or b - a < r:
                run = forest[a:b][::-1] if reverse else forest[a:b]
                out.append(forest[:a] + (ThinTree(run),) + forest[b:])
    for i, t in enumerate(forest):
        out.extend(forest[:i] + (ThinTree(cs),) + forest[i + 1:]
                   for cs in _forest_expansions(t.children, whole=False))
    return out


def _vertex_splits(v):
    # all ways to split a module vertex into (lower, upper)
    out = []
    nl, nr = len(v.left), len(v.right)
    for a in range(nl + 1):
        for b in range(nr + 1):
            lower_l, upper_l = v.left[:a], v.left[a:]
            upper_r, lower_r = v.right[:b], v.right[b:]
            if not lower_l and not lower_r:
                continue
            if not upper_l and not upper_r:
                continue
            out.append((ModuleVertex(lower_l, lower_r),
                        ModuleVertex(upper_l, upper_r), (a, b)))
    return out


def _central_splits(inn):
    out = []
    nu, nd = len(inn.up), len(inn.down)
    for i in range(nu + 1):          # up prefix -> left arm
        for j in range(nd + 1):      # down prefix -> left arm
            if i + j == 0:
                continue
            nv = ModuleVertex(tuple(reversed(inn.down[:j])), inn.up[:i])
            d2 = inner_diagram((nv,) + inn.left_arm, inn.up[i:],
                               inn.right_arm, inn.down[j:])
            out.append((d2, "cleft"))
    for i in range(nu + 1):          # up suffix -> right arm
        for j in range(nd + 1):      # down suffix -> right arm
            if (nu - i) + (nd - j) == 0:
                continue
            nv = ModuleVertex(inn.up[i:], tuple(reversed(inn.down[j:])))
            d2 = inner_diagram(inn.left_arm, inn.up[:i],
                               (nv,) + inn.right_arm, inn.down[:j])
            out.append((d2, "cright"))
    return out


def _expansions_tagged(d):
    if d.kind == TREE:
        return [(tree_diagram(ThinTree(cs)), "group")
                for cs in _forest_expansions(d.payload.children, whole=False)]
    out = []
    for wrap, stack in _stacks(d):
        for vi, v in enumerate(stack):
            for lower, upper, ab in _vertex_splits(v):
                out.append((_with_stack(d, wrap, stack[:vi] + (lower, upper)
                                        + stack[vi + 1:]), ("split",) + ab))
            for side, forest in (("L", v.left), ("R", v.right)):
                for f in _forest_expansions(forest):
                    out.append((_with_stack(
                        d, wrap, _with_forest(stack, vi, side, f)), "group"))
    if d.kind == INNER:
        inn = d.payload
        out.extend(_central_splits(inn))
        for tag in ("up", "dn"):
            out.extend((_with_part(inn, tag, f), "group") for f in
                       _forest_expansions(_part(inn, tag), reverse=tag == "dn"))
    return out


@lru_cache(maxsize=None)
def expansions_tagged(d):
    """All (D', e', junction tag) with D'/e' = d, deterministically ordered."""
    old = set(edge_locs(d))
    result = []
    for d2, tag in _expansions_tagged(d):
        new = set(edge_locs(d2)) - old
        if len(new) != 1:
            raise DiagramError("expansion of %s gained %d edges" %
                               (fmt(d), len(new)))
        result.append((d2, next(iter(new)), tag))
    result.sort(key=lambda item: (fmt(item[0]), sorted(item[1])))
    if len({item[:2] for item in result}) != len(result):
        raise DiagramError("duplicate expansions of %s" % fmt(d))
    return tuple(result)


@lru_cache(maxsize=None)
def expansions(d):
    """All (D', e') with D'/e' = d, deterministically ordered."""
    return tuple((d2, e2) for d2, e2, _tag in expansions_tagged(d))


# ---------------------------------------------------------------------------
# grafting and cutting

@dataclass(frozen=True)
class Graft:
    """A memoized graft; its maps are read-only views, shared by every
    caller that grafts the same (host, leaf, guest)."""

    diagram: Diagram
    new_edge: frozenset
    host_pos: MappingProxyType     # host leaf position -> composite position (graft leaf dropped)
    guest_pos: MappingProxyType    # guest leaf position -> composite position
    host_edges: MappingProxyType   # host edge key -> composite edge key
    guest_edges: MappingProxyType  # guest edge key -> composite edge key
    rot: int                       # cyclic shift applied to the spliced leaf order


def _splice_structure(d, pos, e):
    """Plug diagram `e` into leaf `pos` of `d`; returns the composite."""
    addr = canonical_addresses(d)[pos - 1]
    if leaf_color(addr) == THIN:
        if e.kind != TREE:
            raise ColorMismatch("thin leaf takes a tree")
        return _replace_forest(
            d, addr, lambda t, path: (_thin_replace_at(t, path, e.payload),))
    if e.kind != MODULE:
        raise ColorMismatch("thick leaf takes a module tree")
    wrap = addr[:-1]                # the thick leaf tops the stack `wrap`
    return _with_stack(d, wrap, _stack_at(d, wrap) + e.payload)


@scoped_memo(lambda d, pos, e: d.leaves + e.leaves - 1)
def graft(d, pos, e):
    """Attach the root of `e` to leaf `pos` of `d` (spec operation).

    Memoized, filed under the composite's leaf count: the bookkeeping
    self-check below runs once per distinct (d, pos, e), and later calls
    return the same `Graft`.
    """
    if e.kind == INNER:
        raise ColorMismatch("inner-product diagrams cannot be grafted")
    k, l = leaf_count(d), leaf_count(e)
    if not 1 <= pos <= k:
        raise DiagramError("leaf position out of range")
    composite = _splice_structure(d, pos, e)

    # the guest's leaves replace leaf `pos`; grafted onto the left arm's
    # thick leaf (position 1), the walk starts at the guest's thick leaf,
    # which follows its `rot` left-forest leaves
    rot = (sum(v.nleft for v in e.payload)
           if d.kind == INNER and pos == 1 else 0)
    shift = perms.rotation(k + l - 1, rot)
    host_pos = {j: shift[j - 1 if j < pos else j + l - 2]
                for j in range(1, k + 1) if j != pos}
    guest_pos = {i: shift[pos + i - 2] for i in range(1, l + 1)}

    guest_all = _key(guest_pos.values())
    host_edges = {}
    for key in edge_locs(d):
        new = frozenset(host_pos[p] for p in key if p != pos)
        host_edges[key] = _key(new | guest_all if pos in key else new)
    guest_edges = {key: _key(guest_pos[p] for p in key)
                   for key in edge_locs(e)}

    expected = set(host_edges.values()) | set(guest_edges.values()) | {guest_all}
    actual = set(edge_locs(composite))
    if expected != actual:
        raise DiagramError("graft bookkeeping failed on %s" % fmt(composite))
    return Graft(composite, guest_all, MappingProxyType(host_pos),
                 MappingProxyType(guest_pos), MappingProxyType(host_edges),
                 MappingProxyType(guest_edges), rot)


def labeled_graft(x, i, y):
    """Graft labeled generator `y` into input `i` of `x`.

    Both carry a `diagram` and a labeling `perm` (input j attaches at
    canonical position perm[j-1]).  Returns (Graft, labeling of the
    composite), or None when the root of `y` does not fit that leaf.
    """
    k = leaf_count(x.diagram)
    if not 1 <= i <= k:
        raise DiagramError("input index out of range")
    p = x.perm[i - 1]
    if (y.diagram.kind == INNER
            or canonical_colors(x.diagram)[p - 1] != root_color(y.diagram)):
        return None
    g = graft(x.diagram, p, y.diagram)
    perm = ([g.host_pos[q] for q in x.perm[:i - 1]]
            + [g.guest_pos[q] for q in y.perm]
            + [g.host_pos[q] for q in x.perm[i:]])
    return g, tuple(perm)


@dataclass(frozen=True)
class Cut:
    host: Diagram         # diagram with the outward part replaced by a leaf
    pos: int              # canonical position of that leaf in `host`
    outer: Diagram        # the part outward of the edge
    graft: Graft          # graft(host, pos, outer), reproducing the original


@scoped_memo(lambda d, key: d.leaves)
def cut(d, key):
    """Sever the internal edge `key`, undoing `graft` at that edge.

    Memoized like `graft`, filed under the leaf count of `d`: the
    self-check below runs once per distinct (d, key), and later calls
    return the same `Cut`.
    """
    loc = edge_locs(d)[key]
    if loc[0] == "thin":
        severed = []

        def sever(t, path):
            severed.append(_thin_at(t, path))
            return (_thin_replace_at(t, path, LEAF),)

        host = _replace_forest(d, loc[1], sever)
        outer = tree_diagram(severed[0])
    else:
        _thick, wrap, i = loc
        stack = _stack_at(d, wrap)
        host = _with_stack(d, wrap, stack[:i])
        outer = module_diagram(stack[i:])
    # the left arm's graft leaf is the first leaf, its thick leaf
    pos = 1 if loc[:2] == ("thick", ("la",)) else min(key)
    g = graft(host, pos, outer)
    if g.diagram != d or g.new_edge != key:
        raise DiagramError("cut/graft mismatch on %s at %s" %
                           (fmt(d), sorted(key)))
    return Cut(host, pos, outer, g)


# ---------------------------------------------------------------------------
# enumeration and rotation

@lru_cache(maxsize=None)
def enumerate_class(shape, deg):
    """All diagrams in `shape` of the given degree, lexicographically ordered."""
    c = corolla_of(shape)
    top = degree(c)
    if not 0 <= deg <= top:
        return ()
    layer = {c}
    for _ in range(top - deg):
        layer = {d2 for d in layer for d2, _e in expansions(d)}
    return tuple(sorted(layer, key=fmt))


def rotate180(d):
    """Rotate an inner diagram by half a turn; an involution."""
    if d.kind != INNER:
        raise DiagramError("rotate180 needs an inner diagram")
    inn = d.payload
    return inner_diagram(inn.right_arm, tuple(reversed(inn.down)),
                         inn.left_arm, tuple(reversed(inn.up)))
