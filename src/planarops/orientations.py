"""Wedge orientations of diagram edges and the induced-orientation calculus.

An orientation is a sign together with an ordered wedge of edge keys; the
canonical form sorts the keys and folds the permutation parity into the
sign.  ``None`` stands for the zero orientation (a repeated factor).

The base orientation ``xi`` of a binary diagram is +1 on two-leaf corollas
and propagates through grafting with the sign of the signed operadic
composition; ``omega_std`` differs from it by the global factor
(-1)^((n-2)(n-3)/2).  Transfer along a single local move negates an
orientation under the move's edge identification, and these two descriptions
agree, which the test suite checks move by move.

``omega_sd(S, D, omega_D, path)`` is the orientation a summand S of the projection
of a fully metric generator D inherits: the positive edges of D_min (the
edges of D) are carried down a path of moves to the positive edges of
S_max and contracted out of xi(S_max).  Every path down gives the same
orientation, so p takes the tree path of `tamari.cells_below`;
`verify.check_orientations` compares several.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import perms
from .diagrams import (
    DiagramError, cut, degree, edges, fmt, is_binary, leaf_count,
)
from .tamari import dmax, dmin, positive_edges


@dataclass(frozen=True)
class Orientation:
    sign: int
    keys: tuple            # strictly increasing in the lexicographic key order

    def __neg__(self):
        return Orientation(-self.sign, self.keys)


class Generator:
    """Base of `operad_c.CGenerator` and `operad_q.QGenerator`: a diagram, a
    labeling and the sorted edge keys its orientation wedges over, with the
    sign left to the coefficient of the enclosing sum.

    Generators are immutable.  The hash is that of the field tuple, taken
    once at construction; `==` asks for the same class and equal fields.
    Each subclass names the `wedge` slot after its own meaning."""

    __slots__ = ("diagram", "perm", "wedge", "_hash")

    def __init__(self, diagram, perm, wedge):
        _set_diagram(self, diagram)
        _set_perm(self, perm)
        _set_wedge(self, wedge)
        _set_hash(self, hash((diagram, perm, wedge)))

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __delattr__(self, name):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return (self._hash == other._hash and self.diagram == other.diagram
                and self.perm == other.perm and self.wedge == other.wedge)

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild the generator through __init__
        return type(self), (self.diagram, self.perm, self.wedge)


# the slot setters write past the immutable __setattr__, and are cheaper
# than object.__setattr__ on the tens of thousands of generators a complex
# builds
_set_diagram = Generator.diagram.__set__
_set_perm = Generator.perm.__set__
_set_wedge = Generator.wedge.__set__
_set_hash = Generator._hash.__set__


def orient(keys, sign=1):
    """Normalize a wedge of edge keys; None when a factor repeats.  The
    keys sort as in `diagrams.edges`, and the parity of the sort joins the
    sign.  Edge keys are cyclic leaf intervals, so few wedges are distinct:
    each `(keys, sign)` is normalized once and its frozen Orientation
    shared."""
    return _orient(tuple(keys), sign)


@lru_cache(maxsize=None)
def _orient(keys, sign):
    if len(set(keys)) != len(keys):
        return None
    order = sorted(range(len(keys)), key=lambda i: sorted(keys[i]))
    return Orientation(sign * perms.parity(order),
                       tuple([keys[i] for i in order]))


def wedge(a, b):
    """Concatenate two orientations; None on a repeated edge."""
    if a is None or b is None:
        return None
    return orient(a.keys + b.keys, a.sign * b.sign)


def pair_contract(sub, full):
    """The contraction sub -| full.

    Bringing the factors of `sub` (in sub's order) to the front of `full`
    and stripping them costs (-1)^(r(r-1)/2) on top of the reordering
    parity.
    """
    if sub is None or full is None:
        return None
    if not set(sub.keys) <= set(full.keys):
        raise DiagramError("contraction of a non-subset")
    rest = [k for k in full.keys if k not in set(sub.keys)]
    target = list(sub.keys) + rest
    index = {k: i for i, k in enumerate(full.keys)}
    parity = perms.parity([index[k] for k in target])
    r = len(sub.keys)
    sign = sub.sign * full.sign * parity * (-1) ** (r * (r - 1) // 2)
    return Orientation(sign, tuple(rest))


def transfer(o, step):
    """Carry an orientation across one local move (negates it)."""
    if o is None:
        return None
    return orient([step.apply(k) for k in o.keys], -o.sign)


def graft_wedge(g, host_keys, guest_keys, new_edge):
    """The wedge of host keys, then guest keys, then (if `new_edge`) the
    edge the graft creates, carried into the composite of Graft `g`."""
    return orient([g.host_edges[k] for k in host_keys]
                  + [g.guest_edges[k] for k in guest_keys]
                  + ([g.new_edge] if new_edge else []))


# ---------------------------------------------------------------------------
# the decomposition step
#
# Cutting a diagram at an edge writes it as a graft of the two parts; a
# wedge `keys` of its edges splits into the keys each part carries.
# `decompose_step` is the first node of a generator's decomposition: the
# relabeling of an identity-labeled generator, a leaf when the operad's cut
# set is empty, or else one cut with the sign and the rotation that turn
# the composite of the parts back into it.  Each operad names its cut set
# and its signs once (`operad_c.decompose_corollas`,
# `operad_q.decompose_nonmetric`), and `formal.evaluate` values one node
# from the values of its children, so q, p and the endomorphism evaluation
# are each one memoized recursion.  xi takes one cut too.


def split(d, e, keys):
    """Cut `d` at edge `e` and share the sorted wedge `keys` between the
    parts.

    Returns (cut, host keys, outer keys, sign): the sorted edges of each
    part that land in `keys`, and the parity of their mapped wedge (host
    keys, outer keys, then `e` when `e` is one of `keys`) against `keys`.
    """
    c = cut(d, e)
    chosen, g = set(keys), c.graft
    host = tuple(k for k in edges(c.host) if g.host_edges[k] in chosen)
    outer = tuple(k for k in edges(c.outer) if g.guest_edges[k] in chosen)
    o = graft_wedge(g, host, outer, e in keys)
    if o is None or o.keys != tuple(keys):
        raise DiagramError("edge bookkeeping failed in decomposition")
    return c, host, outer, o.sign


def composition_sign(c, n):
    """(-1)^(i(l+1) + k deg(outer) + rot(n-1)) for the cut `c` of an n-leaf
    diagram: the sign of the i-th composition of the k-leaf host with the
    l-leaf outer part, and of the rotation that undoes the graft's shift."""
    i, l, k = c.pos, leaf_count(c.outer), leaf_count(c.host)
    return (-1) ** (i * (l + 1) + k * degree(c.outer) + c.graft.rot * (n - 1))


def decompose_step(gen, cuttable, sign, act_sign):
    """The first node (coef, node) of the decomposition of `gen`, its
    children generators of gen's type (see formal.py):

        ("act", perm, base)       gen = coef * perm . base, for a relabeled
                                  gen; base is it with identity labeling
        ("leaf", diagram)         `cuttable(gen)` is empty
        ("compose", host, pos, outer, sigma)
                                  gen = coef * sigma . (host o_pos outer),
                                  cut at the first edge of `cuttable(gen)`

    `act_sign(perm)` is the coefficient of a relabeling, and `sign(cut, n)`
    that of a composition, which the split's parity joins.  sigma undoes
    the graft's rotation (None when there is none); host and outer are
    identity-labeled, with the keys `split` gives them."""
    n = len(gen.perm)
    ident = perms.identity(n)
    kind = type(gen)
    if gen.perm != ident:
        return (act_sign(gen.perm),
                ("act", gen.perm, kind(gen.diagram, ident, gen.wedge)))
    cuts = cuttable(gen)
    if not cuts:
        return (1, ("leaf", gen.diagram))
    c, host, outer, parity = split(gen.diagram, cuts[0], gen.wedge)
    rot = c.graft.rot
    sigma = perms.invert(perms.rotation(n, rot)) if rot else None
    k, l = leaf_count(c.host), leaf_count(c.outer)
    return (parity * sign(c, n),
            ("compose", kind(c.host, perms.identity(k), host), c.pos,
             kind(c.outer, perms.identity(l), outer), sigma))


@lru_cache(maxsize=None)
def xi(d):
    """Base orientation of a binary diagram, +1 on two-leaf corollas."""
    return xi_via(d, None)


def xi_via(d, edge):
    """xi split at `edge` (the first edge when None), with the parts' xi
    from the cache; path independence means every edge gives xi."""
    if not is_binary(d):
        raise DiagramError("xi needs a binary diagram")
    es = tuple(edges(d))
    if not es:
        return Orientation(1, ())
    c, _host, _outer, parity = split(d, es[0] if edge is None else edge, es)
    sign = xi(c.host).sign * xi(c.outer).sign * parity \
        * composition_sign(c, leaf_count(d))
    return Orientation(sign, es)


@lru_cache(maxsize=None)
def omega_std(d):
    """Standard orientation: (-1)^((n-2)(n-3)/2) * xi."""
    n = leaf_count(d)
    x = xi(d)
    return Orientation(x.sign * (-1) ** ((n - 2) * (n - 3) // 2), x.keys)


def omega_sd(s, d, omega_d, path):
    """Induced orientation on the edges of `s`, for S_max <= D_min.

    `omega_d` is the metric orientation of the fully metric generator on
    `d`; its keys must be exactly the edges of `d`, which must also be the
    positive edges of dmin(d).  `path` lists the moves from dmin(d) down
    to dmax(s) as entries (B', MoveStep) of `tamari.cocovers`; each trades
    the positive edge at its site for one of B'.
    """
    d_min, s_max = dmin(d), dmax(s)
    own = frozenset(edges(d))
    if set(omega_d.keys) != own:
        raise DiagramError("orientation keys do not match the edges of d")
    if positive_edges(d_min) != own:
        raise DiagramError("the edges of d are not the positive edges of dmin")
    tracked = {k: k for k in omega_d.keys}
    cur = d_min
    for nxt, step in path:
        lost = positive_edges(cur) - positive_edges(nxt)
        gained = positive_edges(nxt) - positive_edges(cur)
        if len(lost) != 1 or len(gained) != 1 or step.site not in lost:
            raise DiagramError("positive-edge tracking failed at %s" % fmt(cur))
        (old,), (new,) = lost, gained
        for k, v in tracked.items():
            if v == old:
                tracked[k] = new
        cur = nxt
    if cur != s_max:
        raise DiagramError("move path did not reach S_max")
    if set(tracked.values()) != set(positive_edges(s_max)):
        raise DiagramError("tracked edges are not the positive edges of S_max")
    lifted = orient([tracked[k] for k in omega_d.keys], omega_d.sign)
    return pair_contract(lifted, xi(s_max))
