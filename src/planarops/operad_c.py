"""The chain operad of oriented labeled planar diagrams.

Generators are triples (diagram, labeling, orientation) where the labeling
sends input slots to canonical leaf positions and the orientation is a wedge
over the full edge set.  A generator is stored with its orientation in
canonical (sorted, sign +1) form, the sign living in the coefficient of the
enclosing formal sum.

The boundary inserts one edge in all possible ways, prepending the new edge
to the orientation.  The symmetric-group action carries the sign of the
permutation, and the i-th composition carries (-1)^(i(l+1)+kn) where k and l
are the input counts and n is the degree of the right factor.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import perms
from .diagrams import (
    DiagramError, cut, degree, edges, expansions, fmt, is_corolla,
    labeled_graft, leaf_count,
)
from .formal import FormalSum, bilinear, unit
from .orientations import Orientation, orient, wedge


@dataclass(frozen=True)
class CGenerator:
    diagram: object
    perm: tuple            # input j attaches at canonical position perm[j-1]
    keys: tuple            # orientation edge keys, sorted, implicit sign +1

    def __repr__(self):
        return "C(%s; %s; %s)" % (fmt(self.diagram), list(self.perm),
                                  [sorted(k) for k in self.keys])


def c_generator(diagram, perm=None, orientation=None):
    """A single-term element; returns (CGenerator, sign)."""
    if perm is None:
        perm = perms.identity(leaf_count(diagram))
    if orientation is None:
        orientation = orient(edges(diagram), 1)
    if set(orientation.keys) != set(edges(diagram)):
        raise DiagramError("orientation must cover the full edge set")
    return CGenerator(diagram, tuple(perm), orientation.keys), orientation.sign


def c_unit(diagram, perm=None, orientation=None, coef=1):
    gen, sign = c_generator(diagram, perm, orientation)
    return unit(gen, coef * sign)


def boundary_c(x):
    """Sum over one-edge expansions, the new edge wedged in front."""
    def term(gen, coef):
        out = FormalSum()
        base = Orientation(1, gen.keys)
        for d2, e2 in expansions(gen.diagram):
            o2 = wedge(orient([e2]), base)
            out.add_term(CGenerator(d2, gen.perm, o2.keys), coef * o2.sign)
        return out
    return x.map_terms(term)


def sym_action(sigma, x):
    """The signed relabeling action, extended linearly."""
    def term(gen, coef):
        if len(sigma) != len(gen.perm):
            raise DiagramError("permutation size mismatch")
        new_perm = perms.compose(gen.perm, sigma)
        return unit(CGenerator(gen.diagram, new_perm, gen.keys),
                    coef * perms.sign(sigma))
    return x.map_terms(term)


def compose_c(x, i, y):
    """Composition of single generators; returns a (possibly zero) sum."""
    grafted = labeled_graft(x, i, y)
    if grafted is None:
        return FormalSum()
    g, perm = grafted
    o = orient([g.host_edges[e] for e in x.keys]
               + [g.guest_edges[e] for e in y.keys] + [g.new_edge])
    k, l = leaf_count(x.diagram), leaf_count(y.diagram)
    eps = i * (l + 1) + k * degree(y.diagram)
    return unit(CGenerator(g.diagram, perm, o.keys), (-1) ** eps * o.sign)


def compose_elements(x, i, y):
    return bilinear(x, y, lambda a, b: compose_c(a, i, b))


# ---------------------------------------------------------------------------
# corolla decomposition
#
# decompose_corollas writes a generator as an expression (see formal.py)
# whose leaves are corollas; evaluating it with c_unit, compose_elements and
# sym_action gives the generator back.


def _decompose_canonical(diagram, keys):
    """Expression for (diagram, identity labeling, +sorted orientation)."""
    if is_corolla(diagram):
        return (1, ("leaf", diagram))
    e = edges(diagram)[0]
    c = cut(diagram, e)
    sub1 = _decompose_canonical(c.host, tuple(sorted(edges(c.host), key=sorted)))
    sub2 = _decompose_canonical(c.outer, tuple(sorted(edges(c.outer), key=sorted)))
    g = c.graft
    mapped = ([g.host_edges[k] for k in sorted(edges(c.host), key=sorted)]
              + [g.guest_edges[k] for k in sorted(edges(c.outer), key=sorted)]
              + [e])
    o = orient(mapped, 1)
    if o is None or o.keys != keys:
        raise DiagramError("edge bookkeeping failed in decomposition")
    i, l = c.pos, leaf_count(c.outer)
    k = leaf_count(c.host)
    n = leaf_count(diagram)
    eps = i * (l + 1) + k * degree(c.outer)
    rot_sign = (-1) ** (g.rot * (n - 1))
    coef = o.sign * (-1) ** eps * rot_sign
    node = ("compose", sub1, i, sub2)
    if g.rot:
        node = ("act", perms.invert(perms.rotation(n, g.rot)), (1, node))
    return (coef, node)


def decompose_corollas(gen):
    """Express a generator through corollas, compositions and the action."""
    n = leaf_count(gen.diagram)
    base = _decompose_canonical(gen.diagram, gen.keys)
    if gen.perm == perms.identity(n):
        return base
    return (perms.sign(gen.perm), ("act", gen.perm, base))
