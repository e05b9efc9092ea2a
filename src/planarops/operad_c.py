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

from functools import lru_cache

from . import perms
from .diagrams import (
    DiagramError, degree, edges, expansions, fmt, labeled_graft, leaf_count,
)
from .formal import FormalSum, bilinear, unit
from .orientations import (
    Generator, Orientation, composition_sign, cut_step, decompose, graft_wedge,
    orient, wedge,
)


class CGenerator(Generator):
    """`perm[j-1]` is the canonical position input j attaches at; `keys`
    are the orientation's edge keys, sorted, with implicit sign +1."""

    __slots__ = ()
    keys = Generator.wedge

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


def boundary_c_image(gen):
    """The boundary of one generator: its one-edge expansions, the new edge
    wedged in front."""
    out = FormalSum()
    base = Orientation(1, gen.keys)
    for d2, e2 in expansions(gen.diagram):
        o2 = wedge(orient([e2]), base)
        out.add_term(CGenerator(d2, gen.perm, o2.keys), o2.sign)
    return out


def boundary_c(x):
    """The boundary, `boundary_c_image` extended linearly."""
    return x.apply(boundary_c_image)


def sym_action(sigma, x):
    """The signed relabeling action, extended linearly."""
    def image(gen):
        if len(sigma) != len(gen.perm):
            raise DiagramError("permutation size mismatch")
        new_perm = perms.compose(gen.perm, sigma)
        return unit(CGenerator(gen.diagram, new_perm, gen.keys),
                    perms.sign(sigma))
    return x.apply(image)


def compose_c(x, i, y):
    """Composition of single generators; returns a (possibly zero) sum."""
    grafted = labeled_graft(x, i, y)
    if grafted is None:
        return FormalSum()
    g, perm = grafted
    o = graft_wedge(g, x.keys, y.keys, True)
    k, l = leaf_count(x.diagram), leaf_count(y.diagram)
    eps = i * (l + 1) + k * degree(y.diagram)
    return unit(CGenerator(g.diagram, perm, o.keys), (-1) ** eps * o.sign)


def compose_elements(x, i, y):
    return bilinear(x, y, lambda a, b: compose_c(a, i, b))


# ---------------------------------------------------------------------------
# corolla decomposition
#
# corolla_cut cuts a generator once at its first edge; q (transfer._q_image)
# takes that one step and composes the memoized images of the two parts.
# decompose_corollas repeats it and writes the generator as an expression
# (see formal.py) whose leaves are corollas; evaluating it with c_unit,
# compose_elements and sym_action gives the generator back.  The expression
# is a tree of tuples, memoized for the endomorphism evaluation.


def corolla_cut(gen):
    """`orientations.cut_step` of `gen` at its first edge, the composition
    carrying `composition_sign`; None on a corolla."""
    return cut_step(gen, gen.keys, composition_sign) if gen.keys else None


@lru_cache(maxsize=None)
def decompose_corollas(gen):
    """Express a generator through corollas, compositions and the action."""
    n = leaf_count(gen.diagram)
    base = decompose(gen, corolla_cut)
    if gen.perm == perms.identity(n):
        return base
    return (perms.sign(gen.perm), ("act", gen.perm, base))
