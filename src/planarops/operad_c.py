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

from . import perms
from .diagrams import (
    DiagramError, degree, edges, expansions, fmt, labeled_graft, leaf_count,
)
from .formal import FormalSum, bilinear, unit
from .orientations import (
    Generator, Orientation, composition_sign, decompose_step, graft_wedge,
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
# decompose_corollas is the first step of a generator's decomposition down
# to corollas: every edge is cut, compositions carry `composition_sign` and
# a relabeling the sign of its permutation.  q (transfer._q_image) and the
# endomorphism evaluation (endo.eval_generator) each evaluate it with their
# own memoized values for the children; with c_unit, compose_elements and
# sym_action it gives the generator back.


def _keys(gen):
    return gen.keys


def decompose_corollas(gen):
    """`orientations.decompose_step` of `gen` with every edge cuttable."""
    return decompose_step(gen, _keys, composition_sign, perms.sign)
