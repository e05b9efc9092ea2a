"""The cubical operad of metrically marked diagrams.

Generators carry a marking of each edge as metric or non-metric and an
orientation over the metric edges only; the degree is the number of metric
edges.  The boundary either contracts a metric edge or turns it non-metric,
with alternating signs read off the orientation order.  Unlike the chain
operad, the relabeling action is unsigned and compositions carry no sign;
the edge created by a composition is non-metric.
"""

from __future__ import annotations

from . import perms
from .diagrams import (
    DiagramError, contract, edges, fmt, labeled_graft, leaf_count,
)
from .formal import FormalSum, bilinear, unit
from .orientations import Generator, cut_step, decompose, graft_wedge, orient


class QGenerator(Generator):
    """`metric` holds the metric edge keys, sorted; it is also the wedge
    order of the orientation."""

    __slots__ = ()
    metric = Generator.wedge

    def __repr__(self):
        return "Q(%s; %s; m=%s)" % (fmt(self.diagram), list(self.perm),
                                    [sorted(k) for k in self.metric])

    def nonmetric(self):
        metric = set(self.metric)
        return [e for e in edges(self.diagram) if e not in metric]


def q_generator(diagram, perm=None, metric=None, orientation=None):
    """Returns (QGenerator, sign); `metric` defaults to every edge."""
    if perm is None:
        perm = perms.identity(leaf_count(diagram))
    if metric is None:
        metric = edges(diagram)
    if len(set(metric)) != len(metric):
        raise DiagramError("a metric lists each edge once")
    if orientation is None:
        orientation = orient(metric, 1)
    if set(orientation.keys) != set(metric):
        raise DiagramError("orientation must cover exactly the metric edges")
    if not set(metric) <= set(edges(diagram)):
        raise DiagramError("metric set must consist of edges")
    return QGenerator(diagram, tuple(perm), orientation.keys), orientation.sign


def q_unit(diagram, perm=None, metric=None, orientation=None, coef=1):
    gen, sign = q_generator(diagram, perm, metric, orientation)
    return unit(gen, coef * sign)


def boundary_q_image(gen):
    """The boundary of one generator: sum_j (-1)^j [contract e_j  -  mark
    e_j non-metric]."""
    out = FormalSum()
    d, perm, metric = gen.diagram, gen.perm, gen.metric
    for j, e in enumerate(metric, start=1):
        rest = metric[:j - 1] + metric[j:]
        sign = (-1) ** j
        out.add_term(QGenerator(contract(d, e), perm, rest), sign)
        out.add_term(QGenerator(d, perm, rest), -sign)
    return out


def boundary_q(x):
    """The boundary, `boundary_q_image` extended linearly."""
    return x.apply(boundary_q_image)


def q_action(sigma, x):
    """The unsigned relabeling action."""
    def image(gen):
        if len(sigma) != len(gen.perm):
            raise DiagramError("permutation size mismatch")
        return unit(QGenerator(gen.diagram, perms.compose(gen.perm, sigma),
                               gen.metric))
    return x.apply(image)


def compose_q(x, i, y):
    """Sign-free composition; the new edge is non-metric."""
    grafted = labeled_graft(x, i, y)
    if grafted is None:
        return FormalSum()
    g, perm = grafted
    o = graft_wedge(g, x.metric, y.metric, False)
    return unit(QGenerator(g.diagram, perm, o.keys), o.sign)


def compose_elements(x, i, y):
    return bilinear(x, y, lambda a, b: compose_q(a, i, b))


# ---------------------------------------------------------------------------
# splitting at non-metric edges
#
# nonmetric_cut cuts an identity-labeled generator once at its first
# non-metric edge; p (transfer._p_image) takes that one step and composes
# the memoized images of the two parts.  decompose_nonmetric repeats it and
# writes the generator as an expression (see formal.py) whose leaves stand
# for fully metric generators with identity labeling and +sorted
# orientation; evaluating it with q_unit, compose_elements and q_action
# gives the generator back.  The action is unsigned, so a relabeled
# generator is q_action(perm, ...) of that value, which is how
# transfer._p_image shares it across labelings.


def _unsigned(c, n):
    return 1


def nonmetric_cut(gen):
    """`orientations.cut_step` of `gen` at its first non-metric edge; the
    composition carries no sign.  None on a fully metric generator."""
    cuttable = gen.nonmetric()
    return cut_step(gen, cuttable, _unsigned) if cuttable else None


def decompose_nonmetric(gen):
    """Express a generator through fully metric ones at non-metric edges;
    the expression ignores `gen.perm` and stands for the identity
    labeling."""
    return decompose(gen, nonmetric_cut)
