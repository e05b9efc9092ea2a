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
from .orientations import Generator, decompose_step, graft_wedge, orient


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
# decompose_nonmetric is the first step of a generator's decomposition at
# its non-metric edges, down to fully metric generators with identity
# labeling and +sorted orientation.  The operad is unsigned, so neither a
# composition nor a relabeling carries a sign.  p (transfer._p_image)
# evaluates it with its own memoized values for the children; with q_unit,
# compose_elements and q_action it gives the generator back.


def _unsigned(*_args):
    return 1


def decompose_nonmetric(gen):
    """`orientations.decompose_step` of `gen`, cut at non-metric edges."""
    return decompose_step(gen, QGenerator.nonmetric, _unsigned, _unsigned)
