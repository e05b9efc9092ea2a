"""The subdivision map q and its one-sided inverse p.

q sends a corolla to the sum of all fully metric binary diagrams of its
shape class with standard orientation, and extends multiplicatively; the
signed relabeling action on the source becomes the unsigned one on the
target.  p sends a fully metric generator D to the sum of the diagrams S in
`tamari.below(D)`, those of complementary degree with S_max <= D_min, each
carrying the induced orientation, extends multiplicatively over non-metric
edges, and turns the unsigned action back into the signed one.

Both maps are multiplicative along a cut, so the image of an
identity-labeled generator is built from one cut (`operad_c.corolla_cut`
for q, `operad_q.nonmetric_cut` for p) and the memoized images of its two
parts; the corollas and the fully metric generators are the leaves.
"""

from __future__ import annotations

from functools import lru_cache

from . import perms
from .diagrams import edges, enumerate_class, shape_class
from .formal import FormalSum
from .operad_c import (
    CGenerator, compose_elements as compose_c_elements, c_generator,
    corolla_cut, sym_action,
)
from .operad_q import (
    QGenerator, compose_elements as compose_q_elements, nonmetric_cut,
    q_action, q_generator,
)
from .orientations import omega_sd, omega_std, orient
from .tamari import below, dmin, positive_edges


def _from_parts(parts, image, compose, act):
    """The image of coef * sigma . (host o_pos outer), one `cut_step`,
    from the images of its two parts."""
    coef, host, pos, outer, sigma = parts
    val = compose(image(host), pos, image(outer))
    if sigma is not None:
        val = act(sigma, val)
    return val.scale(coef) if coef != 1 else val


@lru_cache(maxsize=None)
def _q_corolla(diagram):
    return FormalSum(q_generator(b, orientation=omega_std(b))
                     for b in enumerate_class(shape_class(diagram), 0))


@lru_cache(maxsize=None)
def _q_image(gen):
    """q of one generator; shared, and only read by `apply`.  A relabeled
    generator's image is the sign of its labeling times the action on the
    identity-labeled one's, so all labelings share one evaluation."""
    ident = perms.identity(len(gen.perm))
    if gen.perm != ident:
        base = _q_image(CGenerator(gen.diagram, ident, gen.keys))
        return q_action(gen.perm, base).scale(perms.sign(gen.perm))
    parts = corolla_cut(gen)
    if parts is None:
        return _q_corolla(gen.diagram)
    return _from_parts(parts, _q_image, compose_q_elements, q_action)


def q_map(x):
    """The subdivision quasi-isomorphism, extended linearly; the signed
    action becomes the unsigned one."""
    return x.apply(_q_image)


@lru_cache(maxsize=None)
def _p_fullmetric(diagram):
    """p on the fully metric generator with +sorted orientation."""
    if positive_edges(dmin(diagram)) != frozenset(edges(diagram)):
        return FormalSum()
    omega_d = orient(edges(diagram), 1)
    return FormalSum(c_generator(s, orientation=omega_sd(s, diagram, omega_d))
                     for s in below(diagram))


@lru_cache(maxsize=None)
def _p_image(gen):
    """p of one generator; shared, and only read by `apply`.  A relabeled
    generator's image is the action on the identity-labeled one's."""
    ident = perms.identity(len(gen.perm))
    if gen.perm != ident:
        base = _p_image(QGenerator(gen.diagram, ident, gen.metric))
        return sym_action(gen.perm, base)
    parts = nonmetric_cut(gen)
    if parts is None:
        return _p_fullmetric(gen.diagram)
    return _from_parts(parts, _p_image, compose_c_elements, sym_action)


def p_map(x):
    """The quasi-inverse of q, extended linearly; the sign character of the
    action reappears."""
    return x.apply(_p_image)
