"""The subdivision map q and its one-sided inverse p.

q sends a corolla to the sum of all fully metric binary diagrams of its
shape class with standard orientation, and extends multiplicatively; the
signed relabeling action on the source becomes the unsigned one on the
target.  p sends a fully metric generator to the sum of all diagrams S of
complementary degree with S_max <= D_min, each carrying the induced
orientation, extends multiplicatively over non-metric edges, and turns the
unsigned action back into the signed one.
"""

from __future__ import annotations

from functools import lru_cache

from .diagrams import (
    degree, edges, enumerate_class, leaf_count, shape_class,
)
from .formal import FormalSum, evaluate
from .operad_c import (
    compose_elements as compose_c_elements, c_unit, decompose_corollas,
    sym_action,
)
from .operad_q import (
    compose_elements as compose_q_elements, decompose_nonmetric, q_action,
    q_unit,
)
from .orientations import omega_sd, omega_std, orient
from .tamari import dmax, dmin, leq, positive_edges


@lru_cache(maxsize=None)
def _q_corolla(diagram):
    out = FormalSum()
    for b in enumerate_class(shape_class(diagram), 0):
        out = out + q_unit(b, orientation=omega_std(b))
    return out


def q_map(x):
    """The subdivision quasi-isomorphism, extended linearly; the signed
    action becomes the unsigned one."""
    out = FormalSum()
    for gen, coef in x.terms.items():
        img = evaluate(decompose_corollas(gen), _q_corolla,
                       compose_q_elements, q_action)
        out = out + img.scale(coef)
    return out


@lru_cache(maxsize=None)
def _p_fullmetric(diagram):
    """p on the fully metric generator with +sorted orientation."""
    own = frozenset(edges(diagram))
    d_min = dmin(diagram)
    if positive_edges(d_min) != own:
        return FormalSum()
    k = len(own)
    omega_d = orient(edges(diagram), 1)
    out = FormalSum()
    for s in enumerate_class(shape_class(diagram), k):
        if leq(dmax(s), d_min):
            out = out + c_unit(s, orientation=omega_sd(s, diagram, omega_d))
    return out


def p_map(x):
    """The quasi-inverse of q, extended linearly; the sign character of the
    action reappears."""
    out = FormalSum()
    for gen, coef in x.terms.items():
        img = evaluate(decompose_nonmetric(gen), _p_fullmetric,
                       compose_c_elements, sym_action)
        out = out + img.scale(coef)
    return out
