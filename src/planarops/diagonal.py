"""The cubical diagonal and the induced diagonal on the chain operad.

On a generator with metric edges e_1 < ... < e_l the cubical diagonal sums
over subsets X of the metric set: the left factor contracts the edges of X
and keeps the rest metric, the right factor keeps X metric and freezes the
rest, with the shuffle sign (-1)^rho(X) counting pairs (i in X, j not in X,
i < j) in the orientation order.  It is strictly coassociative.

The diagonal on the chain operad is the composite p (x) p . Delta . q, a
multiplicative, equivariant chain map, not coassociative.  Like q and p, it
evaluates each generator's corolla decomposition; on a corolla X takes only
positive edges of each binary B of q, one term per cell B / X that p keeps.
Its unsigned support there is exactly the set of pairs S (x) T with S in
`tamari.below(T)`: complementary degree and S_max <= T_min.

Reduction modulo higher inner products deletes every tensor factor whose
central vertex carries any forest, i.e. every factor whose evaluation would
use an inner-product operation of positive arity.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from . import perms
from .diagrams import (
    INNER, contract, corolla_of, degree, enumerate_class, is_corolla,
    leaf_count, shape_class, shapes_up_to,
)
from .formal import FormalSum, bilinear, evaluate, unit
from .operad_c import (
    boundary_c, c_unit, compose_c, decompose_corollas, sym_action,
)
from .operad_q import QGenerator, boundary_q
from .tamari import below, positive_edges
from .transfer import p_map, q_map


def _serre_image(gen, choosable):
    """Serre diagonal of `gen`, X among its metric edges in `choosable`."""
    out = FormalSum()
    m = gen.metric
    free = [i for i, e in enumerate(m) if e in choosable]
    for r in range(len(free) + 1):
        for xs in combinations(free, r):
            kept = [j for j in range(len(m)) if j not in xs]
            left_d = gen.diagram
            for i in xs:
                left_d = contract(left_d, m[i])
            left = QGenerator(left_d, gen.perm, tuple(m[j] for j in kept))
            right = QGenerator(gen.diagram, gen.perm, tuple(m[i] for i in xs))
            # (-1)^rho counts the pairs chosen i < kept j: the inversions
            # of the kept indices followed by the chosen ones
            out.add_term((left, right), perms.parity(kept + list(xs)))
    return out


def delta_q(x):
    """Serre diagonal of a sum of cubical generators."""
    return x.apply(lambda gen: _serre_image(gen, gen.metric))


def _pair(a, b):
    return unit((a, b))


def _tensor_boundary(x, boundary, degree_of):
    # the Koszul sign of the right factor is the degree of the left one
    def image(ab):
        a, b = ab
        left = boundary(unit(a)).apply(lambda a2: _pair(a2, b))
        right = boundary(unit(b)).apply(lambda b2: _pair(a, b2))
        return left.add(right, (-1) ** degree_of(a))
    return x.apply(image)


def q_tensor_boundary(x):
    """Differential of the tensor square, Koszul sign on the right factor."""
    return _tensor_boundary(x, boundary_q, lambda a: len(a.metric))


def c_tensor_boundary(x):
    return _tensor_boundary(x, boundary_c, lambda a: degree(a.diagram))


def _both_factors(f, x):
    """Apply the linear map f to both factors of a sum of tensor generators;
    the right factor's image is skipped where the left one is zero."""
    def image(ab):
        left = f(unit(ab[0]))
        return bilinear(left, f(unit(ab[1])), _pair) if left else FormalSum()
    return x.apply(image)


def p_tensor(x):
    """Apply p to both factors of a sum of tensor generators."""
    return _both_factors(p_map, x)


@lru_cache(maxsize=None)
def _delta_c_corolla(corolla):
    """delta_c of the corolla: p of (B; X metric) is p of B's binary pieces,
    zero unless each is its class's maximum, so X takes positive edges."""
    return p_tensor(q_map(c_unit(corolla)).apply(
        lambda gen: _serre_image(gen, positive_edges(gen.diagram))))


@lru_cache(maxsize=None)
def _delta_c_image(gen):
    """delta_c of one generator; shared, and only read by `apply`."""
    return evaluate(decompose_corollas(gen), _delta_c_image, _delta_c_corolla,
                    c_tensor_compose, c_tensor_action)


def delta_c(x):
    """The induced (non-coassociative) diagonal on the chain operad."""
    return x.apply(_delta_c_image)


def c_tensor_compose(x, i, y):
    """Componentwise composition of tensor elements with the Koszul sign."""
    def term(ab, uv):
        (a, b), (u, v) = ab, uv
        sign = (-1) ** (degree(b.diagram) * degree(u.diagram))
        return bilinear(compose_c(a, i, u), compose_c(b, i, v),
                        _pair).scale(sign)
    return bilinear(x, y, term)


def c_tensor_action(sigma, x):
    return _both_factors(lambda z: sym_action(sigma, z), x)


def unsigned_support(x):
    """The set of (left diagram, right diagram) pairs of a tensor element."""
    return {(a.diagram, b.diagram) for (a, b) in x.support()}


@lru_cache(maxsize=None)
def support_formula(corolla):
    """Prop.-style direct support: the pairs S (x) T with S in below(T),
    bypassing the composite definition."""
    if not is_corolla(corolla):
        raise ValueError("support_formula expects a corolla")
    shape = shape_class(corolla)
    return frozenset((s, t) for k in range(degree(corolla) + 1)
                     for t in enumerate_class(shape, k) for s in below(t))


def _central_vertex_bare(d):
    if d.kind != INNER:
        return True
    return not d.payload.up and not d.payload.down


def delta_c_mod_higher(x):
    """delta_c with every factor using a higher inner product deleted."""
    out = FormalSum()
    for (a, b), coef in delta_c(x).terms.items():
        if _central_vertex_bare(a.diagram) and _central_vertex_bare(b.diagram):
            out.add_term((a, b), coef)
    return out


# ---------------------------------------------------------------------------
# coassociativity

def _coassoc_defect(x, diag):
    def image(ab):
        a, b = ab
        left = diag(unit(a)).apply(lambda a12: unit(a12 + (b,)))
        right = diag(unit(b)).apply(lambda b12: unit((a,) + b12))
        return left.add(right, -1)
    return diag(x).apply(image)


def coassoc_defect_q(x):
    """(Delta (x) 1) Delta - (1 (x) Delta) Delta on the cubical side."""
    return _coassoc_defect(x, delta_q)


def coassoc_defect_c(x):
    return _coassoc_defect(x, delta_c)


def noncoassociativity_witness(max_leaves):
    """First corolla (by leaf count, then kind, then shape) where the chain
    diagonal fails to be coassociative; None if none is found in range."""
    shapes = sorted(shapes_up_to(max_leaves), key=lambda s: (
        leaf_count(corolla_of(s)), s.kind, s.params))
    for shape in shapes:
        c = corolla_of(shape)
        defect = coassoc_defect_c(c_unit(c))
        if defect:
            return c, defect
    return None
