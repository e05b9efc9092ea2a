"""The subdivision map q and the projection p, with pq = id.

q sends a corolla to the sum of all fully metric binary diagrams of its
shape class, the up-set of its minimum, with standard orientation, and
extends multiplicatively; the signed relabeling action on the source becomes
the unsigned one on the target.  p sends a fully metric generator D to the
sum of the diagrams S in `tamari.below(D)`, those of complementary degree
with S_max <= D_min, each carrying the orientation induced along its path in
the one walk of D_min's down-set: `tamari.cells_below` finds each S as a B
below D_min with exactly edge_count(D) positive edges, contracted along all
of them.  p extends multiplicatively over non-metric edges, and turns the
unsigned action back into the signed one.

Both maps are multiplicative and intertwine the actions, so the image of
a generator is `formal.evaluate` of its first decomposition step
(`operad_c.decompose_corollas` for q, `operad_q.decompose_nonmetric` for
p) with the memoized images of its children; the corollas and the fully
metric generators are the leaves.  The images are `diagrams.scoped_memo`
memos, filed by the leaf count of the generator's diagram, so a caller done
with one leaf count can `release` it.
"""

from __future__ import annotations

from functools import lru_cache

from .diagrams import edges, fmt, scoped_memo
from .formal import FormalSum, evaluate
from .operad_c import (
    compose_elements as compose_c_elements, c_generator, decompose_corollas,
    sym_action,
)
from .operad_q import (
    compose_elements as compose_q_elements, decompose_nonmetric, q_action,
    q_generator,
)
from .orientations import omega_sd, omega_std, orient
from .tamari import (
    _reach, cells_below, covers, dmin, positive_edges, tree_path,
)


@lru_cache(maxsize=None)
def _q_corolla(diagram):
    """q of the corolla: its class's binaries, the up-set of its minimum."""
    return FormalSum(q_generator(b, orientation=omega_std(b)) for b in
                     sorted(_reach(dmin(diagram), covers), key=fmt))


@scoped_memo(lambda gen: gen.diagram.leaves)
def _q_image(gen):
    """q of one generator; shared, and only read by `apply`."""
    return evaluate(decompose_corollas(gen), _q_image, _q_corolla,
                    compose_q_elements, q_action)


def q_map(x):
    """The subdivision quasi-isomorphism, extended linearly; the signed
    action becomes the unsigned one."""
    return x.apply(_q_image)


@scoped_memo(lambda diagram: diagram.leaves)
def _p_fullmetric(diagram):
    """p on the fully metric generator with +sorted orientation."""
    # no cell exactly when this fails; it spares the down-set walk
    if positive_edges(dmin(diagram)) != frozenset(edges(diagram)):
        return FormalSum()
    omega_d = orient(edges(diagram), 1)
    tree, cells = cells_below(diagram)
    return FormalSum(c_generator(s, orientation=omega_sd(
        s, diagram, omega_d, tree_path(tree, b))) for s, b in cells)


@scoped_memo(lambda gen: gen.diagram.leaves)
def _p_image(gen):
    """p of one generator; shared, and only read by `apply`."""
    return evaluate(decompose_nonmetric(gen), _p_image, _p_fullmetric,
                    compose_c_elements, sym_action)


def p_map(x):
    """The projection, with pq = id, extended linearly; the sign character
    of the action reappears."""
    return x.apply(_p_image)
