import itertools
import random

from planarops.diagrams import (
    INNER, MODULE, TREE, ShapeClass, corolla_of, cut, degree, edges,
    enumerate_class, inner_corolla, leaf_count, module_corolla, parse,
    shapes_up_to, tree_corolla,
)
from planarops.formal import FormalSum, unit
from planarops.homology import cell_generators
from planarops.operad_c import (
    CGenerator, boundary_c, c_generator, c_unit, compose_elements as comp_c,
    decompose_corollas, sym_action,
)
from planarops.operad_q import (
    boundary_q, compose_elements as comp_q, decompose_nonmetric, q_action,
    q_unit,
)
from planarops.orientations import omega_std, xi
from planarops.perms import identity
from planarops.tamari import _descendants, dmax, dmin
from planarops.transfer import (
    _p_fullmetric, _p_image, _q_corolla, _q_image, p_map, q_map,
)
from planarops.verify import class_diagrams
from test_operads import unfold

SMALL_SHAPES = [
    ShapeClass(TREE, (3,)), ShapeClass(TREE, (4,)), ShapeClass(TREE, (5,)),
    ShapeClass(MODULE, (1, 1)), ShapeClass(MODULE, (2, 1)),
    ShapeClass(MODULE, (0, 2)), ShapeClass(MODULE, (3, 0)),
    ShapeClass(INNER, (0, 0)), ShapeClass(INNER, (1, 0)),
    ShapeClass(INNER, (1, 1)), ShapeClass(INNER, (2, 0)),
    ShapeClass(INNER, (2, 1)),
]


def class_c_units(shape):
    c = corolla_of(shape)
    for deg in range(degree(c) + 1):
        for d in enumerate_class(shape, deg):
            yield c_unit(d)


def class_q_units(shape):
    c = corolla_of(shape)
    for deg in range(degree(c) + 1):
        for d in enumerate_class(shape, deg):
            es = edges(d)
            for r in range(len(es) + 1):
                for metric in itertools.combinations(es, r):
                    yield q_unit(d, metric=metric)


def test_q_on_small_corollas():
    x = q_map(c_unit(tree_corolla(3)))
    assert len(x) == 2
    assert all(not gen.nonmetric() for gen, _ in x)
    assert len(q_map(c_unit(tree_corolla(4)))) == 5
    assert len(q_map(c_unit(inner_corolla(2, 0)))) == 5
    assert len(q_map(c_unit(inner_corolla(1, 1)))) == 6


def test_q_preserves_degree():
    for c in [tree_corolla(4), module_corolla(2, 1), inner_corolla(1, 1)]:
        for gen, _coef in q_map(c_unit(c)):
            assert len(gen.metric) == degree(c)


def test_q_is_a_chain_map():
    for shape in SMALL_SHAPES:
        for x in class_c_units(shape):
            assert boundary_q(q_map(x)) == q_map(boundary_c(x)), shape


def test_q_is_multiplicative():
    pairs = [(tree_corolla(3), 2, tree_corolla(2)),
             (module_corolla(1, 1), 2, module_corolla(1, 0)),
             (inner_corolla(1, 0), 1, module_corolla(1, 1)),
             (inner_corolla(0, 1), 2, module_corolla(0, 1)),
             (parse("((* *) *)"), 1, tree_corolla(3))]
    for xd, i, yd in pairs:
        x, y = c_unit(xd), c_unit(yd)
        assert q_map(comp_c(x, i, y)) == comp_q(q_map(x), i, q_map(y))


def test_p_on_corollas():
    for c in [tree_corolla(3), tree_corolla(4), module_corolla(2, 1),
              inner_corolla(1, 1), inner_corolla(2, 0)]:
        x = p_map(q_unit(c, metric=()))
        assert x == c_unit(dmin(c), orientation=xi(dmin(c)))


def test_p_on_fully_metric_binaries():
    for shape in SMALL_SHAPES:
        c = corolla_of(shape)
        for b in enumerate_class(shape, 0):
            x = p_map(q_unit(b, orientation=omega_std(b)))
            if b == dmax(c):
                assert x == c_unit(c)
            else:
                assert not x


def test_pq_is_identity_on_corollas():
    for shape in SMALL_SHAPES:
        x = c_unit(corolla_of(shape))
        assert p_map(q_map(x)) == x


def test_pq_is_identity_on_generators():
    rng = random.Random(23)
    for shape in SMALL_SHAPES:
        c = corolla_of(shape)
        n = leaf_count(c)
        for deg in range(degree(c) + 1):
            for d in enumerate_class(shape, deg):
                x = c_unit(d)
                assert p_map(q_map(x)) == x
        sigma = tuple(rng.sample(range(1, n + 1), n))
        gen, sign = c_generator(c)
        x = unit(CGenerator(c, sigma, gen.keys))
        assert p_map(q_map(x)) == x


def test_p_is_a_chain_map():
    for shape in SMALL_SHAPES:
        for x in class_q_units(shape):
            assert boundary_c(p_map(x)) == p_map(boundary_q(x)), shape


def test_p_is_multiplicative():
    pairs = [(parse("((* *) *)"), 1, tree_corolla(3)),
             (module_corolla(1, 1), 2, module_corolla(0, 1)),
             (inner_corolla(1, 1), 1, module_corolla(1, 1))]
    for xd, i, yd in pairs:
        for mx in (list(itertools.combinations(edges(xd), 1)) or [()]):
            x = q_unit(xd, metric=tuple(mx) if mx != () else ())
            y = q_unit(yd)
            assert p_map(comp_q(x, i, y)) == comp_c(p_map(x), i, p_map(y))


def test_qp_augmentation_on_vertices():
    # qp fixes the homology class of every 0-cell: its image is a single
    # fully non-metric generator with coefficient +1
    for shape in SMALL_SHAPES:
        for b in enumerate_class(shape, 0):
            x = q_unit(b, metric=())
            img = q_map(p_map(x))
            assert sum(c for _g, c in img) == 1


def test_returned_images_are_private_copies():
    # q and p memoize the image of each generator; a caller may change the
    # sum it gets back without reaching the shared image
    cases = [(q_map, c_unit(parse("((* *) * *)"))),
             (q_map, c_unit(tree_corolla(4))),
             (p_map, q_unit(tree_corolla(4), metric=())),
             (p_map, q_unit(dmax(tree_corolla(4)),
                            orientation=omega_std(dmax(tree_corolla(4)))))]
    for fn, x in cases:
        first = fn(x)
        expected = FormalSum(dict(first.terms))
        assert expected
        key, coef = next(iter(first.terms.items()))
        first.add_term(key, -coef)
        first.add_term("not a generator", 1)
        again = fn(x)
        assert again == expected and again is not first


def _termwise(fn, a, b):
    return fn(a).scale(3) - fn(b).scale(3)


def test_maps_are_linear_over_signed_coefficients():
    # 3a - 3b, with a pair of p images that share terms so that some of
    # them cancel
    for shape in SMALL_SHAPES[:4]:
        cs = list(class_c_units(shape))
        for a, b in zip(cs, cs[1:]):
            x = a.scale(3) - b.scale(3)
            assert q_map(x) == _termwise(q_map, a, b)
    cancelled = False
    for shape in SMALL_SHAPES[:4]:
        qs = list(class_q_units(shape))
        for a, b in itertools.combinations(qs, 2):
            x = a.scale(3) - b.scale(3)
            got = p_map(x)
            assert got == _termwise(p_map, a, b)
            cancelled |= len(got) < len(p_map(a)) + len(p_map(b))
    assert cancelled


def _labeled(rng, gen):
    n = len(gen.perm)
    return type(gen)(gen.diagram, tuple(rng.sample(range(1, n + 1), n)),
                     gen.wedge)


def test_relabeled_images_equal_their_full_decompositions(fresh_caches):
    # q and p evaluate a generator's first decomposition step on the
    # memoized images of its children; the oracle repeats the step down to
    # the leaves with no memo.  The caches start empty, and each
    # identity-labeled generator goes first, so every image below is built
    # here, one step at a time
    rng = random.Random(15)
    relabeled = 0
    full_q = unfold(decompose_corollas, _q_corolla, comp_q, q_action)
    full_p = unfold(decompose_nonmetric, _p_fullmetric, comp_c, sym_action)
    for shape in shapes_up_to(5):
        for d in class_diagrams(shape):
            ident = c_generator(d)[0]
            for gen in (ident, _labeled(rng, ident)):
                assert _q_image(gen) == full_q(gen), gen
            relabeled += gen.perm != identity(len(gen.perm))
        for cell in itertools.chain(*cell_generators(shape, "q")[0]):
            for gen in (cell, _labeled(rng, cell)):
                assert _p_image(gen) == full_p(gen), gen
    assert relabeled > 100


def test_cut_is_memoized():
    # the one-cut images cut each part once; later cuts of the same edge
    # return the same Cut, so its graft self-check runs once
    for shape in SMALL_SHAPES:
        for d in class_diagrams(shape):
            for e in edges(d):
                c = cut(d, e)
                assert cut(d, e) is c
                assert c.graft.diagram is d and c.graft.new_edge == e


def test_q_reads_the_binaries_of_each_class(fresh_caches):
    # q of a corolla reads the binaries of its class from the walk of the
    # class minimum's up-set, in the order enumerate_class gives them
    binaries = 0
    for shape in shapes_up_to(7):
        got = [gen.diagram for gen in _q_corolla(corolla_of(shape)).terms]
        assert got == list(enumerate_class(shape, 0)), shape
        binaries += len(got)
    assert binaries == 2835


def test_p_walks_no_up_set(fresh_caches):
    # p reads each cell and its move path from the one walk of D_min's
    # down-set, and q each class's binaries from the walk of its minimum's
    # up-set, so neither builds an up-set of the order behind `leq`
    pairs = 0
    for shape in shapes_up_to(6):
        for d in class_diagrams(shape):
            pairs += len(p_map(q_unit(d, metric=edges(d))))
        assert q_map(c_unit(corolla_of(shape)))
    assert pairs == 1553
    assert _descendants.cache_info().misses == 0
