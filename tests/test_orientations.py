import random

import pytest

from planarops import orientations, perms
from planarops.diagrams import (
    INNER, MODULE, TREE, DiagramError, ShapeClass, edges, enumerate_class,
    fmt, inner_corolla, leaf_count, module_corolla, shapes_up_to,
    tree_corolla, corolla_of,
)
from planarops.orientations import (
    Orientation, omega_sd, omega_std, orient, pair_contract, transfer,
    wedge, xi, xi_via,
)
from planarops.tamari import (
    _reach, cells_below, cocovers, covers, dmax, dmin, tree_path,
)
from planarops.verify import _alt_down_paths, class_diagrams

E1 = frozenset({1, 2})
E2 = frozenset({2, 3})
E3 = frozenset({3, 4})

SMALL_SHAPES = [
    ShapeClass(TREE, (4,)), ShapeClass(TREE, (5,)),
    ShapeClass(MODULE, (2, 1)), ShapeClass(MODULE, (1, 2)),
    ShapeClass(MODULE, (0, 3)), ShapeClass(MODULE, (3, 0)),
    ShapeClass(INNER, (1, 1)), ShapeClass(INNER, (2, 0)),
    ShapeClass(INNER, (0, 2)), ShapeClass(INNER, (2, 1)),
]


def test_wedge_basics():
    a, b = orient([E1]), orient([E2])
    assert wedge(a, b) == Orientation(1, (E1, E2))
    assert wedge(orient([E2]), orient([E1])) == Orientation(-1, (E1, E2))
    assert wedge(orient([E1, E2]), orient([E1])) is None


def test_orient_parity():
    assert orient([E2, E1]) == Orientation(-1, (E1, E2))
    assert orient([E3, E1, E2]) == Orientation(1, (E1, E2, E3))
    assert orient([]) == Orientation(1, ())


def reference_orient(keys, sign):
    """orient without the memo: sort by sorted(key), fold in the parity."""
    keys = list(keys)
    if len(set(keys)) != len(keys):
        return None
    order = sorted(range(len(keys)), key=lambda i: sorted(keys[i]))
    return Orientation(sign * perms.parity(order),
                       tuple(keys[i] for i in order))


def test_orient_matches_an_unmemoized_reference(fresh_caches):
    # seeded shuffles of the edges of every diagram up to 6 leaves, as a
    # list, a tuple and a generator, with both signs
    rng = random.Random(23)
    odd = 0
    for shape in shapes_up_to(6):
        for d in class_diagrams(shape):
            es = edges(d)
            for _ in range(2):
                keys = rng.sample(es, len(es))
                for sign in (1, -1):
                    ref = reference_orient(keys, sign)
                    assert ref.keys == tuple(es)
                    odd += ref.sign != sign
                    for given in (keys, tuple(keys), iter(keys)):
                        assert orient(given, sign) == ref, (fmt(d), keys)
            if es:
                assert orient(es + es[-1:]) is None
                assert orient(iter(es[:1] * 2), -1) is None
    assert odd


def test_orient_memo_is_a_package_cache(fresh_caches):
    # an lru_cache bound in the module, so the fixture that clears every
    # package cache before a mutation test clears this one too
    memo = orientations._orient
    assert memo.__module__ == "planarops.orientations"
    assert memo.cache_info().currsize == 0
    first = orient([E2, E1], -1)
    assert orient((E2, E1), -1) is first == Orientation(1, (E1, E2))
    assert memo.cache_info().currsize == 1
    fresh_caches()
    assert memo.cache_info().currsize == 0


def test_pair_contract_examples():
    full = orient([E1, E2, E3])
    assert pair_contract(orient([E1, E2]), full) == Orientation(-1, (E3,))
    assert pair_contract(orient([E1]), orient([E1, E2])) == Orientation(1, (E2,))
    with pytest.raises(DiagramError):
        pair_contract(orient([E3]), orient([E1, E2]))


def test_xi_two_leaf_corollas():
    for d in [tree_corolla(2), module_corolla(1, 0), module_corolla(0, 1),
              inner_corolla(0, 0)]:
        assert xi(d) == Orientation(1, ())


def test_xi_independent_of_decomposition():
    for shape in SMALL_SHAPES:
        for b in enumerate_class(shape, 0):
            base = xi(b)
            for e in edges(b):
                assert xi_via(b, e) == base, (fmt(b), sorted(e))


def test_omega_std_right_comb():
    for n in range(3, 7):
        b = dmax(tree_corolla(n))
        keys = [frozenset(range(j + 1, n + 1)) for j in range(1, n - 1)]
        assert omega_std(b) == orient(keys, 1)


def test_omega_std_ikl_max():
    for k in range(4):
        for l in range(4):
            if k + l == 0:
                continue
            b = dmax(inner_corolla(k, l))
            n = k + l + 2
            keys = [frozenset(range(j + 1, k + 3)) for j in range(1, k + 1)]
            keys += [frozenset({1} | set(range(k + 3 + i, k + l + 3)))
                     for i in range(l)]
            assert omega_std(b) == orient(keys, (-1) ** l), (k, l)


def test_omega_std_negates_under_single_moves():
    for shape in SMALL_SHAPES:
        for b in enumerate_class(shape, 0):
            for b2, step in covers(b):
                assert transfer(omega_std(b), step) == omega_std(b2), \
                    (fmt(b), fmt(b2))


def test_transfer_around_pentagon_and_hexagon():
    for shape in (ShapeClass(TREE, (4,)), ShapeClass(INNER, (1, 1))):
        start = dmin(corolla_of(shape))
        # walk the boundary cycle
        o = omega_std(start)
        cur = start
        seen = [start]
        prev = None
        while True:
            neighbors = [(b, s) for b, s in covers(cur) + cocovers(cur)]
            nxt = [(b, s) for b, s in neighbors if b != prev]
            prev = cur
            cur, step = nxt[0]
            o = transfer(o, step)
            if cur == start:
                break
            seen.append(cur)
        assert len(seen) == len(enumerate_class(shape, 0))
        assert o == omega_std(start)


def test_omega_std_contracts_to_plus_one():
    for shape in SMALL_SHAPES:
        for b in enumerate_class(shape, 0):
            assert pair_contract(omega_std(b), xi(b)) == Orientation(1, ())


def test_omega_sd_on_corolla():
    for c in [tree_corolla(4), module_corolla(2, 1), inner_corolla(1, 1)]:
        got = omega_sd(dmin(c), c, Orientation(1, ()), [])
        assert got == xi(dmin(c))


def test_omega_sd_on_maximal_binary():
    for c in [tree_corolla(4), module_corolla(2, 1), inner_corolla(1, 1)]:
        b = dmax(c)
        got = omega_sd(c, b, omega_std(b), [])
        assert got == Orientation(1, ())


def test_omega_sd_refuses_a_summand_not_below():
    # for the corolla D, D_min is the bottom of the order, so no other
    # binary S has S_max <= D_min, and no path of D_min's down-set reaches
    # S_max
    for shape in SMALL_SHAPES:
        c = corolla_of(shape)
        tree = _reach(dmin(c), cocovers)
        assert list(tree) == [dmin(c)]
        for s in enumerate_class(shape, 0):
            if s != dmin(c):
                with pytest.raises(DiagramError,
                                   match="did not reach S_max"):
                    omega_sd(s, c, Orientation(1, ()),
                             tree_path(tree, dmin(c)))


def test_omega_sd_path_independent():
    # compare the induced orientation over up to 200 down paths, not just
    # the tree path p takes
    from planarops.tamari import leq, positive_edges
    cases = []
    for shape in (ShapeClass(TREE, (5,)), ShapeClass(INNER, (2, 1))):
        c = corolla_of(shape)
        n = leaf_count(c)
        for deg in range(0, n - 1):
            for d in enumerate_class(shape, deg):
                if positive_edges(dmin(d)) != frozenset(edges(d)):
                    continue
                # summands have complementary degree: as many edges as d has
                for s in enumerate_class(shape, n - 2 - deg):
                    if leq(dmax(s), dmin(d)):
                        cases.append((s, d))
    assert cases
    for s, d in cases:
        omega_d = orient(edges(d), 1)
        tree, cells = cells_below(d)
        assert (s, dmax(s)) in cells
        ref = omega_sd(s, d, omega_d, tree_path(tree, dmax(s)))
        for path in _alt_down_paths(dmin(d), dmax(s), limit=200):
            assert omega_sd(s, d, omega_d, path) == ref, (fmt(s), fmt(d))
