import itertools
import random

from planarops.diagrams import (
    INNER, MODULE, TREE, ShapeClass, corolla_of, degree, edges,
    enumerate_class, inner_corolla, leaf_count, mirror, module_corolla, parse,
    rotate180, shapes_up_to, tree_corolla,
)
from planarops.formal import FormalSum, unit
from planarops.operad_c import boundary_c, c_unit, compose_elements
from planarops.operad_q import QGenerator, boundary_q, q_unit
from planarops.diagonal import (
    c_tensor_boundary, c_tensor_compose, coassoc_defect_q, delta_c,
    delta_c_mod_higher, delta_q, noncoassociativity_witness,
    q_tensor_boundary, support_formula, unsigned_support,
)
from planarops.tamari import dmax, dmin, leq

SMALL_SHAPES = [
    ShapeClass(TREE, (3,)), ShapeClass(TREE, (4,)),
    ShapeClass(MODULE, (1, 1)), ShapeClass(MODULE, (2, 0)),
    ShapeClass(INNER, (1, 1)), ShapeClass(INNER, (2, 0)),
]


def q_generators(shape, max_marks=None):
    c = corolla_of(shape)
    for deg in range(degree(c) + 1):
        for d in enumerate_class(shape, deg):
            es = edges(d)
            for r in range(len(es) + 1):
                for metric in itertools.combinations(es, r):
                    yield q_unit(d, metric=metric)


# --- Serre diagonal ---------------------------------------------------------

def test_delta_q_on_corolla():
    x = q_unit(tree_corolla(4), metric=())
    ((gen, _), ) = list(x)
    assert delta_q(x) == unit((gen, gen))


def test_delta_q_one_metric_edge():
    d = parse("((* *) *)")
    x = delta_q(q_unit(d))
    (e,) = edges(d)
    g_metric = QGenerator(d, (1, 2, 3), (e,))
    g_contracted = QGenerator(tree_corolla(3), (1, 2, 3), ())
    g_frozen = QGenerator(d, (1, 2, 3), ())
    assert x == FormalSum([((g_contracted, g_metric), 1),
                           ((g_metric, g_frozen), 1)])


def test_delta_q_two_metric_edges_sign():
    d = parse("(((* *) *) *)")
    x = delta_q(q_unit(d))
    e1, e2 = sorted(edges(d), key=sorted)
    for (a, b), coef in x:
        if a.metric == (e2,) and b.metric == (e1,):
            assert coef == -1       # X = {e1}: rho = 1
        else:
            assert coef == 1


def test_delta_q_coassociative():
    for shape in SMALL_SHAPES:
        for x in q_generators(shape):
            assert not coassoc_defect_q(x)


def test_delta_q_is_a_chain_map():
    for shape in SMALL_SHAPES:
        for x in q_generators(shape):
            assert delta_q(boundary_q(x)) == q_tensor_boundary(delta_q(x))


# --- the induced diagonal ---------------------------------------------------

def test_delta_c_t2():
    x = c_unit(tree_corolla(2))
    ((gen, _), ) = list(x)
    assert delta_c(x) == unit((gen, gen))


def _two_generators():
    (a, _), = c_unit(inner_corolla(2, 0))
    (b, _), = c_unit(parse("((* *) *)"))
    return a, b


def test_delta_c_of_a_sum_is_the_sum_of_the_images():
    # the images are memoized per generator; on a sum they must still add
    # up to the composite p (x) p . Delta . q, and cancel in a difference
    from planarops.diagonal import p_tensor
    from planarops.transfer import q_map
    a, b = _two_generators()
    x = unit(a, 3) + unit(b, -3)
    got = delta_c(x)
    assert got == p_tensor(delta_q(q_map(x)))
    expected = FormalSum()
    for gen, coef in ((a, 3), (b, -3)):
        for pair, c in delta_c(unit(gen)).terms.items():
            expected.add_term(pair, coef * c)
    assert got == expected
    assert not got - delta_c(unit(a, 3)) + delta_c(unit(b, 3))


def test_delta_c_returns_a_fresh_sum():
    # an in-place add on one result must not reach the memoized image
    a, _b = _two_generators()
    first = delta_c(unit(a))
    before = dict(first.terms)
    first.add(first, 2)
    first.add_term(("not", "a pair"), 1)
    assert delta_c(unit(a)).terms == before


def test_fresh_caches_clears_the_delta_c_images(fresh_caches):
    from planarops.diagonal import _delta_c_image
    a, _b = _two_generators()
    delta_c(unit(a))
    assert _delta_c_image.cache_info().currsize == 1
    fresh_caches()
    assert _delta_c_image.cache_info().currsize == 0


def test_delta_c_t3_support():
    x = delta_c(c_unit(tree_corolla(3)))
    assert unsigned_support(x) == {
        (parse("((* *) *)"), tree_corolla(3)),
        (tree_corolla(3), parse("(* (* *))")),
    }


def test_delta_c_i20_monomials():
    c = inner_corolla(2, 0)
    x = delta_c(c_unit(c))
    assert len(x) == 6
    supp = unsigned_support(x)
    assert (dmin(c), c) in supp
    assert (c, dmax(c)) in supp
    mixed = [(a, b) for (a, b) in supp
             if degree(a) == 1 and degree(b) == 1]
    assert len(mixed) == 4
    lefts = [a for a, _b in mixed]
    assert len(set(lefts)) == 3     # one left factor appears twice


def test_delta_c_i20_path_property():
    # the left factors pairing with a fixed right factor T chain the vertex
    # poset monotonically from the global minimum up to T's lower endpoint
    from planarops.diagrams import expansions
    c = inner_corolla(2, 0)
    x = delta_c(c_unit(c))
    mixed = [(a.diagram, b.diagram) for (a, b) in x.support()
             if degree(a.diagram) == 1 and degree(b.diagram) == 1]
    bmin = dmin(c)
    for t in {b for _a, b in mixed}:
        cells = [a for a, bb in mixed if bb == t]
        t_min = dmin(t)
        counts = {}
        for cell in cells:
            for v, _e in expansions(cell):
                counts[v] = counts.get(v, 0) + 1
        odd = {v for v, n in counts.items() if n % 2 == 1}
        assert odd == {bmin, t_min}
        # and every left factor sits below T's lower endpoint
        for cell in cells:
            assert leq(dmax(cell), t_min)


def test_support_formula_matches_delta_c():
    for shape in SMALL_SHAPES + [ShapeClass(TREE, (5,)),
                                 ShapeClass(INNER, (1, 2))]:
        c = corolla_of(shape)
        got = unsigned_support(delta_c(c_unit(c)))
        assert got == set(support_formula(c))


def test_delta_c_is_a_chain_map():
    for shape in SMALL_SHAPES:
        c = corolla_of(shape)
        for deg in range(degree(c) + 1):
            for d in enumerate_class(shape, deg):
                x = c_unit(d)
                assert delta_c(boundary_c(x)) == c_tensor_boundary(delta_c(x))


def test_delta_c_is_multiplicative():
    pairs = [(tree_corolla(3), 1, tree_corolla(2)),
             (tree_corolla(2), 2, tree_corolla(3)),
             (module_corolla(1, 1), 2, module_corolla(1, 0)),
             (inner_corolla(1, 0), 1, module_corolla(0, 1))]
    for xd, i, yd in pairs:
        x, y = c_unit(xd), c_unit(yd)
        lhs = delta_c(compose_elements(x, i, y))
        rhs = c_tensor_compose(delta_c(x), i, delta_c(y))
        assert lhs == rhs


def _composite_mismatches(rng, max_leaves):
    """The generators up to `max_leaves` leaves, each identity-labeled and
    with one labeling drawn from `rng`, where delta_c differs from the
    composite p (x) p . Delta . q; and how many were compared."""
    from planarops.diagonal import p_tensor
    from planarops.operad_c import c_generator
    from planarops.transfer import q_map
    from planarops.verify import class_diagrams
    bad, compared = [], 0
    for shape in shapes_up_to(max_leaves):
        for d in class_diagrams(shape):
            n = leaf_count(d)
            for perm in (None, tuple(rng.sample(range(1, n + 1), n))):
                x = unit(c_generator(d, perm)[0])
                if delta_c(x) != p_tensor(delta_q(q_map(x))):
                    bad.append(x)
                compared += 1
    return bad, compared


def test_delta_c_equals_the_composite(fresh_caches):
    # delta_c evaluates each generator's corolla decomposition, so it is
    # the composite only if that is multiplicative and equivariant; the
    # composite is the definition, on every generator up to 5 leaves
    from planarops.diagonal import c_tensor_action
    from planarops.operad_c import sym_action
    for d, sigma in [(tree_corolla(3), (2, 3, 1)),
                     (inner_corolla(1, 1), (3, 1, 4, 2))]:
        x = c_unit(d)
        assert delta_c(sym_action(sigma, x)) == c_tensor_action(sigma,
                                                                delta_c(x))
    for seed in (5, 6):
        bad, compared = _composite_mismatches(random.Random(seed), 5)
        assert not bad, bad[:3]
        assert compared == 1172


def test_delta_c_needs_the_positive_edges(monkeypatch, fresh_caches):
    # mutation check: a corolla's image taken over the negative edges of
    # each binary instead must differ from the composite
    from planarops import diagonal
    from planarops.tamari import classify_edges

    def negative_edges(b):
        return frozenset(e for e, s in classify_edges(b).items() if s < 0)

    with monkeypatch.context() as patch:
        patch.setattr(diagonal, "positive_edges", negative_edges)
        bad, _compared = _composite_mismatches(random.Random(5), 4)
    assert bad


# --- rotation symmetry (skew pairing) ----------------------------------------

def test_rotation_commutes_with_min_max():
    for shape in [ShapeClass(INNER, (1, 1)), ShapeClass(INNER, (2, 0)),
                  ShapeClass(INNER, (2, 1))]:
        c = corolla_of(shape)
        for deg in range(degree(c) + 1):
            for d in enumerate_class(shape, deg):
                assert rotate180(dmax(d)) == dmax(rotate180(d))
                assert rotate180(dmin(d)) == dmin(rotate180(d))


def test_rotation_preserves_order():
    shape = ShapeClass(INNER, (1, 1))
    c = corolla_of(shape)
    n = leaf_count(c)
    cells = [d for deg in range(degree(c) + 1)
             for d in enumerate_class(shape, deg)]
    for s in cells:
        for d in cells:
            lhs = leq(dmax(s), dmin(d))
            rhs = leq(dmax(rotate180(s)), dmin(rotate180(d)))
            assert lhs == rhs


# --- reflection symmetry -----------------------------------------------------

def test_mirror_swaps_the_factors_of_the_corolla_diagonal():
    # S_max <= T_min, read through an order-reversing involution, is
    # mirror(T)_max <= mirror(S)_min
    corollas = [corolla_of(shape) for shape in shapes_up_to(6)]
    for c in corollas:
        got = unsigned_support(delta_c(c_unit(mirror(c))))
        assert got == {(mirror(t), mirror(s))
                       for s, t in unsigned_support(delta_c(c_unit(c)))}, c
    assert len(corollas) == 40


# --- reduction modulo higher inner products ----------------------------------

def mod_support(c):
    return unsigned_support(delta_c_mod_higher(c_unit(c)))


def test_mod_higher_i00():
    c = inner_corolla(0, 0)
    assert mod_support(c) == {(c, c)}


def test_mod_higher_vanishing():
    for jk in [(1, 0), (0, 1), (1, 1)]:
        assert mod_support(inner_corolla(*jk)) == set()


def test_mod_higher_i20():
    expected = {(parse("<{ ; | ; * *} ; ; | ; >"),
                 parse("<| ; ; {* * ; | ; } ; >"))}
    assert mod_support(inner_corolla(2, 0)) == expected


def test_mod_higher_i21():
    expected = {
        (parse("<{* ; | ; * *} ; ; | ; >"),
         parse("<{* ; | ; } ; ; {* * ; | ; } ; >")),
        (parse("<{ ; | ; * *} ; ; { ; | ; *} ; >"),
         parse("<| ; ; {* * ; | ; *} ; >")),
    }
    assert mod_support(inner_corolla(2, 1)) == expected


def test_mod_higher_i30():
    s = parse("<{ ; | ; * * *} ; ; | ; >")
    t1 = parse("<| ; ; {* (* *) ; | ; } ; >")
    t2 = parse("<| ; ; {* ; {* * ; | ; } ; } ; >")
    s1m = parse("<{ ; | ; (* *) *} ; ; | ; >")
    s2m = parse("<{ ; { ; | ; * *} ; *} ; ; | ; >")
    tm = parse("<| ; ; {* * * ; | ; } ; >")
    assert mod_support(inner_corolla(3, 0)) == {
        (s, t1), (s, t2), (s1m, tm), (s2m, tm)}


def test_mod_higher_i40():
    S = parse("<{ ; | ; * * * *} ; ; | ; >")
    T1 = parse("<| ; ; {* (* (* *)) ; | ; } ; >")
    T2 = parse("<| ; ; {* ; {* (* *) ; | ; } ; } ; >")
    T3 = parse("<| ; ; {* ; {* ; {* * ; | ; } ; } ; } ; >")
    Sa = parse("<{ ; | ; (* * *) *} ; ; | ; >")
    Ta = parse("<| ; ; {* ; {* * * ; | ; } ; } ; >")
    mTa = parse("<{ ; { ; | ; * * *} ; *} ; ; | ; >")
    mSa = parse("<| ; ; {* (* * *) ; | ; } ; >")
    Sc = parse("<{ ; | ; * (* *) *} ; ; | ; >")
    mSc = parse("<| ; ; {* (* *) * ; | ; } ; >")
    Sd = parse("<{ ; | ; (* *) * *} ; ; | ; >")
    Td = parse("<| ; ; {* * ; {* * ; | ; } ; } ; >")
    mTd = parse("<{ ; { ; | ; * *} ; * *} ; ; | ; >")
    mSd = parse("<| ; ; {* * (* *) ; | ; } ; >")
    mT3 = parse("<{ ; { ; { ; | ; * *} ; *} ; *} ; ; | ; >")
    mT2 = parse("<{ ; { ; | ; (* *) *} ; *} ; ; | ; >")
    mT1 = parse("<{ ; | ; ((* *) *) *} ; ; | ; >")
    mS = parse("<| ; ; {* * * * ; | ; } ; >")
    displayed = {
        (S, T1), (S, T2), (S, T3),
        (Sa, Ta), (mTa, mSa),
        (Sc, Ta), (mTa, mSc),
        (Sd, Td), (mTd, mSd),
        (mT3, mS), (mT2, mS), (mT1, mS),
    }
    got = mod_support(inner_corolla(4, 0))
    # every displayed monomial is present ...
    assert displayed <= got
    # ... and the remaining middle-degree terms are exactly the admissible
    # pairs the published display omits (each passes S_max <= T_min and the
    # set is closed under the left-right mirror); cross-checked against the
    # direct support formula
    from planarops.diagonal import _central_vertex_bare
    direct = {(s, t) for (s, t) in support_formula(inner_corolla(4, 0))
              if _central_vertex_bare(s) and _central_vertex_bare(t)}
    assert got == direct
    extra = got - displayed
    assert extra == {
        (Sa, mSa), (Sa, mSc), (Sc, mSa),
        (mTa, Ta), (Sd, mSd), (mTd, Td),
    }
    for s, t in extra:
        assert leq(dmax(s), dmin(t))


# --- coassociativity failure -------------------------------------------------

def test_noncoassociativity_witness_found():
    got = noncoassociativity_witness(5)
    assert got is not None
    witness, defect = got
    assert defect
