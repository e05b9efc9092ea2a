import copy
import itertools
import pickle
import random

import pytest

from planarops.diagrams import (
    INNER, MODULE, TREE, DiagramError, ShapeClass, corolla_of, degree, edges,
    enumerate_class, inner_corolla, leaf_count, module_corolla, parse,
    tree_corolla,
)
from planarops import perms
from planarops.formal import FormalSum, evaluate, unit
from planarops.operad_c import (
    CGenerator, boundary_c, c_generator, c_unit, compose_c,
    compose_elements, decompose_corollas, sym_action,
)
from planarops.operad_q import (
    QGenerator, boundary_q, compose_q, compose_elements as compose_q_elements,
    decompose_nonmetric, q_action, q_generator, q_unit,
)
from planarops.orientations import orient

SMALL_SHAPES = [
    ShapeClass(TREE, (3,)), ShapeClass(TREE, (4,)), ShapeClass(TREE, (5,)),
    ShapeClass(MODULE, (1, 1)), ShapeClass(MODULE, (2, 1)),
    ShapeClass(MODULE, (0, 2)),
    ShapeClass(INNER, (1, 1)), ShapeClass(INNER, (2, 0)),
    ShapeClass(INNER, (1, 2)),
]


def class_generators(shape):
    c = corolla_of(shape)
    for deg in range(degree(c) + 1):
        for d in enumerate_class(shape, deg):
            yield c_unit(d)


def class_q_generators(shape):
    c = corolla_of(shape)
    for deg in range(degree(c) + 1):
        for d in enumerate_class(shape, deg):
            es = edges(d)
            for r in range(len(es) + 1):
                for metric in itertools.combinations(es, r):
                    yield q_unit(d, metric=metric)


# --- boundary ---------------------------------------------------------------

def test_boundary_t3():
    x = boundary_c(c_unit(tree_corolla(3)))
    expect = c_unit(parse("((* *) *)")) + c_unit(parse("(* (* *))"))
    assert x == expect


def test_boundary_squares_to_zero():
    for shape in SMALL_SHAPES:
        for x in class_generators(shape):
            assert not boundary_c(boundary_c(x))


def test_boundary_i20_has_five_monomials():
    assert len(boundary_c(c_unit(inner_corolla(2, 0)))) == 5


def test_boundary_drops_degree_by_one():
    x = boundary_c(c_unit(tree_corolla(5)))
    for gen, _coef in x:
        assert degree(gen.diagram) == 2


# --- symmetric action -------------------------------------------------------

def test_action_transposition():
    x = sym_action((2, 1), c_unit(tree_corolla(2)))
    ((gen, coef),) = list(x)
    assert coef == -1 and gen.perm == (2, 1)


def test_action_is_a_group_action():
    rng = random.Random(7)
    for n, d in [(3, tree_corolla(3)), (4, module_corolla(2, 1))]:
        x = c_unit(d)
        for _ in range(20):
            sigma = tuple(rng.sample(range(1, n + 1), n))
            tau = tuple(rng.sample(range(1, n + 1), n))
            assert (sym_action(perms.compose(sigma, tau), x)
                    == sym_action(tau, sym_action(sigma, x)))
    assert sym_action(perms.identity(3), c_unit(tree_corolla(3))) \
        == c_unit(tree_corolla(3))


# --- composition ------------------------------------------------------------

def gen_of(diagram):
    return c_generator(diagram)[0]


def test_compose_t2_t2():
    x = compose_c(gen_of(tree_corolla(2)), 1, gen_of(tree_corolla(2)))
    assert x == c_unit(parse("((* *) *)")).scale(-1)


def test_compose_color_mismatch_is_zero():
    m = gen_of(module_corolla(1, 1))
    assert not compose_c(m, 1, gen_of(module_corolla(1, 0)))
    assert not compose_c(gen_of(tree_corolla(3)), 1, m)
    assert not compose_c(gen_of(inner_corolla(1, 1)), 2,
                         gen_of(inner_corolla(0, 0)))


def test_compose_inner_module_rotation_sign():
    # I_{r',r''} o_1 M_{s',s''} carries sgn tau^{s'} = (-1)^{s'(r+s'')}
    for (rp, rpp), (sp, spp) in [((1, 0), (1, 0)), ((1, 1), (2, 1)),
                                 ((0, 2), (1, 2))]:
        x = compose_c(gen_of(inner_corolla(rp, rpp)), 1,
                      gen_of(module_corolla(sp, spp)))
        ((gen, coef),) = list(x)
        r, s = rp + rpp + 2, sp + spp + 1
        assert coef == (-1) ** ((s + 1) + r * (s - 2))
        # the labeling is the cyclic rotation tau^{s'}, of sign (-1)^{s'(r+s'')}
        n = r + s - 1
        from planarops.diagrams import shape_class
        assert shape_class(gen.diagram) == ShapeClass(INNER,
                                                      (rp + spp, rpp + sp))
        assert gen.perm == perms.rotation(n, sp)
        assert perms.sign(gen.perm) == (-1) ** (sp * (r + spp))


def test_operad_vertical_associativity():
    rng = random.Random(3)
    pool = [tree_corolla(2), tree_corolla(3), parse("((* *) *)"),
            module_corolla(1, 1), parse("{* ; | ; *}"),
            inner_corolla(1, 1), parse("<{ ; | ; *} ; ; | ; *>")]
    cases = 0
    for x_d, y_d, z_d in itertools.product(pool, repeat=3):
        x, y, z = gen_of(x_d), gen_of(y_d), gen_of(z_d)
        ky, kz = leaf_count(y_d), leaf_count(z_d)
        for i in range(1, leaf_count(x_d) + 1):
            xy = compose_c(x, i, y)
            for j in range(1, ky + 1):
                yz = compose_c(y, j, z)
                lhs = FormalSum()
                for g, c in xy.terms.items():
                    lhs = lhs + compose_c(g, i + j - 1, z).scale(c)
                rhs = FormalSum()
                for g, c in yz.terms.items():
                    rhs = rhs + compose_c(x, i, g).scale(c)
                if lhs or rhs:
                    cases += 1
                assert lhs == rhs
    assert cases > 10


def test_operad_horizontal_commutation():
    # (x o_i y) o_{j+l-1} z = (-1)^{|y||z|} (x o_j z) o_i y  for i < j
    pool = [parse("((* *) *)"), tree_corolla(3), tree_corolla(2),
            module_corolla(1, 0)]
    checked = 0
    for x_d in [tree_corolla(3), tree_corolla(4), module_corolla(2, 1)]:
        x = gen_of(x_d)
        for y_d, z_d in itertools.product(pool, repeat=2):
            y, z = gen_of(y_d), gen_of(z_d)
            ly = leaf_count(y_d)
            for i in range(1, leaf_count(x_d)):
                for j in range(i + 1, leaf_count(x_d) + 1):
                    lhs = FormalSum()
                    for g, c in compose_c(x, i, y).terms.items():
                        lhs = lhs + compose_c(g, j + ly - 1, z).scale(c)
                    rhs = FormalSum()
                    for g, c in compose_c(x, j, z).terms.items():
                        rhs = rhs + compose_c(g, i, y).scale(c)
                    sign = (-1) ** (degree(y_d) * degree(z_d))
                    if lhs or rhs:
                        checked += 1
                    assert lhs == rhs.scale(sign)
    assert checked > 10


def test_boundary_is_a_derivation():
    pairs = [(tree_corolla(3), tree_corolla(3)),
             (parse("((* *) *)"), tree_corolla(2)),
             (module_corolla(1, 1), tree_corolla(3)),
             (inner_corolla(1, 1), module_corolla(1, 1))]
    for x_d, y_d in pairs:
        x, y = gen_of(x_d), gen_of(y_d)
        for i in range(1, leaf_count(x_d) + 1):
            xy = compose_c(x, i, y)
            lhs = boundary_c(xy)
            rhs = FormalSum()
            for g, c in boundary_c(unit(x)).terms.items():
                rhs = rhs + compose_c(g, i, y).scale(c)
            sx = (-1) ** degree(x_d)
            for g, c in boundary_c(unit(y)).terms.items():
                rhs = rhs + compose_c(x, i, g).scale(c * sx)
            assert lhs == rhs


# --- corolla decomposition --------------------------------------------------

def unfold(step, leaf, compose, act):
    """The map a decomposition step defines, without a memo: the value of a
    generator is its step evaluated on the values of its children."""
    def value(gen):
        return evaluate(step(gen), value, leaf, compose, act)
    return value


rebuild_c = unfold(decompose_corollas, c_unit, compose_elements, sym_action)


def test_decompose_left_comb():
    gen = gen_of(parse("((* *) *)"))
    assert rebuild_c(gen) == unit(gen)


def test_decompose_step_nodes():
    # a relabeling first, then cuts down to corollas; children are
    # identity-labeled generators, not subtrees
    d = parse("((* *) *)")
    gen = gen_of(d)
    coef, node = decompose_corollas(CGenerator(d, (2, 1, 3), gen.keys))
    assert (coef, node) == (-1, ("act", (2, 1, 3), gen))
    coef, (kind, host, pos, outer, sigma) = decompose_corollas(gen)
    assert kind == "compose" and pos == 1 and sigma is None
    assert decompose_corollas(host) == (1, ("leaf", host.diagram))
    assert decompose_corollas(outer) == (1, ("leaf", outer.diagram))


def test_decompose_roundtrip():
    rng = random.Random(11)
    for shape in SMALL_SHAPES:
        c = corolla_of(shape)
        n = leaf_count(c)
        for deg in range(degree(c) + 1):
            for d in enumerate_class(shape, deg):
                gen = gen_of(d)
                assert rebuild_c(gen) == unit(gen)
                sigma = tuple(rng.sample(range(1, n + 1), n))
                gen2 = CGenerator(d, sigma, gen.keys)
                assert rebuild_c(gen2) == unit(gen2)


# --- Q operad ---------------------------------------------------------------

def test_boundary_q_corolla_is_zero():
    assert not boundary_q(q_unit(tree_corolla(4), metric=()))


def test_boundary_q_one_metric_edge():
    d = parse("((* *) *)")
    x = boundary_q(q_unit(d))
    assert len(x) == 2
    terms = dict(x.terms)
    assert terms[QGenerator(tree_corolla(3), (1, 2, 3), ())] == -1
    assert terms[QGenerator(d, (1, 2, 3), ())] == 1


def test_boundary_q_squares_to_zero():
    for shape in SMALL_SHAPES:
        for x in class_q_generators(shape):
            assert not boundary_q(boundary_q(x))


def test_q_action_is_unsigned():
    x = q_action((2, 1), q_unit(tree_corolla(2)))
    ((gen, coef),) = list(x)
    assert coef == 1 and gen.perm == (2, 1)


def test_compose_q_degree_adds():
    x = q_generator(parse("((* *) *)"))[0]
    y = q_generator(parse("(* (* *))"))[0]
    z = compose_q(x, 2, y)
    ((gen, coef),) = list(z)
    assert coef == 1
    assert len(gen.metric) == 2
    assert gen.nonmetric() and len(gen.nonmetric()) == 1


def test_q_boundary_is_a_derivation():
    x = q_generator(parse("((* *) *)"))[0]
    y = q_generator(module_corolla(1, 1), metric=())[0]
    m = q_generator(parse("{* ; {; | ; *} ; }"))[0]
    for a, i, b in [(m, 1, x), (m, 2, x), (x, 3, y)]:
        ab = compose_q(a, i, b)
        lhs = boundary_q(ab)
        rhs = FormalSum()
        for g, c in boundary_q(unit(a)).terms.items():
            rhs = rhs + compose_q(g, i, b).scale(c)
        sa = (-1) ** len(a.metric)
        for g, c in boundary_q(unit(b)).terms.items():
            rhs = rhs + compose_q(a, i, g).scale(c * sa)
        assert lhs == rhs


def test_decompose_nonmetric_roundtrip():
    rng = random.Random(5)
    rebuild_q = unfold(decompose_nonmetric, q_unit, compose_q_elements,
                       q_action)
    for shape in SMALL_SHAPES:
        for x in class_q_generators(shape):
            ((gen, coef),) = list(x)
            assert rebuild_q(gen) == unit(gen)
            n = leaf_count(gen.diagram)
            sigma = tuple(rng.sample(range(1, n + 1), n))
            # the action is unsigned, so a relabeling adds no sign
            gen2 = QGenerator(gen.diagram, sigma, gen.metric)
            assert rebuild_q(gen2) == unit(gen2)


# --- the generator contract -------------------------------------------------

CONTRACT_DIAGRAM = "<{* ; | ; } ;  ; | ; *>"


def contract_generators():
    d = parse(CONTRACT_DIAGRAM)
    key = (frozenset({1, 4}),)
    return CGenerator(d, (2, 1, 3, 4), key), QGenerator(d, (2, 1, 3, 4), key)


def test_generator_hash_is_the_hash_of_its_fields():
    c, q = contract_generators()
    assert hash(c) == hash((c.diagram, c.perm, c.keys))
    assert hash(q) == hash((q.diagram, q.perm, q.metric))


def test_generators_of_the_two_operads_never_compare_equal():
    c, q = contract_generators()
    assert hash(c) == hash(q)
    assert c != q and q != c
    assert not c == q
    assert len({c, q}) == 2
    assert c == CGenerator(c.diagram, c.perm, c.keys)
    assert q == QGenerator(q.diagram, q.perm, q.metric)
    assert c != CGenerator(c.diagram, (1, 2, 3, 4), c.keys)
    assert q != QGenerator(q.diagram, q.perm, ())


def test_q_generator_rejects_a_repeated_metric_edge():
    d = parse("((* *) *)")
    e, = edges(d)
    for orientation in (None, orient([e], 1)):
        with pytest.raises(DiagramError, match="a metric lists each edge"):
            q_generator(d, metric=[e, e], orientation=orientation)


@pytest.mark.parametrize("name", ["diagram", "perm", "keys", "metric",
                                  "wedge", "_hash", "other"])
def test_generators_are_immutable(name):
    for gen in contract_generators():
        with pytest.raises(AttributeError):
            setattr(gen, name, None)
        with pytest.raises(AttributeError):
            delattr(gen, name)
        assert not hasattr(gen, "__dict__")


def test_generators_survive_copy_and_pickle():
    for gen in contract_generators():
        copies = [copy.copy(gen), copy.deepcopy(gen)] + [
            pickle.loads(pickle.dumps(gen, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for other in copies:
            assert type(other) is type(gen)
            assert other == gen and hash(other) == hash(gen)
            assert other.diagram is gen.diagram


def test_generator_repr():
    c, q = contract_generators()
    assert repr(c) == "C(%s; [2, 1, 3, 4]; [[1, 4]])" % CONTRACT_DIAGRAM
    assert repr(q) == "Q(%s; [2, 1, 3, 4]; m=[[1, 4]])" % CONTRACT_DIAGRAM
    assert repr(QGenerator(q.diagram, (1, 2, 3, 4), ())) == \
        "Q(%s; [1, 2, 3, 4]; m=[])" % CONTRACT_DIAGRAM
