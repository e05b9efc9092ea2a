import random
from fractions import Fraction
from pathlib import Path

import pytest

from planarops.diagrams import (
    INNER, MODULE, TREE, ShapeClass, ThinTree, LEAF, corolla_of, degree,
    enumerate_class, inner_corolla, leaf_count, module_corolla, parse,
    shapes_up_to, tree_corolla, tree_diagram,
)
from planarops.formal import unit
from planarops.operad_c import boundary_c, c_generator, c_unit, compose_c
from planarops.diagonal import delta_c
from planarops.endo import (
    GradedModule, MultiMap, StructureError, StructureSet, commutator,
    compose_at, eval_element, eval_generator, load_structures, map_type,
    pair_evaluate, precompose_differential, residual_a_infinity,
    residual_bimodule, residual_inner, sigma_sharp, structures_from_dict,
    tensor_structure, validate_structures,
)

FIXTURES = Path(__file__).resolve().parent.parent / "src/planarops/fixtures"


def fixture(name):
    return load_structures(FIXTURES / ("%s.json" % name))


def random_structures(rng, degrees, max_mu=4, rho_degree=0, max_inner=1):
    """Arbitrary (generally invalid) structure constants, degree-consistent."""
    module = GradedModule(tuple("b%d" % i for i in range(len(degrees))),
                          tuple(degrees))
    dim = len(degrees)
    d = MultiMap(module, 1, "module", 1,
                 [(((i,), j), Fraction(rng.randint(-2, 2)))
                  for i in range(dim) for j in range(dim)
                  if degrees[j] == degrees[i] + 1])
    s = StructureSet(module, d, name="random", rho_degree=rho_degree)
    import itertools
    for k in range(2, max_mu + 1):
        entries = []
        for args in itertools.product(range(dim), repeat=k):
            for out in range(dim):
                if sum(degrees[a] for a in args) + 2 - k == degrees[out]:
                    entries.append(((args, out),
                                    Fraction(rng.randint(-2, 2))))
        s.set_map(ShapeClass(TREE, (k,)),
                  MultiMap(module, k, "module", 2 - k, entries))
    for j in range(max_inner + 1):
        for k in range(max_inner + 1 - j):
            entries = []
            for args in itertools.product(range(dim), repeat=j + k + 2):
                if sum(degrees[a] for a in args) + rho_degree - j - k == 0:
                    entries.append(
                        ((args, None), Fraction(rng.randint(-2, 2))))
            s.set_map(ShapeClass(INNER, (j, k)), MultiMap(
                module, j + k + 2, "scalar", rho_degree - j - k, entries))
    s.use_canonical_bimodule(max_mu + 2)
    return s


# --- evaluation basics --------------------------------------------------------

def test_corolla_evaluates_to_structure_map():
    s = fixture("frobenius")
    assert eval_generator(c_generator(tree_corolla(2))[0], s) == s.mu_map(2)
    assert eval_generator(c_generator(module_corolla(1, 0))[0], s) \
        == s.lam_map(1, 0)
    assert eval_generator(c_generator(inner_corolla(0, 0))[0], s) \
        == s.rho_map(0, 0)


def test_eval_generator_is_memoized_on_the_structure_set():
    s = fixture("frobenius")
    g = c_generator(parse("((* *) *)"))[0]
    assert eval_generator(g, s) is eval_generator(g, s)
    assert eval_generator(g, fixture("frobenius")) == eval_generator(g, s)


def test_a_new_structure_map_reaches_the_next_evaluation():
    # the composite evaluates mu_2 o_1 mu_2, so doubling mu_2 scales it by 4
    s = fixture("frobenius")
    g = c_generator(parse("((* *) *)"))[0]
    before = eval_generator(g, s)
    assert before
    s.set_map(ShapeClass(TREE, (2,)), s.mu_map(2).scale(2))
    assert eval_generator(g, s) == before.scale(4)


def test_a_new_rho_degree_reaches_the_next_evaluation():
    # rho_{1,0} is missing, so it evaluates to the zero map whose degree
    # rho_degree sets
    rng = random.Random(6)
    s = random_structures(rng, (0, 1), max_mu=2, max_inner=0)
    g = c_generator(inner_corolla(1, 0))[0]
    assert eval_generator(g, s).degree == -1
    s.rho_degree = 3
    assert eval_generator(g, s).degree == 2


def test_one_edge_tree_sign():
    # a subtree of arity j at slot i of an arity-l vertex evaluates to
    # (-1)^{i(j+1)+jl} mu_l o_i mu_j
    rng = random.Random(1)
    s = random_structures(rng, (0, -1), max_mu=4)
    for i, j, l in [(1, 2, 2), (2, 2, 2), (1, 2, 3), (2, 3, 2), (3, 2, 3)]:
        children = [LEAF] * l
        children[i - 1] = ThinTree((LEAF,) * j)
        d = tree_diagram(ThinTree(tuple(children)))
        got = eval_generator(c_generator(d)[0], s)
        expected = compose_at(s.mu_map(l), i, s.mu_map(j)) \
            .scale((-1) ** (i * (j + 1) + j * l))
        assert got == expected, (i, j, l)


def test_eval_is_multiplicative_on_random_draws():
    rng = random.Random(42)
    pool = [tree_corolla(2), tree_corolla(3), parse("((* *) *)"),
            module_corolla(1, 1), module_corolla(1, 0),
            inner_corolla(1, 0), inner_corolla(0, 0)]
    for draw in range(20):
        s = random_structures(rng, (0, rng.choice((-1, 1))), max_mu=4,
                              max_inner=1)
        for _ in range(6):
            xd = rng.choice(pool)
            yd = rng.choice([p for p in pool if p.kind != INNER])
            i = rng.randint(1, leaf_count(xd))
            x, y = c_generator(xd)[0], c_generator(yd)[0]
            xy = compose_c(x, i, y)
            lhs = eval_element(xy, s) if xy else None
            fx, fy = eval_generator(x, s), eval_generator(y, s)
            if not xy:
                continue
            rhs = compose_at(fx, i, fy)
            assert lhs == rhs


def _relabeled_draws():
    """(draws, failures) of multiplicativity on draws whose outer generator
    carries a random labeling, so sigma_sharp meets non-rotations."""
    from planarops.verify import _random_structures
    rng = random.Random(2024)
    pool = [tree_corolla(2), tree_corolla(3), parse("((* *) *)"),
            module_corolla(1, 1), module_corolla(1, 0),
            inner_corolla(1, 0), inner_corolla(0, 0)]
    draws = failures = 0
    for _ in range(20):
        s = _random_structures(rng, (0, 1))
        for _ in range(4):
            xd = rng.choice(pool)
            yd = rng.choice([p for p in pool if p.kind != INNER])
            n = leaf_count(xd)
            x = c_generator(xd, tuple(rng.sample(range(1, n + 1), n)))[0]
            y = c_generator(yd)[0]
            i = rng.randint(1, n)
            xy = compose_c(x, i, y)
            if xy:
                draws += 1
                failures += eval_element(xy, s) != compose_at(
                    eval_generator(x, s), i, eval_generator(y, s))
    return draws, failures


def test_eval_is_multiplicative_on_relabeled_draws():
    draws, failures = _relabeled_draws()
    assert draws >= 30 and failures == 0, (draws, failures)


def test_sigma_sharp_koszul_sign_is_load_bearing(monkeypatch):
    # mutation check: sigma_sharp without its Koszul sign must fail the
    # relabeled draws (the identity-labeled draws above do not notice)
    from types import SimpleNamespace
    from planarops import endo, perms
    monkeypatch.setattr(endo, "perms", SimpleNamespace(
        **{**vars(perms), "parity": lambda seq: 1}))
    _draws, failures = _relabeled_draws()
    assert failures > 0


def test_eval_respects_the_action():
    rng = random.Random(9)
    s = random_structures(rng, (0, 1), max_mu=4)
    from planarops.operad_c import sym_action
    from planarops import perms
    x = c_unit(parse("((* *) *)"))
    for _ in range(8):
        sigma = tuple(rng.sample(range(1, 4), 3))
        # the two sign characters cancel: F(sigma . x) = F(x) o sigma_#
        lhs = eval_element(sym_action(sigma, x), s)
        rhs = sigma_sharp(eval_element(x, s), sigma)
        assert lhs == rhs


# --- structure relations ------------------------------------------------------

def test_associative_fixture_residuals_vanish():
    s = fixture("frobenius")
    for k in range(2, 6):
        assert not residual_a_infinity(s, k)


def test_mu3_fixture_residuals_vanish():
    s = fixture("mu3")
    for k in range(2, 6):
        assert not residual_a_infinity(s, k)


def test_two_term_fixture_residuals_vanish():
    s = fixture("two_term")
    for k in range(2, 6):
        assert not residual_a_infinity(s, k)
    assert not residual_inner(s, 0, 0)


def test_random_structures_fail_residuals():
    rng = random.Random(3)
    failures = 0
    for _ in range(10):
        s = random_structures(rng, (0, 1), max_mu=3)
        if residual_a_infinity(s, 3):
            failures += 1
    assert failures >= 8


def test_fixture_validation_rejects_broken_pairing():
    import json
    with open(FIXTURES / "two_term.json") as fh:
        data = json.load(fh)
    data["rho"]["0,0"][1][1] = "1"      # break the sign choice
    s = structures_from_dict(data)
    with pytest.raises(StructureError):
        validate_structures(s)


# --- the relations against the evaluator ---------------------------------------
#
# A residual is [d, m] minus the evaluated boundary of m's corolla, whatever
# the structure constants: the transcriptions of the relations and the
# decomposition of a one-edge diagram have to agree on every sign.

RELATION_SHAPES = (
    [ShapeClass(TREE, (n,)) for n in range(2, 6)]
    + [ShapeClass(MODULE, (j, t - j)) for t in range(1, 4)
       for j in range(t + 1)]
    + [ShapeClass(INNER, (j, t - j)) for t in range(3) for j in range(t + 1)])
RESIDUALS = {TREE: residual_a_infinity, MODULE: residual_bimodule,
             INNER: residual_inner}


def relation_structures(seed, count=4):
    """`verify._random_structures` to mu_5, with random rho_{j,k} up to
    four leaves."""
    import itertools
    from planarops.verify import _random_structures
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        s = _random_structures(rng, (-1, 0, 1), max_mu=5)
        s.rho_degree = rng.choice((-1, 0, 1))
        for shape in shapes_up_to(4, kinds=(INNER,)):
            arity, _out, deg = map_type(shape, s.rho_degree)
            s.set_map(shape, MultiMap(s.module, arity, "scalar", deg, [
                ((args, None), Fraction(rng.randint(-2, 2)))
                for args in itertools.product(range(3), repeat=arity)
                if sum(s.module.degrees[a] for a in args) + deg == 0]))
        out.append(s)
    return out


def relation_mismatches(structures):
    """The (structure, shape) pairs whose residual is not [d, m] minus the
    evaluated boundary of the corolla."""
    bad = []
    for n, s in enumerate(structures):
        for shape in RELATION_SHAPES:
            expected = commutator(s.d, s.op(shape)) - eval_element(
                boundary_c(c_unit(corolla_of(shape))), s)
            if RESIDUALS[shape.kind](s, *shape.params) != expected:
                bad.append((n, shape))
    return bad


@pytest.mark.parametrize("seed", [5, 11])
def test_residuals_match_the_evaluated_boundary(seed):
    assert relation_mismatches(relation_structures(seed)) == []


def test_insertion_sign_is_load_bearing(monkeypatch):
    # mutation check: the shared insertion loop with its sign dropped (each
    # term scaled by that sign once more) must fail the cross-check
    from planarops import endo
    insertions = endo._insertions

    def unsigned(total, k, first, pick):
        def resigned(i, j, ell):
            outer, inner = pick(i, j, ell)
            return outer.scale(endo.neg_one_pow(i * (j + 1) + j * ell)), inner
        return insertions(total, k, first, resigned)
    monkeypatch.setattr(endo, "_insertions", unsigned)
    bad = relation_mismatches(relation_structures(5))
    assert {n for n, _shape in bad} == {0, 1, 2, 3}
    assert {shape.kind for _n, shape in bad} == {TREE, MODULE, INNER}


# --- chain-map property -------------------------------------------------------

def all_generators(max_leaves):
    shapes = []
    for n in range(2, max_leaves + 1):
        shapes.append(ShapeClass(TREE, (n,)))
    for total in range(1, max_leaves):
        for j in range(total + 1):
            if total + 1 <= max_leaves:
                shapes.append(ShapeClass(MODULE, (j, total - j)))
    for total in range(0, max_leaves - 1):
        for j in range(total + 1):
            shapes.append(ShapeClass(INNER, (j, total - j)))
    for shape in shapes:
        c = corolla_of(shape)
        for deg in range(degree(c) + 1):
            for d in enumerate_class(shape, deg):
                yield d


def test_eval_intertwines_differentials():
    for name in ("frobenius", "two_term", "mu3"):
        s = fixture(name)
        for d in all_generators(4):
            x = c_unit(d)
            lhs = eval_element(boundary_c(x), s)
            rhs = commutator(s.d, eval_element(x, s))
            assert lhs == rhs, (name, d)


# --- tensor structures ---------------------------------------------------------

def test_phi2_is_mu2_tensor_nu2():
    # odd elements on both sides, so the display's sign is not always +1
    # (the fixtures' nonzero mu_2 is all even)
    rng = random.Random(4)
    sa = random_structures(rng, (0, 1, 1), max_mu=2, max_inner=0)
    sb = random_structures(rng, (1, 0, 1), max_mu=2, max_inner=0)
    pair = tensor_structure(sa, sb, max_mu=3, max_inner=1)
    dim_b = sb.module.dim
    expected = MultiMap(pair.module, 2, "module", 0)
    for ((a1, a2), ao), ac in sa.mu_map(2).terms.items():
        for ((b1, b2), bo), bc in sb.mu_map(2).terms.items():
            sign = (-1) ** (sb.module.degrees[b1] * sa.module.degrees[a2])
            expected.add_term(((a1 * dim_b + b1, a2 * dim_b + b2),
                               ao * dim_b + bo), ac * bc * sign)
    assert expected
    assert pair.mu_map(2) == expected


def test_phi3_support_matches_display():
    sa, sb = fixture("frobenius"), fixture("frobenius")
    pair = tensor_structure(sa, sb, max_mu=3, max_inner=1)
    phi3 = pair.mu_map(3)
    t1 = pair_evaluate(unit((c_generator(parse("((* *) *)"))[0],
                             c_generator(tree_corolla(3))[0])),
                       sa, sb)
    t2 = pair_evaluate(unit((c_generator(tree_corolla(3))[0],
                             c_generator(parse("(* (* *))"))[0])),
                       sa, sb)
    assert phi3.support() == (t1 + t2).support()


def test_pairing_display_on_i00_component():
    sa, sb = fixture("two_term"), fixture("frobenius")
    pair = tensor_structure(sa, sb, max_mu=2, max_inner=1)
    rho = pair.rho_map(0, 0)
    da, db = sa.module.degrees, sb.module.degrees
    dim_b = sb.module.dim
    expected = MultiMap(pair.module, 2, "scalar", pair.rho_degree)
    for ((a1, a2), _o), va in sa.rho_map(0, 0).terms.items():
        for ((b1, b2), _o), vb in sb.rho_map(0, 0).terms.items():
            sign = (-1) ** (da[a2] * db[b1])
            expected.add_term(((a1 * dim_b + b1, a2 * dim_b + b2), None),
                              va * vb * sign)
    assert rho
    assert rho == expected


def test_tensor_structure_satisfies_relations():
    sa, sb = fixture("frobenius"), fixture("two_term")
    pair = tensor_structure(sa, sb, max_mu=4, max_inner=2)
    for k in range(2, 5):
        assert not residual_a_infinity(pair, k)
    for j, k in [(1, 0), (0, 1), (1, 1), (2, 0)]:
        assert not residual_bimodule(pair, j, k)
    for j, k in [(0, 0), (1, 0), (0, 1)]:
        assert not residual_inner(pair, j, k)


def test_rho20_identity_on_fixture_pairings():
    for a, b in [("frobenius", "frobenius"), ("two_term", "frobenius")]:
        pair = tensor_structure(fixture(a), fixture(b), max_mu=3, max_inner=2)
        assert not residual_inner(pair, 2, 0)


def test_rho20_identity_negative_control():
    rng = random.Random(17)
    hits = 0
    for _ in range(3):
        sa = random_structures(rng, (0, 1), max_mu=3, max_inner=2)
        pair = tensor_structure(sa, fixture("frobenius"), max_mu=3,
                                max_inner=2)
        if residual_inner(pair, 2, 0):
            hits += 1
    assert hits >= 2


def test_tensor_structures_of_fixture_pairings_satisfy_every_relation():
    # frobenius is all even, so only two_term (x) two_term, with odd
    # elements and a nonzero d on both sides, sees the signs of tensor_maps
    for a, b in [("frobenius", "two_term"), ("two_term", "frobenius"),
                 ("frobenius", "mu3"), ("two_term", "two_term")]:
        validate_structures(tensor_structure(fixture(a), fixture(b),
                                             max_mu=4, max_inner=2))


def cyclic_mu3(dx, rho_degree):
    """x odd and y of degree 3|x| - 1, mu3(x,x,x) = y and the pairing
    rho00(x,y) = rho00(y,x) = 1: cyclic, with zero higher inner products."""
    return structures_from_dict({
        "name": "cyclic_mu3",
        "basis": [{"name": "x", "degree": dx},
                  {"name": "y", "degree": 3 * dx - 1}],
        "rho_degree": rho_degree,
        "mu": {"3": [[["x", "x", "x"], "y", "1"]]},
        "rho": {"0,0": [[["x", "y"], "1"], [["y", "x"], "1"]]}})


@pytest.mark.parametrize("dx, rho_degree", [(1, -3), (-1, 5)])
def test_tensor_square_of_a_cyclic_algebra_is_not_cyclic(dx, rho_degree):
    # the source paper's headline: the tensor product of two cyclic
    # A-infinity algebras carries nonzero higher inner products
    s = validate_structures(cyclic_mu3(dx, rho_degree))
    assert [m for shape, m in s.maps.items()
            if shape.kind == INNER and sum(shape.params) > 0 and m] == []
    square = validate_structures(tensor_structure(s, s, max_mu=4,
                                                  max_inner=2))
    xx = square.module.index("x|x")
    for jk in ((2, 0), (0, 2)):
        assert square.rho_map(*jk).terms == {((xx,) * 4, None): -1}


def test_tensor_psi_intertwines_differentials():
    sa, sb = fixture("two_term"), fixture("frobenius")
    pair_d = tensor_structure(sa, sb, max_mu=2, max_inner=1).d
    for d in all_generators(4):
        x = c_unit(d)
        psi_x = pair_evaluate(delta_c(x), sa, sb)
        psi_dx = pair_evaluate(delta_c(boundary_c(x)), sa, sb)
        assert psi_dx == commutator(pair_d, psi_x), d


def test_tensor_structure_coefficients_are_exact():
    # two_term has a degree -1 basis element, and a sign (-1) ** n with a
    # negative n would be a float
    pair = tensor_structure(fixture("two_term"), fixture("two_term"),
                            max_mu=3, max_inner=2)
    coefs = [c for m in [pair.d, *pair.maps.values()]
             for c in m.terms.values()]
    assert coefs
    assert all(type(c) in (int, Fraction) for c in coefs)


def _dense_precompose_differential(f, d):
    """f o d_tensor summed over every argument tuple: the oracle for
    precompose_differential, which walks f's entries instead."""
    import itertools
    degs = f.module.degrees
    out = MultiMap(f.module, f.arity, f.out, f.degree + 1)
    d_rows, f_rows = {}, {}         # src -> [(mid, c)], args -> [(o, c)]
    for ((src,), mid), c in d.terms.items():
        d_rows.setdefault(src, []).append((mid, c))
    for (args, o), c in f.terms.items():
        f_rows.setdefault(args, []).append((o, c))
    for args in itertools.product(range(f.module.dim), repeat=f.arity):
        for i in range(f.arity):
            sign = (-1) ** (sum(degs[a] for a in args[:i]) % 2)
            for mid, c in d_rows.get(args[i], ()):
                for o, fc in f_rows.get(args[:i] + (mid,) + args[i + 1:], ()):
                    out.add_term((args, o), fc * c * sign)
    return out


def test_precompose_differential_matches_the_dense_sum():
    rng = random.Random(7)
    structures = [random_structures(rng, (0, 1, -1, 0), max_mu=3,
                                    rho_degree=1, max_inner=1),
                  tensor_structure(fixture("two_term"), fixture("frobenius"),
                                   max_mu=3, max_inner=1)]
    checked = 0
    for s in structures:
        for f in s.maps.values():
            got = precompose_differential(f, s.d)
            assert got == _dense_precompose_differential(f, s.d)
            checked += bool(got)
    assert checked >= 4
