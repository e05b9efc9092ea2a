from pathlib import Path

import pytest

from planarops import endo, operad_c, orientations, perms, transfer, verify
from planarops.diagrams import (
    INNER, MODULE, TREE, ShapeClass, cut, degree, edges, enumerate_class,
    graft, leaf_count,
)


def test_run_suite_small_cap_passes(capsys):
    assert verify.run_suite(4) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == len(verify.CHECKS)
    assert "FAIL" not in out


def test_run_suite_rejects_tiny_cap():
    with pytest.raises(ValueError):
        verify.run_suite(3)


def _crashing_check(max_leaves):
    raise KeyError("lost generator")


def test_run_suite_keeps_the_traceback_of_a_crash(capsys, monkeypatch):
    monkeypatch.setattr(verify, "CHECKS", [("crashing", _crashing_check)])
    (result,) = verify.run_checks(4)
    assert not result.ok and result.detail == "error: 'lost generator'"
    assert "_crashing_check" in result.traceback
    assert result.traceback.rstrip().endswith("KeyError: 'lost generator'")
    assert verify.run_suite(4) == 1
    out = capsys.readouterr().out
    assert out.startswith(result.line().split("[")[0])
    assert 'raise KeyError("lost generator")' in out


def test_chain_maps_release_the_memos_of_the_largest_classes(fresh_caches):
    scoped = {graft: [3, 4], cut: [3, 4], transfer._q_image: [2, 3, 4],
              transfer._p_image: [2, 3, 4], transfer._p_fullmetric: [2, 3, 4]}
    assert verify.check_chain_maps(5) == (
        True, "both maps on every generator up to 5 leaves (2558 cubical)")
    for memo, sizes in scoped.items():
        assert memo.sizes() == sizes, memo.__name__
        assert memo.cache_info().currsize > 0
    fresh_caches()
    for memo in scoped:
        assert memo.sizes() == [] and memo.cache_info().currsize == 0


def test_flipped_composition_sign_fails_chain_maps(monkeypatch, fresh_caches):
    # mutation check: corrupting the composition sign must not go unnoticed
    original = operad_c.compose_c

    def flipped(x, i, y):
        return original(x, i, y).scale(-1)

    with monkeypatch.context() as patch:
        patch.setattr(operad_c, "compose_c", flipped)
        ok, _detail = verify.check_chain_maps(4)
        ok2, _detail2 = verify.check_projection_inverts_subdivision(4)
    assert not ok or not ok2



def _sign_without(term):
    """composition_sign with one of its three exponent terms dropped."""
    def sign(c, n):
        terms = {"i(l+1)": c.pos * (leaf_count(c.outer) + 1),
                 "k deg(outer)": leaf_count(c.host) * degree(c.outer),
                 "rot(n-1)": c.graft.rot * (n - 1)}
        terms.pop(term, None)
        return (-1) ** sum(terms.values())
    return sign


def test_sign_terms_match_composition_sign():
    # the mutants below drop one term from this same three-term sum, on
    # cuts that exercise each term (rotations and positive outer degree)
    full = _sign_without(None)
    seen = set()
    for shape in (ShapeClass(TREE, (5,)), ShapeClass(MODULE, (1, 2)),
                  ShapeClass(INNER, (2, 1))):
        for deg in range(3):
            for d in enumerate_class(shape, deg):
                for e in edges(d):
                    c = orientations.split(d, e, edges(d))[0]
                    n = leaf_count(d)
                    assert full(c, n) == orientations.composition_sign(c, n)
                    seen.add((c.graft.rot > 0, degree(c.outer) > 0))
    assert seen == {(False, False), (False, True), (True, False),
                    (True, True)}


@pytest.mark.parametrize("term", ["i(l+1)", "k deg(outer)", "rot(n-1)"])
def test_each_composition_sign_term_is_load_bearing(monkeypatch, fresh_caches,
                                                  term):
    # mutation check: dropping any one term of the merged sign must make
    # the chain-map check fail at cap 5 (cap 4 misses "k deg(outer)")
    with monkeypatch.context() as patch:
        for module in (orientations, operad_c):
            patch.setattr(module, "composition_sign", _sign_without(term))
        ok, _detail = verify.check_chain_maps(5)
    assert not ok, term


_PAIR_CONTRACT = orientations.pair_contract


def _contract_without_rr1(sub, full):
    """pair_contract with its (-1)^(r(r-1)/2) term undone."""
    o = _PAIR_CONTRACT(sub, full)
    r = len(sub.keys)
    return orientations.Orientation(o.sign * (-1) ** (r * (r - 1) // 2),
                                    o.keys)


@pytest.mark.parametrize("mutant", ["reorder parity", "r(r-1)/2"])
def test_pair_contract_signs_are_load_bearing(monkeypatch, fresh_caches,
                                              mutant):
    # mutation check: the induced orientation omega_sd ends in pair_contract;
    # dropping either of its signs must make the chain-map check fail
    from types import SimpleNamespace
    from planarops import perms
    with monkeypatch.context() as patch:
        if mutant == "reorder parity":
            patch.setattr(orientations, "perms", SimpleNamespace(
                **{**vars(perms), "parity": lambda seq: 1}))
        else:
            patch.setattr(orientations, "pair_contract",
                          _contract_without_rr1)
        ok, _detail = verify.check_chain_maps(5)
    assert not ok, mutant


_OMEGA_SD = orientations.omega_sd


def _omega_sd_by_path_parity(s, d, omega_d, path):
    """omega_sd with its sign times (-1)^len(path)."""
    o = _OMEGA_SD(s, d, omega_d, path)
    return orientations.Orientation(o.sign * (-1) ** len(path), o.keys)


def test_check_orientations_sees_a_path_parity_sign(monkeypatch,
                                                    fresh_caches):
    # mutation check: up to 5 leaves the down paths criterion 7 compares
    # have lengths of one parity for every pair, so this mutant needs cap 6
    with monkeypatch.context() as patch:
        for module in (transfer, verify):
            patch.setattr(module, "omega_sd", _omega_sd_by_path_parity)
        ok, _detail = verify.check_orientations(6)
    assert not ok


def test_check_endomorphisms_sees_the_sigma_sharp_koszul_sign(monkeypatch,
                                                            fresh_caches):
    # mutation check: the draws of check_endomorphisms carry random
    # labelings, so sigma_sharp without its Koszul sign must fail them
    from types import SimpleNamespace
    from planarops import endo, perms
    monkeypatch.setattr(endo, "perms", SimpleNamespace(
        **{**vars(perms), "parity": lambda seq: 1}))
    ok, detail = verify.check_endomorphisms(4)
    assert not ok
    assert "multiplicativity" in detail


def test_graft_bookkeeping_check_survives_memoization(monkeypatch,
                                                      fresh_caches):
    # mutation check: a splice that drops the guest must trip graft's
    # self-check, which runs once for each distinct (host, leaf, guest)
    from planarops import diagrams
    host, guest = diagrams.tree_corolla(3), diagrams.tree_corolla(2)
    good = diagrams.graft(host, 2, guest)
    monkeypatch.setattr(diagrams, "_splice_structure", lambda d, pos, e: d)
    assert diagrams.graft(host, 2, guest) is good     # a cache hit
    fresh_caches()
    with pytest.raises(diagrams.DiagramError,
                       match="graft bookkeeping failed"):
        diagrams.graft(host, 2, guest)


def test_omega_std_global_factor_is_load_bearing(monkeypatch, fresh_caches):
    # mutation check: omega_std without (-1)^((n-2)(n-3)/2) is xi, and must
    # fail the chain-map check at cap 5
    with monkeypatch.context() as patch:
        for module in (orientations, transfer, verify):
            patch.setattr(module, "omega_std", orientations.xi)
        ok, _detail = verify.check_chain_maps(5)
    assert not ok


def _delta_q_with(shuffle_sign):
    """diagonal.delta_q with its sign (-1)^rho given by `shuffle_sign`."""
    from itertools import combinations
    from planarops.diagonal import contract
    from planarops.formal import FormalSum
    from planarops.operad_q import QGenerator

    def delta_q(x):
        out = FormalSum()
        for gen, coef in x.terms.items():
            m = gen.metric
            for r in range(len(m) + 1):
                for xs in combinations(range(len(m)), r):
                    rho = sum(1 for i in xs for j in range(len(m))
                              if j not in xs and i < j)
                    left_d = gen.diagram
                    for i in xs:
                        left_d = contract(left_d, m[i])
                    left = QGenerator(left_d, gen.perm,
                                      tuple(m[j] for j in range(len(m))
                                            if j not in xs))
                    right = QGenerator(gen.diagram, gen.perm,
                                       tuple(m[i] for i in xs))
                    out.add_term((left, right), coef * shuffle_sign(rho))
        return out
    return delta_q


def test_delta_q_copy_matches_delta_q():
    # the mutant below drops the shuffle sign from this same copy
    from itertools import chain
    from planarops import diagonal
    from planarops.formal import unit
    from planarops.homology import cell_generators
    copied = _delta_q_with(lambda rho: (-1) ** rho)
    seen_odd = False
    for shape in (ShapeClass(TREE, (4,)), ShapeClass(MODULE, (1, 1)),
                  ShapeClass(INNER, (2, 0))):
        for gen in chain(*cell_generators(shape, "q")[0]):
            x = unit(gen)
            assert copied(x) == diagonal.delta_q(x)
            seen_odd |= len(gen.metric) >= 2
    assert seen_odd


def test_delta_q_shuffle_sign_is_load_bearing(monkeypatch, fresh_caches):
    # mutation check: delta_q without (-1)^rho must fail the diagonal check
    from planarops import diagonal
    mutant = _delta_q_with(lambda rho: 1)
    with monkeypatch.context() as patch:
        for module in (diagonal, verify):
            patch.setattr(module, "delta_q", mutant)
        ok, _detail = verify.check_diagonal(5)
    assert not ok


def _c_tensor_boundary_without_koszul(x):
    """diagonal.c_tensor_boundary with (-1)^deg(a) replaced by +1."""
    from planarops import diagonal
    return diagonal._tensor_boundary(x, operad_c.boundary_c, lambda a: 0)


def test_c_tensor_boundary_koszul_sign_is_load_bearing(monkeypatch,
                                                       fresh_caches):
    # mutation check: the chain-map identity of delta_c must see the
    # Koszul sign of the tensor differential within 4 leaves
    monkeypatch.setattr(verify, "c_tensor_boundary",
                        _c_tensor_boundary_without_koszul)
    ok, detail = verify.check_diagonal(4)
    assert not ok
    assert "delta_c is not a chain map" in detail


def _c_tensor_compose_with(koszul):
    """diagonal.c_tensor_compose with its Koszul sign given by
    `koszul(exponent)`."""
    from planarops import diagonal
    from planarops.formal import bilinear

    def c_tensor_compose(x, i, y):
        def term(ab, uv):
            (a, b), (u, v) = ab, uv
            sign = koszul(degree(b.diagram) * degree(u.diagram))
            return bilinear(operad_c.compose_c(a, i, u),
                            operad_c.compose_c(b, i, v),
                            diagonal._pair).scale(sign)
        return bilinear(x, y, term)
    return c_tensor_compose


def test_c_tensor_compose_copy_matches_c_tensor_compose():
    # the mutant below drops the Koszul sign from this same copy
    from planarops import diagonal
    from planarops.diagrams import tree_corolla
    copied = _c_tensor_compose_with(lambda n: (-1) ** n)
    unsigned = _c_tensor_compose_with(lambda n: 1)
    x = diagonal.delta_c(operad_c.c_unit(tree_corolla(3)))
    seen_sign = False
    for i in (1, 2, 3):
        real = diagonal.c_tensor_compose(x, i, x)
        assert copied(x, i, x) == real
        seen_sign |= unsigned(x, i, x) != real
    assert seen_sign


def test_c_tensor_compose_koszul_sign_is_load_bearing(monkeypatch,
                                                      fresh_caches):
    # mutation check: delta_c composes its corollas' images with the Koszul
    # sign of the tensor composition; without it delta_c leaves the
    # composite p (x) p . Delta . q within 5 leaves
    from planarops import diagonal
    monkeypatch.setattr(diagonal, "c_tensor_compose",
                        _c_tensor_compose_with(lambda n: 1))
    ok, detail = verify.check_diagonal(5)
    assert not ok
    assert "delta_c is not the composite" in detail


def _compose_c_with(eps):
    """operad_c.compose_c with its sign exponent given by
    `eps(i, k, l, degree of y)`."""
    from planarops.diagrams import labeled_graft
    from planarops.formal import FormalSum, unit
    from planarops.orientations import graft_wedge

    def compose_c(x, i, y):
        grafted = labeled_graft(x, i, y)
        if grafted is None:
            return FormalSum()
        g, perm = grafted
        o = graft_wedge(g, x.keys, y.keys, True)
        k, l = leaf_count(x.diagram), leaf_count(y.diagram)
        sign = (-1) ** eps(i, k, l, degree(y.diagram)) * o.sign
        return unit(operad_c.CGenerator(g.diagram, perm, o.keys), sign)
    return compose_c


def test_compose_c_copy_matches_compose_c():
    # the mutant below drops the k * degree(y) term from this same copy
    copied = _compose_c_with(lambda i, k, l, dy: i * (l + 1) + k * dy)
    mutant = _compose_c_with(lambda i, k, l, dy: i * (l + 1))
    seen_sign = False
    for x in _c_generators(ShapeClass(TREE, (3,)), ShapeClass(MODULE, (1, 1))):
        for y in _c_generators(ShapeClass(TREE, (3,)),
                               ShapeClass(INNER, (1, 0))):
            for i in range(1, leaf_count(x.diagram) + 1):
                real = operad_c.compose_c(x, i, y)
                assert copied(x, i, y) == real
                seen_sign |= mutant(x, i, y) != real
    assert seen_sign


def _c_generators(*shapes):
    return [operad_c.c_generator(d)[0] for shape in shapes
            for k in range(3) for d in enumerate_class(shape, k)]


def test_compose_c_eps_is_load_bearing(monkeypatch, fresh_caches):
    # mutation check: compose_c without the k * degree(y) term of its sign
    # must fail the diagonal check within 5 leaves
    from planarops import diagonal
    mutant = _compose_c_with(lambda i, k, l, dy: i * (l + 1))
    for module in (operad_c, diagonal, verify):
        monkeypatch.setattr(module, "compose_c", mutant)
    ok, detail = verify.check_diagonal(5)
    assert not ok
    assert "delta_c is not the composite" in detail


def _compose_at_with(koszul):
    """endo.compose_at with its Koszul sign given by `koszul(exponent)`."""
    from planarops.endo import MultiMap

    def compose_at(f, i, g):
        degs = f.module.degrees
        out = MultiMap(f.module, f.arity + g.arity - 1, f.out,
                       f.degree + g.degree)
        for (f_args, f_out), f_c in f.terms.items():
            for (g_args, g_out), g_c in g.terms.items():
                if f_args[i - 1] == g_out:
                    sign = koszul(
                        g.degree * sum(degs[a] for a in f_args[:i - 1]))
                    out.add_term((f_args[:i - 1] + g_args + f_args[i:], f_out),
                                 f_c * g_c * sign)
        return out
    return compose_at


def test_compose_at_copy_matches_compose_at():
    # the mutant below drops the Koszul sign from this same copy
    import random
    from planarops import endo
    copied = _compose_at_with(endo.neg_one_pow)
    unsigned = _compose_at_with(lambda n: 1)
    rng = random.Random(7)
    seen_sign = False
    for _ in range(6):
        s = verify._random_structures(rng, (0, rng.choice((-1, 1))))
        for arity in (2, 3):
            for i in range(1, arity + 1):
                f, g = s.mu_map(arity), s.mu_map(3)
                real = endo.compose_at(f, i, g)
                assert copied(f, i, g) == real
                seen_sign |= unsigned(f, i, g) != real
    assert seen_sign


def test_check_endomorphisms_sees_the_compose_at_koszul_sign(monkeypatch,
                                                            fresh_caches):
    # mutation check: compose_at without its Koszul sign must fail the
    # relabeled multiplicativity draws of check_endomorphisms
    from planarops import endo
    monkeypatch.setattr(endo, "compose_at", _compose_at_with(lambda n: 1))
    ok, detail = verify.check_endomorphisms(4)
    assert not ok
    assert "multiplicativity" in detail


def _tensor_maps_with(koszul, shuffle):
    """endo.tensor_maps with its two signs given by `koszul(exponent)` and
    `shuffle(odd targets)`."""
    def tensor_maps(fa, fb):
        da, db = fa.module.degrees, fb.module.degrees
        dim_b, n = fb.module.dim, fa.arity
        out = endo.MultiMap(endo.tensor_module(fa.module, fb.module), n,
                            fa.out, fa.degree + fb.degree)
        for (a_args, a_out), a_c in fa.terms.items():
            sign = koszul(fb.degree * sum(da[a] for a in a_args))
            for (b_args, b_out), b_c in fb.terms.items():
                args = tuple(a * dim_b + b for a, b in zip(a_args, b_args))
                odd = [t for i, (a, b) in enumerate(zip(a_args, b_args))
                       for t, deg in ((i, da[a]), (n + i, db[b])) if deg % 2]
                o = None if a_out is None else a_out * dim_b + b_out
                out.add_term((args, o), sign * shuffle(odd) * a_c * b_c)
        return out
    return tensor_maps


TENSOR_MAPS_MUTANTS = {
    "koszul = 1": _tensor_maps_with(lambda n: 1, perms.parity),
    "parity dropped": _tensor_maps_with(endo.neg_one_pow, lambda odd: 1),
}


def test_tensor_maps_copy_matches_tensor_maps():
    # the mutants below each drop one sign from this same copy, and each
    # changes some product of two_term's maps
    two = endo.load_structures(
        Path(verify.__file__).parent / "fixtures" / "two_term.json")
    copied = _tensor_maps_with(endo.neg_one_pow, perms.parity)
    maps = [two.d, *two.maps.values()]
    changed = set()
    for fa in maps:
        for fb in maps:
            if fa.arity == fb.arity:
                real = endo.tensor_maps(fa, fb)
                assert copied(fa, fb) == real
                changed |= {name for name, mutant in
                            TENSOR_MAPS_MUTANTS.items()
                            if mutant(fa, fb) != real}
    assert changed == set(TENSOR_MAPS_MUTANTS)


@pytest.mark.parametrize("mutant", sorted(TENSOR_MAPS_MUTANTS))
def test_check_endomorphisms_sees_the_tensor_maps_signs(monkeypatch,
                                                        fresh_caches, mutant):
    # mutation check: the two_term (x) two_term pairing of criterion 9 must
    # see either sign of the A (x) B Koszul rule dropped
    monkeypatch.setattr(endo, "tensor_maps", TENSOR_MAPS_MUTANTS[mutant])
    ok, detail = verify.check_endomorphisms(4)
    assert not ok, mutant
    assert "tensor evaluation chain relation" in detail


_tensor_maps = endo.tensor_maps


def _binary_display_sign_flipped(fa, fb):
    """endo.tensor_maps with (-1)^(|b1||a2|) flipped on binary maps into
    the module: a sign only a nonzero mu_2 (x) nu_2 display sees."""
    out = _tensor_maps(fa, fb)
    if fa.arity != 2 or fa.out != "module":
        return out
    da, db, dim_b = fa.module.degrees, fb.module.degrees, fb.module.dim
    flipped = endo.MultiMap(out.module, 2, out.out, out.degree)
    for ((x1, x2), o), c in out.terms.items():
        odd = db[x1 % dim_b] * da[x2 // dim_b] % 2
        flipped.add_term(((x1, x2), o), -c if odd else c)
    return flipped


def test_check_endomorphisms_sees_the_binary_display_sign(monkeypatch,
                                                          fresh_caches):
    # mutation check: every fixture pairing has a factor with mu_2 = 0, so
    # only the seeded random pairing with odd elements sees this sign
    monkeypatch.setattr(endo, "tensor_maps", _binary_display_sign_flipped)
    ok, detail = verify.check_endomorphisms(4)
    assert not ok
    assert detail == "binary tensor multiplication display (random odd)"
