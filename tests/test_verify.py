import pytest

from planarops import operad_c, orientations, transfer, verify
from planarops.diagrams import (
    INNER, MODULE, TREE, ShapeClass, degree, edges, enumerate_class,
    leaf_count,
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


def test_flipped_composition_sign_fails_chain_maps():
    # mutation check: corrupting the composition sign must not go unnoticed
    original = operad_c.compose_c

    def flipped(x, i, y):
        return original(x, i, y).scale(-1)

    operad_c.compose_c = flipped
    transfer._p_fullmetric.cache_clear()
    transfer._q_corolla.cache_clear()
    try:
        ok, _detail = verify.check_chain_maps(4)
        ok2, _detail2 = verify.check_projection_inverts_subdivision(4)
    finally:
        operad_c.compose_c = original
        transfer._p_fullmetric.cache_clear()
        transfer._q_corolla.cache_clear()
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


def _clear_sign_caches():
    orientations.xi.cache_clear()
    orientations.omega_std.cache_clear()
    transfer._q_corolla.cache_clear()
    transfer._p_fullmetric.cache_clear()


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
def test_each_composition_sign_term_is_load_bearing(monkeypatch, term):
    # mutation check: dropping any one term of the merged sign must make
    # the chain-map check fail at cap 5 (cap 4 misses "k deg(outer)")
    _clear_sign_caches()
    try:
        with monkeypatch.context() as patch:
            for module in (orientations, operad_c):
                patch.setattr(module, "composition_sign", _sign_without(term))
            ok, _detail = verify.check_chain_maps(5)
    finally:
        _clear_sign_caches()
    assert not ok, term


_PAIR_CONTRACT = orientations.pair_contract


def _contract_without_rr1(sub, full):
    """pair_contract with its (-1)^(r(r-1)/2) term undone."""
    o = _PAIR_CONTRACT(sub, full)
    r = len(sub.keys)
    return orientations.Orientation(o.sign * (-1) ** (r * (r - 1) // 2),
                                    o.keys)


@pytest.mark.parametrize("mutant", ["reorder parity", "r(r-1)/2"])
def test_pair_contract_signs_are_load_bearing(monkeypatch, mutant):
    # mutation check: the induced orientation omega_sd ends in pair_contract;
    # dropping either of its signs must make the chain-map check fail
    from types import SimpleNamespace
    from planarops import perms
    _clear_sign_caches()
    try:
        with monkeypatch.context() as patch:
            if mutant == "reorder parity":
                patch.setattr(orientations, "perms", SimpleNamespace(
                    **{**vars(perms), "parity": lambda seq: 1}))
            else:
                patch.setattr(orientations, "pair_contract",
                              _contract_without_rr1)
            ok, _detail = verify.check_chain_maps(5)
    finally:
        _clear_sign_caches()
    assert not ok, mutant


def test_check_endomorphisms_sees_the_sigma_sharp_koszul_sign(monkeypatch):
    # mutation check: the draws of check_endomorphisms carry random
    # labelings, so sigma_sharp without its Koszul sign must fail them
    from types import SimpleNamespace
    from planarops import endo, perms
    monkeypatch.setattr(endo, "perms", SimpleNamespace(
        **{**vars(perms), "parity": lambda seq: 1}))
    ok, detail = verify.check_endomorphisms(4)
    assert not ok
    assert "multiplicativity" in detail
