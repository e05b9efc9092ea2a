import pytest

from planarops.formal import FormalSum, unit


def test_coefficients_past_64_bits_stay_exact():
    big = 2 ** 63
    x = unit("a", big).add(unit("b", -big), big)
    assert x.terms == {"a": big, "b": -big * big}
    assert x.scale(3).terms == {"a": 3 * big, "b": -3 * big * big}
    y = x.apply(lambda key: FormalSum({key: big, "c": 1}))
    assert y.terms == {"a": big * big, "b": -big ** 3, "c": big - big * big}


def test_apply_combines_cancels_and_only_reads_its_images():
    shared = FormalSum({"u": 1, "v": -1})
    images = {"a": shared, "b": shared, "c": FormalSum({"v": 2})}
    x = FormalSum({"a": 2, "b": -1, "c": 1})
    for _ in range(2):
        assert x.apply(images.__getitem__) == FormalSum({"u": 1, "v": 1})
    assert x.apply(lambda key: shared) == FormalSum({"u": 2, "v": -2})
    assert FormalSum({"a": 1, "b": -1}).apply(images.__getitem__) == \
        FormalSum()
    assert shared.terms == {"u": 1, "v": -1}


def test_formal_sums_are_unhashable():
    with pytest.raises(TypeError):
        hash(unit("a"))
