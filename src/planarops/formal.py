"""Integer formal sums over hashable basis elements, and the evaluation of
operadic expressions.

An expression is ``(coef, node)`` with node one of

    ("leaf", diagram)
    ("compose", expr, i, expr)
    ("act", sigma, expr)

Decompositions of generators are written in this form.  Evaluating one
transports it into any target that supplies a value for each leaf, an
``o_i`` composition and an action, provided the transport is multiplicative
and intertwines the actions.
"""

from __future__ import annotations

_BOUND = 2 ** 63


class OverflowGuard(ArithmeticError):
    pass


def _check(n):
    if not -_BOUND < n < _BOUND:
        raise OverflowGuard("coefficient overflow: %d" % n)
    return n


class FormalSum:
    """A finite integer combination of basis keys; zero coefficients vanish."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        self.terms = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for key, coef in items:
            self.add_term(key, coef)

    def add_term(self, key, coef):
        if coef == 0:
            return
        new = _check(self.terms.get(key, 0) + coef)
        if new:
            self.terms[key] = new
        else:
            del self.terms[key]

    def __add__(self, other):
        out = FormalSum(dict(self.terms))
        for key, coef in other.terms.items():
            out.add_term(key, coef)
        return out

    def __sub__(self, other):
        out = FormalSum(dict(self.terms))
        for key, coef in other.terms.items():
            out.add_term(key, -coef)
        return out

    def __neg__(self):
        return FormalSum({k: -c for k, c in self.terms.items()})

    def scale(self, n):
        if n == 0:
            return FormalSum()
        return FormalSum({k: _check(c * n) for k, c in self.terms.items()})

    def map_terms(self, fn):
        """fn(key, coef) -> FormalSum; returns the sum over all terms."""
        out = FormalSum()
        for key, coef in self.terms.items():
            for k2, c2 in fn(key, coef).terms.items():
                out.add_term(k2, c2)
        return out

    def __eq__(self, other):
        return isinstance(other, FormalSum) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

    def __iter__(self):
        return iter(sorted(self.terms.items(), key=lambda kv: repr(kv[0])))

    def support(self):
        return set(self.terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join("%d*%r" % (c, k) for k, c in self)


def unit(key, coef=1):
    return FormalSum(((key, coef),))


def bilinear(x, y, fn, coef=1, out=None):
    """Add coef * cx * cy * fn(kx, ky) over every pair of terms of x and y
    to `out` (a new sum by default) and return it; fn gives a FormalSum."""
    out = FormalSum() if out is None else out
    for kx, cx in x.terms.items():
        for ky, cy in y.terms.items():
            c = coef * cx * cy
            for k, cz in fn(kx, ky).terms.items():
                out.add_term(k, c * cz)
    return out


def evaluate(expr, leaf, compose, act):
    """Value of an expression; every value must have a ``scale`` method."""
    coef, node = expr
    if node[0] == "leaf":
        val = leaf(node[1])
    elif node[0] == "compose":
        val = compose(evaluate(node[1], leaf, compose, act), node[2],
                      evaluate(node[3], leaf, compose, act))
    else:
        val = act(node[1], evaluate(node[2], leaf, compose, act))
    return val.scale(coef) if coef != 1 else val
