"""Integer formal sums over hashable basis elements, and the evaluation of
one node of an operadic decomposition.

A decomposition step is ``(coef, node)`` with node one of

    ("leaf", diagram)
    ("compose", host, i, outer, sigma)     sigma . (host o_i outer)
    ("act", sigma, child)

whose children are generators; sigma of a composition may be None.  Each
operad writes the first step of a generator in this form
(`orientations.decompose_step`), so a map out of it is fixed by a value
for each leaf, an ``o_i`` composition and an action, provided it is
multiplicative and intertwines the actions: its value on a generator is
`evaluate` of the generator's step, with the children's values read from
the map itself.
"""

from __future__ import annotations


class FormalSum:
    """A finite integer combination of basis keys; zero coefficients vanish.
    Only `add_term` and `add` change a sum in place, so it is unhashable.
    Every sum built from others starts from `zero()`, so a subclass gets
    results of its own type."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        self.terms = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for key, coef in items:
            self.add_term(key, coef)

    def zero(self):
        return FormalSum()

    def add_term(self, key, coef):
        if coef == 0:
            return
        new = self.terms.get(key, 0) + coef
        if new:
            self.terms[key] = new
        else:
            del self.terms[key]

    def add(self, other, coef=1):
        """Add coef * other to this sum in place and return it."""
        for key, c in other.terms.items():
            self.add_term(key, coef * c)
        return self

    def apply(self, image):
        """The linear extension of `image`: the sum of coef * image(key)
        over the terms.  Each image(key) is a FormalSum that is only read,
        so a memoized image can be returned as it is.  The result is the
        zero of the first image, or FormalSum() for the empty sum."""
        out = None
        for key, coef in self.terms.items():
            val = image(key)
            if out is None:
                out = val.zero()
            out.add(val, coef)
        return FormalSum() if out is None else out

    def __add__(self, other):
        return self.zero().add(self).add(other)

    def __sub__(self, other):
        return self.zero().add(self).add(other, -1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, n):
        return self.zero().add(self, n)

    def __eq__(self, other):
        return isinstance(other, FormalSum) and self.terms == other.terms

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


def bilinear(x, y, fn):
    """The bilinear extension of fn(kx, ky), which gives a FormalSum."""
    return x.apply(lambda kx: y.apply(lambda ky: fn(kx, ky)))


def evaluate(step, image, leaf, compose, act):
    """Value of one decomposition step, each child's value `image(child)`;
    every value must have a ``scale`` method."""
    coef, node = step
    if node[0] == "leaf":
        val = leaf(node[1])
    elif node[0] == "compose":
        _, host, pos, outer, sigma = node
        val = compose(image(host), pos, image(outer))
        if sigma is not None:
            val = act(sigma, val)
    else:
        val = act(node[1], image(node[2]))
    return val.scale(coef) if coef != 1 else val
