"""Permutations of {1..n} as tuples of images."""

from __future__ import annotations


def identity(n):
    return tuple(range(1, n + 1))


def parity(seq):
    """(-1) to the number of inversions of `seq`."""
    sign = 1
    for i, a in enumerate(seq):
        for b in seq[i + 1:]:
            if a > b:
                sign = -sign
    return sign


sign = parity        # the sign of a permutation is the parity of its images


def compose(p, q):
    """(p o q)(j) = p(q(j))."""
    return tuple(p[q[j] - 1] for j in range(len(q)))


def invert(p):
    out = [0] * len(p)
    for j, v in enumerate(p):
        out[v - 1] = j + 1
    return tuple(out)


def rotation(n, r):
    """j -> ((j - 1 - r) mod n) + 1, the relabeling after a left shift by r."""
    return tuple((j - 1 - r) % n + 1 for j in range(1, n + 1))
