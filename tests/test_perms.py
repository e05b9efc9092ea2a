from hypothesis import given, strategies as st

from planarops import perms

permutations = st.integers(0, 8).flatmap(
    lambda n: st.permutations(range(1, n + 1)).map(tuple))


def _bubble_swaps(seq):
    seq, swaps = list(seq), 0
    for end in range(len(seq) - 1, 0, -1):
        for i in range(end):
            if seq[i] > seq[i + 1]:
                seq[i], seq[i + 1] = seq[i + 1], seq[i]
                swaps += 1
    return swaps


def _cycle_sign(perm):
    """(-1)^(n - number of cycles), walking the cycles of `perm`."""
    seen, cycles = set(), 0
    for start in range(1, len(perm) + 1):
        if start not in seen:
            cycles += 1
            j = start
            while j not in seen:
                seen.add(j)
                j = perm[j - 1]
    return (-1) ** (len(perm) - cycles)


@given(st.lists(st.integers(-5, 5), max_size=10))
def test_parity_counts_bubble_sort_swaps(seq):
    assert perms.parity(seq) == (-1) ** _bubble_swaps(seq)


@given(permutations)
def test_sign_matches_the_cycle_formula(perm):
    assert perms.sign(perm) == _cycle_sign(perm)

